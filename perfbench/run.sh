#!/usr/bin/env bash
# Builds the service benchmark from this checkout and runs it. Every
# argument is passed through; see the comment at the top of
# perfbench/main.go. Build outputs and run data stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
