package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestIonserveDefaults builds cmd/ionserve from this tree and checks
// that every setting the benchmark mirrors equals the default
// `ionserve -h` prints, so the benchmark never measures a
// configuration ionserve no longer ships.
func TestIonserveDefaults(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ionserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ionserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ionserve: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("ionserve -h: %v\n%s", err, out)
	}
	defaults := parseDefaults(string(out))
	for name, want := range ionserveDefaults.flags() {
		got, ok := defaults[name]
		if !ok {
			t.Errorf("ionserve has no -%s flag", name)
			continue
		}
		if got != want {
			t.Errorf("-%s: ionserve default %q, benchmark uses %q", name, got, want)
		}
	}
}

var (
	flagLine    = regexp.MustCompile(`^  -([a-z0-9-]+)(?: (\w+))?$`)
	defaultText = regexp.MustCompile(`\(default (.*)\)$`)
)

// parseDefaults reads flag.PrintDefaults output into flag → default,
// filling in the zero value flag leaves unprinted.
func parseDefaults(help string) map[string]string {
	zero := map[string]string{"": "false", "int": "0", "float": "0", "duration": "0s", "string": "", "value": ""}
	out := map[string]string{}
	name := ""
	for _, line := range strings.Split(help, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			name = m[1]
			out[name] = zero[m[2]]
			continue
		}
		if m := defaultText.FindStringSubmatch(strings.TrimSpace(line)); m != nil && name != "" {
			out[name] = strings.Trim(m[1], `"`)
		}
	}
	return out
}
