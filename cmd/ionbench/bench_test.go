package main

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"ion/internal/darshan"
	"ion/internal/testutil"
)

// benchBody renders the bench workload as text and tiles it past
// minBytes so the sharded paths cut several real shards.
func benchBody(tb testing.TB, minBytes int) []byte {
	tb.Helper()
	log, err := testutil.Log("openpmd-baseline")
	if err != nil {
		tb.Fatal(err)
	}
	var text bytes.Buffer
	if err := log.WriteText(&text); err != nil {
		tb.Fatal(err)
	}
	if err := log.WriteDXTText(&text); err != nil {
		tb.Fatal(err)
	}
	return tileTrace(text.Bytes(), minBytes)
}

// BenchmarkParseTextParallel sweeps the shard pool size over a body
// tiled past 8 MiB, cut into the segments the service cuts for an
// upload of that size; workers=1 parses them one at a time.
func BenchmarkParseTextParallel(b *testing.B) {
	body := benchBody(b, 8<<20)
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := darshan.ParseTextParallel(body, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamIngest measures the full streaming path — 64 KiB
// writes, incremental sharding, merge — as the HTTP handler drives it.
// Rendering the body is set-up, outside the timer.
func BenchmarkStreamIngest(b *testing.B) {
	body := benchBody(b, 8<<20)
	b.ResetTimer()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := streamOnce(body); err != nil {
			b.Fatal(err)
		}
	}
}

// tileTrace repeats a rendered trace until it reaches minBytes, so the
// sharded parser has enough input to cut real shards.
func tileTrace(text []byte, minBytes int) []byte {
	big := make([]byte, 0, minBytes+len(text))
	for len(big) < minBytes {
		big = append(big, text...)
	}
	return big
}

// workerSweep returns the deduplicated shard-pool sizes the parse
// benchmark sweeps: 1, 2, 4, and whatever GOMAXPROCS is here.
func workerSweep() []int {
	sweep := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	out := sweep[:0]
	for _, w := range sweep {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// streamOnce pushes the body through a StreamParser in 64 KiB writes,
// the same cadence the HTTP handler reads a chunked upload at.
func streamOnce(body []byte) error {
	sp := darshan.NewStreamParser(darshan.StreamOptions{})
	for off := 0; off < len(body); off += 64 << 10 {
		end := off + 64<<10
		if end > len(body) {
			end = len(body)
		}
		if _, err := sp.Write(body[off:end]); err != nil {
			break
		}
	}
	_, _, err := sp.Finish()
	return err
}
