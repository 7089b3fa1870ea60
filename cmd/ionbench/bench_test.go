package main

import (
	"bytes"
	"fmt"
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
