package extractor

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"ion/internal/obs"
)

// TestExtractContextConcurrent runs many extractions of a shared,
// read-only log at once. The parallel module builders inside each
// extract call plus the cross-call concurrency make this an
// effective probe under -race: the log must only ever be read, and the
// outputs must not share mutable state.
func TestExtractContextConcurrent(t *testing.T) {
	log := testLog(t)
	want, err := extract(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.Table(TablePOSIX).Write(&wantCSV); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	outs := make([]*Output, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tracer := obs.NewTracer()
			ctx := obs.WithTracer(context.Background(), tracer)
			out, err := extract(ctx, log)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()

	for i, out := range outs {
		if out == nil {
			continue // error already reported
		}
		if len(out.Tables) != len(want.Tables) {
			t.Fatalf("goroutine %d: %d tables, want %d", i, len(out.Tables), len(want.Tables))
		}
		var got bytes.Buffer
		if err := out.Table(TablePOSIX).Write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantCSV.Bytes()) {
			t.Fatalf("goroutine %d: POSIX table differs from serial extraction", i)
		}
	}
}

// TestExtractContextSpanPerModule checks the worker pool still emits
// one extract_module span per table it builds.
func TestExtractContextSpanPerModule(t *testing.T) {
	log := testLog(t)
	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	out, err := extract(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, sp := range tracer.Timeline().Spans {
		if sp.Name == "extract_module" {
			spans++
		}
	}
	if spans != len(out.Tables) {
		t.Fatalf("extract_module spans = %d, want one per table (%d)", spans, len(out.Tables))
	}
}
