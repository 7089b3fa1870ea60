package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"ion/internal/darshan"
	"ion/internal/obs"
)

// paddedTextTrace renders a text trace and pads it past several stream
// chunks with metadata comments, so the streaming path cuts multiple
// shards and dispatches parses while the "upload" is still in flight.
func paddedTextTrace(t *testing.T, workload string, minBytes int) []byte {
	t.Helper()
	body := textTrace(t, workload, 0)
	var buf bytes.Buffer
	buf.Write(body)
	for i := 0; buf.Len() < minBytes; i++ {
		fmt.Fprintf(&buf, "# metadata: stream_pad_%d = %d\n", i, i)
	}
	return buf.Bytes()
}

func TestSubmitStreamAndComplete(t *testing.T) {
	svc := openService(t, Config{Workers: 1})
	body := paddedTextTrace(t, "ior-hard", 3<<20)

	j, dedup, err := svc.SubmitStream("ior-hard", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if dedup {
		t.Error("first streamed submission reported as dedup hit")
	}
	if j.Ingest == nil {
		t.Fatalf("ingest provenance missing or wrong: %+v", j.Ingest)
	}
	if j.Ingest.Bytes != int64(len(body)) {
		t.Errorf("ingest bytes = %d, want %d", j.Ingest.Bytes, len(body))
	}
	if j.Ingest.Shards < 2 {
		t.Errorf("expected multiple parse shards for a %d-byte body, got %d", len(body), j.Ingest.Shards)
	}
	if !j.Ingest.ParseOverlapped {
		t.Error("no shard parsed during the upload")
	}

	final := waitDone(t, svc, j.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	if _, err := svc.Report(j.ID); err != nil {
		t.Fatalf("report: %v", err)
	}
	// The parse handed off during ingestion must be consumed, not leak.
	svc.mu.Lock()
	parked := len(svc.parked)
	svc.mu.Unlock()
	if parked != 0 {
		t.Errorf("%d pre-parsed logs leaked after completion", parked)
	}
}

func TestSubmitStreamBinaryBody(t *testing.T) {
	svc := openService(t, Config{Workers: 1})
	body := traceBytes(t, "ior-easy-1m-fpp")
	j, dedup, err := svc.SubmitStream("ior-easy-1m-fpp", bytes.NewReader(body))
	if err != nil || dedup {
		t.Fatalf("SubmitStream(binary) = dedup %v, err %v", dedup, err)
	}
	if final := waitDone(t, svc, j.ID); final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
}

func TestSubmitStreamDedupAcrossPaths(t *testing.T) {
	svc := openService(t, Config{Workers: 1})
	body := textTrace(t, "ior-hard", 1)

	j1, _, err := svc.Submit("whole-body", body)
	if err != nil {
		t.Fatal(err)
	}
	// Identical bytes streamed in must hash identically and hit dedup:
	// the incremental hash and the whole-body hash are the same key.
	j2, dedup, err := svc.SubmitStream("streamed-copy", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !dedup || j2.ID != j1.ID {
		t.Fatalf("streamed copy not deduplicated: dedup=%v id=%s want %s", dedup, j2.ID, j1.ID)
	}
	// The dedup hit must park nothing, and the body submission's own
	// parse is parked until its worker takes it.
	waitDone(t, svc, j1.ID)
	svc.mu.Lock()
	parked := len(svc.parked)
	svc.mu.Unlock()
	if parked != 0 {
		t.Errorf("%d pre-parsed logs leaked after dedup hit", parked)
	}
}

// tiledBinaryTrace is openpmd-baseline's binary container with every
// DXT trace's events repeated four times: a body over 1 MiB, so a
// stream of it fills more than one segment of the text parser.
func tiledBinaryTrace(t *testing.T) []byte {
	t.Helper()
	// Decode a private copy: the generated log is shared between tests.
	log, err := darshan.ReadBinary(bytes.NewReader(traceBytes(t, "openpmd-baseline")))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range log.DXT {
		n := len(tr.Events)
		for i := 1; i < 4; i++ {
			tr.Events = append(tr.Events, tr.Events[:n]...)
		}
	}
	var buf bytes.Buffer
	if err := log.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 1<<20 {
		t.Fatalf("tiled container is %d bytes, want over 1 MiB", buf.Len())
	}
	return buf.Bytes()
}

// pacedReader hands out its body 64 KiB per Read, a millisecond apart,
// the way an upload arrives over a network: parse work dispatched
// during the upload gets to run before it ends.
type pacedReader struct{ r io.Reader }

func (p pacedReader) Read(b []byte) (int, error) {
	time.Sleep(time.Millisecond)
	if len(b) > 64<<10 {
		b = b[:64<<10]
	}
	return p.r.Read(b)
}

// TestSubmitStreamMatchesBodyReport: the same bytes give the same
// report through SubmitStream as through Submit, for darshan-parser
// text and for a binary container larger than a stream segment.
func TestSubmitStreamMatchesBodyReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"text", textTrace(t, "ior-hard", 2)},
		{"binary-over-1MiB", tiledBinaryTrace(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streamSvc := openService(t, Config{Workers: 1})
			js, _, err := streamSvc.SubmitStream("trace", pacedReader{bytes.NewReader(tc.body)})
			if err != nil {
				t.Fatalf("SubmitStream of a %d-byte body: %v", len(tc.body), err)
			}
			if js.Ingest.Bytes != int64(len(tc.body)) {
				t.Errorf("streamed ingest bytes = %d, want %d", js.Ingest.Bytes, len(tc.body))
			}
			if got := waitDone(t, streamSvc, js.ID); got.State != StateDone {
				t.Fatalf("streamed job: state %s (%s)", got.State, got.Error)
			}
			bodySvc := openService(t, Config{Workers: 1})
			jb, _, err := bodySvc.Submit("trace", tc.body)
			if err != nil {
				t.Fatal(err)
			}
			if got := waitDone(t, bodySvc, jb.ID); got.State != StateDone {
				t.Fatalf("whole-body job: state %s (%s)", got.State, got.Error)
			}

			rb, err := bodySvc.Report(jb.ID)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := streamSvc.Report(js.ID)
			if err != nil {
				t.Fatal(err)
			}
			// The extraction directory is the only legitimately
			// path-dependent field; everything else must be identical
			// across ingestion paths.
			rb.CSVDir, rs.CSVDir = "", ""
			bj, _ := json.Marshal(rb)
			sj, _ := json.Marshal(rs)
			if !bytes.Equal(bj, sj) {
				t.Errorf("streamed report diverged from whole-body report:\n--- body ---\n%s\n--- stream ---\n%s", bj, sj)
			}
		})
	}
}

func TestSubmitStreamBadTrace(t *testing.T) {
	svc := openService(t, Config{Workers: 1})
	_, _, err := svc.SubmitStream("junk", strings.NewReader("this is not a darshan log\n"))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error lost parse position: %v", err)
	}
	if _, _, err := svc.SubmitStream("empty", strings.NewReader("")); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("empty body err = %v, want ErrBadTrace", err)
	}
}

// TestSubmitStreamBadBodyReadToEnd: a multi-megabyte text body whose
// first line is malformed is read to its end whatever the reader's
// pace, and rejected with the error naming line 1. Whether an early
// shard's failure cut the upload short must not depend on scheduling.
func TestSubmitStreamBadBodyReadToEnd(t *testing.T) {
	body := append([]byte("this is not a darshan log\n"), paddedTextTrace(t, "ior-hard", 2_400_000)...)
	for _, tc := range []struct {
		name string
		r    func() io.Reader
	}{
		{"paced", func() io.Reader { return pacedReader{bytes.NewReader(body)} }},
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(body) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			svc := openService(t, Config{Workers: 1, Obs: reg})
			_, _, err := svc.SubmitStream("bad", tc.r())
			if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "line 1") {
				t.Fatalf("err = %v, want ErrBadTrace naming line 1", err)
			}
			if got := gatherGauge(t, reg, "ion_stream_bytes_total"); got != float64(len(body)) {
				t.Errorf("read %.0f of the %d-byte body", got, len(body))
			}
		})
	}
}

func TestSubmitStreamBudgetExhausted(t *testing.T) {
	svc := openService(t, Config{Workers: 1, StreamMaxBuffer: 16})
	body := textTrace(t, "ior-hard", 3)
	_, _, err := svc.SubmitStream("too-big", bytes.NewReader(body))
	if !errors.Is(err, ErrStreamBusy) {
		t.Fatalf("err = %v, want ErrStreamBusy", err)
	}
	if got := svc.streamInflight.Load(); got != 0 {
		t.Errorf("rejected stream left %d bytes reserved", got)
	}
	// The budget is back; a small enough body must still go through.
	if _, _, err := svc.SubmitStream("tiny-ok", strings.NewReader("x")); errors.Is(err, ErrStreamBusy) {
		t.Errorf("budget not released after rejection: %v", err)
	}
}
