package jobs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestSubmitBudgetBoundsInMemoryBodies: the ingest buffer budget bounds
// a trace submitted from memory as it bounds a streamed upload. Past a
// 1 MiB budget a 2 MB text body is refused with ErrStreamBusy and
// leaves nothing reserved; a 0.5 MB body is accepted.
func TestSubmitBudgetBoundsInMemoryBodies(t *testing.T) {
	svc := openService(t, Config{Paused: true, StreamMaxBuffer: 1 << 20})
	if _, _, err := svc.Submit("big", paddedTextTrace(t, "ior-hard", 2_000_000)); !errors.Is(err, ErrStreamBusy) {
		t.Fatalf("2 MB body: err = %v, want ErrStreamBusy", err)
	}
	if got := svc.streamInflight.Load(); got != 0 {
		t.Errorf("refused body left %d bytes reserved", got)
	}
	if _, _, err := svc.Submit("small", paddedTextTrace(t, "ior-rnd4k", 500_000)); err != nil {
		t.Fatalf("0.5 MB body: %v", err)
	}
}

// gatedReader reads its body up to the last byte, tells waiting it got
// there, and hands out the last byte once gate is closed.
type gatedReader struct {
	head, tail io.Reader
	waiting    *sync.WaitGroup
	gate       <-chan struct{}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if n, err := g.head.Read(p); err != io.EOF {
		return n, err
	}
	if g.waiting != nil {
		g.waiting.Done()
		g.waiting = nil
	}
	<-g.gate
	return g.tail.Read(p)
}

// TestIdenticalUploadsLeaveOneTrace: identical uploads released to
// finish at once make one job, and each upload that wrote its trace and
// then found the job already admitted removed what it wrote: the store
// holds one trace per job. Whether two uploads overlap in the write is
// up to the scheduler, so the test runs ten rounds.
func TestIdenticalUploadsLeaveOneTrace(t *testing.T) {
	svc := openService(t, Config{Paused: true, QueueDepth: 16})
	traces := filepath.Join(svc.Store().Dir(), "traces")
	for round := 0; round < 10; round++ {
		body := textTrace(t, "ior-hard", 100+round)
		last := len(body) - 1
		gate := make(chan struct{})
		ids := make([]string, 8)
		var waiting, wg sync.WaitGroup
		for i := range ids {
			waiting.Add(1)
			wg.Add(1)
			r := &gatedReader{bytes.NewReader(body[:last]), bytes.NewReader(body[last:]), &waiting, gate}
			go func(i int) {
				defer wg.Done()
				j, _, err := svc.SubmitStream("same", r)
				if err != nil {
					t.Error(err)
				}
				ids[i] = j.ID
			}(i)
		}
		waiting.Wait()
		close(gate)
		wg.Wait()
		for _, id := range ids[1:] {
			if id != ids[0] {
				t.Fatalf("round %d: identical uploads made jobs %v, want one", round, ids)
			}
		}
		if _, err := os.Stat(filepath.Join(traces, ids[0]+".darshan")); err != nil {
			t.Fatalf("round %d: job %s has no trace: %v", round, ids[0], err)
		}
		if files, _ := os.ReadDir(traces); len(files) != round+1 {
			t.Fatalf("round %d: traces/ holds %d files for %d jobs", round, len(files), round+1)
		}
	}
}

// TestRecordWithIngestModeLoads: a job record written before the upload
// routes shared one ingest carries an ingest "mode"; it still loads.
func TestRecordWithIngestModeLoads(t *testing.T) {
	dir := t.TempDir()
	rec := `{"id":"j-0123456789ab","trace":"old","hash":"ab","state":"done","attempts":1,` +
		`"ingest":{"mode":"stream","bytes":3300000,"shards":4,"parse_overlapped":true},` +
		`"submitted_at":"2026-10-01T00:00:00Z","started_at":"2026-10-01T00:00:01Z","finished_at":"2026-10-01T00:00:02Z"}`
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), []byte(rec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := openService(t, Config{Dir: dir, Paused: true})
	j, err := svc.Get("j-0123456789ab")
	if err != nil {
		t.Fatal(err)
	}
	if in := j.Ingest; in == nil || in.Bytes != 3300000 || in.Shards != 4 || !in.ParseOverlapped {
		t.Errorf("ingest = %+v, want the record's bytes, shards and overlap", in)
	}
}

// TestUnboundedBudgetReleasesWhatItCharges: with the budget disabled
// (negative), an upload still releases only what it charged, so the
// in-flight gauge returns to zero instead of going negative.
func TestUnboundedBudgetReleasesWhatItCharges(t *testing.T) {
	svc := openService(t, Config{Paused: true, StreamMaxBuffer: -1})
	if _, _, err := svc.SubmitStream("any", bytes.NewReader(textTrace(t, "ior-hard", 1))); err != nil {
		t.Fatal(err)
	}
	if got := svc.streamInflight.Load(); got != 0 {
		t.Errorf("in-flight bytes after an upload with the bound disabled = %d, want 0", got)
	}
}
