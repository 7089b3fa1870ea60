package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/obs"
)

// jobTimeline reads a job's persisted span timeline.
func jobTimeline(t *testing.T, svc *Service, id string) obs.Timeline {
	t.Helper()
	raw, err := svc.Store().Timeline(id)
	if err != nil {
		t.Fatalf("timeline for %s: %v", id, err)
	}
	var tl obs.Timeline
	if err := json.Unmarshal(raw, &tl); err != nil {
		t.Fatalf("decoding timeline: %v", err)
	}
	return tl
}

// spanEnd is when a timeline record ended.
func spanEnd(r obs.SpanRecord) time.Time {
	return r.Start.Add(time.Duration(r.Seconds * float64(time.Second)))
}

// checkSingleParse asserts that a finished job was parsed exactly once,
// at submission: its timeline holds one parse span, adopted by the job
// root and ended before it started, and "job" is the only root. It
// returns the parse span.
func checkSingleParse(t *testing.T, svc *Service, j Job) obs.SpanRecord {
	t.Helper()
	tl := jobTimeline(t, svc, j.ID)
	roots := tl.Roots()
	var root obs.SpanRecord
	var parses []obs.SpanRecord
	for _, r := range tl.Spans {
		if len(roots) == 1 && r.ID == roots[0] {
			root = r
		}
		if r.Name == "parse" {
			parses = append(parses, r)
		}
	}
	if len(roots) != 1 || root.Name != "job" {
		t.Fatalf("job %s: roots %v (%q), want the job span alone", j.ID, roots, root.Name)
	}
	if len(parses) != 1 {
		t.Fatalf("job %s: %d parse spans, want exactly one", j.ID, len(parses))
	}
	p := parses[0]
	if p.Parent != root.ID || spanEnd(p).After(root.Start) {
		t.Fatalf("job %s: parse %+v is not the submission's parse adopted by root %+v", j.ID, p, root)
	}
	return p
}

// TestSubmitParsesOnce: a whole-body text submission is parsed once, at
// Submit, in shards; the worker reuses that parse, and the job's
// timeline shows it under the job root.
func TestSubmitParsesOnce(t *testing.T) {
	svc := openService(t, Config{Workers: 1, ParseWorkers: 2})
	body := paddedTextTrace(t, "ior-hard", 512<<10)

	j, _, err := svc.Submit("big", body)
	if err != nil {
		t.Fatal(err)
	}
	if j.Ingest == nil || j.Ingest.Shards != 2 {
		t.Fatalf("ingest = %+v, want a body parsed in 2 shards", j.Ingest)
	}
	final := waitDone(t, svc, j.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	parse := checkSingleParse(t, svc, final)
	tl := jobTimeline(t, svc, j.ID)
	if kids := tl.Children(parse.ID); len(kids) != 2 || kids[0].Name != "parse_shard" || kids[1].Name != "parse_shard" {
		t.Errorf("parse children = %+v, want its two parse_shard spans", kids)
	}
	if got := svc.parseShards.Value(); got != 2 {
		t.Errorf("ion_parse_shards_total = %v, want 2 (one parse)", got)
	}
}

// TestSubmitStreamDuplicateKeepsParkedParse: a duplicate streamed
// upload that arrives while the original is still queued is a dedup
// hit and must not take the original's parse from it.
func TestSubmitStreamDuplicateKeepsParkedParse(t *testing.T) {
	gate := &gateClient{
		Client:  expertsim.New(),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	svc := openService(t, Config{Workers: 1, Client: gate})
	busy, _, err := svc.Submit("busy", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never started the busy job")
	}

	body := textTrace(t, "ior-hard", 2)
	j1, dedup, err := svc.SubmitStream("first", bytes.NewReader(body))
	if err != nil || dedup {
		t.Fatalf("first stream: dedup %v, err %v", dedup, err)
	}
	j2, dedup, err := svc.SubmitStream("again", bytes.NewReader(body))
	if err != nil || !dedup || j2.ID != j1.ID {
		t.Fatalf("duplicate stream: id %s dedup %v err %v, want a dedup hit on %s", j2.ID, dedup, err, j1.ID)
	}
	close(gate.release)
	waitDone(t, svc, busy.ID)
	if final := waitDone(t, svc, j1.ID); final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	} else {
		checkSingleParse(t, svc, final)
	}
}

// TestParseHandOffConcurrent races submissions of distinct and
// identical traces over both ingest paths against two workers (CI
// runs it under -race, repeatedly). Every job must finish after its
// single parse at submission, and no parse may stay parked. The queue
// bound keeps queued plus just-dequeued jobs within maxParked, so no
// job is refused a park.
func TestParseHandOffConcurrent(t *testing.T) {
	svc := openService(t, Config{Workers: 2, QueueDepth: maxParked - 2, ParseWorkers: 2})
	variants := make([][]byte, 6)
	for i := range variants {
		variants[i] = textTrace(t, "ior-easy-1m-fpp", i)
	}

	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids = map[string]bool{}
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				body := variants[(g+i)%len(variants)]
				name := fmt.Sprintf("g%d-%d", g, i)
				for {
					var j Job
					var err error
					if (g+i)%2 == 0 {
						j, _, err = svc.Submit(name, body)
					} else {
						j, _, err = svc.SubmitStream(name, bytes.NewReader(body))
					}
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(5 * time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("submit %s: %v", name, err)
						return
					}
					mu.Lock()
					ids[j.ID] = true
					mu.Unlock()
					break
				}
			}
		}(g)
	}
	wg.Wait()
	if len(ids) != len(variants) {
		t.Errorf("%d jobs for %d distinct traces", len(ids), len(variants))
	}
	for id := range ids {
		final := waitDone(t, svc, id)
		if final.State != StateDone {
			t.Fatalf("job %s state = %s (error %q), want done", id, final.State, final.Error)
		}
		checkSingleParse(t, svc, final)
	}
	svc.mu.Lock()
	parked := len(svc.parked)
	svc.mu.Unlock()
	if parked != 0 {
		t.Errorf("%d parses left parked after every job finished", parked)
	}
}
