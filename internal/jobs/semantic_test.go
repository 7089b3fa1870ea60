package jobs

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ion/internal/darshan"
	"ion/internal/eval"
	"ion/internal/expertsim"
	"ion/internal/llm"
	"ion/internal/prompt"
	"ion/internal/semcache"
	"ion/internal/testutil"
	"ion/internal/workloads"
)

// countingClient wraps a backend and counts Complete calls — the probe
// that shows which LLM work a reuse path skips or keeps.
type countingClient struct {
	llm.Client
	calls       atomic.Int64
	diagnosis   atomic.Int64
	conditioned atomic.Int64
}

func (c *countingClient) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	c.calls.Add(1)
	if req.Metadata[prompt.MetaKind] == prompt.KindDiagnosis {
		c.diagnosis.Add(1)
	}
	if req.Metadata[prompt.MetaConditioned] == "1" {
		c.conditioned.Add(1)
	}
	return c.Client.Complete(ctx, req)
}

func openSemStore(t *testing.T, opts semcache.Options) *semcache.Store {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "semcache.jsonl")
	}
	st, err := semcache.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// workloadSim returns the quantized-signature cosine similarity of two
// workloads, so tests can bracket thresholds around measured reality
// instead of hard-coding assumptions about the signature extractor.
func workloadSim(t *testing.T, a, b string) float64 {
	t.Helper()
	oa, _, err := testutil.Extracted(a)
	if err != nil {
		t.Fatal(err)
	}
	ob, _, err := testutil.Extracted(b)
	if err != nil {
		t.Fatal(err)
	}
	return semcache.Cosine(semcache.Extract(oa).Quantize(0), semcache.Extract(ob).Quantize(0))
}

// TestSemanticReuseLadder walks all four rungs: exact-hash hit,
// semantic hit, conditioned run, and full fan-out, counting LLM calls
// at each rung.
func TestSemanticReuseLadder(t *testing.T) {
	crossSim := workloadSim(t, "ior-hard", "stdio-postprocess")
	if crossSim >= 0.99 {
		t.Fatalf("signature extractor cannot separate ior-hard from stdio-postprocess (cosine %.4f)", crossSim)
	}
	// Bracket the conditioning band around the measured cross-workload
	// similarity: a perturbed ior-hard (similarity 1.0) lands above the
	// reuse threshold, stdio-postprocess lands below the conditioning
	// threshold.
	condThreshold := crossSim + (1-crossSim)/2

	client := &countingClient{Client: expertsim.New()}
	sem := openSemStore(t, semcache.Options{})
	svc := openService(t, Config{
		Workers:               1,
		Client:                client,
		SemCache:              sem,
		SemReuseThreshold:     0.995,
		SemConditionThreshold: condThreshold,
	})

	// Rung 0: cold run pays full fan-out.
	j1, _, err := svc.Submit("ior-hard-v1", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc, j1.ID); got.State != StateDone {
		t.Fatalf("cold job state = %s (%s)", got.State, got.Error)
	}
	coldCalls := client.calls.Load()
	if coldCalls == 0 {
		t.Fatal("cold run made no LLM calls")
	}
	if sem.Len() != 1 {
		t.Fatalf("cold run indexed %d entries, want 1", sem.Len())
	}

	// Rung 1: byte-identical resubmission is an exact-hash hit.
	dup, dedup, err := svc.Submit("ior-hard-v1-again", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	if !dedup || dup.ID != j1.ID {
		t.Fatalf("identical trace not deduped: dedup=%v id=%s", dedup, dup.ID)
	}
	if client.calls.Load() != coldCalls {
		t.Fatal("exact-hash hit made LLM calls")
	}

	// Rung 2: perturbed trace (new bytes, same workload) is a semantic
	// hit with zero LLM calls and full provenance.
	j2, dedup, err := svc.Submit("ior-hard-v2", textTrace(t, "ior-hard", 2))
	if err != nil {
		t.Fatal(err)
	}
	if dedup {
		t.Fatal("perturbed trace answered by exact-hash dedup")
	}
	got2 := waitDone(t, svc, j2.ID)
	if got2.State != StateReused {
		t.Fatalf("perturbed job state = %s (%s), want reused", got2.State, got2.Error)
	}
	if client.calls.Load() != coldCalls {
		t.Fatalf("semantic hit made LLM calls: %d -> %d", coldCalls, client.calls.Load())
	}
	if got2.ReusedFrom == nil || got2.ReusedFrom.Mode != ReuseSemanticHit ||
		got2.ReusedFrom.From != j1.ID || got2.ReusedFrom.Similarity < 0.995 {
		t.Fatalf("provenance wrong: %+v", got2.ReusedFrom)
	}
	rep, err := svc.Report(j2.ID)
	if err != nil {
		t.Fatalf("reused job has no readable report: %v", err)
	}
	if rep.Trace != "ior-hard-v2" {
		t.Errorf("reused report not relabeled: %q", rep.Trace)
	}

	// Rung 3: dissimilar workload runs full fan-out and is indexed.
	before := client.calls.Load()
	j3, _, err := svc.Submit("stdio-pp", textTrace(t, "stdio-postprocess", 1))
	if err != nil {
		t.Fatal(err)
	}
	got3 := waitDone(t, svc, j3.ID)
	if got3.State != StateDone {
		t.Fatalf("dissimilar job state = %s (%s)", got3.State, got3.Error)
	}
	if got3.ReusedFrom != nil {
		t.Fatalf("dissimilar job carries reuse provenance: %+v", got3.ReusedFrom)
	}
	if client.calls.Load() == before {
		t.Fatal("dissimilar workload made no LLM calls")
	}
	if sem.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2 (semantic hit must not re-index)", sem.Len())
	}

	ss := sem.Stats()
	if ss.Hits != 1 || ss.Misses < 2 {
		t.Errorf("store stats = %+v, want 1 hit and >=2 misses", ss)
	}
}

// TestReusedReportTakesItsOwnHeader: a report served verbatim from a
// neighbour carries this trace's header and name; only the diagnoses
// and the summary come from the neighbour.
func TestReusedReportTakesItsOwnHeader(t *testing.T) {
	svc := openService(t, Config{Workers: 1, SemCache: openSemStore(t, semcache.Options{})})
	withJobID := func(jobID int64) []byte {
		// Decode a private copy: the generated log is shared between tests.
		log, err := darshan.ReadBinary(bytes.NewReader(traceBytes(t, "ior-hard")))
		if err != nil {
			t.Fatal(err)
		}
		log.Header.JobID = jobID
		var buf bytes.Buffer
		if err := log.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	j1, _, err := svc.Submit("ior-hard-1111", withJobID(1111))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc, j1.ID); got.State != StateDone {
		t.Fatalf("first job: state %s (%s), want done", got.State, got.Error)
	}
	j2, _, err := svc.Submit("ior-hard-2222", withJobID(2222))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc, j2.ID); got.State != StateReused {
		t.Fatalf("second job: state %s (%s), want reused", got.State, got.Error)
	}
	r1, err := svc.Report(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Report(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Header.JobID != 2222 || r2.Trace != "ior-hard-2222" {
		t.Errorf("reused report: job id %d, trace %q; want 2222 and its own name", r2.Header.JobID, r2.Trace)
	}
	if !reflect.DeepEqual(r2.Diagnoses, r1.Diagnoses) || r2.Summary != r1.Summary {
		t.Error("reused report's diagnoses or summary differ from its neighbour's")
	}
}

// TestConditionedRun forces the middle band by disabling the verbatim
// tier: a perturbed trace (similarity 1.0) must run conditioned — every
// issue asked, as many diagnosis calls as the cold run, each prompt
// carrying the neighbor's conclusions as retrieved context.
func TestConditionedRun(t *testing.T) {
	client := &countingClient{Client: expertsim.New()}
	sem := openSemStore(t, semcache.Options{})
	svc := openService(t, Config{
		Workers:               1,
		Client:                client,
		SemCache:              sem,
		SemReuseThreshold:     1.01, // cosine never exceeds 1: verbatim tier off
		SemConditionThreshold: 0.90,
	})

	j1, _, err := svc.Submit("openpmd-v1", textTrace(t, "openpmd-baseline", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc, j1.ID); got.State != StateDone {
		t.Fatalf("cold job: %s (%s)", got.State, got.Error)
	}
	coldCalls := client.calls.Load()
	coldDiag := client.diagnosis.Load()
	if coldDiag == 0 || client.conditioned.Load() != 0 {
		t.Fatalf("cold run: %d diagnosis calls, %d conditioned", coldDiag, client.conditioned.Load())
	}

	j2, _, err := svc.Submit("openpmd-v2", textTrace(t, "openpmd-baseline", 2))
	if err != nil {
		t.Fatal(err)
	}
	got2 := waitDone(t, svc, j2.ID)
	if got2.State != StateDone {
		t.Fatalf("conditioned job: %s (%s)", got2.State, got2.Error)
	}
	if calls := client.calls.Load() - coldCalls; calls != coldCalls {
		t.Fatalf("conditioned run made %d calls, cold run %d", calls, coldCalls)
	}
	condDiag := client.diagnosis.Load() - coldDiag
	if condDiag != coldDiag || client.conditioned.Load() != condDiag {
		t.Fatalf("conditioned run: %d diagnosis calls (%d carrying retrieved context), cold run %d",
			condDiag, client.conditioned.Load(), coldDiag)
	}
	if got2.ReusedFrom == nil || got2.ReusedFrom.Mode != ReuseConditioned || got2.ReusedFrom.From != j1.ID {
		t.Fatalf("conditioned provenance wrong: %+v", got2.ReusedFrom)
	}
	// The conditioned report covers every issue, like the cold one.
	rep, err := svc.Report(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := svc.Report(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnoses) != len(rep1.Diagnoses) {
		t.Fatalf("conditioned report has %d diagnoses, cold has %d", len(rep.Diagnoses), len(rep1.Diagnoses))
	}
	if sem.Stats().Conditioned != 1 {
		t.Errorf("store conditioned counter = %d, want 1", sem.Stats().Conditioned)
	}
}

// TestInBandPairsKeepLabels submits, on default thresholds, each pair
// of bundled families that lands in the conditioning band, in both
// orders: the second job runs conditioned on the first, and every report
// must still carry exactly its workload's labelled verdicts. The pairs
// come from measured similarity — each family's nearest other family,
// kept when it scores in [SemConditionThreshold, SemReuseThreshold).
func TestInBandPairsKeepLabels(t *testing.T) {
	families := append(workloads.All(), workloads.Extras()...)
	var pairs [][2]workloads.Workload
	seen := map[string]bool{}
	for _, w := range families {
		var near workloads.Workload
		best := -1.0
		for _, o := range families {
			if o.Name == w.Name {
				continue
			}
			if sim := workloadSim(t, w.Name, o.Name); sim > best {
				near, best = o, sim
			}
		}
		key := min(w.Name, near.Name) + " " + max(w.Name, near.Name)
		if best < defaultSemConditionThreshold || best >= defaultSemReuseThreshold || seen[key] {
			continue
		}
		seen[key] = true
		pairs = append(pairs, [2]workloads.Workload{w, near})
	}
	if len(pairs) < 4 {
		t.Fatalf("found %d in-band pairs %v, want at least 4", len(pairs), seen)
	}

	for _, p := range pairs {
		for _, order := range [][2]workloads.Workload{p, {p[1], p[0]}} {
			t.Run(order[0].Name+"_then_"+order[1].Name, func(t *testing.T) {
				svc := openService(t, Config{Workers: 1, SemCache: openSemStore(t, semcache.Options{})})
				var done [2]Job
				for i, w := range order {
					done[i] = submitWait(t, svc, w.Name, traceBytes(t, w.Name))
					if done[i].State != StateDone {
						t.Fatalf("%s: state %s (%s)", w.Name, done[i].State, done[i].Error)
					}
				}
				if r := done[1].ReusedFrom; r == nil || r.Mode != ReuseConditioned || r.From != done[0].ID {
					t.Fatalf("%s: provenance %+v, want conditioned on %s", order[1].Name, r, done[0].ID)
				}
				for i, w := range order {
					rep, err := svc.Report(done[i].ID)
					if err != nil {
						t.Fatal(err)
					}
					if sc := eval.ScoreION(w, rep); !sc.Perfect() {
						t.Errorf("%s report: %s, mismatches %+v, false positives %v",
							w.Name, sc, sc.Mismatches, sc.FalsePositives)
					}
				}
			})
		}
	}
}

// TestSublinearity is the acceptance-criteria end-to-end: N
// near-duplicate traces cost exactly one cold run's worth of LLM
// calls; every subsequent submission is free and carries provenance.
func TestSublinearity(t *testing.T) {
	const n = 5
	client := &countingClient{Client: expertsim.New()}
	sem := openSemStore(t, semcache.Options{})
	svc := openService(t, Config{Workers: 2, Client: client, SemCache: sem})

	j1, _, err := svc.Submit("near-dup-1", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc, j1.ID); got.State != StateDone {
		t.Fatalf("cold job: %s (%s)", got.State, got.Error)
	}
	coldCalls := client.calls.Load()

	for i := 2; i <= n; i++ {
		j, dedup, err := svc.Submit("near-dup", textTrace(t, "ior-hard", i))
		if err != nil {
			t.Fatal(err)
		}
		if dedup {
			t.Fatalf("variant %d hit the exact-hash cache", i)
		}
		got := waitDone(t, svc, j.ID)
		if got.State != StateReused {
			t.Fatalf("variant %d state = %s (%s), want reused", i, got.State, got.Error)
		}
		if got.ReusedFrom == nil || got.ReusedFrom.From != j1.ID {
			t.Fatalf("variant %d provenance: %+v", i, got.ReusedFrom)
		}
	}
	if total := client.calls.Load(); total != coldCalls {
		t.Fatalf("LLM calls grew with traffic: cold=%d total=%d", coldCalls, total)
	}
	if hits := sem.Stats().Hits; hits != n-1 {
		t.Fatalf("semantic hits = %d, want %d", hits, n-1)
	}
}

// TestSemanticStoreSurvivesServiceRestart proves the paper-trail
// requirement: a restarted service reloads the store from -data and
// keeps answering semantically.
func TestSemanticStoreSurvivesServiceRestart(t *testing.T) {
	dir := t.TempDir()
	semPath := filepath.Join(dir, "semcache.jsonl")

	sem1, err := semcache.Open(semcache.Options{Path: semPath})
	if err != nil {
		t.Fatal(err)
	}
	svc1 := openService(t, Config{Dir: dir, Workers: 1, SemCache: sem1})
	j1, _, err := svc1.Submit("gen1", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc1, j1.ID); got.State != StateDone {
		t.Fatalf("cold job: %s (%s)", got.State, got.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	svc1.Close(ctx)
	cancel()
	sem1.Close()

	sem2, err := semcache.Open(semcache.Options{Path: semPath})
	if err != nil {
		t.Fatal(err)
	}
	if sem2.Len() != 1 {
		t.Fatalf("restarted store holds %d entries, want 1", sem2.Len())
	}
	client := &countingClient{Client: expertsim.New()}
	svc2 := openService(t, Config{Dir: dir, Workers: 1, Client: client, SemCache: sem2})
	j2, _, err := svc2.Submit("gen2", textTrace(t, "ior-hard", 2))
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, svc2, j2.ID)
	if got.State != StateReused {
		t.Fatalf("post-restart state = %s (%s), want reused", got.State, got.Error)
	}
	if got.ReusedFrom == nil || got.ReusedFrom.From != j1.ID {
		t.Fatalf("post-restart provenance: %+v", got.ReusedFrom)
	}
	if client.calls.Load() != 0 {
		t.Fatalf("post-restart semantic hit made %d LLM calls", client.calls.Load())
	}
}

// TestConcurrentSubmitLookupEvict hammers the semantic path from many
// goroutines against a store small enough to evict constantly; run
// with -race.
func TestConcurrentSubmitLookupEvict(t *testing.T) {
	sem := openSemStore(t, semcache.Options{MaxEntries: 2})
	svc := openService(t, Config{Workers: 4, QueueDepth: 64, SemCache: sem})

	workloads := []string{"ior-hard", "stdio-postprocess", "healthy-checkpoint"}
	// Pre-render traces outside the goroutines: textTrace shares the
	// testutil cache.
	traces := make([][]byte, 0, 12)
	for i := 0; i < 4; i++ {
		for _, w := range workloads {
			traces = append(traces, textTrace(t, w, i))
		}
	}

	var wg sync.WaitGroup
	ids := make(chan string, len(traces))
	for i, data := range traces {
		i, data := i, data
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, dedup, err := svc.Submit("", data)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if !dedup {
				ids <- j.ID
			}
			sem.Lookup(semcache.Signature{0.5, 0.5})
			sem.Stats()
			sem.Entries()
		}()
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		j := waitDone(t, svc, id)
		if j.State != StateDone && j.State != StateReused {
			t.Fatalf("job %s ended %s (%s)", id, j.State, j.Error)
		}
	}
	if sem.Len() > 2 {
		t.Fatalf("eviction bound breached: %d entries", sem.Len())
	}
}
