package jobs

import (
	"math"
	"path/filepath"
	"testing"

	"ion/internal/expertsim"
	"ion/internal/llm/ledger"
	"ion/internal/semcache"
)

func openLedger(t *testing.T) *ledger.Store {
	t.Helper()
	st, err := ledger.Open(ledger.StoreOptions{
		Path: filepath.Join(t.TempDir(), "ledger.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestJobCostAttribution proves Job.Cost is exactly the sum of the
// job's ledger entries: calls, tokens, and estimated dollars all match
// what the counting fake observed and what the ledger journaled.
func TestJobCostAttribution(t *testing.T) {
	lst := openLedger(t)
	counting := &countingClient{Client: expertsim.New()}
	client := ledger.Wrap(counting, lst, ledger.WrapOptions{})
	svc := openService(t, Config{Workers: 1, Client: client, Ledger: lst})

	j, _, err := svc.Submit("ior-hard", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, svc, j.ID)
	if got.State != StateDone {
		t.Fatalf("job state = %s (%s)", got.State, got.Error)
	}
	if got.Cost == nil {
		t.Fatal("job has no cost attribution")
	}
	if int64(got.Cost.Calls) != counting.calls.Load() {
		t.Fatalf("Cost.Calls = %d, counting client saw %d", got.Cost.Calls, counting.calls.Load())
	}

	// Exact match against the ledger's own entries for this job.
	ents := lst.Entries(ledger.Filter{Job: j.ID})
	if len(ents) != got.Cost.Calls {
		t.Fatalf("ledger holds %d entries for the job, Cost.Calls = %d", len(ents), got.Cost.Calls)
	}
	var tokIn, tokOut int
	var usd float64
	for _, e := range ents {
		tokIn += e.TokensIn
		tokOut += e.TokensOut
		usd += e.CostUSD
		if e.Job != j.ID {
			t.Fatalf("entry attributed to %q, want %q", e.Job, j.ID)
		}
		if e.Attempt != 1 {
			t.Fatalf("first-attempt entry has Attempt = %d", e.Attempt)
		}
	}
	if got.Cost.TokensIn != tokIn || got.Cost.TokensOut != tokOut {
		t.Fatalf("Cost tokens %d/%d, ledger sums %d/%d",
			got.Cost.TokensIn, got.Cost.TokensOut, tokIn, tokOut)
	}
	if math.Abs(got.Cost.EstUSD-usd) > 1e-12 || usd == 0 {
		t.Fatalf("Cost.EstUSD = %v, ledger sum %v", got.Cost.EstUSD, usd)
	}
	if got.ReusedFrom != nil {
		t.Fatalf("cold run carries reuse provenance: %+v", got.ReusedFrom)
	}

	// Stats carries the cumulative ledger totals.
	st := svc.Stats()
	// The lifetime total accumulates in append order, the check sums
	// newest-first: same dollars, different float rounding.
	if st.LLMCalls != int64(got.Cost.Calls) || math.Abs(st.LLMCostUSD-usd) > 1e-9 {
		t.Fatalf("stats totals %d/%v, want %d/%v", st.LLMCalls, st.LLMCostUSD, got.Cost.Calls, usd)
	}
}

// TestSemanticHitCost proves a verbatim semantic hit records zero new
// ledger calls and semantic_hit provenance, and that the attribution is
// persisted with the job (visible after a service restart).
func TestSemanticHitCost(t *testing.T) {
	dir := t.TempDir()
	lst := openLedger(t)
	counting := &countingClient{Client: expertsim.New()}
	client := ledger.Wrap(counting, lst, ledger.WrapOptions{})
	sem := openSemStore(t, semcache.Options{})
	svc := openService(t, Config{
		Dir: dir, Workers: 1, Client: client, Ledger: lst,
		SemCache: sem, SemReuseThreshold: 0.995,
	})

	j1, _, err := svc.Submit("ior-hard-v1", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc, j1.ID); got.State != StateDone {
		t.Fatalf("cold job state = %s (%s)", got.State, got.Error)
	}
	coldCalls := counting.calls.Load()

	j2, _, err := svc.Submit("ior-hard-v2", textTrace(t, "ior-hard", 2))
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, svc, j2.ID)
	if got.State != StateReused {
		t.Fatalf("perturbed job state = %s (%s), want reused", got.State, got.Error)
	}
	if counting.calls.Load() != coldCalls {
		t.Fatal("semantic hit made LLM calls")
	}
	if got.Cost == nil || got.Cost.Calls != 0 || got.Cost.EstUSD != 0 {
		t.Fatalf("semantic-hit cost = %+v, want zero calls and dollars", got.Cost)
	}
	if got.ReusedFrom == nil || got.ReusedFrom.Mode != ReuseSemanticHit {
		t.Fatalf("semantic-hit provenance = %+v, want mode %s", got.ReusedFrom, ReuseSemanticHit)
	}
	if n := len(lst.Entries(ledger.Filter{Job: j2.ID})); n != 0 {
		t.Fatalf("ledger holds %d entries for the reused job, want 0", n)
	}

	// The attribution is in the persisted snapshot: a restarted service
	// still reports it.
	if err := svc.Close(t.Context()); err != nil {
		t.Fatal(err)
	}
	svc2 := openService(t, Config{Dir: dir, Workers: 1, Client: client, Ledger: lst})
	re, err := svc2.Get(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if re.Cost == nil || re.Cost.Calls != 0 || re.ReusedFrom == nil || re.ReusedFrom.Mode != ReuseSemanticHit {
		t.Fatalf("cost attribution lost across restart: cost %+v, provenance %+v", re.Cost, re.ReusedFrom)
	}
}
