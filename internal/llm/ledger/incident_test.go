package ledger

import (
	"archive/tar"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ion/internal/obs"
	"ion/internal/obs/flight"
	"ion/internal/obs/series"
)

// TestBackendDegradedIncident is the acceptance path for the health
// scorer: a failing backend drags ion_llm_backend_health below 0.5,
// the built-in LLMBackendDegraded rule fires, the firing transition
// captures a flight-recorder incident, and the bundle's
// llm_ledger.json holds the recent ledger tail — with hashes and
// accounting only, no prompt text (default privacy posture).
func TestBackendDegradedIncident(t *testing.T) {
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	lst := testStore(t, StoreOptions{Path: path})
	flaky := &fakeClient{fail: errors.New("backend down")}
	client := Wrap(flaky, lst, WrapOptions{Registry: reg})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		client.Complete(ctx, testReq())
	}

	// The gauge the rule watches is below threshold.
	var health float64 = -1
	for _, s := range reg.Gather() {
		if s.Name == "ion_llm_backend_health" {
			health = s.Value
		}
	}
	if health < 0 || health >= 0.5 {
		t.Fatalf("ion_llm_backend_health = %v, want exported and < 0.5", health)
	}

	dir := t.TempDir()
	rec, err := flight.New(flight.Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetLedgerTailFn(func() any { return lst.Tail(50) })

	var fired []string
	var manifest flight.Manifest
	store := series.New(reg, series.Options{
		Interval: time.Second,
		Rules:    series.DefaultRules(),
		OnTransition: func(tr series.RuleTransition) {
			if tr.To != series.StateFiring {
				return
			}
			fired = append(fired, tr.Rule)
			if tr.Rule == "LLMBackendDegraded" {
				m, cerr := rec.Capture("alert:" + tr.Rule)
				if cerr != nil {
					t.Errorf("capture: %v", cerr)
					return
				}
				manifest = m
			}
		},
	})
	// Breach → pending; sustained past the rule's 1m hold → firing.
	now := time.Now()
	store.Scrape(now.Add(-2 * time.Minute))
	store.Scrape(now)

	found := false
	for _, r := range fired {
		if r == "LLMBackendDegraded" {
			found = true
		}
	}
	if !found {
		t.Fatalf("LLMBackendDegraded did not fire; fired = %v, alerts = %+v", fired, store.Alerts())
	}
	if manifest.ID == "" {
		t.Fatal("firing transition captured no incident")
	}

	// The bundle carries the ledger tail.
	files := readBundle(t, filepath.Join(dir, manifest.ID+".tar.gz"))
	tail, ok := files["llm_ledger.json"]
	if !ok {
		t.Fatalf("bundle files = %v, want llm_ledger.json", keys(files))
	}
	var entries []Entry
	if err := json.Unmarshal(tail, &entries); err != nil {
		t.Fatalf("llm_ledger.json does not parse: %v", err)
	}
	if len(entries) != 20 {
		t.Fatalf("ledger tail holds %d entries, want 20", len(entries))
	}
	e := entries[0]
	if e.Backend != "fake" || e.Outcome != "error" || len(e.PromptSHA) != 64 {
		t.Fatalf("tail entry wrong: %+v", e)
	}
	// Privacy: neither the bundle nor the on-disk journal holds the
	// prompt text under default flags.
	if strings.Contains(string(tail), "diagnose this") {
		t.Fatal("incident bundle leaked raw prompt text")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "diagnose this") {
		t.Fatal("ledger journal leaked raw prompt text")
	}
}

// TestBackendHealthyStaysOK is the silent half of LLMBackendDegraded:
// a healthy backend's calls, scraped every 5s over 3 minutes of virtual
// time, leave the built-in rule at ok with no transition.
func TestBackendHealthyStaysOK(t *testing.T) {
	reg := obs.NewRegistry()
	lst := testStore(t, StoreOptions{})
	client := Wrap(&fakeClient{}, lst, WrapOptions{Registry: reg})
	store := series.New(reg, series.Options{
		Interval: 5 * time.Second,
		Rules:    series.DefaultRules(),
		OnTransition: func(tr series.RuleTransition) {
			if tr.Rule == "LLMBackendDegraded" {
				t.Errorf("LLMBackendDegraded moved %s -> %s at value %v", tr.From, tr.To, tr.Value)
			}
		},
	})
	ctx := context.Background()
	start := time.Now()
	for step := 0; step <= 36; step++ {
		for i := 0; i < 10; i++ {
			if _, err := client.Complete(ctx, testReq()); err != nil {
				t.Fatal(err)
			}
		}
		store.Scrape(start.Add(time.Duration(step) * 5 * time.Second))
	}

	for _, a := range store.Alerts() {
		if a.Rule.Name != "LLMBackendDegraded" {
			continue
		}
		// The rule saw the gauge: a missing series would also read ok.
		if a.State != series.StateOK || a.LastEval.IsZero() || a.Value < 0.5 {
			t.Fatalf("LLMBackendDegraded after 3m of healthy calls: %+v", a)
		}
		return
	}
	t.Fatal("LLMBackendDegraded is not a default rule")
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// readBundle untars an incident bundle into name → contents.
func readBundle(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(zr)
	files := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle is not a tar.gz: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		files[hdr.Name] = body
	}
	return files
}
