package jobs

import (
	"path/filepath"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/obs/series"
	"ion/internal/quality"
	"ion/internal/semcache"
	"ion/internal/workloads"
)

// TestDefaultRulesSilentOnCorrectTraffic runs correct traffic through
// the real service and evaluates every default alert rule over it.
// Each bundled family is submitted twice under its own name; the
// second copy differs by one metadata line, so it is reused from the
// semantic cache instead of deduplicated. The backend is expertsim
// behind the ledger, thresholds are the defaults, the semantic cache
// and quality scoring are on, and every reused or conditioned job is
// shadowed. The store scrapes every 5s of virtual time, once per job
// and then for 3 minutes, longer than any rule's hold. Every rule must
// stay ok, and every rule whose metric this stack exports must have
// been evaluated on data: a missing series also reads ok.
func TestDefaultRulesSilentOnCorrectTraffic(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	lst, err := ledger.Open(ledger.StoreOptions{Path: filepath.Join(dir, "ledger.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lst.Close() })
	qual := openQualStore(t, filepath.Join(dir, "quality.jsonl"))
	svc := openService(t, Config{
		Workers:          2,
		Client:           ledger.Wrap(expertsim.New(), lst, ledger.WrapOptions{Registry: reg}),
		Ledger:           lst,
		SemCache:         openSemStore(t, semcache.Options{}),
		Quality:          qual,
		ShadowSampleRate: 1,
		Obs:              reg,
	})
	store := series.New(reg, series.Options{
		Interval:  5 * time.Second,
		Retention: 10 * time.Minute,
		Rules:     series.DefaultRules(),
	})
	now := time.Now()
	scrape := func() {
		now = now.Add(5 * time.Second)
		store.Scrape(now)
	}

	fams := append(workloads.All(), workloads.Extras()...)
	for round := 0; round < 2; round++ {
		for _, w := range fams {
			j := submitWait(t, svc, w.Name, textTrace(t, w.Name, round))
			if j.State != StateDone && j.State != StateReused {
				t.Fatalf("%s round %d: state %s (%s)", w.Name, round, j.State, j.Error)
			}
			// The shadow was scheduled before the job settled.
			svc.shadowWG.Wait()
			scrape()
		}
	}
	for end := now.Add(3 * time.Minute); now.Before(end); {
		scrape()
	}

	// The traffic is what the test claims: two scorecards per family,
	// every reused or conditioned one shadowed without a flip, and every
	// ground-truth label matched.
	cards := qual.Entries()
	if len(cards) != 2*len(fams) {
		t.Fatalf("%d scorecards, want %d", len(cards), 2*len(fams))
	}
	reused := 0
	for _, c := range cards {
		for _, s := range c.Issues {
			if s.Label != "" && s.Verdict != s.Label {
				t.Errorf("%s (%s): %s is %s, labelled %s", c.Trace, c.Mode, s.Issue, s.Verdict, s.Label)
			}
		}
		if c.Mode == quality.ModeFull {
			continue
		}
		reused++
		if c.Shadow == nil || len(c.Shadow.Flips) > 0 {
			t.Errorf("%s (%s): shadow %+v, want a shadow re-run without flips", c.Trace, c.Mode, c.Shadow)
		}
	}
	if reused < len(fams) {
		t.Fatalf("%d reused or conditioned jobs, want at least the %d second copies", reused, len(fams))
	}

	// The continuous profiler is not part of this stack, so its rule has
	// no series here.
	unexported := map[string]bool{"HotFunctionRegression": true}
	alerts := store.Alerts()
	if len(alerts) != len(series.DefaultRules()) {
		t.Fatalf("%d alert states for %d default rules", len(alerts), len(series.DefaultRules()))
	}
	for _, a := range alerts {
		if a.State != series.StateOK || len(a.History) > 0 {
			t.Errorf("%s (%s) on correct traffic: state %s, value %v, history %+v",
				a.Rule.Name, a.Rule.Expr, a.State, a.Value, a.History)
		}
		if a.NoData != unexported[a.Rule.Name] {
			t.Errorf("%s (%s): no_data = %v, want %v", a.Rule.Name, a.Rule.Expr, a.NoData, unexported[a.Rule.Name])
		}
	}
}
