package prof

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ion/internal/obs"
	"ion/internal/obs/series"
)

func newTestProfiler(t *testing.T, opts Options) (*Profiler, *obs.Registry) {
	t.Helper()
	if opts.Store == nil {
		st, err := OpenStore(StoreOptions{Path: filepath.Join(t.TempDir(), "windows.jsonl")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		opts.Store = st
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, opts.Registry
}

func gatherValue(t *testing.T, reg *obs.Registry, name string, labels map[string]string) (float64, bool) {
	t.Helper()
	for _, s := range reg.Gather() {
		if s.Name != name {
			continue
		}
		match := true
		for k, want := range labels {
			got := ""
			for _, l := range s.Labels {
				if l.Key == k {
					got = l.Value
				}
			}
			if got != want {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// syntheticCPUWindow builds a CPU window whose function table carries
// the given name→flat-share map.
func syntheticCPUWindow(n int, at time.Time, shares map[string]float64) Window {
	w := Window{
		ID:    fmt.Sprintf("w-cpu-synth-%d", n),
		Kind:  KindCPU,
		Start: at.Add(-10 * time.Second),
		End:   at,
		Unit:  "nanoseconds",
		Total: 1_000_000,
	}
	for name, share := range shares {
		w.Functions = append(w.Functions, FuncStat{
			Name:      name,
			Flat:      int64(share * 1_000_000),
			Cum:       int64(share * 1_000_000),
			FlatShare: share,
			CumShare:  share,
		})
	}
	return w
}

// TestProfilerRegressionTripsRule is the end-to-end regression path:
// five quiet baseline windows, then a window where one function jumps
// from 5% to 60% of CPU — the delta gauge must move and a stock SLO
// rule over it must reach firing via the ordinary scrape path.
func TestProfilerRegressionTripsRule(t *testing.T) {
	p, reg := newTestProfiler(t, Options{BaselineWindows: 5})
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

	for i := 0; i < 5; i++ {
		w := syntheticCPUWindow(i, base.Add(time.Duration(i)*time.Minute),
			map[string]float64{"ion.ParseText": 0.05, "ion.Serve": 0.30})
		if err := p.AddWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := gatherValue(t, reg, "ion_prof_hot_function_delta", map[string]string{"fn": "ion.ParseText"}); !ok || v > 0.01 || v < -0.01 {
		t.Fatalf("steady-state delta = %v ok=%v, want ≈0", v, ok)
	}

	spike := syntheticCPUWindow(9, base.Add(10*time.Minute),
		map[string]float64{"ion.ParseText": 0.60, "ion.Serve": 0.20})
	if err := p.AddWindow(spike); err != nil {
		t.Fatal(err)
	}

	v, ok := gatherValue(t, reg, "ion_prof_hot_function_delta", map[string]string{"fn": "ion.ParseText"})
	if !ok || v < 0.5 {
		t.Fatalf("regression delta = %v ok=%v, want ≈0.55", v, ok)
	}
	if v, _ := gatherValue(t, reg, "ion_prof_max_share_delta", nil); v < 0.5 {
		t.Fatalf("ion_prof_max_share_delta = %v, want ≈0.55", v)
	}
	hot := p.HotFunctions()
	if len(hot) == 0 || hot[0].Name != "ion.ParseText" || hot[0].Delta < 0.5 {
		t.Fatalf("HotFunctions = %+v, want ion.ParseText on top with delta ≈0.55", hot)
	}

	// The same registry scraped into a series store must trip the
	// hot-function rule.
	rules := series.MustRules([]byte(`[
	  {"name": "HotFunctionRegression", "expr": "max(ion_prof_hot_function_delta) > 0.25", "for": "0s", "severity": "warn"}
	]`))
	ss := series.New(reg, series.Options{Interval: time.Second, Rules: rules})
	ss.Scrape(base.Add(11 * time.Minute))
	var got series.AlertStatus
	for _, a := range ss.Alerts() {
		if a.Rule.Name == "HotFunctionRegression" {
			got = a
		}
	}
	if got.State != series.StateFiring {
		t.Fatalf("HotFunctionRegression state = %q (value %v), want firing", got.State, got.Value)
	}

	// Counter bookkeeping rode along.
	if v, ok := gatherValue(t, reg, "ion_prof_windows_total", map[string]string{"kind": "cpu"}); !ok || v != 6 {
		t.Fatalf("ion_prof_windows_total{kind=cpu} = %v ok=%v, want 6", v, ok)
	}
}

// TestProfilerFirstWindowHasNoDelta: with no trailing baseline the
// delta must stay zero — a fresh process is not a regression.
func TestProfilerFirstWindowHasNoDelta(t *testing.T) {
	p, reg := newTestProfiler(t, Options{})
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	p.AddWindow(syntheticCPUWindow(0, base, map[string]float64{"ion.Hot": 0.9}))
	if v, ok := gatherValue(t, reg, "ion_prof_hot_function_share", map[string]string{"fn": "ion.Hot"}); !ok || v != 0.9 {
		t.Fatalf("share = %v ok=%v, want 0.9", v, ok)
	}
	if v, _ := gatherValue(t, reg, "ion_prof_hot_function_delta", map[string]string{"fn": "ion.Hot"}); v != 0 {
		t.Fatalf("delta = %v, want 0 without a baseline", v)
	}
	if v, _ := gatherValue(t, reg, "ion_prof_max_share_delta", nil); v != 0 {
		t.Fatalf("max delta = %v, want 0 without a baseline", v)
	}
}

// TestProfilerZeroesStaleGauges: a function that drops out of the top
// table must have its gauges reset so the rule stops seeing it.
func TestProfilerZeroesStaleGauges(t *testing.T) {
	p, reg := newTestProfiler(t, Options{})
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	p.AddWindow(syntheticCPUWindow(0, base, map[string]float64{"ion.Gone": 0.7}))
	p.AddWindow(syntheticCPUWindow(1, base.Add(time.Minute), map[string]float64{"ion.Other": 0.6}))
	if v, ok := gatherValue(t, reg, "ion_prof_hot_function_share", map[string]string{"fn": "ion.Gone"}); !ok || v != 0 {
		t.Fatalf("stale share = %v ok=%v, want 0", v, ok)
	}
	if v, ok := gatherValue(t, reg, "ion_prof_hot_function_share", map[string]string{"fn": "ion.Other"}); !ok || v != 0.6 {
		t.Fatalf("live share = %v ok=%v, want 0.6", v, ok)
	}
}

// TestProfilerSkipsWhenGuardHeld: an incident capture owning the CPU
// profiler makes the continuous profiler skip its CPU window (counted)
// while the snapshot kinds still land.
func TestProfilerSkipsWhenGuardHeld(t *testing.T) {
	guard := obs.NewCPUProfileGuard()
	release, err := guard.Acquire("incident-capture", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	p, reg := newTestProfiler(t, Options{Guard: guard, Window: 50 * time.Millisecond})
	p.CaptureCycle(time.Now())

	if ws := p.Store().Windows(KindCPU, 0); len(ws) != 0 {
		t.Fatalf("cpu windows = %d, want 0 while the guard is held", len(ws))
	}
	if v, _ := gatherValue(t, reg, "ion_prof_skipped_total", nil); v != 1 {
		t.Fatalf("skipped = %v, want 1", v)
	}
	if ws := p.Store().Windows(KindHeap, 0); len(ws) == 0 {
		t.Fatal("heap snapshot should land even when the CPU guard is held")
	}
	if ws := p.Store().Windows(KindGoroutine, 0); len(ws) == 0 {
		t.Fatal("goroutine snapshot should land even when the CPU guard is held")
	}
}

// TestProfilerRealCaptureCycle drives one real cycle with a busy
// goroutine and checks a decoded CPU window lands naming the burner.
func TestProfilerRealCaptureCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("real profiling in -short mode")
	}
	p, reg := newTestProfiler(t, Options{Window: 300 * time.Millisecond, Interval: time.Minute})

	var stop atomic.Bool
	var sink atomic.Uint64
	done := make(chan struct{})
	go func() { defer close(done); cpuBurner(&stop, &sink) }()
	p.CaptureCycle(time.Now())
	stop.Store(true)
	<-done

	cpu, ok := p.Store().Latest(KindCPU)
	if !ok {
		t.Fatal("no CPU window after a capture cycle")
	}
	if cpu.Total <= 0 || len(cpu.Functions) == 0 {
		t.Fatalf("cpu window empty: total=%d funcs=%d", cpu.Total, len(cpu.Functions))
	}
	found := false
	for _, f := range cpu.Functions {
		if strings.Contains(f.Name, "cpuBurner") {
			found = true
		}
	}
	if !found {
		t.Fatalf("burner not in window functions: %+v", cpu.Functions[:min(len(cpu.Functions), 6)])
	}
	if len(cpu.Stacks) == 0 {
		t.Fatal("cpu window has no folded stacks for the flamegraph")
	}
	if _, ok := p.Store().Latest(KindHeap); !ok {
		t.Fatal("no heap snapshot after a capture cycle")
	}
	if p.LastWindowTime().IsZero() {
		t.Fatal("LastWindowTime still zero")
	}
	if v, ok := gatherValue(t, reg, "ion_prof_last_window_unix_seconds", nil); !ok || v <= 0 {
		t.Fatalf("ion_prof_last_window_unix_seconds = %v ok=%v", v, ok)
	}
	if len(p.HotFunctions()) == 0 {
		t.Fatal("HotFunctions empty after a real window")
	}
}

// TestProfilerResumesBaselineFromJournal: a restarted profiler over a
// replayed store starts with the previous hot-function table instead of
// an empty baseline.
func TestProfilerResumesBaselineFromJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "windows.jsonl")
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

	st, err := OpenStore(StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := newTestProfiler(t, Options{Store: st})
	for i := 0; i < 3; i++ {
		p1.AddWindow(syntheticCPUWindow(i, base.Add(time.Duration(i)*time.Minute),
			map[string]float64{"ion.Steady": 0.4}))
	}
	st.Close()

	st2, err := OpenStore(StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p2, reg2 := newTestProfiler(t, Options{Store: st2})
	hot := p2.HotFunctions()
	if len(hot) == 0 || hot[0].Name != "ion.Steady" {
		t.Fatalf("restarted profiler hot table = %+v, want ion.Steady", hot)
	}
	if v, ok := gatherValue(t, reg2, "ion_prof_hot_function_share", map[string]string{"fn": "ion.Steady"}); !ok || v != 0.4 {
		t.Fatalf("restarted share gauge = %v ok=%v, want 0.4", v, ok)
	}
	if p2.LastWindowTime().IsZero() {
		t.Fatal("restarted LastWindowTime zero despite replayed windows")
	}
}

// TestProfilerRestartPublishesNoStaleDelta: the newest replayed window
// was diffed by the process that captured it. Reopened over a store
// whose newest window gives one function the whole CPU share, over a
// baseline where it had none, a profiler publishes no delta for that
// window, so the default hot-function rule stays ok with no new
// traffic. The first window it captures still diffs against the
// replayed baseline.
func TestProfilerRestartPublishesNoStaleDelta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "windows.jsonl")
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	st, err := OpenStore(StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := newTestProfiler(t, Options{Store: st})
	for i := 0; i < 5; i++ {
		p1.AddWindow(syntheticCPUWindow(i, base.Add(time.Duration(i)*time.Minute),
			map[string]float64{"ion.Serve": 1}))
	}
	p1.AddWindow(syntheticCPUWindow(5, base.Add(5*time.Minute), map[string]float64{"ion.Idle": 1}))
	st.Close()

	st2, err := OpenStore(StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p2, reg := newTestProfiler(t, Options{Store: st2})
	if v, _ := gatherValue(t, reg, "ion_prof_max_share_delta", nil); v != 0 {
		t.Fatalf("ion_prof_max_share_delta after a restart = %v, want 0", v)
	}
	ss := series.New(reg, series.Options{Interval: time.Second, Rules: series.DefaultRules()})
	ss.Scrape(base.Add(6 * time.Minute))
	for _, a := range ss.Alerts() {
		if a.Rule.Name == "HotFunctionRegression" && a.State != series.StateOK {
			t.Fatalf("HotFunctionRegression = %q (value %v) after a restart with no traffic, want ok", a.State, a.Value)
		}
	}

	p2.AddWindow(syntheticCPUWindow(6, base.Add(7*time.Minute), map[string]float64{"ion.Idle": 1}))
	if v, _ := gatherValue(t, reg, "ion_prof_max_share_delta", nil); v < 0.5 {
		t.Fatalf("first new window's max delta = %v, want it diffed against the replayed baseline", v)
	}
}

// TestProfilerStartStop exercises the real loop briefly with a tiny
// interval and makes sure Stop interrupts an in-flight window.
func TestProfilerStartStop(t *testing.T) {
	if testing.Short() {
		t.Skip("real profiling in -short mode")
	}
	p, _ := newTestProfiler(t, Options{Window: 5 * time.Second, Interval: time.Hour})
	p.Start()
	p.Start() // idempotent
	time.Sleep(150 * time.Millisecond)
	stopDone := make(chan struct{})
	go func() { p.Stop(); close(stopDone) }()
	select {
	case <-stopDone:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop did not interrupt the in-flight CPU window")
	}
	p.Stop() // idempotent
}

func TestProfilerWindowClamp(t *testing.T) {
	p, _ := newTestProfiler(t, Options{Window: time.Minute, Interval: 2 * time.Second})
	if p.Window() > time.Second {
		t.Fatalf("window = %v, want clamped to half the interval", p.Window())
	}
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without a store should error")
	}
}
