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

// TestProfilerGaugesDoNotGrow feeds CPU windows that each name a
// function no earlier window had. The registry must not grow with
// them: every series the profiler exports is per kind or per process,
// never per function, so /metrics and the series store it feeds stay
// bounded however many functions a window's table names.
func TestProfilerGaugesDoNotGrow(t *testing.T) {
	p, reg := newTestProfiler(t, Options{})
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	samples := 0
	for i := 0; i < 8; i++ {
		w := syntheticCPUWindow(i, base.Add(time.Duration(i)*time.Minute),
			map[string]float64{fmt.Sprintf("ion.Func%d", i): 0.9})
		if err := p.AddWindow(w); err != nil {
			t.Fatal(err)
		}
		n := len(reg.Gather())
		if i == 0 {
			samples = n
		} else if n != samples {
			t.Fatalf("after %d windows Gather returns %d samples, %d after the first", i+1, n, samples)
		}
	}
	if v, ok := gatherValue(t, reg, "ion_prof_windows_total", map[string]string{"kind": "cpu"}); !ok || v != 8 {
		t.Fatalf("ion_prof_windows_total{kind=cpu} = %v ok=%v, want 8", v, ok)
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
}

// TestProfilerRestartPublishesNoStaleDelta: reopened over a journal
// whose newest CPU window gives one function the whole share after
// five windows where it had none, a profiler dates its last window
// from the journal and publishes nothing a default rule fires on.
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
	if got := p2.LastWindowTime(); !got.Equal(base.Add(5 * time.Minute)) {
		t.Fatalf("restarted LastWindowTime = %v, want the newest replayed window's end", got)
	}
	ss := series.New(reg, series.Options{Interval: time.Second, Rules: series.DefaultRules()})
	p2.AddWindow(syntheticCPUWindow(6, base.Add(6*time.Minute), map[string]float64{"ion.Idle": 1}))
	ss.Scrape(base.Add(7 * time.Minute))
	for _, a := range ss.Alerts() {
		if a.State != series.StateOK {
			t.Fatalf("%s = %q (value %v) after a restart and an idle window, want ok", a.Rule.Name, a.State, a.Value)
		}
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
