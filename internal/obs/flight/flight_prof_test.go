package flight

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ion/internal/obs"
	"ion/internal/obs/prof"
)

// TestCapturePreemptsContinuousProfiler is the CPU-ownership contract
// end to end: the continuous profiler is mid-window on the real runtime
// profiler when an incident capture arrives. The capture must preempt
// cleanly (cpu.pprof lands, no "unavailable" note), the profiler's
// shortened window must still be decoded and stored, and neither side
// may wedge.
func TestCapturePreemptsContinuousProfiler(t *testing.T) {
	if testing.Short() {
		t.Skip("real profiling in -short mode")
	}
	guard := obs.NewCPUProfileGuard()
	st, err := prof.OpenStore(prof.StoreOptions{Path: filepath.Join(t.TempDir(), "windows.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := prof.New(prof.Options{
		Store:    st,
		Guard:    guard,
		Window:   10 * time.Second, // long enough that only a preemption ends it
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	// Wait for the profiler's first window to own the guard.
	deadline := time.Now().Add(5 * time.Second)
	for guard.Holder() != "continuous-profiler" {
		if time.Now().After(deadline) {
			t.Fatalf("continuous profiler never acquired the guard (holder %q)", guard.Holder())
		}
		time.Sleep(10 * time.Millisecond)
	}

	r := newTestRecorder(t, Options{CPUGuard: guard, CPUProfile: 100 * time.Millisecond})
	m, err := r.Capture("alert:JobFailureRatioHigh")
	if err != nil {
		t.Fatalf("Capture while the continuous profiler held the CPU: %v", err)
	}
	for _, note := range m.Notes {
		if strings.Contains(note, "cpu profile unavailable") {
			t.Fatalf("capture degraded instead of preempting: %v", m.Notes)
		}
	}
	files := readBundle(t, r, m.ID)
	if cpu, ok := files["cpu.pprof"]; !ok || len(cpu) == 0 {
		t.Fatalf("bundle missing cpu.pprof after preemption (files %v)", m.Files)
	}

	// The preempted window still landed (shortened, not lost).
	deadline = time.Now().Add(5 * time.Second)
	for {
		if w, ok := st.Latest(prof.KindCPU); ok {
			if d := w.End.Sub(w.Start); d >= 9*time.Second {
				t.Fatalf("window ran its full %v despite the preemption", d)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("preempted CPU window never reached the store")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if guard.Holder() != "" {
		t.Fatalf("guard still held by %q after both sides finished", guard.Holder())
	}
}

// TestCaptureIncludesProfileWindows: bundles carry the continuous
// profiler's recent windows once the callback is installed.
func TestCaptureIncludesProfileWindows(t *testing.T) {
	r := newTestRecorder(t, Options{})
	r.SetProfileWindowsFn(func() any {
		return []prof.Window{{
			ID: "w-cpu-123", Kind: "cpu", Unit: "nanoseconds", Total: 5000,
			Functions: []prof.FuncStat{{Name: "ion.ParseText", Flat: 4000, FlatShare: 0.8}},
		}}
	})
	m, err := r.Capture("manual")
	if err != nil {
		t.Fatal(err)
	}
	files := readBundle(t, r, m.ID)
	data, ok := files["profile_windows.json"]
	if !ok {
		t.Fatalf("bundle missing profile_windows.json (files %v)", m.Files)
	}
	var ws []prof.Window
	if err := json.Unmarshal(data, &ws); err != nil {
		t.Fatalf("profile_windows.json: %v\n%s", err, data)
	}
	if len(ws) != 1 || ws[0].ID != "w-cpu-123" || ws[0].Functions[0].Name != "ion.ParseText" {
		t.Fatalf("profile_windows.json content wrong: %+v", ws)
	}
}
