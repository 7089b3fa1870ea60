package prof

import (
	"bytes"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sync"
	"time"

	"ion/internal/obs"
)

// Profile kinds the continuous profiler captures each cycle.
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindGoroutine = "goroutine"
)

// Options configures a Profiler. The zero Options (plus Store) is a
// working profiler with the production duty cycle: 10s of CPU profile
// out of every 60s.
type Options struct {
	// Window is how long each CPU profile window runs; 0 means the
	// default (10s). Clamped to Interval/2 so a window always fits.
	Window time.Duration
	// Interval is the cycle period: one CPU window plus one set of
	// snapshots per interval; 0 means the default (60s).
	Interval time.Duration
	// Store receives the decoded windows; required.
	Store *Store
	// Registry receives the profiler's gauges and counters; nil uses a
	// private registry.
	Registry *obs.Registry
	// Guard coordinates CPU-profiler ownership with the flight
	// recorder; nil uses a private guard (no contention to manage).
	Guard *obs.CPUProfileGuard
	// Logger receives profiler lifecycle logs; nil discards.
	Logger *slog.Logger
}

// Per-window bounds: the function table and the folded stacks kept
// for the flamegraph.
const (
	maxFunctions = 40
	maxStacks    = 96
)

func (o *Options) applyDefaults() {
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.Interval <= 0 {
		o.Interval = time.Minute
	}
	if o.Window > o.Interval/2 {
		o.Window = o.Interval / 2
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Guard == nil {
		o.Guard = obs.NewCPUProfileGuard()
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
}

// Profiler runs the always-on capture loop. All methods are safe for
// concurrent use.
type Profiler struct {
	opts  Options
	store *Store

	skipped *obs.Counter

	mu         sync.Mutex
	lastWindow time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// New builds a Profiler over the given window store and registers its
// metrics. Call Start to begin the capture loop, or drive CaptureCycle
// directly (tests, one-shot tools).
func New(opts Options) (*Profiler, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("prof: Options.Store is required")
	}
	opts.applyDefaults()
	p := &Profiler{
		opts:  opts,
		store: opts.Store,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	// A restarted process dates its last window from the journal, so
	// the dashboard's staleness light does not read "never".
	if w, ok := p.store.Latest(KindCPU); ok {
		p.lastWindow = w.End
	}
	reg := opts.Registry
	p.skipped = reg.Counter("ion_prof_skipped_total",
		"Profile windows skipped because the CPU profiler was owned elsewhere.")
	reg.GaugeFunc("ion_prof_window_store_windows",
		"Profile windows retained by the window store.",
		func() float64 { return float64(p.store.Len()) })
	reg.GaugeFunc("ion_prof_window_store_bytes",
		"Estimated bytes retained by the profile window store.",
		func() float64 { return float64(p.store.Bytes()) })
	reg.GaugeFunc("ion_prof_last_window_unix_seconds",
		"Completion time of the most recent profile window (unix seconds; 0 before the first).",
		func() float64 {
			if t := p.LastWindowTime(); !t.IsZero() {
				return float64(t.UnixMilli()) / 1000
			}
			return 0
		})
	return p, nil
}

// Store returns the underlying window store.
func (p *Profiler) Store() *Store { return p.store }

// Interval returns the configured cycle period.
func (p *Profiler) Interval() time.Duration { return p.opts.Interval }

// Window returns the configured CPU window length.
func (p *Profiler) Window() time.Duration { return p.opts.Window }

// LastWindowTime returns when the most recent window (any kind)
// completed; zero before the first.
func (p *Profiler) LastWindowTime() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastWindow
}

// Start launches the capture loop: one cycle immediately, then one per
// interval. Stop it with Stop; Start twice is a no-op.
func (p *Profiler) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.opts.Interval)
		defer t.Stop()
		p.CaptureCycle(time.Now())
		for {
			select {
			case <-p.stop:
				return
			case now := <-t.C:
				p.CaptureCycle(now)
			}
		}
	}()
	p.opts.Logger.Info("continuous profiler running",
		"window", p.opts.Window.String(), "interval", p.opts.Interval.String(),
		"retention", p.opts.Store.opts.Retention.String())
}

// Stop halts the capture loop, interrupting an in-flight CPU window.
// Safe without Start and safe twice.
func (p *Profiler) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.mu.Lock()
	started := p.started
	p.mu.Unlock()
	if started {
		<-p.done
	}
}

// CaptureCycle runs one full cycle stamped at now: a CPU profile
// window (yielding to incident captures via the shared guard) followed
// by heap and goroutine snapshots. Exported so tests and one-shot tools
// can drive time explicitly.
func (p *Profiler) CaptureCycle(now time.Time) {
	p.captureCPUWindow(now)
	for _, kind := range []string{KindHeap, KindGoroutine} {
		p.captureSnapshot(kind, time.Now())
	}
}

// captureCPUWindow profiles the CPU for up to the configured window.
// The guard acquisition is opportunistic: when an incident capture
// owns the CPU profiler this cycle is skipped (counted), and when one
// arrives mid-window the window ends early but still lands — a short
// window is evidence, a stacked profiler is an error.
func (p *Profiler) captureCPUWindow(now time.Time) {
	yield := make(chan struct{})
	var yieldOnce sync.Once
	release, ok := p.opts.Guard.TryAcquire("continuous-profiler",
		func() { yieldOnce.Do(func() { close(yield) }) })
	if !ok {
		p.skipped.Inc()
		p.opts.Logger.Debug("cpu window skipped, profiler owned elsewhere",
			"holder", p.opts.Guard.Holder())
		return
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		release()
		p.skipped.Inc()
		p.opts.Logger.Warn("cpu window failed to start", "err", err)
		return
	}
	t := time.NewTimer(p.opts.Window)
	select {
	case <-t.C:
	case <-yield:
		p.opts.Logger.Debug("cpu window yielded to a preempting capture")
	case <-p.stop:
	}
	t.Stop()
	pprof.StopCPUProfile()
	release()

	end := time.Now()
	w, err := p.windowFromProfile(KindCPU, buf.Bytes(), now, end)
	if err != nil {
		p.opts.Logger.Warn("cpu window decode failed", "err", err)
		return
	}
	if err := p.AddWindow(w); err != nil {
		p.opts.Logger.Warn("cpu window not stored", "err", err)
	}
}

// captureSnapshot grabs one runtime profile (heap or goroutine) as a
// point-in-time window.
func (p *Profiler) captureSnapshot(kind string, now time.Time) {
	prof := pprof.Lookup(kind)
	if prof == nil {
		return
	}
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		p.opts.Logger.Warn("profile snapshot failed", "kind", kind, "err", err)
		return
	}
	w, err := p.windowFromProfile(kind, buf.Bytes(), now, now)
	if err != nil {
		p.opts.Logger.Warn("profile snapshot decode failed", "kind", kind, "err", err)
		return
	}
	if err := p.AddWindow(w); err != nil {
		p.opts.Logger.Warn("profile snapshot not stored", "kind", kind, "err", err)
	}
}

// windowFromProfile decodes raw pprof bytes into a bounded Window.
func (p *Profiler) windowFromProfile(kind string, data []byte, start, end time.Time) (Window, error) {
	profile, err := Parse(data)
	if err != nil {
		return Window{}, err
	}
	vi := profile.DefaultValueIndex()
	funcs, stacks, total := Aggregate(profile, vi)
	unit := ""
	if vi >= 0 && vi < len(profile.SampleTypes) {
		unit = profile.SampleTypes[vi].Unit
	}
	if len(funcs) > maxFunctions {
		funcs = funcs[:maxFunctions]
	}
	var kept int64
	if len(stacks) > maxStacks {
		stacks = stacks[:maxStacks]
	}
	for _, s := range stacks {
		kept += s.Value
	}
	return Window{
		ID:        fmt.Sprintf("w-%s-%d", kind, end.UnixMilli()),
		Kind:      kind,
		Start:     start.UTC(),
		End:       end.UTC(),
		Unit:      unit,
		Total:     total,
		Functions: funcs,
		Stacks:    stacks,
		KeptValue: kept,
	}, nil
}

// AddWindow journals one window and counts it by kind. Exported so
// tests can inject synthetic windows.
func (p *Profiler) AddWindow(w Window) error {
	if err := p.store.Add(w); err != nil {
		return err
	}
	p.opts.Registry.Counter("ion_prof_windows_total",
		"Profile windows captured, by kind.", obs.L("kind", w.Kind)).Inc()
	p.mu.Lock()
	if w.End.After(p.lastWindow) {
		p.lastWindow = w.End
	}
	p.mu.Unlock()
	return nil
}
