package prof

import (
	"bytes"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"ion/internal/obs"
)

// Profile kinds the continuous profiler captures each cycle. Block and
// mutex profiles are also polled but only journaled when non-empty
// (their runtime sampling is off unless the operator enables it).
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindGoroutine = "goroutine"
	KindBlock     = "block"
	KindMutex     = "mutex"
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
	// TopFunctions bounds the per-function share/delta gauges exported
	// per window; 0 means the default (20).
	TopFunctions int
	// MaxFunctions bounds the per-window function table; 0 means the
	// default (40).
	MaxFunctions int
	// MaxStacks bounds the folded stacks kept per window for the
	// flamegraph; 0 means the default (96).
	MaxStacks int
	// BaselineWindows is how many trailing CPU windows form the diff
	// baseline; 0 means the default (5).
	BaselineWindows int
	// Logger receives profiler lifecycle logs; nil discards.
	Logger *slog.Logger
}

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
	if o.TopFunctions <= 0 {
		o.TopFunctions = 20
	}
	if o.MaxFunctions <= 0 {
		o.MaxFunctions = 40
	}
	if o.MaxStacks <= 0 {
		o.MaxStacks = 96
	}
	if o.BaselineWindows <= 0 {
		o.BaselineWindows = 5
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
}

// HotFunc is one function's standing in the latest CPU window against
// the trailing baseline: the /dashboard/profile table row and the
// source of the share/delta gauges.
type HotFunc struct {
	Name string `json:"name"`
	// Share is the flat share of the latest window.
	Share float64 `json:"share"`
	// CumShare is the cumulative share of the latest window.
	CumShare float64 `json:"cum_share"`
	// Baseline is the mean flat share over the trailing baseline
	// windows (0 when there is no baseline yet).
	Baseline float64 `json:"baseline"`
	// Delta is Share − Baseline: positive means the function got
	// hotter.
	Delta float64 `json:"delta"`
}

// Profiler runs the always-on capture loop. All methods are safe for
// concurrent use.
type Profiler struct {
	opts  Options
	store *Store

	skipped  *obs.Counter
	maxDelta *obs.Gauge

	mu         sync.Mutex
	lastWindow time.Time
	lastCPU    time.Time
	hot        []HotFunc
	exported   map[string]bool // fn labels with live share/delta gauges

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
		opts:     opts,
		store:    opts.Store,
		exported: map[string]bool{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	reg := opts.Registry
	p.skipped = reg.Counter("ion_prof_skipped_total",
		"Profile windows skipped because the CPU profiler was owned elsewhere.")
	p.maxDelta = reg.Gauge("ion_prof_max_share_delta",
		"Largest positive flat-share delta of any hot function in the latest CPU window vs the trailing baseline.")
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

	// A restarted process shows the newest replayed window's shares but
	// publishes no deltas for it: that window was diffed by the process
	// that captured it, and its deltas would go stale here until the
	// next window. The first new window diffs against the replayed
	// history.
	if w, ok := p.store.Latest(KindCPU); ok {
		p.refreshDiff(w, false)
		p.mu.Lock()
		p.lastWindow, p.lastCPU = w.End, w.End
		p.mu.Unlock()
	}
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

// HotFunctions returns the latest CPU window's top functions with
// their baseline shares and deltas, hottest first.
func (p *Profiler) HotFunctions() []HotFunc {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]HotFunc(nil), p.hot...)
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
// by heap/goroutine/block/mutex snapshots. Exported so tests and
// one-shot tools can drive time explicitly.
func (p *Profiler) CaptureCycle(now time.Time) {
	p.captureCPUWindow(now)
	for _, kind := range []string{KindHeap, KindGoroutine, KindBlock, KindMutex} {
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

// captureSnapshot grabs one runtime profile (heap, goroutine, block,
// mutex) as a point-in-time window. Block and mutex snapshots are
// dropped while empty.
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
	if (kind == KindBlock || kind == KindMutex) && w.Total == 0 {
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
	if len(funcs) > p.opts.MaxFunctions {
		funcs = funcs[:p.opts.MaxFunctions]
	}
	var kept int64
	if len(stacks) > p.opts.MaxStacks {
		stacks = stacks[:p.opts.MaxStacks]
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

// AddWindow journals one window and, for CPU windows, recomputes the
// hot-function diff and its gauges. Exported so tests (and replayed
// journals) can inject synthetic windows.
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
	if w.Kind == KindCPU && w.End.After(p.lastCPU) {
		p.lastCPU = w.End
	}
	p.mu.Unlock()
	if w.Kind == KindCPU {
		p.refreshDiff(w, true)
	}
	return nil
}

// refreshDiff recomputes the hot-function table for the given (latest)
// CPU window and re-exports the per-function share/delta gauges,
// zeroing functions that dropped out so stale series decay instead of
// lying. With diff, deltas are taken against the trailing baseline;
// without, every delta is zero, as for a first window.
func (p *Profiler) refreshDiff(latest Window, diff bool) {
	// Baseline: the mean flat share per function over the trailing
	// windows (excluding the latest itself).
	var baseline []Window
	if diff {
		for _, w := range p.store.Windows(KindCPU, p.opts.BaselineWindows+1) {
			if w.ID != latest.ID {
				baseline = append(baseline, w)
			}
		}
	}
	base := map[string]float64{}
	if len(baseline) > 0 {
		for _, w := range baseline {
			for _, f := range w.Functions {
				base[f.Name] += f.FlatShare
			}
		}
		for fn := range base {
			base[fn] /= float64(len(baseline))
		}
	}

	hot := make([]HotFunc, 0, len(latest.Functions))
	maxDelta := 0.0
	for _, f := range latest.Functions {
		h := HotFunc{Name: f.Name, Share: f.FlatShare, CumShare: f.CumShare}
		if len(baseline) > 0 {
			h.Baseline = base[f.Name]
			h.Delta = h.Share - h.Baseline
		}
		if h.Delta > maxDelta {
			maxDelta = h.Delta
		}
		hot = append(hot, h)
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Share != hot[j].Share {
			return hot[i].Share > hot[j].Share
		}
		return hot[i].Name < hot[j].Name
	})

	top := hot
	if len(top) > p.opts.TopFunctions {
		top = top[:p.opts.TopFunctions]
	}
	reg := p.opts.Registry
	p.mu.Lock()
	live := map[string]bool{}
	for _, h := range top {
		live[h.Name] = true
		reg.Gauge("ion_prof_hot_function_share",
			"Flat CPU share of a hot function in the latest profile window.",
			obs.L("fn", h.Name)).Set(h.Share)
		reg.Gauge("ion_prof_hot_function_delta",
			"Flat-share delta of a hot function vs the trailing-baseline mean.",
			obs.L("fn", h.Name)).Set(h.Delta)
	}
	for fn := range p.exported {
		if !live[fn] {
			reg.Gauge("ion_prof_hot_function_share", "", obs.L("fn", fn)).Set(0)
			reg.Gauge("ion_prof_hot_function_delta", "", obs.L("fn", fn)).Set(0)
		}
	}
	p.exported = live
	p.hot = hot
	p.mu.Unlock()
	p.maxDelta.Set(maxDelta)
}
