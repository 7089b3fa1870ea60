// Package series is the always-on self-observation engine of the ION
// service: a lock-cheap in-process time-series store that scrapes an
// obs.Registry on a fixed interval into per-series ring buffers, plus a
// rule engine (rules.go) that evaluates SLO-style alert rules against
// those buffers and drives alert state machines. Like the rest of the
// telemetry layer it is stdlib-only and needs no external collector:
// the store IS the monitoring system, cheap enough to run forever,
// mirroring how Recorder keeps aggregate I/O views always-on instead of
// post-processing full traces.
//
// Counters are stored as per-second rates (computed between consecutive
// scrapes, reset-aware), gauges as raw values. Histogram families enter
// pre-flattened by obs.(*Registry).Gather as _count/_sum counters and
// per-quantile gauges, so p95-style rules are plain series lookups.
package series

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"ion/internal/obs"
)

// Point is one sample: unix-millisecond timestamp and value. It
// marshals as the JSON array [t, v], the compact wire form the query
// API and dashboard consume.
type Point struct {
	T int64
	V float64
}

// MarshalJSON renders the point as [t, v].
func (p Point) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("[%d,%s]", p.T, formatFloat(p.V))), nil
}

// UnmarshalJSON accepts the [t, v] wire form.
func (p *Point) UnmarshalJSON(b []byte) error {
	var pair [2]float64
	if err := json.Unmarshal(b, &pair); err != nil {
		return err
	}
	p.T = int64(pair[0])
	p.V = pair[1]
	return nil
}

func formatFloat(v float64) string {
	if v != v { // NaN has no JSON encoding
		return "null"
	}
	return trimFloat(v)
}

func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// maxSeries bounds distinct series; past it new series are dropped
// (counted, logged once).
const maxSeries = 4096

// Options configures a Store.
type Options struct {
	// Interval is the scrape cadence; 0 means the default (5s).
	Interval time.Duration
	// Retention is how much history each series keeps; 0 means the
	// default (15m). Ring capacity is Retention/Interval points.
	Retention time.Duration
	// Rules are the alert rules the engine evaluates after every
	// scrape; nil means no alerting.
	Rules []Rule
	// OnTransition, when set, receives every alert state change. It is
	// invoked synchronously from Scrape after the engine lock is
	// released, so it may safely call Alerts or Query; anything slow
	// (profiling, disk writes) should be handed to a goroutine.
	OnTransition func(RuleTransition)
	// Logger receives alert transitions and store lifecycle logs; nil
	// discards.
	Logger *slog.Logger
}

func (o *Options) applyDefaults() {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Second
	}
	if o.Retention <= 0 {
		o.Retention = 15 * time.Minute
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
}

// memSeries is one named, labeled series: a fixed-capacity ring of
// points plus the counter state needed to turn cumulative values into
// rates.
type memSeries struct {
	name   string
	labels []obs.Label
	kind   string // "gauge", or "counter" (points hold per-second rates)

	pts  []Point // ring storage, len == capacity
	head int     // index of the oldest point
	n    int     // live points

	lastRaw float64 // counters: previous cumulative value
	lastT   int64   // counters: previous scrape time (ms)
	primed  bool    // counters: lastRaw valid
}

// push appends a point, evicting the oldest when full.
func (m *memSeries) push(p Point) {
	if m.n < len(m.pts) {
		m.pts[(m.head+m.n)%len(m.pts)] = p
		m.n++
		return
	}
	m.pts[m.head] = p
	m.head = (m.head + 1) % len(m.pts)
}

// window copies the points with from <= T <= to, oldest first.
func (m *memSeries) window(from, to int64) []Point {
	var out []Point
	for i := 0; i < m.n; i++ {
		p := m.pts[(m.head+i)%len(m.pts)]
		if p.T < from || p.T > to {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Store scrapes a registry into ring-buffered series and answers
// windowed queries over them. All methods are safe for concurrent use.
type Store struct {
	reg    *obs.Registry
	opts   Options
	cap    int // ring capacity in points
	engine *engine

	mu      sync.RWMutex
	series  map[string]*memSeries // obs.Sample.SeriesKey() → series
	order   []string              // insertion-independent sorted keys, rebuilt lazily
	stale   bool                  // order needs rebuild
	dropped int64                 // series rejected by maxSeries
	scrapes int64
	lastAt  time.Time // stamp of the most recent scrape
	warned  bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// New builds a Store over reg. It registers the engine's
// ion_alerts_firing gauge and the store's own bookkeeping gauges into
// the same registry, so the monitor monitors itself. Call Start to
// begin scraping, or Scrape directly (tests, single-shot tools).
func New(reg *obs.Registry, opts Options) *Store {
	opts.applyDefaults()
	capacity := int(opts.Retention / opts.Interval)
	if capacity < 2 {
		capacity = 2
	}
	s := &Store{
		reg:    reg,
		opts:   opts,
		cap:    capacity,
		series: make(map[string]*memSeries),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.engine = newEngine(opts.Rules, opts.Logger)
	s.engine.onTransition = opts.OnTransition
	reg.GaugeFunc("ion_alerts_firing", "Alert rules currently in the firing state.",
		func() float64 { return float64(s.engine.firingCount()) })
	reg.GaugeFunc("ion_series_count", "Distinct series retained by the in-process time-series store.",
		func() float64 { return float64(s.SeriesCount()) })
	reg.CounterFunc("ion_series_scrapes_total", "Registry scrapes performed by the time-series store.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.scrapes)
		})
	return s
}

// Interval returns the configured scrape cadence.
func (s *Store) Interval() time.Duration { return s.opts.Interval }

// Retention returns the configured history window.
func (s *Store) Retention() time.Duration { return s.opts.Retention }

// LastScrape returns the stamp of the most recent scrape (zero before
// the first), so dashboards can surface staleness.
func (s *Store) LastScrape() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastAt
}

// Start launches the scrape loop. Stop it with Stop; calling Start
// twice is a no-op, and Start after Stop exits immediately.
func (s *Store) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.opts.Interval)
		defer t.Stop()
		s.Scrape(time.Now())
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				s.Scrape(now)
			}
		}
	}()
	s.opts.Logger.Info("series store scraping",
		"interval", s.opts.Interval.String(), "retention", s.opts.Retention.String(),
		"capacity_points", s.cap, "rules", len(s.opts.Rules))
}

// Stop halts the scrape loop and waits for it to exit. Safe to call
// without Start and safe to call twice.
func (s *Store) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.RLock()
	started := s.started
	s.mu.RUnlock()
	if started {
		<-s.done
	}
}

// Scrape ingests one registry snapshot stamped at now and then
// evaluates the alert rules against the updated series. Exported so
// tests and one-shot tools can drive time explicitly.
func (s *Store) Scrape(now time.Time) {
	samples := s.reg.Gather()
	ts := now.UnixMilli()

	s.mu.Lock()
	s.scrapes++
	if now.After(s.lastAt) {
		s.lastAt = now
	}
	for _, sm := range samples {
		key := sm.SeriesKey()
		m, ok := s.series[key]
		if !ok {
			if len(s.series) >= maxSeries {
				s.dropped++
				if !s.warned {
					s.warned = true
					s.opts.Logger.Warn("series store at its series bound, dropping new series",
						"max", maxSeries, "dropped_key", key)
				}
				continue
			}
			m = &memSeries{
				name:   sm.Name,
				labels: append([]obs.Label(nil), sm.Labels...),
				kind:   sm.Kind,
				pts:    make([]Point, s.cap),
			}
			s.series[key] = m
			s.stale = true
		}
		switch m.kind {
		case "counter":
			raw := sm.Value
			if !m.primed {
				m.lastRaw, m.lastT, m.primed = raw, ts, true
				continue
			}
			dt := float64(ts-m.lastT) / 1000
			if dt <= 0 {
				continue
			}
			delta := raw - m.lastRaw
			if delta < 0 {
				// Counter reset: rate from zero.
				delta = raw
			}
			m.lastRaw, m.lastT = raw, ts
			m.push(Point{T: ts, V: delta / dt})
		default:
			m.push(Point{T: ts, V: sm.Value})
		}
	}
	// Series are only ever added here, so rebuilding the sorted key
	// order under the same write lock keeps Query read-only.
	if s.stale {
		s.order = s.order[:0]
		for k := range s.series {
			s.order = append(s.order, k)
		}
		sort.Strings(s.order)
		s.stale = false
	}
	s.mu.Unlock()

	s.engine.eval(s, now)
}

// SeriesCount returns the number of distinct retained series.
func (s *Store) SeriesCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// Dropped returns how many new series were rejected by maxSeries.
func (s *Store) Dropped() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}

// Query selects windowed points from the store.
type Query struct {
	// Name is the exact metric name (required). Histogram-derived
	// series use the flattened names: name{quantile="0.95"},
	// name_count, name_sum.
	Name string
	// Labels are equality filters; a series matches when every listed
	// key has the listed value (extra labels on the series are fine).
	Labels map[string]string
	// From/To bound the window; zero values mean the full retention.
	From, To time.Time
	// Step buckets points into fixed windows, keeping one aggregated
	// point per bucket; 0 returns raw points.
	Step time.Duration
	// Agg is the per-bucket aggregation when Step > 0: "avg" (default),
	// "max", "min", "sum", or "last".
	Agg string
}

// Result is one matched series with its windowed points.
type Result struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Points []Point           `json:"points"`
}

// Query returns every retained series matching q, sorted by series key,
// each with its in-window points oldest-first (after optional step
// aggregation). A nil result means nothing matched.
func (s *Store) Query(q Query) []Result {
	// A step wider than the whole retention window cannot produce a
	// meaningful bucket: every retained point would collapse into one
	// aggregate pretending to be a trend. Return no data instead.
	if q.Step > 0 && q.Step > s.opts.Retention {
		return nil
	}
	from, to := int64(0), int64(1<<62)
	if !q.From.IsZero() {
		from = q.From.UnixMilli()
	}
	if !q.To.IsZero() {
		to = q.To.UnixMilli()
	}

	s.mu.RLock()
	var out []Result
	for _, key := range s.order {
		m := s.series[key]
		if m.name != q.Name || !labelsMatch(m.labels, q.Labels) {
			continue
		}
		pts := m.window(from, to)
		if q.Step > 0 {
			pts = downsample(pts, q.Step, q.Agg)
		}
		if len(pts) == 0 {
			continue
		}
		out = append(out, Result{Name: m.name, Labels: labelMap(m.labels), Kind: m.kind, Points: pts})
	}
	s.mu.RUnlock()
	return out
}

// Latest returns the most recent point of each series matching name and
// labels (no window), sorted by series key.
func (s *Store) Latest(name string, labels map[string]string) []Result {
	res := s.Query(Query{Name: name, Labels: labels})
	for i := range res {
		res[i].Points = res[i].Points[len(res[i].Points)-1:]
	}
	return res
}

func labelsMatch(have []obs.Label, want map[string]string) bool {
	for k, v := range want {
		found := false
		for _, l := range have {
			if l.Key == k {
				found = l.Value == v
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func labelMap(ls []obs.Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// downsample buckets pts (oldest first) into step-sized windows
// anchored at the first point, emitting one aggregated point per
// non-empty bucket, stamped at the bucket end.
func downsample(pts []Point, step time.Duration, agg string) []Point {
	if len(pts) == 0 {
		return pts
	}
	ms := step.Milliseconds()
	if ms <= 0 {
		return pts
	}
	var out []Point
	start := pts[0].T
	i := 0
	for i < len(pts) {
		bucketEnd := start + ms
		var vals []float64
		for i < len(pts) && pts[i].T < bucketEnd {
			vals = append(vals, pts[i].V)
			i++
		}
		if len(vals) > 0 {
			out = append(out, Point{T: bucketEnd - 1, V: aggregate(vals, agg)})
		}
		start = bucketEnd
	}
	return out
}

func aggregate(vals []float64, agg string) float64 {
	switch agg {
	case "max":
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case "min":
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case "sum":
		var t float64
		for _, v := range vals {
			t += v
		}
		return t
	case "last":
		return vals[len(vals)-1]
	default: // avg
		var t float64
		for _, v := range vals {
			t += v
		}
		return t / float64(len(vals))
	}
}

// Alerts returns a snapshot of every rule's alert status, rule order.
func (s *Store) Alerts() []AlertStatus { return s.engine.snapshot() }
