package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds: spanning sub-millisecond parses to multi-minute LLM calls.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120,
}

// Registry is a concurrency-safe collection of metric families.
// Instrument getters (Counter, Gauge, Histogram) are get-or-create:
// calling them repeatedly with the same name and labels returns the
// same instrument, so call sites need no package-level variables.
// Registering the same name with a different type panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name, help, typ string
	series          map[string]metric // rendered-label key → instrument
	fn              func() float64    // callback families have no series
}

// metric is the value side of one labeled series.
type metric interface {
	write(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) get(name, help, typ string, labels []Label, make func() metric) metric {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]metric{}}
		r.families[name] = f
	}
	if f.typ != typ || f.fn != nil {
		panic(fmt.Sprintf("obs: metric %q redeclared as %s (registered as %s)", name, typ, f.typ))
	}
	m, ok := f.series[key]
	if !ok {
		m = make()
		f.series[key] = m
	}
	return m
}

// Counter returns the monotonically increasing counter for the given
// name and label set, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.get(name, help, "counter", labels, func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns the settable gauge for the given name and label set,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.get(name, help, "gauge", labels, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram for the given name and
// label set, creating it on first use. buckets are ascending upper
// bounds in seconds; nil means DefBuckets. The bucket layout is fixed
// by the first registration of the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.get(name, help, "histogram", labels, func() metric { return newHistogram(buckets) }).(*Histogram)
}

// registerFunc installs a callback-backed, label-less family: the value
// is read at exposition time, so the registry and the owner of the
// underlying state (e.g. jobs.Service) can never disagree.
func (r *Registry) registerFunc(name, help, typ string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("obs: callback metric %q registered twice", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, fn: fn}
}

// GaugeFunc registers a gauge whose value is pulled from fn at
// exposition time. The callback must be safe for concurrent use and
// must not call back into this registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "gauge", fn)
}

// CounterFunc registers a counter whose cumulative value is pulled from
// fn at exposition time. The same callback rules as GaugeFunc apply.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "counter", fn)
}

// WriteTo renders every family in Prometheus text exposition format
// (families and series in lexicographic order, so output is stable).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(f.fn()))
			continue
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.series[k].write(&b, f.name, k)
		}
	}
	r.mu.Unlock()

	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Sample is one scraped series value: a point-in-time snapshot of a
// counter or gauge. Histogram families are flattened into derived
// samples (see Gather), so consumers such as the time-series store in
// obs/series never need to understand bucket layouts.
type Sample struct {
	// Name is the family name, possibly suffixed (_count, _sum) for
	// histogram-derived samples.
	Name string
	// Labels are the series labels, sorted by key. Histogram quantile
	// samples carry an extra quantile label ("0.5", "0.95", "0.99").
	Labels []Label
	// Kind is "counter" or "gauge"; scrapers convert counters to rates.
	Kind string
	// Value is the current value.
	Value float64
}

// SeriesKey renders the sample identity as name plus its sorted label
// set (`name{k="v",...}`), the canonical key scrapers index by.
func (s Sample) SeriesKey() string { return s.Name + renderLabels(s.Labels) }

// gatherQuantiles are the quantile samples derived from each histogram
// family at Gather time.
var gatherQuantiles = []float64{0.5, 0.95, 0.99}

// Gather snapshots every series in the registry as flat samples, in
// deterministic order (families and series lexicographic, matching
// WriteTo). Counters and gauges yield one sample each; callback
// families are read through their callback; histogram series yield a
// _count counter, a _sum counter, and one gauge per quantile in
// {0.5, 0.95, 0.99} (estimated over all observations since process
// start, the same interpolation Quantile uses).
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []Sample
	for _, name := range names {
		f := r.families[name]
		if f.fn != nil {
			out = append(out, Sample{Name: f.name, Kind: f.typ, Value: f.fn()})
			continue
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			labels := parseLabelKey(k)
			switch m := f.series[k].(type) {
			case *Counter:
				out = append(out, Sample{Name: f.name, Labels: labels, Kind: "counter", Value: m.Value()})
			case *Gauge:
				out = append(out, Sample{Name: f.name, Labels: labels, Kind: "gauge", Value: m.Value()})
			case *Histogram:
				out = append(out,
					Sample{Name: f.name + "_count", Labels: labels, Kind: "counter", Value: float64(m.Count())},
					Sample{Name: f.name + "_sum", Labels: labels, Kind: "counter", Value: m.Sum()})
				for _, q := range gatherQuantiles {
					ql := append(append([]Label(nil), labels...), L("quantile", formatValue(q)))
					sort.Slice(ql, func(i, j int) bool { return ql[i].Key < ql[j].Key })
					out = append(out, Sample{Name: f.name, Labels: ql, Kind: "gauge", Value: m.Quantile(q)})
				}
			}
		}
	}
	return out
}

// parseLabelKey decodes a rendered label string (`{k="v",...}` or "")
// back into sorted label pairs, reversing renderLabels including its
// escaping.
func parseLabelKey(key string) []Label {
	if key == "" {
		return nil
	}
	var out []Label
	s := key[1 : len(key)-1] // strip { }
	for len(s) > 0 {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			break
		}
		k := s[:eq]
		s = s[eq+2:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			s = ""
		}
		out = append(out, L(k, b.String()))
		s = strings.TrimPrefix(s, ",")
	}
	return out
}

// Handler returns the GET /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(c.Value()))
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(g.Value()))
}

// Histogram counts observations into fixed cumulative buckets and
// tracks their sum, the Prometheus histogram model.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds
	counts  []uint64  // len(bounds)+1; last is +Inf
	sum     float64
	observe uint64
	// exemplars holds the latest exemplar per bucket (parallel to
	// counts), allocated on the first ObserveExemplar.
	exemplars []Exemplar
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.observe++
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.observe
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts by linear interpolation within the containing bucket, the
// same estimate Prometheus's histogram_quantile computes. It returns 0
// with no observations; values landing in the +Inf bucket report the
// largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.observe == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(h.observe)
	var cum float64
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	bounds, counts, sum, total := h.bounds, append([]uint64(nil), h.counts...), h.sum, h.observe
	h.mu.Unlock()
	var cum uint64
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, formatValue(bound)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, total)
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// renderLabels serializes a label set as `{k="v",...}` with keys
// sorted, or "" for no labels. This string doubles as the series key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLE splices an le="bound" label into a rendered label string.
func withLE(labels, bound string) string {
	le := `le="` + bound + `"`
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

func escapeValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
