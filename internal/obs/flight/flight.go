// Package flight is ionserve's flight recorder: always-on, bounded-cost
// capture of what the process was doing, snapshotted into an incident
// bundle the moment something goes wrong. It keeps three fixed-size
// in-memory rings — recent structured log records (a tee slog.Handler
// wrapping the service logger), tail-sampled completed span timelines
// (the slowest-N roots per operation, so the p99 job that trips an
// alert is still in memory), and periodic metric snapshots — and on
// Capture writes them together with goroutine/heap/CPU profiles,
// current alert states, and redacted config as a tar.gz bundle.
// Captures are singleflighted and rate-limited so an alert storm cannot
// stack profilers, and bundles on disk are bounded by count and bytes.
//
// Like the rest of the telemetry layer the package is stdlib-only.
package flight

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"ion/internal/obs"
)

// Capture refusal reasons, surfaced to callers so the HTTP layer can
// map them (429 for rate limiting, 409 for an in-flight capture).
var (
	// ErrRateLimited means a bundle was captured within Cooldown; the
	// evidence it holds covers this incident too.
	ErrRateLimited = errors.New("flight: capture rate-limited, recent bundle already covers this window")
	// ErrCaptureInFlight means another capture is running right now.
	ErrCaptureInFlight = errors.New("flight: a capture is already in flight")
)

// Cooldown is the minimum gap between captures: a capture inside it
// returns ErrRateLimited.
const Cooldown = time.Minute

// The recorder's ring sizes, snapshot cadence and bundle byte bound.
const (
	maxLogRecords    = 512              // log records kept
	spansPerOp       = 8                // slowest timelines kept per root operation
	maxOps           = 32               // root operations tracked
	snapshotInterval = 15 * time.Second // metric-snapshot cadence of the Start loop
	maxSnapshots     = 20               // metric snapshots kept
	maxBundleBytes   = 256 << 20        // total bytes of the bundles kept on disk
)

// Options configures a Recorder. Dir is required; every other field
// may be left zero.
type Options struct {
	// Dir is where incident bundles land; it is created if missing.
	Dir string
	// CPUProfile is how long Capture profiles the CPU; zero or negative
	// skips the CPU profile.
	CPUProfile time.Duration
	// MaxBundles bounds bundles kept on disk; 0 means the default (16).
	// The bundles kept are also bounded at 256 MiB in all, and the
	// newest bundle is never deleted.
	MaxBundles int
	// Registry is snapshotted into the metrics ring and receives the
	// recorder's own counters; nil uses a private registry.
	Registry *obs.Registry
	// CPUGuard coordinates CPU-profiler ownership with the continuous
	// profiler: an incident capture preempts a running profile window
	// (the window ends early and the profiler resumes next cycle). Nil
	// uses a private guard, i.e. no coordination needed.
	CPUGuard *obs.CPUProfileGuard
	// Config is included in every bundle with secret-looking values
	// redacted.
	Config map[string]string
	// Logger receives recorder lifecycle logs; nil discards.
	Logger *slog.Logger
}

func (o *Options) applyDefaults() {
	if o.MaxBundles <= 0 {
		o.MaxBundles = 16
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.CPUGuard == nil {
		o.CPUGuard = obs.NewCPUProfileGuard()
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
}

// Manifest describes one incident bundle: what was captured, when, and
// why. It is the first entry inside the bundle and the payload of the
// incidents API.
type Manifest struct {
	ID              string    `json:"id"`
	CapturedAt      time.Time `json:"captured_at"`
	Reason          string    `json:"reason"`
	SizeBytes       int64     `json:"size_bytes,omitempty"`
	Files           []string  `json:"files"`
	LogRecords      int       `json:"log_records"`
	SpanTimelines   int       `json:"span_timelines"`
	MetricSnapshots int       `json:"metric_snapshots"`
	// Notes records non-fatal capture problems (e.g. the CPU profiler
	// was busy), so a partial bundle explains itself.
	Notes []string `json:"notes,omitempty"`
}

// metricSnapshot is one periodic Registry.Gather, stamped.
type metricSnapshot struct {
	t       time.Time
	samples []obs.Sample
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use.
type Recorder struct {
	opts  Options
	logs  *logRing
	spans *spanSampler

	captured   *obs.Counter
	suppressed *obs.Counter

	alertsFn      func() any // optional: current alert states for the bundle
	profWindowsFn func() any // optional: recent profile windows for the bundle
	ledgerTailFn  func() any // optional: recent LLM ledger entries for the bundle
	qualityFn     func() any // optional: recent diagnosis-quality scorecards for the bundle

	mu        sync.Mutex
	snaps     []metricSnapshot // ring storage
	snapHead  int
	snapN     int
	manifests []Manifest // bundles on disk, oldest first
	capturing bool
	last      time.Time // start of the most recent capture

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	started  bool
}

// New builds a Recorder, creating Dir if needed and re-indexing any
// bundles a previous process left there.
func New(opts Options) (*Recorder, error) {
	if opts.Dir == "" {
		return nil, errors.New("flight: an incident directory is required")
	}
	opts.applyDefaults()
	r := &Recorder{
		opts:  opts,
		logs:  newLogRing(maxLogRecords),
		spans: newSpanSampler(spansPerOp, maxOps),
		snaps: make([]metricSnapshot, maxSnapshots),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	r.captured = opts.Registry.Counter("ion_incidents_captured_total",
		"Incident bundles written by the flight recorder.")
	r.suppressed = opts.Registry.Counter("ion_incidents_suppressed_total",
		"Capture requests refused by rate limiting or an in-flight capture.")
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: creating incident dir: %w", err)
	}
	if err := r.reindex(); err != nil {
		return nil, err
	}
	return r, nil
}

// SetAlertsFunc installs the callback whose result is marshaled into
// each bundle's alerts.json (typically series.Store.Alerts). Call
// before Start.
func (r *Recorder) SetAlertsFunc(fn func() any) { r.alertsFn = fn }

// SetProfileWindowsFn installs the callback whose result is marshaled
// into each bundle's profile_windows.json (typically the continuous
// profiler's recent decoded windows, so an incident bundle shows where
// CPU and heap went in the minutes before the alert). Call before
// Start.
func (r *Recorder) SetProfileWindowsFn(fn func() any) { r.profWindowsFn = fn }

// SetLedgerTailFn installs the callback whose result is marshaled into
// each bundle's llm_ledger.json (typically the LLM audit ledger's
// recent tail, so a backend-degradation incident shows exactly which
// calls failed, how slowly, and what they cost — hashes and accounting
// only unless text capture was opted into). Call before Start.
func (r *Recorder) SetLedgerTailFn(fn func() any) { r.ledgerTailFn = fn }

// SetQualityScorecardsFn installs the callback whose result is
// marshaled into each bundle's quality_scorecards.json (typically the
// quality store's recent tail, so a flip-rate incident carries the
// flipped scorecards that drove it). Call before Start.
func (r *Recorder) SetQualityScorecardsFn(fn func() any) { r.qualityFn = fn }

// OfferTimeline feeds one completed span timeline to the tail-sampler.
func (r *Recorder) OfferTimeline(tl obs.Timeline) { r.spans.Offer(tl) }

// Start launches the periodic metric-snapshot loop. Stop it with Stop;
// Start twice is a no-op.
func (r *Recorder) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go func() {
		defer close(r.done)
		t := time.NewTicker(snapshotInterval)
		defer t.Stop()
		r.Snapshot(time.Now())
		for {
			select {
			case <-r.stop:
				return
			case now := <-t.C:
				r.Snapshot(now)
			}
		}
	}()
	r.opts.Logger.Info("flight recorder running", "dir", r.opts.Dir)
}

// Stop halts the snapshot loop. Safe without Start and safe twice.
func (r *Recorder) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

// Snapshot gathers the registry once into the metrics ring. The Start
// loop calls it on its cadence; tests call it to control time.
func (r *Recorder) Snapshot(now time.Time) {
	samples := r.opts.Registry.Gather()
	r.mu.Lock()
	snap := metricSnapshot{t: now, samples: samples}
	if r.snapN < len(r.snaps) {
		r.snaps[(r.snapHead+r.snapN)%len(r.snaps)] = snap
		r.snapN++
	} else {
		r.snaps[r.snapHead] = snap
		r.snapHead = (r.snapHead + 1) % len(r.snaps)
	}
	r.mu.Unlock()
}

// List returns the manifests of the bundles on disk, newest first.
func (r *Recorder) List() []Manifest {
	r.mu.Lock()
	out := make([]Manifest, len(r.manifests))
	for i, m := range r.manifests {
		out[len(out)-1-i] = m
	}
	r.mu.Unlock()
	return out
}

// Get returns the manifest of one bundle by id.
func (r *Recorder) Get(id string) (Manifest, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.manifests {
		if m.ID == id {
			return m, true
		}
	}
	return Manifest{}, false
}

// Open opens a bundle's tar.gz by id for streaming to a client.
func (r *Recorder) Open(id string) (io.ReadCloser, int64, error) {
	m, ok := r.Get(id)
	if !ok {
		return nil, 0, fmt.Errorf("flight: no bundle %q", id)
	}
	f, err := os.Open(filepath.Join(r.opts.Dir, m.ID+".tar.gz"))
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// Capture snapshots the process into a new incident bundle. It is
// singleflighted (a concurrent call returns ErrCaptureInFlight) and
// rate-limited (a call within Cooldown of the last capture that wrote a
// bundle returns ErrRateLimited): an alert storm produces one bundle,
// not a pile of stacked profilers.
func (r *Recorder) Capture(reason string) (Manifest, error) {
	now := time.Now()
	r.mu.Lock()
	if r.capturing {
		r.mu.Unlock()
		r.suppressed.Inc()
		return Manifest{}, ErrCaptureInFlight
	}
	if !r.last.IsZero() && now.Sub(r.last) < Cooldown {
		r.mu.Unlock()
		r.suppressed.Inc()
		return Manifest{}, ErrRateLimited
	}
	r.capturing = true
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.capturing = false
		r.mu.Unlock()
	}()

	m, err := r.capture(now.UTC(), reason)
	if err != nil {
		r.opts.Logger.Error("incident capture failed", "reason", reason, "err", err)
		return Manifest{}, err
	}
	r.captured.Inc()
	r.opts.Logger.Warn("incident bundle captured",
		"id", m.ID, "reason", reason, "bytes", m.SizeBytes,
		"log_records", m.LogRecords, "span_timelines", m.SpanTimelines)
	r.mu.Lock()
	r.last = now // only a written bundle starts the cooldown
	r.manifests = append(r.manifests, m)
	r.mu.Unlock()
	r.enforceRetention()
	return m, nil
}

// capture builds and writes one bundle.
func (r *Recorder) capture(now time.Time, reason string) (Manifest, error) {
	m := Manifest{
		ID:         fmt.Sprintf("inc-%s-%s", now.Format("20060102T150405.000"), sanitize(reason)),
		CapturedAt: now,
		Reason:     reason,
	}

	type entry struct {
		name string
		data []byte
	}
	var entries []entry
	add := func(name string, data []byte) {
		entries = append(entries, entry{name, data})
		m.Files = append(m.Files, name)
	}

	// Goroutine dump (text, full stacks) and heap profile (pprof proto).
	var buf bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&buf, 2)
		add("goroutines.txt", append([]byte(nil), buf.Bytes()...))
	}
	buf.Reset()
	if p := pprof.Lookup("heap"); p != nil {
		p.WriteTo(&buf, 0)
		add("heap.pprof", append([]byte(nil), buf.Bytes()...))
	}

	// CPU profile: optional, bounded, and owner-aware. The shared guard
	// preempts the continuous profiler (its window ends early and it
	// resumes next cycle); a profiler the guard does not manage — e.g.
	// someone on /debug/pprof/profile — still degrades to a note, never
	// a failed capture.
	if r.opts.CPUProfile > 0 {
		release, err := r.opts.CPUGuard.Acquire("incident-capture", 3*time.Second)
		if err != nil {
			m.Notes = append(m.Notes, "cpu profile unavailable: "+err.Error())
		} else {
			buf.Reset()
			if err := pprof.StartCPUProfile(&buf); err != nil {
				m.Notes = append(m.Notes, "cpu profile unavailable: "+err.Error())
			} else {
				select {
				case <-time.After(r.opts.CPUProfile):
				case <-r.stop:
				}
				pprof.StopCPUProfile()
				add("cpu.pprof", append([]byte(nil), buf.Bytes()...))
			}
			release()
		}
	}

	// The three rings.
	logs := r.logs.snapshot()
	m.LogRecords = len(logs)
	add("logs.jsonl", renderLogs(logs))

	spans := r.spans.snapshot()
	for _, items := range spans {
		m.SpanTimelines += len(items)
	}
	if data, err := json.MarshalIndent(spans, "", " "); err == nil {
		add("spans.json", data)
	}

	snaps := r.snapshotRing()
	m.MetricSnapshots = len(snaps)
	add("metrics.json", renderSnapshots(snaps))

	// Alert states and redacted config.
	if r.alertsFn != nil {
		if data, err := json.MarshalIndent(r.alertsFn(), "", " "); err == nil {
			add("alerts.json", data)
		}
	}
	if r.profWindowsFn != nil {
		if data, err := json.MarshalIndent(r.profWindowsFn(), "", " "); err == nil {
			add("profile_windows.json", data)
		}
	}
	if r.ledgerTailFn != nil {
		if data, err := json.MarshalIndent(r.ledgerTailFn(), "", " "); err == nil {
			add("llm_ledger.json", data)
		}
	}
	if r.qualityFn != nil {
		if data, err := json.MarshalIndent(r.qualityFn(), "", " "); err == nil {
			add("quality_scorecards.json", data)
		}
	}
	if len(r.opts.Config) > 0 {
		if data, err := json.MarshalIndent(Redact(r.opts.Config), "", " "); err == nil {
			add("config.json", data)
		}
	}

	manifestData, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return Manifest{}, err
	}

	// Write manifest first, then the entries, to a temp file renamed
	// into place so List never sees a half-written bundle.
	path := filepath.Join(r.opts.Dir, m.ID+".tar.gz")
	tmp, err := os.CreateTemp(r.opts.Dir, ".capture-*")
	if err != nil {
		return Manifest{}, err
	}
	defer os.Remove(tmp.Name())
	zw := gzip.NewWriter(tmp)
	tw := tar.NewWriter(zw)
	write := func(name string, data []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: now,
		}); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	if err := write("manifest.json", manifestData); err != nil {
		tmp.Close()
		return Manifest{}, err
	}
	for _, e := range entries {
		if err := write(e.name, e.data); err != nil {
			tmp.Close()
			return Manifest{}, err
		}
	}
	if err := tw.Close(); err != nil {
		tmp.Close()
		return Manifest{}, err
	}
	if err := zw.Close(); err != nil {
		tmp.Close()
		return Manifest{}, err
	}
	if err := tmp.Close(); err != nil {
		return Manifest{}, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return Manifest{}, err
	}
	if st, err := os.Stat(path); err == nil {
		m.SizeBytes = st.Size()
	}
	return m, nil
}

// snapshotRing copies the metric snapshots, oldest first.
func (r *Recorder) snapshotRing() []metricSnapshot {
	r.mu.Lock()
	out := make([]metricSnapshot, r.snapN)
	for i := 0; i < r.snapN; i++ {
		out[i] = r.snaps[(r.snapHead+i)%len(r.snaps)]
	}
	r.mu.Unlock()
	return out
}

// enforceRetention deletes the oldest bundles while either the count or
// total-bytes bound is exceeded. The newest bundle always survives.
func (r *Recorder) enforceRetention() {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, m := range r.manifests {
		total += m.SizeBytes
	}
	for len(r.manifests) > 1 &&
		(len(r.manifests) > r.opts.MaxBundles || total > maxBundleBytes) {
		victim := r.manifests[0]
		if err := os.Remove(filepath.Join(r.opts.Dir, victim.ID+".tar.gz")); err != nil && !os.IsNotExist(err) {
			r.opts.Logger.Warn("deleting expired incident bundle", "id", victim.ID, "err", err)
		}
		total -= victim.SizeBytes
		r.manifests = r.manifests[1:]
		r.opts.Logger.Info("incident bundle expired", "id", victim.ID)
	}
}

// reindex rebuilds the manifest list from bundles already on disk, so a
// restarted service keeps serving earlier incidents.
func (r *Recorder) reindex() error {
	names, err := filepath.Glob(filepath.Join(r.opts.Dir, "inc-*.tar.gz"))
	if err != nil {
		return err
	}
	sort.Strings(names) // ids embed a UTC timestamp, so name order is time order
	for _, path := range names {
		m, err := readManifest(path)
		if err != nil {
			r.opts.Logger.Warn("skipping unreadable incident bundle", "path", path, "err", err)
			continue
		}
		if st, err := os.Stat(path); err == nil {
			m.SizeBytes = st.Size()
		}
		r.manifests = append(r.manifests, m)
	}
	return nil
}

// readManifest extracts manifest.json (always the first entry) from a
// bundle on disk.
func readManifest(path string) (Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return Manifest{}, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return Manifest{}, err
	}
	defer zr.Close()
	tr := tar.NewReader(zr)
	for {
		hdr, err := tr.Next()
		if err != nil {
			return Manifest{}, fmt.Errorf("no manifest.json in %s: %w", filepath.Base(path), err)
		}
		if hdr.Name != "manifest.json" {
			continue
		}
		var m Manifest
		if err := json.NewDecoder(io.LimitReader(tr, 1<<20)).Decode(&m); err != nil {
			return Manifest{}, err
		}
		return m, nil
	}
}

// renderLogs serializes the log ring as JSON lines, oldest first.
func renderLogs(recs []logRecord) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, rec := range recs {
		enc.Encode(struct {
			T     time.Time `json:"t"`
			Level string    `json:"level"`
			Line  string    `json:"line"`
		}{rec.t, rec.level.String(), rec.line})
	}
	return b.Bytes()
}

// renderSnapshots serializes the metric-snapshot ring, oldest first.
func renderSnapshots(snaps []metricSnapshot) []byte {
	type sample struct {
		Name   string            `json:"name"`
		Labels map[string]string `json:"labels,omitempty"`
		Kind   string            `json:"kind"`
		Value  float64           `json:"value"`
	}
	type snapshot struct {
		T       time.Time `json:"t"`
		Samples []sample  `json:"samples"`
	}
	out := make([]snapshot, 0, len(snaps))
	for _, sn := range snaps {
		ss := snapshot{T: sn.t, Samples: make([]sample, 0, len(sn.samples))}
		for _, sm := range sn.samples {
			var labels map[string]string
			if len(sm.Labels) > 0 {
				labels = make(map[string]string, len(sm.Labels))
				for _, l := range sm.Labels {
					labels[l.Key] = l.Value
				}
			}
			ss.Samples = append(ss.Samples, sample{Name: sm.Name, Labels: labels, Kind: sm.Kind, Value: sm.Value})
		}
		out = append(out, ss)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return nil
	}
	return data
}

// Redact returns a copy of cfg with values of secret-looking keys
// replaced, so bundles can be shared without leaking credentials.
func Redact(cfg map[string]string) map[string]string {
	out := make(map[string]string, len(cfg))
	for k, v := range cfg {
		if secretKey(k) && v != "" {
			out[k] = "[redacted]"
		} else {
			out[k] = v
		}
	}
	return out
}

// secretKey reports whether a config key looks like it holds a secret.
func secretKey(k string) bool {
	k = strings.ToLower(k)
	for _, marker := range []string{"key", "token", "secret", "password", "credential", "auth"} {
		if strings.Contains(k, marker) {
			return true
		}
	}
	return false
}

// sanitize maps a capture reason onto the id-safe alphabet.
func sanitize(s string) string {
	if s == "" {
		return "manual"
	}
	var b strings.Builder
	for _, c := range strings.ToLower(s) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
		if b.Len() >= 48 {
			break
		}
	}
	return strings.Trim(b.String(), "-")
}
