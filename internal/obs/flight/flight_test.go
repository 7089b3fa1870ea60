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
	"strings"
	"testing"
	"time"

	"ion/internal/obs"
)

func testTimeline(name string, seconds float64) obs.Timeline {
	start := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	return obs.Timeline{
		Trace: "job-" + name,
		Spans: []obs.SpanRecord{
			{ID: 1, Name: name, Start: start, Seconds: seconds},
			{ID: 2, Parent: 1, Name: "analyze", Start: start, Seconds: seconds / 2},
		},
	}
}

func newTestRecorder(t *testing.T, opts Options) *Recorder {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	r, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestCaptureBundleContents(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("ion_test_total", "test counter").Add(7)
	r := newTestRecorder(t, Options{
		Registry: reg,
		Config:   map[string]string{"addr": ":8080", "api_key": "sk-secret"},
	})
	r.SetAlertsFunc(func() any {
		return []map[string]string{{"rule": "JobFailureRatioHigh", "state": "firing"}}
	})

	log := slog.New(r.LogHandler(slog.NewTextHandler(io.Discard, nil)))
	log.Info("pipeline started", "trace", "job-abc")
	log.Error("llm call failed", "err", "boom")
	r.OfferTimeline(testTimeline("job", 3.5))
	r.Snapshot(time.Now())

	m, err := r.Capture("alert:JobFailureRatioHigh")
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if !strings.HasPrefix(m.ID, "inc-") || !strings.Contains(m.ID, "alert-jobfailureratiohigh") {
		t.Fatalf("unexpected bundle id %q", m.ID)
	}
	if m.LogRecords != 2 || m.SpanTimelines != 1 || m.MetricSnapshots != 1 {
		t.Fatalf("manifest counts = %d logs, %d spans, %d snapshots", m.LogRecords, m.SpanTimelines, m.MetricSnapshots)
	}

	files := readBundle(t, r, m.ID)
	for _, want := range []string{"manifest.json", "goroutines.txt", "heap.pprof", "logs.jsonl", "spans.json", "metrics.json", "alerts.json", "config.json"} {
		if _, ok := files[want]; !ok {
			t.Errorf("bundle missing %s (has %v)", want, m.Files)
		}
	}
	if _, ok := files["cpu.pprof"]; ok {
		t.Error("cpu.pprof present though CPUProfile was 0")
	}
	if got := string(files["goroutines.txt"]); !strings.Contains(got, "goroutine") {
		t.Errorf("goroutines.txt lacks stacks: %.120s", got)
	}
	if got := string(files["logs.jsonl"]); !strings.Contains(got, "llm call failed") || !strings.Contains(got, "err=boom") {
		t.Errorf("logs.jsonl missing captured record: %s", got)
	}
	if got := string(files["spans.json"]); !strings.Contains(got, "job-job") || !strings.Contains(got, "analyze") {
		t.Errorf("spans.json missing sampled timeline: %s", got)
	}
	if got := string(files["metrics.json"]); !strings.Contains(got, "ion_test_total") {
		t.Errorf("metrics.json missing gathered sample: %.200s", got)
	}
	if got := string(files["alerts.json"]); !strings.Contains(got, "JobFailureRatioHigh") {
		t.Errorf("alerts.json missing alert state: %s", got)
	}
	var cfg map[string]string
	if err := json.Unmarshal(files["config.json"], &cfg); err != nil {
		t.Fatalf("config.json: %v", err)
	}
	if cfg["api_key"] != "[redacted]" || cfg["addr"] != ":8080" {
		t.Errorf("config redaction wrong: %v", cfg)
	}
}

func TestCaptureRateLimitAndSingleflight(t *testing.T) {
	r := newTestRecorder(t, Options{})
	if _, err := r.Capture("first"); err != nil {
		t.Fatalf("first Capture: %v", err)
	}
	if _, err := r.Capture("second"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second Capture err = %v, want ErrRateLimited", err)
	}
	if got := len(r.List()); got != 1 {
		t.Fatalf("bundles = %d, want 1", got)
	}
	if got := r.suppressed.Value(); got != 1 {
		t.Fatalf("suppressed counter = %v, want 1", got)
	}
}

// TestFailedCaptureStartsNoCooldown: a capture that wrote no bundle
// does not rate-limit the next one.
func TestFailedCaptureStartsNoCooldown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "incidents")
	r := newTestRecorder(t, Options{Dir: dir})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Capture("vanished"); err == nil {
		t.Fatal("Capture into a removed directory succeeded")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := r.Capture("restored")
	if err != nil {
		t.Fatalf("Capture after the directory came back: %v", err)
	}
	if got := r.List(); len(got) != 1 || got[0].ID != m.ID {
		t.Fatalf("bundles = %v, want only %s", got, m.ID)
	}
}

// TestCaptureDisabledWithoutDir: a recorder without an incident
// directory could never write a bundle, so New refuses to build one.
func TestCaptureDisabledWithoutDir(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without a Dir succeeded")
	}
}

// resetCooldown forgets the last capture, so the next one is not
// rate-limited.
func resetCooldown(r *Recorder) {
	r.mu.Lock()
	r.last = time.Time{}
	r.mu.Unlock()
}

func TestRetentionByCountAndBytes(t *testing.T) {
	r := newTestRecorder(t, Options{MaxBundles: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		resetCooldown(r)
		m, err := r.Capture("n" + string(rune('a'+i)))
		if err != nil {
			t.Fatalf("Capture %d: %v", i, err)
		}
		ids = append(ids, m.ID)
		time.Sleep(2 * time.Millisecond) // distinct timestamps => distinct ids
	}
	list := r.List()
	if len(list) != 2 {
		t.Fatalf("retained %d bundles, want 2", len(list))
	}
	if list[0].ID != ids[3] || list[1].ID != ids[2] {
		t.Fatalf("retained %v, want newest two of %v", []string{list[0].ID, list[1].ID}, ids)
	}
	for _, old := range ids[:2] {
		if _, err := os.Stat(filepath.Join(r.opts.Dir, old+".tar.gz")); !os.IsNotExist(err) {
			t.Errorf("expired bundle %s still on disk (err=%v)", old, err)
		}
	}

	// Byte-bound retention: a bundle booked at the whole byte bound
	// leaves room for no other, so the next capture expires it.
	r2 := newTestRecorder(t, Options{})
	m1, err := r2.Capture("one")
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	r2.mu.Lock()
	r2.manifests[0].SizeBytes = maxBundleBytes
	r2.mu.Unlock()
	resetCooldown(r2)
	time.Sleep(2 * time.Millisecond)
	m2, err := r2.Capture("two")
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if list := r2.List(); len(list) != 1 || list[0].ID != m2.ID {
		t.Fatalf("byte retention kept %v, want just %s", list, m2.ID)
	}
	if _, err := os.Stat(filepath.Join(r2.opts.Dir, m1.ID+".tar.gz")); !os.IsNotExist(err) {
		t.Errorf("expired bundle %s still on disk (err=%v)", m1.ID, err)
	}
}

func TestReindexAfterRestart(t *testing.T) {
	dir := t.TempDir()
	r := newTestRecorder(t, Options{Dir: dir})
	m, err := r.Capture("before-restart")
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}

	r2 := newTestRecorder(t, Options{Dir: dir})
	list := r2.List()
	if len(list) != 1 || list[0].ID != m.ID || list[0].Reason != "before-restart" {
		t.Fatalf("reindexed list = %+v, want the pre-restart bundle", list)
	}
	rc, size, err := r2.Open(m.ID)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer rc.Close()
	if size <= 0 {
		t.Fatalf("size = %d", size)
	}
}

func TestOpenRejectsUnknownID(t *testing.T) {
	r := newTestRecorder(t, Options{})
	for _, id := range []string{"nope", "../../etc/passwd", "inc-x/../../secret"} {
		if _, _, err := r.Open(id); err == nil {
			t.Errorf("Open(%q) succeeded, want error", id)
		}
	}
}

func TestLogRingWrapsAndKeepsBelowSinkLevel(t *testing.T) {
	r := newTestRecorder(t, Options{})
	sink := slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})
	log := slog.New(r.LogHandler(sink))
	for i := 0; i <= maxLogRecords; i++ {
		log.Debug("debug line", "i", i)
	}
	recs := r.logs.snapshot()
	if len(recs) != maxLogRecords {
		t.Fatalf("ring holds %d, want %d", len(recs), maxLogRecords)
	}
	if first, last := recs[0].line, recs[maxLogRecords-1].line; first != "debug line i=1" || last != fmt.Sprintf("debug line i=%d", maxLogRecords) {
		t.Fatalf("ring contents wrong: %q .. %q", first, last)
	}
}

func TestLogTeeWithAttrsAndGroups(t *testing.T) {
	r := newTestRecorder(t, Options{})
	log := slog.New(r.LogHandler(nil)).With("job", "j1").WithGroup("http").With("route", "/api")
	log.Info("served", "code", 200)
	recs := r.logs.snapshot()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	want := "served job=j1 http.route=/api http.code=200"
	if recs[0].line != want {
		t.Fatalf("line = %q, want %q", recs[0].line, want)
	}
}

func TestSpanSamplerKeepsSlowest(t *testing.T) {
	s := newSpanSampler(3, 2)
	for i, sec := range []float64{1, 5, 2, 9, 3, 0.5, 7} {
		tl := testTimeline("analyze", sec)
		tl.Trace = string(rune('a' + i))
		s.Offer(tl)
	}
	snap := s.snapshot()
	got := snap["analyze"]
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	if got[0].Seconds != 9 || got[1].Seconds != 7 || got[2].Seconds != 5 {
		t.Fatalf("retained %v, want slowest three (9,7,5)", []float64{got[0].Seconds, got[1].Seconds, got[2].Seconds})
	}

	// maxOps bound: a third distinct operation is dropped.
	s.Offer(testTimeline("other", 1))
	s.Offer(testTimeline("third", 1))
	if _, ok := s.snapshot()["third"]; ok {
		t.Error("third op retained despite maxOps=2")
	}
	if s.dropped != 1 {
		t.Errorf("dropped = %d, want 1", s.dropped)
	}
	// Timelines with no root span are ignored.
	s.Offer(obs.Timeline{Spans: []obs.SpanRecord{{ID: 2, Parent: 1, Name: "orphan"}}})
	if s.count() != 4 {
		t.Errorf("count = %d, want 4", s.count())
	}
}

func TestLogTeeAllocsPerRecord(t *testing.T) {
	r := newTestRecorder(t, Options{})
	h := r.LogHandler(nil)
	rec := slog.NewRecord(time.Now(), slog.LevelInfo, "job finished", 0)
	rec.AddAttrs(slog.String("job", "j-123"), slog.Int("attempts", 2), slog.Float64("seconds", 1.25))
	ctx := t.Context()
	h.Handle(ctx, rec) // warm the line pool
	allocs := testing.AllocsPerRun(1000, func() {
		h.Handle(ctx, rec)
	})
	if allocs > 1 {
		t.Fatalf("log tee allocates %.1f per record, want <= 1", allocs)
	}
}

func TestSpanSamplerAllocsOnRejection(t *testing.T) {
	s := newSpanSampler(2, 4)
	for _, sec := range []float64{10, 20} {
		s.Offer(testTimeline("analyze", sec))
	}
	fast := testTimeline("analyze", 0.001) // below the floor: always rejected
	allocs := testing.AllocsPerRun(1000, func() {
		s.Offer(fast)
	})
	if allocs > 1 {
		t.Fatalf("sampler rejection allocates %.1f per offer, want <= 1", allocs)
	}
}

func TestSnapshotRingWraps(t *testing.T) {
	r := newTestRecorder(t, Options{})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i := 0; i <= maxSnapshots; i++ {
		r.Snapshot(base.Add(time.Duration(i) * time.Second))
	}
	snaps := r.snapshotRing()
	if len(snaps) != maxSnapshots {
		t.Fatalf("snapshots = %d, want %d", len(snaps), maxSnapshots)
	}
	if !snaps[0].t.Equal(base.Add(time.Second)) || !snaps[maxSnapshots-1].t.Equal(base.Add(maxSnapshots*time.Second)) {
		t.Fatalf("snapshot window wrong: %v .. %v", snaps[0].t, snaps[maxSnapshots-1].t)
	}
}

func TestStartStop(t *testing.T) {
	r := newTestRecorder(t, Options{})
	r.Start() // snapshots once at start, then every snapshotInterval
	r.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(r.snapshotRing()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(r.snapshotRing()) == 0 {
		t.Fatal("snapshot loop never ticked")
	}
	r.Stop()
	r.Stop() // idempotent
}

func TestSanitize(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"alert:JobFailureRatioHigh", "alert-jobfailureratiohigh"},
		{"", "manual"},
		{"--weird??", "weird"},
		{strings.Repeat("x", 100), strings.Repeat("x", 48)},
	} {
		if got := sanitize(tc.in); got != tc.want {
			t.Errorf("sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// readBundle downloads and untars a bundle into name->contents.
func readBundle(t *testing.T, r *Recorder, id string) map[string][]byte {
	t.Helper()
	rc, _, err := r.Open(id)
	if err != nil {
		t.Fatalf("Open(%s): %v", id, err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
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
			t.Fatalf("bundle is not tar: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("reading %s: %v", hdr.Name, err)
		}
		files[hdr.Name] = body
	}
	return files
}
