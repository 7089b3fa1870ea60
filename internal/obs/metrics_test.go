package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExpositionGolden locks the Prometheus text rendering: family and
// series ordering, counter/gauge/histogram layouts, callback families,
// and label-value escaping.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ion_requests_total", "Requests served.", L("route", "/api/jobs"), L("code", "200"))
	c.Inc()
	c.Add(2)
	// Same family, second series; getter must return the same instrument
	// for an identical label set.
	r.Counter("ion_requests_total", "Requests served.", L("route", "/metrics"), L("code", "200")).Inc()
	if got := r.Counter("ion_requests_total", "Requests served.", L("code", "200"), L("route", "/api/jobs")); got != c {
		t.Error("counter getter did not return the existing series for reordered labels")
	}

	g := r.Gauge("ion_queue_depth", "Queued jobs.")
	g.Set(4)

	h := r.Histogram("ion_stage_seconds", "Stage latency.", []float64{0.1, 1, 10}, L("stage", "extract"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(99)

	r.GaugeFunc("ion_busy_workers", "Busy workers.", func() float64 { return 3 })
	r.Counter("ion_escapes_total", `Tricky "help" text`+"\nsecond line",
		L("path", `C:\tmp`+"\n"), L("quote", `say "hi"`)).Inc()

	const want = `# HELP ion_busy_workers Busy workers.
# TYPE ion_busy_workers gauge
ion_busy_workers 3
# HELP ion_escapes_total Tricky "help" text\nsecond line
# TYPE ion_escapes_total counter
ion_escapes_total{path="C:\\tmp\n",quote="say \"hi\""} 1
# HELP ion_queue_depth Queued jobs.
# TYPE ion_queue_depth gauge
ion_queue_depth 4
# HELP ion_requests_total Requests served.
# TYPE ion_requests_total counter
ion_requests_total{code="200",route="/api/jobs"} 3
ion_requests_total{code="200",route="/metrics"} 1
# HELP ion_stage_seconds Stage latency.
# TYPE ion_stage_seconds histogram
ion_stage_seconds_bucket{stage="extract",le="0.1"} 1
ion_stage_seconds_bucket{stage="extract",le="1"} 3
ion_stage_seconds_bucket{stage="extract",le="10"} 3
ion_stage_seconds_bucket{stage="extract",le="+Inf"} 4
ion_stage_seconds_sum{stage="extract"} 100.05
ion_stage_seconds_count{stage="extract"} 4
`
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestExpositionOrderingDeterministic registers series in deliberately
// unsorted order and checks the rendered family stays sorted and byte-
// identical across renders — the property scrapers and golden tests
// rely on.
func TestExpositionOrderingDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, route := range []string{"zzz", "aaa", "mmm", "bbb"} {
		r.Counter("ion_order_total", "Ordering.", L("route", route)).Inc()
	}
	var first strings.Builder
	if _, err := r.WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	want := `ion_order_total{route="aaa"} 1
ion_order_total{route="bbb"} 1
ion_order_total{route="mmm"} 1
ion_order_total{route="zzz"} 1
`
	if !strings.HasSuffix(first.String(), want) {
		t.Errorf("series not in lexicographic order:\n%s", first.String())
	}
	for i := 0; i < 5; i++ {
		var again strings.Builder
		r.WriteTo(&again)
		if again.String() != first.String() {
			t.Fatalf("render %d differs from first render", i)
		}
	}
}

// TestGatherSnapshot locks the Gather flattening: deterministic order,
// kinds, histogram-derived samples, label escaping round-trip, and
// callback families.
func TestGatherSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("ion_b_total", "b", L("path", `C:\tmp`+"\n"), L("quote", `say "hi"`)).Add(3)
	r.Gauge("ion_a_depth", "a").Set(7)
	h := r.Histogram("ion_c_seconds", "c", []float64{1, 2, 4}, L("stage", "analyze"))
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	r.GaugeFunc("ion_d_busy", "d", func() float64 { return 2 })

	samples := r.Gather()
	var keys []string
	for _, s := range samples {
		keys = append(keys, s.SeriesKey()+" "+s.Kind)
	}
	want := []string{
		`ion_a_depth gauge`,
		`ion_b_total{path="C:\\tmp\n",quote="say \"hi\""} counter`,
		`ion_c_seconds_count{stage="analyze"} counter`,
		`ion_c_seconds_sum{stage="analyze"} counter`,
		`ion_c_seconds{quantile="0.5",stage="analyze"} gauge`,
		`ion_c_seconds{quantile="0.95",stage="analyze"} gauge`,
		`ion_c_seconds{quantile="0.99",stage="analyze"} gauge`,
		`ion_d_busy gauge`,
	}
	if len(keys) != len(want) {
		t.Fatalf("gathered %d samples %v, want %d", len(keys), keys, len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("sample %d = %q, want %q", i, keys[i], want[i])
		}
	}

	// Escaped label values decode back to the original strings.
	var escaped Sample
	for _, s := range samples {
		if s.Name == "ion_b_total" {
			escaped = s
		}
	}
	if len(escaped.Labels) != 2 || escaped.Labels[0].Value != "C:\\tmp\n" || escaped.Labels[1].Value != `say "hi"` {
		t.Errorf("escaping round-trip failed: %+v", escaped.Labels)
	}

	// Values: counter raw, histogram count/sum, quantile within bounds.
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.SeriesKey()] = s.Value
	}
	if byKey[`ion_c_seconds_count{stage="analyze"}`] != 3 {
		t.Errorf("_count = %v, want 3", byKey[`ion_c_seconds_count{stage="analyze"}`])
	}
	if byKey[`ion_c_seconds_sum{stage="analyze"}`] != 5 {
		t.Errorf("_sum = %v, want 5", byKey[`ion_c_seconds_sum{stage="analyze"}`])
	}
	if p95 := byKey[`ion_c_seconds{quantile="0.95",stage="analyze"}`]; p95 <= 0 || p95 > 4 {
		t.Errorf("p95 = %v, want in (0,4]", p95)
	}
}

func TestParseLabelKeyMalformed(t *testing.T) {
	// Unterminated values must not loop or panic; best-effort decode.
	for _, in := range []string{`{a="b}`, `{a=}`, `{}`, `{a="b",}`} {
		_ = parseLabelKey(in)
	}
	got := parseLabelKey(`{a="1",b="2"}`)
	if len(got) != 2 || got[0] != L("a", "1") || got[1] != L("b", "2") {
		t.Errorf("parseLabelKey = %v", got)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ion_llm_requests_total", "LLM calls.", L("backend", "expertsim")).Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `ion_llm_requests_total{backend="expertsim"} 1`) {
		t.Errorf("handler body missing counter:\n%s", rec.Body.String())
	}
}

func TestRedeclaredTypePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ion_x", "x")
	defer func() {
		if recover() == nil {
			t.Error("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("ion_x", "x")
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 5, 7, 7, 7} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got < 2 || got > 4 {
		t.Errorf("p50 = %v, want within (2,4]", got)
	}
	if got := h.Quantile(0.99); got < 4 || got > 8 {
		t.Errorf("p99 = %v, want within (4,8]", got)
	}
	var empty Histogram
	if got := (&empty).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}
