package series

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"ion/internal/obs"
)

// at returns a fixed base time plus a delta, so tests drive the scrape
// clock explicitly.
func at(d time.Duration) time.Time {
	return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC).Add(d)
}

func TestRingWraparound(t *testing.T) {
	m := &memSeries{kind: "gauge", pts: make([]Point, 4)}
	for i := 0; i < 10; i++ {
		m.push(Point{T: int64(i), V: float64(i)})
	}
	got := m.window(0, 1<<62)
	if len(got) != 4 {
		t.Fatalf("after 10 pushes into cap-4 ring, kept %d points, want 4", len(got))
	}
	for i, p := range got {
		if want := int64(6 + i); p.T != want {
			t.Errorf("point %d: T=%d, want %d (oldest-first, newest retained)", i, p.T, want)
		}
	}
	// Window narrowing: only the points inside [7, 8].
	if got := m.window(7, 8); len(got) != 2 || got[0].T != 7 || got[1].T != 8 {
		t.Errorf("window(7,8) = %v, want exactly T=7,8", got)
	}
}

func TestStoreScrapeGaugeAndWindowQuery(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("ion_test_depth", "d")
	st := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})

	for i := 0; i < 5; i++ {
		g.Set(float64(i))
		st.Scrape(at(time.Duration(i) * time.Second))
	}

	res := st.Query(Query{Name: "ion_test_depth"})
	if len(res) != 1 {
		t.Fatalf("query matched %d series, want 1", len(res))
	}
	if len(res[0].Points) != 5 || res[0].Points[4].V != 4 {
		t.Fatalf("points = %v, want 5 points ending at 4", res[0].Points)
	}
	if res[0].Kind != "gauge" {
		t.Errorf("kind = %q, want gauge", res[0].Kind)
	}

	// A window covering only the middle scrapes.
	res = st.Query(Query{Name: "ion_test_depth", From: at(time.Second), To: at(3 * time.Second)})
	if len(res) != 1 || len(res[0].Points) != 3 {
		t.Fatalf("windowed query = %+v, want 3 points", res)
	}

	// Unknown names and non-matching label filters match nothing.
	if res := st.Query(Query{Name: "ion_nope"}); res != nil {
		t.Errorf("unknown name matched %v", res)
	}
	if res := st.Query(Query{Name: "ion_test_depth", Labels: map[string]string{"x": "y"}}); res != nil {
		t.Errorf("bogus label filter matched %v", res)
	}
}

func TestCounterStoredAsRate(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("ion_test_total", "t")
	st := New(reg, Options{Interval: time.Second, Retention: time.Minute})

	c.Add(10)
	st.Scrape(at(0)) // primes the counter, no point yet
	if res := st.Query(Query{Name: "ion_test_total"}); res != nil {
		t.Fatalf("first scrape of a counter yielded points: %v", res)
	}

	c.Add(20) // +20 over 2s = 10/s
	st.Scrape(at(2 * time.Second))
	res := st.Query(Query{Name: "ion_test_total"})
	if len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("rate series = %+v, want one point", res)
	}
	if got := res[0].Points[0].V; got != 10 {
		t.Errorf("rate = %v, want 10/s", got)
	}

	// Steady counter → zero rate.
	st.Scrape(at(3 * time.Second))
	res = st.Query(Query{Name: "ion_test_total"})
	if got := res[0].Points[1].V; got != 0 {
		t.Errorf("steady-state rate = %v, want 0", got)
	}
}

func TestCounterReset(t *testing.T) {
	// Simulate a reset with a callback counter the test controls.
	reg := obs.NewRegistry()
	val := 100.0
	reg.CounterFunc("ion_resetting_total", "t", func() float64 { return val })
	st := New(reg, Options{Interval: time.Second, Retention: time.Minute})

	st.Scrape(at(0))
	val = 5 // process restarted: cumulative value fell
	st.Scrape(at(time.Second))
	res := st.Query(Query{Name: "ion_resetting_total"})
	if len(res) != 1 || len(res[0].Points) != 1 {
		t.Fatalf("series = %+v, want one point", res)
	}
	if got := res[0].Points[0].V; got != 5 {
		t.Errorf("post-reset rate = %v, want 5 (rate from zero)", got)
	}
}

func TestHistogramQuantileSeries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("ion_test_seconds", "t", []float64{1, 2, 4}, obs.L("stage", "analyze"))
	for _, v := range []float64{0.5, 1.5, 1.5, 3} {
		h.Observe(v)
	}
	st := New(reg, Options{Interval: time.Second, Retention: time.Minute})
	st.Scrape(at(0))
	st.Scrape(at(time.Second))

	res := st.Query(Query{Name: "ion_test_seconds",
		Labels: map[string]string{"stage": "analyze", "quantile": "0.95"}})
	if len(res) != 1 || len(res[0].Points) != 2 {
		t.Fatalf("p95 series = %+v, want one series with two points", res)
	}
	if v := res[0].Points[0].V; v <= 0 {
		t.Errorf("p95 = %v, want > 0", v)
	}
	// The flattened _count counter is rate-converted.
	res = st.Query(Query{Name: "ion_test_seconds_count"})
	if len(res) != 1 || res[0].Points[0].V != 0 {
		t.Fatalf("_count rate series = %+v, want one zero-rate point", res)
	}
}

func TestDownsample(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{T: int64(i * 1000), V: float64(i)}
	}
	got := downsample(pts, 5*time.Second, "avg")
	if len(got) != 2 {
		t.Fatalf("downsample to 5s buckets = %d points, want 2", len(got))
	}
	if got[0].V != 2 || got[1].V != 7 {
		t.Errorf("bucket means = %v,%v, want 2,7", got[0].V, got[1].V)
	}
	if mx := downsample(pts, 5*time.Second, "max"); mx[0].V != 4 || mx[1].V != 9 {
		t.Errorf("bucket maxes = %v,%v, want 4,9", mx[0].V, mx[1].V)
	}
}

func TestRetentionBoundsMemory(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("ion_test_g", "g")
	// 10s retention at 1s cadence → 10-point rings.
	st := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	for i := 0; i < 100; i++ {
		g.Set(float64(i))
		st.Scrape(at(time.Duration(i) * time.Second))
	}
	res := st.Query(Query{Name: "ion_test_g"})
	if len(res[0].Points) != 10 {
		t.Fatalf("retained %d points, want 10 (retention/interval)", len(res[0].Points))
	}
	if first := res[0].Points[0].V; first != 90 {
		t.Errorf("oldest retained value = %v, want 90", first)
	}
}

func TestMaxSeriesBound(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i <= maxSeries; i++ {
		reg.Gauge("ion_test_g", "g", obs.L("i", fmt.Sprint(i))).Set(1)
	}
	st := New(reg, Options{Interval: time.Second, Retention: time.Minute})
	st.Scrape(at(0))
	if n := st.SeriesCount(); n != maxSeries {
		t.Errorf("series count = %d, want capped at %d", n, maxSeries)
	}
	if st.Dropped() == 0 {
		t.Error("dropped counter did not record rejected series")
	}
}

func TestPointMarshalJSON(t *testing.T) {
	b, err := json.Marshal([]Point{{T: 1000, V: 2.5}, {T: 2000, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[[1000,2.5],[2000,3]]" {
		t.Errorf("points marshaled as %s", b)
	}
	var back []Point
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != (Point{T: 1000, V: 2.5}) || back[1] != (Point{T: 2000, V: 3}) {
		t.Errorf("round-trip = %+v", back)
	}
}

// TestScrapeQueryRace exercises concurrent scraping, registry updates,
// and queries under -race.
func TestScrapeQueryRace(t *testing.T) {
	reg := obs.NewRegistry()
	st := New(reg, Options{Interval: 100 * time.Millisecond, Retention: 10 * time.Second,
		Rules: []Rule{{Name: "r", Expr: "ion_race_g > 100", For: Duration(time.Second)}}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Gauge("ion_race_g", "g", obs.L("w", fmt.Sprint(w))).Set(float64(i))
				reg.Counter("ion_race_total", "t", obs.L("w", fmt.Sprint(w))).Inc()
				reg.Histogram("ion_race_seconds", "h", nil, obs.L("w", fmt.Sprint(w))).Observe(0.01)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			st.Scrape(at(time.Duration(i) * time.Second))
			st.Query(Query{Name: "ion_race_g"})
			st.Latest("ion_race_total", nil)
			st.Alerts()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("ion_test_g", "g").Set(1)
	st := New(reg, Options{Interval: 10 * time.Millisecond, Retention: time.Second})
	st.Start()
	deadline := time.Now().Add(5 * time.Second)
	for st.SeriesCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scrape loop never ingested a series")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st.Stop()
	st.Stop() // idempotent

	// Stop without Start must not block either.
	st2 := New(obs.NewRegistry(), Options{})
	st2.Stop()
}

func TestQueryStepLargerThanRetention(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("ion_test_depth", "d")
	st := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	for i := 0; i < 5; i++ {
		g.Set(float64(i))
		st.Scrape(at(time.Duration(i) * time.Second))
	}

	// A step wider than the retention window would collapse every
	// retained point into one bucket masquerading as a trend; the query
	// must come back empty instead.
	res := st.Query(Query{Name: "ion_test_depth", Step: time.Minute})
	if len(res) != 0 {
		t.Fatalf("step > retention returned %d series (%v), want none", len(res), res)
	}
	// A step inside the retention window still downsamples normally.
	res = st.Query(Query{Name: "ion_test_depth", Step: 2 * time.Second, Agg: "max"})
	if len(res) != 1 || len(res[0].Points) == 0 {
		t.Fatalf("in-retention step query = %v, want points", res)
	}
}

func TestQueryWindowEntirelyInFuture(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("ion_test_depth", "d")
	st := New(reg, Options{Interval: time.Second, Retention: 10 * time.Second})
	for i := 0; i < 5; i++ {
		g.Set(float64(i))
		st.Scrape(at(time.Duration(i) * time.Second))
	}

	// All retained points predate the window: no results, no panic.
	res := st.Query(Query{Name: "ion_test_depth", From: at(time.Hour), To: at(2 * time.Hour)})
	if len(res) != 0 {
		t.Fatalf("future window returned %d series (%v), want none", len(res), res)
	}
	// Same with a downsampling step, which exercises the empty-input
	// path of downsample.
	res = st.Query(Query{Name: "ion_test_depth", From: at(time.Hour), To: at(2 * time.Hour), Step: 2 * time.Second})
	if len(res) != 0 {
		t.Fatalf("future downsampled window returned %d series (%v), want none", len(res), res)
	}
}
