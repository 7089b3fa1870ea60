package webui

import (
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/obs"
	"ion/internal/obs/prof"
	"ion/internal/obs/series"
)

// profServer builds a paused jobs stack with a continuous profiler
// wired in. The profiler loop is not started; tests inject windows via
// AddWindow to control time.
func profServer(t *testing.T) (*httptest.Server, *prof.Profiler, *series.Store) {
	t.Helper()
	reg := obs.NewRegistry()
	client := llm.Instrument(llm.Client(expertsim.New()), reg)
	svc, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Client: client, Obs: reg, Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := prof.OpenStore(prof.StoreOptions{Path: filepath.Join(t.TempDir(), "windows.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.New(prof.Options{Store: st, Registry: reg, Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	store := series.New(reg, series.Options{Interval: time.Second, Rules: series.DefaultRules()})
	js, err := NewJobServer(client, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(js.WithObs(reg, obs.NopLogger()).WithSeries(store).WithProf(p).Handler())
	t.Cleanup(func() {
		srv.Close()
		st.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return srv, p, store
}

// webTestWindow is a decoded CPU window with stacks, as the profiler
// would store it.
func webTestWindow(n int, end time.Time) prof.Window {
	return prof.Window{
		ID:    fmt.Sprintf("w-cpu-%d", n),
		Kind:  prof.KindCPU,
		Start: end.Add(-10 * time.Second),
		End:   end,
		Unit:  "nanoseconds",
		Total: 1000,
		Functions: []prof.FuncStat{
			{Name: "ion.ParseText", Flat: 700, Cum: 900, FlatShare: 0.7, CumShare: 0.9},
			{Name: "ion.Serve", Flat: 300, Cum: 1000, FlatShare: 0.3, CumShare: 1.0},
		},
		Stacks: []prof.Stack{
			{Frames: []string{"ion.Serve", "ion.ParseText"}, Value: 700},
			{Frames: []string{"ion.Serve"}, Value: 300},
		},
		KeptValue: 1000,
	}
}

func TestProfWindowsAndFlamegraphAPI(t *testing.T) {
	srv, p, _ := profServer(t)
	now := time.Now()
	for i := 0; i < 3; i++ {
		if err := p.AddWindow(webTestWindow(i, now.Add(time.Duration(i-3)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}

	var wr profWindowsResponse
	if code := getJSON(t, srv.URL+"/api/prof/windows", &wr); code != http.StatusOK {
		t.Fatalf("/api/prof/windows status = %d", code)
	}
	if len(wr.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(wr.Windows))
	}
	if wr.Windows[0].ID != "w-cpu-2" {
		t.Fatalf("newest first expected, got %s", wr.Windows[0].ID)
	}
	if wr.Windows[0].Stacks != nil {
		t.Fatal("list response should elide folded stacks")
	}
	if len(wr.Windows[0].Functions) != 2 || wr.Windows[0].Functions[0].Name != "ion.ParseText" {
		t.Fatalf("function table lost: %+v", wr.Windows[0].Functions)
	}
	var raw map[string]any
	getJSON(t, srv.URL+"/api/prof/windows", &raw)
	if _, ok := raw["hot_functions"]; ok {
		t.Fatal("/api/prof/windows still serves hot_functions")
	}
	if wr.Interval != "1m0s" || wr.LastWindow.IsZero() {
		t.Fatalf("interval = %q, last window = %v", wr.Interval, wr.LastWindow)
	}

	// Limit and kind filters.
	if code := getJSON(t, srv.URL+"/api/prof/windows?kind=cpu&limit=1", &wr); code != http.StatusOK || len(wr.Windows) != 1 {
		t.Fatalf("limited query = %d with %d windows, want 200 with 1", code, len(wr.Windows))
	}
	if code := getJSON(t, srv.URL+"/api/prof/windows?kind=heap", &wr); code != http.StatusOK || len(wr.Windows) != 0 {
		t.Fatalf("heap filter = %d with %d windows, want 200 with 0", code, len(wr.Windows))
	}
	resp, _ := http.Get(srv.URL + "/api/prof/windows?limit=bogus")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", resp.StatusCode)
	}

	// Flamegraph by id, and the latest-CPU default.
	for _, url := range []string{
		srv.URL + "/api/prof/flamegraph?window=w-cpu-1",
		srv.URL + "/api/prof/flamegraph",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "image/svg+xml") {
			t.Fatalf("flamegraph content type = %q", ct)
		}
		dec := xml.NewDecoder(strings.NewReader(string(body)))
		for {
			if _, err := dec.Token(); err != nil {
				if err.Error() == "EOF" {
					break
				}
				t.Fatalf("flamegraph is not well-formed XML: %v", err)
			}
		}
		if !strings.Contains(string(body), "ion.ParseText") {
			t.Fatal("flamegraph missing the hot frame")
		}
	}
	resp, _ = http.Get(srv.URL + "/api/prof/flamegraph?window=nope")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown window status = %d, want 404", resp.StatusCode)
	}

	// With a profiler wired in there is still no profiling page: the
	// windows are served as JSON and flamegraphs only.
	resp, _ = http.Get(srv.URL + "/dashboard/profile")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/dashboard/profile status = %d, want 404", resp.StatusCode)
	}
}

// TestDashboardStalenessAndBuildInfo: the main dashboard shows the
// build identity and the scrape/profile watchdog lights.
func TestDashboardStalenessAndBuildInfo(t *testing.T) {
	srv, p, store := profServer(t)
	p.AddWindow(webTestWindow(0, time.Now()))
	store.Scrape(time.Now())

	resp, err := http.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	html := string(page)
	for _, want := range []string{
		obs.GetBuildInfo().Version,
		"scraped",
		"profile window",
		`<a href="/api/prof/flamegraph">CPU flamegraph</a>`,
		`<a href="/api/prof/windows">profile windows</a>`,
	} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// Fresh scrape and window: no amber.
	if strings.Contains(html, `class="stale"`) {
		t.Error("dashboard stale indicator lit despite fresh scrape and window")
	}

	// A window older than two intervals (10m on a 1m cadence) lights
	// the profile window's amber span.
	srv, p, store = profServer(t)
	p.AddWindow(webTestWindow(0, time.Now().Add(-10*time.Minute)))
	store.Scrape(time.Now())
	if page := getBody(t, srv.URL+"/dashboard"); !strings.Contains(page, `<span class="stale">profile window`) {
		t.Error("dashboard stale indicator dark for a 10m-old profile window")
	}
}

// TestProfDisabled404: without WithProf the profiling routes answer 404
// with a JSON error.
func TestProfDisabled404(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Paused: true})
	for _, path := range []string{"/api/prof/windows", "/api/prof/flamegraph"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without profiler = %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "profiler disabled") {
			t.Errorf("GET %s error body = %q", path, body)
		}
	}
}
