package webui

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/obs"
	"ion/internal/obs/flight"
	"ion/internal/obs/series"
)

// flightServer builds the full incident-capture stack the way ionserve
// wires it: one registry, a flight recorder whose log tee is the root
// logger, job timelines feeding the tail-sampler, and the series
// engine's firing transitions triggering Capture. The capture runs
// synchronously inside the transition callback so tests stay
// deterministic; the recorder's own locking is what production relies
// on too.
func flightServer(t *testing.T, client llm.Client, cfg jobs.Config, rules []series.Rule) (*httptest.Server, *jobs.Service, *series.Store, *flight.Recorder, *slog.Logger) {
	t.Helper()
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	if client == nil {
		client = expertsim.New()
	}
	client = llm.Instrument(client, reg)

	rec, err := flight.New(flight.Options{
		Dir:      t.TempDir(),
		Registry: reg,
		Config:   map[string]string{"addr": "127.0.0.1:0", "api_key": "sk-test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(rec.LogHandler(slog.NewTextHandler(io.Discard, nil)))

	cfg.Dir = t.TempDir()
	cfg.Client = client
	cfg.Obs = reg
	cfg.Logger = logger
	cfg.OnTimeline = rec.OfferTimeline
	svc, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var store *series.Store
	store = series.New(reg, series.Options{
		Interval:  time.Second,
		Retention: 10 * time.Minute,
		Rules:     rules,
		Logger:    logger,
		OnTransition: func(tr series.RuleTransition) {
			if tr.To == series.StateFiring {
				rec.Capture("alert:" + tr.Rule)
			}
		},
	})
	rec.SetAlertsFunc(func() any { return store.Alerts() })

	js, err := NewJobServer(client, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(js.WithObs(reg, logger).WithSeries(store).WithFlight(rec).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return srv, svc, store, rec, logger
}

// TestIncidentCaptureLoop is the acceptance path for the flight
// recorder: a failing-LLM job drives the failure-ratio rule to firing,
// the transition auto-captures an incident, /api/incidents lists it,
// and the downloaded bundle holds the goroutine dump, a metric
// snapshot, the failing job's span tree, and the pre-incident log
// ring. A second rule firing in the same breath is rate-limited to the
// one bundle.
func TestIncidentCaptureLoop(t *testing.T) {
	// Two rules over the same breach: both fire on the sustained scrape,
	// so the second transition exercises the capture rate limiter.
	rules := series.MustRules([]byte(`[
	  {"name":"JobFailureRatioHigh","expr":"ion_jobs_failure_ratio > 0.1","for":"2s","severity":"page"},
	  {"name":"JobFailureRatioAwful","expr":"ion_jobs_failure_ratio > 0.5","for":"2s","severity":"page"}
	]`))
	srv, svc, store, rec, logger := flightServer(t, failingClient{}, jobs.Config{
		Workers:     1,
		MaxAttempts: 1,
	}, rules)

	sr, status := postTrace(t, srv.URL+"/api/jobs?name=doomed", workloadTrace(t))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := svc.Wait(ctx, sr.Job.ID)
	if err != nil || job.State != jobs.StateFailed {
		t.Fatalf("job = %+v err = %v, want failed", job, err)
	}
	logger.Warn("pre-incident marker", "job", job.ID)
	rec.Snapshot(time.Now())

	// Breach → pending; sustained past For → both rules fire; the first
	// transition captures, the second is rate-limited away.
	now := time.Now()
	store.Scrape(now.Add(-5 * time.Second))
	store.Scrape(now)

	var ir incidentsResponse
	if code := getJSON(t, srv.URL+"/api/incidents", &ir); code != http.StatusOK {
		t.Fatalf("/api/incidents status = %d", code)
	}
	if len(ir.Incidents) != 1 {
		t.Fatalf("incidents = %+v, want exactly one (second firing rate-limited)", ir.Incidents)
	}
	m := ir.Incidents[0]
	if !strings.HasPrefix(m.Reason, "alert:JobFailureRatio") {
		t.Errorf("incident reason = %q, want the firing rule", m.Reason)
	}
	if m.LogRecords == 0 || m.SpanTimelines == 0 || m.MetricSnapshots == 0 {
		t.Errorf("manifest rings empty: %+v", m)
	}

	// An immediate manual capture is rate-limited too, with a JSON body.
	resp, err := http.Post(srv.URL+"/api/debug/capture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(apiErr.Error, "rate-limited") {
		t.Errorf("debug capture during cooldown = %d %q, want 429 rate-limited", resp.StatusCode, apiErr.Error)
	}
	if got := resp.Header.Get("Retry-After"); got != "60" {
		t.Errorf("debug capture during cooldown: Retry-After %q, want the 60 s cooldown", got)
	}

	// Download the bundle (plain: no Accept-Encoding) and inspect it.
	files := downloadBundle(t, srv.URL+"/api/incidents/"+m.ID+"/download", false)
	if got := string(files["goroutines.txt"]); !strings.Contains(got, "goroutine") {
		t.Error("bundle goroutines.txt has no stacks")
	}
	if got := string(files["metrics.json"]); !strings.Contains(got, "ion_jobs_failure_ratio") {
		t.Error("bundle metrics.json missing the breached metric")
	}
	if got := string(files["spans.json"]); !strings.Contains(got, job.ID) || !strings.Contains(got, `"job"`) {
		t.Error("bundle spans.json missing the failing job's span tree")
	}
	if got := string(files["logs.jsonl"]); !strings.Contains(got, "pre-incident marker") || !strings.Contains(got, job.ID) {
		t.Error("bundle logs.jsonl missing the pre-incident log ring")
	}
	if got := string(files["alerts.json"]); !strings.Contains(got, "JobFailureRatioHigh") {
		t.Error("bundle alerts.json missing the rule state")
	}
	var cfg map[string]string
	json.Unmarshal(files["config.json"], &cfg)
	if cfg["api_key"] != "[redacted]" {
		t.Errorf("bundle config.json not redacted: %v", cfg)
	}
	var manifest flight.Manifest
	if err := json.Unmarshal(files["manifest.json"], &manifest); err != nil || manifest.ID != m.ID {
		t.Errorf("bundle manifest = %+v err = %v", manifest, err)
	}

	// The dashboard links the firing rule to its bundle.
	dresp, err := http.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if !strings.Contains(string(page), "/api/incidents/"+m.ID+"/download") {
		t.Error("dashboard alert table does not link the incident bundle")
	}

	// The capture counters tell the same story: one captured, the
	// suppressed counter covers the rate-limited firing and the 429.
	var metrics bytes.Buffer
	mresp, _ := http.Get(srv.URL + "/metrics")
	io.Copy(&metrics, mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(metrics.String(), "ion_incidents_captured_total 1") {
		t.Error("/metrics missing ion_incidents_captured_total 1")
	}
	if !strings.Contains(metrics.String(), "ion_incidents_suppressed_total 2") {
		t.Error("/metrics missing ion_incidents_suppressed_total 2")
	}
}

// TestQueryExemplarsNameTheSlowJob proves the "which job was the p99"
// path: after a real job, the stage-latency quantile query carries
// exemplars whose trace id is the job id.
func TestQueryExemplarsNameTheSlowJob(t *testing.T) {
	srv, svc, store := observedServer(t, nil, jobs.Config{Workers: 1}, nil)

	sr, status := postTrace(t, srv.URL+"/api/jobs?name=ior-hard", workloadTrace(t))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := svc.Wait(ctx, sr.Job.ID)
	if err != nil || job.State != jobs.StateDone {
		t.Fatalf("job = %+v err = %v", job, err)
	}
	store.Scrape(time.Now())

	var qr queryResponse
	if code := getJSON(t, srv.URL+"/api/metrics/query?name=ion_pipeline_stage_seconds&l.stage=analyze&l.quantile=0.95", &qr); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if len(qr.Exemplars) == 0 {
		t.Fatal("quantile query returned no exemplars")
	}
	found := false
	for _, se := range qr.Exemplars {
		for _, l := range se.Labels {
			if l.Key == "stage" && l.Value != "analyze" {
				t.Errorf("exemplar series leaked through the label filter: %+v", se.Labels)
			}
		}
		for _, ex := range se.Exemplars {
			if ex.TraceID == job.ID {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no exemplar names job %s: %+v", job.ID, qr.Exemplars)
	}

	// HTTP latency histograms carry request-id exemplars from the
	// middleware.
	store.Scrape(time.Now())
	if code := getJSON(t, srv.URL+"/api/metrics/query?name=ion_http_request_seconds", &qr); code != http.StatusOK {
		t.Fatalf("http latency query status = %d", code)
	}
	if len(qr.Exemplars) == 0 || !strings.HasPrefix(qr.Exemplars[0].Exemplars[0].TraceID, "req-") {
		t.Errorf("http latency exemplars = %+v, want req-N trace ids", qr.Exemplars)
	}
}

// TestMetricsGzip round-trips /metrics through Content-Encoding: gzip
// and checks a client without gzip support still gets plain text.
func TestMetricsGzip(t *testing.T) {
	srv, _, _ := observedServer(t, nil, jobs.Config{Paused: true}, nil)

	plain := get(t, srv.URL+"/metrics", "")
	if plain.header.Get("Content-Encoding") == "gzip" {
		t.Fatal("plain request got gzip")
	}
	if !strings.Contains(string(plain.body), "# TYPE") {
		t.Fatal("plain /metrics unreadable")
	}

	zipped := get(t, srv.URL+"/metrics", "gzip")
	if zipped.header.Get("Content-Encoding") != "gzip" {
		t.Fatal("gzip-accepting request did not get gzip")
	}
	zr, err := gzip.NewReader(bytes.NewReader(zipped.body))
	if err != nil {
		t.Fatalf("body is not gzip: %v", err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if !strings.Contains(string(unzipped), "# TYPE ion_http_requests_total counter") {
		t.Errorf("gunzipped exposition missing families: %.200s", unzipped)
	}
	if len(zipped.body) >= len(unzipped) {
		t.Errorf("gzip did not shrink the exposition: %d -> %d bytes", len(unzipped), len(zipped.body))
	}
}

// TestIncidentDownloadGzip checks both download paths: gzip-accepting
// clients get the stored bytes verbatim as Content-Encoding: gzip over
// a tar stream; others get the .tar.gz file.
func TestIncidentDownloadGzip(t *testing.T) {
	srv, _, _, rec, _ := flightServer(t, nil, jobs.Config{Paused: true}, nil)
	m, err := rec.Capture("manual")
	if err != nil {
		t.Fatal(err)
	}
	url := srv.URL + "/api/incidents/" + m.ID + "/download"

	// Accept-Encoding: gzip → transparent decode yields the tar.
	resp := get(t, url, "gzip")
	if resp.header.Get("Content-Encoding") != "gzip" || resp.header.Get("Content-Type") != "application/x-tar" {
		t.Fatalf("gzip download headers = %v", resp.header)
	}
	zr, err := gzip.NewReader(bytes.NewReader(resp.body))
	if err != nil {
		t.Fatalf("download is not gzip: %v", err)
	}
	if hdr, err := tar.NewReader(zr).Next(); err != nil || hdr.Name != "manifest.json" {
		t.Fatalf("decoded download is not the bundle tar: %v %v", hdr, err)
	}

	// No Accept-Encoding → the .tar.gz as a file.
	plain := get(t, url, "")
	if ct := plain.header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("plain download Content-Type = %q", ct)
	}
	if !bytes.Equal(plain.body, resp.body) {
		t.Error("plain and gzip downloads differ; both should be the stored bytes")
	}

	files := downloadBundle(t, url, true)
	if _, ok := files["goroutines.txt"]; !ok {
		t.Error("bundle missing goroutines.txt")
	}
}

// TestImplicitStatus200 covers the middleware's implicit-200 case: the
// index handler never calls WriteHeader, and the counter must still
// label the request code=200.
func TestImplicitStatus200(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := jobs.Config{Paused: true, Dir: t.TempDir(), Client: expertsim.New(), Obs: reg}
	svc, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	}()
	js, err := NewJobServer(cfg.Client, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(js.WithObs(reg, obs.NopLogger()).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d", resp.StatusCode)
	}

	var expo strings.Builder
	reg.WriteTo(&expo)
	want := `ion_http_requests_total{code="200",route="GET /{$}"} 1`
	if !strings.Contains(expo.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, expo.String())
	}
}

// TestDashboardConcurrentWithScrapes renders /dashboard while the
// store scrapes concurrently; run under -race this proves the render
// path takes no unlocked reads of scrape state.
func TestDashboardConcurrentWithScrapes(t *testing.T) {
	srv, _, store := observedServer(t, nil, jobs.Config{Paused: true}, series.DefaultRules())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				store.Scrape(time.Now())
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Get(srv.URL + "/dashboard")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/dashboard = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestIncidentRoutesWithoutRecorder: without WithFlight the incident
// routes 404 with a JSON error body.
func TestIncidentRoutesWithoutRecorder(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Paused: true})
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/api/incidents"},
		{http.MethodGet, "/api/incidents/inc-x/download"},
		{http.MethodPost, "/api/debug/capture"},
	} {
		r, err := http.NewRequest(req.method, srv.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(body.Error, "-incident-dir") {
			t.Errorf("%s %s = %d %q, want 404 pointing at -incident-dir", req.method, req.path, resp.StatusCode, body.Error)
		}
	}
}

// rawResponse is a fetched body plus headers, with no transparent
// content decoding.
type rawResponse struct {
	header http.Header
	body   []byte
}

// get fetches a URL with an explicit Accept-Encoding (empty = none),
// disabling Go's transparent gzip so tests see the wire bytes.
func get(t *testing.T, url, acceptEncoding string) rawResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawResponse{header: resp.Header, body: body}
}

// downloadBundle fetches an incident download and untars it into
// name → contents. withGzipHeader controls the Accept-Encoding path.
func downloadBundle(t *testing.T, url string, withGzipHeader bool) map[string][]byte {
	t.Helper()
	enc := ""
	if withGzipHeader {
		enc = "gzip"
	}
	resp := get(t, url, enc)
	zr, err := gzip.NewReader(bytes.NewReader(resp.body))
	if err != nil {
		t.Fatalf("download is not gzip: %v", err)
	}
	tr := tar.NewReader(zr)
	files := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("download is not a tar.gz: %v", err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		files[hdr.Name] = body
	}
	return files
}
