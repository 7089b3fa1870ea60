package webui

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/obs"
)

// TestMetricsReflectSubmittedJob drives a job through the service and
// checks that GET /metrics reports it: LLM request/token counters from
// the instrumented client, per-stage latency histograms from the job's
// span timeline, jobs counters/gauges from the service, and HTTP
// middleware counters from the requests this test itself made. It then
// fetches the persisted span timeline over the API.
func TestMetricsReflectSubmittedJob(t *testing.T) {
	reg := obs.NewRegistry()
	client := llm.Instrument(expertsim.New(), reg)
	svc, err := jobs.Open(jobs.Config{
		Dir:     t.TempDir(),
		Client:  client,
		Workers: 1,
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJobServer(client, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(js.WithObs(reg, obs.NopLogger()).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})

	sr, status := postTrace(t, srv.URL+"/api/jobs?name=ior-hard", workloadTrace(t))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := svc.Wait(ctx, sr.Job.ID)
	if err != nil || job.State != jobs.StateDone {
		t.Fatalf("job did not complete: %v (state %s, error %q)", err, job.State, job.Error)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	exposition := string(body)
	for _, want := range []string{
		`ion_llm_requests_total{backend="expertsim",outcome="ok"}`,
		`ion_llm_tokens_total{backend="expertsim",kind="prompt"}`,
		`ion_llm_tokens_total{backend="expertsim",kind="completion"}`,
		`ion_pipeline_stage_seconds_bucket{stage="diagnose",le="+Inf"}`,
		`ion_pipeline_stage_seconds_bucket{stage="extract",le="+Inf"}`,
		`ion_pipeline_stage_seconds_bucket{stage="summarize",le="+Inf"}`,
		"ion_jobs_queue_depth 0",
		"ion_jobs_submitted_total 1",
		"ion_jobs_completed_total 1",
		`ion_http_requests_total{code="202",route="POST /api/jobs"} 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The persisted span timeline is served per job, and its root job
	// span parents the pipeline stages.
	var tl obs.Timeline
	if code := getJSON(t, srv.URL+"/api/jobs/"+job.ID+"/trace", &tl); code != http.StatusOK {
		t.Fatalf("GET /api/jobs/{id}/trace status = %d", code)
	}
	if tl.Trace != job.ID || len(tl.Spans) == 0 {
		t.Fatalf("timeline = %+v, want spans for job %s", tl, job.ID)
	}
	names := map[string]bool{}
	for _, s := range tl.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"job", "parse", "attempt", "extract", "diagnose", "llm_complete", "summarize"} {
		if !names[want] {
			t.Errorf("timeline missing %q span (have %v)", want, names)
		}
	}
	// The submission's parse is adopted under the job span and starts
	// before it, so the root is found by parent, not by position.
	roots, rootName := tl.Roots(), ""
	for _, s := range tl.Spans {
		if len(roots) == 1 && s.ID == roots[0] {
			rootName = s.Name
		}
	}
	if len(roots) != 1 || rootName != "job" {
		t.Errorf("timeline root = %v %q, want a single job span", roots, rootName)
	}

	// A job that never ran has no timeline: 409, mirroring /report.
	svcPaused, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Client: client, Paused: true})
	if err != nil {
		t.Fatal(err)
	}
	jsPaused, err := NewJobServer(client, svcPaused)
	if err != nil {
		t.Fatal(err)
	}
	srvPaused := httptest.NewServer(jsPaused.Handler())
	t.Cleanup(func() {
		srvPaused.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svcPaused.Close(ctx)
	})
	srQ, _ := postTrace(t, srvPaused.URL+"/api/jobs", workloadTrace(t))
	if code := getJSON(t, srvPaused.URL+"/api/jobs/"+srQ.Job.ID+"/trace", new(obs.Timeline)); code != http.StatusConflict {
		t.Errorf("trace for queued job status = %d, want 409", code)
	}
}

// TestStatsDerivedRatesOnTheWire checks that /api/stats still carries
// the derived rates now that they are methods, computed from the same
// counters the HTML page and /metrics read.
func TestStatsDerivedRatesOnTheWire(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Paused: true})
	trace := workloadTrace(t)
	if _, code := postTrace(t, srv.URL+"/api/jobs", trace); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if _, code := postTrace(t, srv.URL+"/api/jobs", trace); code != http.StatusOK {
		t.Fatalf("dedup submit status = %d", code)
	}
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if rate, ok := wire["cache_hit_rate"].(float64); !ok || rate != 0.5 {
		t.Errorf("cache_hit_rate on the wire = %v, want 0.5", wire["cache_hit_rate"])
	}
	if _, ok := wire["utilization"]; !ok {
		t.Error("utilization missing from /api/stats")
	}

	// The HTML index renders the same rate and the recovered counter.
	page, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(page.Body)
	page.Body.Close()
	for _, want := range []string{"50% hit rate", "recovered 0"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("index page missing %q", want)
		}
	}
}
