package webui

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/ion"
	"ion/internal/jobs"
	"ion/internal/testutil"
)

func jobServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *jobs.Service) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Client == nil {
		cfg.Client = expertsim.New()
	}
	svc, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJobServer(cfg.Client, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(js.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return srv, svc
}

func workloadTrace(t *testing.T) []byte {
	t.Helper()
	log, err := testutil.Log("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postTrace(t *testing.T, url string, trace []byte) (submitResponse, int) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServiceEndToEnd drives the full async path over httptest: upload
// a generated workload trace, poll the job to completion, fetch the
// report, chat about it, and verify a second upload of the same bytes
// is a dedup cache hit reflected in /api/stats.
func TestServiceEndToEnd(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Workers: 2})
	trace := workloadTrace(t)

	sr, status := postTrace(t, srv.URL+"/api/jobs?name=ior-hard", trace)
	if status != http.StatusAccepted {
		t.Fatalf("POST /api/jobs status = %d", status)
	}
	if sr.Dedup || sr.Job.ID == "" || sr.Job.Trace != "ior-hard" {
		t.Fatalf("submit response = %+v", sr)
	}

	// Poll to completion like an HTTP client would.
	var job jobs.Job
	deadline := time.Now().Add(60 * time.Second)
	for {
		if code := getJSON(t, srv.URL+"/api/jobs/"+sr.Job.ID, &job); code != http.StatusOK {
			t.Fatalf("GET /api/jobs/{id} status = %d", code)
		}
		if job.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != jobs.StateDone {
		t.Fatalf("job state = %s (error %q)", job.State, job.Error)
	}

	var rep ion.Report
	if code := getJSON(t, srv.URL+"/api/jobs/"+job.ID+"/report", &rep); code != http.StatusOK {
		t.Fatalf("report status = %d", code)
	}
	if rep.Trace != "ior-hard" || len(rep.Diagnoses) == 0 {
		t.Errorf("report malformed: trace=%q diagnoses=%d", rep.Trace, len(rep.Diagnoses))
	}

	// The per-job page serves the diagnosis with the chat widget wired
	// to this job's ask endpoint.
	resp, err := http.Get(srv.URL + "/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job page status = %d", resp.StatusCode)
	}
	for _, want := range []string{"ION — I/O Navigator diagnosis", "chat-form", "/api/jobs/" + job.ID + "/ask"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("job page missing %q", want)
		}
	}

	// Chat against the job's report.
	body, _ := json.Marshal(map[string]string{"question": "why is the small I/O a problem?"})
	resp2, err := http.Post(srv.URL+"/api/jobs/"+job.ID+"/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ar askResponse
	if err := json.NewDecoder(resp2.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !strings.Contains(ar.Answer, "Small I/O") {
		t.Errorf("ask status=%d answer=%q", resp2.StatusCode, ar.Answer)
	}

	// Re-uploading identical bytes is a dedup cache hit…
	sr2, status2 := postTrace(t, srv.URL+"/api/jobs", trace)
	if status2 != http.StatusOK || !sr2.Dedup || sr2.Job.ID != job.ID {
		t.Errorf("dedup upload: status=%d dedup=%v id=%s want id=%s", status2, sr2.Dedup, sr2.Job.ID, job.ID)
	}
	// …reflected in /api/stats.
	var st jobs.Stats
	if code := getJSON(t, srv.URL+"/api/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.CacheHits != 1 || st.Submitted != 2 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 cache hit of 2 submissions", st)
	}
	if st.CacheHitRate() != 0.5 {
		t.Errorf("cache hit rate = %v, want 0.5", st.CacheHitRate())
	}

	// The index lists the job with a link to its page.
	resp3, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if !strings.Contains(string(index), job.ID) {
		t.Errorf("index page does not list job %s", job.ID)
	}

	var list []jobs.Job
	if code := getJSON(t, srv.URL+"/api/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("list: status=%d len=%d", code, len(list))
	}
}

func TestServiceRejectsBadUploads(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Workers: 1})
	if _, status := postTrace(t, srv.URL+"/api/jobs", []byte("definitely not darshan")); status != http.StatusBadRequest {
		t.Errorf("garbage upload status = %d, want 400", status)
	}
	if code := getJSON(t, srv.URL+"/api/jobs/j-nope", new(jobs.Job)); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	// Report for a job that has not finished: 409.
	srvPaused, _ := jobServer(t, jobs.Config{Paused: true})
	sr, _ := postTrace(t, srvPaused.URL+"/api/jobs", workloadTrace(t))
	if code := getJSON(t, srvPaused.URL+"/api/jobs/"+sr.Job.ID+"/report", new(ion.Report)); code != http.StatusConflict {
		t.Errorf("report for queued job status = %d, want 409", code)
	}
}

func TestServiceBackpressure429(t *testing.T) {
	// A paused pool keeps everything queued, so depth-1 fills at once.
	srv, _ := jobServer(t, jobs.Config{Paused: true, QueueDepth: 1})
	trace := workloadTrace(t)
	if _, status := postTrace(t, srv.URL+"/api/jobs", trace); status != http.StatusAccepted {
		t.Fatalf("first upload status = %d", status)
	}
	// Different bytes, same queue: text rendering of the same log.
	log, err := testutil.Log("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteDXTText(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/jobs", "application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-capacity upload status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestAskBodyTooLarge(t *testing.T) {
	// The single-report server and the job server share the cap.
	srv := httptest.NewServer(server(t).Handler())
	defer srv.Close()
	huge := `{"question":"` + strings.Repeat("x", maxAskBody+1024) + `"}`
	resp, err := http.Post(srv.URL+"/api/ask", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /api/ask status = %d, want 413", resp.StatusCode)
	}
}
