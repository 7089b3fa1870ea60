package webui

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ion/internal/jobs"
	"ion/internal/testutil"
)

// textWorkloadTrace renders a workload as darshan-parser text, the
// format the streaming path shards during upload.
func textWorkloadTrace(t *testing.T) []byte {
	t.Helper()
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
	return buf.Bytes()
}

// postStream POSTs body with chunked transfer encoding (the reader is
// wrapped so net/http cannot learn its length up front).
func postStream(t *testing.T, url string, body []byte) (*http.Response, submitResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream",
		struct{ io.Reader }{bytes.NewReader(body)})
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
	return resp, sr
}

func TestStreamEndpoint(t *testing.T) {
	srv, svc := jobServer(t, jobs.Config{Workers: 1})
	trace := textWorkloadTrace(t)

	resp, sr := postStream(t, srv.URL+"/api/jobs/stream?name=ior-hard", trace)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/jobs/stream status = %d", resp.StatusCode)
	}
	if sr.Dedup {
		t.Error("first streamed upload reported as dedup")
	}
	if sr.Job.Ingest == nil {
		t.Fatalf("ingest provenance missing: %+v", sr.Job.Ingest)
	}
	if sr.Job.Ingest.Bytes != int64(len(trace)) {
		t.Errorf("ingest bytes = %d, want %d", sr.Job.Ingest.Bytes, len(trace))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := svc.Wait(ctx, sr.Job.ID)
	if err != nil || final.State != jobs.StateDone {
		t.Fatalf("job did not complete: state=%s err=%v (%s)", final.State, err, final.Error)
	}

	// The job page surfaces the streamed-ingestion provenance.
	page, err := http.Get(srv.URL + "/jobs/" + sr.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer page.Body.Close()
	html, _ := io.ReadAll(page.Body)
	if !strings.Contains(string(html), "Streamed ingestion") {
		t.Error("job page missing the streamed-ingestion banner")
	}

	// Identical bytes through the whole-body path dedup against the
	// streamed job: both ingestion paths share one content-hash space.
	sr2, status := postTrace(t, srv.URL+"/api/jobs?name=copy", trace)
	if status != http.StatusOK || !sr2.Dedup || sr2.Job.ID != sr.Job.ID {
		t.Errorf("body-path re-upload not deduplicated: status=%d dedup=%v id=%s want %s",
			status, sr2.Dedup, sr2.Job.ID, sr.Job.ID)
	}
}

func TestStreamEndpointBadTrace(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Workers: 1})
	resp, _ := postStream(t, srv.URL+"/api/jobs/stream", []byte("definitely not a trace\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestStreamEndpointBusy(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Workers: 1, StreamMaxBuffer: 16})
	resp, _ := postStream(t, srv.URL+"/api/jobs/stream", textWorkloadTrace(t))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After hint")
	}
}
