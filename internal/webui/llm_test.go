package webui

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/jobs"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/prompt"
)

// llmServer builds a job server with the audit ledger wired in: the
// expertsim backend is wrapped by the recording client, the service
// attributes costs, and the ledger routes are enabled.
func llmServer(t *testing.T) (*httptest.Server, *ledger.Store) {
	t.Helper()
	reg := obs.NewRegistry()
	lst, err := ledger.Open(ledger.StoreOptions{
		Path: filepath.Join(t.TempDir(), "ledger.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lst.Close() })
	client := ledger.Wrap(expertsim.New(), lst, ledger.WrapOptions{Registry: reg})
	svc, err := jobs.Open(jobs.Config{
		Dir: t.TempDir(), Workers: 1, Client: client, Ledger: lst, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJobServer(client, svc)
	if err != nil {
		t.Fatal(err)
	}
	js.WithObs(reg, nil).WithLLMLedger(client)
	srv := httptest.NewServer(js.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close(t.Context())
	})
	return srv, lst
}

// waitJobDone polls the job API until the job leaves the queue.
func waitJobDone(t *testing.T, base, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var job jobs.Job
		if st := getJSON(t, base+"/api/jobs/"+id, &job); st != http.StatusOK {
			t.Fatalf("job status = %d", st)
		}
		switch job.State {
		case jobs.StateDone, jobs.StateReused, jobs.StateFailed:
			return job
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return jobs.Job{}
}

// TestLLMLedgerAPI runs a trace through the service and reads the
// audit trail back over HTTP: entries attributed to the job, filters
// honored, totals populated.
func TestLLMLedgerAPI(t *testing.T) {
	srv, _ := llmServer(t)
	sr, st := postTrace(t, srv.URL+"/api/jobs", workloadTrace(t))
	if st != http.StatusAccepted {
		t.Fatalf("submit status = %d", st)
	}
	job := waitJobDone(t, srv.URL, sr.Job.ID)
	if job.State != jobs.StateDone {
		t.Fatalf("job state = %s (%s)", job.State, job.Error)
	}
	if job.Cost == nil || job.Cost.Calls == 0 {
		t.Fatalf("job cost = %+v, want attributed calls", job.Cost)
	}

	var body llmLedgerResponse
	if st := getJSON(t, srv.URL+"/api/llm/ledger", &body); st != http.StatusOK {
		t.Fatalf("ledger status = %d", st)
	}
	if len(body.Entries) == 0 || body.Totals.Calls == 0 {
		t.Fatalf("ledger empty: %d entries, %d calls", len(body.Entries), body.Totals.Calls)
	}
	// Tokens by prompt template: every retained token is a diagnosis
	// or summary token.
	if body.Templates[prompt.KindDiagnosis] == 0 || body.Templates[prompt.KindSummary] == 0 ||
		body.Templates[prompt.KindDiagnosis]+body.Templates[prompt.KindSummary] != body.Totals.TokensIn+body.Totals.TokensOut {
		t.Errorf("templates = %v, want diagnosis and summary tokens summing to %d",
			body.Templates, body.Totals.TokensIn+body.Totals.TokensOut)
	}
	for _, e := range body.Entries {
		if e.Job != sr.Job.ID {
			t.Fatalf("entry job = %q, want %q", e.Job, sr.Job.ID)
		}
		if len(e.PromptSHA) != 64 || e.Backend == "" {
			t.Fatalf("entry incomplete: %+v", e)
		}
	}
	if len(body.Jobs) == 0 || body.Jobs[0].Job != sr.Job.ID {
		t.Fatalf("job rollup = %+v", body.Jobs)
	}

	// Filters: job mismatch empties the window, limit truncates it.
	if st := getJSON(t, srv.URL+"/api/llm/ledger?job=j-nope", &body); st != http.StatusOK {
		t.Fatalf("filtered status = %d", st)
	}
	if len(body.Entries) != 0 {
		t.Fatalf("job filter leaked %d entries", len(body.Entries))
	}
	if st := getJSON(t, srv.URL+"/api/llm/ledger?limit=1&backend=expertsim", &body); st != http.StatusOK {
		t.Fatalf("limited status = %d", st)
	}
	if len(body.Entries) != 1 {
		t.Fatalf("limit=1 returned %d entries", len(body.Entries))
	}
	var errBody struct{ Error string }
	if st := getJSON(t, srv.URL+"/api/llm/ledger?limit=bogus", &errBody); st != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", st)
	}

	// A chat call is attributed to the job it asks about.
	if _, err := postAsk(srv.URL, sr.Job.ID, "which issue should I fix first?"); err != nil {
		t.Fatal(err)
	}
	if st := getJSON(t, srv.URL+"/api/llm/ledger?job="+sr.Job.ID, &body); st != http.StatusOK {
		t.Fatalf("job-filtered status = %d", st)
	}
	chats := 0
	for _, e := range body.Entries {
		if e.Template == prompt.KindChat {
			chats++
		}
	}
	if chats != 1 {
		t.Errorf("ledger view of %s holds %d chat calls, want 1", sr.Job.ID, chats)
	}
}

// TestLLMRoutesDisabled verifies the ledger route 404s cleanly when no
// ledger is wired in.
func TestLLMRoutesDisabled(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/api/llm/ledger")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/api/llm/ledger status = %d, want 404", resp.StatusCode)
	}
}
