package webui

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/issue"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/obs/prof"
	"ion/internal/prompt"
	"ion/internal/quality"
	"ion/internal/semcache"
)

// pacedExpert is expertsim with a model wait: every call waits 20 ms
// before it is answered, so the fan-out's goroutines all start their
// diagnose spans while the first sleeps, and the diagnosis of one issue
// waits 400 ms more after its answer, far longer than any issue's
// analysis takes (under the race detector too), so it is plainly the
// slowest.
type pacedExpert struct {
	llm.Client
	slow issue.ID
}

func (c pacedExpert) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if err := pause(ctx, 20*time.Millisecond); err != nil {
		return llm.Completion{}, err
	}
	comp, err := c.Client.Complete(ctx, req)
	if err == nil && req.Metadata[prompt.MetaIssue] == string(c.slow) {
		err = pause(ctx, 400*time.Millisecond)
	}
	return comp, err
}

// pause waits d unless ctx ends first.
func pause(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// explainServer builds the stack an explain value reads: paced
// expertsim behind the recording ledger, the semantic cache and the
// quality store fed by the jobs service, and a profiler whose windows
// the test adds itself.
func explainServer(t *testing.T) (string, *semcache.Store, *prof.Profiler) {
	t.Helper()
	reg := obs.NewRegistry()
	dir := t.TempDir()
	lst, err := ledger.Open(ledger.StoreOptions{Path: filepath.Join(dir, "ledger.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	sem, err := semcache.Open(semcache.Options{Path: filepath.Join(dir, "semcache.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	qstore, err := quality.Open(quality.Options{Path: filepath.Join(dir, "quality.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	pst, err := prof.OpenStore(prof.StoreOptions{Path: filepath.Join(dir, "windows.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.New(prof.Options{Store: pst, Registry: reg, Interval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	client := ledger.Wrap(pacedExpert{Client: expertsim.New(), slow: issue.SmallIO}, lst, ledger.WrapOptions{Registry: reg})
	svc, err := jobs.Open(jobs.Config{
		Dir: t.TempDir(), Workers: 1, Client: client, Ledger: lst,
		SemCache: sem, Quality: qstore, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJobServer(client, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(js.WithObs(reg, nil).WithLLMLedger(client).WithQuality(qstore).WithProf(p).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
		lst.Close()
		sem.Close()
		qstore.Close()
		pst.Close()
	})
	return srv.URL, sem, p
}

// submitDone submits a trace and waits for the job to settle.
func submitDone(t *testing.T, base, name string, trace []byte) jobs.Job {
	t.Helper()
	sr, status := postTrace(t, base+"/api/jobs?name="+name, trace)
	if status != http.StatusAccepted {
		t.Fatalf("submit %s status = %d", name, status)
	}
	return waitJobDone(t, base, sr.Job.ID)
}

// getExplain reads a job's explain value.
func getExplain(t *testing.T, base, id string) explain {
	t.Helper()
	var e explain
	if code := getJSON(t, base+"/api/jobs/"+id+"/explain", &e); code != http.StatusOK {
		t.Fatalf("explain of %s status = %d", id, code)
	}
	return e
}

// TestExplainFreshJob: a fresh diagnosis's critical path runs through
// the slowest diagnose and its model call and no other diagnose; its
// ledger calls add up to the job's cost, a chat turn joins them, and
// the profile window is named only when one overlaps the run.
func TestExplainFreshJob(t *testing.T) {
	base, _, p := explainServer(t)
	job := submitDone(t, base, "ior-hard", workloadTrace(t))
	if job.State != jobs.StateDone || job.Cost == nil {
		t.Fatalf("job = %+v, want done with a cost", job)
	}

	e := getExplain(t, base, job.ID)
	if e.Job.ID != job.ID || e.Job.State != jobs.StateDone {
		t.Fatalf("explain record = %+v", e.Job)
	}
	var slowest, flagged *explainSpan
	diagnoses, criticalDiagnoses := 0, 0
	for i := range e.Spans {
		sp := &e.Spans[i]
		if sp.Name == "job" && !sp.Critical {
			t.Error("the job span is not on its own critical path")
		}
		if sp.Name != "diagnose" {
			continue
		}
		diagnoses++
		if slowest == nil || sp.Seconds > slowest.Seconds {
			slowest = sp
		}
		if sp.Critical {
			criticalDiagnoses++
			flagged = sp
		}
	}
	if diagnoses < 2 || criticalDiagnoses != 1 || flagged != slowest {
		t.Fatalf("%d of %d diagnose spans on the critical path (flagged %+v), want only the slowest %+v",
			criticalDiagnoses, diagnoses, flagged, slowest)
	}
	if flagged.Attrs["issue"] != string(issue.SmallIO) {
		t.Errorf("critical diagnose is %q, want the paced %s", flagged.Attrs["issue"], issue.SmallIO)
	}
	for _, sp := range e.Spans {
		if sp.Parent == flagged.ID && sp.Name == "llm_complete" && !sp.Critical {
			t.Error("the slowest diagnose's model call is not on the critical path")
		}
	}

	if e.Ledger == nil || e.Ledger.Calls != job.Cost.Calls {
		t.Fatalf("explain ledger = %+v, want the job's %d calls", e.Ledger, job.Cost.Calls)
	}
	if e.Scorecard == nil || e.Scorecard.JobID != job.ID {
		t.Fatalf("explain scorecard = %+v", e.Scorecard)
	}
	if matched, mismatched := e.Scorecard.Labels(); matched == 0 || mismatched != 0 {
		t.Errorf("scorecard labels %d matched, %d mismatched; want ior-hard's labels all matched", matched, mismatched)
	}
	if e.Reuse != nil {
		t.Errorf("fresh job has reuse %+v", e.Reuse)
	}

	// No window overlaps yet, and a neighbouring one is not linked.
	if err := p.AddWindow(webTestWindow(1, job.StartedAt.Add(-time.Second))); err != nil {
		t.Fatal(err)
	}
	e = getExplain(t, base, job.ID)
	if e.Profile == nil || e.Profile.Window != "" {
		t.Fatalf("explain profile = %+v, want none", e.Profile)
	}
	page := getBody(t, base+"/jobs/"+job.ID)
	for _, want := range []string{"Why this job", "<strong>&#9679; diagnose", "LLM cost:", "Model calls (", "none of the profiler's windows overlaps this run"} {
		if !strings.Contains(page, want) {
			t.Errorf("job page missing %q", want)
		}
	}
	if index := getBody(t, base+"/"); !strings.Contains(index, "LLM calls") {
		t.Error("index page does not show the cumulative LLM totals")
	}
	if err := p.AddWindow(webTestWindow(2, job.FinishedAt.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	e = getExplain(t, base, job.ID)
	if e.Profile == nil || e.Profile.Window != "w-cpu-2" || e.Profile.Flamegraph != "/api/prof/flamegraph?window=w-cpu-2" {
		t.Fatalf("explain profile = %+v, want the overlapping w-cpu-2", e.Profile)
	}
	if page := getBody(t, base+"/jobs/"+job.ID); !strings.Contains(page, `href="/api/prof/flamegraph?window=w-cpu-2"`) {
		t.Error("job page does not link the overlapping window's flamegraph")
	}

	// A chat turn is a call of the same job.
	if _, err := postAsk(base, job.ID, "which issue should I fix first?"); err != nil {
		t.Fatal(err)
	}
	e = getExplain(t, base, job.ID)
	chats := 0
	for _, g := range e.Ledger.Groups {
		if g.Template == prompt.KindChat {
			chats += g.Calls
		}
	}
	if chats != 1 || e.Ledger.Calls != job.Cost.Calls+1 {
		t.Errorf("after one ask: %d chat call(s) of %d, want 1 of %d", chats, e.Ledger.Calls, job.Cost.Calls+1)
	}
}

// TestExplainReusedJob: a report served verbatim from the semantic
// cache names its source, costs no calls, and shows the source's cache
// entry revoked once it is.
func TestExplainReusedJob(t *testing.T) {
	base, sem, _ := explainServer(t)
	first := submitDone(t, base, "ior-hard", workloadTrace(t))
	second := submitDone(t, base, "ior-hard", textWorkloadTrace(t))
	if first.State != jobs.StateDone || second.State != jobs.StateReused {
		t.Fatalf("states %s, %s; want done, then reused", first.State, second.State)
	}

	e := getExplain(t, base, second.ID)
	if e.Reuse == nil || e.Reuse.Reuse == nil || e.Reuse.From != first.ID || e.Reuse.SourceEntry != "live" {
		t.Fatalf("explain reuse = %+v, want %s's live entry", e.Reuse, first.ID)
	}
	if e.Ledger == nil || e.Ledger.Calls != 0 || len(e.Ledger.Groups) != 0 {
		t.Fatalf("explain ledger = %+v, want no calls", e.Ledger)
	}
	for _, sp := range e.Spans {
		if sp.Name == "diagnose" {
			t.Fatal("a verbatim reuse has a diagnose span")
		}
	}
	if page := getBody(t, base+"/jobs/"+second.ID); !strings.Contains(page, "Semantic hit") ||
		!strings.Contains(page, "cache entry is live") {
		t.Error("job page does not name the live semantic hit")
	}

	for _, en := range sem.Entries() {
		if en.JobID == first.ID {
			if err := sem.Revoke(en); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e := getExplain(t, base, second.ID); e.Reuse == nil || e.Reuse.SourceEntry != "revoked" {
		t.Fatalf("explain reuse after revoke = %+v, want revoked", e.Reuse)
	}
	if page := getBody(t, base+"/jobs/"+second.ID); !strings.Contains(page, "cache entry is revoked") {
		t.Error("job page does not show the revocation")
	}
}

// TestExplainWithoutStores: with no ledger, quality store, profiler or
// series store wired in, the page and the endpoint still answer, with
// those parts left out; a job that has not run has no timeline; an
// unknown job is a 404; the two deleted dashboards are gone.
func TestExplainWithoutStores(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Workers: 1})
	job := submitDone(t, srv.URL, "ior-hard", workloadTrace(t))
	var raw map[string]json.RawMessage
	if code := getJSON(t, srv.URL+"/api/jobs/"+job.ID+"/explain", &raw); code != http.StatusOK {
		t.Fatalf("explain status = %d", code)
	}
	for _, key := range []string{"ledger", "scorecard", "profile", "reuse"} {
		if _, ok := raw[key]; ok {
			t.Errorf("explain without its source carries %q", key)
		}
	}
	if e := getExplain(t, srv.URL, job.ID); len(e.Spans) == 0 {
		t.Error("explain has no spans")
	}
	page := getBody(t, srv.URL+"/jobs/"+job.ID)
	if !strings.Contains(page, "Why this job") {
		t.Error("job page has no explain section")
	}
	for _, absent := range []string{"Model calls", "<h3>Verdicts", "CPU profile"} {
		if strings.Contains(page, absent) {
			t.Errorf("job page shows %q with its source off", absent)
		}
	}
	for _, path := range []string{"/api/jobs/j-nope/explain", "/jobs/j-nope", "/dashboard/llm", "/dashboard/quality"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	paused, _ := jobServer(t, jobs.Config{Paused: true})
	sr, status := postTrace(t, paused.URL+"/api/jobs", workloadTrace(t))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	if e := getExplain(t, paused.URL, sr.Job.ID); e.Job.State != jobs.StateQueued || len(e.Spans) != 0 {
		t.Errorf("queued job's explain = %s with %d spans, want queued with none", e.Job.State, len(e.Spans))
	}
	if page := getBody(t, paused.URL+"/jobs/"+sr.Job.ID); !strings.Contains(page, "no timeline yet") {
		t.Error("queued job's page does not say it has no timeline")
	}
}

// TestCriticalPath walks a hand-built timeline: an adopted parse that
// ends before the job starts, an extract, and an attempt whose analyze
// fans out three diagnoses before the summary.
func TestCriticalPath(t *testing.T) {
	t0 := time.Unix(1000, 0)
	span := func(id, parent int, name string, from, to int) explainSpan {
		return explainSpan{SpanRecord: obs.SpanRecord{ID: id, Parent: parent, Name: name,
			Start: t0.Add(time.Duration(from) * time.Millisecond), Seconds: float64(to-from) / 1000}}
	}
	spans := []explainSpan{
		span(2, 1, "parse", -30, -10),
		span(3, 2, "parse_shard", -30, -20),
		span(4, 2, "parse_shard", -25, -11),
		span(1, 0, "job", 0, 100),
		span(5, 1, "extract", 1, 10),
		span(15, 5, "extract_module", 2, 2),
		span(16, 5, "extract_module", 2, 2),
		span(6, 1, "attempt", 11, 99),
		span(7, 6, "analyze", 12, 80),
		span(8, 7, "diagnose", 13, 50),
		span(9, 7, "diagnose", 13, 79),
		span(10, 7, "diagnose", 14, 30),
		span(11, 9, "llm_complete", 14, 78),
		span(12, 8, "llm_complete", 14, 49),
		span(13, 6, "summarize", 81, 98),
		span(14, 13, "llm_complete", 81, 97),
	}
	markCriticalPath(spans)
	want := map[int]bool{1: true, 2: true, 4: true, 5: true, 6: true, 7: true, 9: true, 11: true,
		13: true, 14: true, 15: true, 16: true}
	for _, sp := range spans {
		if sp.Critical != want[sp.ID] {
			t.Errorf("span %d (%s) on the critical path = %v, want %v", sp.ID, sp.Name, sp.Critical, want[sp.ID])
		}
	}
}

// TestDashboardAbsorbsLLMAndQualityTrends: the spend rate, backend
// health and shadow flip ratio are /dashboard panels.
func TestDashboardAbsorbsLLMAndQualityTrends(t *testing.T) {
	srv, _, _ := observedServer(t, nil, jobs.Config{Paused: true}, nil)
	page := getBody(t, srv.URL+"/dashboard")
	if n := strings.Count(page, `<div class="panel">`); n != 15 {
		t.Errorf("dashboard renders %d panels, want 15", n)
	}
	for _, title := range []string{"LLM spend rate", "LLM backend health", "Shadow flip ratio"} {
		if !strings.Contains(page, "<h2>"+title+"</h2>") {
			t.Errorf("dashboard has no %q panel", title)
		}
	}
}
