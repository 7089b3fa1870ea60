package webui

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
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
	"ion/internal/obs/flight"
	"ion/internal/obs/series"
	"ion/internal/quality"
	"ion/internal/semcache"
)

// qualityServer builds the quality observatory the way ionserve wires
// it: a scorecard store fed by the jobs service, the series engine
// evaluating the given rules, firing transitions capturing flight
// bundles that embed the scorecard tail, and the quality routes
// mounted on the server.
func qualityServer(t *testing.T, client llm.Client, cfg jobs.Config, rules []series.Rule) (*httptest.Server, *jobs.Service, *series.Store, *quality.Store) {
	t.Helper()
	reg := obs.NewRegistry()
	if client == nil {
		client = expertsim.New()
	}

	qstore, err := quality.Open(quality.Options{Path: filepath.Join(t.TempDir(), "quality.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qstore.Close() })

	rec, err := flight.New(flight.Options{
		Dir:      t.TempDir(),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.SetQualityScorecardsFn(func() any { return qstore.Tail(50) })
	logger := slog.New(rec.LogHandler(slog.NewTextHandler(io.Discard, nil)))

	cfg.Dir = t.TempDir()
	cfg.Client = client
	cfg.Obs = reg
	cfg.Logger = logger
	cfg.Quality = qstore
	svc, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	store := series.New(reg, series.Options{
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
	srv := httptest.NewServer(js.WithObs(reg, logger).WithSeries(store).WithFlight(rec).WithQuality(qstore).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return srv, svc, store, qstore
}

// shadowDrift is a backend that has drifted only for shadow re-runs
// (calls whose ledger job id ends in "-shadow"): they get every verdict
// rewritten to not-detected, every other call the faithful answer.
type shadowDrift struct {
	llm.Client
	drifted llm.Client
}

func (c *shadowDrift) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if strings.HasSuffix(llm.JobIDFrom(ctx), "-shadow") {
		return c.drifted.Complete(ctx, req)
	}
	return c.Client.Complete(ctx, req)
}

// TestSemcacheFlipIncident is the observatory's end-to-end alert path.
// A faithful cold run of ior-hard is indexed; its re-encoded copy is
// served verbatim from the semantic cache, and its shadow re-run (every
// reused job is shadowed) runs against a drifted backend, so verdicts
// flip. The flip-ratio gauge rises, the default SemcacheFlipRateHigh
// rule walks pending → firing, and the firing transition captures an
// incident bundle whose scorecards carry the flip.
func TestSemcacheFlipIncident(t *testing.T) {
	var rules []series.Rule
	for _, r := range series.DefaultRules() {
		if r.Name == "SemcacheFlipRateHigh" {
			rules = append(rules, r)
		}
	}
	if len(rules) != 1 {
		t.Fatal("SemcacheFlipRateHigh is not a default rule")
	}
	sem, err := semcache.Open(semcache.Options{Path: filepath.Join(t.TempDir(), "semcache.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sem.Close() })
	inner := expertsim.New()
	srv, svc, store, qstore := qualityServer(t,
		&shadowDrift{Client: inner, drifted: &expertsim.Contradictor{Inner: inner}},
		jobs.Config{Workers: 1, SemCache: sem, ShadowSampleRate: 2}, rules)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var ids []string
	for i, trace := range [][]byte{workloadTrace(t), textWorkloadTrace(t)} {
		sr, status := postTrace(t, srv.URL+"/api/jobs?name=ior-hard", trace)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, status)
		}
		job, err := svc.Wait(ctx, sr.Job.ID)
		if err != nil || (job.State != jobs.StateDone && job.State != jobs.StateReused) {
			t.Fatalf("job %d = %+v err = %v, want settled", i, job, err)
		}
		ids = append(ids, job.ID)
	}
	if job, _ := svc.Get(ids[1]); job.State != jobs.StateReused {
		t.Fatalf("copy state = %s, want reused from %s", job.State, ids[0])
	}
	// The shadow runs in the background; its last effect is the gauge.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(getBody(t, srv.URL+"/metrics"), `ion_semcache_flip_ratio{mode="verbatim"} 1`) {
		if time.Now().After(deadline) {
			t.Fatal("the shadow re-run never published a flip")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Breach → pending on the first scrape, firing once sustained past
	// the rule's 2m hold.
	now := time.Now()
	store.Scrape(now.Add(-2*time.Minute - time.Second))
	var ar alertsResponse
	if code := getJSON(t, srv.URL+"/api/alerts", &ar); code != http.StatusOK {
		t.Fatalf("/api/alerts status = %d", code)
	}
	if st := alertState(ar, "SemcacheFlipRateHigh"); st != string(series.StatePending) {
		t.Fatalf("after first breach scrape SemcacheFlipRateHigh = %q, want pending", st)
	}
	store.Scrape(now)
	if code := getJSON(t, srv.URL+"/api/alerts", &ar); code != http.StatusOK {
		t.Fatalf("/api/alerts status = %d", code)
	}
	if st := alertState(ar, "SemcacheFlipRateHigh"); st != string(series.StateFiring) {
		t.Fatalf("after sustained breach SemcacheFlipRateHigh = %q, want firing", st)
	}

	// The firing transition captured a bundle embedding the scorecards.
	var ir incidentsResponse
	if code := getJSON(t, srv.URL+"/api/incidents", &ir); code != http.StatusOK {
		t.Fatalf("/api/incidents status = %d", code)
	}
	if len(ir.Incidents) != 1 || ir.Incidents[0].Reason != "alert:SemcacheFlipRateHigh" {
		t.Fatalf("incidents = %+v, want one SemcacheFlipRateHigh capture", ir.Incidents)
	}
	files := downloadBundle(t, srv.URL+"/api/incidents/"+ir.Incidents[0].ID+"/download", false)
	cardsJSON, ok := files["quality_scorecards.json"]
	if !ok {
		t.Fatal("bundle is missing quality_scorecards.json")
	}
	var bundled []quality.Scorecard
	if err := json.Unmarshal(cardsJSON, &bundled); err != nil {
		t.Fatalf("bundle quality_scorecards.json does not parse: %v", err)
	}
	var flipped *quality.Scorecard
	for i := range bundled {
		if bundled[i].JobID == ids[1] {
			flipped = &bundled[i]
		}
	}
	want, _ := qstore.Get(ids[1])
	if flipped == nil || flipped.Mode != quality.ModeVerbatim || flipped.Shadow == nil ||
		len(flipped.Shadow.Flips) == 0 || len(flipped.Shadow.Flips) != len(want.Shadow.Flips) {
		t.Fatalf("bundled scorecards = %+v, want %s's flipped verbatim scorecard", bundled, ids[1])
	}
}

// TestQualityLabelMismatchSurfaces: a contradicting backend (expertsim
// with every verdict forced to not-detected) diagnoses ior-hard under
// its own name, and every quality surface reports the label
// mismatches: the scorecard, the job's quality provenance and page,
// and /api/quality with its issue filter.
func TestQualityLabelMismatchSurfaces(t *testing.T) {
	srv, svc, _, qstore := qualityServer(t,
		&expertsim.Contradictor{Inner: expertsim.New()}, jobs.Config{Workers: 1}, nil)

	sr, status := postTrace(t, srv.URL+"/api/jobs?name=ior-hard", workloadTrace(t))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := svc.Wait(ctx, sr.Job.ID)
	if err != nil || job.State != jobs.StateDone {
		t.Fatalf("job = %+v err = %v, want done", job, err)
	}

	card, ok := qstore.Get(job.ID)
	matched, mismatched := card.Labels()
	if !ok || mismatched == 0 {
		t.Fatalf("scorecard = %+v ok=%v, want label mismatches", card, ok)
	}
	var got jobs.Job
	if code := getJSON(t, srv.URL+"/api/jobs/"+job.ID, &got); code != http.StatusOK {
		t.Fatalf("/api/jobs/%s status = %d", job.ID, code)
	}
	if q := got.Quality; q == nil || q.LabelMatches != matched || q.LabelMismatches != mismatched {
		t.Fatalf("job quality = %+v, want the scorecard's %d/%d", q, matched, mismatched)
	}
	if page := getBody(t, srv.URL+"/jobs/"+job.ID); !strings.Contains(page,
		fmt.Sprintf("%d of %d labelled verdict(s) contradict the ground truth", mismatched, matched+mismatched)) {
		t.Error("job page banner does not report the label mismatches")
	}

	var qr qualityResponse
	if code := getJSON(t, srv.URL+"/api/quality", &qr); code != http.StatusOK {
		t.Fatalf("/api/quality status = %d", code)
	}
	if len(qr.Scorecards) != 1 || qr.Scorecards[0].JobID != job.ID {
		t.Fatalf("/api/quality scorecards = %+v", qr.Scorecards)
	}
	var wrong, right string
	for _, sc := range card.Issues {
		if a := qr.Labels[string(sc.Issue)]; sc.Mismatch() && a.Mismatched != 1 {
			t.Errorf("/api/quality labels[%s] = %+v, want one mismatch", sc.Issue, a)
		}
		if sc.Mismatch() && wrong == "" {
			wrong = string(sc.Issue)
		}
		if !sc.Mismatch() && right == "" {
			right = string(sc.Issue)
		}
	}
	// The issue filter keeps the card only for an issue it contradicts.
	if code := getJSON(t, srv.URL+"/api/quality?issue="+wrong, &qr); code != http.StatusOK || len(qr.Scorecards) != 1 {
		t.Errorf("issue filter %q: status=%d cards=%d, want the card", wrong, code, len(qr.Scorecards))
	}
	if code := getJSON(t, srv.URL+"/api/quality?issue="+right, &qr); code != http.StatusOK || len(qr.Scorecards) != 0 {
		t.Errorf("issue filter %q: status=%d cards=%d, want none", right, code, len(qr.Scorecards))
	}
	if code := getJSON(t, srv.URL+"/api/quality?job="+job.ID, &qr); code != http.StatusOK || len(qr.Scorecards) != 1 {
		t.Errorf("job filter: status=%d cards=%d", code, len(qr.Scorecards))
	}

}

// TestQualityRoutesWithoutStore: without WithQuality the quality route
// 404s with a JSON error pointing at the flag.
func TestQualityRoutesWithoutStore(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Paused: true})
	resp, err := http.Get(srv.URL + "/api/quality")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body.Error, "-quality") {
		t.Errorf("GET /api/quality = %d %q, want 404 pointing at -quality", resp.StatusCode, body.Error)
	}
}

// TestQualityAPIBadFilters covers the 400 paths.
func TestQualityAPIBadFilters(t *testing.T) {
	srv, _, _, _ := qualityServer(t, nil, jobs.Config{Paused: true}, nil)
	for _, q := range []string{"?limit=0", "?limit=x", "?issue=not-an-issue"} {
		resp, err := http.Get(srv.URL + "/api/quality" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /api/quality%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// alertState finds one rule's state in an /api/alerts response.
func alertState(ar alertsResponse, rule string) string {
	for _, a := range ar.Alerts {
		if a.Rule.Name == rule {
			return string(a.State)
		}
	}
	return ""
}

// getBody fetches a URL and returns the body as a string.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %.200s", url, resp.StatusCode, body)
	}
	return string(body)
}
