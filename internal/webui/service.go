package webui

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ion/internal/ion"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/obs/flight"
	"ion/internal/obs/prof"
	"ion/internal/obs/series"
	"ion/internal/quality"
	"ion/internal/report"
	"ion/internal/semcache"
)

// maxTraceBody caps trace uploads; oversized payloads get 413.
const maxTraceBody = 64 << 20

// JobServer is the multi-trace front end over a jobs.Service: traces
// are uploaded as jobs, polled to completion, and each finished job
// gets its own report page and chat session.
type JobServer struct {
	svc       *jobs.Service
	client    llm.Client
	obs       *obs.Registry
	log       *slog.Logger
	series    *series.Store    // nil disables /dashboard and the query/alerts APIs
	flight    *flight.Recorder // nil disables the incident APIs
	prof      *prof.Profiler   // nil disables the prof APIs and explain's profile window
	llmLedger *ledger.Client   // nil disables /api/llm/ledger and explain's model calls
	quality   *quality.Store   // nil disables /api/quality and explain's scorecard
	reqSeq    atomic.Int64     // request-id source for latency exemplars
	chats     chats            // per-job chat sessions, least recently used evicted
}

// NewJobServer wires the service and chat backend into a handler. By
// default telemetry lands in a private registry and logs are
// discarded; call WithObs before Handler to export them.
func NewJobServer(client llm.Client, svc *jobs.Service) (*JobServer, error) {
	if client == nil || svc == nil {
		return nil, fmt.Errorf("webui: client and service are required")
	}
	return &JobServer{
		svc:    svc,
		client: client,
		obs:    obs.NewRegistry(),
		log:    obs.NopLogger(),
		chats:  chats{max: maxChatSessions},
	}, nil
}

// WithObs points the server's HTTP metrics and request logs at the
// given registry and logger (nil arguments keep the current sink) and
// returns the server for chaining. The registry is also what GET
// /metrics serves, so pass the one the jobs.Service reports into.
func (s *JobServer) WithObs(reg *obs.Registry, logger *slog.Logger) *JobServer {
	if reg != nil {
		s.obs = reg
	}
	if logger != nil {
		s.log = logger
	}
	return s
}

// WithSeries wires the in-process time-series store behind /dashboard,
// /api/metrics/query, and /api/alerts, and returns the server for
// chaining. Without it those routes answer 404. The caller owns the
// store's scrape loop (Start/Stop).
func (s *JobServer) WithSeries(store *series.Store) *JobServer {
	s.series = store
	return s
}

// WithFlight wires the flight recorder behind /api/incidents,
// /api/incidents/{id}/download, and /api/debug/capture, and returns
// the server for chaining. Without it those routes answer 404. The
// caller owns the recorder's lifecycle (Start/Stop) and its alert
// trigger wiring.
func (s *JobServer) WithFlight(rec *flight.Recorder) *JobServer {
	s.flight = rec
	return s
}

// Handler returns the HTTP routes of the analysis service:
//
//	GET  /                     the job list page (HTML)
//	GET  /jobs/{id}            a job's page (HTML): the diagnosis once finished, and its explain section
//	POST /api/jobs             submit a trace (raw Darshan bytes; ?name=), parsed during upload
//	POST /api/jobs/stream      the same handler, kept for clients that send chunked bodies there
//	GET  /api/jobs             list jobs (JSON)
//	GET  /api/jobs/{id}        one job's status (JSON)
//	GET  /api/jobs/{id}/report the finished report (JSON)
//	POST /api/jobs/{id}/ask    {"question": ...} against that job's report
//	GET  /api/jobs/{id}/trace  the analysis span timeline (JSON)
//	GET  /api/jobs/{id}/explain  the record, critical path, model calls, reuse, scorecard and profile window (JSON)
//	GET  /api/stats            queue/worker/cache counters (JSON)
//	GET  /api/semcache         semantic-cache stats, thresholds, entries (JSON)
//	GET  /api/metrics/query    windowed series from the in-process store (JSON)
//	GET  /api/alerts           alert rule states and transition history (JSON)
//	GET  /api/incidents        flight-recorder bundle manifests (JSON)
//	GET  /api/incidents/{id}/download  one incident bundle (tar.gz)
//	POST /api/debug/capture    capture an on-demand incident bundle
//	GET  /api/prof/windows     decoded profile windows (JSON; ?kind=&limit=)
//	GET  /api/prof/flamegraph  one window as an SVG flamegraph (?window=)
//	GET  /api/llm/ledger       LLM call audit ledger, health, top jobs and tokens by template (JSON; ?limit=&backend=&job=)
//	GET  /api/quality          diagnosis-quality scorecards (JSON; ?limit=&issue=&job=)
//	GET  /dashboard            live self-observation page (HTML, inline SVG)
//	GET  /healthz              liveness probe (always 200 while serving)
//	GET  /readyz               readiness probe (503 while paused or draining)
//	GET  /metrics              Prometheus text exposition (gzip-aware)
//
// Every route is wrapped in telemetry middleware recording request
// count, latency, and status by route into the server's registry.
func (s *JobServer) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	handle("GET /{$}", s.handleIndex)
	handle("GET /jobs/{id}", s.handleJobPage)
	handle("POST /api/jobs", s.handleSubmit)
	handle("POST /api/jobs/stream", s.handleSubmit)
	handle("GET /api/jobs", s.handleList)
	handle("GET /api/jobs/{id}", s.handleJob)
	handle("GET /api/jobs/{id}/report", s.handleJobReport)
	handle("GET /api/jobs/{id}/trace", s.handleJobTrace)
	handle("GET /api/jobs/{id}/explain", s.handleJobExplain)
	handle("POST /api/jobs/{id}/ask", s.handleJobAsk)
	handle("GET /api/stats", s.handleStats)
	handle("GET /api/semcache", s.handleSemcache)
	handle("GET /api/metrics/query", s.handleMetricsQuery)
	handle("GET /api/alerts", s.handleAlerts)
	handle("GET /api/incidents", s.handleIncidents)
	handle("GET /api/incidents/{id}/download", s.handleIncidentDownload)
	handle("POST /api/debug/capture", s.handleDebugCapture)
	handle("GET /api/prof/windows", s.handleProfWindows)
	handle("GET /api/prof/flamegraph", s.handleProfFlamegraph)
	handle("GET /api/llm/ledger", s.handleLLMLedger)
	handle("GET /api/quality", s.handleQualityAPI)
	handle("GET /dashboard", s.handleDashboard)
	handle("GET /metrics", withGzip(s.obs.Handler()).ServeHTTP)
	// Probes bypass the instrument middleware: they are hit every few
	// seconds by orchestrators and would dominate the request metrics.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// statusWriter captures the response code for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route request metrics and
// structured request logging. The route label is the mux pattern, not
// the raw URL, so cardinality stays bounded. Each request gets a
// sequential id that is logged and attached to the latency histogram
// as its bucket exemplar, so a spike on the dashboard names the
// request behind it (grep the id in the logs or an incident bundle).
func (s *JobServer) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(obs.WithLogger(r.Context(), s.log)))
		elapsed := time.Since(start)
		s.obs.Counter("ion_http_requests_total",
			"HTTP requests by route and status code.",
			obs.L("route", route), obs.L("code", fmt.Sprint(sw.status))).Inc()
		s.obs.Histogram("ion_http_request_seconds",
			"HTTP request latency by route.", nil,
			obs.L("route", route)).ObserveExemplar(elapsed.Seconds(), reqID)
		logAt := s.log.Debug
		if sw.status >= 500 {
			logAt = s.log.Warn
		}
		logAt("http request", "id", reqID, "route", route, "status", sw.status,
			"elapsed", elapsed.Round(time.Microsecond).String(), "remote", r.RemoteAddr)
	})
}

// submitResponse is the POST /api/jobs wire type.
type submitResponse struct {
	Job jobs.Job `json:"job"`
	// Dedup is true when an identical trace had already been submitted
	// and the cached job is returned instead of a new run.
	Dedup bool `json:"dedup"`
}

// handleSubmit serves both submit routes. The body goes to the service
// as it arrives, where it is hashed, charged to the ingest buffer
// budget and parsed segment by segment during the upload; a declared
// Content-Length sizes the segments. 429 + Retry-After covers an
// exhausted budget as well as a full queue.
func (s *JobServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body io.Reader = http.MaxBytesReader(w, r.Body, maxTraceBody)
	if r.ContentLength >= 0 {
		body = declared{body, r.ContentLength}
	}
	job, dedup, err := s.svc.SubmitStream(r.URL.Query().Get("name"), body)
	s.writeSubmitted(w, job, dedup, err)
}

// declared is a request body that reports its declared length, which
// jobs.Service.SubmitStream sizes its parse segments from.
type declared struct {
	io.Reader
	n int64
}

func (d declared) Len() int { return int(d.n) }

// writeSubmitted answers a submission: 202 with the new job, 200 with
// the earlier one on a dedup hit, or the status of the error.
func (s *JobServer) writeSubmitted(w http.ResponseWriter, job jobs.Job, dedup bool, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		http.Error(w, "trace too large", http.StatusRequestEntityTooLarge)
	case errors.Is(err, jobs.ErrStreamBusy), errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		http.Error(w, err.Error()+", retry later", http.StatusTooManyRequests)
	case errors.Is(err, jobs.ErrBadTrace):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, jobs.ErrClosed):
		http.Error(w, "service is shutting down", http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case dedup:
		s.writeJSON(w, http.StatusOK, submitResponse{Job: job, Dedup: true})
	default:
		s.writeJSON(w, http.StatusAccepted, submitResponse{Job: job})
	}
}

func (s *JobServer) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.svc.List())
}

func (s *JobServer) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.getJob(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, job)
}

// handleJobTrace serves the analysis span timeline persisted next to
// the job's report: where the time of this diagnosis went, stage by
// stage.
func (s *JobServer) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.getJob(w, r)
	if !ok {
		return
	}
	data, err := s.svc.Store().Timeline(job.ID)
	if errors.Is(err, jobs.ErrNotFound) {
		http.Error(w, "no timeline yet: the job has not run", http.StatusConflict)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *JobServer) handleJobReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.getJob(w, r)
	if !ok {
		return
	}
	rep, err := s.svc.Report(job.ID)
	if errors.Is(err, jobs.ErrNotDone) {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}

func (s *JobServer) handleJobAsk(w http.ResponseWriter, r *http.Request) {
	job, ok := s.getJob(w, r)
	if !ok {
		return
	}
	// The job id attributes the chat call in the LLM ledger.
	r = r.WithContext(llm.WithJobID(r.Context(), job.ID))
	serveAsk(w, r, func() (*ion.Session, error) { return s.session(job.ID) })
}

func (s *JobServer) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.svc.Stats())
}

// semcacheResponse is the GET /api/semcache wire type: the store's
// counters and bounds, the reuse-policy thresholds in effect, and the
// indexed entries (newest first).
type semcacheResponse struct {
	Stats              semcache.Stats   `json:"stats"`
	ReuseThreshold     float64          `json:"reuse_threshold"`
	ConditionThreshold float64          `json:"condition_threshold"`
	QuantStep          float64          `json:"quant_step"`
	Dimensions         []string         `json:"dimensions"`
	Entries            []semcache.Entry `json:"entries"`
}

func (s *JobServer) handleSemcache(w http.ResponseWriter, r *http.Request) {
	sem := s.svc.SemCache()
	if sem == nil {
		http.Error(w, "semantic cache disabled: start ionserve with -sem-cache", http.StatusNotFound)
		return
	}
	reuse, condition := s.svc.SemThresholds()
	entries := sem.Entries()
	if entries == nil {
		entries = []semcache.Entry{}
	}
	s.writeJSON(w, http.StatusOK, semcacheResponse{
		Stats:              sem.Stats(),
		ReuseThreshold:     reuse,
		ConditionThreshold: condition,
		QuantStep:          semcache.DefaultQuantStep,
		Dimensions:         semcache.Dimensions(),
		Entries:            entries,
	})
}

func (s *JobServer) handleJobPage(w http.ResponseWriter, r *http.Request) {
	job, ok := s.getJob(w, r)
	if !ok {
		return
	}
	var why strings.Builder
	renderExplain(&why, s.explain(job))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if !job.State.Succeeded() {
		fmt.Fprintf(w, pendingPage, html.EscapeString(job.Trace), html.EscapeString(string(job.State)),
			job.Attempts, html.EscapeString(job.Error), html.EscapeString(job.ID), why.String())
		return
	}
	rep, err := s.svc.Report(job.ID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var page strings.Builder
	if err := report.WriteHTML(&page, rep); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	widget := why.String() + navLink + chatWidgetFor("/api/jobs/"+job.ID+"/ask")
	fmt.Fprint(w, strings.Replace(page.String(), "</body>", widget+"</body>", 1))
}

func (s *JobServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	list := s.svc.List()
	var rows strings.Builder
	for _, j := range list {
		link := html.EscapeString(j.Trace)
		if j.State.Succeeded() {
			link = fmt.Sprintf(`<a href="/jobs/%s">%s</a>`, html.EscapeString(j.ID), link)
		}
		state := html.EscapeString(string(j.State))
		if j.ReusedFrom != nil {
			state += fmt.Sprintf(` <span style="color:#2563eb">&larr; <code>%s</code></span>`,
				html.EscapeString(j.ReusedFrom.From))
		}
		fmt.Fprintf(&rows, "<tr><td>%s</td><td><code>%s</code></td><td>%s</td><td>%d</td><td>%s</td></tr>\n",
			link, html.EscapeString(j.ID), state,
			j.Attempts, html.EscapeString(j.Error))
	}
	if len(list) == 0 {
		rows.WriteString(`<tr><td colspan="5"><em>no jobs yet — upload a Darshan trace</em></td></tr>`)
	}
	st := s.svc.Stats()
	sem := s.svc.SemCache().Stats()
	fmt.Fprintf(w, indexPage, rows.String(),
		st.QueueDepth, st.QueueCapacity, st.Busy, st.Workers, 100*st.Utilization(),
		st.Completed, st.Failed, st.Retried, st.CacheHits, 100*st.CacheHitRate(),
		st.Recovered, sem.Hits, sem.Conditioned,
		st.LLMCalls, st.LLMTokensIn, st.LLMTokensOut, st.LLMCostUSD)
}

// getJob resolves the {id} path value, writing a 404 on miss.
func (s *JobServer) getJob(w http.ResponseWriter, r *http.Request) (jobs.Job, bool) {
	job, err := s.svc.Get(r.PathValue("id"))
	if err != nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return jobs.Job{}, false
	}
	return job, true
}

// session returns (creating on first use) the chat session over a
// finished job's report. The report is loaded outside the sessions
// lock; when two first questions race, both get the session kept
// first.
func (s *JobServer) session(id string) (*ion.Session, error) {
	if sess := s.chats.keep(id, nil); sess != nil {
		return sess, nil
	}
	rep, err := s.svc.Report(id)
	if err != nil {
		return nil, err
	}
	sess, err := ion.NewSession(s.client, rep)
	if err != nil {
		return nil, err
	}
	return s.chats.keep(id, sess), nil
}

// maxChatSessions bounds the chat sessions a JobServer keeps. A job
// whose session was evicted gets a fresh one, without the earlier
// turns, on its next question.
const maxChatSessions = 128

// chats holds chat sessions by job id, evicting the least recently
// used past max. Its lock is never held across a report load or a
// model call.
type chats struct {
	max  int
	mu   sync.Mutex
	byID map[string]*chat
	uses int64 // use clock
}

type chat struct {
	sess *ion.Session
	used int64
}

// keep returns the job's session, marking it used. When the job has
// none, it keeps sess (if not nil) and returns it.
func (c *chats) keep(id string, sess *ion.Session) *ion.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.uses++
	if ch, ok := c.byID[id]; ok {
		ch.used = c.uses
		return ch.sess
	}
	if sess == nil {
		return nil
	}
	if c.byID == nil {
		c.byID = map[string]*chat{}
	}
	c.byID[id] = &chat{sess: sess, used: c.uses}
	if len(c.byID) > c.max {
		oldest := id
		for k, ch := range c.byID {
			if ch.used < c.byID[oldest].used {
				oldest = k
			}
		}
		delete(c.byID, oldest)
	}
	return sess
}

// writeJSON writes v as a JSON response. An encode failure after the
// headers are sent cannot reach the client, so it is logged.
func (s *JobServer) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("encoding response body", "err", err)
	}
}

const navLink = `<p style="margin-top:2rem"><a href="/">&larr; all jobs</a></p>`

const pendingPage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ION — job status</title>
<meta http-equiv="refresh" content="2"></head>
<body style="font-family:system-ui,sans-serif;max-width:42rem;margin:3rem auto">
<h1>Diagnosis of %s</h1>
<p>State: <strong>%s</strong> (attempt %d)</p>
<p style="color:#a33">%s</p>
<p>This page refreshes until job <code>%s</code> completes.</p>
%s
<p><a href="/">&larr; all jobs</a></p>
</body></html>
`

const indexPage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ION — analysis jobs</title></head>
<body style="font-family:system-ui,sans-serif;max-width:52rem;margin:3rem auto">
<h1>ION analysis service</h1>
<p>Upload a Darshan trace (binary container or darshan-parser text) to
queue a diagnosis, or POST it to <code>/api/jobs</code>.</p>
<p><input type="file" id="trace"> <button id="upload">Upload &amp; analyze</button>
<span id="upload-status"></span></p>
<table border="1" cellpadding="6" style="border-collapse:collapse;width:100%%">
<tr><th>trace</th><th>job</th><th>state</th><th>attempts</th><th>error</th></tr>
%s
</table>
<p style="color:#555">queue %d/%d &middot; workers busy %d/%d (%.0f%% utilized) &middot;
completed %d &middot; failed %d &middot; retries %d &middot; cache hits %d (%.0f%% hit rate)
&middot; recovered %d &middot; semantic hits %d &middot; conditioned %d
&middot; <a href="/api/stats">stats JSON</a> &middot; <a href="/api/semcache">semcache</a>
&middot; <a href="/metrics">metrics</a></p>
<p style="color:#555">LLM calls %d &middot; tokens %d in / %d out &middot; est. $%.4f
</p>
<script>
document.getElementById("upload").addEventListener("click", async function() {
  var f = document.getElementById("trace").files[0];
  var out = document.getElementById("upload-status");
  if (!f) { out.textContent = "pick a trace file first"; return; }
  out.textContent = "uploading…";
  try {
    var resp = await fetch("/api/jobs?name=" + encodeURIComponent(f.name), {
      method: "POST", body: await f.arrayBuffer()
    });
    if (!resp.ok) throw new Error(await resp.text());
    location.reload();
  } catch (err) { out.textContent = "error: " + err; }
});
</script>
</body></html>
`
