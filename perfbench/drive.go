package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	mathrand "math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ion/internal/darshan"
	"ion/internal/eval"
	"ion/internal/ion"
	"ion/internal/jobs"
	"ion/internal/obs"
)

// harness drives one workload through one stack per set-up round.
type harness struct {
	fams   []*family
	client *http.Client // the load: at most conns connections
	// own carries the harness's sampling and read-back requests on a
	// connection of its own, so they neither wait behind nor add to
	// the load.
	own     *http.Client
	conns   int
	seed    int64
	seconds int
	dataDir string  // parent of every stack's data directory
	tr      *tracer // nil in untraced runs

	mu    sync.Mutex
	start time.Time // timed phase start; zero during set-up
	ops   []op
	// checked counts served reports compared with ground truth; matched
	// those whose verdicts equal it.
	checked, matched int
	badOutput        []string
	// reuseMismatch notes semantic-cache-derived reports that disagree
	// with ground truth (the first 20).
	reuseMismatch []string
	// parsed are the traced run's first submissions, re-parsed after
	// the timed phase.
	parsed []upload
}

// op is one HTTP request, or one job carried from upload to a checked
// report.
type op struct {
	route string // submit, stream_submit, report, page, job, list, stats, ask, job_run
	job   string
	fam   int
	ok    bool // a 2xx response; for job ops, a served report
	// status is the HTTP status (0 on a transport error).
	status int
	// Times are offsets from the timed phase start.
	due, sent, end time.Duration
	// Job ops only: the submit response and the terminal state.
	submitted time.Duration
	dedup     bool
	created   bool // the submission created a new job
	state     jobs.State
}

func (h *harness) since(t time.Time) time.Duration { return t.Sub(h.start) }

func (h *harness) record(o op) {
	h.mu.Lock()
	h.ops = append(h.ops, o)
	h.mu.Unlock()
}

func (h *harness) bad(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.badOutput) < 20 {
		h.badOutput = append(h.badOutput, fmt.Sprintf(format, args...))
	}
}

// request sends one HTTP request, timing it as an op (and a span in the
// traced run). It returns the body of a 2xx response.
func (h *harness) request(st *stack, route, job, method, path string, body io.Reader, size int64) ([]byte, int, error) {
	return h.call(st, route, job, method, path, body, size, true)
}

// fetch is request for the harness's own reads (sampling, read-back):
// they are not workload operations.
func (h *harness) fetch(st *stack, route, path string) ([]byte, error) {
	data, _, err := h.call(st, route, "", http.MethodGet, path, nil, 0, false)
	return data, err
}

func (h *harness) call(st *stack, route, job, method, path string, body io.Reader, size int64, record bool) ([]byte, int, error) {
	req, err := http.NewRequest(method, st.base+path, body)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.ContentLength = size // -1: chunked
	}
	sid := h.tr.begin("http", job, route, -1)
	client := h.client
	if !record {
		client = h.own
	}
	start := time.Now()
	resp, err := client.Do(req)
	var data []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	h.tr.end(sid, "", int64(status), 0)
	ok := err == nil && status/100 == 2
	if record && !h.start.IsZero() {
		h.record(op{route: route, job: job, ok: ok, status: status, due: h.since(start), sent: h.since(start), end: h.since(end)})
	}
	if err != nil {
		return nil, status, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if !ok {
		return nil, status, fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	return data, status, nil
}

// chunked hands a body over at most streamChunk bytes per read, the
// way a piped `curl -T -` upload arrives.
type chunked struct{ r io.Reader }

func (c chunked) Read(p []byte) (int, error) {
	if len(p) > streamChunk {
		p = p[:streamChunk]
	}
	return c.r.Read(p)
}

// submitResponse mirrors the POST /api/jobs wire type.
type submitResponse struct {
	Job   jobs.Job `json:"job"`
	Dedup bool     `json:"dedup"`
}

// runJob carries one upload from its due time to a checked report:
// POST it, wait in-process until jobs.Service.Wait returns it terminal,
// GET its report and compare the verdicts with the family's ground
// truth.
func (h *harness) runJob(st *stack, u upload, due time.Time) op {
	o := op{route: "job_run", fam: u.fam, due: h.since(due)}
	defer func() { h.record(o) }()
	route, path, size := "submit", "/api/jobs", u.size()
	var body io.Reader = u.reader()
	if u.stream {
		route, path, size = "stream_submit", "/api/jobs/stream", -1
		body = chunked{body}
	}
	path += "?name=" + url.QueryEscape(u.name())
	o.sent = h.since(time.Now())
	data, status, err := h.request(st, route, "", http.MethodPost, path, body, size)
	o.submitted, o.status = h.since(time.Now()), status
	if err != nil {
		h.bad("%v", err)
		return o
	}
	var sr submitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		h.bad("decoding submit response: %v", err)
		return o
	}
	o.job, o.dedup, o.created = sr.Job.ID, sr.Dedup, !sr.Dedup
	if h.tr != nil && !h.start.IsZero() {
		h.mu.Lock()
		if len(h.parsed) < readBackSample {
			h.parsed = append(h.parsed, u)
		}
		h.mu.Unlock()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sid := h.tr.begin("wait", o.job, "", -1)
	job, err := st.svc.Wait(ctx, o.job)
	h.tr.end(sid, "", 0, 0)
	o.end = h.since(time.Now())
	if err != nil {
		h.bad("waiting for %s: %v", o.job, err)
		return o
	}
	o.state = job.State
	if !job.State.Succeeded() {
		h.bad("job %s (%s) %s: %s", o.job, u.name(), job.State, job.Error)
		return o
	}
	o.ok = h.checkReport(st, o.job, u.fam)
	return o
}

// checkReport reads a job's report over HTTP and scores its verdicts
// against the family's ground truth. It reports whether the report was
// served. A full diagnosis with a wrong verdict is incorrect output; a
// report the semantic cache derived from a neighbor (served verbatim or
// conditioned on it) is scored into verdict_match_share only, since
// reuse trades exactness for cost by design and the quality
// observatory audits it.
func (h *harness) checkReport(st *stack, id string, fam int) bool {
	data, _, err := h.request(st, "report", id, http.MethodGet, "/api/jobs/"+id+"/report", nil, 0)
	if err != nil {
		h.bad("%v", err)
		return false
	}
	var rep ion.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		h.bad("decoding report of %s: %v", id, err)
		return false
	}
	w := h.fams[fam].w
	score := eval.ScoreION(w, &rep)
	h.mu.Lock()
	h.checked++
	if score.Perfect() {
		h.matched++
	}
	h.mu.Unlock()
	if score.Perfect() {
		return true
	}
	j, err := st.svc.Get(id)
	if err != nil || j.ReusedFrom == nil {
		h.bad("report of %s (%s, full diagnosis): %s %v", id, w.Name, score, score.Mismatches)
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.reuseMismatch) < 20 {
		h.reuseMismatch = append(h.reuseMismatch, fmt.Sprintf("report of %s (%s, %s from %s at similarity %.4f): %s %v",
			id, w.Name, j.ReusedFrom.Mode, j.ReusedFrom.From, j.ReusedFrom.Similarity, score, score.Mismatches))
	}
	return true
}

// readBackSample bounds how many submissions and reports the traced
// run re-times after the timed phase.
const readBackSample = 50

// timeValidateParse repeats Submit's untraced validation parse on the
// same bytes, so the traced run can report its cost. It runs after the
// timed phase, on an idle service.
func (h *harness) timeValidateParse(u upload) {
	data := u.bytes()
	sid := h.tr.begin("validate_parse", "", "", -1)
	if _, err := darshan.ReadBinary(bytes.NewReader(data)); err != nil {
		_, _ = darshan.ParseTextParallel(data, 0)
	}
	h.tr.end(sid, "", int64(len(data)), 0)
}

// setupJobs runs uploads through the stack as set-up traffic, conns at
// a time, each carried to a checked report. It returns the ops in
// upload order, failing if any job did not complete.
func (h *harness) setupJobs(st *stack, uploads []upload) ([]op, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	results := make([]op, len(uploads))
	for c := 0; c < h.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(uploads) {
					return
				}
				results[i] = h.runJob(st, uploads[i], time.Now())
			}
		}()
	}
	wg.Wait()
	for i, o := range results {
		if !o.state.Succeeded() {
			return results, fmt.Errorf("set-up job %d (%s) did not complete", i, uploads[i].name())
		}
	}
	return results, nil
}

// phaseCounts are operations attempted, succeeded and failed.
type phaseCounts struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// run is everything one pass over a workload measured.
type run struct {
	workload    string
	fingerprint string
	deckUsed    int // reuse-ingest: deck entries consumed
	setups      []time.Duration
	setupOps    phaseCounts
	elapsed     time.Duration // timed phase, until the last op finished
	ops         []op
	cpu         time.Duration
	heapLive    uint64
	checked     int
	matched     int
	badOutput   []string
	// reuseMismatch: see harness.reuseMismatch.
	reuseMismatch []string
	calls         map[string]jobCalls // model calls by job id
	openTimes     map[string][]time.Duration

	// jobs are the records of the jobs the timed phase created.
	jobs map[string]jobs.Job

	// Traced runs only: the spans, the tracer's epoch, and the timed
	// phase start on the tracer's clock.
	spans           []span
	traced          *tracedExtras
	tracerEpoch     time.Time
	spansPhaseStart time.Duration
}

// tracedExtras is what the traced run reads from the service after the
// timed phase.
type tracedExtras struct {
	workdirBytes           map[string]int64
	metricsBefore          map[string]float64
	metricsAfter           map[string]float64
	semBefore, semAfter    semStats
	ledgerEntries          int
	statsSamples           []jobs.Stats
	runtimeSamples         []runtimeSample
	profCycles             int64
	alertsFired, incidents int
	maxInflight            int64
}

type semStats struct {
	Entries     int   `json:"entries"`
	Lookups     int64 `json:"lookups"`
	Hits        int64 `json:"hits"`
	Conditioned int64 `json:"conditioned"`
}

// pass runs one workload once: set-up (setupRepeats times, keeping the
// last stack), the timed phase, and the traced run's read-back.
func (h *harness) pass(workload string, cfg serveConfig) (*run, error) {
	r := &run{workload: workload, openTimes: map[string][]time.Duration{}}
	h.mu.Lock()
	h.checked, h.matched, h.badOutput, h.reuseMismatch = 0, 0, nil, nil
	h.mu.Unlock()
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
		os.RemoveAll(h.dataDir)
	}()

	var (
		fresh *freshInputs
		reuse *reuseInputs
		inter *interactiveInputs
		err   error
	)
	// The service samples shadow re-runs from the global math/rand;
	// seeding it with a constant makes the k-th sampling decision of a
	// run the same in every run. (Seed takes effect because this
	// module's go line predates Go 1.24, which made it a no-op.)
	mathrand.Seed(1)
	fp := newFingerprint(workload, h.seed)
	switch workload {
	case "fresh-diagnosis":
		if fresh, err = makeFresh(h.fams, h.seed, h.seconds, fp); err != nil {
			return nil, err
		}
		// Verbatim and conditioning tiers off: lookup and index-back
		// still run, and every job takes the full diagnosis path.
		cfg.SemReuse, cfg.SemCondition = 1.5, 1.5
	case "reuse-ingest":
		reuse = makeReuse(h.fams, h.seed, fp)
	case "interactive":
		inter = makeInteractive(h.fams, h.seed, h.conns, fp)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	r.fingerprint = fp.sum()

	open := func(dir string) error {
		s, err := openStack(dir, cfg, modelWait, h.tr)
		if err != nil {
			return err
		}
		st = s
		for k, d := range s.openTimes {
			r.openTimes[k] = append(r.openTimes[k], d)
		}
		return nil
	}
	closeStack := func() error {
		err := st.close()
		st = nil
		return err
	}
	var targets []string // interactive: populated job ids, in upload order
	for round := 0; round < setupRepeats; round++ {
		dir := filepath.Join(h.dataDir, fmt.Sprintf("%s-%d", workload, round))
		t0 := time.Now()
		if err := open(dir); err != nil {
			return nil, err
		}
		var ups []upload
		switch workload {
		case "fresh-diagnosis":
			ups = fresh.warm
		case "reuse-ingest":
			ups = reuse.prewarm
		case "interactive":
			ups = inter.populate
		}
		ops, err := h.setupJobs(st, ups)
		r.setupOps.Attempted += len(ups)
		for _, o := range ops {
			if o.state.Succeeded() {
				r.setupOps.Succeeded++
			} else {
				r.setupOps.Failed++
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", round, err)
		}
		if workload == "interactive" {
			targets = targets[:0]
			for _, o := range ops {
				targets = append(targets, o.job)
			}
			// Restart over the same data directory: journal replay is
			// part of the set-up a user waits for.
			if err := closeStack(); err != nil {
				return nil, err
			}
			if err := open(dir); err != nil {
				return nil, err
			}
		}
		r.setups = append(r.setups, time.Since(t0))
		if round < setupRepeats-1 {
			if err := closeStack(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	h.mu.Lock()
	h.ops = nil
	h.mu.Unlock()

	// Timed phase.
	var ex *tracedExtras
	if h.tr != nil {
		ex = &tracedExtras{}
		ex.metricsBefore = h.scrapeMetrics(st)
		ex.semBefore = h.semStats(st)
	}
	st.maxInflight.Store(0)
	// Start every timed phase from a collected heap, so garbage left by
	// earlier set-up rounds is not collected, and charged, inside it.
	runtime.GC()
	stopDrive := make(chan struct{})
	var profCycles atomic.Int64
	waitDrive := st.drive(stopDrive, &profCycles)
	stopSample := make(chan struct{})
	sampled := make(chan struct{})
	if ex != nil {
		go func() {
			defer close(sampled)
			h.sample(st, ex, stopSample)
		}()
	} else {
		close(sampled)
	}
	cpu0 := cpuTime()
	h.mu.Lock()
	h.start = time.Now()
	h.mu.Unlock()

	h.traffic(st, workload, fresh, reuse, inter, targets)
	r.elapsed = time.Since(h.start)
	if reuse != nil {
		r.deckUsed = reuse.used
	}
	r.cpu = cpuTime() - cpu0
	close(stopSample)
	<-sampled
	close(stopDrive)
	waitDrive()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLive = ms.HeapAlloc

	if h.tr != nil {
		r.tracerEpoch, r.spansPhaseStart = h.tr.epoch, h.start.Sub(h.tr.epoch)
	}
	h.mu.Lock()
	r.ops, h.ops = h.ops, nil
	r.checked, r.matched, r.badOutput, r.reuseMismatch = h.checked, h.matched, h.badOutput, h.reuseMismatch
	h.start = time.Time{}
	h.mu.Unlock()
	r.calls = st.model.calls()
	r.jobs = map[string]jobs.Job{}
	for _, o := range r.ops {
		if o.route == "job_run" && o.created && o.job != "" {
			if j, err := st.svc.Get(o.job); err == nil {
				r.jobs[o.job] = j
			}
		}
	}

	if ex != nil {
		ex.profCycles = profCycles.Load()
		ex.maxInflight = st.maxInflight.Load()
		h.readBack(st, r, ex)
		r.traced = ex
	}
	if err := closeStack(); err != nil {
		return nil, err
	}
	if h.tr != nil {
		r.spans = h.tr.snapshot()
	}
	return r, nil
}

// traffic sends the timed phase's load and returns when every
// operation it started has finished: the fresh-diagnosis arrivals at
// their due times, or the closed-loop clients of reuse-ingest and
// interactive, each starting operations until the run's seconds are up.
func (h *harness) traffic(st *stack, workload string, fresh *freshInputs, reuse *reuseInputs, inter *interactiveInputs, targets []string) {
	deadline := h.start.Add(time.Duration(h.seconds) * time.Second)
	var wg sync.WaitGroup
	switch workload {
	case "fresh-diagnosis":
		for i, u := range fresh.uploads {
			due := h.start.Add(fresh.due[i])
			time.Sleep(time.Until(due))
			wg.Add(1)
			go func(u upload) {
				defer wg.Done()
				h.runJob(st, u, due)
			}(u)
		}
	case "reuse-ingest":
		var next atomic.Int64
		for c := 0; c < h.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					h.runJob(st, reuse.entry(int(next.Add(1)-1)), time.Now())
				}
			}()
		}
	case "interactive":
		for c := 0; c < h.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				visits := inter.visits(c)
				for time.Now().Before(deadline) {
					h.visit(st, visits(), targets)
				}
			}(c)
		}
	}
	wg.Wait()
}

// visit is one interactive user session on a populated job: read the
// job, its report and its page, ask the questions, now and then list
// jobs or read stats, and sometimes upload a new trace.
func (h *harness) visit(st *stack, v visit, targets []string) {
	id := targets[v.target]
	get := func(route, path string) []byte {
		data, _, err := h.request(st, route, id, http.MethodGet, path, nil, 0)
		if err != nil {
			h.bad("%v", err)
		}
		return data
	}
	get("job", "/api/jobs/"+id)
	h.checkReport(st, id, v.targetFam)
	if page := get("page", "/jobs/"+id); page != nil && !bytes.Contains(page, []byte("</html>")) {
		h.bad("job page of %s is not a complete HTML document", id)
	}
	for _, q := range v.questions {
		body, _ := json.Marshal(map[string]string{"question": q})
		data, _, err := h.request(st, "ask", id, http.MethodPost, "/api/jobs/"+id+"/ask", bytes.NewReader(body), int64(len(body)))
		if err != nil {
			h.bad("%v", err)
			continue
		}
		var ans struct {
			Answer string `json:"answer"`
		}
		if json.Unmarshal(data, &ans) != nil || strings.TrimSpace(ans.Answer) == "" {
			h.bad("empty answer from %s to %q", id, q)
		}
	}
	if v.list {
		get("list", "/api/jobs")
	}
	if v.stats {
		get("stats", "/api/stats")
	}
	if v.upload != nil {
		h.runJob(st, *v.upload, time.Now())
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// scrapeMetrics reads GET /metrics into `name{labels}` → value.
func (h *harness) scrapeMetrics(st *stack) map[string]float64 {
	sid := h.tr.begin("exposition", "", "", -1)
	data, err := h.fetch(st, "metrics", "/metrics")
	h.tr.end(sid, "", 0, 0)
	if err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func (h *harness) semStats(st *stack) semStats {
	var resp struct {
		Stats semStats `json:"stats"`
	}
	if data, err := h.fetch(st, "semcache", "/api/semcache"); err == nil {
		_ = json.Unmarshal(data, &resp)
	}
	return resp.Stats
}

// sample polls /api/stats and runtime/metrics every statsEvery, and
// GET /metrics every second time, until stop is closed.
func (h *harness) sample(st *stack, ex *tracedExtras, stop <-chan struct{}) {
	t := time.NewTicker(statsEvery)
	defer t.Stop()
	for i := 0; ; i++ {
		sid := h.tr.begin("stats_sample", "", "", -1)
		if data, err := h.fetch(st, "stats_sample", "/api/stats"); err == nil {
			var s jobs.Stats
			if json.Unmarshal(data, &s) == nil {
				ex.statsSamples = append(ex.statsSamples, s)
			}
		}
		h.tr.end(sid, "", 0, 0)
		sid = h.tr.begin("runtime_sample", "", "", -1)
		ex.runtimeSamples = append(ex.runtimeSamples, readRuntime())
		h.tr.end(sid, "", 0, 0)
		if i%2 == 0 {
			h.scrapeMetrics(st)
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// readBack collects what the traced run reads from the service after
// the timed phase: job records and timelines, work-dir sizes, counter
// deltas, semantic-cache stats, ledger size, alerts and incidents, and
// idle re-timings of Submit's validation parse and Service.Report.
func (h *harness) readBack(st *stack, r *run, ex *tracedExtras) {
	ex.metricsAfter = h.scrapeMetrics(st)
	ex.semAfter = h.semStats(st)
	ex.workdirBytes = map[string]int64{}
	var ids []string
	for id := range r.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ex.workdirBytes[id] = dirSize(st.svc.Store().WorkDir(id))
		data, err := h.fetch(st, "trace", "/api/jobs/"+id+"/trace")
		if err != nil {
			continue
		}
		var tl obs.Timeline
		if json.Unmarshal(data, &tl) == nil {
			tl.Trace = id
			h.tr.add(fromTimeline(tl, h.tr.epoch))
		}
	}
	for i, id := range ids {
		if i == readBackSample {
			break
		}
		h.tr.time("report_read", id, func() { _, _ = st.svc.Report(id) })
	}
	h.mu.Lock()
	parsed := h.parsed
	h.parsed = nil
	h.mu.Unlock()
	for _, u := range parsed {
		h.timeValidateParse(u)
	}
	ex.ledgerEntries = st.ledgerStore.Len()
	ex.alertsFired = int(st.alertsFired.Load())
	ex.incidents = len(st.rec.List())
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if info, err := d.Info(); err == nil && !d.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}
