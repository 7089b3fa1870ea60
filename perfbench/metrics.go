package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"ion/internal/prompt"
)

// metric is one reported number. A timing percentile is supported only
// when at least ten samples lie beyond it; otherwise, or when the
// workload produced no samples, it is printed as unsupported with its
// sample count and its value is 0.
type metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	N         int     `json:"n"`
	Supported bool    `json:"supported"`
}

type metricSet map[string]metric

// quantile sets name to the q-quantile of vals (scaled by scale), if
// the sample supports it.
func (ms metricSet) quantile(name, unit string, vals []float64, q, scale float64) {
	m := metric{Unit: unit, N: len(vals)}
	if len(vals) > 0 && float64(len(vals))*(1-q) >= 10-1e-9 {
		m.Value, m.Supported = percentile(vals, q)*scale, true
	}
	ms[name] = m
}

// value sets a metric that is not a percentile; n is its sample count
// and n == 0 marks it unsupported.
func (ms metricSet) value(name, unit string, v float64, n int) {
	m := metric{Unit: unit, N: n}
	if n > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
		m.Value, m.Supported = v, true
	}
	ms[name] = m
}

// percentile is the linearly interpolated q-quantile of vals.
func percentile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / 1e6 }

const mib = 1 << 20

var readRoutes = map[string]bool{"job": true, "report": true, "page": true, "list": true, "stats": true}

// endToEnd computes the user-visible metrics of one untraced pass.
// Definitions are shared by every workload; a metric with no samples
// on a workload is unsupported there.
func endToEnd(r *run) (metricSet, phaseCounts) {
	out := metricSet{}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = secs(d)
	}
	out.value("setup_s", "s", median(setups), len(setups))

	var jobLat, submitLat, readLat, askLat []float64
	var okJobs, calls, tokens, httpOps, httpOK, failedJobs int
	for _, o := range r.ops {
		switch {
		case o.route == "job_run":
			if o.job != "" {
				submitLat = append(submitLat, ms(o.submitted-o.due))
			}
			if o.state.Succeeded() {
				jobLat = append(jobLat, secs(o.end-o.due))
				okJobs++
				if o.created {
					c := r.calls[o.job]
					calls += c.calls
					tokens += c.tokens
				}
			} else if o.job != "" {
				failedJobs++
			}
		default:
			httpOps++
			if o.ok {
				httpOK++
				if readRoutes[o.route] {
					readLat = append(readLat, ms(o.end-o.sent))
				} else if o.route == "ask" {
					askLat = append(askLat, ms(o.end-o.sent))
				}
			}
		}
	}
	out.quantile("job_latency_p50_s", "s", jobLat, 0.5, 1)
	out.quantile("job_latency_p90_s", "s", jobLat, 0.9, 1)
	out.quantile("submit_latency_p50_ms", "ms", submitLat, 0.5, 1)
	out.quantile("submit_latency_p90_ms", "ms", submitLat, 0.9, 1)
	out.value("jobs_per_s", "1/s", float64(okJobs)/r.elapsed.Seconds(), okJobs)
	out.quantile("read_latency_p50_ms", "ms", readLat, 0.5, 1)
	out.quantile("read_latency_p99_ms", "ms", readLat, 0.99, 1)
	out.quantile("ask_latency_p50_ms", "ms", askLat, 0.5, 1)
	out.quantile("ask_latency_p90_ms", "ms", askLat, 0.9, 1)
	out.value("llm_calls_per_job", "calls", float64(calls)/float64(okJobs), okJobs)
	out.value("llm_tokens_per_job", "tokens", float64(tokens)/float64(okJobs), okJobs)

	// An op is a job, or an HTTP request in interactive.
	var pc phaseCounts
	if r.workload == "interactive" {
		pc = phaseCounts{Attempted: httpOps, Succeeded: httpOK, Failed: httpOps - httpOK + failedJobs}
	} else {
		for _, o := range r.ops {
			if o.route == "job_run" {
				pc.Attempted++
				if o.ok {
					pc.Succeeded++
				}
			}
		}
		pc.Failed = pc.Attempted - pc.Succeeded
	}
	out.value("cpu_ms_per_op", "ms", ms(r.cpu)/float64(pc.Succeeded), pc.Succeeded)
	out.value("heap_live_mb", "MiB", float64(r.heapLive)/mib, 1)
	out.value("failed_ops_share", "ratio", float64(pc.Failed)/float64(pc.Attempted), pc.Attempted)
	out.value("verdict_match_share", "ratio", float64(r.matched)/float64(r.checked), r.checked)
	return out, pc
}

// criticalWaitShare is, per fresh job, the model wait on its critical
// path (slowest diagnosis plus the summary) over its run time from
// StartedAt to FinishedAt; it returns the median and the job count.
func criticalWaitShare(r *run) (float64, int) {
	var shares []float64
	for id, j := range r.jobs {
		c := r.calls[id]
		run := j.FinishedAt.Sub(j.StartedAt)
		if j.StartedAt.IsZero() || run <= 0 || c.summary == 0 {
			continue
		}
		shares = append(shares, float64(c.maxDiagnosis+c.summary)/float64(run))
	}
	if len(shares) == 0 {
		return 0, 0
	}
	return median(shares), len(shares)
}

// runtimeSample is one read of the Go runtime's own metrics.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	heapObjects     uint64
	goroutines      uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), totalCPU: f(1), allocBytes: u(2), heapObjects: u(3), goroutines: u(4)}
}

// perLayer computes the traced pass's per-layer metrics. e2eBase is the
// untraced pass's end-to-end metrics for the same seed, for the
// tracing overhead.
func perLayer(r *run, e2eTraced, e2eBase metricSet) metricSet {
	out := metricSet{}
	ex := r.traced
	phaseStart := r.spansPhaseStart
	phaseEnd := phaseStart + r.elapsed
	var spans []span
	for _, s := range r.spans {
		if s.Start >= phaseStart && s.Start <= phaseEnd && s.End >= s.Start {
			spans = append(spans, s)
		}
	}
	self := selfTimes(spans)
	byName := map[string][]int{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	durs := func(name string, useSelf bool, keep func(span) bool) []float64 {
		var out []float64
		for _, i := range byName[name] {
			if keep != nil && !keep(spans[i]) {
				continue
			}
			d := spans[i].dur()
			if useSelf {
				d = self[i]
			}
			out = append(out, float64(d))
		}
		return out
	}
	route := func(rt string) func(span) bool { return func(s span) bool { return s.Kind == rt } }
	const toMS, toUS = 1e-6, 1e-3

	// webui: the harness's HTTP client, per route.
	out.quantile("webui.submit_p50_ms", "ms", durs("http", false, route("submit")), 0.5, toMS)
	out.quantile("webui.submit_p90_ms", "ms", durs("http", false, route("submit")), 0.9, toMS)
	out.quantile("webui.stream_submit_p50_ms", "ms", durs("http", false, route("stream_submit")), 0.5, toMS)
	out.quantile("webui.stream_submit_p90_ms", "ms", durs("http", false, route("stream_submit")), 0.9, toMS)
	out.quantile("webui.report_p50_ms", "ms", durs("http", false, route("report")), 0.5, toMS)
	out.quantile("webui.report_p99_ms", "ms", durs("http", false, route("report")), 0.99, toMS)
	out.quantile("webui.page_p50_ms", "ms", durs("http", false, route("page")), 0.5, toMS)
	out.quantile("webui.page_p99_ms", "ms", durs("http", false, route("page")), 0.99, toMS)
	out.quantile("webui.list_p50_ms", "ms", durs("http", false, route("list")), 0.5, toMS)
	// Ask overhead: the ask minus the chat completion inside it (asks
	// are serialized server-wide, so at most one chat call is open).
	var chats []span
	for _, i := range byName["chain.instrument"] {
		if spans[i].Kind == prompt.KindChat {
			chats = append(chats, spans[i])
		}
	}
	var overhead []float64
	for _, i := range byName["http"] {
		a := spans[i]
		if a.Kind != "ask" || a.N != 200 {
			continue
		}
		for _, c := range chats {
			if c.Start >= a.Start && c.End <= a.End {
				overhead = append(overhead, float64(a.dur()-c.dur()))
				break
			}
		}
	}
	out.quantile("webui.ask_overhead_p50_ms", "ms", overhead, 0.5, toMS)
	out.quantile("webui.ask_overhead_p90_ms", "ms", overhead, 0.9, toMS)
	errs, refused, submits, dedups := 0, 0, 0, 0
	for _, o := range r.ops {
		if o.route != "job_run" && !o.ok {
			errs++
		}
		if o.status == 429 {
			refused++
		}
		if o.route == "job_run" && o.job != "" {
			submits++
			if o.dedup {
				dedups++
			}
		}
	}
	out.value("webui.errors", "count", float64(errs), len(r.ops))

	// jobs: records, /api/stats samples, /metrics counters.
	roots := map[string]span{}
	for _, i := range byName["job"] {
		roots[spans[i].Job] = spans[i]
	}
	var queueWait, runTime []float64
	for id, j := range r.jobs {
		root, ok := roots[id]
		if !ok {
			continue
		}
		submitted := j.SubmittedAt.Sub(r.tracerEpoch)
		queueWait = append(queueWait, float64(root.Start-submitted))
		runTime = append(runTime, float64(j.FinishedAt.Sub(r.tracerEpoch)-root.Start))
	}
	out.quantile("jobs.queue_wait_p50_ms", "ms", queueWait, 0.5, toMS)
	out.quantile("jobs.queue_wait_p90_ms", "ms", queueWait, 0.9, toMS)
	out.quantile("jobs.run_p50_ms", "ms", runTime, 0.5, toMS)
	out.quantile("jobs.run_p90_ms", "ms", runTime, 0.9, toMS)
	var busy float64
	qmax := 0
	for _, s := range ex.statsSamples {
		busy += float64(s.Busy) / float64(max(s.Workers, 1))
		qmax = max(qmax, s.QueueDepth)
	}
	n := len(ex.statsSamples)
	out.value("jobs.busy_share", "ratio", busy/float64(n), n)
	out.value("jobs.queue_depth_max", "count", float64(qmax), n)
	out.value("jobs.dedup_share", "ratio", float64(dedups)/float64(submits), submits)
	out.value("jobs.refused", "count", float64(refused), len(r.ops))
	retries := 0.0
	if n > 1 {
		retries = float64(ex.statsSamples[n-1].Retried - ex.statsSamples[0].Retried)
	}
	out.value("jobs.retries", "count", retries, n)
	out.value("jobs.open_ms", "ms", median(durList(r.openTimes["jobs"]))*toMS, len(r.openTimes["jobs"]))
	out.quantile("jobs.report_read_p50_ms", "ms", afterPhase(r, "report_read"), 0.5, toMS)
	delta := func(name string) float64 { return ex.metricsAfter[name] - ex.metricsBefore[name] }
	hits, misses := delta("ion_extract_cache_hits_total"), delta("ion_extract_cache_misses_total")
	out.value("jobs.extract_cache_hit_share", "ratio", hits/(hits+misses), int(hits+misses))

	// darshan.
	parse := durs("parse", true, nil)
	out.quantile("darshan.parse_p50_ms", "ms", parse, 0.5, toMS)
	out.quantile("darshan.parse_p90_ms", "ms", parse, 0.9, toMS)
	var parsedBytes, parseNS float64
	shards := map[int]int{}
	for _, i := range byName["parse_shard"] {
		shards[spans[i].Parent]++
	}
	var shardCounts []float64
	for _, i := range byName["parse"] {
		if j, ok := r.jobs[spans[i].Job]; ok && j.Ingest != nil {
			parsedBytes += float64(j.Ingest.Bytes)
			parseNS += float64(self[i])
		}
		shardCounts = append(shardCounts, float64(shards[spans[i].ID]))
	}
	out.value("darshan.parse_mb_per_s", "MB/s", parsedBytes/1e6/(parseNS/1e9), len(byName["parse"]))
	out.value("darshan.shards_per_job", "count", mean(shardCounts), len(shardCounts))
	out.quantile("darshan.validate_parse_p50_ms", "ms", afterPhase(r, "validate_parse"), 0.5, toMS)
	out.value("darshan.stream_backpressure", "count", delta("ion_stream_backpressure_total"), 1)

	// extractor.
	extract := durs("extract", true, nil)
	out.quantile("extractor.extract_p50_ms", "ms", extract, 0.5, toMS)
	out.quantile("extractor.extract_p90_ms", "ms", extract, 0.9, toMS)
	var wd []float64
	for _, b := range ex.workdirBytes {
		wd = append(wd, float64(b)/mib)
	}
	out.value("extractor.workdir_mb_per_job", "MiB", mean(wd), len(wd))

	// semcache.
	lookup := durs("semcache_lookup", true, nil)
	out.quantile("semcache.lookup_p50_ms", "ms", lookup, 0.5, toMS)
	out.quantile("semcache.lookup_p90_ms", "ms", lookup, 0.9, toMS)
	lookups := float64(ex.semAfter.Lookups - ex.semBefore.Lookups)
	out.value("semcache.hit_share", "ratio", float64(ex.semAfter.Hits-ex.semBefore.Hits)/lookups, int(lookups))
	out.value("semcache.conditioned_share", "ratio", float64(ex.semAfter.Conditioned-ex.semBefore.Conditioned)/lookups, int(lookups))
	out.value("semcache.entries", "count", float64(ex.semAfter.Entries), 1)
	out.value("semcache.open_ms", "ms", median(durList(r.openTimes["semcache"]))*toMS, len(r.openTimes["semcache"]))

	// ion.
	out.quantile("ion.attempt_p50_ms", "ms", durs("attempt", true, nil), 0.5, toMS)
	analyze := durs("analyze", false, nil)
	out.quantile("ion.analyze_p50_ms", "ms", analyze, 0.5, toMS)
	out.quantile("ion.analyze_p90_ms", "ms", analyze, 0.9, toMS)
	out.quantile("ion.diagnose_self_p50_ms", "ms", durs("diagnose", true, nil), 0.5, toMS)
	var strag []float64
	for _, d := range stragglers(spans) {
		strag = append(strag, float64(d))
	}
	out.quantile("ion.straggler_p50_ms", "ms", strag, 0.5, toMS)
	out.quantile("ion.summarize_p50_ms", "ms", durs("summarize", true, nil), 0.5, toMS)
	var attempts []float64
	for _, j := range r.jobs {
		if j.Attempts > 0 {
			attempts = append(attempts, float64(j.Attempts))
		}
	}
	out.value("ion.attempts_per_job", "count", mean(attempts), len(attempts))

	// llm: the wrappers between the layers of the client chain.
	var calls = map[string]int{}
	var promptTok, complTok []float64
	shadowJobs := map[string]bool{}
	for _, i := range byName["chain.instrument"] {
		s := spans[i]
		if isShadow(s.Job) {
			calls["shadow"]++
			shadowJobs[s.Job] = true
		} else {
			calls[s.Kind]++
		}
		promptTok = append(promptTok, float64(s.N))
		complTok = append(complTok, float64(s.M))
	}
	nCalls := len(byName["chain.instrument"])
	out.value("llm.calls_diagnosis", "calls", float64(calls[prompt.KindDiagnosis]), 1)
	out.value("llm.calls_summary", "calls", float64(calls[prompt.KindSummary]), 1)
	out.value("llm.calls_chat", "calls", float64(calls[prompt.KindChat]), 1)
	out.value("llm.calls_shadow", "calls", float64(calls["shadow"]), 1)
	out.value("llm.prompt_tokens_per_call", "tokens", mean(promptTok), nCalls)
	out.value("llm.completion_tokens_per_call", "tokens", mean(complTok), nCalls)
	out.value("llm.inflight_max", "calls", float64(ex.maxInflight), 1)
	out.quantile("llm.model_wait_p50_ms", "ms", durs("chain.wait", true, nil), 0.5, toMS)
	out.quantile("llm.instrument_self_p99_us", "us", durs("chain.instrument", true, nil), 0.99, toUS)

	// ledger.
	wrapSelf := durs("chain.ledger", true, nil)
	out.quantile("ledger.wrap_self_p50_us", "us", wrapSelf, 0.5, toUS)
	out.quantile("ledger.wrap_self_p99_us", "us", wrapSelf, 0.99, toUS)
	out.value("ledger.entries", "count", float64(ex.ledgerEntries), 1)
	out.value("ledger.open_ms", "ms", median(durList(r.openTimes["ledger"]))*toMS, len(r.openTimes["ledger"]))

	// expertsim: compute only, the innermost wrapper.
	kind := func(k string) func(span) bool { return func(s span) bool { return s.Kind == k } }
	diag := durs("chain.expertsim", false, kind(prompt.KindDiagnosis))
	out.quantile("expertsim.diagnosis_p50_ms", "ms", diag, 0.5, toMS)
	out.quantile("expertsim.diagnosis_p90_ms", "ms", diag, 0.9, toMS)
	out.quantile("expertsim.summary_p50_ms", "ms", durs("chain.expertsim", false, kind(prompt.KindSummary)), 0.5, toMS)
	out.quantile("expertsim.chat_p50_ms", "ms", durs("chain.expertsim", false, kind(prompt.KindChat)), 0.5, toMS)

	// quality.
	score := durs("quality_score", true, nil)
	out.quantile("quality.score_p50_ms", "ms", score, 0.5, toMS)
	out.quantile("quality.score_p90_ms", "ms", score, 0.9, toMS)
	out.value("quality.shadow_runs", "count", float64(len(shadowJobs)), 1)
	out.value("quality.shadow_skips", "count", delta("ion_shadow_skips_total"), 1)
	out.value("quality.open_ms", "ms", median(durList(r.openTimes["quality"]))*toMS, len(r.openTimes["quality"]))

	// obs.
	scrape := durs("scrape", false, nil)
	out.quantile("obs.scrape_p50_ms", "ms", scrape, 0.5, toMS)
	out.value("obs.scrape_max_ms", "ms", maxOf(scrape)*toMS, len(scrape))
	out.quantile("obs.exposition_p50_ms", "ms", durs("exposition", false, nil), 0.5, toMS)
	out.quantile("obs.offer_timeline_p99_us", "us", durs("offer_timeline", false, nil), 0.99, toUS)
	out.value("obs.prof_cycles", "count", float64(ex.profCycles), 1)
	out.value("obs.alerts_fired", "count", float64(ex.alertsFired), 1)
	out.value("obs.incidents", "count", float64(ex.incidents), 1)
	key := "job_latency_p50_s"
	if r.workload == "interactive" {
		key = "read_latency_p50_ms"
	}
	t, b := e2eTraced[key], e2eBase[key]
	ok := 0
	if t.Supported && b.Supported && b.Value > 0 {
		ok = 1
	}
	out.value("obs.tracing_overhead_share", "ratio", t.Value/b.Value-1, ok)

	// runtime and load.
	rs := ex.runtimeSamples
	if len(rs) > 1 {
		first, last := rs[0], rs[len(rs)-1]
		out.value("runtime.gc_cpu_share", "ratio", (last.gcCPU-first.gcCPU)/(last.totalCPU-first.totalCPU), len(rs))
		ops := 0
		for _, o := range r.ops {
			if o.ok && (o.route == "job_run") == (r.workload != "interactive") {
				ops++
			}
		}
		out.value("runtime.alloc_mb_per_op", "MiB", float64(last.allocBytes-first.allocBytes)/mib/float64(ops), ops)
	} else {
		out.value("runtime.gc_cpu_share", "ratio", 0, 0)
		out.value("runtime.alloc_mb_per_op", "MiB", 0, 0)
	}
	var peak, gor float64
	for _, s := range rs {
		peak = math.Max(peak, float64(s.heapObjects)/mib)
		gor = math.Max(gor, float64(s.goroutines))
	}
	out.value("runtime.heap_peak_mb", "MiB", peak, len(rs))
	out.value("runtime.goroutines_max", "count", gor, len(rs))
	var lag []float64
	if r.workload == "fresh-diagnosis" {
		for _, o := range r.ops {
			if o.route == "job_run" {
				lag = append(lag, float64(o.sent-o.due))
			}
		}
	}
	out.quantile("load.generator_lag_p99_ms", "ms", lag, 0.99, toMS)
	return out
}

// afterPhase returns the durations of the spans named name that the
// traced run timed after its timed phase, on an idle service.
func afterPhase(r *run, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.Start > r.spansPhaseStart+r.elapsed {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func durList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	if len(out) == 0 {
		return []float64{math.NaN()}
	}
	return out
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func maxOf(vals []float64) float64 {
	m := math.NaN()
	for _, v := range vals {
		if math.IsNaN(m) || v > m {
			m = v
		}
	}
	return m
}

// layerOf is the layer a per-layer metric belongs to, for printing.
func layerOf(name string) string { return strings.SplitN(name, ".", 2)[0] }
