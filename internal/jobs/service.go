package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	mathrand "math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ion/internal/darshan"
	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/journal"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/quality"
	"ion/internal/semcache"
)

// Config assembles a Service.
type Config struct {
	// Dir is the data directory for the persistent store (required).
	Dir string
	// Client is the language-model backend analyses run against
	// (required).
	Client llm.Client
	// Workers is the worker-pool size; 0 or negative means the default
	// (2). A paused pool for tests is requested explicitly via Paused.
	Workers int
	// Paused starts the service with no workers: jobs queue and persist
	// but never run. Used by tests and by recovery drills.
	Paused bool
	// QueueDepth bounds queued-but-unstarted jobs; Submit returns
	// ErrQueueFull beyond it. 0 or negative means the default (16).
	// Open refuses a QueueDepth plus Workers that reaches the job
	// table's bound (4096 records).
	QueueDepth int
	// JobTimeout bounds one analysis attempt; 0 means the default (5m).
	JobTimeout time.Duration
	// MaxAttempts bounds analysis attempts per job, counting the first;
	// 0 means the default (3).
	MaxAttempts int
	// ParseWorkers bounds how many segments of one trace parse at once;
	// with a body's known length it sizes the segments (see
	// darshan.StreamOptions). 0 or negative means GOMAXPROCS.
	ParseWorkers int
	// StreamMaxBuffer bounds the total trace bytes held by in-flight
	// ingests: every upload, whichever route or method it came by, and
	// a worker's re-read of a stored trace. An upload that would pass it
	// is refused with ErrStreamBusy; a re-read is charged but never
	// refused. 0 means the default (256 MiB); negative disables the
	// bound.
	StreamMaxBuffer int64
	// SemCache, when non-nil, enables semantic reuse: after the
	// exact-hash dedup misses, a completed diagnosis whose counter
	// signature is similar enough to the new trace's is served
	// verbatim (above SemReuseThreshold) or injected into the LLM
	// prompts as retrieved context (above SemConditionThreshold).
	// Completed fan-out runs are indexed back into the store.
	SemCache *semcache.Store
	// SemReuseThreshold is the cosine similarity at or above which a
	// neighbor's report is served verbatim; 0 means the default
	// (0.995). Set above 1 to disable the verbatim tier.
	SemReuseThreshold float64
	// SemConditionThreshold is the cosine similarity at or above which
	// a neighbor's conclusions condition the LLM prompts; 0 means the
	// default (0.90). Set above 1 to disable the conditioning tier.
	SemConditionThreshold float64
	// Quality, when non-nil, enables the diagnosis-quality observatory:
	// every successful diagnosis is scored against the iongen
	// ground-truth labels when the trace name identifies a bundled
	// workload, the scorecard is journaled in this store, and the
	// shadow flip gauges are refreshed.
	Quality *quality.Store
	// ShadowSampleRate is the fraction of semcache-reused and
	// conditioned jobs whose diagnosis is re-run through full fan-out
	// in the background to measure verdict flips; a flip revokes the
	// semantic-cache entry the job derived from. 0 disables shadow
	// re-runs; values above 1 shadow everything.
	ShadowSampleRate float64
	// Ledger, when non-nil, is the LLM audit ledger the service reads
	// for per-job cost attribution (Job.Cost) and cumulative LLM totals
	// in Stats. The ledger is written by the ledger.Wrap client, which
	// must wrap the same Client analyses run against.
	Ledger *ledger.Store
	// Obs receives the service's metrics: queue/worker gauges, outcome
	// counters, and per-stage pipeline latency histograms. nil uses a
	// private registry (instrumentation always runs, nothing is
	// exported). The gauges read the same fields Stats reports, so
	// /metrics and /api/stats cannot disagree.
	Obs *obs.Registry
	// OnTimeline, when set, receives every completed job's span timeline
	// (after it is persisted), with Timeline.Trace set to the job id.
	// The flight recorder's tail-sampler hangs off this hook. Called
	// from worker goroutines; must be cheap and concurrency-safe.
	OnTimeline func(obs.Timeline)
	// Logger receives structured job-lifecycle logs with job id, trace
	// hash, and attempt attributes. nil discards.
	Logger *slog.Logger
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Paused {
		c.Workers = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.ParseWorkers <= 0 {
		c.ParseWorkers = runtime.GOMAXPROCS(0)
	}
	if c.StreamMaxBuffer == 0 {
		c.StreamMaxBuffer = defaultStreamMaxBuffer
	}
	if c.SemReuseThreshold == 0 {
		c.SemReuseThreshold = defaultSemReuseThreshold
	}
	if c.SemConditionThreshold == 0 {
		c.SemConditionThreshold = defaultSemConditionThreshold
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
}

// Service is the asynchronous analysis engine: a journaled job table, a
// store for the jobs' files, a bounded queue, and a pool of workers
// running the ion pipeline.
type Service struct {
	cfg   Config
	store *Store
	jobs  *journal.Store[Job] // the job table; written through put, with mu held
	fw    *ion.Framework
	obs   *obs.Registry
	log   *slog.Logger
	sem   *semcache.Store // nil when semantic reuse is disabled
	// ledger is the LLM audit store cost attribution reads from (nil
	// when no ledger is configured).
	ledger *ledger.Store
	// semSim observes the best-match cosine similarity of every
	// semantic lookup (nil when semantic reuse is disabled).
	semSim *obs.Histogram
	// qual persists per-job scorecards (nil when quality tracking is
	// disabled).
	qual *quality.Store

	baseCtx context.Context // canceled to abort in-flight analyses
	abort   context.CancelFunc
	stop    chan struct{} // closed to tell idle workers to exit
	queue   chan string   // job ids awaiting a worker
	wg      sync.WaitGroup

	// Shadow re-run machinery: a non-blocking semaphore bounds
	// concurrency, a dedicated context cancels in-flight shadows at
	// Close (they are best-effort), and the WaitGroup lets Close drain
	// them before the caller closes the stores they write to.
	shadowSem    chan struct{}
	shadowCtx    context.Context
	shadowCancel context.CancelFunc
	shadowWG     sync.WaitGroup
	shadowSkips  *obs.Counter

	// Ingest instrumentation (see registerMetrics).
	parseShards    *obs.Counter
	parseMBps      *obs.Gauge
	streamSubs     *obs.Counter
	streamBytes    *obs.Counter
	streamStalls   *obs.Counter
	streamRejected *obs.Counter
	streamInflight atomic.Int64 // bytes reserved by in-flight ingests

	mu      sync.Mutex
	done    map[string]chan struct{} // unsettled jobs; closed and dropped when the job settles
	byHash  map[string]string        // trace hash → job id (dedup cache)
	closed  bool
	busy    int
	dropped map[string]Job // evicted records for settleEvictions, by id: a job's last eviction wins

	// parked hands each submission's parse to the worker that runs its
	// job, so a trace is parsed once. Keyed by job id, filled by admit
	// just before the enqueue and emptied by run; see maxParked.
	parked map[string]parsedTrace

	submitted, completed, failed, retried, cacheHits, recovered int64
}

// defaultStreamMaxBuffer bounds in-flight ingest memory.
const defaultStreamMaxBuffer = 256 << 20

// Retry backoff bounds (see backoff).
const (
	retryDelay    = 500 * time.Millisecond
	maxRetryDelay = 10 * time.Second
)

// maxParked bounds how many parsed submissions wait for their worker.
// A job admitted while the park is full is not parked; its worker
// parses the stored trace instead, and the entries of the jobs ahead
// of it stay put.
const maxParked = 8

// parsedTrace is a submission's parse waiting for the worker that runs
// its job.
type parsedTrace struct {
	log *darshan.Log
	// tracer holds the parse span and its parse_shard children; the
	// worker records the job's spans in it too.
	tracer *obs.Tracer
}

// Open starts a Service over cfg.Dir, recovering any jobs a previous
// process left queued or in flight (they restart as queued), and sweeps
// the store of what a crash left behind.
func Open(cfg Config) (*Service, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("jobs: Config.Client is required")
	}
	cfg.applyDefaults()
	if cfg.QueueDepth+cfg.Workers >= maxJobs {
		return nil, fmt.Errorf("jobs: queue depth plus workers must stay under the job table's %d records", maxJobs)
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	fw, err := ion.New(ion.Config{Client: cfg.Client})
	if err != nil {
		return nil, err
	}

	s := &Service{
		cfg:       cfg,
		store:     store,
		fw:        fw,
		obs:       cfg.Obs,
		log:       cfg.Logger,
		sem:       cfg.SemCache,
		ledger:    cfg.Ledger,
		qual:      cfg.Quality,
		stop:      make(chan struct{}),
		done:      map[string]chan struct{}{},
		byHash:    map[string]string{},
		dropped:   map[string]Job{},
		parked:    make(map[string]parsedTrace, maxParked),
		shadowSem: make(chan struct{}, shadowConcurrency),
	}
	if s.jobs, err = openJobs(cfg.Dir, func(j Job) { s.dropped[j.ID] = j }); err != nil {
		return nil, err
	}
	if err := importLegacy(cfg.Dir, s.jobs.Put); err != nil {
		s.jobs.Close()
		return nil, err
	}
	s.settleEvictions()
	s.baseCtx, s.abort = context.WithCancel(context.Background())
	s.shadowCtx, s.shadowCancel = context.WithCancel(s.baseCtx)

	var pending []Job
	s.jobs.Each(func(j Job) bool {
		if !j.State.Terminal() {
			pending = append(pending, j)
		}
		// Completed jobs seed the dedup cache; unsettled jobs join it too
		// so a resubmission coalesces onto the recovered job.
		if j.State != StateFailed && j.Hash != "" {
			s.byHash[j.Hash] = j.ID
		}
		return true
	})
	// Oldest first, so recovered work keeps its submission order.
	sort.Slice(pending, func(i, k int) bool {
		return pending[i].SubmittedAt.Before(pending[k].SubmittedAt)
	})
	// Recovered jobs must all fit alongside a full queue.
	s.queue = make(chan string, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		j.State = StateQueued
		j.Error = ""
		s.done[j.ID] = make(chan struct{})
		s.put(j)
		s.queue <- j.ID
		s.recovered++
	}
	store.sweep(s.jobs.Get)

	if s.recovered > 0 {
		s.log.Info("recovered interrupted jobs", "count", s.recovered)
	}
	s.registerMetrics()
	// The replayed scorecard journal already carries flip history;
	// publish it so the gauges are correct from the first scrape after
	// a restart.
	s.refreshQualityMetrics()
	s.log.Info("job service open", "dir", cfg.Dir, "workers", cfg.Workers,
		"queue_capacity", cfg.QueueDepth, "jobs", s.jobs.Len())

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// registerMetrics exposes the service state through the registry as
// callbacks, so /metrics always reflects the same fields Stats returns.
// The callbacks run at exposition time and take s.mu via Stats; nothing
// in the service calls the registry while holding s.mu, so there is no
// lock cycle.
func (s *Service) registerMetrics() {
	stat := func(get func(Stats) float64) func() float64 {
		return func() float64 { return get(s.Stats()) }
	}
	s.obs.GaugeFunc("ion_jobs_queue_depth", "Jobs queued but not yet running.",
		stat(func(st Stats) float64 { return float64(st.QueueDepth) }))
	s.obs.GaugeFunc("ion_jobs_queue_capacity", "Queue bound beyond which submissions shed load.",
		stat(func(st Stats) float64 { return float64(st.QueueCapacity) }))
	s.obs.GaugeFunc("ion_jobs_busy_workers", "Workers currently running a job.",
		stat(func(st Stats) float64 { return float64(st.Busy) }))
	s.obs.GaugeFunc("ion_jobs_workers", "Configured worker-pool size.",
		stat(func(st Stats) float64 { return float64(st.Workers) }))
	s.obs.CounterFunc("ion_jobs_submitted_total", "Accepted submissions, dedup hits included.",
		stat(func(st Stats) float64 { return float64(st.Submitted) }))
	s.obs.CounterFunc("ion_jobs_completed_total", "Jobs finished successfully.",
		stat(func(st Stats) float64 { return float64(st.Completed) }))
	s.obs.CounterFunc("ion_jobs_failed_total", "Jobs that exhausted their attempts.",
		stat(func(st Stats) float64 { return float64(st.Failed) }))
	s.obs.CounterFunc("ion_jobs_retries_total", "Analysis retry attempts.",
		stat(func(st Stats) float64 { return float64(st.Retried) }))
	s.obs.CounterFunc("ion_jobs_cache_hits_total", "Submissions answered from the dedup cache.",
		stat(func(st Stats) float64 { return float64(st.CacheHits) }))
	s.obs.CounterFunc("ion_jobs_recovered_total", "Jobs re-queued from disk at startup.",
		stat(func(st Stats) float64 { return float64(st.Recovered) }))
	// Derived SLO gauges: exported as ready-made ratios so the alert
	// rules and the dashboard need no division of their own, and every
	// consumer computes them from the same Stats methods.
	s.obs.GaugeFunc("ion_jobs_failure_ratio", "Failed / (Completed+Failed): fraction of finished jobs that failed.",
		stat(func(st Stats) float64 { return st.FailureRatio() }))
	s.obs.GaugeFunc("ion_jobs_utilization", "Busy / Workers: fraction of the worker pool in use.",
		stat(func(st Stats) float64 { return st.Utilization() }))
	s.obs.GaugeFunc("ion_jobs_queue_utilization", "QueueDepth / QueueCapacity: how close submissions are to shedding load.",
		stat(func(st Stats) float64 { return st.QueueUtilization() }))

	s.parseShards = s.obs.Counter("ion_parse_shards_total",
		"Trace-parse segments dispatched to the parse pool.")
	s.parseMBps = s.obs.Gauge("ion_parse_mb_per_s",
		"Throughput of the most recent trace parse, in MB/s.")
	s.obs.GaugeFunc("ion_parse_workers", "Configured parse-shard concurrency bound.",
		func() float64 { return float64(s.cfg.ParseWorkers) })
	s.streamSubs = s.obs.Counter("ion_stream_submissions_total",
		"Uploads read by the streaming ingest, whichever submit route or method they came by.")
	s.streamBytes = s.obs.Counter("ion_stream_bytes_total",
		"Trace bytes read by the streaming ingest: uploads, and stored traces a worker re-reads.")
	s.streamStalls = s.obs.Counter("ion_stream_backpressure_total",
		"Times an ingest blocked waiting for a parse worker.")
	s.streamRejected = s.obs.Counter("ion_stream_rejected_total",
		"Uploads shed because the ingest buffer budget was exhausted.")
	s.obs.GaugeFunc("ion_stream_inflight_bytes", "Bytes currently reserved by in-flight ingests.",
		func() float64 { return float64(s.streamInflight.Load()) })

	if s.sem != nil {
		s.obs.CounterFunc("ion_semcache_hits_total", "Jobs served verbatim from the semantic cache (zero LLM calls).",
			func() float64 { return float64(s.sem.Stats().Hits) })
		s.obs.CounterFunc("ion_semcache_conditioned_total", "Jobs whose prompts were conditioned on a similar prior diagnosis.",
			func() float64 { return float64(s.sem.Stats().Conditioned) })
		s.obs.CounterFunc("ion_semcache_misses_total", "Jobs that found no usable semantic neighbor and ran full fan-out.",
			func() float64 { return float64(s.sem.Stats().Misses) })
		s.obs.GaugeFunc("ion_semcache_entries", "Diagnoses currently indexed in the semantic cache.",
			func() float64 { return float64(s.sem.Len()) })
		s.obs.GaugeFunc("ion_semcache_bytes", "Estimated bytes retained by the semantic cache.",
			func() float64 { return float64(s.sem.Bytes()) })
		s.obs.GaugeFunc("ion_semcache_hit_ratio", "Semantic hits+conditioned over lookups; 0 before the first lookup.",
			func() float64 {
				st := s.sem.Stats()
				return float64(st.Hits+st.Conditioned) / float64(max(st.Hits+st.Conditioned+st.Misses, 1))
			})
		s.semSim = s.obs.Histogram("ion_semcache_similarity",
			"Best-match cosine similarity per semantic lookup.",
			[]float64{0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99, 0.995, 1})
	}

	if s.qual != nil {
		// The flip gauges are published by refreshQualityMetrics at Open
		// and after every scorecard write, one per reuse mode
		// (GaugeFunc carries no labels).
		s.shadowSkips = s.obs.Counter("ion_shadow_skips_total",
			"Shadow re-run candidates skipped because of queue pressure or the concurrency bound.")
		s.obs.GaugeFunc("ion_quality_scorecards", "Scorecards currently retained by the quality store.",
			func() float64 { return float64(s.qual.Len()) })
	}
}

// refreshQualityMetrics republishes the shadow flip gauges from the
// scorecard store. Called after every scorecard write and once at Open
// (so replayed history survives restarts).
func (s *Service) refreshQualityMetrics() {
	if s.qual == nil {
		return
	}
	fs := s.qual.FlipStats()
	for _, m := range []quality.Mode{quality.ModeVerbatim, quality.ModeConditioned} {
		s.obs.Gauge("ion_semcache_flip_ratio",
			"Fraction of shadow-rerun reused diagnoses whose verdicts flipped, per reuse mode.",
			obs.L("mode", string(m))).Set(fs[m].Ratio())
	}
}

// Store exposes the underlying store (read-only use by the web layer).
func (s *Service) Store() *Store { return s.store }

// Draining reports whether Close has begun: the service no longer
// accepts submissions and is waiting for in-flight work. The readiness
// endpoint turns this into a 503 so load balancers stop routing here.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// admit runs the second half of a submission: the dedup lookup, queue
// admission, the trace write and the job record. pre is the
// submission's parse, parked for the job's worker unless the park is
// full. Dedup hits and refusals write and park nothing.
//
// The trace is written outside s.mu, so Stats, Wait and the workers'
// updates never wait on it. Admission is checked before the write and
// again after it, because an identical upload may have been admitted,
// the queue filled or Close begun in between; then the trace just
// written is removed. A crash between the write and the record leaves
// a trace without a record, which Open's sweep removes.
func (s *Service) admit(name string, b body, pre parsedTrace) (Job, bool, error) {
	if name == "" {
		name = "trace-" + b.hash[:8]
	}
	s.mu.Lock()
	j, dedup, err := s.screen(name, b.hash)
	s.mu.Unlock()
	if dedup || err != nil {
		return j, dedup, err
	}
	id := newID()
	if err := s.store.PutTrace(id, b.segs...); err != nil {
		return Job{}, false, err
	}
	s.mu.Lock()
	if j, dedup, err := s.screen(name, b.hash); dedup || err != nil {
		s.mu.Unlock()
		s.store.removeInputs(id)
		return j, dedup, err
	}
	defer s.mu.Unlock()
	in := b.ingest
	j = Job{
		ID:          id,
		Trace:       name,
		Hash:        b.hash,
		State:       StateQueued,
		Ingest:      &in,
		SubmittedAt: time.Now().UTC(),
	}
	s.put(j)
	s.done[id] = make(chan struct{})
	s.byHash[b.hash] = id
	s.submitted++
	if len(s.parked) < maxParked {
		s.parked[id] = pre
	}
	// screen saw fewer than QueueDepth jobs queued under mu, and workers
	// only drain the queue, so the send cannot block.
	s.queue <- id
	s.log.Info("job submitted", "job", id, "trace", name, "hash", b.hash[:12],
		"bytes", in.Bytes, "shards", in.Shards, "parse_overlapped", in.ParseOverlapped,
		"queue_depth", len(s.queue))
	return j, false, nil
}

// screen is admit's check, under s.mu: ErrClosed once Close has begun,
// the earlier job on a dedup hit (counted), or ErrQueueFull when the
// queue is at capacity.
func (s *Service) screen(name, hash string) (Job, bool, error) {
	if s.closed {
		return Job{}, false, ErrClosed
	}
	if id, ok := s.byHash[hash]; ok {
		if j, ok := s.jobs.Get(id); ok && j.State != StateFailed {
			s.submitted++
			s.cacheHits++
			s.log.Info("submission answered from dedup cache",
				"job", id, "trace", name, "hash", hash[:12])
			return j, true, nil
		}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return Job{}, false, ErrQueueFull
	}
	return Job{}, false, nil
}

// Get returns a snapshot of one job.
func (s *Service) Get(id string) (Job, error) {
	j, ok := s.jobs.Get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	return j, nil
}

// List returns snapshots of all jobs, newest submission first.
func (s *Service) List() []Job {
	out := make([]Job, 0, s.jobs.Len())
	s.jobs.Each(func(j Job) bool {
		out = append(out, j)
		return true
	})
	sort.Slice(out, func(i, k int) bool {
		if !out[i].SubmittedAt.Equal(out[k].SubmittedAt) {
			return out[i].SubmittedAt.After(out[k].SubmittedAt)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Report returns the finished report for a done job. For a dedup alias
// the id is the cached job's id, so callers always read through Get.
func (s *Service) Report(id string) (*ion.Report, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	if !j.State.Succeeded() {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotDone, id, j.State)
	}
	return s.store.Report(id)
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// then returns the job snapshot.
func (s *Service) Wait(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	ch, unsettled := s.done[id]
	s.mu.Unlock()
	if unsettled {
		select {
		case <-ctx.Done():
			return Job{}, ctx.Err()
		case <-ch:
		}
	}
	return s.Get(id)
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:       s.cfg.Workers,
		Busy:          s.busy,
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		Jobs:          s.jobs.Len(),
		Submitted:     s.submitted,
		Completed:     s.completed,
		Failed:        s.failed,
		Retried:       s.retried,
		CacheHits:     s.cacheHits,
		Recovered:     s.recovered,
	}
	if tot := s.ledger.Totals(); tot.Calls > 0 {
		st.LLMCalls = tot.Calls
		st.LLMTokensIn = tot.TokensIn
		st.LLMTokensOut = tot.TokensOut
		st.LLMCostUSD = tot.CostUSD
	}
	return st
}

// SemCache exposes the semantic cache (nil when disabled); read-only
// use by the web layer.
func (s *Service) SemCache() *semcache.Store { return s.sem }

// SemThresholds returns the reuse and conditioning similarity
// thresholds in effect.
func (s *Service) SemThresholds() (reuse, condition float64) {
	return s.cfg.SemReuseThreshold, s.cfg.SemConditionThreshold
}

// Close shuts the service down gracefully: no new submissions are
// accepted, idle workers exit, and running analyses are drained. Jobs
// still queued stay persisted as queued and are recovered by the next
// Open. If ctx expires before the drain completes, in-flight analyses
// are aborted (their jobs retry on the next start).
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.shadowWG.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.log.Info("job service closing, draining workers")
	close(s.stop)
	// Shadow re-runs are best-effort: cancel them outright rather than
	// holding shutdown for a background fan-out, then wait for the
	// goroutines so nothing writes to the stores after Close returns,
	// and close the job table, whose records stay readable.
	s.shadowCancel()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.shadowWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return s.jobs.Close()
	case <-ctx.Done():
		s.abort()
		<-drained
		s.jobs.Close()
		return ctx.Err()
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		// A closed stop channel wins over more queued work, so shutdown
		// drains only the jobs already running.
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case id := <-s.queue:
			s.run(id)
		}
	}
}

// outcome is how a run settles its job: the terminal state (empty when
// the job was parked for recovery) and its cause, plus what the record
// stage attaches to the job in finish's terminal write and the shadow
// re-run it sampled, if any.
type outcome struct {
	state   State
	cause   error
	reuse   *Reuse
	cost    *Cost
	quality *Quality
	shadow  func()
}

// run executes one job in stages: ingest and extract (tables), the
// reuse decision, diagnosis and record (diagnose), then settle. The
// whole execution is traced; the span timeline is persisted next to
// the report (win or lose) and folded into the stage-latency
// histogram.
func (s *Service) run(id string) {
	s.mu.Lock()
	// Take the parked parse first, so no outcome below leaves it behind.
	pre := s.parked[id]
	delete(s.parked, id)
	j, ok := s.jobs.Get(id)
	if !ok || j.State.Terminal() {
		s.mu.Unlock()
		return
	}
	hash := j.Hash
	s.busy++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}()

	tracer := pre.tracer
	if tracer == nil {
		tracer = obs.NewTracer()
	}
	logger := s.log.With("job", id)
	ctx := obs.WithLogger(obs.WithTracer(s.baseCtx, tracer), logger)
	// Stamp the analysis context so every LLM call made on this job's
	// behalf is attributed to it in the audit ledger.
	ctx = llm.WithJobID(ctx, id)
	ctx, root := obs.StartSpan(ctx, "job", obs.L("job", id))
	// The submission's parse spans join the job's tree. They end before
	// the job span starts, so it still measures the run alone.
	root.AdoptRoots()

	var res outcome
	if out, err := s.tables(ctx, id, hash, pre.log); err != nil {
		logger.Error("job unrunnable", "err", err)
		res = outcome{state: StateFailed, cause: err}
	} else {
		res = s.diagnose(ctx, id, hash, out)
	}

	// Settle: the timeline is persisted before the terminal state is
	// applied, so the moment a watcher observes a terminal job its trace
	// is already readable. A job parked for recovery keeps its inputs.
	s.saveTimeline(id, tracer, root)
	if res.state == "" {
		return
	}
	s.finish(id, res)
	// A settled job keeps only its record, report and timeline. A shadow
	// re-run reads the work directory, so it removes the inputs itself.
	if res.shadow != nil {
		go res.shadow()
	} else {
		s.store.removeInputs(id)
	}
}

// tables runs the ingest and extract stages. A job whose submission
// parse was not parked (recovered, or admitted while the park was
// full) reads its stored trace through ingest, which must hash to the
// job's hash; the log's tables are then extracted into the job's own
// work directory.
func (s *Service) tables(ctx context.Context, id, hash string, log *darshan.Log) (*extractor.Output, error) {
	if log == nil {
		f, size, err := s.store.Trace(id)
		if err != nil {
			return nil, err
		}
		b, err := s.ingest(ctx, f, size, false)
		f.Close()
		if err != nil {
			return nil, err
		}
		if b.hash != hash {
			return nil, fmt.Errorf("jobs: stored trace of %s does not match its hash", id)
		}
		log = b.log
	}
	ectx, span := obs.StartSpan(ctx, "extract")
	out, err := extractor.ExtractToDirContext(ectx, log, s.store.WorkDir(id))
	span.SetError(err)
	span.End()
	return out, err
}

// saveTimeline closes the root span, persists the job's span timeline,
// feeds the stage-latency histogram (each observation carrying the job
// id as its exemplar), and offers the timeline to any OnTimeline hook.
func (s *Service) saveTimeline(id string, tracer *obs.Tracer, root *obs.Span) {
	root.End()
	tl := tracer.Timeline()
	tl.Trace = id
	if err := s.store.PutTimeline(id, tl); err != nil {
		s.log.Warn("persisting span timeline", "job", id, "err", err)
	}
	obs.ObserveStages(s.obs, tl)
	if s.cfg.OnTimeline != nil {
		s.cfg.OnTimeline(tl)
	}
}

// attempts runs the analysis over already-extracted tables. Extraction
// happens once in run; retries repeat only the analysis stage. It
// returns the terminal state to apply (and the report on success), or
// an empty state when the job was parked as queued for recovery.
func (s *Service) attempts(ctx context.Context, id string, out *extractor.Output, opts ion.AnalyzeOptions) (State, *ion.Report, error) {
	logger := obs.LoggerFrom(ctx)
	for attempt := 1; ; attempt++ {
		s.transition(id, StateRunning, attempt, "")
		logger.Info("analysis attempt starting", "attempt", attempt)
		actx, span := obs.StartSpan(ctx, "attempt", obs.L("n", strconv.Itoa(attempt)))
		actx = llm.WithAttempt(actx, attempt)
		tctx, cancel := context.WithTimeout(actx, s.cfg.JobTimeout)
		name := s.snapshotName(id)
		start := time.Now()
		rep, err := s.fw.AnalyzeExtractedOpts(tctx, out, name, opts)
		cancel()
		if err == nil {
			err = s.store.PutReport(id, rep)
		}
		span.SetError(err)
		span.End()
		if err == nil {
			logger.Info("job done", "attempt", attempt,
				"elapsed", time.Since(start).Round(time.Millisecond).String())
			return StateDone, rep, nil
		}
		if !s.retryable(err, attempt) {
			logger.Error("job failed", "attempt", attempt, "err", err)
			return StateFailed, nil, err
		}
		s.mu.Lock()
		s.retried++
		s.mu.Unlock()
		logger.Warn("attempt failed, retrying", "attempt", attempt, "err", err)
		s.transition(id, StateRetrying, attempt, err.Error())
		if !s.sleep(backoff(attempt)) {
			// Shutdown interrupted the backoff: park the job as queued so
			// the next Open recovers it.
			logger.Info("shutdown during backoff, parking job as queued", "attempt", attempt)
			s.transition(id, StateQueued, attempt, err.Error())
			return "", nil, nil
		}
	}
}

// retryable classifies a failure: shutdown cancellation is final,
// everything else (LLM hiccups, per-attempt timeouts) is transient
// until the attempt budget runs out.
func (s *Service) retryable(err error, attempt int) bool {
	if attempt >= s.cfg.MaxAttempts {
		return false
	}
	if s.baseCtx.Err() != nil || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// sleep waits d, returning false if shutdown interrupts the wait.
func (s *Service) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	case <-s.baseCtx.Done():
		return false
	}
}

func (s *Service) snapshotName(id string) string {
	if j, ok := s.jobs.Get(id); ok {
		return j.Trace
	}
	return id
}

// update is the one way a job record changes once admit has created
// it and Open has recovered it: under s.mu, change edits a copy of the
// record and put writes it, so records reach the journal in edit order.
// A record that turns terminal releases the job's waiters.
func (s *Service) update(id string, change func(*Job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs.Get(id)
	if !ok {
		return
	}
	change(&j)
	s.put(j)
	if ch, unsettled := s.done[id]; unsettled && j.State.Terminal() {
		delete(s.done, id)
		close(ch)
	}
}

// put writes j to the job table and settles the records its write
// evicted. A failed write still advances the job: the journal keeps the
// record live, and only a crash loses it. s.mu is held, or Open is
// running.
func (s *Service) put(j Job) {
	if err := s.jobs.Put(j); err != nil {
		s.log.Warn("persisting job record", "job", j.ID, "state", j.State, "err", err)
	}
	s.settleEvictions()
}

// settleEvictions deals with the records the job table's bound dropped.
// A settled job loses its report, timeline, dedup entry and
// semantic-cache entry. An unsettled job, which one long attempt can
// leave the oldest, is put back as the newest record; fewer jobs are
// unsettled than the bound holds (Open checks), so the put-backs end.
// s.mu is held, or Open is running.
func (s *Service) settleEvictions() {
	for id, j := range s.dropped {
		delete(s.dropped, id)
		if !j.State.Terminal() {
			if _, live := s.jobs.Get(id); !live {
				s.put(j) // settles what this write evicts, too
			}
			continue
		}
		if s.byHash[j.Hash] == j.ID {
			delete(s.byHash, j.Hash)
		}
		if err := s.sem.Revoke(semcache.Entry{TraceHash: j.Hash, JobID: j.ID}); err != nil {
			s.log.Warn("revoking an evicted job's semantic-cache entry", "job", j.ID, "err", err)
		}
		s.store.removeOutputs(j.ID)
	}
}

// transition moves a job to a non-terminal state and persists it.
func (s *Service) transition(id string, state State, attempt int, errMsg string) {
	s.update(id, func(j *Job) {
		j.State = state
		j.Attempts = attempt
		j.Error = errMsg
		if state == StateRunning && j.StartedAt.IsZero() {
			j.StartedAt = time.Now().UTC()
		}
	})
}

// finish moves a job to its terminal state with what the record stage
// attached, persists it, bumps the outcome counters, and releases
// waiters.
func (s *Service) finish(id string, res outcome) {
	s.update(id, func(j *Job) {
		j.State = res.state
		j.FinishedAt = time.Now().UTC()
		j.Error = ""
		if res.cause != nil {
			j.Error = res.cause.Error()
		}
		j.ReusedFrom, j.Cost, j.Quality = res.reuse, res.cost, res.quality
		switch res.state {
		case StateDone, StateReused:
			s.completed++
		case StateFailed:
			s.failed++
			// A failed job no longer answers dedup lookups.
			if s.byHash[j.Hash] == id {
				delete(s.byHash, j.Hash)
			}
		}
	})
}

// backoff computes the delay before retry attempt+1: retryDelay doubled
// per retry up to maxRetryDelay, with ±50% jitter.
func backoff(attempt int) time.Duration {
	d := retryDelay
	for i := 1; i < attempt && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay {
		d = maxRetryDelay
	}
	// Jitter in [d/2, 3d/2) de-synchronizes retry storms.
	return d/2 + time.Duration(mathrand.Int63n(int64(d)+1))
}

// newID returns a fresh job id: "j-" + 12 random hex chars.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived id rather than panicking the service.
		return fmt.Sprintf("j-%012x", time.Now().UnixNano()&0xffffffffffff)
	}
	return "j-" + hex.EncodeToString(b[:])
}
