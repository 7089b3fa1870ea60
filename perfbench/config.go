package main

import (
	"strconv"
	"time"

	"ion/internal/llm"
	"ion/internal/semcache"
)

// serveConfig is the subset of ionserve's settings the benchmark stack
// is built with. ionserveDefaults must equal the defaults `ionserve -h`
// prints; config_test.go builds cmd/ionserve and fails on any mismatch,
// so the benchmark never measures a configuration ionserve no longer
// ships.
type serveConfig struct {
	Workers           int
	Queue             int
	ParseWorkers      int
	StreamMaxBuffer   int64
	JobTimeout        time.Duration
	Retries           int
	LogLevel          string
	ScrapeInterval    time.Duration
	Retention         time.Duration
	IncidentRetention int
	CaptureCPUSeconds int
	ProfInterval      time.Duration
	ProfWindow        time.Duration
	ProfRetention     time.Duration
	LedgerCaptureText bool
	SemCache          bool
	SemReuse          float64
	SemCondition      float64
	SemMaxEntries     int
	SemMaxBytes       int64
	Quality           bool
	ShadowRate        float64
}

var ionserveDefaults = serveConfig{
	Workers:           2,
	Queue:             16,
	ParseWorkers:      0,
	StreamMaxBuffer:   256 << 20,
	JobTimeout:        5 * time.Minute,
	Retries:           3,
	LogLevel:          "info",
	ScrapeInterval:    5 * time.Second,
	Retention:         15 * time.Minute,
	IncidentRetention: 16,
	CaptureCPUSeconds: 5,
	ProfInterval:      time.Minute,
	ProfWindow:        10 * time.Second,
	ProfRetention:     2 * time.Hour,
	LedgerCaptureText: false,
	SemCache:          true,
	SemReuse:          0.995,
	SemCondition:      0.90,
	SemMaxEntries:     semcache.DefaultMaxEntries,
	SemMaxBytes:       semcache.DefaultMaxBytes,
	Quality:           true,
	ShadowRate:        0.05,
}

// flags renders the settings as `ionserve -h` prints their defaults,
// keyed by flag name.
func (c serveConfig) flags() map[string]string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return map[string]string{
		"workers":                 strconv.Itoa(c.Workers),
		"queue":                   strconv.Itoa(c.Queue),
		"parse-workers":           strconv.Itoa(c.ParseWorkers),
		"stream-max-buffer":       strconv.FormatInt(c.StreamMaxBuffer, 10),
		"job-timeout":             c.JobTimeout.String(),
		"retries":                 strconv.Itoa(c.Retries),
		"log-level":               c.LogLevel,
		"scrape-interval":         c.ScrapeInterval.String(),
		"retention":               c.Retention.String(),
		"incident-retention":      strconv.Itoa(c.IncidentRetention),
		"capture-cpu-seconds":     strconv.Itoa(c.CaptureCPUSeconds),
		"prof-interval":           c.ProfInterval.String(),
		"prof-window":             c.ProfWindow.String(),
		"prof-retention":          c.ProfRetention.String(),
		"ledger-capture-text":     strconv.FormatBool(c.LedgerCaptureText),
		"sem-cache":               strconv.FormatBool(c.SemCache),
		"sem-reuse-threshold":     f(c.SemReuse),
		"sem-condition-threshold": f(c.SemCondition),
		"sem-max-entries":         strconv.Itoa(c.SemMaxEntries),
		"sem-max-bytes":           strconv.FormatInt(c.SemMaxBytes, 10),
		"quality":                 strconv.FormatBool(c.Quality),
		"shadow-sample-rate":      f(c.ShadowRate),
	}
}

// waitModel is the model-latency stand-in: every completion waits a
// fixed cost plus a cost per prompt token and per completion token.
// Measured request sizes are ~2,000→300 tokens for a diagnosis,
// ~950→500 for a summary and ~1,700→450 for chat; the constants are
// scaled down from hosted-model latencies so a fresh job's critical
// path (slowest diagnosis plus the summary) waits ~0.4 s.
type waitModel struct {
	Fixed              time.Duration `json:"fixed"`
	PerPromptToken     time.Duration `json:"per_prompt_token"`
	PerCompletionToken time.Duration `json:"per_completion_token"`
}

var modelWait = waitModel{
	Fixed:              20 * time.Millisecond,
	PerPromptToken:     10 * time.Microsecond,
	PerCompletionToken: 400 * time.Microsecond,
}

func (m waitModel) of(u llm.Usage) time.Duration {
	return m.Fixed + time.Duration(u.PromptTokens)*m.PerPromptToken +
		time.Duration(u.CompletionTokens)*m.PerCompletionToken
}

// Workload parameters.
const (
	// freshRate is the open-loop arrival rate of fresh-diagnosis, in
	// jobs per second; kept below the 2-worker pool's saturation so the
	// queue does not grow without bound.
	freshRate = 1.8
	// setupRepeats is how many times a run builds its set-up; setup_s
	// is the median.
	setupRepeats = 3
	// populatePerFamily is how many completed jobs per family the
	// interactive set-up leaves behind for its users to read.
	populatePerFamily = 2
	// streamMinBytes routes reuse-ingest bodies at least this large
	// through POST /api/jobs/stream.
	streamMinBytes = 2_000_000
	// streamChunk is the chunk size of streamed uploads.
	streamChunk = 64 << 10
	// statsEvery is the /api/stats, /metrics and runtime/metrics
	// sampling period of the traced run.
	statsEvery = 250 * time.Millisecond
)
