// Package jobs turns the one-shot ION pipeline into an asynchronous
// analysis service: Darshan traces are submitted as jobs, queued with
// bounded depth, executed on a worker pool by the ion.Framework, and
// persisted as JSON so a restarted service resumes where it left off.
// Identical traces are deduplicated by content hash, transient failures
// are retried with exponential backoff and jitter, and a full set of
// counters (queue depth, utilization, retries, cache hits) is exposed
// for the /api/stats endpoint.
package jobs

import (
	"encoding/json"
	"errors"
	"time"
)

// State is a job's position in the lifecycle state machine:
//
//	queued → running → done
//	              ↘ reused (served from the semantic cache, no LLM calls)
//	              ↘ retrying → running (until attempts are exhausted)
//	              ↘ failed
//
// Non-terminal states found on disk at startup are recovered as queued.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateRetrying State = "retrying"
	StateDone     State = "done"
	// StateReused is a successful terminal state reached without any
	// LLM calls: the semantic cache found a near-duplicate prior
	// diagnosis above the reuse threshold and its report was served
	// verbatim (provenance in Job.ReusedFrom).
	StateReused State = "reused"
	StateFailed State = "failed"
)

// Terminal reports whether the state is final (done, reused or failed).
func (s State) Terminal() bool {
	return s == StateDone || s == StateReused || s == StateFailed
}

// Succeeded reports whether the state is terminal with a readable
// report (done or reused).
func (s State) Succeeded() bool { return s == StateDone || s == StateReused }

// Valid reports whether s is a known lifecycle state.
func (s State) Valid() bool {
	switch s {
	case StateQueued, StateRunning, StateRetrying, StateDone, StateReused, StateFailed:
		return true
	}
	return false
}

// Reuse records how a job's diagnosis derived from a semantically
// similar prior job — the provenance surfaced on job pages and in
// /api/jobs/{id} as "reused_from".
type Reuse struct {
	// Mode is "semantic_hit" (report served verbatim, zero LLM calls)
	// or "conditioned" (every issue asked, with the neighbor's
	// conclusions as retrieved context).
	Mode string `json:"mode"`
	// From is the neighbor job id the diagnosis derives from.
	From string `json:"from"`
	// Similarity is the cosine similarity of the quantized signatures.
	Similarity float64 `json:"similarity"`
	// Deltas names the signature dimensions where this trace differs
	// from the neighbor (this minus neighbor).
	Deltas map[string]float64 `json:"deltas,omitempty"`
}

// Reuse mode labels.
const (
	ReuseSemanticHit = "semantic_hit"
	ReuseConditioned = "conditioned"
)

// Ingest records how a job's trace was read and parsed — the
// provenance surfaced on job pages and in /api/jobs/{id} as "ingest".
// Records written before the upload routes shared one ingest carry a
// "mode" too, which loading ignores.
type Ingest struct {
	// Bytes is the trace body size.
	Bytes int64 `json:"bytes"`
	// Shards is how many parse segments the body was cut into. Zero for
	// a binary container, which is decoded whole.
	Shards int `json:"shards,omitempty"`
	// ParseOverlapped reports that at least one segment was handed to
	// the parser while the body was still being read.
	ParseOverlapped bool `json:"parse_overlapped,omitempty"`
}

// Cost is the per-job LLM cost attribution, summed from the audit
// ledger's entries for this job: calls made, tokens moved and estimated
// dollars. A verbatim semantic hit costs zero calls; Job.ReusedFrom
// says where its report came from. Surfaced on job pages and in
// /api/jobs/{id} as "cost".
type Cost struct {
	Calls     int     `json:"calls"`
	TokensIn  int     `json:"tokens_in"`
	TokensOut int     `json:"tokens_out"`
	EstUSD    float64 `json:"est_usd"`
}

// Quality is the per-job diagnosis-quality provenance: how many LLM
// verdicts matched the ground-truth labels (for a trace named after a
// bundled workload), and whether a background shadow re-run checked
// (and possibly flipped) a reused or conditioned diagnosis. Surfaced on
// job pages and in /api/jobs/{id} as "quality"; the full per-issue
// scorecard lives in the quality store (/api/quality).
type Quality struct {
	// LabelMatches counts the labelled issues whose verdict matches
	// the label; 0 with LabelMismatches when the trace has no labels.
	LabelMatches int `json:"label_matches"`
	// LabelMismatches counts the labelled issues whose verdict does
	// not.
	LabelMismatches int `json:"label_mismatches"`
	// Shadowed reports that a background full fan-out re-ran this job's
	// diagnosis off the hot path.
	Shadowed bool `json:"shadowed,omitempty"`
	// Flips counts the verdicts the shadow re-run changed.
	Flips int `json:"flips,omitempty"`
}

// Job is one analysis request: a Darshan trace submitted for diagnosis.
// The service hands out copies; the canonical record is the job
// table's, journaled on every state change.
type Job struct {
	// ID uniquely identifies the job ("j-" + 12 hex chars).
	ID string `json:"id"`
	// Trace is the display name of the submitted trace.
	Trace string `json:"trace"`
	// Hash is the hex SHA-256 of the trace bytes, the dedup key.
	Hash string `json:"hash"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Attempts counts analysis attempts so far (1 on first run).
	Attempts int `json:"attempts"`
	// Error holds the most recent failure message, if any.
	Error string `json:"error,omitempty"`
	// ReusedFrom records semantic-cache provenance when this job's
	// diagnosis was served from (or conditioned on) a similar prior
	// job.
	ReusedFrom *Reuse `json:"reused_from,omitempty"`
	// Ingest records the trace's size, its parse segments and whether
	// parsing overlapped the upload.
	Ingest *Ingest `json:"ingest,omitempty"`
	// Cost is the job's LLM cost attribution from the audit ledger,
	// attached when the job settles (nil when no ledger is configured).
	Cost *Cost `json:"cost,omitempty"`
	// Quality is the diagnosis-quality provenance, attached after a
	// successful diagnosis is scored against its labels (nil when no
	// quality store is configured).
	Quality *Quality `json:"quality,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt are lifecycle timestamps.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// Service errors surfaced to the HTTP layer.
var (
	// ErrQueueFull is returned by Submit when the queue is at capacity;
	// the HTTP layer maps it to 429 Too Many Requests.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrClosed is returned by Submit after Close has begun.
	ErrClosed = errors.New("jobs: service is shutting down")
	// ErrNotFound is returned for unknown job ids.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrBadTrace wraps trace-parse failures at submission; the HTTP
	// layer maps it to 400 Bad Request.
	ErrBadTrace = errors.New("jobs: trace does not parse as a Darshan log")
	// ErrNotDone is returned when a report is requested for a job that
	// has not completed successfully.
	ErrNotDone = errors.New("jobs: job has not completed")
	// ErrStreamBusy is returned by Submit and SubmitStream when the
	// in-flight ingest buffer budget is exhausted; the HTTP layer maps
	// it to 429 with a Retry-After hint.
	ErrStreamBusy = errors.New("jobs: streaming buffer budget exhausted")
)

// Stats is a snapshot of the service counters for /api/stats.
type Stats struct {
	// Workers is the configured pool size; Busy is how many are
	// currently running a job.
	Workers int `json:"workers"`
	Busy    int `json:"busy"`
	// QueueDepth is the number of queued-but-unstarted jobs;
	// QueueCapacity is the bound beyond which Submit sheds load.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Jobs is the total number of job records held.
	Jobs int `json:"jobs"`
	// Submitted counts accepted submissions (including dedup hits);
	// Completed/Failed count terminal outcomes; Retried counts retry
	// attempts; CacheHits counts submissions answered from the dedup
	// cache; Recovered counts jobs re-queued from disk at startup.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Retried   int64 `json:"retried"`
	CacheHits int64 `json:"cache_hits"`
	Recovered int64 `json:"recovered"`
	// LLMCalls/LLMTokensIn/LLMTokensOut/LLMCostUSD are the cumulative
	// LLM accounting from the audit ledger (zero when no ledger is
	// configured). These survive restarts to the extent the ledger
	// journal retained them.
	LLMCalls     int64   `json:"llm_calls"`
	LLMTokensIn  int64   `json:"llm_tokens_in"`
	LLMTokensOut int64   `json:"llm_tokens_out"`
	LLMCostUSD   float64 `json:"llm_cost_usd"`
}

// CacheHitRate is CacheHits / Submitted (0 when nothing submitted).
// Derived rates are methods rather than stored fields so every consumer
// (the HTML index, /api/stats, /metrics) computes them from the same
// counters and cannot disagree.
func (st Stats) CacheHitRate() float64 {
	if st.Submitted == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(st.Submitted)
}

// Utilization is Busy / Workers (0 when the pool is empty).
func (st Stats) Utilization() float64 {
	if st.Workers == 0 {
		return 0
	}
	return float64(st.Busy) / float64(st.Workers)
}

// FailureRatio is Failed / (Completed + Failed): the fraction of
// finished jobs that ended in failure, 0 before anything finishes.
// It is the primary SLO signal the alert rules watch.
func (st Stats) FailureRatio() float64 {
	done := st.Completed + st.Failed
	if done == 0 {
		return 0
	}
	return float64(st.Failed) / float64(done)
}

// QueueUtilization is QueueDepth / QueueCapacity (0 with no capacity):
// 1.0 means the next submission sheds load with a 429.
func (st Stats) QueueUtilization() float64 {
	if st.QueueCapacity == 0 {
		return 0
	}
	return float64(st.QueueDepth) / float64(st.QueueCapacity)
}

// MarshalJSON keeps the derived rates on the wire for /api/stats
// clients while the struct itself stores only raw counters.
func (st Stats) MarshalJSON() ([]byte, error) {
	type raw Stats
	return json.Marshal(struct {
		raw
		CacheHitRate float64 `json:"cache_hit_rate"`
		Utilization  float64 `json:"utilization"`
		FailureRatio float64 `json:"failure_ratio"`
	}{raw(st), st.CacheHitRate(), st.Utilization(), st.FailureRatio()})
}
