// Package quality is the diagnosis-quality observatory: it scores every
// completed LLM diagnosis against the iongen ground-truth labels when
// the trace name identifies a bundled workload, persists the per-job
// scorecards in a journaled store, and aggregates label matches and
// shadow-rerun flip statistics for metrics, alerting and /api/quality.
// Each job's scorecard is also part of its explain value
// (/api/jobs/{id}/explain and the job page).
//
// The paper validates ION's verdicts against expert-labeled IO500 and
// OpenPMD workloads once, offline; this package keeps the same labels
// as the oracle in production, and re-runs sampled reused diagnoses in
// full, so stale or drifting verdicts (e.g. served from the semantic
// cache) become an observable signal instead of a silent failure mode.
// Drishti is not an oracle here: its fixed thresholds are wrong on 16
// of the paper's 35 labelled verdicts.
package quality

import (
	"errors"
	"time"

	"ion/internal/ion"
	"ion/internal/issue"
)

// Mode labels how the diagnosis under scoring was produced, mirroring
// the jobs reuse ladder.
type Mode string

const (
	// ModeFull is a from-scratch fan-out diagnosis.
	ModeFull Mode = "full"
	// ModeConditioned is a fan-out conditioned on a semcache neighbor.
	ModeConditioned Mode = "conditioned"
	// ModeVerbatim is a report served verbatim from a semcache neighbor.
	ModeVerbatim Mode = "verbatim"
)

// IssueScore is the LLM verdict for one issue, with its ground-truth
// label when one exists.
type IssueScore struct {
	// Issue is the taxonomy entry being scored.
	Issue issue.ID `json:"issue"`
	// Verdict is what the LLM concluded.
	Verdict issue.Verdict `json:"verdict"`
	// Label is the iongen ground-truth verdict when the trace came from
	// a known generated workload that labels this issue; empty
	// otherwise.
	Label issue.Verdict `json:"label,omitempty"`
}

// Mismatch reports whether the issue has a label and the verdict
// differs from it.
func (s IssueScore) Mismatch() bool {
	return s.Label != "" && s.Verdict != s.Label
}

// Shadow records the outcome of a background full fan-out re-run of a
// reused or conditioned diagnosis.
type Shadow struct {
	// Checked is the number of issues compared.
	Checked int `json:"checked"`
	// Flips lists the issues whose verdict changed between the served
	// report and the shadow re-run.
	Flips []issue.ID `json:"flips,omitempty"`
	// At is when the shadow re-run completed.
	At time.Time `json:"at"`
}

// Scorecard is the persisted quality record for one diagnosed job.
type Scorecard struct {
	// JobID is the scored job; the journal supersedes by this key.
	JobID string `json:"job"`
	// Trace is the display name of the diagnosed trace.
	Trace string `json:"trace"`
	// TraceHash is the hex SHA-256 of the trace bytes.
	TraceHash string `json:"trace_hash,omitempty"`
	// Mode is how the diagnosis was produced.
	Mode Mode `json:"mode"`
	// CreatedAt is when the scorecard was first computed.
	CreatedAt time.Time `json:"created_at"`
	// Issues holds the per-issue verdicts and labels.
	Issues []IssueScore `json:"issues"`
	// Shadow is set once a background re-run has checked this job.
	Shadow *Shadow `json:"shadow,omitempty"`
}

// check rejects a scorecard without a job id.
func (c Scorecard) check() error {
	if c.JobID == "" {
		return errors.New("scorecard needs a job id")
	}
	return nil
}

// size estimates the retained bytes of a scorecard (also its
// journal-line cost), used for the byte bound.
func (c Scorecard) size() int64 {
	n := int64(len(c.JobID)+len(c.Trace)+len(c.TraceHash)+len(c.Mode)) + 160
	n += int64(len(c.Issues)) * 96
	if c.Shadow != nil {
		n += 64 + int64(len(c.Shadow.Flips))*24
	}
	return n
}

// Score lists the per-issue LLM verdicts of rep across the full
// taxonomy, attaching the ground-truth label of each issue the labels
// name.
func Score(rep *ion.Report, labels []issue.Expectation) []IssueScore {
	truth := map[issue.ID]issue.Verdict{}
	for _, e := range labels {
		truth[e.Issue] = e.Want
	}
	scores := make([]IssueScore, 0, len(issue.All))
	for _, id := range issue.All {
		scores = append(scores, IssueScore{Issue: id, Verdict: rep.Verdict(id), Label: truth[id]})
	}
	return scores
}

// Labels counts the labelled issues whose verdict matches its label
// and those whose verdict does not. Both are 0 for a trace without
// labels.
func (c Scorecard) Labels() (matched, mismatched int) {
	for _, s := range c.Issues {
		switch {
		case s.Label == "":
		case s.Mismatch():
			mismatched++
		default:
			matched++
		}
	}
	return matched, mismatched
}

// Flips compares per-issue verdicts between the served report and a
// shadow re-run, returning the issues whose verdict changed.
func Flips(served, shadow *ion.Report) []issue.ID {
	var flips []issue.ID
	for _, id := range issue.All {
		if served.Verdict(id) != shadow.Verdict(id) {
			flips = append(flips, id)
		}
	}
	return flips
}
