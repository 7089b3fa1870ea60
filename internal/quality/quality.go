// Package quality is the diagnosis-quality observatory: it scores every
// completed LLM diagnosis against the deterministic Drishti triggers
// (and the iongen ground-truth labels when the trace name identifies a
// generated workload), persists the per-job scorecards in a journaled
// store, and aggregates agreement and shadow-rerun flip statistics for
// metrics, alerting, and the /dashboard/quality page.
//
// The paper validates ION's verdicts against Drishti and expert-labeled
// IO500/OpenPMD workloads once, offline; this package runs the same
// comparison continuously in production so drifting or stale verdicts
// (e.g. served from the semantic cache) become an observable signal
// instead of a silent failure mode.
package quality

import (
	"errors"
	"time"

	"ion/internal/drishti"
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

// Disagreement kinds: which side claimed the issue alone.
const (
	// KindLLMOnly means the LLM detected an issue Drishti did not flag.
	KindLLMOnly = "llm_only"
	// KindDrishtiOnly means Drishti flagged an issue the LLM did not
	// detect.
	KindDrishtiOnly = "drishti_only"
)

// IssueScore compares the LLM verdict for one issue against the
// deterministic baseline.
type IssueScore struct {
	// Issue is the taxonomy entry being compared.
	Issue issue.ID `json:"issue"`
	// Verdict is what the LLM concluded.
	Verdict issue.Verdict `json:"verdict"`
	// Drishti reports whether the deterministic triggers flagged the
	// issue at HIGH severity.
	Drishti bool `json:"drishti"`
	// Label is the iongen ground-truth verdict when the trace came from
	// a known generated workload; empty otherwise.
	Label issue.Verdict `json:"label,omitempty"`
	// Agree is true when the LLM and Drishti sides coincide.
	Agree bool `json:"agree"`
	// Kind classifies a disagreement (KindLLMOnly or KindDrishtiOnly);
	// empty when the sides agree.
	Kind string `json:"kind,omitempty"`
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
	// Issues holds the per-issue comparisons.
	Issues []IssueScore `json:"issues"`
	// Agreement is the fraction of issues where LLM and Drishti agree.
	Agreement float64 `json:"agreement"`
	// Disagreements counts the issues where they do not.
	Disagreements int `json:"disagreements"`
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

// Score compares the per-issue LLM verdicts of rep against the Drishti
// report det across the full taxonomy, attaching ground-truth labels
// when provided. Both reports must describe the same trace.
func Score(rep *ion.Report, det *drishti.Report, labels []issue.Expectation) []IssueScore {
	truth := map[issue.ID]issue.Verdict{}
	for _, e := range labels {
		truth[e.Issue] = e.Want
	}
	scores := make([]IssueScore, 0, len(issue.All))
	for _, id := range issue.All {
		s := IssueScore{
			Issue:   id,
			Verdict: rep.Verdict(id),
			Drishti: det != nil && det.Flagged(id),
			Label:   truth[id],
		}
		llm := s.Verdict == issue.VerdictDetected
		s.Agree = llm == s.Drishti
		switch {
		case llm && !s.Drishti:
			s.Kind = KindLLMOnly
		case !llm && s.Drishti:
			s.Kind = KindDrishtiOnly
		}
		scores = append(scores, s)
	}
	return scores
}

// Summarize fills the Agreement and Disagreements fields from the
// per-issue scores.
func (c *Scorecard) Summarize() {
	c.Disagreements = 0
	for _, s := range c.Issues {
		if !s.Agree {
			c.Disagreements++
		}
	}
	if len(c.Issues) == 0 {
		c.Agreement = 1
		return
	}
	c.Agreement = float64(len(c.Issues)-c.Disagreements) / float64(len(c.Issues))
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
