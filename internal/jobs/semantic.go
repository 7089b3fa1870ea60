package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/obs"
	"ion/internal/quality"
	"ion/internal/rag"
	"ion/internal/semcache"
)

// Reuse-policy defaults. The verbatim tier tolerates only quantization
// jitter around an essentially identical signature; the conditioning
// band admits the same workload at a moderately different shape.
const (
	defaultSemReuseThreshold     = 0.995
	defaultSemConditionThreshold = 0.90
)

// diagnose produces the job's report and records it: lookup (the reuse
// decision) → report → record. Exact-hash dedup has already happened at
// Submit, so everything here is a genuinely new trace.
func (s *Service) diagnose(ctx context.Context, id, hash string, out *extractor.Output) outcome {
	sig := semcache.Extract(out)
	m, near := s.lookup(ctx, id, sig)
	state, mode, rep, cause := s.report(ctx, id, out, m, near)
	res := s.record(ctx, id, hash, sig, out, rep, mode, m)
	res.state, res.cause = state, cause
	return res
}

// lookup finds the job's nearest neighbor in the semantic cache. It
// reports false when there is none (or the cache is off).
func (s *Service) lookup(ctx context.Context, id string, sig semcache.Signature) (semcache.Match, bool) {
	if s.sem == nil {
		return semcache.Match{}, false
	}
	_, span := obs.StartSpan(ctx, "semcache_lookup")
	m, ok := s.sem.Lookup(sig)
	span.End()
	if !ok || m.Entry.JobID == id {
		return semcache.Match{}, false
	}
	s.semSim.Observe(m.Similarity)
	return m, true
}

// report produces the job's report in one of two ways, picked by the
// nearest neighbor's similarity:
//
//  1. ≥ SemReuseThreshold → serve the neighbor's report verbatim
//     (StateReused, zero LLM calls);
//  2. otherwise → run the per-issue fan-out, every issue asked. When the
//     neighbor scores ≥ SemConditionThreshold its conclusions ride along
//     in the prompts as retrieved context (a conditioned run).
//
// The report is nil when the fan-out failed or was parked for recovery.
func (s *Service) report(ctx context.Context, id string, out *extractor.Output, m semcache.Match, near bool) (State, quality.Mode, *ion.Report, error) {
	logger := obs.LoggerFrom(ctx)
	if near && m.Similarity >= s.cfg.SemReuseThreshold {
		rep, err := s.serveFromNeighbor(id, m.Entry.JobID)
		if err == nil {
			return StateReused, quality.ModeVerbatim, rep, nil
		}
		logger.Warn("semantic hit unusable, falling back",
			"neighbor", m.Entry.JobID, "err", err)
	}
	mode := quality.ModeFull
	var opts ion.AnalyzeOptions
	if near && m.Similarity >= s.cfg.SemConditionThreshold {
		var err error
		if opts, err = s.conditionOn(m); err == nil {
			mode = quality.ModeConditioned
		} else {
			logger.Warn("conditioning context unavailable, running cold",
				"neighbor", m.Entry.JobID, "err", err)
		}
	}
	state, rep, cause := s.attempts(ctx, id, out, opts)
	return state, mode, rep, cause
}

// record is the record stage: it does the bookkeeping of one diagnosis
// once, whatever its mode — the reuse counter, the quality scorecard,
// the semantic index (fan-out reports only: a verbatim report would
// duplicate its neighbor's entry) and the shadow sample (reused or
// conditioned reports only) — and returns what finish writes onto the
// job: the reuse provenance, the LLM cost and the scorecard summary,
// with the sampled shadow re-run.
// Without a report only the counter, provenance and cost are recorded.
func (s *Service) record(ctx context.Context, id, hash string, sig semcache.Signature, out *extractor.Output, rep *ion.Report, mode quality.Mode, m semcache.Match) outcome {
	res := outcome{reuse: s.noteReuse(ctx, mode, m), cost: s.cost(id)}
	if rep == nil {
		return res
	}
	res.quality = s.observeQuality(ctx, id, hash, rep, mode)
	// A shadow flip revokes every entry the served verdicts came from:
	// the neighbor, and a conditioned job's own indexed report.
	derived := []semcache.Entry{m.Entry}
	if mode != quality.ModeVerbatim {
		derived = append(derived, s.indexResult(id, hash, sig, rep, mode))
	}
	if mode != quality.ModeFull {
		res.shadow = s.maybeShadow(id, out, rep, mode, derived)
	}
	return res
}

// noteReuse counts the reuse decision and returns its provenance (nil
// for a fresh fan-out).
func (s *Service) noteReuse(ctx context.Context, mode quality.Mode, m semcache.Match) *Reuse {
	outcome, reuse := semcache.OutcomeMiss, ""
	switch mode {
	case quality.ModeVerbatim:
		outcome, reuse = semcache.OutcomeHit, ReuseSemanticHit
	case quality.ModeConditioned:
		outcome, reuse = semcache.OutcomeConditioned, ReuseConditioned
	}
	s.sem.Note(outcome)
	if reuse == "" {
		return nil
	}
	obs.LoggerFrom(ctx).Info("diagnosis derived from a similar prior job",
		"mode", reuse, "neighbor", m.Entry.JobID, "similarity", m.Similarity)
	return &Reuse{Mode: reuse, From: m.Entry.JobID, Similarity: m.Similarity, Deltas: m.Deltas}
}

// serveFromNeighbor copies the nearest neighbor's report onto this job.
// The report is re-labeled with this job's trace name; everything else
// (diagnoses, summary, model) carries over.
func (s *Service) serveFromNeighbor(id, from string) (*ion.Report, error) {
	rep, err := s.store.Report(from)
	if err != nil {
		return nil, fmt.Errorf("loading neighbor report: %w", err)
	}
	rep.Trace = s.snapshotName(id)
	if err := s.store.PutReport(id, rep); err != nil {
		return nil, fmt.Errorf("persisting reused report: %w", err)
	}
	return rep, nil
}

// conditionOn builds the analyze options for the middle band: the
// neighbor's report is indexed with the rag TF-IDF index, and each
// issue's prompt gets the neighbor's conclusion on it plus the most
// relevant chunks as retrieved context. Every issue is still asked: the
// verdict comes from this trace's numbers, never from the neighbor's.
func (s *Service) conditionOn(m semcache.Match) (ion.AnalyzeOptions, error) {
	rep, err := s.store.Report(m.Entry.JobID)
	if err != nil {
		return ion.AnalyzeOptions{}, fmt.Errorf("loading neighbor report: %w", err)
	}
	ix, err := rag.IndexReport(rep, nil)
	if err != nil {
		return ion.AnalyzeOptions{}, fmt.Errorf("indexing neighbor report: %w", err)
	}
	if ix.Len() == 0 {
		return ion.AnalyzeOptions{}, errors.New("neighbor report has no indexable content")
	}
	opts := ion.AnalyzeOptions{Retrieved: map[issue.ID]string{}}
	for _, iid := range rep.Order {
		d := rep.Diagnoses[iid]
		if d == nil {
			continue
		}
		hits := ix.Query(string(iid)+" "+issue.Title(iid)+" "+d.Conclusion, 3)
		var b strings.Builder
		fmt.Fprintf(&b, "Neighbor trace %q (signature similarity %.3f) was diagnosed:\n\n",
			rep.Trace, m.Similarity)
		fmt.Fprintf(&b, "[%s] VERDICT: %s\n%s\n", iid, d.Verdict, strings.TrimSpace(d.Conclusion))
		for _, h := range hits {
			if h.Doc.ID == "diagnosis/"+string(iid) {
				continue // already included above
			}
			fmt.Fprintf(&b, "\n--- %s\n%s\n", h.Doc.ID, strings.TrimSpace(h.Doc.Text))
		}
		opts.Retrieved[iid] = b.String()
	}
	return opts, nil
}

// indexResult records a completed diagnosis in the semantic store and
// returns the entry it indexed.
func (s *Service) indexResult(id, hash string, sig semcache.Signature, rep *ion.Report, mode quality.Mode) semcache.Entry {
	var issues []string
	for _, iid := range rep.Detected() {
		issues = append(issues, string(iid))
	}
	e := semcache.Entry{
		JobID:     id,
		TraceHash: hash,
		Trace:     rep.Trace,
		Signature: sig,
		Issues:    issues,
		Outcome:   string(mode),
		CreatedAt: time.Now().UTC(),
	}
	if err := s.sem.Put(e); err != nil {
		s.log.Warn("indexing diagnosis into semantic cache", "job", id, "err", err)
	}
	return e
}

// cost sums the job's ledger entries into its cost attribution (nil
// without a ledger).
func (s *Service) cost(id string) *Cost {
	if s.ledger == nil {
		return nil
	}
	sum := s.ledger.SumJob(id)
	return &Cost{
		Calls:     sum.Calls,
		TokensIn:  sum.TokensIn,
		TokensOut: sum.TokensOut,
		EstUSD:    sum.CostUSD,
	}
}
