package jobs

import (
	"context"
	mathrand "math/rand"
	"path/filepath"
	"strings"
	"time"

	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/llm"
	"ion/internal/obs"
	"ion/internal/quality"
	"ion/internal/semcache"
	"ion/internal/workloads"
)

// Quality-observatory tuning.
const (
	// shadowPressureMax is the queue utilization at or above which
	// shadow re-runs are skipped: the background fan-out must never
	// compete with a backlog of real jobs for LLM capacity.
	shadowPressureMax = 0.5
	// shadowConcurrency bounds concurrent shadow re-runs; further
	// candidates are skipped, not queued.
	shadowConcurrency = 1
)

// observeQuality scores a successful diagnosis against the
// ground-truth labels of its trace, journals the scorecard, and returns
// the scorecard summary for Job.Quality. Returns nil without a quality
// store.
func (s *Service) observeQuality(ctx context.Context, id, hash string, rep *ion.Report, mode quality.Mode) *Quality {
	if s.qual == nil {
		return nil
	}
	logger := obs.LoggerFrom(ctx)
	_, span := obs.StartSpan(ctx, "quality_score")
	defer span.End()

	name := s.snapshotName(id)
	// iongen traces are named after their workload, whose definition
	// carries the paper's ground-truth labels (the expertsim evaluation
	// set): by the workload itself, by a path (ionserve -log
	// dir/ior-hard.darshan) or by a file name (a browser upload of
	// ior-hard.darshan.txt). Unknown names score without labels.
	workload := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(name), ".darshan.txt"), ".darshan")
	var labels []issue.Expectation
	if w, werr := workloads.ByName(workload); werr == nil {
		labels = w.Truth
	}

	card := quality.Scorecard{
		JobID:     id,
		Trace:     name,
		TraceHash: hash,
		Mode:      mode,
		CreatedAt: time.Now().UTC(),
		Issues:    quality.Score(rep, labels),
	}
	if err := s.qual.Put(card); err != nil {
		logger.Warn("journaling quality scorecard", "err", err)
	}
	// The write may have evicted a shadowed scorecard.
	s.refreshQualityMetrics()
	matched, mismatched := card.Labels()
	if mismatched > 0 {
		logger.Warn("diagnosis contradicts the workload's ground-truth labels",
			"label_matches", matched, "label_mismatches", mismatched, "mode", string(mode))
	}
	return &Quality{LabelMatches: matched, LabelMismatches: mismatched}
}

// maybeShadow samples a reused or conditioned diagnosis for a
// background full fan-out re-run, and returns the re-run for run to
// start once the job has settled, or nil. Candidates are dropped (never
// queued) when the sample misses, the job queue is under pressure, or
// the shadow concurrency bound is reached — the hot path must not feel
// the observatory. derived names the semantic-cache entries the served
// verdicts came from, which a flip revokes. The re-run reads the job's
// work directory, and removes the job's inputs when it ends.
func (s *Service) maybeShadow(id string, out *extractor.Output, served *ion.Report, mode quality.Mode, derived []semcache.Entry) func() {
	if s.qual == nil || s.cfg.ShadowSampleRate <= 0 {
		return nil
	}
	if mathrand.Float64() >= s.cfg.ShadowSampleRate {
		return nil
	}
	if s.Stats().QueueUtilization() >= shadowPressureMax {
		s.shadowSkips.Inc()
		s.log.Info("skipping shadow re-run under queue pressure", "job", id)
		return nil
	}
	select {
	case s.shadowSem <- struct{}{}:
	default:
		s.shadowSkips.Inc()
		s.log.Info("skipping shadow re-run, concurrency bound reached", "job", id)
		return nil
	}
	// Added before the job settles, so its waiters can wait for it too.
	s.shadowWG.Add(1)
	return func() {
		defer func() {
			s.store.removeInputs(id)
			<-s.shadowSem
			s.shadowWG.Done()
		}()
		s.runShadow(id, out, served, mode, derived)
	}
}

// runShadow re-runs one diagnosis through full fan-out, compares the
// verdicts against the report that was actually served, records the
// flips on the job's scorecard (superseding it in the journal so the
// flip survives restarts), and, when verdicts flipped, revokes the
// semantic-cache entries the served verdicts derived from: the entry
// the job was served or conditioned from and, for a conditioned job,
// its own indexed report.
func (s *Service) runShadow(id string, out *extractor.Output, served *ion.Report, mode quality.Mode, derived []semcache.Entry) {
	ctx, cancel := context.WithTimeout(s.shadowCtx, s.cfg.JobTimeout)
	defer cancel()
	// Ledger attribution: shadow calls are tagged "<job>-shadow" so the
	// observatory's spend is visible but never folded into the job's
	// own Cost.
	ctx = llm.WithJobID(ctx, id+"-shadow")
	logger := s.log.With("job", id, "shadow_mode", string(mode))

	name := s.snapshotName(id)
	start := time.Now()
	rep, err := s.fw.AnalyzeExtractedOpts(ctx, out, name, ion.AnalyzeOptions{})
	if err != nil {
		logger.Warn("shadow re-run failed", "err", err)
		return
	}
	flips := quality.Flips(served, rep)
	logger.Info("shadow re-run finished", "flips", len(flips),
		"elapsed", time.Since(start).Round(time.Millisecond).String())

	card, ok := s.qual.Get(id)
	if !ok {
		card = quality.Scorecard{JobID: id, Trace: name, Mode: mode, CreatedAt: time.Now().UTC()}
	}
	card.Shadow = &quality.Shadow{Checked: len(issue.All), Flips: flips, At: time.Now().UTC()}
	if err := s.qual.Put(card); err != nil {
		logger.Warn("journaling shadow result", "err", err)
	}
	s.update(id, func(j *Job) {
		var q Quality
		if j.Quality != nil {
			q = *j.Quality
		}
		q.Shadowed, q.Flips = true, len(flips)
		j.Quality = &q
	})
	if len(flips) > 0 {
		// The served verdicts are ones a fresh fan-out contradicts: stop
		// reusing every entry they came from.
		for _, e := range derived {
			if err := s.sem.Revoke(e); err != nil {
				logger.Warn("revoking semantic-cache entry", "entry_job", e.JobID, "err", err)
			}
		}
		logger.Warn("shadow re-run flipped verdicts; revoked the semantic-cache entries they derived from",
			"flips", len(flips), "neighbor", derived[0].JobID)
	}
	s.refreshQualityMetrics()
}
