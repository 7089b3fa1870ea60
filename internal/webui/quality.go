package webui

import (
	"net/http"
	"strconv"

	"ion/internal/issue"
	"ion/internal/quality"
)

// WithQuality wires the diagnosis-quality scorecard store behind GET
// /api/quality and the scorecard of each job's explain value, and
// returns the server for chaining. Without it the route answers 404 and
// explain leaves the scorecard out. Pass the same store the
// jobs.Service writes into.
func (s *JobServer) WithQuality(st *quality.Store) *JobServer {
	s.quality = st
	return s
}

// qualityDisabled answers the quality endpoints when no store is wired
// in (WithQuality was not called).
func (s *JobServer) qualityDisabled(w http.ResponseWriter) bool {
	if s.quality != nil {
		return false
	}
	s.errorJSON(w, http.StatusNotFound, "quality observatory disabled: start ionserve without -quality=false")
	return true
}

// qualityResponse is the GET /api/quality wire type: store counters,
// the per-issue ground-truth label aggregates, the per-mode shadow flip
// aggregates behind ion_semcache_flip_ratio, and the filtered
// scorecards, newest first.
type qualityResponse struct {
	Stats      quality.Stats                `json:"stats"`
	Labels     map[string]quality.LabelStat `json:"labels"`
	Flips      map[string]quality.FlipStat  `json:"flips"`
	Scorecards []quality.Scorecard          `json:"scorecards"`
}

// handleQualityAPI serves the scorecard journal:
//
//	GET /api/quality?limit=50&job=j-abc123&issue=small-io
//
// limit bounds the returned scorecards (default 100), job filters to
// one job's scorecard by exact id, and issue keeps only scorecards
// where the named issue contradicted its ground-truth label or was
// flipped by a shadow re-run (the mismatch-browser query).
func (s *JobServer) handleQualityAPI(w http.ResponseWriter, r *http.Request) {
	if s.qualityDisabled(w) {
		return
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.errorJSON(w, http.StatusBadRequest, "limit must be a positive integer, got "+strconv.Quote(v))
			return
		}
		limit = n
	}
	var cards []quality.Scorecard
	if job := q.Get("job"); job != "" {
		if c, ok := s.quality.Get(job); ok {
			cards = []quality.Scorecard{c}
		}
	} else {
		cards = s.quality.Entries()
	}
	if iid := issue.ID(q.Get("issue")); iid != "" {
		if !issue.Valid(iid) {
			s.errorJSON(w, http.StatusBadRequest, "unknown issue id "+strconv.Quote(string(iid)))
			return
		}
		kept := cards[:0]
		for _, c := range cards {
			if scorecardImplicates(c, iid) {
				kept = append(kept, c)
			}
		}
		cards = kept
	}
	if len(cards) > limit {
		cards = cards[:limit]
	}
	if cards == nil {
		cards = []quality.Scorecard{}
	}
	labels := map[string]quality.LabelStat{}
	for id, a := range s.quality.IssueLabels() {
		labels[string(id)] = a
	}
	flips := map[string]quality.FlipStat{}
	for m, f := range s.quality.FlipStats() {
		flips[string(m)] = f
	}
	s.writeJSON(w, http.StatusOK, qualityResponse{
		Stats:      s.quality.Stats(),
		Labels:     labels,
		Flips:      flips,
		Scorecards: cards,
	})
}

// scorecardImplicates reports whether the scorecard records a label
// mismatch or a shadow flip for the given issue.
func scorecardImplicates(c quality.Scorecard, iid issue.ID) bool {
	for _, sc := range c.Issues {
		if sc.Issue == iid && sc.Mismatch() {
			return true
		}
	}
	if c.Shadow != nil {
		for _, f := range c.Shadow.Flips {
			if f == iid {
				return true
			}
		}
	}
	return false
}
