package webui

import (
	"fmt"
	"html"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"ion/internal/issue"
	"ion/internal/jobs"
	"ion/internal/obs/series"
	"ion/internal/quality"
)

// WithQuality wires the diagnosis-quality scorecard store behind GET
// /api/quality and GET /dashboard/quality, and returns the server for
// chaining. Without it those routes answer 404. Pass the same store
// the jobs.Service writes into.
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

// qualityBanner renders a job's diagnosis-quality provenance: how many
// LLM verdicts matched the trace's ground-truth labels and whether a
// shadow re-run checked (or contradicted) the served diagnosis. Empty
// when no quality store is configured.
func qualityBanner(job jobs.Job) string {
	q := job.Quality
	if q == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(`<div style="margin-top:2rem;padding:0.75rem 1rem;border:1px solid #7c3aed;border-radius:6px;background:#f5f3ff">`)
	b.WriteString(`<strong>Diagnosis quality:</strong> `)
	switch labelled := q.LabelMatches + q.LabelMismatches; {
	case labelled == 0:
		b.WriteString(`no ground-truth labels for this trace`)
	case q.LabelMismatches == 0:
		fmt.Fprintf(&b, `all %d labelled verdict(s) match the ground truth`, labelled)
	default:
		fmt.Fprintf(&b, `<span style="color:#dc2626;font-weight:600">%d of %d labelled verdict(s) contradict the ground truth</span>`,
			q.LabelMismatches, labelled)
	}
	if q.Shadowed {
		if q.Flips > 0 {
			fmt.Fprintf(&b, ` &middot; <span style="color:#dc2626;font-weight:600">shadow re-run flipped %d verdict(s)</span>`, q.Flips)
		} else {
			b.WriteString(` &middot; shadow re-run confirmed the served verdicts`)
		}
	}
	b.WriteString(`. <a href="/dashboard/quality">quality dashboard</a></div>`)
	return b.String()
}

// handleQualityDashboard renders the zero-JS diagnosis-quality page:
// the per-issue label table, the shadow flip-ratio sparkline from the
// series store, and the mismatch browser linking into the implicated
// job pages. Like /dashboard/llm the page is well-formed
// XML (self-closed void tags, numeric character references only) so it
// can be machine checked, archived, and transformed.
func (s *JobServer) handleQualityDashboard(w http.ResponseWriter, r *http.Request) {
	if s.qualityDisabled(w) {
		return
	}
	st := s.quality.Stats()

	var b strings.Builder
	b.WriteString(qualityDashHead)
	fmt.Fprintf(&b, `<p class="meta">%d scorecard(s) retained (%s) &#183; %d journaled &#183; %d evicted`,
		st.Entries, xmlBytes(st.Bytes), st.Puts, st.Evictions)
	b.WriteString(` &#183; <a href="/api/quality">quality JSON</a> &#183; <a href="/dashboard">dashboard</a> &#183; <a href="/">jobs</a></p>`)
	b.WriteString(`<p class="meta">A diagnosis of a trace named after a bundled workload is scored against that workload&#8217;s ground-truth labels; sampled reused diagnoses are re-run in full off the hot path to catch stale cached verdicts.</p>`)

	renderLabelTable(&b, s.quality.IssueLabels())
	s.renderFlipSpark(&b, s.quality.FlipStats())
	renderMismatches(&b, s.quality.Tail(200))

	b.WriteString("</body></html>\n")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// renderLabelTable writes one row per labelled taxonomy issue with the
// verdicts that matched and contradicted the ground truth across the
// retained scorecards.
func renderLabelTable(b *strings.Builder, labels map[issue.ID]quality.LabelStat) {
	b.WriteString(`<h2>Verdicts against ground-truth labels</h2>`)
	if len(labels) == 0 {
		b.WriteString(`<p class="nodata">no labelled diagnoses yet: labels apply to traces named after a bundled workload</p>`)
		return
	}
	b.WriteString(`<table><tr><th>issue</th><th>matched</th><th>mismatched</th></tr>`)
	for _, id := range issue.All {
		a, ok := labels[id]
		if !ok {
			continue
		}
		cls := "ok"
		if a.Mismatched > 0 {
			cls = "bad"
		}
		fmt.Fprintf(b, `<tr><td>%s</td><td>%d</td><td class="%s">%d</td></tr>`,
			html.EscapeString(string(id)), a.Matched, cls, a.Mismatched)
	}
	b.WriteString(`</table>`)
}

// renderFlipSpark plots the per-mode shadow flip ratio over the series
// store's window and prints the current aggregates. Skipped without a
// series store; an empty chart notes the absence of data.
func (s *JobServer) renderFlipSpark(b *strings.Builder, flips map[quality.Mode]quality.FlipStat) {
	b.WriteString(`<h2>Shadow re-run flips</h2>`)
	modes := make([]string, 0, len(flips))
	for m := range flips {
		modes = append(modes, string(m))
	}
	sort.Strings(modes)
	if len(modes) == 0 {
		b.WriteString(`<p class="readout">no shadow re-runs yet</p>`)
	} else {
		parts := make([]string, 0, len(modes))
		for _, m := range modes {
			f := flips[quality.Mode(m)]
			parts = append(parts, fmt.Sprintf("%s: %d/%d flipped (%.0f%%)", m, f.Flipped, f.Shadowed, 100*f.Ratio()))
		}
		fmt.Fprintf(b, `<p class="readout">%s</p>`, html.EscapeString(strings.Join(parts, " · ")))
	}
	if s.series == nil {
		b.WriteString(`<p class="nodata">no series store wired in</p>`)
		return
	}
	to := time.Now()
	window := s.sparkWindow()
	// The gauge is labelled per reuse mode; take the point-wise max so
	// the sparkline shows the worst mode at each instant (the same
	// shape the SemcacheFlipRateHigh rule evaluates).
	pts := s.foldSeries("ion_semcache_flip_ratio", to.Add(-window), to, math.Max)
	if len(pts) < 2 {
		b.WriteString(`<p class="nodata">no flip-ratio samples yet</p>`)
		return
	}
	// Ratios live in [0,1]; a fixed scale keeps the alert threshold
	// visually stable across reloads.
	sparkline(b, [][]series.Point{pts}, []string{"#7c3aed"}, to.Add(-window), to, 560, 64, true)
	fmt.Fprintf(b, `<p class="readout"><strong>%.0f%%</strong> <span class="range">worst-mode flip ratio, last %s; above 25&#37; sustained the <code>SemcacheFlipRateHigh</code> alert fires</span></p>`,
		100*pts[len(pts)-1].V, window)
}

// renderMismatches writes the mismatch browser: recent scorecards
// where a verdict contradicted its ground-truth label or a shadow
// re-run flipped verdicts, each linking to its job page.
func renderMismatches(b *strings.Builder, cards []quality.Scorecard) {
	b.WriteString(`<h2>Recent label mismatches and flips</h2>`)
	shown := 0
	for _, c := range cards {
		matched, mismatched := c.Labels()
		if mismatched == 0 && (c.Shadow == nil || len(c.Shadow.Flips) == 0) {
			continue
		}
		if shown == 0 {
			b.WriteString(`<table><tr><th>job</th><th>trace</th><th>mode</th><th>labels matched</th><th>issues</th></tr>`)
		}
		shown++
		if shown > 25 {
			continue
		}
		var details []string
		for _, sc := range c.Issues {
			if sc.Mismatch() {
				details = append(details, fmt.Sprintf("%s (label %s, got %s)", sc.Issue, sc.Label, sc.Verdict))
			}
		}
		if c.Shadow != nil {
			for _, f := range c.Shadow.Flips {
				details = append(details, fmt.Sprintf("%s (flipped)", f))
			}
		}
		fmt.Fprintf(b, `<tr><td><a href="/jobs/%s"><code>%s</code></a></td><td>%s</td><td>%s</td><td>%d/%d</td><td>%s</td></tr>`,
			html.EscapeString(c.JobID), html.EscapeString(c.JobID),
			html.EscapeString(c.Trace), html.EscapeString(string(c.Mode)),
			matched, matched+mismatched, html.EscapeString(strings.Join(details, ", ")))
	}
	if shown == 0 {
		b.WriteString(`<p class="nodata">no label mismatches or flips on record</p>`)
		return
	}
	b.WriteString(`</table>`)
	if shown > 25 {
		fmt.Fprintf(b, `<p class="meta">%d more not shown &#8212; query <a href="/api/quality">/api/quality</a> with an <code>issue=</code> filter.</p>`, shown-25)
	}
}

// qualityDashHead is the page prologue; strict XML like the LLM
// dashboard (void elements self-closed, numeric character references
// only).
const qualityDashHead = `<html><head><meta charset="utf-8" /><title>ION &#8212; diagnosis quality</title>
<meta http-equiv="refresh" content="5" />
<style>
body { font-family: system-ui, sans-serif; max-width: 56rem; margin: 2rem auto; color: #111 }
h1 { margin-bottom: 0.25rem }
h2 { font-size: 1rem; margin: 1.5rem 0 0.25rem }
.meta { color: #555 }
.nodata { color: #999; font-style: italic }
.readout { margin: 0.25rem 0 0; font-size: 0.9rem }
.range { color: #777; font-size: 0.8rem }
.ok { color: #059669 }
.bad { color: #dc2626; font-weight: 600 }
svg { width: 100%; height: 64px; background: #fafafa; border: 1px solid #ddd; border-radius: 6px }
table { border-collapse: collapse; width: 100%; margin-top: 0.5rem; font-size: 0.85rem }
th, td { border: 1px solid #ddd; padding: 4px 8px; text-align: left }
</style></head>
<body>
<h1>ION diagnosis quality</h1>
`
