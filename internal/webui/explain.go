package webui

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"

	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/obs/prof"
	"ion/internal/quality"
)

// explain is everything the service keeps about one job, gathered in
// one place to answer why it was slow, wrong or expensive. GET
// /api/jobs/{id}/explain serves it as JSON, and the job page renders it
// as its "Why this job" section. A source that is switched off (no
// ledger, quality store, profiler or semantic cache wired in) or not
// yet written (no timeline) is left out.
type explain struct {
	// Job is the record: state, attempts, error, ingest, cost, quality
	// and timestamps.
	Job jobs.Job `json:"job"`
	// Spans is the stored span timeline in start order, with the spans
	// on the critical path flagged.
	Spans []explainSpan `json:"spans,omitempty"`
	// Ledger holds the job's model calls from the audit ledger, chat
	// turns included.
	Ledger *explainLedger `json:"ledger,omitempty"`
	// Reuse is the semantic-cache decision, when the report was served
	// from another job's diagnosis.
	Reuse *explainReuse `json:"reuse,omitempty"`
	// Scorecard is the job's verdicts, their labels and any shadow
	// flips.
	Scorecard *quality.Scorecard `json:"scorecard,omitempty"`
	// Profile names the CPU profile window that overlaps the run.
	Profile *explainProfile `json:"profile,omitempty"`
}

// explainSpan is one timeline span, flagged when it is on the critical
// path.
type explainSpan struct {
	obs.SpanRecord
	Critical bool `json:"critical,omitempty"`
}

// explainLedger is a job's ledger calls, grouped by template and issue.
type explainLedger struct {
	Calls  int         `json:"calls"`
	Groups []callGroup `json:"groups"`
}

// callGroup sums the ledger calls of one template (and, for diagnosis
// prompts, one issue).
type callGroup struct {
	Template  string  `json:"template"`
	Issue     string  `json:"issue,omitempty"`
	Calls     int     `json:"calls"`
	Failed    int     `json:"failed,omitempty"`
	TokensIn  int     `json:"tokens_in"`
	TokensOut int     `json:"tokens_out"`
	CostUSD   float64 `json:"cost_usd"`
	// LatencyMS is the calls' summed wall time.
	LatencyMS float64 `json:"latency_ms"`
}

// explainReuse is a job's reuse decision and what has become of the
// source's semantic-cache entry since: "live", "revoked" (a shadow
// re-run flipped a verdict it served) or "gone" (evicted or replaced).
// SourceEntry is empty when the semantic cache is off.
type explainReuse struct {
	*jobs.Reuse
	SourceEntry string `json:"source_entry,omitempty"`
}

// explainProfile names the CPU profile window that overlaps the job's
// run; Window is empty when none does.
type explainProfile struct {
	Window     string `json:"window"`
	Flamegraph string `json:"flamegraph,omitempty"`
}

// handleJobExplain serves one job's explain value.
func (s *JobServer) handleJobExplain(w http.ResponseWriter, r *http.Request) {
	job, ok := s.getJob(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, s.explain(job))
}

// explain gathers the job's explain value from the stores. A source
// that cannot be read is left out, so this never fails.
func (s *JobServer) explain(job jobs.Job) explain {
	e := explain{Job: job}
	if data, err := s.svc.Store().Timeline(job.ID); err == nil {
		var tl obs.Timeline
		if json.Unmarshal(data, &tl) == nil {
			for _, r := range tl.Spans {
				e.Spans = append(e.Spans, explainSpan{SpanRecord: r})
			}
			markCriticalPath(e.Spans)
		}
	}
	if s.llmLedger != nil {
		e.Ledger = groupCalls(s.llmLedger.Store().Entries(ledger.Filter{Job: job.ID}))
	}
	if ru := job.ReusedFrom; ru != nil {
		e.Reuse = &explainReuse{Reuse: ru}
		if sem := s.svc.SemCache(); sem != nil {
			e.Reuse.SourceEntry = "gone"
			for _, en := range sem.Entries() {
				if en.JobID == ru.From {
					e.Reuse.SourceEntry = "live"
					if en.Revoked {
						e.Reuse.SourceEntry = "revoked"
					}
					break
				}
			}
		}
	}
	if s.quality != nil {
		if c, ok := s.quality.Get(job.ID); ok {
			e.Scorecard = &c
		}
	}
	if s.prof != nil {
		e.Profile = &explainProfile{Window: overlappingWindow(s.prof.Store().Windows(prof.KindCPU, 0), job)}
		if e.Profile.Window != "" {
			e.Profile.Flamegraph = "/api/prof/flamegraph?window=" + e.Profile.Window
		}
	}
	return e
}

// groupCalls sums ledger entries by template and issue, in template
// then issue order.
func groupCalls(entries []ledger.Entry) *explainLedger {
	l := &explainLedger{Groups: []callGroup{}}
	byKey := map[[2]string]int{}
	for _, en := range entries {
		key := [2]string{en.Template, en.Issue}
		i, ok := byKey[key]
		if !ok {
			i = len(l.Groups)
			byKey[key] = i
			l.Groups = append(l.Groups, callGroup{Template: en.Template, Issue: en.Issue})
		}
		g := &l.Groups[i]
		g.Calls++
		if en.Outcome != llm.OutcomeOK {
			g.Failed++
		}
		g.TokensIn += en.TokensIn
		g.TokensOut += en.TokensOut
		g.CostUSD += en.CostUSD
		g.LatencyMS += en.LatencyMS
		l.Calls++
	}
	sort.Slice(l.Groups, func(i, j int) bool {
		a, b := l.Groups[i], l.Groups[j]
		if a.Template != b.Template {
			return a.Template < b.Template
		}
		return a.Issue < b.Issue
	})
	return l
}

// overlappingWindow returns the id of the newest CPU window that
// overlaps the job's run, or "" when none does. Windows are short and
// sparse (10 s every 60 s by default), so most short jobs overlap none.
func overlappingWindow(windows []prof.Window, job jobs.Job) string {
	if job.StartedAt.IsZero() {
		return ""
	}
	end := job.FinishedAt
	if end.IsZero() {
		end = time.Now()
	}
	for _, w := range windows { // newest first
		if w.Start.Before(end) && w.End.After(job.StartedAt) {
			return w.ID
		}
	}
	return ""
}

// spanKids indexes spans by parent as positions in timeline order. A
// span whose parent is not in the timeline is a root, listed under 0.
func spanKids(spans []explainSpan) map[int][]int {
	known := make(map[int]bool, len(spans))
	for _, sp := range spans {
		known[sp.ID] = true
	}
	kids := map[int][]int{}
	for i, sp := range spans {
		parent := sp.Parent
		if !known[parent] {
			parent = 0
		}
		kids[parent] = append(kids[parent], i)
	}
	return kids
}

// markCriticalPath flags the spans that set each root's end time. From
// a span's end it takes the child that ends last, then the
// latest-ending child that ended before that one started, back to the
// span's start, and recurses into each child taken. A span adopted
// from a submission (its parse) starts before the job span does; the
// walk takes it and stops there.
func markCriticalPath(spans []explainSpan) {
	end := func(i int) time.Time {
		return spans[i].Start.Add(time.Duration(spans[i].Seconds * float64(time.Second)))
	}
	kids := spanKids(spans)
	var walk func(i int)
	walk = func(i int) {
		spans[i].Critical = true
		var cursor time.Time // zero: the first step takes the child that ends last
		for {
			next := -1
			for _, c := range kids[spans[i].ID] {
				if spans[c].Critical || (!cursor.IsZero() && end(c).After(cursor)) {
					continue
				}
				if next < 0 || end(c).After(end(next)) {
					next = c
				}
			}
			if next < 0 {
				return
			}
			walk(next)
			if !spans[next].Start.After(spans[i].Start) {
				return
			}
			cursor = spans[next].Start
		}
	}
	for _, r := range kids[0] {
		walk(r)
	}
}

// renderExplain writes the job page's "Why this job" section.
func renderExplain(b *strings.Builder, e explain) {
	job := e.Job
	b.WriteString(`<section id="explain" style="margin-top:2rem;padding:0.75rem 1rem;border:1px solid #ddd;border-radius:6px">`)
	b.WriteString(`<h2 style="margin-top:0">Why this job</h2>`)
	fmt.Fprintf(b, `<p><strong>Record:</strong> %s after %d attempt(s) &middot; submitted %s`,
		html.EscapeString(string(job.State)), job.Attempts, job.SubmittedAt.UTC().Format(time.RFC3339))
	if !job.StartedAt.IsZero() {
		fmt.Fprintf(b, ` &middot; queued %s`, job.StartedAt.Sub(job.SubmittedAt).Round(time.Microsecond))
		if !job.FinishedAt.IsZero() {
			fmt.Fprintf(b, ` &middot; ran %s`, job.FinishedAt.Sub(job.StartedAt).Round(time.Microsecond))
		}
	}
	fmt.Fprintf(b, ` &middot; <a href="/api/jobs/%s/explain">explain JSON</a></p>`, html.EscapeString(job.ID))
	if job.Error != "" {
		fmt.Fprintf(b, `<p style="color:#a33"><strong>Error:</strong> %s</p>`, html.EscapeString(job.Error))
	}
	if in := job.Ingest; in != nil && in.Shards > 0 {
		overlap := "parsed after the upload completed"
		if in.ParseOverlapped {
			overlap = "parsing overlapped the upload"
		}
		fmt.Fprintf(b, `<p><strong>Streamed ingestion:</strong> %.1f MiB cut into %d parse shard(s) as it arrived; %s.</p>`,
			float64(in.Bytes)/(1<<20), in.Shards, overlap)
	}
	if ru := e.Reuse; ru != nil {
		from := html.EscapeString(ru.From)
		if ru.Mode == jobs.ReuseSemanticHit {
			fmt.Fprintf(b, `<p><strong>Semantic hit:</strong> served verbatim from job <a href="/jobs/%s"><code>%s</code></a> (signature similarity %.4f, no LLM calls)`,
				from, from, ru.Similarity)
		} else {
			fmt.Fprintf(b, `<p><strong>Conditioned run:</strong> every issue was asked, with the conclusions of job <a href="/jobs/%s"><code>%s</code></a> (signature similarity %.4f) as context`,
				from, from, ru.Similarity)
		}
		if ru.SourceEntry != "" {
			fmt.Fprintf(b, `; that job's cache entry is %s`, ru.SourceEntry)
		}
		b.WriteString(`.</p>`)
	}
	if c := job.Cost; c != nil {
		fmt.Fprintf(b, `<p><strong>LLM cost:</strong> $%.4f estimated &middot; %d call(s) &middot; %d tokens in / %d out.</p>`,
			c.EstUSD, c.Calls, c.TokensIn, c.TokensOut)
	}
	renderSpans(b, e.Spans)
	if e.Ledger != nil {
		renderCalls(b, e.Ledger)
	}
	if e.Scorecard != nil {
		renderScorecard(b, *e.Scorecard)
	}
	if p := e.Profile; p != nil {
		if p.Window == "" {
			b.WriteString(`<p><strong>CPU profile:</strong> none of the profiler's windows overlaps this run.</p>`)
		} else {
			fmt.Fprintf(b, `<p><strong>CPU profile:</strong> window <a href="%s"><code>%s</code></a> overlaps this run.</p>`,
				html.EscapeString(p.Flamegraph), html.EscapeString(p.Window))
		}
	}
	b.WriteString(`</section>`)
}

// renderSpans writes the timeline as an indented tree, critical-path
// spans in bold.
func renderSpans(b *strings.Builder, spans []explainSpan) {
	b.WriteString(`<h3>Timeline</h3>`)
	if len(spans) == 0 {
		b.WriteString(`<p style="color:#777">no timeline yet: the job has not run</p>`)
		return
	}
	kids := spanKids(spans)
	origin := spans[0].Start
	b.WriteString(`<table style="border-collapse:collapse;font-size:0.85rem"><tr><th align="left">span (&#9679; critical path)</th><th align="right">start ms</th><th align="right">ms</th></tr>`)
	var row func(i, depth int)
	row = func(i, depth int) {
		sp := spans[i]
		name := html.EscapeString(sp.Name)
		if attrs := spanAttrs(sp.Attrs); attrs != "" {
			name += ` <span style="color:#777">` + html.EscapeString(attrs) + `</span>`
		}
		if sp.Error != "" {
			name += ` <span style="color:#a33">` + html.EscapeString(sp.Error) + `</span>`
		}
		if sp.Critical {
			name = `<strong>&#9679; ` + name + `</strong>`
		}
		fmt.Fprintf(b, `<tr><td style="padding-left:%.1frem">%s</td><td align="right">%.1f</td><td align="right">%.1f</td></tr>`,
			0.25+1.25*float64(depth), name, float64(sp.Start.Sub(origin))/1e6, 1000*sp.Seconds)
		for _, c := range kids[sp.ID] {
			row(c, depth+1)
		}
	}
	for _, r := range kids[0] {
		row(r, 0)
	}
	b.WriteString(`</table>`)
}

// spanAttrs renders a span's attributes as sorted k=v pairs, leaving
// out the job id every span of the page shares.
func spanAttrs(attrs map[string]string) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		if k != "job" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = k + "=" + attrs[k]
	}
	return strings.Join(keys, " ")
}

// renderCalls writes the job's ledger calls, one row per template and
// issue.
func renderCalls(b *strings.Builder, l *explainLedger) {
	fmt.Fprintf(b, `<h3>Model calls (%d)</h3>`, l.Calls)
	if len(l.Groups) == 0 {
		b.WriteString(`<p style="color:#777">the ledger holds no calls for this job</p>`)
		return
	}
	b.WriteString(`<table style="border-collapse:collapse;font-size:0.85rem"><tr><th align="left">template</th><th align="left">issue</th><th align="right">calls</th><th align="right">failed</th><th align="right">tokens in</th><th align="right">tokens out</th><th align="right">est. USD</th><th align="right">ms</th></tr>`)
	for _, g := range l.Groups {
		fmt.Fprintf(b, `<tr><td>%s</td><td>%s</td><td align="right">%d</td><td align="right">%d</td><td align="right">%d</td><td align="right">%d</td><td align="right">$%.4f</td><td align="right">%.1f</td></tr>`,
			html.EscapeString(g.Template), html.EscapeString(g.Issue), g.Calls, g.Failed,
			g.TokensIn, g.TokensOut, g.CostUSD, g.LatencyMS)
	}
	b.WriteString(`</table>`)
}

// renderScorecard writes each issue's verdict next to its label and any
// shadow flip, mismatches in red.
func renderScorecard(b *strings.Builder, c quality.Scorecard) {
	b.WriteString(`<h3>Verdicts</h3><p>`)
	switch matched, mismatched := c.Labels(); {
	case matched+mismatched == 0:
		b.WriteString(`no ground-truth labels for this trace`)
	case mismatched == 0:
		fmt.Fprintf(b, `all %d labelled verdict(s) match the ground truth`, matched)
	default:
		fmt.Fprintf(b, `<span style="color:#dc2626;font-weight:600">%d of %d labelled verdict(s) contradict the ground truth</span>`,
			mismatched, matched+mismatched)
	}
	flipped := map[string]bool{}
	if sh := c.Shadow; sh != nil {
		for _, id := range sh.Flips {
			flipped[string(id)] = true
		}
		if len(sh.Flips) > 0 {
			fmt.Fprintf(b, ` &middot; <span style="color:#dc2626;font-weight:600">shadow re-run flipped %d verdict(s)</span>`, len(sh.Flips))
		} else {
			b.WriteString(` &middot; shadow re-run confirmed the served verdicts`)
		}
	}
	b.WriteString(`.</p><table style="border-collapse:collapse;font-size:0.85rem"><tr><th align="left">issue</th><th align="left">verdict</th><th align="left">label</th><th align="left">shadow</th></tr>`)
	for _, sc := range c.Issues {
		style, shadow := "", ""
		if sc.Mismatch() {
			style = ` style="color:#dc2626;font-weight:600"`
		}
		if flipped[string(sc.Issue)] {
			shadow = "flipped"
		}
		fmt.Fprintf(b, `<tr%s><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>`, style,
			html.EscapeString(string(sc.Issue)), html.EscapeString(string(sc.Verdict)),
			html.EscapeString(string(sc.Label)), shadow)
	}
	b.WriteString(`</table>`)
}
