package webui

import (
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ion/internal/jobs"
	"ion/internal/llm/ledger"
	"ion/internal/obs/series"
)

// WithLLMLedger wires the LLM audit ledger behind GET /api/llm/ledger
// and GET /dashboard/llm, and returns the server for chaining. Without
// it those routes answer 404. The client is the ledger.Wrap recording
// wrapper analyses run through; it carries both the store and the
// per-backend health scorer.
func (s *JobServer) WithLLMLedger(lc *ledger.Client) *JobServer {
	s.llmLedger = lc
	return s
}

// ledgerDisabled answers the LLM audit endpoints when no ledger is
// wired in (WithLLMLedger was not called).
func (s *JobServer) ledgerDisabled(w http.ResponseWriter) bool {
	if s.llmLedger != nil {
		return false
	}
	s.errorJSON(w, http.StatusNotFound, "LLM ledger disabled: start ionserve without -ledger=none")
	return true
}

// llmLedgerResponse is the GET /api/llm/ledger wire type: cumulative
// accounting, per-backend health, per-job rollups (most expensive
// first), and the filtered entries, newest first.
type llmLedgerResponse struct {
	Totals  ledger.Totals          `json:"totals"`
	Health  []ledger.BackendHealth `json:"health"`
	Jobs    []ledger.JobSum        `json:"jobs"`
	Entries []ledger.Entry         `json:"entries"`
}

// handleLLMLedger serves the audit ledger:
//
//	GET /api/llm/ledger?limit=50&backend=openai&job=j-abc123
//
// limit bounds the returned entries (default 100), backend and job
// filter by exact match.
func (s *JobServer) handleLLMLedger(w http.ResponseWriter, r *http.Request) {
	if s.ledgerDisabled(w) {
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
	store := s.llmLedger.Store()
	entries := store.Entries(ledger.Filter{
		Job:     q.Get("job"),
		Backend: q.Get("backend"),
		Limit:   limit,
	})
	if entries == nil {
		entries = []ledger.Entry{}
	}
	jobSums := store.JobSums(10)
	if jobSums == nil {
		jobSums = []ledger.JobSum{}
	}
	health := s.llmLedger.Health()
	if health == nil {
		health = []ledger.BackendHealth{}
	}
	s.writeJSON(w, http.StatusOK, llmLedgerResponse{
		Totals:  store.Totals(),
		Health:  health,
		Jobs:    jobSums,
		Entries: entries,
	})
}

// costBanner renders a job's LLM cost attribution: calls, tokens and
// estimated dollars. Empty when no ledger is configured.
func costBanner(job jobs.Job) string {
	c := job.Cost
	if c == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(`<div style="margin-top:2rem;padding:0.75rem 1rem;border:1px solid #d97706;border-radius:6px;background:#fffbeb">`)
	if job.State == jobs.StateReused {
		b.WriteString(`<strong>LLM cost:</strong> $0 — the report was served verbatim from a prior job (0 calls).`)
	} else {
		fmt.Fprintf(&b, `<strong>LLM cost:</strong> $%.4f estimated &middot; %d call(s) &middot; %d tokens in / %d out.`,
			c.EstUSD, c.Calls, c.TokensIn, c.TokensOut)
	}
	b.WriteString(` <a href="/dashboard/llm">LLM dashboard</a></div>`)
	return b.String()
}

// handleLLMDashboard renders the zero-JS LLM observability page:
// cumulative spend, a cost-over-time sparkline from the series store,
// the per-template token histogram, the backend health table, and the
// top-N most expensive jobs. The page is well-formed XML (self-closed
// void tags, numeric character references only) so it can be machine
// checked, archived, and transformed.
func (s *JobServer) handleLLMDashboard(w http.ResponseWriter, r *http.Request) {
	if s.ledgerDisabled(w) {
		return
	}
	store := s.llmLedger.Store()
	tot := store.Totals()

	var b strings.Builder
	b.WriteString(llmDashHead)

	// &#183; is the middle dot; named entities are not XML.
	fmt.Fprintf(&b, `<p class="meta">est. spend <strong>$%.4f</strong> &#183; %d calls &#183; %d tokens in / %d out &#183; %d errors &#183; %d timeouts &#183; %d entries retained (%s)`,
		tot.CostUSD, tot.Calls, tot.TokensIn, tot.TokensOut, tot.Errors, tot.Timeouts,
		tot.Entries, xmlBytes(tot.Bytes))
	b.WriteString(` &#183; <a href="/api/llm/ledger">ledger JSON</a> &#183; <a href="/dashboard">dashboard</a> &#183; <a href="/">jobs</a></p>`)
	b.WriteString(`<p class="meta">Entries hold prompt hashes and accounting only; raw text is recorded only with <code>-ledger-capture-text</code>.</p>`)

	s.renderCostSpark(&b)
	renderTemplateTokens(&b, store.TemplateTokens())
	renderBackendHealth(&b, s.llmLedger.Health())
	renderTopJobs(&b, store.JobSums(10))

	b.WriteString("</body></html>\n")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// renderCostSpark plots the spend rate over the series store's window
// as an inline SVG polyline (ion_llm_cost_usd_total is a counter, so
// the stored points are USD per second). Skipped without a series
// store; an empty chart notes the absence of data.
func (s *JobServer) renderCostSpark(b *strings.Builder) {
	b.WriteString(`<h2>Spend rate</h2>`)
	if s.series == nil {
		b.WriteString(`<p class="nodata">no series store wired in</p>`)
		return
	}
	to := time.Now()
	window := s.sparkWindow()
	// The counter is labelled per backend; sum the series point-wise so
	// the sparkline shows total spend rate.
	pts := s.foldSeries("ion_llm_cost_usd_total", to.Add(-window), to,
		func(acc, v float64) float64 { return acc + v })
	if len(pts) < 2 {
		b.WriteString(`<p class="nodata">no data yet</p>`)
		return
	}
	lo, hi := sparkline(b, [][]series.Point{pts}, []string{"#d97706"}, to.Add(-window), to, 560, 64, false)
	fmt.Fprintf(b, `<p class="readout"><strong>$%.6f/s</strong> <span class="range">min $%.6f/s &#183; max $%.6f/s over %s</span></p>`,
		pts[len(pts)-1].V, lo, hi, window)
}

// renderTemplateTokens draws the per-template token histogram as
// proportional bars.
func renderTemplateTokens(b *strings.Builder, byTemplate map[string]int64) {
	b.WriteString(`<h2>Tokens by prompt template</h2>`)
	if len(byTemplate) == 0 {
		b.WriteString(`<p class="nodata">no calls recorded yet</p>`)
		return
	}
	templates := make([]string, 0, len(byTemplate))
	var max int64
	for t, n := range byTemplate {
		templates = append(templates, t)
		if n > max {
			max = n
		}
	}
	// Stable order: biggest first, ties by name.
	for i := 1; i < len(templates); i++ {
		for j := i; j > 0; j-- {
			a, c := templates[j-1], templates[j]
			if byTemplate[a] > byTemplate[c] || (byTemplate[a] == byTemplate[c] && a < c) {
				break
			}
			templates[j-1], templates[j] = c, a
		}
	}
	b.WriteString(`<table>`)
	for _, t := range templates {
		n := byTemplate[t]
		pct := 100 * float64(n) / float64(max)
		fmt.Fprintf(b, `<tr><td class="tname">%s</td><td class="bar"><div style="width:%.1f%%"></div></td><td class="tval">%d</td></tr>`,
			html.EscapeString(t), pct, n)
	}
	b.WriteString(`</table>`)
}

// renderBackendHealth writes the rolling health score table: the same
// numbers exported as ion_llm_backend_health and watched by the
// LLMBackendDegraded rule.
func renderBackendHealth(b *strings.Builder, health []ledger.BackendHealth) {
	b.WriteString(`<h2>Backend health</h2>`)
	if len(health) == 0 {
		b.WriteString(`<p class="nodata">no backends observed yet</p>`)
		return
	}
	b.WriteString(`<table><tr><th>backend</th><th>score</th><th>calls</th><th>error rate</th><th>timeout rate</th><th>p95 latency</th><th>baseline p95</th></tr>`)
	for _, h := range health {
		cls := "ok"
		if h.Score < 0.5 {
			cls = "bad"
		} else if h.Score < 0.8 {
			cls = "warn"
		}
		fmt.Fprintf(b, `<tr><td>%s</td><td class="%s">%.2f</td><td>%d</td><td>%.1f%%</td><td>%.1f%%</td><td>%s</td><td>%s</td></tr>`,
			html.EscapeString(h.Backend), cls, h.Score, h.Calls,
			100*h.ErrorRate, 100*h.TimeoutRate,
			xmlSeconds(h.P95Latency), xmlSeconds(h.BaselineP95))
	}
	b.WriteString(`</table>`)
	b.WriteString(`<p class="meta">score = clamp(1 &#8722; 0.7&#183;err &#8722; 0.7&#183;timeout &#8722; 0.3&#183;latency penalty, 0, 1); below 0.5 the <code>LLMBackendDegraded</code> alert fires.</p>`)
}

// renderTopJobs writes the most expensive jobs table.
func renderTopJobs(b *strings.Builder, sums []ledger.JobSum) {
	b.WriteString(`<h2>Most expensive jobs</h2>`)
	if len(sums) == 0 {
		b.WriteString(`<p class="nodata">no job-attributed calls yet</p>`)
		return
	}
	b.WriteString(`<table><tr><th>job</th><th>calls</th><th>tokens in</th><th>tokens out</th><th>est. USD</th></tr>`)
	for _, s := range sums {
		fmt.Fprintf(b, `<tr><td><a href="/jobs/%s"><code>%s</code></a></td><td>%d</td><td>%d</td><td>%d</td><td>$%.4f</td></tr>`,
			html.EscapeString(s.Job), html.EscapeString(s.Job),
			s.Calls, s.TokensIn, s.TokensOut, s.CostUSD)
	}
	b.WriteString(`</table>`)
}

// xmlSeconds renders a latency without relying on locale or entities.
func xmlSeconds(v float64) string {
	if v <= 0 {
		return "0"
	}
	if v < 1 {
		return strconv.FormatFloat(1000*v, 'f', 1, 64) + " ms"
	}
	return strconv.FormatFloat(v, 'f', 2, 64) + " s"
}

// xmlBytes renders a byte count with binary prefixes.
func xmlBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return strconv.FormatFloat(float64(n)/(1<<20), 'f', 1, 64) + " MiB"
	case n >= 1<<10:
		return strconv.FormatFloat(float64(n)/(1<<10), 'f', 1, 64) + " KiB"
	}
	return strconv.FormatInt(n, 10) + " B"
}

// llmDashHead is the page prologue. Unlike the main dashboard it is
// strict XML: void elements self-closed, no named HTML entities, so
// the page parses with any XML tooling.
const llmDashHead = `<html><head><meta charset="utf-8" /><title>ION &#8212; LLM cost &amp; audit</title>
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
.warn { color: #d97706; font-weight: 600 }
.bad { color: #dc2626; font-weight: 600 }
svg { width: 100%; height: 64px; background: #fafafa; border: 1px solid #ddd; border-radius: 6px }
table { border-collapse: collapse; width: 100%; margin-top: 0.5rem; font-size: 0.85rem }
th, td { border: 1px solid #ddd; padding: 4px 8px; text-align: left }
td.tname { width: 10rem } td.tval { width: 6rem; text-align: right }
td.bar div { background: #d97706; height: 0.9rem; min-width: 2px }
</style></head>
<body>
<h1>ION LLM cost &amp; audit</h1>
`
