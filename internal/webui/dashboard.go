package webui

import (
	"fmt"
	"html"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ion/internal/obs"
	"ion/internal/obs/series"
)

// buildInfo is resolved once per process: it feeds the dashboard
// header and never changes after link time.
var buildInfo = sync.OnceValue(obs.GetBuildInfo)

// seriesDisabled answers the observability endpoints when no series
// store is wired in (WithSeries was not called).
func (s *JobServer) seriesDisabled(w http.ResponseWriter) bool {
	if s.series != nil {
		return false
	}
	s.errorJSON(w, http.StatusNotFound, "time-series store disabled: start ionserve with scraping enabled")
	return true
}

// queryResponse is the GET /api/metrics/query wire type.
type queryResponse struct {
	Name string `json:"name"`
	// From/To are the resolved window bounds (unix milliseconds).
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Step is the aggregation bucket in milliseconds (0 = raw points).
	Step int64 `json:"step,omitempty"`
	// Series holds one entry per matching labeled series; points are
	// [unix_ms, value] pairs, oldest first.
	Series []series.Result `json:"series"`
	// Exemplars, present when the queried metric is backed by a
	// histogram, pins concrete trace/job/request ids to observed values
	// (largest first) — the answer to "which job was the p99?".
	Exemplars []obs.SeriesExemplars `json:"exemplars,omitempty"`
}

// handleMetricsQuery serves windowed series from the in-process store:
//
//	GET /api/metrics/query?name=ion_jobs_queue_depth&window=10m
//	GET /api/metrics/query?name=ion_pipeline_stage_seconds&l.stage=analyze&l.quantile=0.95
//	GET /api/metrics/query?name=ion_llm_requests_total&window=1h&step=30s&agg=max
//
// Parameters: name (required metric name), window (duration back from
// now, default 10m), step (optional downsample bucket), agg
// (avg|max|min|sum|last, default avg), and any number of l.<key>=<val>
// exact label filters.
func (s *JobServer) handleMetricsQuery(w http.ResponseWriter, r *http.Request) {
	if s.seriesDisabled(w) {
		return
	}
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		s.errorJSON(w, http.StatusBadRequest, "name parameter is required (see /api/metrics/query docs)")
		return
	}
	window := 10 * time.Minute
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			s.errorJSON(w, http.StatusBadRequest, "window must be a positive duration like 10m, got "+strconv.Quote(v))
			return
		}
		window = d
	}
	var step time.Duration
	if v := q.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			s.errorJSON(w, http.StatusBadRequest, "step must be a positive duration like 30s, got "+strconv.Quote(v))
			return
		}
		step = d
	}
	agg := q.Get("agg")
	switch agg {
	case "", "avg", "max", "min", "sum", "last":
	default:
		s.errorJSON(w, http.StatusBadRequest, "agg must be avg, max, min, sum, or last, got "+strconv.Quote(agg))
		return
	}
	labels := map[string]string{}
	for key, vals := range q {
		if k, ok := strings.CutPrefix(key, "l."); ok {
			if k == "" {
				s.errorJSON(w, http.StatusBadRequest, "label selector needs a key: use l.<key>=<value>")
				return
			}
			if len(vals) > 0 {
				labels[k] = vals[0]
			}
		}
	}

	now := time.Now()
	from := now.Add(-window)
	results := s.series.Query(series.Query{
		Name: name, Labels: labels, From: from, To: now, Step: step, Agg: agg,
	})
	if results == nil {
		results = []series.Result{}
	}
	s.writeJSON(w, http.StatusOK, queryResponse{
		Name: name, From: from.UnixMilli(), To: now.UnixMilli(),
		Step: step.Milliseconds(), Series: results,
		Exemplars: s.queryExemplars(name, labels),
	})
}

// queryExemplars resolves the exemplars relevant to a query: the
// queried name is mapped back to its histogram family (quantile series
// carry the family name; _count/_sum are suffixed), the family's
// exemplars fetched from the registry, and series filtered by the
// query's label selector (the synthetic quantile label aside, which
// exemplar series do not carry).
func (s *JobServer) queryExemplars(name string, labels map[string]string) []obs.SeriesExemplars {
	family := strings.TrimSuffix(strings.TrimSuffix(name, "_count"), "_sum")
	all := s.obs.Exemplars(family)
	if len(all) == 0 {
		return nil
	}
	var out []obs.SeriesExemplars
	for _, se := range all {
		match := true
		for k, v := range labels {
			if k == "quantile" {
				continue
			}
			found := false
			for _, l := range se.Labels {
				if l.Key == k {
					found = l.Value == v
					break
				}
			}
			if !found {
				match = false
				break
			}
		}
		if match {
			out = append(out, se)
		}
	}
	return out
}

// alertsResponse is the GET /api/alerts wire type.
type alertsResponse struct {
	Firing int                  `json:"firing"`
	Alerts []series.AlertStatus `json:"alerts"`
}

// handleAlerts serves the rule engine's alert states and transition
// history.
func (s *JobServer) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.seriesDisabled(w) {
		return
	}
	alerts := s.series.Alerts()
	firing := 0
	for _, a := range alerts {
		if a.State == series.StateFiring {
			firing++
		}
	}
	s.writeJSON(w, http.StatusOK, alertsResponse{Firing: firing, Alerts: alerts})
}

// dashPanel is one dashboard chart: a title, a unit hint for the value
// readout, and the queries whose series it plots.
type dashPanel struct {
	title   string
	unit    string // "", "%", "s", "B", "/s"
	queries []series.Query
}

// dashboardPanels is the fixed panel layout: service pressure on top,
// pipeline latency and backend health in the middle, process health at
// the bottom. Every query resolves against the same store the alert
// rules read.
func dashboardPanels() []dashPanel {
	q := func(name string, labels map[string]string) series.Query {
		return series.Query{Name: name, Labels: labels}
	}
	return []dashPanel{
		{title: "Queue depth", queries: []series.Query{q("ion_jobs_queue_depth", nil)}},
		{title: "Worker utilization", unit: "%", queries: []series.Query{q("ion_jobs_utilization", nil)}},
		{title: "Job failure ratio", unit: "%", queries: []series.Query{q("ion_jobs_failure_ratio", nil)}},
		{title: "Analyze latency p50/p95", unit: "s", queries: []series.Query{
			q("ion_pipeline_stage_seconds", map[string]string{"stage": "analyze", "quantile": "0.5"}),
			q("ion_pipeline_stage_seconds", map[string]string{"stage": "analyze", "quantile": "0.95"}),
		}},
		{title: "LLM requests", unit: "/s", queries: []series.Query{q("ion_llm_requests_total", nil)}},
		{title: "LLM latency p95", unit: "s", queries: []series.Query{
			q("ion_llm_request_seconds", map[string]string{"quantile": "0.95"}),
		}},
		{title: "LLM spend rate", unit: "USD/s", queries: []series.Query{q("ion_llm_cost_usd_total", nil)}},
		{title: "LLM backend health", queries: []series.Query{q("ion_llm_backend_health", nil)}},
		{title: "Semantic cache hit ratio", unit: "%", queries: []series.Query{q("ion_semcache_hit_ratio", nil)}},
		{title: "Shadow flip ratio", unit: "%", queries: []series.Query{q("ion_semcache_flip_ratio", nil)}},
		{title: "HTTP requests", unit: "/s", queries: []series.Query{q("ion_http_requests_total", nil)}},
		{title: "Heap", unit: "B", queries: []series.Query{q("ion_go_heap_bytes", nil)}},
		{title: "Goroutines", queries: []series.Query{q("ion_go_goroutines", nil)}},
		{title: "GC pause", unit: "s/s", queries: []series.Query{q("ion_go_gc_pause_seconds_total", nil)}},
		{title: "Alerts firing", queries: []series.Query{q("ion_alerts_firing", nil)}},
	}
}

// sparkColors cycles through the polyline strokes of a panel.
var sparkColors = []string{"#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed", "#0891b2"}

// maxLinesPerPanel bounds how many series one panel plots.
const maxLinesPerPanel = 6

// handleDashboard renders the live self-observation page: inline-SVG
// sparklines over the in-process series store plus the alert table.
// Pure server-rendered HTML with a meta refresh — no JavaScript
// frameworks, no external network.
func (s *JobServer) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if s.seriesDisabled(w) {
		return
	}
	now := time.Now()
	window := s.sparkWindow()
	refresh := int(s.series.Interval() / time.Second)
	if refresh < 1 {
		refresh = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, dashboardHead, refresh)

	alerts := s.series.Alerts()
	firing := 0
	for _, a := range alerts {
		if a.State == series.StateFiring {
			firing++
		}
	}
	st := s.svc.Stats()
	fmt.Fprintf(&b, `<p class="meta">%s</p>`, html.EscapeString(buildInfo().String()))
	fmt.Fprintf(&b, `<p class="meta">window %s &middot; refresh %ds &middot; %d series retained &middot; queue %d/%d &middot; workers busy %d/%d &middot; `,
		window, refresh, s.series.SeriesCount(), st.QueueDepth, st.QueueCapacity, st.Busy, st.Workers)
	if firing > 0 {
		fmt.Fprintf(&b, `<strong class="firing">%d alert(s) firing</strong>`, firing)
	} else {
		b.WriteString(`<span class="ok">no alerts firing</span>`)
	}
	// Watchdog lights: how fresh the scrape loop and the profiler are.
	fmt.Fprintf(&b, ` &middot; %s`, staleSpan("scraped", s.series.LastScrape(), 2*s.series.Interval()))
	if s.prof != nil {
		fmt.Fprintf(&b, ` &middot; %s`, staleSpan("profile window", s.prof.LastWindowTime(), 2*s.prof.Interval()))
	}
	b.WriteString(` &middot; <a href="/api/alerts">alerts JSON</a>`)
	if s.flight != nil {
		fmt.Fprintf(&b, ` &middot; <a href="/api/incidents">%d incident(s)</a>`, len(s.flight.List()))
	}
	if s.prof != nil {
		b.WriteString(` &middot; <a href="/api/prof/flamegraph">CPU flamegraph</a> &middot; <a href="/api/prof/windows">profile windows</a>`)
	}
	b.WriteString(` &middot; <a href="/metrics">metrics</a> &middot; <a href="/">jobs</a></p>`)

	b.WriteString(`<div class="grid">`)
	for _, p := range dashboardPanels() {
		s.renderPanel(&b, p, now.Add(-window), now)
	}
	b.WriteString(`</div>`)

	renderAlertTable(&b, alerts, s.incidentsByRule())
	b.WriteString("</body></html>\n")

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// renderPanel draws one chart: every matching series as a polyline,
// with a shared y-scale, min/max/last annotations, and a legend.
func (s *JobServer) renderPanel(b *strings.Builder, p dashPanel, from, to time.Time) {
	var lines [][]series.Point
	var legends []string
	for _, q := range p.queries {
		q.From, q.To = from, to
		for _, res := range s.series.Query(q) {
			if len(lines) >= maxLinesPerPanel {
				break
			}
			legends = append(legends, legendFor(res, len(p.queries) > 1 || len(lines) > 0))
			lines = append(lines, res.Points)
		}
	}

	fmt.Fprintf(b, `<div class="panel"><h2>%s</h2>`, html.EscapeString(p.title))
	if len(lines) == 0 {
		b.WriteString(`<p class="nodata">no data yet</p></div>`)
		return
	}
	lo, hi := sparkline(b, lines, from, to)

	last := lines[0][len(lines[0])-1].V
	fmt.Fprintf(b, `<p class="readout"><strong>%s</strong> <span class="range">min %s &middot; max %s</span></p>`,
		formatUnit(last, p.unit), formatUnit(lo, p.unit), formatUnit(hi, p.unit))
	if len(lines) > 1 || legends[0] != "" {
		b.WriteString(`<p class="legend">`)
		for i, legend := range legends {
			if i > 0 {
				b.WriteString(" &middot; ")
			}
			fmt.Fprintf(b, `<span style="color:%s">%s</span>`,
				sparkColors[i%len(sparkColors)], html.EscapeString(legend))
		}
		b.WriteString(`</p>`)
	}
	b.WriteString(`</div>`)
}

// sparkWindow is the span every sparkline covers: the last ten
// minutes, or the series store's retention when that is shorter.
func (s *JobServer) sparkWindow() time.Duration {
	return min(10*time.Minute, s.series.Retention())
}

// sparkline draws each line as a 260×56 SVG polyline across [from,
// to], stroked in sparkColors. The lines share one y-scale, the range
// of their points. Lines with fewer than two points are not drawn. It
// returns the range of the points.
func sparkline(b *strings.Builder, lines [][]series.Point, from, to time.Time) (lo, hi float64) {
	const w, h, pad = 260, 56, 3
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, pts := range lines {
		for _, pt := range pts {
			lo, hi = math.Min(lo, pt.V), math.Max(hi, pt.V)
		}
	}
	bottom, top := lo, hi
	if hi == lo {
		bottom, top = lo-1, hi+1
	}

	fromMs, toMs := from.UnixMilli(), to.UnixMilli()
	fmt.Fprintf(b, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">`, w, h, w, h)
	for i, pts := range lines {
		if len(pts) < 2 {
			continue
		}
		var path strings.Builder
		for j, pt := range pts {
			x := pad + float64(w-2*pad)*float64(pt.T-fromMs)/float64(toMs-fromMs)
			y := float64(h-pad) - float64(h-2*pad)*(pt.V-bottom)/(top-bottom)
			if j > 0 {
				path.WriteByte(' ')
			}
			fmt.Fprintf(&path, "%.1f,%.1f", x, y)
		}
		fmt.Fprintf(b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`,
			sparkColors[i%len(sparkColors)], path.String())
	}
	b.WriteString(`</svg>`)
	return lo, hi
}

// legendFor labels one plotted series; single-series panels with no
// interesting labels get no legend.
func legendFor(res series.Result, want bool) string {
	if !want || len(res.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(res.Labels))
	for k := range res.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+res.Labels[k])
	}
	return strings.Join(parts, " ")
}

// formatUnit renders a value with its panel unit: percentages scale
// ×100, byte values get binary prefixes, everything else is %g.
func formatUnit(v float64, unit string) string {
	switch unit {
	case "%":
		return strconv.FormatFloat(100*v, 'f', 1, 64) + "%"
	case "B":
		abs := math.Abs(v)
		switch {
		case abs >= 1<<30:
			return strconv.FormatFloat(v/(1<<30), 'f', 2, 64) + " GiB"
		case abs >= 1<<20:
			return strconv.FormatFloat(v/(1<<20), 'f', 1, 64) + " MiB"
		case abs >= 1<<10:
			return strconv.FormatFloat(v/(1<<10), 'f', 1, 64) + " KiB"
		}
		return strconv.FormatFloat(v, 'f', 0, 64) + " B"
	case "":
		return strconv.FormatFloat(v, 'g', 4, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64) + " " + unit
	}
}

// staleSpan renders "label 12s ago", wrapped in the amber .stale class
// once the age passes the limit (two cadence intervals): the dashboard
// equivalent of a watchdog light. A zero stamp renders as "never".
func staleSpan(label string, at time.Time, limit time.Duration) string {
	if at.IsZero() {
		return fmt.Sprintf(`<span class="stale">%s: never</span>`, html.EscapeString(label))
	}
	age := time.Since(at)
	text := fmt.Sprintf("%s %s ago", html.EscapeString(label), formatAge(age))
	if limit > 0 && age > limit {
		return `<span class="stale">` + text + `</span>`
	}
	return text
}

// formatAge renders a duration at dashboard granularity.
func formatAge(d time.Duration) string {
	switch {
	case d < time.Second:
		return "<1s"
	case d < time.Minute:
		return strconv.Itoa(int(d/time.Second)) + "s"
	case d < time.Hour:
		return strconv.Itoa(int(d/time.Minute)) + "m"
	default:
		return strconv.Itoa(int(d/time.Hour)) + "h"
	}
}

// incidentsByRule maps each alert rule to its most recent incident
// bundle id (captures triggered by rule transitions carry the reason
// "alert:<rule>"). Nil when no recorder is wired in.
func (s *JobServer) incidentsByRule() map[string]string {
	if s.flight == nil {
		return nil
	}
	out := map[string]string{}
	for _, m := range s.flight.List() { // newest first: first match wins
		if rule, ok := strings.CutPrefix(m.Reason, "alert:"); ok {
			if _, seen := out[rule]; !seen {
				out[rule] = m.ID
			}
		}
	}
	return out
}

// renderAlertTable writes the alert rules and their lifecycle states,
// linking each rule that has captured an incident to its bundle.
func renderAlertTable(b *strings.Builder, alerts []series.AlertStatus, incidents map[string]string) {
	b.WriteString(`<h2>Alerts</h2>`)
	if len(alerts) == 0 {
		b.WriteString(`<p class="nodata">no alert rules configured</p>`)
		return
	}
	b.WriteString(`<table><tr><th>rule</th><th>state</th><th>severity</th><th>expr</th><th>for</th><th>value</th><th>since</th><th>incident</th></tr>`)
	for _, a := range alerts {
		cls := "state-" + string(a.State)
		since := ""
		if !a.Since.IsZero() {
			since = a.Since.UTC().Format(time.RFC3339)
		}
		value := strconv.FormatFloat(a.Value, 'g', 4, 64)
		if a.NoData {
			value = "no data"
		}
		incident := ""
		if id, ok := incidents[a.Rule.Name]; ok {
			incident = fmt.Sprintf(`<a href="/api/incidents/%s/download">bundle</a>`, html.EscapeString(id))
		}
		fmt.Fprintf(b, `<tr><td>%s</td><td class="%s">%s</td><td>%s</td><td><code>%s</code></td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>`,
			html.EscapeString(a.Rule.Name), cls, html.EscapeString(string(a.State)),
			html.EscapeString(a.Rule.Severity), html.EscapeString(a.Rule.Expr),
			html.EscapeString(a.Rule.For), value, since, incident)
	}
	b.WriteString(`</table>`)
}

const dashboardHead = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ION — live dashboard</title>
<meta http-equiv="refresh" content="%d">
<style>
body { font-family: system-ui, sans-serif; max-width: 64rem; margin: 2rem auto; color: #111 }
h1 { margin-bottom: 0.25rem }
.meta { color: #555 }
.grid { display: grid; grid-template-columns: repeat(auto-fill, minmax(270px, 1fr)); gap: 1rem }
.panel { border: 1px solid #ddd; border-radius: 6px; padding: 0.5rem 0.75rem }
.panel h2 { font-size: 0.9rem; margin: 0 0 0.25rem }
.panel svg { width: 100%%; height: 56px; background: #fafafa }
.readout { margin: 0.25rem 0 0; font-size: 0.9rem }
.range { color: #777; font-size: 0.8rem }
.legend { margin: 0.1rem 0 0; font-size: 0.75rem }
.nodata { color: #999; font-style: italic }
.ok { color: #059669 }
.stale { color: #d97706; font-weight: 600 }
.firing, .state-firing { color: #dc2626; font-weight: 600 }
.state-pending { color: #d97706 }
.state-resolved { color: #2563eb }
table { border-collapse: collapse; width: 100%%; margin-top: 0.5rem; font-size: 0.85rem }
th, td { border: 1px solid #ddd; padding: 4px 8px; text-align: left }
</style></head>
<body>
<h1>ION self-observation</h1>
`
