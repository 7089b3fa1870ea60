package series

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Rule is one SLO-style alert rule: a threshold expression that must
// hold for a sustained duration before the alert fires.
//
// The expression grammar is deliberately small:
//
//	expr     := [fn "("] metric [selector] [")"] op number
//	fn       := p50 | p95 | p99 | avg | min | max | sum | last
//	selector := "{" key="value" ("," key="value")* "}"
//	op       := ">" | ">=" | "<" | "<="
//
// Examples:
//
//	ion_jobs_failure_ratio > 0.1
//	p95(ion_pipeline_stage_seconds{stage="analyze"}) > 30
//	sum(ion_llm_requests_total{outcome="error"}) > 0.5
//
// p50/p95/p99 select the matching quantile series the registry derives
// from histograms and take the max across matches; avg/min/max/sum/last
// aggregate the latest value of every matching series; with no fn the
// max across matches is compared. Counter metrics evaluate their
// per-second scrape rate, the value the store retains.
type Rule struct {
	// Name identifies the rule in /api/alerts, logs, and history.
	Name string `json:"name"`
	// Expr is the threshold expression (grammar above).
	Expr string `json:"expr"`
	// For is how long the expression must hold before the alert moves
	// from pending to firing; 0 fires on the first true evaluation.
	For Duration `json:"for"`
	// Severity is a free-form label ("warn", "page", …) surfaced in
	// /api/alerts; empty means "warn".
	Severity string `json:"severity,omitempty"`

	parsed expr
}

// Duration is a time.Duration that marshals as a Go duration string
// ("90s", "1m30s") in rule files and API payloads.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string or a number of seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("series: bad duration %q: %v", s, err)
		}
		*d = Duration(dd)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("series: duration must be a string like \"1m\" or seconds: %s", b)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// expr is a parsed rule expression.
type expr struct {
	fn        string // "", p50, p95, p99, avg, min, max, sum, last
	metric    string
	labels    map[string]string
	op        string // > >= < <=
	threshold float64
}

// parseExpr parses the rule expression grammar.
func parseExpr(s string) (expr, error) {
	var e expr
	rest := strings.TrimSpace(s)
	for _, fn := range []string{"p50", "p95", "p99", "avg", "min", "max", "sum", "last"} {
		if strings.HasPrefix(rest, fn+"(") {
			e.fn = fn
			rest = rest[len(fn)+1:]
			close := strings.IndexByte(rest, ')')
			if close < 0 {
				return e, fmt.Errorf("series: expression %q: missing ')'", s)
			}
			inner := rest[:close]
			rest = strings.TrimSpace(rest[close+1:])
			if err := e.parseSelector(inner); err != nil {
				return e, fmt.Errorf("series: expression %q: %v", s, err)
			}
			return e.parseComparison(s, rest)
		}
	}
	// No function: selector runs up to the comparison operator.
	opAt := strings.IndexAny(rest, "<>")
	if opAt < 0 {
		return e, fmt.Errorf("series: expression %q: missing comparison operator", s)
	}
	if err := e.parseSelector(strings.TrimSpace(rest[:opAt])); err != nil {
		return e, fmt.Errorf("series: expression %q: %v", s, err)
	}
	return e.parseComparison(s, rest[opAt:])
}

// parseSelector parses `metric` or `metric{k="v",...}`.
func (e *expr) parseSelector(s string) error {
	s = strings.TrimSpace(s)
	brace := strings.IndexByte(s, '{')
	if brace < 0 {
		if s == "" {
			return fmt.Errorf("empty metric name")
		}
		e.metric = s
		return nil
	}
	e.metric = strings.TrimSpace(s[:brace])
	if e.metric == "" {
		return fmt.Errorf("empty metric name")
	}
	body, ok := strings.CutSuffix(strings.TrimSpace(s[brace:]), "}")
	if !ok {
		return fmt.Errorf("unterminated selector")
	}
	body = strings.TrimPrefix(body, "{")
	e.labels = map[string]string{}
	for _, pair := range splitSelector(body) {
		k, v, found := strings.Cut(pair, "=")
		if !found {
			return fmt.Errorf("bad selector pair %q", pair)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if uq, err := strconv.Unquote(v); err == nil {
			v = uq
		}
		if k == "" {
			return fmt.Errorf("bad selector pair %q", pair)
		}
		e.labels[k] = v
	}
	return nil
}

// splitSelector splits label pairs on commas outside quotes.
func splitSelector(s string) []string {
	var out []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(s):
			b.WriteByte(c)
			i++
			b.WriteByte(s[i])
		case c == '"':
			inQuote = !inQuote
			b.WriteByte(c)
		case c == ',' && !inQuote:
			if p := strings.TrimSpace(b.String()); p != "" {
				out = append(out, p)
			}
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if p := strings.TrimSpace(b.String()); p != "" {
		out = append(out, p)
	}
	return out
}

// parseComparison parses the trailing `op number`.
func (e expr) parseComparison(whole, s string) (expr, error) {
	s = strings.TrimSpace(s)
	for _, op := range []string{">=", "<=", ">", "<"} {
		if strings.HasPrefix(s, op) {
			num := strings.TrimSpace(s[len(op):])
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return e, fmt.Errorf("series: expression %q: bad threshold %q", whole, num)
			}
			e.op, e.threshold = op, v
			return e, nil
		}
	}
	return e, fmt.Errorf("series: expression %q: missing comparison operator", whole)
}

// compare applies the expression's operator.
func (e expr) compare(v float64) bool {
	switch e.op {
	case ">":
		return v > e.threshold
	case ">=":
		return v >= e.threshold
	case "<":
		return v < e.threshold
	case "<=":
		return v <= e.threshold
	}
	return false
}

// selector returns the label filters the expression queries, folding
// the quantile label in for p50/p95/p99.
func (e expr) selector() map[string]string {
	switch e.fn {
	case "p50", "p95", "p99":
		sel := map[string]string{"quantile": "0." + e.fn[1:]}
		if sel["quantile"] == "0.50" {
			sel["quantile"] = "0.5"
		}
		for k, v := range e.labels {
			sel[k] = v
		}
		return sel
	default:
		return e.labels
	}
}

// ParseRules decodes a JSON rule file: either a top-level array of
// rules or {"rules": [...]}, validating every expression.
func ParseRules(data []byte) ([]Rule, error) {
	var rules []Rule
	if err := json.Unmarshal(data, &rules); err != nil {
		var wrapped struct {
			Rules []Rule `json:"rules"`
		}
		if werr := json.Unmarshal(data, &wrapped); werr != nil {
			return nil, fmt.Errorf("series: rules file: %v", err)
		}
		rules = wrapped.Rules
	}
	seen := map[string]bool{}
	for i := range rules {
		r := &rules[i]
		if strings.TrimSpace(r.Name) == "" {
			return nil, fmt.Errorf("series: rule %d: missing name", i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("series: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		parsed, err := parseExpr(r.Expr)
		if err != nil {
			return nil, fmt.Errorf("series: rule %q: %v", r.Name, err)
		}
		r.parsed = parsed
		if r.Severity == "" {
			r.Severity = "warn"
		}
	}
	return rules, nil
}

// MustRules is ParseRules for compiled-in defaults; it panics on error.
func MustRules(data []byte) []Rule {
	rules, err := ParseRules(data)
	if err != nil {
		panic(err)
	}
	return rules
}

// DefaultRules are the built-in SLO rules ionserve evaluates when no
// -rules file is given. Each has a fault that fires it: a failing
// backend (the failure ratio, and the ledger's backend health score),
// a backend that stops answering while jobs queue (queue saturation),
// and a backend contradicting the verdicts a reused report served
// (shadow flips, max across reuse modes). internal/jobs
// TestDefaultRulesCalibration shows each evaluated on data and silent
// on correct traffic, and firing on its fault. No rule pages on
// diagnosis quality: the only oracle is the bundled workloads' labels,
// which production traces lack. None fires on the profiler's windows:
// one function's share of a near-idle window reads 1.0.
func DefaultRules() []Rule {
	return MustRules([]byte(`[
  {"name": "JobFailureRatioHigh", "expr": "ion_jobs_failure_ratio > 0.1", "for": "1m", "severity": "page"},
  {"name": "QueueNearCapacity",   "expr": "ion_jobs_queue_utilization > 0.9", "for": "1m", "severity": "warn"},
  {"name": "SemcacheFlipRateHigh", "expr": "max(ion_semcache_flip_ratio) > 0.25", "for": "2m", "severity": "warn"},
  {"name": "LLMBackendDegraded",  "expr": "min(ion_llm_backend_health) < 0.5", "for": "1m", "severity": "page"}
]`))
}

// AlertState is one position in the alert lifecycle:
//
//	ok → pending → firing → resolved → pending → …
//
// pending means the expression is true but has not yet held for the
// rule's For duration; resolved is ok with a firing episode behind it.
type AlertState string

// Alert lifecycle states.
const (
	StateOK       AlertState = "ok"
	StatePending  AlertState = "pending"
	StateFiring   AlertState = "firing"
	StateResolved AlertState = "resolved"
)

// Transition is one recorded state change of an alert.
type Transition struct {
	At    time.Time  `json:"at"`
	From  AlertState `json:"from"`
	To    AlertState `json:"to"`
	Value float64    `json:"value"`
}

// AlertStatus is the queryable state of one rule.
type AlertStatus struct {
	Rule AlertRuleView `json:"rule"`
	// State is the current lifecycle state.
	State AlertState `json:"state"`
	// Since is when the current state was entered.
	Since time.Time `json:"since,omitempty"`
	// ActiveSince is when the expression last became true (set while
	// pending or firing).
	ActiveSince time.Time `json:"active_since,omitempty"`
	// Value is the expression's value at the last evaluation.
	Value float64 `json:"value"`
	// LastEval is the time of the last evaluation.
	LastEval time.Time `json:"last_eval,omitempty"`
	// NoData is true when no series matched the expression at the last
	// evaluation (the rule holds in its current non-firing state).
	NoData bool `json:"no_data,omitempty"`
	// History holds the most recent state transitions, oldest first.
	History []Transition `json:"history,omitempty"`
}

// AlertRuleView is the rule as shown on the wire (parsed form elided).
type AlertRuleView struct {
	Name     string `json:"name"`
	Expr     string `json:"expr"`
	For      string `json:"for"`
	Severity string `json:"severity"`
}

// maxHistory bounds the per-rule transition history.
const maxHistory = 64

// alert is the engine-internal state machine for one rule.
type alert struct {
	rule        Rule
	state       AlertState
	since       time.Time
	activeSince time.Time
	value       float64
	lastEval    time.Time
	noData      bool
	history     []Transition
}

// RuleTransition is the payload delivered to an Options.OnTransition
// callback: one alert state change, with enough context to act on it
// without querying the engine back (which would deadlock).
type RuleTransition struct {
	Rule     string     `json:"rule"`
	Severity string     `json:"severity"`
	From     AlertState `json:"from"`
	To       AlertState `json:"to"`
	At       time.Time  `json:"at"`
	Value    float64    `json:"value"`
}

// engine evaluates rules against a Store after every scrape.
type engine struct {
	log *slog.Logger
	// onTransition, when set, receives every state change. It is invoked
	// AFTER the engine lock is released (see eval), so callbacks may call
	// back into the store or engine (Alerts, Query) safely.
	onTransition func(RuleTransition)

	mu      sync.Mutex
	alerts  []*alert
	pending []RuleTransition // transitions awaiting callback delivery
}

func newEngine(rules []Rule, log *slog.Logger) *engine {
	e := &engine{log: log}
	for _, r := range rules {
		if r.parsed.metric == "" {
			// Rules built literally rather than via ParseRules: parse
			// here, skipping (and logging) invalid expressions instead of
			// taking the service down.
			parsed, err := parseExpr(r.Expr)
			if err != nil {
				log.Error("dropping alert rule with invalid expression", "rule", r.Name, "err", err)
				continue
			}
			r.parsed = parsed
		}
		if r.Severity == "" {
			r.Severity = "warn"
		}
		e.alerts = append(e.alerts, &alert{rule: r, state: StateOK})
	}
	return e
}

// eval runs every rule against the store's current series at time now.
// Transition callbacks collected during the locked pass are delivered
// after the lock is released, so a callback that re-enters the engine
// (Store.Alerts inside an incident capture) cannot deadlock.
func (e *engine) eval(s *Store, now time.Time) {
	e.mu.Lock()
	for _, a := range e.alerts {
		value, ok := evalExpr(s, a.rule.parsed)
		a.lastEval = now
		a.noData = !ok
		if ok {
			a.value = value
		}
		active := ok && a.rule.parsed.compare(value)
		e.step(a, active, now)
	}
	pending := e.pending
	e.pending = nil
	e.mu.Unlock()
	for _, t := range pending {
		e.onTransition(t)
	}
}

// step advances one alert state machine given whether the condition is
// currently active.
func (e *engine) step(a *alert, active bool, now time.Time) {
	switch {
	case active && (a.state == StateOK || a.state == StateResolved):
		a.activeSince = now
		if time.Duration(a.rule.For) <= 0 {
			e.transition(a, StateFiring, now)
		} else {
			e.transition(a, StatePending, now)
		}
	case active && a.state == StatePending:
		if now.Sub(a.activeSince) >= time.Duration(a.rule.For) {
			e.transition(a, StateFiring, now)
		}
	case !active && a.state == StatePending:
		a.activeSince = time.Time{}
		e.transition(a, StateOK, now)
	case !active && a.state == StateFiring:
		a.activeSince = time.Time{}
		e.transition(a, StateResolved, now)
	}
}

// transition applies a state change, records it, and logs it.
func (e *engine) transition(a *alert, to AlertState, now time.Time) {
	from := a.state
	a.state = to
	a.since = now
	a.history = append(a.history, Transition{At: now, From: from, To: to, Value: a.value})
	if len(a.history) > maxHistory {
		a.history = a.history[len(a.history)-maxHistory:]
	}
	logAt := e.log.Info
	if to == StateFiring {
		logAt = e.log.Warn
	}
	logAt("alert transition", "rule", a.rule.Name, "from", string(from), "to", string(to),
		"value", a.value, "expr", a.rule.Expr, "severity", a.rule.Severity)
	if e.onTransition != nil {
		e.pending = append(e.pending, RuleTransition{
			Rule: a.rule.Name, Severity: a.rule.Severity,
			From: from, To: to, At: now, Value: a.value,
		})
	}
}

// evalExpr computes the expression's current value: the latest point of
// every matching series, folded by the expression's aggregation. ok is
// false when no series matched (no data).
func evalExpr(s *Store, e expr) (float64, bool) {
	results := s.Latest(e.metric, e.selector())
	if len(results) == 0 {
		return 0, false
	}
	vals := make([]float64, 0, len(results))
	for _, r := range results {
		vals = append(vals, r.Points[len(r.Points)-1].V)
	}
	switch e.fn {
	case "avg", "min", "sum", "last":
		return aggregate(vals, e.fn), true
	default: // max, p50/p95/p99 (already series-selected), and bare metrics
		return aggregate(vals, "max"), true
	}
}

// firingCount is the ion_alerts_firing gauge source.
func (e *engine) firingCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, a := range e.alerts {
		if a.state == StateFiring {
			n++
		}
	}
	return n
}

// snapshot renders every alert's wire status, sorted by rule name.
func (e *engine) snapshot() []AlertStatus {
	e.mu.Lock()
	out := make([]AlertStatus, 0, len(e.alerts))
	for _, a := range e.alerts {
		out = append(out, AlertStatus{
			Rule: AlertRuleView{
				Name:     a.rule.Name,
				Expr:     a.rule.Expr,
				For:      time.Duration(a.rule.For).String(),
				Severity: a.rule.Severity,
			},
			State:       a.state,
			Since:       a.since,
			ActiveSince: a.activeSince,
			Value:       a.value,
			LastEval:    a.lastEval,
			NoData:      a.noData,
			History:     append([]Transition(nil), a.history...),
		})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rule.Name < out[j].Rule.Name })
	return out
}
