// Package ledger is the LLM interaction audit journal: one JSONL entry
// per Complete call — job, prompt template, prompt hash, backend,
// model, tokens, latency, outcome, retry index, and estimated cost —
// appended to a journal (internal/journal) under the service data
// directory, where a re-journaled id supersedes. Raw prompt and
// response text is NOT stored unless capture is explicitly opted into;
// by default the ledger is an audit trail that can be shared without
// leaking workload contents.
//
// On top of the store, the package provides the price table that turns
// tokens into estimated dollars, the recording client wrapper that
// feeds the store, the rolling per-backend health scorer, and a replay
// client that re-runs a text-captured ledger deterministically.
package ledger

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ion/internal/journal"
)

// Entry is one recorded LLM call.
type Entry struct {
	// ID is unique per call ("e-" + 12 hex chars); a re-journaled ID
	// supersedes the earlier record on replay.
	ID string `json:"id"`
	// Time is when the call completed.
	Time time.Time `json:"t"`
	// Job is the analysis job the call served ("" for calls outside a
	// job, e.g. interactive chat).
	Job string `json:"job,omitempty"`
	// Template is the prompt-template id ("diagnosis", "summary",
	// "chat"); Issue is the issue the diagnosis prompt targeted.
	Template string `json:"template,omitempty"`
	Issue    string `json:"issue,omitempty"`
	// PromptSHA is the hex SHA-256 of the prompt (model + messages),
	// the audit identity of what was asked without storing the text.
	PromptSHA string `json:"prompt_sha"`
	// Backend and Model identify who answered.
	Backend string `json:"backend"`
	Model   string `json:"model,omitempty"`
	// TokensIn/TokensOut are the usage counts (estimated when the
	// backend reports none).
	TokensIn  int `json:"tokens_in"`
	TokensOut int `json:"tokens_out"`
	// LatencyMS is the call's wall time in milliseconds.
	LatencyMS float64 `json:"latency_ms"`
	// Outcome is ok, error, timeout, or truncated (llm.Outcome).
	Outcome string `json:"outcome"`
	// Attempt is the analysis retry index the call ran under (1 on the
	// first attempt, 0 outside a job).
	Attempt int `json:"attempt,omitempty"`
	// CostUSD is the estimated cost from the price table.
	CostUSD float64 `json:"cost_usd"`
	// PromptText/ResponseText are populated only when text capture is
	// opted into (-ledger-capture-text); empty by default.
	PromptText   string `json:"prompt_text,omitempty"`
	ResponseText string `json:"response_text,omitempty"`
	// Error is the failure message for non-ok outcomes, truncated.
	Error string `json:"error,omitempty"`
}

// size estimates the retained bytes of an entry (≈ its journal-line
// cost), used for the store's byte bound.
func (e Entry) size() int64 {
	return int64(len(e.ID)+len(e.Job)+len(e.Template)+len(e.Issue)+
		len(e.PromptSHA)+len(e.Backend)+len(e.Model)+len(e.Outcome)+
		len(e.PromptText)+len(e.ResponseText)+len(e.Error)) + 200
}

// check rejects an entry without an id or a backend.
func (e Entry) check() error {
	if e.ID == "" || e.Backend == "" {
		return errors.New("entry needs an id and a backend")
	}
	return nil
}

// StoreOptions configures a ledger Store.
type StoreOptions struct {
	// Path is the JSON-lines journal file; required.
	Path string
	// MaxEntries bounds retained entries (default 4096; negative
	// disables the count bound).
	MaxEntries int
	// MaxBytes bounds the estimated retained bytes (default 16 MiB;
	// negative disables).
	MaxBytes int64
}

func (o *StoreOptions) applyDefaults() {
	if o.MaxEntries == 0 {
		o.MaxEntries = 4096
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 16 << 20
	}
}

// Totals is the store's cumulative accounting: every entry currently
// retained plus everything retention has dropped since this store was
// opened (a restart re-seeds from what the journal retained).
type Totals struct {
	Calls     int64   `json:"calls"`
	TokensIn  int64   `json:"tokens_in"`
	TokensOut int64   `json:"tokens_out"`
	CostUSD   float64 `json:"cost_usd"`
	Errors    int64   `json:"errors"`
	Timeouts  int64   `json:"timeouts"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Evicted   int64   `json:"evicted"`
}

// JobSum is the per-job rollup of retained ledger entries.
type JobSum struct {
	Job       string  `json:"job"`
	Calls     int     `json:"calls"`
	TokensIn  int     `json:"tokens_in"`
	TokensOut int     `json:"tokens_out"`
	CostUSD   float64 `json:"cost_usd"`
}

// Filter selects entries for Entries: zero fields match everything.
type Filter struct {
	// Job/Backend filter by exact match when non-empty.
	Job     string
	Backend string
	// Limit bounds the result count (≤0 means all retained).
	Limit int
}

// Store is the journaled, retention-bounded audit log. All methods are
// safe for concurrent use and safe on a nil receiver.
type Store struct {
	opts StoreOptions // defaults applied
	j    *journal.Store[Entry]

	// mu guards the lifetime accounting, which survives eviction (but
	// not restart beyond what the journal retained — document, don't
	// pretend otherwise).
	mu                                           sync.Mutex
	calls, tokensIn, tokensOut, errors, timeouts int64
	costUSD                                      float64
}

// Open loads (or creates) the journal at opts.Path, replaying it with
// the bounds enforced and re-seeding the lifetime totals from every
// record it holds.
func Open(opts StoreOptions) (*Store, error) {
	opts.applyDefaults()
	st := &Store{opts: opts}
	j, err := journal.Open(journal.Options[Entry]{
		Path:       opts.Path,
		Key:        func(e Entry) string { return e.ID },
		Size:       Entry.size,
		Check:      Entry.check,
		MaxRecords: opts.MaxEntries,
		MaxBytes:   opts.MaxBytes,
		Replayed:   st.count,
	})
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	st.j = j
	return st, nil
}

// count folds one entry into the lifetime totals.
func (st *Store) count(e Entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.calls++
	st.tokensIn += int64(e.TokensIn)
	st.tokensOut += int64(e.TokensOut)
	st.costUSD += e.CostUSD
	switch e.Outcome {
	case "error":
		st.errors++
	case "timeout":
		st.timeouts++
	}
}

// Append journals and retains one entry, assigning an ID if empty. An
// entry whose append fails is still retained and counted.
func (st *Store) Append(e Entry) error {
	if st == nil {
		return nil
	}
	if e.ID == "" {
		e.ID = newEntryID()
	}
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	err := st.j.Put(e)
	if err == nil || errors.Is(err, journal.ErrAppend) {
		st.count(e) // live, so counted even when the append failed
	}
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}

// Entries returns retained entries newest first, filtered.
func (st *Store) Entries(f Filter) []Entry {
	if st == nil {
		return nil
	}
	out := make([]Entry, 0, st.j.Len())
	st.j.Each(func(e Entry) bool {
		if (f.Job == "" || e.Job == f.Job) && (f.Backend == "" || e.Backend == f.Backend) {
			out = append(out, e)
		}
		return f.Limit <= 0 || len(out) < f.Limit
	})
	return out
}

// Tail returns the newest n entries, oldest first — the shape an
// incident bundle wants (read top to bottom like a log).
func (st *Store) Tail(n int) []Entry {
	ents := st.Entries(Filter{Limit: n})
	for i, j := 0, len(ents)-1; i < j; i, j = i+1, j-1 {
		ents[i], ents[j] = ents[j], ents[i]
	}
	return ents
}

// SumJob rolls up the retained entries of one job.
func (st *Store) SumJob(job string) JobSum {
	sum := JobSum{Job: job}
	if st == nil {
		return sum
	}
	st.j.Each(func(e Entry) bool {
		if e.Job == job {
			sum.Calls++
			sum.TokensIn += e.TokensIn
			sum.TokensOut += e.TokensOut
			sum.CostUSD += e.CostUSD
		}
		return true
	})
	return sum
}

// JobSums rolls up every job present in the retained entries, most
// expensive first, bounded by limit (≤0 means all).
func (st *Store) JobSums(limit int) []JobSum {
	if st == nil {
		return nil
	}
	byJob := map[string]*JobSum{}
	st.j.Each(func(e Entry) bool {
		if e.Job == "" {
			return true
		}
		s := byJob[e.Job]
		if s == nil {
			s = &JobSum{Job: e.Job}
			byJob[e.Job] = s
		}
		s.Calls++
		s.TokensIn += e.TokensIn
		s.TokensOut += e.TokensOut
		s.CostUSD += e.CostUSD
		return true
	})
	out := make([]JobSum, 0, len(byJob))
	for _, s := range byJob {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CostUSD != out[j].CostUSD {
			return out[i].CostUSD > out[j].CostUSD
		}
		return out[i].Job < out[j].Job
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TemplateTokens sums tokens by prompt template over the retained
// entries, for the per-template histogram on /dashboard/llm.
func (st *Store) TemplateTokens() map[string]int64 {
	if st == nil {
		return nil
	}
	out := map[string]int64{}
	st.j.Each(func(e Entry) bool {
		t := e.Template
		if t == "" {
			t = "other"
		}
		out[t] += int64(e.TokensIn + e.TokensOut)
		return true
	})
	return out
}

// Totals returns the cumulative accounting snapshot.
func (st *Store) Totals() Totals {
	if st == nil {
		return Totals{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return Totals{
		Calls:     st.calls,
		TokensIn:  st.tokensIn,
		TokensOut: st.tokensOut,
		CostUSD:   st.costUSD,
		Errors:    st.errors,
		Timeouts:  st.timeouts,
		Entries:   st.j.Len(),
		Bytes:     st.j.Bytes(),
		Evicted:   st.j.Evicted(),
	}
}

// Len returns the number of retained entries.
func (st *Store) Len() int {
	if st == nil {
		return 0
	}
	return st.j.Len()
}

// Bytes returns the estimated retained bytes.
func (st *Store) Bytes() int64 {
	if st == nil {
		return 0
	}
	return st.j.Bytes()
}

// Close closes the journal.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	return st.j.Close()
}

// newEntryID returns a fresh entry id: "e-" + 12 random hex chars.
func newEntryID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("e-%012x", time.Now().UnixNano()&0xffffffffffff)
	}
	return "e-" + hex.EncodeToString(b[:])
}
