package webui

import (
	"net/http"
	"strconv"

	"ion/internal/llm/ledger"
)

// WithLLMLedger wires the LLM audit ledger behind GET /api/llm/ledger
// and the model calls of each job's explain value, and returns the
// server for chaining. Without it the route answers 404 and explain
// leaves the calls out. The client is the ledger.Wrap recording wrapper
// analyses run through; it carries both the store and the per-backend
// health scorer.
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
// first), tokens by prompt template over the retained entries, and the
// filtered entries, newest first.
type llmLedgerResponse struct {
	Totals    ledger.Totals          `json:"totals"`
	Health    []ledger.BackendHealth `json:"health"`
	Jobs      []ledger.JobSum        `json:"jobs"`
	Templates map[string]int64       `json:"templates"`
	Entries   []ledger.Entry         `json:"entries"`
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
		Totals:    store.Totals(),
		Health:    health,
		Jobs:      jobSums,
		Templates: store.TemplateTokens(),
		Entries:   entries,
	})
}
