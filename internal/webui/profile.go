package webui

import (
	"net/http"
	"strconv"
	"time"

	"ion/internal/obs/prof"
)

// WithProf wires the continuous profiler behind /api/prof/windows,
// /api/prof/flamegraph and explain's profile window, and returns the
// server for chaining. Without it the two routes answer 404. The
// caller owns the profiler's capture loop (Start/Stop).
func (s *JobServer) WithProf(p *prof.Profiler) *JobServer {
	s.prof = p
	return s
}

// profDisabled answers the profiling endpoints when no profiler is
// wired in (WithProf was not called).
func (s *JobServer) profDisabled(w http.ResponseWriter) bool {
	if s.prof != nil {
		return false
	}
	s.errorJSON(w, http.StatusNotFound, "continuous profiler disabled: start ionserve with -prof-interval > 0")
	return true
}

// profWindowsResponse is the GET /api/prof/windows wire type.
type profWindowsResponse struct {
	// Interval/Window echo the profiler's duty cycle.
	Interval string `json:"interval"`
	Window   string `json:"window"`
	// LastWindow is when the most recent window of any kind completed.
	LastWindow time.Time `json:"last_window,omitempty"`
	// Windows lists retained windows newest first. Folded stacks are
	// elided (fetch a window's flamegraph for those); the function
	// tables are included.
	Windows []prof.Window `json:"windows"`
}

// handleProfWindows serves the decoded profile windows:
//
//	GET /api/prof/windows?kind=cpu&limit=20
//
// Parameters: kind filters by profile family (cpu, heap, goroutine;
// empty matches all), limit bounds the count (default 50).
func (s *JobServer) handleProfWindows(w http.ResponseWriter, r *http.Request) {
	if s.profDisabled(w) {
		return
	}
	q := r.URL.Query()
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			s.errorJSON(w, http.StatusBadRequest, "limit must be a positive integer, got "+strconv.Quote(v))
			return
		}
		limit = n
	}
	wins := s.prof.Store().Windows(q.Get("kind"), limit)
	for i := range wins {
		wins[i].Stacks = nil
	}
	if wins == nil {
		wins = []prof.Window{}
	}
	s.writeJSON(w, http.StatusOK, profWindowsResponse{
		Interval:   s.prof.Interval().String(),
		Window:     s.prof.Window().String(),
		LastWindow: s.prof.LastWindowTime(),
		Windows:    wins,
	})
}

// handleProfFlamegraph renders one window as a self-contained SVG
// flamegraph:
//
//	GET /api/prof/flamegraph?window=w-cpu-1754560000000
//	GET /api/prof/flamegraph            (latest CPU window)
//	GET /api/prof/flamegraph?kind=heap  (latest window of a kind)
func (s *JobServer) handleProfFlamegraph(w http.ResponseWriter, r *http.Request) {
	if s.profDisabled(w) {
		return
	}
	q := r.URL.Query()
	var win prof.Window
	var ok bool
	if id := q.Get("window"); id != "" {
		win, ok = s.prof.Store().Get(id)
		if !ok {
			s.errorJSON(w, http.StatusNotFound, "no profile window "+strconv.Quote(id))
			return
		}
	} else {
		kind := q.Get("kind")
		if kind == "" {
			kind = prof.KindCPU
		}
		win, ok = s.prof.Store().Latest(kind)
		if !ok {
			s.errorJSON(w, http.StatusNotFound, "no "+kind+" window captured yet")
			return
		}
	}
	w.Header().Set("Content-Type", "image/svg+xml; charset=utf-8")
	w.Write(prof.FlamegraphSVG(win))
}
