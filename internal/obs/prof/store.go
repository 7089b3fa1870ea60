package prof

import (
	"errors"
	"fmt"
	"time"

	"ion/internal/journal"
)

// Window is one decoded profile window: the journal record, the API
// payload, and the flamegraph input. CPU windows cover an actual
// profiling interval; snapshot kinds (heap, goroutine) are a point-in-
// time state stamped with the cycle that took them.
type Window struct {
	// ID is unique per window ("w-<kind>-<unix-ms>").
	ID string `json:"id"`
	// Kind is the profile family: "cpu", "heap", or "goroutine".
	Kind string `json:"kind"`
	// Start/End bound the capture (equal for snapshot kinds).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Unit is the meaning of the values: "nanoseconds", "bytes", "count".
	Unit string `json:"unit"`
	// Total is the sum over every sample in the window (before the
	// top-N truncation of Functions and Stacks).
	Total int64 `json:"total"`
	// Functions is the top-N per-function table, highest flat first.
	Functions []FuncStat `json:"functions"`
	// Stacks holds the heaviest folded stacks (root first) for the
	// flamegraph; KeptValue is their value sum (≤ Total when stacks
	// were dropped by the bound).
	Stacks    []Stack `json:"stacks,omitempty"`
	KeptValue int64   `json:"kept_value,omitempty"`
}

// size estimates the retained bytes of a window (≈ its journal-line
// cost), used for the store's byte bound.
func (w Window) size() int64 {
	n := int64(len(w.ID)+len(w.Kind)+len(w.Unit)) + 160
	for _, f := range w.Functions {
		n += int64(len(f.Name)) + 96
	}
	for _, s := range w.Stacks {
		n += 32
		for _, fr := range s.Frames {
			n += int64(len(fr)) + 8
		}
	}
	return n
}

// check rejects a window without an id or a kind.
func (w Window) check() error {
	if w.ID == "" || w.Kind == "" {
		return errors.New("window needs an id and a kind")
	}
	return nil
}

// A Store keeps at most maxWindows windows across all kinds, and at
// most maxBytes of their estimated size.
const (
	maxWindows = 360
	maxBytes   = 64 << 20
)

// StoreOptions configures a window Store.
type StoreOptions struct {
	// Path is the JSON-lines journal file; required.
	Path string
	// Retention drops windows older than this relative to the newest
	// (default 2h; negative disables the age bound).
	Retention time.Duration
}

// Store is the journaled, retention-bounded profile window store:
// windows append to a journal (internal/journal) under the service data
// dir, so a restarted process keeps its profile history. All methods
// are safe for concurrent use and safe on a nil receiver.
type Store struct {
	opts StoreOptions // defaults applied
	j    *journal.Store[Window]
}

// OpenStore loads (or creates) the journal at opts.Path, replaying it
// with the bounds enforced.
func OpenStore(opts StoreOptions) (*Store, error) {
	if opts.Retention == 0 {
		opts.Retention = 2 * time.Hour
	}
	j, err := journal.Open(journal.Options[Window]{
		Path:       opts.Path,
		Key:        func(w Window) string { return w.ID },
		Size:       Window.size,
		Check:      Window.check,
		MaxRecords: maxWindows,
		MaxBytes:   maxBytes,
		MaxAge:     opts.Retention,
		Time:       func(w Window) time.Time { return w.End },
	})
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	return &Store{opts: opts, j: j}, nil
}

// Add journals and retains one window.
func (st *Store) Add(w Window) error {
	if st == nil {
		return nil
	}
	if err := st.j.Put(w); err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	return nil
}

// Windows returns retained windows newest first, filtered by kind
// (empty matches all) and bounded by limit (≤0 means all).
func (st *Store) Windows(kind string, limit int) []Window {
	if st == nil {
		return nil
	}
	out := make([]Window, 0, st.j.Len())
	st.j.Each(func(w Window) bool {
		if kind == "" || w.Kind == kind {
			out = append(out, w)
		}
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Get returns one window by id.
func (st *Store) Get(id string) (Window, bool) {
	if st == nil {
		return Window{}, false
	}
	return st.j.Get(id)
}

// Latest returns the newest window of the given kind.
func (st *Store) Latest(kind string) (Window, bool) {
	ws := st.Windows(kind, 1)
	if len(ws) == 0 {
		return Window{}, false
	}
	return ws[0], true
}

// Len returns the number of retained windows (all kinds).
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

// Evicted returns how many windows retention has dropped.
func (st *Store) Evicted() int64 {
	if st == nil {
		return 0
	}
	return st.j.Evicted()
}

// Close closes the journal.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	return st.j.Close()
}
