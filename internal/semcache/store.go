package semcache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ion/internal/journal"
)

// Defaults for Options left at zero.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 16 << 20
)

// Entry is one completed diagnosis in the store.
type Entry struct {
	// SigVersion records the signature schema the vector was computed
	// under; entries from older schemas are dropped on load.
	SigVersion int `json:"sig_version"`
	// JobID is the job whose report this entry points at.
	JobID string `json:"job_id"`
	// TraceHash is the hex SHA-256 of the trace bytes (the exact-dedup
	// key and the journal key); a re-run of the same bytes replaces its
	// prior entry.
	TraceHash string `json:"trace_hash"`
	// Trace is the display name of the diagnosed trace.
	Trace string `json:"trace"`
	// Signature is the quantized feature vector.
	Signature Signature `json:"signature"`
	// Issues lists the detected issue ids of the final report.
	Issues []string `json:"issues,omitempty"`
	// Outcome summarizes how the diagnosis was produced ("full" or
	// "conditioned" — semantic hits are never re-indexed).
	Outcome string `json:"outcome,omitempty"`
	// CreatedAt is when the diagnosis completed.
	CreatedAt time.Time `json:"created_at"`
}

// key is the journal key: the trace hash, or the job id for an entry
// without one.
func (e Entry) key() string {
	if e.TraceHash != "" {
		return e.TraceHash
	}
	return e.JobID
}

// check rejects entries without a job id or a signature, and entries
// replayed from an older signature schema.
func (e Entry) check() error {
	if e.SigVersion != Version || e.JobID == "" || len(e.Signature) == 0 {
		return errors.New("entry needs a job id and a signature")
	}
	return nil
}

// size estimates the retained bytes of an entry (also its journal-line
// cost), used for the byte bound.
func (e Entry) size() int64 {
	n := int64(len(e.JobID)+len(e.TraceHash)+len(e.Trace)+len(e.Outcome)) + 160
	n += int64(len(e.Signature)) * 24
	for _, is := range e.Issues {
		n += int64(len(is)) + 16
	}
	return n
}

// Match is one nearest-neighbor result.
type Match struct {
	Entry      Entry
	Similarity float64
	// Deltas names the signature dimensions where the query differs
	// from the neighbor (query minus neighbor).
	Deltas map[string]float64
}

// Options configures a Store.
type Options struct {
	// Path is the JSON-lines journal file; required.
	Path string
	// MaxEntries bounds the entry count (default 4096; negative
	// disables the count bound).
	MaxEntries int
	// MaxBytes bounds the estimated retained bytes (default 16 MiB;
	// negative disables the byte bound).
	MaxBytes int64
}

// Stats is a counters snapshot for /api/semcache and /metrics.
type Stats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	Lookups     int64 `json:"lookups"`
	Hits        int64 `json:"hits"`
	Conditioned int64 `json:"conditioned"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
}

// Store is the persistent signature store: an LRU over entries kept in
// a journal (internal/journal), so a restarted service reloads its
// accumulated diagnoses. All methods are safe for concurrent use and
// safe on a nil receiver (semantic cache disabled).
type Store struct {
	j *journal.Store[Entry]

	// mu guards the trust weights and the policy counters. Lookup holds
	// it across its scan of j.
	mu sync.Mutex
	// weights holds the per-dimension trust learned from shadow-rerun
	// verdict flips: dimensions whose deltas participated in a flipped
	// reuse decay toward weightFloor, growing the similarity penalty
	// for future divergence along them. In-memory only; a restart
	// resets trust to 1.
	weights []float64

	lookups, hits, conditioned, misses int64
}

// Flip-feedback tuning: each flip multiplies the implicated dimension
// weights by weightDecay, never below weightFloor.
const (
	weightDecay = 0.8
	weightFloor = 0.2
)

// Open loads (or creates) the store at opts.Path, replaying the
// journal: a later record supersedes an earlier one with the same trace
// hash, and the count/byte bounds evict least recently used entries.
func Open(opts Options) (*Store, error) {
	if opts.MaxEntries == 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	j, err := journal.Open(journal.Options[Entry]{
		Path:       opts.Path,
		Key:        Entry.key,
		Size:       Entry.size,
		Check:      Entry.check,
		MaxRecords: opts.MaxEntries,
		MaxBytes:   opts.MaxBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("semcache: %w", err)
	}
	return &Store{j: j, weights: newWeights()}, nil
}

// Put indexes a completed diagnosis: the signature is quantized, the
// entry journaled, and the bounds enforced. A re-run of the same trace
// bytes replaces its prior entry instead of duplicating the
// neighborhood.
func (st *Store) Put(e Entry) error {
	if st == nil {
		return nil
	}
	e.SigVersion = Version
	e.Signature = e.Signature.Quantize(DefaultQuantStep)
	if err := st.j.Put(e); err != nil {
		return fmt.Errorf("semcache: %w", err)
	}
	return nil
}

// Lookup quantizes the query signature and returns the most similar
// entry. The boolean is false when the store is empty. A successful
// match refreshes the neighbor's recency. Lookup itself only counts a
// lookup; call Note with the policy outcome so hit/miss counters
// reflect what the caller actually did with the match.
//
// Similarity is cosine minus a trust penalty: divergence along
// dimensions that FlipFeedback has down-weighted subtracts
// (1-weight)·|Δ| per dimension, pushing flip-prone matches below the
// reuse thresholds.
func (st *Store) Lookup(sig Signature) (Match, bool) {
	if st == nil {
		return Match{}, false
	}
	q := sig.Quantize(DefaultQuantStep)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lookups++
	var (
		best    Entry
		bestSim = -1.0
	)
	st.j.Each(func(e Entry) bool {
		if sim := st.similarityLocked(q, e.Signature); sim > bestSim {
			bestSim, best = sim, e
		}
		return true
	})
	if bestSim < 0 {
		return Match{}, false
	}
	st.j.Touch(best.key())
	return Match{
		Entry:      best,
		Similarity: bestSim,
		Deltas:     Deltas(q, best.Signature),
	}, true
}

// Outcome labels for Note.
const (
	OutcomeHit         = "hit"
	OutcomeConditioned = "conditioned"
	OutcomeMiss        = "miss"
)

// Note records what the reuse policy did with a lookup, so the
// hit/conditioned/miss counters describe policy outcomes rather than
// raw similarity scores.
func (st *Store) Note(outcome string) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch outcome {
	case OutcomeHit:
		st.hits++
	case OutcomeConditioned:
		st.conditioned++
	case OutcomeMiss:
		st.misses++
	}
}

func newWeights() []float64 {
	w := make([]float64, len(dimensions))
	for i := range w {
		w[i] = 1
	}
	return w
}

// similarityLocked scores a candidate: cosine similarity minus the
// per-dimension trust penalty. Caller holds st.mu.
func (st *Store) similarityLocked(q, e Signature) float64 {
	sim := Cosine(q, e)
	n := len(q)
	if len(e) < n {
		n = len(e)
	}
	if len(st.weights) < n {
		n = len(st.weights)
	}
	for i := 0; i < n; i++ {
		if w := st.weights[i]; w < 1 {
			d := q[i] - e[i]
			if d < 0 {
				d = -d
			}
			sim -= (1 - w) * d
		}
	}
	return clamp01(sim)
}

// FlipFeedback reports that a reuse decision whose query/neighbor
// deltas are given produced a verdict flip under a shadow re-run. The
// dimensions that differed are down-weighted so future matches that
// diverge along them score lower (ROADMAP item 3 follow-up: learning
// per-dimension weights from verdict-flip feedback).
func (st *Store) FlipFeedback(deltas map[string]float64) {
	if st == nil || len(deltas) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, name := range dimensions {
		if i >= len(st.weights) {
			break
		}
		if d, ok := deltas[name]; ok && d != 0 {
			if w := st.weights[i] * weightDecay; w > weightFloor {
				st.weights[i] = w
			} else {
				st.weights[i] = weightFloor
			}
		}
	}
}

// DimensionWeights returns the current per-dimension trust weights by
// name (1 = fully trusted, lower = flip-prone).
func (st *Store) DimensionWeights() map[string]float64 {
	out := make(map[string]float64, len(dimensions))
	if st == nil {
		for _, name := range dimensions {
			out[name] = 1
		}
		return out
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, name := range dimensions {
		if i < len(st.weights) {
			out[name] = st.weights[i]
		}
	}
	return out
}

// Len returns the number of live entries.
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

// Stats returns a counters snapshot.
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Entries:     st.j.Len(),
		Bytes:       st.j.Bytes(),
		Lookups:     st.lookups,
		Hits:        st.hits,
		Conditioned: st.conditioned,
		Misses:      st.misses,
		Evictions:   st.j.Evicted(),
	}
}

// Entries returns a snapshot of the live entries, most recent first by
// creation time (the /api/semcache listing order).
func (st *Store) Entries() []Entry {
	if st == nil {
		return nil
	}
	out := make([]Entry, 0, st.j.Len())
	st.j.Each(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.After(out[j].CreatedAt)
		}
		return out[i].JobID < out[j].JobID
	})
	return out
}

// Close closes the journal.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	return st.j.Close()
}
