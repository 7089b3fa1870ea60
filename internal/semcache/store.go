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
	// Revoked marks an entry whose reuse a shadow re-run contradicted;
	// Lookup skips it. See Revoke.
	Revoked bool `json:"revoked,omitempty"`
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

	// mu guards the policy counters, and orders Revoke's read and
	// rewrite of an entry against Put.
	mu sync.Mutex

	lookups, hits, conditioned, misses int64
}

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
	return &Store{j: j}, nil
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
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.j.Put(e); err != nil {
		return fmt.Errorf("semcache: %w", err)
	}
	return nil
}

// Lookup quantizes the query signature and returns the most similar
// entry by cosine similarity, skipping revoked entries. The boolean is
// false when no entry is left to match. A successful match refreshes
// the neighbor's recency. Lookup itself only counts a lookup; call
// Note with the policy outcome so hit/miss counters reflect what the
// caller actually did with the match.
func (st *Store) Lookup(sig Signature) (Match, bool) {
	if st == nil {
		return Match{}, false
	}
	q := sig.Quantize(DefaultQuantStep)
	st.mu.Lock()
	st.lookups++
	st.mu.Unlock()
	var (
		best    Entry
		bestSim = -1.0
	)
	st.j.Each(func(e Entry) bool {
		if e.Revoked {
			return true
		}
		if sim := Cosine(q, e.Signature); sim > bestSim {
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

// Revoke marks the entry that served or conditioned a diagnosis whose
// verdicts a shadow re-run flipped. The live entry with e's trace hash
// and job id is journaled again with Revoked set, superseding the old
// line, so Lookup skips it from then on, across restarts. Like any
// write it becomes the newest record, and the bounds age it out in
// turn. An entry that is no longer live (evicted, or replaced by a
// later diagnosis of the same trace) is left alone.
func (st *Store) Revoke(e Entry) error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	live, ok := st.j.Get(e.key())
	if !ok || live.JobID != e.JobID || live.Revoked {
		return nil
	}
	live.Revoked = true
	if err := st.j.Put(live); err != nil {
		return fmt.Errorf("semcache: %w", err)
	}
	return nil
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
