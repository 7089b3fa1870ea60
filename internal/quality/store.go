package quality

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"ion/internal/issue"
	"ion/internal/journal"
)

// A Store keeps at most maxEntries scorecards, and at most maxBytes of
// their estimated size.
const (
	maxEntries = 4096
	maxBytes   = 16 << 20
)

// Options configures a Store.
type Options struct {
	// Path is the JSON-lines journal file; required.
	Path string
}

// LabelStat aggregates, for one issue, the labelled verdicts across
// the live scorecards.
type LabelStat struct {
	// Matched counts the verdicts equal to their label.
	Matched int `json:"matched"`
	// Mismatched counts the verdicts that differ from their label.
	Mismatched int `json:"mismatched"`
}

// FlipStat aggregates shadow re-run outcomes for one reuse mode.
type FlipStat struct {
	// Shadowed counts the scorecards of this mode that a shadow re-run
	// has checked.
	Shadowed int `json:"shadowed"`
	// Flipped counts those whose re-run changed at least one verdict.
	Flipped int `json:"flipped"`
}

// Ratio is the flip fraction, 0 when nothing was shadowed.
func (f FlipStat) Ratio() float64 {
	if f.Shadowed == 0 {
		return 0
	}
	return float64(f.Flipped) / float64(f.Shadowed)
}

// Stats is a counters snapshot for /api/quality and /metrics.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
}

// Store persists scorecards in a journal (internal/journal) keyed by
// job id. All methods are safe for concurrent use and safe on a nil
// receiver (quality tracking disabled).
type Store struct {
	j    *journal.Store[Scorecard]
	puts atomic.Int64
}

// Open loads (or creates) the store at opts.Path, replaying the
// journal: later records supersede earlier ones with the same job id,
// and the count/byte bounds are enforced oldest-first.
func Open(opts Options) (*Store, error) {
	j, err := journal.Open(journal.Options[Scorecard]{
		Path:       opts.Path,
		Key:        func(c Scorecard) string { return c.JobID },
		Size:       Scorecard.size,
		Check:      Scorecard.check,
		MaxRecords: maxEntries,
		MaxBytes:   maxBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	return &Store{j: j}, nil
}

// Put journals and indexes a scorecard, superseding any prior record
// for the same job (how shadow results update an existing card). A
// scorecard whose append fails is still indexed and counted.
func (st *Store) Put(c Scorecard) error {
	if st == nil {
		return nil
	}
	err := st.j.Put(c)
	if err == nil || errors.Is(err, journal.ErrAppend) {
		st.puts.Add(1) // live, so counted even when the append failed
	}
	if err != nil {
		return fmt.Errorf("quality: %w", err)
	}
	return nil
}

// Get returns the scorecard for a job.
func (st *Store) Get(jobID string) (Scorecard, bool) {
	if st == nil {
		return Scorecard{}, false
	}
	return st.j.Get(jobID)
}

// Entries returns a snapshot of the live scorecards, most recent first
// by creation time (the /api/quality listing order).
func (st *Store) Entries() []Scorecard {
	if st == nil {
		return nil
	}
	out := make([]Scorecard, 0, st.j.Len())
	st.j.Each(func(c Scorecard) bool {
		out = append(out, c)
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

// Tail returns the n most recent scorecards (the flight-recorder
// bundle payload).
func (st *Store) Tail(n int) []Scorecard {
	all := st.Entries()
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// IssueLabels aggregates the labelled verdicts per issue across the
// live scorecards; issues no scorecard labels are absent. The
// aggregates are recomputed from the replayed journal, so they survive
// restarts; the scan is bounded by the store's 4,096 scorecards.
func (st *Store) IssueLabels() map[issue.ID]LabelStat {
	out := map[issue.ID]LabelStat{}
	if st == nil {
		return out
	}
	st.j.Each(func(c Scorecard) bool {
		for _, s := range c.Issues {
			if s.Label == "" {
				continue
			}
			a := out[s.Issue]
			if s.Mismatch() {
				a.Mismatched++
			} else {
				a.Matched++
			}
			out[s.Issue] = a
		}
		return true
	})
	return out
}

// FlipStats aggregates shadow re-run outcomes per reuse mode across
// the live scorecards.
func (st *Store) FlipStats() map[Mode]FlipStat {
	out := map[Mode]FlipStat{}
	if st == nil {
		return out
	}
	st.j.Each(func(c Scorecard) bool {
		if c.Shadow != nil {
			f := out[c.Mode]
			f.Shadowed++
			if len(c.Shadow.Flips) > 0 {
				f.Flipped++
			}
			out[c.Mode] = f
		}
		return true
	})
	return out
}

// Len returns the number of live scorecards.
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
	return Stats{
		Entries:   st.j.Len(),
		Bytes:     st.j.Bytes(),
		Puts:      st.puts.Load(),
		Evictions: st.j.Evicted(),
	}
}

// Close closes the journal.
func (st *Store) Close() error {
	if st == nil {
		return nil
	}
	return st.j.Close()
}
