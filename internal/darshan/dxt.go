package darshan

import "sort"

// Op distinguishes read from write events in DXT traces.
type Op string

// DXT operation kinds.
const (
	OpRead  Op = "read"
	OpWrite Op = "write"
)

// DXTEvent is one traced I/O operation: the Darshan eXtended Tracing
// record of a single read or write, including its byte range and
// wall-clock interval relative to job start.
type DXTEvent struct {
	Module  string  // DXTPosix or DXTMPIIO
	Rank    int64   // issuing MPI rank
	Op      Op      // read or write
	Segment int64   // per-rank sequence number within the file
	Offset  int64   // file offset in bytes
	Length  int64   // access size in bytes
	Start   float64 // seconds since job start
	End     float64 // seconds since job start
	OSTs    []int   // Lustre OSTs served by this access (optional)
}

// DXTFileTrace groups the traced events of one file along with the
// host metadata darshan-dxt-parser prints per file block.
type DXTFileTrace struct {
	FileID   uint64
	Hostname string
	Events   []DXTEvent
}

// Counts returns the number of write and read events in the trace.
func (t *DXTFileTrace) Counts() (writes, reads int) {
	for _, e := range t.Events {
		if e.Op == OpWrite {
			writes++
		} else {
			reads++
		}
	}
	return writes, reads
}

// SortByStart orders events by start time, breaking ties by rank and
// then segment, giving the writer and analyses a stable order: events
// that compare equal keep their input order.
//
// darshan-dxt-parser text lists each (file, rank) block's events in
// time order, so a parsed trace is a concatenation of a few ascending
// runs (one per rank). The sort is therefore a stable natural merge:
// it finds the runs, merges adjacent pairs of runs over an index
// permutation until one remains — O(n log r) comparisons for r runs —
// and then moves each event once, following the permutation's cycles
// in place. Input that is already in order costs one scan and no
// allocation.
func (t *DXTFileTrace) SortByStart() {
	ev := t.Events
	// bounds holds the start of each ascending run, then len(ev).
	bounds := []int{0}
	for i := 1; i < len(ev); i++ {
		if eventLess(&ev[i], &ev[i-1]) {
			bounds = append(bounds, i)
		}
	}
	if len(bounds) == 1 {
		return
	}
	bounds = append(bounds, len(ev))

	src := make([]int32, len(ev))
	for i := range src {
		src[i] = int32(i)
	}
	dst := make([]int32, len(ev))
	for len(bounds) > 2 {
		// next reuses bounds' storage: its writes trail the reads.
		next := bounds[:1]
		for k := 0; k+1 < len(bounds); k += 2 {
			lo, mid := bounds[k], bounds[k+1]
			hi := mid
			if k+2 < len(bounds) {
				hi = bounds[k+2]
			}
			mergeRuns(ev, dst[lo:hi], src[lo:mid], src[mid:hi])
			next = append(next, hi)
		}
		bounds = next
		src, dst = dst, src
	}

	// Apply the permutation in place, one cycle at a time: position j
	// takes the event at src[j], and src[j] = -1 marks it filled.
	for i := range src {
		if src[i] < 0 || int(src[i]) == i {
			continue
		}
		first := ev[i]
		j := i
		for {
			k := int(src[j])
			src[j] = -1
			if k == i {
				ev[j] = first
				break
			}
			ev[j] = ev[k]
			j = k
		}
	}
}

// mergeRuns merges the ascending index runs a and b (a first in the
// input) into out, taking from a on ties so the merge is stable.
func mergeRuns(ev []DXTEvent, out, a, b []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if eventLess(&ev[b[j]], &ev[a[i]]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// eventLess is SortByStart's order: start time, then rank, then
// segment.
func eventLess(a, b *DXTEvent) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Segment < b.Segment
}

// Ranks returns the sorted distinct ranks that issued events.
func (t *DXTFileTrace) Ranks() []int64 {
	seen := map[int64]bool{}
	for _, e := range t.Events {
		seen[e.Rank] = true
	}
	out := make([]int64, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
