package darshan

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// referenceSortByStart is the comparison sort SortByStart used before
// the run merge: a reflective stable sort with the same comparator.
// Any stable sort by a strict weak order gives the same result, so the
// merge must match it exactly wherever no start time is NaN.
func referenceSortByStart(events []DXTEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Segment < b.Segment
	})
}

// checkAgainstReference sorts a copy of events both ways and fails on
// any difference. Offset identifies an event, so a stable-order slip
// between otherwise equal events shows.
func checkAgainstReference(t *testing.T, events []DXTEvent) {
	t.Helper()
	want := append([]DXTEvent(nil), events...)
	referenceSortByStart(want)
	tr := &DXTFileTrace{Events: append([]DXTEvent(nil), events...)}
	tr.SortByStart()
	if !reflect.DeepEqual(tr.Events, want) {
		t.Fatalf("merge order differs from the reference:\ngot  %v\nwant %v", keys(tr.Events), keys(want))
	}
}

// keys renders events compactly as start/rank/segment#offset.
func keys(events []DXTEvent) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprintf("%g/%d/%d#%d", e.Start, e.Rank, e.Segment, e.Offset)
	}
	return out
}

// ev builds an event identified by its offset.
func ev(start float64, rank, seg, id int64) DXTEvent {
	return DXTEvent{Module: DXTPosix, Op: OpWrite, Start: start, End: start + 1, Rank: rank, Segment: seg, Offset: id}
}

func TestSortByStartTiesAcrossRuns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []DXTEvent
	}{
		{"equal start, rank decides", []DXTEvent{
			ev(0.1, 2, 0, 0), ev(0.2, 2, 1, 1), // run 1
			ev(0.1, 1, 0, 2), ev(0.2, 1, 1, 3), // run 2
			ev(0.1, 0, 0, 4), ev(0.2, 0, 1, 5), // run 3
		}},
		{"equal start and rank, segment decides", []DXTEvent{
			ev(0.1, 0, 3, 0), ev(0.3, 0, 4, 1),
			ev(0.1, 0, 1, 2), ev(0.3, 0, 2, 3),
		}},
		{"fully equal keys keep input order", []DXTEvent{
			ev(0.1, 0, 0, 0), ev(0.2, 0, 0, 1), ev(0.2, 0, 0, 2),
			ev(0.1, 0, 0, 3), ev(0.2, 0, 0, 4),
			ev(0.0, 0, 0, 5), ev(0.1, 0, 0, 6), ev(0.2, 0, 0, 7),
		}},
		{"odd run count", []DXTEvent{
			ev(0.5, 0, 0, 0), ev(0.4, 1, 0, 1), ev(0.3, 2, 0, 2),
			ev(0.2, 3, 0, 3), ev(0.1, 4, 0, 4),
		}},
		{"negative zero equals zero", []DXTEvent{
			ev(0.1, 0, 0, 0), ev(math.Copysign(0, -1), 0, 0, 1), ev(0, 0, 0, 2),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkAgainstReference(t, tc.events) })
	}
}

func TestSortByStartSortedAndReversed(t *testing.T) {
	const n = 1000
	sorted := make([]DXTEvent, n)
	for i := range sorted {
		sorted[i] = ev(float64(i/3)*0.001, int64(i%3), int64(i), int64(i))
	}
	checkAgainstReference(t, sorted)
	reversed := make([]DXTEvent, n)
	for i := range reversed {
		reversed[i] = sorted[n-1-i]
	}
	checkAgainstReference(t, reversed)

	// Input already in order costs one scan: nothing is allocated and
	// the slice is left in place.
	tr := &DXTFileTrace{Events: sorted}
	if allocs := testing.AllocsPerRun(10, tr.SortByStart); allocs != 0 {
		t.Errorf("sorting sorted input allocated %v times, want 0", allocs)
	}
	if &tr.Events[0] != &sorted[0] {
		t.Error("sorted input was copied")
	}
}

// TestSortByStartNaNShardedMatchesSequential covers the one input the
// reference comparison leaves out: NaN start times compare false both
// ways, so the order among them is the algorithm's own. Sequential and
// sharded parses present the same input order to the sort and must
// still agree, wherever the shard boundaries fall.
func TestSortByStartNaNShardedMatchesSequential(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("# DXT, file_id: 7, file_name: /a\n")
	for rank := 0; rank < 4; rank++ {
		fmt.Fprintf(&buf, "# DXT, rank: %d, hostname: n%d\n", rank, rank)
		for seg := 0; seg < 6; seg++ {
			start := fmt.Sprintf("%.4f", float64(seg)*0.1+float64(3-rank)*0.01)
			if (rank+seg)%3 == 0 {
				start = "NaN"
			}
			fmt.Fprintf(&buf, " X_POSIX %d write %d %d 8 %s 9.0\n", rank, seg, rank*100+seg, start)
		}
	}
	data := buf.Bytes()
	seq, err := ParseText(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := keys(seq.DXT[0].Events)
	check := func(label string, got *Log, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if g := keys(got.DXT[0].Events); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s order differs from sequential:\ngot  %v\nwant %v", label, g, want)
		}
	}
	for cut := bytes.IndexByte(data, '\n') + 1; cut < len(data); {
		got, err := parallelAt(data, cut)
		check(fmt.Sprintf("cut at byte %d", cut), got, err)
		cut += bytes.IndexByte(data[cut:], '\n') + 1
	}
	got, err := parseStreamed(data, StreamOptions{Workers: 4, segBytes: 64})
	check("four shards", got, err)
}

// FuzzSortByStart checks the merge against the reference sort on
// arbitrary event sequences. Each input byte triple is one event: a
// start time from a small set (so ties are common; 0xff is NaN), a
// rank and a segment. With a NaN present only the permutation property
// is checked.
func FuzzSortByStart(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3})                // one run
	f.Add([]byte{3, 0, 3, 2, 0, 2, 1, 0, 1, 0, 0, 0})                // reversed
	f.Add([]byte{1, 1, 0, 2, 1, 1, 1, 0, 0, 2, 0, 1, 1, 0, 0})       // ties across runs
	f.Add([]byte{2, 0, 0, 0xff, 1, 0, 1, 2, 0, 0xff, 0, 1, 0, 3, 3}) // NaN
	f.Fuzz(func(t *testing.T, data []byte) {
		events := make([]DXTEvent, 0, len(data)/3)
		hasNaN := false
		for i := 0; i+2 < len(data); i += 3 {
			start := float64(data[i]%8) * 0.5
			if data[i] == 0xff {
				start, hasNaN = math.NaN(), true
			}
			events = append(events, ev(start, int64(data[i+1]%4), int64(data[i+2]%4), int64(len(events))))
		}
		if !hasNaN {
			checkAgainstReference(t, events)
			return
		}
		tr := &DXTFileTrace{Events: append([]DXTEvent(nil), events...)}
		tr.SortByStart()
		seen := make([]bool, len(events))
		for _, e := range tr.Events {
			if seen[e.Offset] {
				t.Fatalf("event %d appears twice: %v", e.Offset, keys(tr.Events))
			}
			seen[e.Offset] = true
		}
		if len(tr.Events) != len(events) {
			t.Fatalf("sort returned %d events, want %d", len(tr.Events), len(events))
		}
	})
}
