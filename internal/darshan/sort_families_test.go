package darshan_test

import (
	"bytes"
	"reflect"
	"testing"

	"ion/internal/darshan"
	"ion/internal/testutil"
	"ion/internal/workloads"
)

// TestSortByStartMatchesReferenceOnFamilies parses every bundled
// workload's text rendering sequentially and in four shards, and
// checks each DXT trace against the reference sort of the events in
// the order the text lists them (one ascending run per rank block).
func TestSortByStartMatchesReferenceOnFamilies(t *testing.T) {
	reordered := 0 // traces whose input order is not already sorted
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		t.Run(w.Name, func(t *testing.T) {
			log, err := testutil.Log(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := log.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			if err := log.WriteDXTText(&buf); err != nil {
				t.Fatal(err)
			}
			text := buf.Bytes()
			pre, err := darshan.ParseTextUnsorted(text)
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64][]darshan.DXTEvent{}
			for _, tr := range pre.DXT {
				evs := append([]darshan.DXTEvent(nil), tr.Events...)
				darshan.ReferenceSortByStart(evs)
				want[tr.FileID] = evs
				if !reflect.DeepEqual(evs, tr.Events) {
					reordered++
				}
			}
			seq, err := darshan.ParseText(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := darshan.ParseTextSharded(text, 4, len(text)/4)
			if err != nil {
				t.Fatal(err)
			}
			for label, got := range map[string]*darshan.Log{"sequential": seq, "sharded": sharded} {
				if len(got.DXT) != len(want) {
					t.Fatalf("%s: %d DXT traces, want %d", label, len(got.DXT), len(want))
				}
				for _, tr := range got.DXT {
					if !reflect.DeepEqual(tr.Events, want[tr.FileID]) {
						t.Errorf("%s: file %d events differ from the reference order", label, tr.FileID)
					}
				}
			}
		})
	}
	if reordered == 0 {
		t.Error("no family trace needed reordering; the merge was not exercised")
	}
}
