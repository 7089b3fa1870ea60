package quality

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ion/internal/ion"
	"ion/internal/issue"
)

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// card builds a one-issue scorecard whose small-io verdict matches its
// label or not.
func card(job string, at time.Time, match bool) Scorecard {
	s := IssueScore{Issue: issue.SmallIO, Verdict: issue.VerdictDetected, Label: issue.VerdictDetected}
	if !match {
		s.Label = issue.VerdictMitigated
	}
	return Scorecard{
		JobID:     job,
		Trace:     "trace-" + job,
		Mode:      ModeFull,
		CreatedAt: at,
		Issues:    []IssueScore{s},
	}
}

func TestStorePutGetSupersede(t *testing.T) {
	st := openStore(t, Options{Path: filepath.Join(t.TempDir(), "q.jsonl")})
	t0 := time.Unix(1719000000, 0).UTC()
	if err := st.Put(card("j-1", t0, true)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := st.Put(card("j-2", t0.Add(time.Second), false)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	// Superseding j-1 with a shadow result keeps one record per job.
	c, _ := st.Get("j-1")
	c.Shadow = &Shadow{Checked: 9, Flips: []issue.ID{issue.SmallIO}, At: t0.Add(time.Minute)}
	if err := st.Put(c); err != nil {
		t.Fatalf("Put shadow: %v", err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len after supersede = %d, want 2", st.Len())
	}
	got, ok := st.Get("j-1")
	if !ok || got.Shadow == nil || len(got.Shadow.Flips) != 1 {
		t.Fatalf("Get j-1 = %+v, %v; want shadow with one flip", got, ok)
	}
	if ents := st.Entries(); len(ents) != 2 || ents[0].JobID != "j-2" {
		t.Fatalf("Entries = %+v, want j-2 first (newest)", ents)
	}
	if tail := st.Tail(1); len(tail) != 1 || tail[0].JobID != "j-2" {
		t.Fatalf("Tail(1) = %+v", tail)
	}
}

func TestStoreReplaySupersede(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	st := openStore(t, Options{Path: path})
	t0 := time.Unix(1719000000, 0).UTC()
	for _, j := range []string{"j-1", "j-2", "j-3"} {
		if err := st.Put(card(j, t0, false)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	c, _ := st.Get("j-2")
	c.Shadow = &Shadow{Checked: 9, At: t0}
	if err := st.Put(c); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st.Close()

	st2 := openStore(t, Options{Path: path})
	if st2.Len() != 3 {
		t.Fatalf("replayed Len = %d, want 3", st2.Len())
	}
	if got, ok := st2.Get("j-2"); !ok || got.Shadow == nil {
		t.Fatalf("superseded j-2 lost its shadow on replay: %+v %v", got, ok)
	}
	if a := st2.IssueLabels()[issue.SmallIO]; a != (LabelStat{Mismatched: 3}) {
		t.Fatalf("IssueLabels = %+v, want 3 mismatched", a)
	}
	fs := st2.FlipStats()
	if f := fs[ModeFull]; f.Shadowed != 1 || f.Flipped != 0 {
		t.Fatalf("FlipStats = %+v", f)
	}
}

func TestStoreTornTailAndGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	st := openStore(t, Options{Path: path})
	if err := st.Put(card("j-1", time.Unix(1719000000, 0), true)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json\n{\"job\":\"j-torn")
	f.Close()

	st2 := openStore(t, Options{Path: path})
	if st2.Len() != 1 {
		t.Fatalf("Len after torn tail = %d, want 1", st2.Len())
	}
	if _, ok := st2.Get("j-1"); !ok {
		t.Fatal("good record lost behind torn tail")
	}
}

func TestStoreEviction(t *testing.T) {
	st := openStore(t, Options{Path: filepath.Join(t.TempDir(), "q.jsonl")})
	t0 := time.Unix(1719000000, 0)
	for i := 0; i <= maxEntries; i++ {
		if err := st.Put(card(fmt.Sprintf("j-%d", i), t0.Add(time.Duration(i)*time.Second), true)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if st.Len() != maxEntries {
		t.Fatalf("Len = %d, want %d", st.Len(), maxEntries)
	}
	if _, ok := st.Get("j-0"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if s := st.Stats(); s.Evictions != 1 || s.Puts != maxEntries+1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	st := openStore(t, Options{Path: path})
	t0 := time.Unix(1719000000, 0)
	// Rewrite the same job far past the 2*live+16 threshold so the
	// journal compacts down to the live set.
	for i := 0; i < 60; i++ {
		if err := st.Put(card("j-1", t0, true)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > 20 {
		t.Fatalf("journal holds %d lines after 60 rewrites of one job; compaction did not run", n)
	}
	st.Close()
	st2 := openStore(t, Options{Path: path})
	if st2.Len() != 1 {
		t.Fatalf("Len after compacted replay = %d, want 1", st2.Len())
	}
}

func TestStoreNilReceiver(t *testing.T) {
	var st *Store
	if err := st.Put(Scorecard{JobID: "j"}); err != nil {
		t.Fatalf("nil Put: %v", err)
	}
	if _, ok := st.Get("j"); ok {
		t.Fatal("nil Get returned a scorecard")
	}
	if st.Len() != 0 || st.Bytes() != 0 || st.Entries() != nil || st.Tail(5) != nil {
		t.Fatal("nil snapshots not empty")
	}
	if len(st.IssueLabels()) != 0 || len(st.FlipStats()) != 0 {
		t.Fatal("nil aggregates not empty")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func reportWith(verdicts map[issue.ID]issue.Verdict) *ion.Report {
	rep := &ion.Report{Diagnoses: map[issue.ID]*ion.IssueDiagnosis{}}
	for id, v := range verdicts {
		rep.Diagnoses[id] = &ion.IssueDiagnosis{Issue: id, Verdict: v}
	}
	return rep
}

func TestScore(t *testing.T) {
	rep := reportWith(map[issue.ID]issue.Verdict{
		issue.SmallIO:      issue.VerdictDetected,    // matches its label
		issue.RandomAccess: issue.VerdictDetected,    // no label
		issue.Metadata:     issue.VerdictNotDetected, // label says mitigated
		issue.SharedFile:   issue.VerdictMitigated,   // label says detected
	})
	labels := []issue.Expectation{
		{Issue: issue.SmallIO, Want: issue.VerdictDetected},
		{Issue: issue.Metadata, Want: issue.VerdictMitigated},
		{Issue: issue.SharedFile, Want: issue.VerdictDetected},
	}

	scores := Score(rep, labels)
	if len(scores) != len(issue.All) {
		t.Fatalf("Score covers %d issues, want %d", len(scores), len(issue.All))
	}
	byID := map[issue.ID]IssueScore{}
	for _, s := range scores {
		byID[s.Issue] = s
	}
	if s := byID[issue.SmallIO]; s.Mismatch() || s.Label != issue.VerdictDetected {
		t.Fatalf("small-io = %+v", s)
	}
	if s := byID[issue.RandomAccess]; s.Mismatch() || s.Label != "" || s.Verdict != issue.VerdictDetected {
		t.Fatalf("random-access = %+v", s)
	}
	if s := byID[issue.Metadata]; !s.Mismatch() {
		t.Fatalf("metadata = %+v, want a mismatch", s)
	}
	if s := byID[issue.SharedFile]; !s.Mismatch() {
		t.Fatalf("shared-file = %+v, want a mismatch (mitigated is not detected)", s)
	}

	c := Scorecard{JobID: "j-1", Issues: scores}
	if m, mm := c.Labels(); m != 1 || mm != 2 {
		t.Fatalf("Labels = %d matched, %d mismatched; want 1, 2", m, mm)
	}
	if m, mm := (Scorecard{Issues: Score(rep, nil)}).Labels(); m != 0 || mm != 0 {
		t.Fatalf("unlabelled Labels = %d, %d; want 0, 0", m, mm)
	}
}

// TestStoreReplaysDrishtiFields replays a journal written while
// scorecards still compared verdicts with Drishti (per-issue drishti,
// agree and kind fields; per-card agreement and disagreements). The
// records load, and the label aggregates come from their labels alone.
func TestStoreReplaysDrishtiFields(t *testing.T) {
	data, err := os.ReadFile("testdata/drishti_fields.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"drishti":`, `"agree":`, `"kind":`, `"agreement":`} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("fixture lacks the %s field it exists to replay", field)
		}
	}
	path := filepath.Join(t.TempDir(), "q.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, Options{Path: path})
	if st.Len() != 2 {
		t.Fatalf("replayed %d scorecards, want 2", st.Len())
	}
	// The fixture's only labelled card is ior-hard under a backend that
	// answered not-detected everywhere: all five of its labels mismatch.
	var labelled, mismatched int
	for _, c := range st.Entries() {
		m, mm := c.Labels()
		labelled += m + mm
		mismatched += mm
	}
	if labelled != 5 || mismatched != 5 {
		t.Fatalf("replayed labels: %d labelled, %d mismatched; want 5, 5", labelled, mismatched)
	}
	want := map[issue.ID]LabelStat{
		issue.SmallIO:      {Mismatched: 1},
		issue.MisalignedIO: {Mismatched: 1},
		issue.RandomAccess: {Mismatched: 1},
		issue.SharedFile:   {Mismatched: 1},
		issue.Interface:    {Mismatched: 1},
	}
	if got := st.IssueLabels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("IssueLabels = %+v, want %+v", got, want)
	}
	if f := st.FlipStats()[ModeVerbatim]; f.Shadowed != 1 || f.Flipped != 0 {
		t.Fatalf("replayed verbatim flip stats = %+v, want 1 shadowed, 0 flipped", f)
	}
}

func TestFlips(t *testing.T) {
	served := reportWith(map[issue.ID]issue.Verdict{
		issue.SmallIO:    issue.VerdictDetected,
		issue.SharedFile: issue.VerdictDetected,
	})
	shadow := reportWith(map[issue.ID]issue.Verdict{
		issue.SmallIO: issue.VerdictDetected, // unchanged
		// shared-file absent → not-detected → flip
	})
	flips := Flips(served, shadow)
	if len(flips) != 1 || flips[0] != issue.SharedFile {
		t.Fatalf("Flips = %v, want [shared-file]", flips)
	}
	if f := Flips(served, served); f != nil {
		t.Fatalf("self Flips = %v, want none", f)
	}
}
