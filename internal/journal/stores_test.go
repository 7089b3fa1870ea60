package journal_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ion/internal/journal"
	"ion/internal/llm/ledger"
	"ion/internal/obs/prof"
	"ion/internal/quality"
	"ion/internal/semcache"
)

// store drives one of the four journaled stores through its exported
// API: put writes record i carrying pad, get returns the pad of record
// i if it is live, and live lists the live records in the store's
// listing order.
type store struct {
	put   func(i int, pad string) error
	get   func(i int) (string, bool)
	live  func() any
	len   func() int
	close func() error
}

var t0 = time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)

// storeSpec names a journaled store, the count and age bounds it
// fixes, and how to open it.
type storeSpec struct {
	name string
	max  int
	// age is the age bound, 0 for a store without one.
	age  time.Duration
	open func(path string) (store, error)
}

var stores = []storeSpec{
	{"semcache", semcache.DefaultMaxEntries, 0, func(path string) (store, error) {
		st, err := semcache.Open(semcache.Options{Path: path})
		return store{
			put: func(i int, pad string) error {
				sig := make(semcache.Signature, len(semcache.Dimensions()))
				sig[i%len(sig)] = 1
				return st.Put(semcache.Entry{
					JobID: fmt.Sprintf("j-%d", i), TraceHash: fmt.Sprintf("h-%d", i),
					Trace: pad, Signature: sig, Issues: []string{"small-io"}, CreatedAt: t0,
				})
			},
			get: func(i int) (string, bool) {
				for _, e := range st.Entries() {
					if e.JobID == fmt.Sprintf("j-%d", i) {
						return e.Trace, true
					}
				}
				return "", false
			},
			live:  func() any { return st.Entries() },
			len:   st.Len,
			close: st.Close,
		}, err
	}},
	{"ledger", 4096, 0, func(path string) (store, error) {
		st, err := ledger.Open(ledger.StoreOptions{Path: path})
		return store{
			put: func(i int, pad string) error {
				return st.Append(ledger.Entry{
					ID: fmt.Sprintf("e-%d", i), Job: "j", Template: "diagnosis", Backend: "b",
					TokensIn: i, TokensOut: 1, Outcome: "ok", Error: pad, Time: t0.Add(time.Duration(i) * time.Second),
				})
			},
			get: func(i int) (string, bool) {
				for _, e := range st.Entries(ledger.Filter{}) {
					if e.ID == fmt.Sprintf("e-%d", i) {
						return e.Error, true
					}
				}
				return "", false
			},
			live:  func() any { return st.Entries(ledger.Filter{}) },
			len:   st.Len,
			close: st.Close,
		}, err
	}},
	{"quality", 4096, 0, func(path string) (store, error) {
		st, err := quality.Open(quality.Options{Path: path})
		return store{
			put: func(i int, pad string) error {
				return st.Put(quality.Scorecard{
					JobID: fmt.Sprintf("j-%d", i), Trace: pad, CreatedAt: t0,
					Issues: []quality.IssueScore{{Issue: "small-io", Verdict: "detected", Label: "detected"}},
				})
			},
			get: func(i int) (string, bool) {
				c, ok := st.Get(fmt.Sprintf("j-%d", i))
				return c.Trace, ok
			},
			live:  func() any { return st.Entries() },
			len:   st.Len,
			close: st.Close,
		}, err
	}},
	{"prof", 360, 2 * time.Hour, func(path string) (store, error) {
		st, err := prof.OpenStore(prof.StoreOptions{Path: path})
		return store{
			put: func(i int, pad string) error {
				end := t0.Add(time.Duration(i) * time.Second)
				return st.Add(prof.Window{
					ID: fmt.Sprintf("w-%d", i), Kind: "cpu", Unit: pad, Start: end.Add(-time.Second), End: end, Total: 10,
					Functions: []prof.FuncStat{{Name: "main.work", Flat: 8, Cum: 10, FlatShare: 0.8, CumShare: 1}},
					Stacks:    []prof.Stack{{Frames: []string{"main.main", "main.work"}, Value: 8}},
				})
			},
			get: func(i int) (string, bool) {
				w, ok := st.Get(fmt.Sprintf("w-%d", i))
				return w.Unit, ok
			},
			live:  func() any { return st.Windows("", 0) },
			len:   st.Len,
			close: st.Close,
		}, err
	}},
}

// opener returns an opener of the store over path that closes what it
// opens when the test ends.
func (sc storeSpec) opener(t *testing.T, path string) func() store {
	return func() store {
		t.Helper()
		st, err := sc.open(path)
		if err != nil {
			t.Fatalf("open %s: %v", sc.name, err)
		}
		t.Cleanup(func() { st.close() })
		return st
	}
}

// TestStoresSurviveBadLines writes through each store's API around the
// damage a crash or a bad write leaves in its journal, and checks that
// every record written survives a restart.
func TestStoresSurviveBadLines(t *testing.T) {
	overLimit := strings.Repeat("x", journal.MaxLine+1) + "\n"
	cases := []struct {
		name string
		// damage is appended to the journal after record 1.
		damage string
		// pad is record 2's padding; wantErr says its write must fail.
		pad     string
		wantErr bool
	}{
		{name: "torn tail", damage: `{"id":"torn","job_id":"torn","sig`},
		{name: "over-limit line", damage: overLimit},
		{name: "over-limit write", pad: strings.Repeat("p", journal.MaxLine), wantErr: true},
	}
	for _, sc := range stores {
		for _, tc := range cases {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "j.jsonl")
				open := sc.opener(t, path)
				st := open()
				if err := st.put(1, ""); err != nil {
					t.Fatal(err)
				}
				st.close()
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.WriteString(tc.damage)
				f.Close()

				st = open()
				err = st.put(2, tc.pad)
				if tc.wantErr != (err != nil) {
					t.Fatalf("writing record 2: err = %v, want an error: %v", err, tc.wantErr)
				}
				st.close()
				if info, err := os.Stat(path); err != nil || info.Size() > int64(len(tc.damage))+64<<10 {
					t.Fatalf("journal stat %v, %v: a rejected record was written", info, err)
				}
				st = open()
				if _, ok := st.get(1); !ok {
					t.Fatal("record 1 lost")
				}
				if _, ok := st.get(2); ok == tc.wantErr {
					t.Fatalf("record 2 live = %v after a restart, want %v", ok, !tc.wantErr)
				}
			})
		}
	}
}

// TestStoresReplayWhatWasLive writes through each store's API and
// checks that a restart replays exactly the records that were live, in
// the same order: a rewritten record supersedes the older one, a
// journal full of superseded lines is compacted, and the count and age
// bounds the store fixes drop the oldest records.
func TestStoresReplayWhatWasLive(t *testing.T) {
	cases := []struct {
		name string
		// run writes records and returns how many must be live.
		run func(t *testing.T, st store, sc storeSpec) int
		// check runs before the restart and after it.
		check func(t *testing.T, st store, sc storeSpec)
	}{
		{
			name: "supersede across restart",
			run: func(t *testing.T, st store, sc storeSpec) int {
				mustPut(t, st, 1, "old")
				mustPut(t, st, 2, "")
				mustPut(t, st, 1, "new")
				return 2
			},
			check: func(t *testing.T, st store, sc storeSpec) {
				if pad, ok := st.get(1); !ok || pad != "new" {
					t.Fatalf("record 1 = %q (live %v), want the rewrite", pad, ok)
				}
			},
		},
		{
			name: "compaction",
			run: func(t *testing.T, st store, sc storeSpec) int {
				for i := 0; i < 100; i++ {
					mustPut(t, st, i%2, fmt.Sprint(i))
				}
				return 2
			},
			check: func(t *testing.T, st store, sc storeSpec) {
				for i, want := range []string{"98", "99"} {
					if pad, ok := st.get(i); !ok || pad != want {
						t.Fatalf("record %d = %q (live %v), want %q", i, pad, ok, want)
					}
				}
			},
		},
		{
			name: "count bound",
			run: func(t *testing.T, st store, sc storeSpec) int {
				for i := 0; i <= sc.max; i++ {
					mustPut(t, st, i, "")
				}
				return sc.max
			},
			check: func(t *testing.T, st store, sc storeSpec) {
				if _, ok := st.get(0); ok {
					t.Fatal("the oldest record outlived the count bound")
				}
				if _, ok := st.get(sc.max); !ok {
					t.Fatal("the newest record was evicted")
				}
			},
		},
		{
			// Record i is stamped i seconds after record 0, so record 1
			// is exactly at the age bound of the last record and record
			// 0 a second past it. Without an age bound the last write
			// rewrites record 1.
			name: "age bound",
			run: func(t *testing.T, st store, sc storeSpec) int {
				mustPut(t, st, 0, "")
				mustPut(t, st, 1, "")
				mustPut(t, st, 1+int(sc.age/time.Second), "")
				return 2
			},
			check: func(t *testing.T, st store, sc storeSpec) {
				if _, ok := st.get(0); ok != (sc.age == 0) {
					t.Fatalf("record 0 live = %v under an age bound of %v", ok, sc.age)
				}
				if _, ok := st.get(1); !ok {
					t.Fatal("a record at the age bound was evicted")
				}
			},
		},
	}
	for _, sc := range stores {
		for _, tc := range cases {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "j.jsonl")
				open := sc.opener(t, path)
				st := open()
				live := tc.run(t, st, sc)
				verify := func(when string) string {
					t.Helper()
					if n := st.len(); n != live {
						t.Fatalf("%d records live %s the restart, want %d", n, when, live)
					}
					tc.check(t, st, sc)
					listing, err := json.Marshal(st.live())
					if err != nil {
						t.Fatal(err)
					}
					return string(listing)
				}
				before := verify("before")
				st.close()
				// The journal compacts once it holds more than 2·live+16
				// lines.
				if n := lineCount(t, path); n > 2*live+16 {
					t.Fatalf("journal holds %d lines for %d live records", n, live)
				}
				st = open()
				if after := verify("after"); after != before {
					t.Fatalf("replayed\n%.600s\nwant\n%.600s", after, before)
				}
			})
		}
	}
}

func mustPut(t *testing.T, st store, i int, pad string) {
	t.Helper()
	if err := st.put(i, pad); err != nil {
		t.Fatalf("writing record %d: %v", i, err)
	}
}

func lineCount(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// TestSemcacheReplaysDuplicateTraceHash replays a journal in which the
// same trace hash was indexed twice under different jobs, as an older
// store that keyed entries by job id wrote it.
func TestSemcacheReplaysDuplicateTraceHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semcache.jsonl")
	sig := make(semcache.Signature, len(semcache.Dimensions()))
	sig[0] = 1
	var file []byte
	for _, job := range []string{"j-1", "j-2"} {
		line, err := json.Marshal(semcache.Entry{SigVersion: semcache.Version, JobID: job, TraceHash: "h", Signature: sig, CreatedAt: t0})
		if err != nil {
			t.Fatal(err)
		}
		file = append(append(file, line...), '\n')
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := semcache.Open(semcache.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ents := st.Entries(); len(ents) != 1 || ents[0].JobID != "j-2" {
		t.Fatalf("replayed %+v, want one entry for j-2", ents)
	}
}
