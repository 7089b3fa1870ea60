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
// API: put writes record i carrying pad, has reports whether record i
// is live.
type store struct {
	put   func(i int, pad string) error
	has   func(i int) bool
	close func() error
}

var t0 = time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)

var stores = []struct {
	name string
	open func(path string) (store, error)
}{
	{"semcache", func(path string) (store, error) {
		st, err := semcache.Open(semcache.Options{Path: path})
		sig := make(semcache.Signature, len(semcache.Dimensions()))
		return store{
			put: func(i int, pad string) error {
				sig[i%len(sig)] = 1
				return st.Put(semcache.Entry{
					JobID: fmt.Sprintf("j-%d", i), TraceHash: fmt.Sprintf("h-%d", i),
					Trace: pad, Signature: sig, CreatedAt: t0,
				})
			},
			has: func(i int) bool {
				for _, e := range st.Entries() {
					if e.JobID == fmt.Sprintf("j-%d", i) {
						return true
					}
				}
				return false
			},
			close: st.Close,
		}, err
	}},
	{"ledger", func(path string) (store, error) {
		st, err := ledger.Open(ledger.StoreOptions{Path: path})
		return store{
			put: func(i int, pad string) error {
				return st.Append(ledger.Entry{ID: fmt.Sprintf("e-%d", i), Backend: "b", Outcome: "ok", Error: pad, Time: t0})
			},
			has: func(i int) bool {
				for _, e := range st.Entries(ledger.Filter{}) {
					if e.ID == fmt.Sprintf("e-%d", i) {
						return true
					}
				}
				return false
			},
			close: st.Close,
		}, err
	}},
	{"quality", func(path string) (store, error) {
		st, err := quality.Open(quality.Options{Path: path})
		return store{
			put: func(i int, pad string) error {
				return st.Put(quality.Scorecard{JobID: fmt.Sprintf("j-%d", i), Trace: pad, CreatedAt: t0})
			},
			has: func(i int) bool {
				_, ok := st.Get(fmt.Sprintf("j-%d", i))
				return ok
			},
			close: st.Close,
		}, err
	}},
	{"prof", func(path string) (store, error) {
		st, err := prof.OpenStore(prof.StoreOptions{Path: path})
		return store{
			put: func(i int, pad string) error {
				return st.Add(prof.Window{ID: fmt.Sprintf("w-%d", i), Kind: "cpu", Unit: pad, Start: t0, End: t0.Add(time.Duration(i) * time.Second)})
			},
			has: func(i int) bool {
				_, ok := st.Get(fmt.Sprintf("w-%d", i))
				return ok
			},
			close: st.Close,
		}, err
	}},
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
				open := func() store {
					st, err := sc.open(path)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					t.Cleanup(func() { st.close() })
					return st
				}
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
				if !st.has(1) {
					t.Fatal("record 1 lost")
				}
				if st.has(2) == tc.wantErr {
					t.Fatalf("record 2 live = %v after a restart, want %v", st.has(2), !tc.wantErr)
				}
			})
		}
	}
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
