package semcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "semcache.jsonl")
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func sigN(seed int) Signature {
	s := make(Signature, len(Dimensions()))
	for i := range s {
		s[i] = float64((seed+i*7)%32) / 32
	}
	return s
}

func entryN(n int) Entry {
	return Entry{
		JobID:     fmt.Sprintf("j-%012d", n),
		TraceHash: fmt.Sprintf("hash-%d", n),
		Trace:     fmt.Sprintf("trace-%d", n),
		Signature: sigN(n),
		Issues:    []string{"small-io"},
		Outcome:   "full",
		CreatedAt: time.Unix(int64(1700000000+n), 0).UTC(),
	}
}

func TestStorePutLookup(t *testing.T) {
	st := testStore(t, Options{})
	for i := 0; i < 5; i++ {
		if err := st.Put(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := st.Lookup(sigN(3))
	if !ok {
		t.Fatal("Lookup returned no match")
	}
	if m.Entry.JobID != "j-000000000003" {
		t.Fatalf("nearest neighbor = %s (sim %.3f), want j-000000000003", m.Entry.JobID, m.Similarity)
	}
	if m.Similarity != 1 {
		t.Fatalf("identical signature similarity = %v, want 1", m.Similarity)
	}
	if len(m.Deltas) != 0 {
		t.Fatalf("identical signature has deltas: %v", m.Deltas)
	}
}

func TestStoreSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semcache.jsonl")
	st := testStore(t, Options{Path: path})
	for i := 0; i < 3; i++ {
		if err := st.Put(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := testStore(t, Options{Path: path})
	if got := st2.Len(); got != 3 {
		t.Fatalf("reloaded %d entries, want 3", got)
	}
	m, ok := st2.Lookup(sigN(1))
	if !ok || m.Entry.JobID != "j-000000000001" {
		t.Fatalf("after restart, lookup = %+v ok=%v", m, ok)
	}
}

func TestStoreReplacesSameTraceHash(t *testing.T) {
	st := testStore(t, Options{})
	e := entryN(1)
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}
	e2 := entryN(1)
	e2.JobID = "j-000000000099"
	if err := st.Put(e2); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != 1 {
		t.Fatalf("same-hash re-put left %d entries, want 1", got)
	}
	m, _ := st.Lookup(sigN(1))
	if m.Entry.JobID != "j-000000000099" {
		t.Fatalf("lookup returned %s, want the superseding job", m.Entry.JobID)
	}
}

func TestStoreCountEviction(t *testing.T) {
	st := testStore(t, Options{MaxEntries: 4, MaxBytes: -1})
	for i := 0; i < 10; i++ {
		if err := st.Put(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Len(); got != 4 {
		t.Fatalf("store holds %d entries, want 4", got)
	}
	if _, ok := st.Lookup(nil); !ok {
		t.Fatal("bounded store should still answer lookups")
	}
	if st.Stats().Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Stats().Evictions)
	}
}

func TestStoreByteEviction(t *testing.T) {
	budget := entryN(0).size() * 3
	st := testStore(t, Options{MaxEntries: -1, MaxBytes: budget})
	for i := 0; i < 10; i++ {
		if err := st.Put(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Bytes() > budget {
		t.Fatalf("store retains %d bytes over budget %d", st.Bytes(), budget)
	}
	if st.Len() == 0 || st.Len() > 3 {
		t.Fatalf("byte-bounded store holds %d entries", st.Len())
	}
}

func TestStoreBoundsReapplyOnLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semcache.jsonl")
	st := testStore(t, Options{Path: path, MaxEntries: -1, MaxBytes: -1})
	for i := 0; i < 8; i++ {
		if err := st.Put(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st2 := testStore(t, Options{Path: path, MaxEntries: 2})
	if got := st2.Len(); got != 2 {
		t.Fatalf("reload with tighter bound holds %d entries, want 2", got)
	}
}

func TestStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semcache.jsonl")
	st := testStore(t, Options{Path: path, MaxEntries: 4})
	// Many superseding writes of a small live set force a compaction.
	for round := 0; round < 40; round++ {
		for i := 0; i < 4; i++ {
			if err := st.Put(entryN(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 160 journal writes at ~300 bytes each would be ~48 KB without
	// compaction; the live set is 4 entries.
	if fi.Size() > 8<<10 {
		t.Fatalf("journal is %d bytes; compaction did not run", fi.Size())
	}
	st.Close()
	st2 := testStore(t, Options{Path: path})
	if got := st2.Len(); got != 4 {
		t.Fatalf("compacted journal reloaded %d entries, want 4", got)
	}
}

func TestStoreCorruptTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semcache.jsonl")
	st := testStore(t, Options{Path: path})
	if err := st.Put(entryN(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job_id":"j-torn","sig`) // torn write, no newline
	f.Close()
	st2 := testStore(t, Options{Path: path})
	if got := st2.Len(); got != 1 {
		t.Fatalf("store with torn tail loaded %d entries, want 1", got)
	}
}

func TestStoreNilReceiver(t *testing.T) {
	var st *Store
	if err := st.Put(entryN(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup(sigN(1)); ok {
		t.Fatal("nil store answered a lookup")
	}
	st.Note(OutcomeHit)
	if st.Len() != 0 || st.Bytes() != 0 || st.Entries() != nil {
		t.Fatal("nil store reports state")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	st := testStore(t, Options{MaxEntries: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := w*50 + i
				if err := st.Put(entryN(n)); err != nil {
					t.Error(err)
					return
				}
				st.Lookup(sigN(n))
				st.Note(OutcomeMiss)
				st.Stats()
			}
		}()
	}
	wg.Wait()
	if st.Len() > 16 {
		t.Fatalf("concurrent puts breached the bound: %d entries", st.Len())
	}
}

// TestRevokeSkipsEntry: a revoked entry stops matching, even at
// similarity 1.0, and stays revoked after a reopen; a nil store's
// Revoke is a no-op.
func TestRevokeSkipsEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "semcache.jsonl")
	st := testStore(t, Options{Path: path})
	for i := 1; i <= 2; i++ {
		if err := st.Put(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := st.Lookup(sigN(1))
	if !ok || m.Entry.JobID != entryN(1).JobID || m.Similarity != 1 {
		t.Fatalf("before revoke: lookup = %+v ok=%v, want entry 1 at similarity 1", m, ok)
	}
	if err := st.Revoke(m.Entry); err != nil {
		t.Fatal(err)
	}
	lookupSkips := func(st *Store, when string) {
		t.Helper()
		if m, ok := st.Lookup(sigN(1)); ok && m.Entry.JobID == entryN(1).JobID {
			t.Fatalf("%s: lookup still matches the revoked entry (similarity %v)", when, m.Similarity)
		}
		if st.Len() != 2 {
			t.Fatalf("%s: store holds %d entries, want 2 (revoking keeps the entry)", when, st.Len())
		}
		for _, e := range st.Entries() {
			if e.Revoked != (e.JobID == entryN(1).JobID) {
				t.Fatalf("%s: entry %s revoked = %v", when, e.JobID, e.Revoked)
			}
		}
	}
	lookupSkips(st, "after revoke")

	// A stale entry (another job's diagnosis under the same key) is left
	// alone.
	stale := entryN(2)
	stale.JobID = "j-other"
	if err := st.Revoke(stale); err != nil {
		t.Fatal(err)
	}
	if m, ok := st.Lookup(sigN(2)); !ok || m.Entry.JobID != entryN(2).JobID {
		t.Fatalf("revoking a stale entry hid the live one: %+v ok=%v", m, ok)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	lookupSkips(testStore(t, Options{Path: path}), "after reopen")

	var nilStore *Store
	if err := nilStore.Revoke(entryN(1)); err != nil {
		t.Fatalf("nil store Revoke: %v", err)
	}
}
