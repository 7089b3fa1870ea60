package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

type rec struct {
	K   string    `json:"k"`
	V   int       `json:"v,omitempty"`
	T   time.Time `json:"t"`
	Pad string    `json:"pad,omitempty"`
}

var t0 = time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)

func recOpts(path string) Options[rec] {
	return Options[rec]{
		Path: path,
		Key:  func(r rec) string { return r.K },
		Size: func(r rec) int64 { return int64(len(r.K)+len(r.Pad)) + 64 },
		Check: func(r rec) error {
			if r.K == "" {
				return errors.New("record needs a key")
			}
			return nil
		},
		Time: func(r rec) time.Time { return r.T },
	}
}

func mustOpen(t testing.TB, opts Options[rec]) *Store[rec] {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t testing.TB, s *Store[rec], recs ...rec) {
	t.Helper()
	for _, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatalf("Put(%s): %v", r.K, err)
		}
	}
}

// keys lists the live keys, newest first.
func keys(s *Store[rec]) string {
	var out []string
	s.Each(func(r rec) bool {
		out = append(out, r.K)
		return true
	})
	return strings.Join(out, " ")
}

// dump lists the live records' lines, newest first. Comparing lines
// rather than values keeps time zones parsed twice equal.
func dump(s *Store[rec]) string {
	var b strings.Builder
	s.Each(func(r rec) bool {
		b.WriteString(line(r))
		return true
	})
	return b.String()
}

// line is r's journal line.
func line(r rec) string {
	b, err := encode(r)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// The test binary run with partWriteEnv set to a journal's path is the
// child of the crash table's part-failed write case.
const partWriteEnv = "ION_JOURNAL_PART_WRITE"

// partWriteChild appends to the journal at path under a file-size limit
// ten bytes past its end, so one Put writes part of its line and fails
// with EFBIG (Go ignores SIGXFSZ). With the limit lifted again, a second
// Put must succeed.
func partWriteChild(t *testing.T, path string) {
	s := mustOpen(t, recOpts(path))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	short := lim
	short.Cur = uint64(fi.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Fatal(err)
	}
	err = s.Put(rec{K: "b", T: t0})
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err, ErrAppend) {
		t.Fatalf("Put past the file-size limit: %v, want ErrAppend", err)
	}
	mustPut(t, s, rec{K: "c", T: t0})
}

func lineCount(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte{'\n'})
}

// TestCrashConsistency runs each way a journal file can be left behind
// by a crash, a bad write or a hand edit, and checks what replay keeps
// and that the store stays appendable.
func TestCrashConsistency(t *testing.T) {
	a, b := rec{K: "a", T: t0}, rec{K: "b", T: t0.Add(time.Minute)}
	// atLimit is a valid record whose line is exactly MaxLine long.
	atLimit := rec{K: "big", T: t0, Pad: "p"}
	atLimit.Pad = strings.Repeat("p", MaxLine-len(line(atLimit))+2)

	cases := []struct {
		name string
		// file is the journal's content before the first open.
		file string
		// opts adjusts the options of every open.
		opts func(*Options[rec])
		// run drives the store opened over file; it may reopen.
		run func(t *testing.T, path string, open func() *Store[rec])
	}{
		{
			name: "torn tail then append",
			file: line(a) + `{"k":"torn","v":`,
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				if got := keys(s); got != "a" {
					t.Fatalf("replayed %q, want the torn line skipped", got)
				}
				mustPut(t, s, b)
				s.Close()
				if got := keys(open()); got != "b a" {
					t.Fatalf("after an append behind the torn line, replayed %q, want %q", got, "b a")
				}
			},
		},
		{
			name: "torn tail that parses",
			file: strings.TrimSuffix(line(a), "\n"),
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				mustPut(t, s, b)
				s.Close()
				if got := keys(open()); got != "b a" {
					t.Fatalf("replayed %q, want %q", got, "b a")
				}
			},
		},
		{
			name: "garbage and blank lines in the middle",
			file: line(a) + "\n\nnot json\n" + `{"k":""}` + "\n[1,2]\n" + line(b),
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				if got := keys(s); got != "b a" {
					t.Fatalf("replayed %q, want %q", got, "b a")
				}
				if s.lines != 7 {
					t.Fatalf("counted %d lines, want 7 (skipped ones included)", s.lines)
				}
			},
		},
		{
			name: "over-limit line in the middle",
			file: line(a) + strings.Repeat("x", MaxLine+1) + "\n" + line(atLimit) +
				strings.Repeat("y", 2*MaxLine) + "\n" + line(b),
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				if got := keys(s); got != "b big a" {
					t.Fatalf("replayed %q, want %q", got, "b big a")
				}
				before := lineCount(t, path)
				over := rec{K: "over", Pad: strings.Repeat("p", MaxLine)}
				if err := s.Put(over); err == nil {
					t.Fatal("Put accepted a record over the line limit")
				}
				if _, ok := s.Get("over"); ok {
					t.Fatal("a rejected record is live")
				}
				if n := lineCount(t, path); n != before {
					t.Fatalf("a rejected Put wrote %d lines", n-before)
				}
			},
		},
		{
			name: "crash between temp write and rename",
			file: line(a) + line(b),
			opts: func(o *Options[rec]) { o.MaxRecords = 2 },
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				// A compaction that died before its rename left a partial copy.
				stale := line(rec{K: "stale", T: t0}) + `{"k":"half`
				if err := os.WriteFile(path+".tmp", []byte(stale), 0o644); err != nil {
					t.Fatal(err)
				}
				s := open()
				if got := keys(s); got != "b a" {
					t.Fatalf("replayed %q, want the journal and not the temp file", got)
				}
				// Enough writes to pass the compaction threshold.
				for i := 0; i < 2*compactFactor+compactSlack; i++ {
					mustPut(t, s, rec{K: fmt.Sprintf("c%d", i%3), V: i, T: t0})
				}
				want := keys(s)
				if n := lineCount(t, path); n > compactFactor*2+compactSlack {
					t.Fatalf("journal holds %d lines; compaction did not run", n)
				}
				if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
					t.Fatalf("temp file left behind after compaction: %v", err)
				}
				s.Close()
				if got := keys(open()); got != want {
					t.Fatalf("replayed %q after compaction, want %q", got, want)
				}
			},
		},
		{
			name: "concurrent writes during compaction",
			opts: func(o *Options[rec]) { o.MaxRecords = 8 },
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				var wg sync.WaitGroup
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < 200; i++ {
							if err := s.Put(rec{K: fmt.Sprintf("k%d", (w*7+i)%20), V: w*1000 + i, T: t0}); err != nil {
								t.Error(err)
								return
							}
							s.Get("k0")
							s.Len()
						}
					}(w)
				}
				wg.Wait()
				if s.Len() != 8 {
					t.Fatalf("%d live records, want 8", s.Len())
				}
				if n := lineCount(t, path); n > compactFactor*8+compactSlack {
					t.Fatalf("journal holds %d lines after 1600 writes; compaction did not keep up", n)
				}
				want := dump(s)
				s.Close()
				if got := dump(open()); got != want {
					t.Fatalf("replayed\n%s\nwant\n%s", got, want)
				}
			},
		},
		{
			name: "bounds re-applied at replay",
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				for i := 0; i < 10; i++ {
					mustPut(t, s, rec{K: fmt.Sprintf("r%d", i), T: t0.Add(time.Duration(i) * time.Minute)})
				}
				s.Close()
				reopen := func(o func(*Options[rec])) *Store[rec] {
					opts := recOpts(path)
					o(&opts)
					return mustOpen(t, opts)
				}
				if s := reopen(func(o *Options[rec]) { o.MaxRecords = 3 }); keys(s) != "r9 r8 r7" || s.Evicted() != 7 {
					t.Fatalf("count bound kept %q, evicted %d", keys(s), s.Evicted())
				}
				if s := reopen(func(o *Options[rec]) { o.MaxBytes = 2 * 66 }); keys(s) != "r9 r8" {
					t.Fatalf("byte bound kept %q", keys(s))
				}
				if s := reopen(func(o *Options[rec]) { o.MaxAge = 150 * time.Second }); keys(s) != "r9 r8 r7" {
					t.Fatalf("age bound kept %q", keys(s))
				}
			},
		},
		{
			name: "recency order survives compaction",
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				mustPut(t, s, a, b, rec{K: "c", T: t0})
				s.Touch("a")
				if got := keys(s); got != "a c b" {
					t.Fatalf("after Touch, order is %q", got)
				}
				// Rewriting one record passes the threshold without
				// changing the others' order.
				for i := 0; i < 2*4+compactSlack; i++ {
					mustPut(t, s, rec{K: "x", V: i, T: t0})
				}
				if n := lineCount(t, path); n >= 2*4+compactSlack {
					t.Fatalf("journal holds %d lines; compaction did not run", n)
				}
				s.Close()
				if got := keys(open()); got != "x a c b" {
					t.Fatalf("replayed order %q, want %q", got, "x a c b")
				}
			},
		},
		{
			name: "append fails",
			file: line(a),
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				// A read-only append handle fails every write, as a full
				// disk would.
				ro, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				s.mu.Lock()
				s.file.Close()
				s.file = ro
				s.mu.Unlock()
				if err := s.Put(b); !errors.Is(err, ErrAppend) {
					t.Fatalf("Put with a failing append: %v, want ErrAppend", err)
				}
				if got := keys(s); got != "b a" {
					t.Fatalf("live %q, want the record whose append failed live", got)
				}
				s.Close()
				if got := keys(open()); got != "a" {
					t.Fatalf("replayed %q, want only the appended record", got)
				}
			},
		},
		{
			name: "append after a part-failed write",
			file: line(a),
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				if parent := os.Getenv(partWriteEnv); parent != "" {
					partWriteChild(t, parent)
					return
				}
				cmd := exec.Command(os.Args[0], "-test.count=1",
					"-test.run=^TestCrashConsistency$/^append_after_a_part-failed_write$")
				cmd.Env = append(os.Environ(), partWriteEnv+"="+path)
				if out, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("child: %v\n%s", err, out)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				c := rec{K: "c", T: t0}
				if want := line(a) + line(b)[:10] + "\n" + line(c); string(data) != want {
					t.Fatalf("journal holds\n%q\nwant the partial line ended before the next record:\n%q", data, want)
				}
				if got := keys(open()); got != "c a" {
					t.Fatalf("replayed %q, want %q", got, "c a")
				}
			},
		},
		{
			name: "eviction keeps the newest record",
			opts: func(o *Options[rec]) { o.MaxBytes = 100 },
			run: func(t *testing.T, path string, open func() *Store[rec]) {
				s := open()
				pad := strings.Repeat("p", 200)
				mustPut(t, s, rec{K: "big1", T: t0, Pad: pad})
				if got := keys(s); got != "big1" {
					t.Fatalf("a record over the byte bound was evicted by its own write: %q", got)
				}
				mustPut(t, s, rec{K: "big2", T: t0, Pad: pad})
				if got := keys(s); got != "big2" || s.Evicted() != 1 {
					t.Fatalf("kept %q with %d evicted, want only the newest record", got, s.Evicted())
				}
				s.Close()
				if got := keys(open()); got != "big2" {
					t.Fatalf("replay kept %q, want only the newest record", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			if tc.file != "" {
				if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			tc.run(t, path, func() *Store[rec] {
				opts := recOpts(path)
				if tc.opts != nil {
					tc.opts(&opts)
				}
				return mustOpen(t, opts)
			})
		})
	}
}

func TestReplayedSeesEveryValidRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	file := line(rec{K: "a", V: 1}) + "garbage\n" + line(rec{K: "a", V: 2}) + line(rec{K: "b", V: 3})
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := recOpts(path)
	opts.MaxRecords = 1
	var seen []int
	opts.Replayed = func(r rec) { seen = append(seen, r.V) }
	s := mustOpen(t, opts)
	if !reflect.DeepEqual(seen, []int{1, 2, 3}) {
		t.Fatalf("Replayed saw %v, want every valid record in file order", seen)
	}
	if got := keys(s); got != "b" {
		t.Fatalf("live %q, want b", got)
	}
}

func TestEvictedSeesEachDroppedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	opts := recOpts(path)
	opts.MaxRecords = 2
	var dropped []string
	opts.Evicted = func(r rec) { dropped = append(dropped, r.K) }
	s := mustOpen(t, opts)
	mustPut(t, s, rec{K: "a"}, rec{K: "b"}, rec{K: "a", V: 1}, rec{K: "c"}, rec{K: "d"})
	if got := strings.Join(dropped, " "); got != "b a" {
		t.Fatalf("Evicted saw %q, want the dropped records b and a, not the superseded a", got)
	}
	s.Close()
	dropped = nil
	mustOpen(t, opts)
	if got := strings.Join(dropped, " "); got != "b a" {
		t.Fatalf("Evicted saw %q at replay, want %q", got, "b a")
	}
}

func TestPutChecksAndCloses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	s := mustOpen(t, recOpts(path))
	if err := s.Put(rec{}); err == nil || !strings.Contains(err.Error(), "needs a key") {
		t.Fatalf("Put of an invalid record: %v, want Check's error", err)
	}
	mustPut(t, s, rec{K: "a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close, writes stay in memory only.
	mustPut(t, s, rec{K: "b"})
	if got := keys(s); got != "b a" {
		t.Fatalf("live %q after Close, want %q", got, "b a")
	}
	if got := keys(mustOpen(t, recOpts(path))); got != "a" {
		t.Fatalf("replayed %q, want only the record written before Close", got)
	}
	if _, err := Open(recOpts("")); err == nil {
		t.Fatal("Open accepted an empty path")
	}
}

// FuzzJournalReplay opens arbitrary bytes as an existing journal: Open
// never fails, and a record written after it survives a reopen along
// with everything the first open replayed.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(line(rec{K: "a"}) + `{"k":"b","v":`))
	f.Add([]byte(line(rec{K: "a"}) + "\n\nnot json\n" + line(rec{K: "a", V: 2})))
	f.Add([]byte(`{"k":"a"}` + "\r\n" + `{"k":""}` + "\n" + `{"k":"z"}`))
	f.Add([]byte("\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n" + line(rec{K: "a"})))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(recOpts(path))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		after := rec{K: "fuzz-after", V: 1}
		want := line(after)
		s.Each(func(r rec) bool {
			if r.K != after.K {
				want += line(r)
			}
			return true
		})
		if err := s.Put(after); err != nil {
			t.Fatalf("Put: %v", err)
		}
		s.Close()
		s2, err := Open(recOpts(path))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		if got := dump(s2); got != want {
			t.Fatalf("reopen replayed\n%s\nwant\n%s", got, want)
		}
	})
}
