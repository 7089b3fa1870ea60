// Package journal is the one JSON-lines store behind the job table,
// the semantic cache, the LLM ledger, the quality scorecards and the
// profile windows. A Store keeps its live records in memory, newest
// first, and appends every write to a file as one line, so a restarted
// process replays what it had. The Store owns the whole crash discipline:
//
//   - A torn last line, left by a crash mid-append or by an append that
//     failed part-way, is skipped at replay, and the next append starts
//     with a newline, so its record gets a line of its own.
//   - A blank, unparseable, invalid or over-long line is skipped, and
//     replay goes on with the next one.
//   - A record supersedes the live record with the same key.
//   - Count, byte and age bounds evict the oldest records, never the
//     newest, after every write and again at replay.
//   - A checked record is live before it is appended: a failed append
//     is returned, and the record is lost only at the next restart.
//   - Once the file holds more than 2·live+16 lines it is rewritten with
//     only the live records, through a temp file and a rename, so a crash
//     mid-compaction leaves the old file whole.
//
// Writes are not fsynced: a crash can lose the last records written,
// never the ones before them.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// MaxLine is the longest line, newline excluded, that replay accepts
// and Put writes. No store ever wrote a longer line that replayed.
const MaxLine = 8 << 20

// A Store compacts once its file holds more than
// compactFactor·live+compactSlack lines.
const (
	compactFactor = 2
	compactSlack  = 16
)

// Options configures a Store. Key, Size and Check are required.
type Options[T any] struct {
	// Path is the journal file; its directory is created if missing.
	Path string
	// Key names a record: a record supersedes the live one with the same
	// key.
	Key func(T) string
	// Size estimates the bytes a record retains, for MaxBytes.
	Size func(T) int64
	// Check rejects a record: Put returns its error and replay skips the
	// line.
	Check func(T) error
	// MaxRecords, MaxBytes and MaxAge bound the live records; zero or
	// negative leaves a bound off. MaxAge is measured back from the Time
	// of the record just written, so replay needs no clock.
	MaxRecords int
	MaxBytes   int64
	MaxAge     time.Duration
	// Time stamps a record for MaxAge; required when MaxAge is on.
	Time func(T) time.Time
	// Replayed, when set, sees every valid record Open reads, superseded
	// and evicted ones included, in file order.
	Replayed func(T)
	// Evicted, when set, sees each record a bound drops, at replay too.
	// It runs with the Store locked, so it must not call the Store.
	Evicted func(T)
}

// Store is a journaled, bounded set of records in recency order. All
// methods are safe for concurrent use.
type Store[T any] struct {
	mu    sync.Mutex
	opts  Options[T]
	file  *os.File // append handle; nil once closed
	byKey map[string]*node[T]
	// root is the sentinel of the recency list: root.next is the newest
	// record, root.prev the oldest.
	root node[T]
	size int64
	// lines counts the lines in the file, skipped ones included.
	lines   int
	evicted int64
	// torn is set while the file may end without a newline: a crash or
	// a failed append left part of a line.
	torn bool
}

type node[T any] struct {
	rec        T
	key        string
	size       int64
	prev, next *node[T]
}

// Open replays the journal at opts.Path, creating it if missing, and
// returns a Store that appends to it. Bad lines are skipped; only an
// error opening or reading the file fails the open.
func Open[T any](opts Options[T]) (*Store[T], error) {
	if opts.Path == "" {
		return nil, errors.New("journal: a path is required")
	}
	if err := os.MkdirAll(filepath.Dir(opts.Path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(opts.Path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	s := &Store[T]{opts: opts, byKey: map[string]*node[T]{}}
	s.root.prev, s.root.next = &s.root, &s.root
	lines, torn, err := ReadLines(f, func(line []byte) {
		var rec T
		if json.Unmarshal(line, &rec) != nil || opts.Check(rec) != nil {
			return
		}
		if opts.Replayed != nil {
			opts.Replayed(rec)
		}
		s.insert(rec)
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %s: %w", opts.Path, err)
	}
	s.file, s.lines, s.torn = f, lines, torn
	return s, nil
}

// ReadLines calls fn with each line of r, newline excluded, skipping any
// line longer than MaxLine; fn must not keep the slice. It returns how
// many lines r holds, skipped ones included, and whether the last one
// lacks its newline.
func ReadLines(r io.Reader, fn func(line []byte)) (lines int, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var (
		long []byte // the start of a line longer than br's buffer
		over bool   // the current line is longer than MaxLine
	)
	for {
		chunk, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			over = over || len(long)+len(chunk) > MaxLine
			if !over {
				long = append(long, chunk...)
			}
			continue
		}
		if err != nil && err != io.EOF {
			return lines, false, err
		}
		torn = err == io.EOF
		if torn && len(chunk) == 0 && len(long) == 0 && !over {
			return lines, false, nil
		}
		line := bytes.TrimSuffix(chunk, []byte{'\n'})
		if len(long) > 0 {
			long = append(long, line...)
			line = long
		}
		if !over && len(line) <= MaxLine {
			fn(line)
		}
		lines++
		long, over = long[:0], false
		if torn {
			return lines, true, nil
		}
	}
}

// ErrAppend wraps the error of a failed append. Put returns it for a
// record that is live but missing from the file, so a restart loses it.
var ErrAppend = errors.New("journal: append failed")

// Put makes rec the newest live record and appends it to the file. It
// returns Check's error, or an error for a line longer than MaxLine,
// without keeping or writing anything; any other error wraps ErrAppend.
// After Close, records are kept in memory only.
func (s *Store[T]) Put(rec T) error {
	if err := s.opts.Check(rec); err != nil {
		return err
	}
	line, err := encode(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(rec)
	if s.file == nil {
		return nil
	}
	if s.torn {
		// End the torn line first; if nothing was torn after all, the
		// newline leaves a blank line, which replay skips.
		line = append([]byte{'\n'}, line...)
	}
	if _, err := s.file.Write(line); err != nil {
		// The write may have left part of its line behind.
		s.torn = true
		return fmt.Errorf("%w: %w", ErrAppend, err)
	}
	s.torn = false
	s.lines++
	if s.lines > compactFactor*len(s.byKey)+compactSlack {
		s.compact()
	}
	return nil
}

func encode[T any](rec T) ([]byte, error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if len(line) > MaxLine {
		return nil, fmt.Errorf("journal: a %d-byte record is over the %d-byte line limit", len(line), MaxLine)
	}
	return append(line, '\n'), nil
}

// insert makes rec the newest record, superseding the one with its key,
// and applies the bounds.
func (s *Store[T]) insert(rec T) {
	n := &node[T]{rec: rec, key: s.opts.Key(rec), size: s.opts.Size(rec)}
	if old, ok := s.byKey[n.key]; ok {
		s.remove(old)
	}
	s.byKey[n.key] = n
	s.pushFront(n)
	s.size += n.size

	o := &s.opts
	var cutoff time.Time
	if o.MaxAge > 0 {
		cutoff = o.Time(rec).Add(-o.MaxAge)
	}
	for len(s.byKey) > 1 {
		oldest := s.root.prev
		if (o.MaxRecords <= 0 || len(s.byKey) <= o.MaxRecords) &&
			(o.MaxBytes <= 0 || s.size <= o.MaxBytes) &&
			(o.MaxAge <= 0 || !o.Time(oldest.rec).Before(cutoff)) {
			return
		}
		s.remove(oldest)
		s.evicted++
		if o.Evicted != nil {
			o.Evicted(oldest.rec)
		}
	}
}

func (s *Store[T]) remove(n *node[T]) {
	s.unlink(n)
	delete(s.byKey, n.key)
	s.size -= n.size
}

func (s *Store[T]) unlink(n *node[T]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (s *Store[T]) pushFront(n *node[T]) {
	n.prev, n.next = &s.root, s.root.next
	n.prev.next, n.next.prev = n, n
}

// compact rewrites the file with only the live records, oldest first so
// replay rebuilds the recency order, and keeps the temp file's handle as
// the append handle. On any failure the old file and handle stay, and
// the next Put tries again.
func (s *Store[T]) compact() {
	tmp := s.opts.Path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	w := bufio.NewWriter(f)
	for n := s.root.prev; n != &s.root && err == nil; n = n.prev {
		var line []byte
		if line, err = encode(n.rec); err == nil {
			_, err = w.Write(line)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = os.Rename(tmp, s.opts.Path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	s.file.Close()
	s.file, s.lines = f, len(s.byKey)
}

// Get returns the live record with key.
func (s *Store[T]) Get(key string) (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.byKey[key]; ok {
		return n.rec, true
	}
	var zero T
	return zero, false
}

// Touch makes the live record with key the newest. Recency is not
// journaled: only a compaction carries it over a restart.
func (s *Store[T]) Touch(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.byKey[key]; ok {
		s.unlink(n)
		s.pushFront(n)
	}
}

// Each calls fn on the live records, newest first, until fn returns
// false. fn runs with the Store locked, so it must not call the Store.
func (s *Store[T]) Each(fn func(T) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := s.root.next; n != &s.root; n = n.next {
		if !fn(n.rec) {
			return
		}
	}
}

// Len returns the number of live records.
func (s *Store[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// Bytes returns the estimated bytes the live records retain.
func (s *Store[T]) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Evicted returns how many records the bounds have dropped since Open,
// replay included.
func (s *Store[T]) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Close closes the file. The live records stay readable.
func (s *Store[T]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}
