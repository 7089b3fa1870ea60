package darshan

import (
	"bytes"
	"runtime"
	"sync"
)

// Segment sizes; see segmentBytes.
const (
	minSegment = 256 << 10
	maxSegment = 1 << 20
	// segmentSlack leaves room in each segment for the partial line
	// its cut carries into the next, so a body splits into Workers
	// segments, not one more holding its last few bytes.
	segmentSlack = 4 << 10
)

// segmentBytes sizes a StreamParser's segments. A body of known size
// gets one segment per worker, plus segmentSlack, clamped to [256 KiB,
// 1 MiB]: big enough that per-shard setup (a parser, an intern table,
// the merge) is noise, small enough that a multi-megabyte upload yields
// several shards to parse while the rest arrives. A body of unknown
// size (<= 0) gets 1 MiB segments.
func segmentBytes(size int64, workers int) int {
	if size <= 0 {
		return maxSegment
	}
	n := size/int64(workers) + segmentSlack
	return int(min(max(n, minSegment), maxSegment))
}

// StreamOptions configures a StreamParser.
type StreamOptions struct {
	// Workers bounds concurrent shard parses; <= 0 means GOMAXPROCS.
	// Write blocks (backpressure to the sender) when all workers are
	// busy and a new shard is ready.
	Workers int
	// Size is the body's length in bytes when it is known up front;
	// <= 0 means unknown. It sizes the segments (see segmentBytes).
	Size int64
	// OnShard, when non-nil, is called as each shard begins parsing and
	// returns a completion callback invoked with the shard's error (nil
	// on success). Callers hang per-shard tracing spans off it.
	OnShard func(shard int, chunk []byte) func(error)
	// OnBackpressure is invoked each time Write must wait for a parse
	// worker before dispatching the next shard.
	OnBackpressure func()

	// segBytes overrides segmentBytes so tests can cut small inputs
	// into many shards.
	segBytes int
}

// StreamParser parses a darshan-parser text log incrementally as its
// bytes arrive; it is the one code that cuts text into shards. Write
// accumulates a segment buffer; each time it fills, the segment is cut
// at its last line boundary and handed to a parse worker, so parsing
// overlaps the upload. Finish flushes the tail, waits for the pool, and
// merges the shards — the resulting log and error (including
// positions) match a sequential ParseText of the concatenated bytes.
//
// A StreamParser is single-use and Write/Finish must be called from
// one goroutine.
type StreamParser struct {
	opts StreamOptions

	sem chan struct{} // parse-worker slots; cap = Workers
	wg  sync.WaitGroup

	seg    []byte
	shards []*shardResult
	early  int // shards dispatched before Finish, i.e. during upload
}

// NewStreamParser returns a StreamParser ready to receive bytes.
func NewStreamParser(opts StreamOptions) *StreamParser {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.segBytes <= 0 {
		opts.segBytes = segmentBytes(opts.Size, opts.Workers)
	}
	return &StreamParser{
		opts: opts,
		sem:  make(chan struct{}, opts.Workers),
	}
}

// Write implements io.Writer. A syntax error does not stop it, so a
// body is read to its end however the parse shards are scheduled;
// Finish returns the canonical, positioned error. It fails only on a
// line longer than ParseText accepts, and then takes no more bytes:
// Finish reports that line at its position, as ParseText does.
func (s *StreamParser) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.seg == nil {
			s.seg = make([]byte, 0, s.opts.segBytes)
		}
		take := min(cap(s.seg)-len(s.seg), len(p))
		s.seg = append(s.seg, p[:take]...)
		p = p[take:]
		if len(s.seg) < cap(s.seg) {
			continue
		}
		// A segment starts at a line start, so one without a newline
		// is a single line.
		switch i := bytes.LastIndexByte(s.seg, '\n'); {
		case i >= 0:
			chunk := s.seg[:i+1]
			next := make([]byte, 0, s.opts.segBytes)
			s.seg = append(next, s.seg[i+1:]...)
			s.dispatch(chunk, true)
		case len(s.seg) > maxLineBytes:
			// The segment stays full, so every later Write fails too.
			return n - len(p), errLineTooLong
		default:
			// Grow, to one byte past the limit at most, until the
			// line's newline arrives.
			grown := make([]byte, len(s.seg), min(2*cap(s.seg), maxLineBytes+1))
			copy(grown, s.seg)
			s.seg = grown
		}
	}
	return n, nil
}

// dispatch hands a completed chunk to a parse worker, blocking — and
// signaling backpressure — when none is free.
func (s *StreamParser) dispatch(chunk []byte, early bool) {
	idx := len(s.shards)
	slot := &shardResult{chunk: chunk}
	s.shards = append(s.shards, slot)
	if early {
		s.early++
	}
	select {
	case s.sem <- struct{}{}:
	default:
		if s.opts.OnBackpressure != nil {
			s.opts.OnBackpressure()
		}
		s.sem <- struct{}{}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() { <-s.sem }()
		*slot = *parseShard(idx, chunk, idx > 0, s.opts.OnShard)
	}()
}

// Finish flushes any buffered tail, waits for all shards, and returns
// the merged log together with the segments written, in order: their
// concatenation is every byte written, valid even when parsing failed,
// so callers can persist or inspect them. After a line too long, the
// last segment is that line's start, and its shard fails with the
// error ParseText gives.
func (s *StreamParser) Finish() (*Log, [][]byte, error) {
	if len(s.seg) > 0 {
		s.dispatch(s.seg, false)
		s.seg = nil
	}
	s.wg.Wait()
	segs := make([][]byte, len(s.shards))
	for i, sh := range s.shards {
		segs[i] = sh.chunk
	}
	log, err := mergeShards(s.shards)
	return log, segs, err
}

// EarlyShards reports how many shards were dispatched to the parse
// pool before Finish — i.e. how much parsing overlapped the upload.
func (s *StreamParser) EarlyShards() int { return s.early }

// Shards reports the total number of parse shards dispatched.
func (s *StreamParser) Shards() int { return len(s.shards) }
