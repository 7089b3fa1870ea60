package darshan

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
)

// defaultStreamChunk is the target shard size for streamed parsing:
// big enough that per-shard setup (parser, intern table) is noise,
// small enough that a multi-megabyte upload yields several shards to
// overlap with the transfer.
const defaultStreamChunk = 1 << 20

// errStreamTooLong reports a single line exceeding maxLineBytes in a
// streamed body.
var errStreamTooLong = errors.New("darshan: stream: line exceeds maximum length")

// StreamOptions configures a StreamParser.
type StreamOptions struct {
	// Workers bounds concurrent shard parses; <= 0 means GOMAXPROCS.
	// Write blocks (backpressure to the sender) when all workers are
	// busy and a new shard is ready.
	Workers int
	// ChunkBytes is the target shard size; <= 0 means 1 MiB.
	ChunkBytes int
	// OnShard mirrors ParallelOptions.OnShard.
	OnShard func(shard int, chunk []byte) func(error)
	// OnBackpressure is invoked each time Write must wait for a parse
	// worker before dispatching the next shard.
	OnBackpressure func()
}

// StreamParser parses a darshan-parser text log incrementally as its
// bytes arrive. Write accumulates a segment buffer; each time it
// fills, the segment is cut at its last line boundary and handed to a
// parse worker, so parsing overlaps the upload. Finish flushes the
// tail, waits for the pool, and merges shards exactly like
// ParseTextParallel — the resulting log and error (including
// positions) match a sequential ParseText of the concatenated bytes.
//
// A StreamParser is single-use and Write/Finish must be called from
// one goroutine.
type StreamParser struct {
	opts StreamOptions

	sem chan struct{} // parse-worker slots; cap = Workers
	wg  sync.WaitGroup

	seg      []byte
	chunks   [][]byte
	shards   []*shardResult
	total    int64
	early    int // shards dispatched before Finish, i.e. during upload
	finished bool
}

// NewStreamParser returns a StreamParser ready to receive bytes.
func NewStreamParser(opts StreamOptions) *StreamParser {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = defaultStreamChunk
	}
	return &StreamParser{
		opts: opts,
		sem:  make(chan struct{}, opts.Workers),
	}
}

// Write implements io.Writer. It fails only on a line longer than the
// parser accepts. A syntax error does not stop it, so a body is read to
// its end however the parse shards are scheduled; Finish returns the
// canonical, positioned error.
func (s *StreamParser) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.seg == nil {
			s.seg = make([]byte, 0, s.opts.ChunkBytes)
		}
		take := cap(s.seg) - len(s.seg)
		if take > len(p) {
			take = len(p)
		}
		s.seg = append(s.seg, p[:take]...)
		p = p[take:]
		if len(s.seg) < cap(s.seg) {
			continue
		}
		if i := bytes.LastIndexByte(s.seg, '\n'); i >= 0 {
			chunk := s.seg[:i+1]
			next := make([]byte, 0, s.opts.ChunkBytes)
			next = append(next, s.seg[i+1:]...)
			s.seg = next
			s.dispatch(chunk, true)
		} else {
			// No line boundary in the whole segment: a single giant
			// line. Grow (bounded) until its newline arrives.
			if cap(s.seg) >= maxLineBytes {
				return n - len(p), errStreamTooLong
			}
			grown := make([]byte, len(s.seg), 2*cap(s.seg))
			copy(grown, s.seg)
			s.seg = grown
		}
	}
	return n, nil
}

// dispatch hands a completed chunk to a parse worker, blocking — and
// signaling backpressure — when none is free.
func (s *StreamParser) dispatch(chunk []byte, early bool) {
	idx := len(s.chunks)
	s.chunks = append(s.chunks, chunk)
	slot := &shardResult{chunk: chunk}
	s.shards = append(s.shards, slot)
	if early {
		s.early++
	}
	s.total += int64(len(chunk))
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
// the merged log together with the complete reassembled body (valid
// even when parsing failed, so callers can persist or inspect it).
func (s *StreamParser) Finish() (*Log, []byte, error) {
	if !s.finished {
		s.finished = true
		if len(s.seg) > 0 {
			s.dispatch(s.seg, false)
			s.seg = nil
		}
	}
	s.wg.Wait()
	var data []byte
	switch len(s.chunks) {
	case 0:
	case 1:
		data = s.chunks[0]
	default:
		data = make([]byte, 0, s.total)
		for _, c := range s.chunks {
			data = append(data, c...)
		}
	}
	log, err := mergeShards(s.shards)
	return log, data, err
}

// EarlyShards reports how many shards were dispatched to the parse
// pool before Finish — i.e. how much parsing overlapped the upload.
func (s *StreamParser) EarlyShards() int { return s.early }

// Shards reports the total number of parse shards dispatched.
func (s *StreamParser) Shards() int { return len(s.chunks) }

// BytesIn reports the number of body bytes dispatched so far.
func (s *StreamParser) BytesIn() int64 { return s.total }
