package jobs

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"ion/internal/darshan"
	"ion/internal/obs"
)

// Submit accepts a Darshan trace held in memory; it is SubmitStream
// over the bytes, whose length sizes the parse segments.
func (s *Service) Submit(name string, trace []byte) (Job, bool, error) {
	return s.SubmitStream(name, bytes.NewReader(trace))
}

// SubmitStream accepts a Darshan trace (binary container or
// darshan-parser text) as it arrives, read once by ingest: text is
// parsed segment by segment during the read, so by the time the last
// byte arrives most of the trace is already parsed. When r reports its
// length up front through a Len method, as *bytes.Reader and the HTTP
// layer's bodies do, the length sizes the segments. name is a display
// label.
//
// The returned bool is true when an identical trace (same content
// hash) was already submitted, in which case the returned job is the
// earlier one. Returns ErrStreamBusy when the buffer budget
// (Config.StreamMaxBuffer) is exhausted — the HTTP layer maps it to
// 429 + Retry-After — ErrQueueFull when the queue is at capacity,
// ErrBadTrace when the bytes do not parse, and ErrClosed after shutdown
// has begun.
//
// The parse is the job's only one: its log and its parse spans wait
// for the worker that runs the job.
func (s *Service) SubmitStream(name string, r io.Reader) (Job, bool, error) {
	if s.Draining() {
		return Job{}, false, ErrClosed
	}
	s.streamSubs.Inc()
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	tracer := obs.NewTracer()
	b, err := s.ingest(obs.WithTracer(context.Background(), tracer), r, size, true)
	if err != nil {
		if errors.Is(err, ErrStreamBusy) {
			s.log.Warn("upload shed: buffer budget exhausted",
				"trace", name, "inflight_bytes", s.streamInflight.Load())
		}
		return Job{}, false, err
	}
	return s.admit(name, b, parsedTrace{log: b.log, tracer: tracer})
}

// body is a trace as ingest read it.
type body struct {
	log *darshan.Log
	// segs are the bytes read, in order, for the store: the text
	// parser's segments, or a binary container as one.
	segs   [][]byte
	hash   string // hex SHA-256 of the bytes
	ingest Ingest
}

// ingest is the one way trace bytes become a parsed log, for every
// submission and for a worker's re-read of a stored trace. One pass
// over r sniffs the binary magic, hashes the bytes, charges them to the
// buffer budget and hands darshan-parser text to a stream parser, whose
// segments parse while the rest is still being read. A binary
// container is one gzip stream that decodes only whole: it is buffered
// and decoded after the last byte. size is the body's length, or -1
// when unknown; the stream parser sizes its segments by it.
//
// The parse span, with one parse_shard child per segment, goes to
// ctx's tracer. It ends when the merged log is ready, so for a body
// arriving over the network it covers the transfer as well. A
// submission (shed) that would take the budget past
// Config.StreamMaxBuffer is refused with ErrStreamBusy; a stored
// trace's re-read is charged but never refused, since its job is
// already admitted.
func (s *Service) ingest(ctx context.Context, r io.Reader, size int64, shed bool) (b body, err error) {
	ctx, span := obs.StartSpan(ctx, "parse")
	defer func() {
		span.SetError(err)
		span.End()
	}()
	br := bufio.NewReader(r)
	var (
		sp   *darshan.StreamParser // text bodies; nil for a binary container
		bin  bytes.Buffer          // a binary container's bytes
		sink io.Writer             = &bin
	)
	if !darshan.IsBinary(br) {
		sp = darshan.NewStreamParser(darshan.StreamOptions{
			Workers:        s.cfg.ParseWorkers,
			Size:           size,
			OnShard:        s.shardHook(ctx),
			OnBackpressure: s.streamStalls.Inc,
		})
		sink = sp
	}
	hasher := sha256.New()
	var reserved int64
	defer func() { s.streamInflight.Add(-reserved) }()

	buf := make([]byte, 64<<10)
	start := time.Now()
	var readErr error
	for {
		n, err := br.Read(buf)
		if n > 0 {
			if !s.reserveStream(int64(n), shed) {
				s.streamRejected.Inc()
				if sp != nil {
					sp.Finish() // drain the pool; the body is abandoned
				}
				return body{}, ErrStreamBusy
			}
			reserved += int64(n)
			s.streamBytes.Add(float64(n))
			hasher.Write(buf[:n])
			if _, werr := sink.Write(buf[:n]); werr != nil {
				// A line is too long to parse; stop reading. Finish
				// below reports it at its position.
				break
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
	}

	var perr error
	if sp != nil {
		b.log, b.segs, perr = sp.Finish()
		b.ingest.Shards, b.ingest.ParseOverlapped = sp.Shards(), sp.EarlyShards() > 0
	} else {
		b.segs = [][]byte{bin.Bytes()}
		if readErr == nil {
			b.log, perr = darshan.ReadBinary(bytes.NewReader(bin.Bytes()))
		}
	}
	switch {
	case readErr != nil:
		return body{}, fmt.Errorf("jobs: reading stream: %w", readErr)
	case reserved == 0:
		return body{}, fmt.Errorf("%w: empty body", ErrBadTrace)
	case perr != nil:
		return body{}, fmt.Errorf("%w: %v", ErrBadTrace, perr)
	case len(b.log.Modules) == 0 && len(b.log.DXT) == 0:
		return body{}, fmt.Errorf("%w: no module records", ErrBadTrace)
	}
	// Reading and parsing overlap, so this is end-to-end ingest
	// throughput: bytes from the first read to the merged log.
	// Every byte read was charged to the budget, so reserved counts
	// the body.
	s.recordParseRate(reserved, time.Since(start))
	b.hash = hex.EncodeToString(hasher.Sum(nil))
	b.ingest.Bytes = reserved
	return b, nil
}

// reserveStream charges n bytes to the buffer budget. It refuses a
// submission (shed) the budget cannot take, and charges anything else
// regardless. A negative budget disables the bound.
func (s *Service) reserveStream(n int64, shed bool) bool {
	if !shed || s.cfg.StreamMaxBuffer < 0 {
		s.streamInflight.Add(n)
		return true
	}
	for {
		cur := s.streamInflight.Load()
		if cur+n > s.cfg.StreamMaxBuffer {
			return false
		}
		if s.streamInflight.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// shardHook returns a StreamOptions.OnShard callback that opens one
// span per parse shard under ctx and counts shards. Safe under
// concurrent shard starts; no-op spans when ctx has no tracer.
func (s *Service) shardHook(ctx context.Context) func(int, []byte) func(error) {
	return func(shard int, chunk []byte) func(error) {
		s.parseShards.Inc()
		_, span := obs.StartSpan(ctx, "parse_shard",
			obs.L("shard", strconv.Itoa(shard)),
			obs.L("bytes", strconv.Itoa(len(chunk))))
		return func(err error) {
			span.SetError(err)
			span.End()
		}
	}
}

// recordParseRate publishes the most recent parse throughput.
func (s *Service) recordParseRate(bytes int64, elapsed time.Duration) {
	if secs := elapsed.Seconds(); secs > 0 {
		s.parseMBps.Set(float64(bytes) / 1e6 / secs)
	}
}
