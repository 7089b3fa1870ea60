package jobs

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"ion/internal/darshan"
)

// SubmitStream accepts a Darshan trace as a byte stream (typically a
// chunked-transfer POST body). darshan-parser text is parsed
// incrementally while it uploads: completed segments are cut at line
// boundaries and handed to the parse pool, so by the time the last
// byte arrives most of the trace is already parsed, and the worker
// running the job skips the parse stage entirely.
//
// A body that starts with the binary container's magic is one gzip
// stream that decodes only whole: it is buffered as it arrives (hashed
// and charged to the buffer budget like text) and decoded once after
// the last byte, whatever its size. Either way the job gets the same
// log, and so the same report, as the same bytes sent to Submit.
//
// The content hash is computed incrementally over the same bytes, so
// dedup and semantic-cache keying behave exactly as with Submit.
// Returns ErrStreamBusy when the service-wide streaming buffer budget
// (Config.StreamMaxBuffer) is exhausted — the HTTP layer maps it to
// 429 + Retry-After — and otherwise the same results and errors as
// Submit.
func (s *Service) SubmitStream(name string, r io.Reader) (Job, bool, error) {
	if s.Draining() {
		return Job{}, false, ErrClosed
	}
	s.streamSubs.Inc()

	br := bufio.NewReader(r)
	var (
		sp   *darshan.StreamParser // text bodies; nil for a binary container
		body bytes.Buffer          // a binary container's bytes
		sink io.Writer             = &body
	)
	if !darshan.IsBinary(br) {
		sp = darshan.NewStreamParser(darshan.StreamOptions{
			Workers:        s.cfg.ParseWorkers,
			OnShard:        s.shardHook(context.Background()),
			OnBackpressure: func() { s.streamStalls.Inc() },
		})
		sink = sp
	}
	hasher := sha256.New()
	var reserved int64
	defer func() {
		if reserved > 0 {
			s.streamInflight.Add(-reserved)
		}
	}()

	buf := make([]byte, 64<<10)
	start := time.Now()
	var readErr error
	for {
		n, err := br.Read(buf)
		if n > 0 {
			if !s.reserveStream(int64(n)) {
				s.streamRejected.Inc()
				if sp != nil {
					sp.Finish() // drain the pool; the body is abandoned
				}
				s.log.Warn("streaming upload shed: buffer budget exhausted",
					"trace", name, "inflight_bytes", s.streamInflight.Load())
				return Job{}, false, ErrStreamBusy
			}
			reserved += int64(n)
			s.streamBytes.Add(float64(n))
			hasher.Write(buf[:n])
			if _, werr := sink.Write(buf[:n]); werr != nil {
				// A shard already failed; stop uploading. Finish below
				// reports the canonical positioned error.
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

	var (
		log  *darshan.Log
		data []byte
		perr error
	)
	if sp != nil {
		log, data, perr = sp.Finish()
	} else {
		data = body.Bytes()
		if readErr == nil {
			log, perr = darshan.ReadBinary(bytes.NewReader(data))
		}
	}
	if perr == nil && readErr == nil {
		// For text, upload and parse overlapped, so this is end-to-end
		// ingest throughput: bytes from first read to merged log.
		s.recordParseRate(int64(len(data)), time.Since(start))
	}
	if readErr != nil {
		return Job{}, false, fmt.Errorf("jobs: reading stream: %w", readErr)
	}
	if len(data) == 0 {
		return Job{}, false, fmt.Errorf("%w: empty body", ErrBadTrace)
	}
	if perr != nil {
		return Job{}, false, fmt.Errorf("%w: %v", ErrBadTrace, perr)
	}
	if len(log.Modules) == 0 && len(log.DXT) == 0 {
		return Job{}, false, fmt.Errorf("%w: no module records", ErrBadTrace)
	}

	hash := hex.EncodeToString(hasher.Sum(nil))
	ingest := &Ingest{Mode: IngestStream, Bytes: int64(len(data))}
	if sp != nil {
		ingest.Shards, ingest.ParseOverlapped = sp.Shards(), sp.EarlyShards() > 0
	}
	job, dedup, err := s.admit(name, hash, data, ingest, parsedTrace{log: log})
	if err == nil && !dedup {
		s.log.Info("streamed submission admitted",
			"job", job.ID, "shards", ingest.Shards, "parse_overlapped", ingest.ParseOverlapped,
			"bytes", len(data))
	}
	return job, dedup, err
}

// reserveStream takes n bytes from the streaming buffer budget,
// refusing when the budget would be exceeded. A negative budget
// disables the bound.
func (s *Service) reserveStream(n int64) bool {
	if s.cfg.StreamMaxBuffer < 0 {
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
