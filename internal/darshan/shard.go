package darshan

import (
	"errors"
	"slices"
)

// Sharded text parsing.
//
// A sharded parse cuts the input at line boundaries into segments (the
// StreamParser in stream.go is the one segmenter), parses each segment
// with an independent parser (its own intern table, scratch buffers,
// and dedup sets), and merges the results into a log indistinguishable
// from a sequential ParseText of the same bytes.
//
// Correctness does not depend on where the cuts land: any line
// boundary is valid. A chunk that opens inside a DXT block collects
// the headerless event rows (and any rank-header hostname) as orphan
// state, and the merge reattaches them to the file trace left open by
// the previous chunk — or reports the same positioned error the
// sequential parser would if no such trace exists.

// ParseTextParallel parses a darshan-parser text log held in memory
// using up to workers goroutines (<= 0 means GOMAXPROCS). It is a
// StreamParser fed data with its size known, so it cuts the segments
// the service cuts for an upload of that size. The result is
// byte-identical — under the render/parse fixed point — to
// ParseText(bytes.NewReader(data)), including error positions.
func ParseTextParallel(data []byte, workers int) (*Log, error) {
	return parseStreamed(data, StreamOptions{Workers: workers, Size: int64(len(data))})
}

// parseStreamed parses data through a StreamParser configured by opts.
func parseStreamed(data []byte, opts StreamOptions) (*Log, error) {
	sp := NewStreamParser(opts)
	_, _ = sp.Write(data) // fails only on a line too long, which Finish reports
	log, _, err := sp.Finish()
	return log, err
}

// shardResult is one chunk's parse outcome: the parser (whose log,
// orphan state, and bookkeeping feed the merge), the chunk bytes (for
// offset rebasing), the consumed line count, and any chunk-local error.
type shardResult struct {
	p     *parser
	chunk []byte
	lines int
	err   error
}

func parseShard(i int, chunk []byte, allowOrphan bool, onShard func(int, []byte) func(error)) *shardResult {
	var done func(error)
	if onShard != nil {
		done = onShard(i, chunk)
	}
	p := newParser(allowOrphan)
	lines, err := p.parseChunk(chunk)
	if done != nil {
		done(err)
	}
	return &shardResult{p: p, chunk: chunk, lines: lines, err: err}
}

// mergeShards combines per-chunk parse results, in chunk order, into a
// single log with sequential semantics. See the package comment at the
// top of this file for the invariants; DESIGN.md §15 documents them in
// full.
func mergeShards(shards []*shardResult) (*Log, error) {
	if len(shards) == 0 {
		return NewLog(), nil
	}

	// Error resolution first: sequential parsing stops at the first
	// failing line, so report the earliest-positioned failure — either
	// a shard's own parse error or an orphan DXT event row that no
	// earlier chunk left an open file trace for. Positions are rebased
	// from chunk-local to whole-input coordinates; shards preceding the
	// failure completed fully, so their line counts are exact.
	baseLine, baseOff := 0, int64(0)
	haveTrace := false
	for _, sh := range shards {
		if len(sh.p.orphans) > 0 && !haveTrace {
			return nil, posErr(baseLine+sh.p.orphanLine, baseOff+sh.p.orphanOff, errOrphanEvent)
		}
		if sh.err != nil {
			var pe *ParseError
			if errors.As(sh.err, &pe) {
				return nil, posErr(baseLine+pe.Line, baseOff+pe.Offset, pe.Err)
			}
			return nil, sh.err
		}
		if sh.p.dxtTrace != nil {
			haveTrace = true
		}
		baseLine += sh.lines
		baseOff += int64(len(sh.chunk))
	}

	// Count each trace's events across the shards, orphan rows
	// included, so a trace that spans cuts grows its event slice once
	// instead of once per shard. Orphans join the trace the earlier
	// shards left open, as in the merge below.
	need := map[uint64]int{}
	var open uint64
	for _, sh := range shards {
		need[open] += len(sh.p.orphans)
		for _, t := range sh.p.log.DXT {
			need[t.FileID] += len(t.Events)
		}
		if sh.p.dxtTrace != nil {
			open = sh.p.dxtTrace.FileID
		}
	}
	adopt := func(t *DXTFileTrace) {
		t.Events = slices.Grow(t.Events, need[t.FileID]-len(t.Events))
	}

	// Adopt the first shard's log wholesale and fold the rest in.
	merged := shards[0].p.log
	mountSet := make(map[string]struct{}, len(merged.Mounts)+4)
	for _, m := range merged.Mounts {
		mountSet[m.Point] = struct{}{}
	}
	dxtIdx := make(map[uint64]*DXTFileTrace, len(merged.DXT)+4)
	for _, t := range merged.DXT {
		adopt(t)
		dxtIdx[t.FileID] = t
	}
	cur := shards[0].p.dxtTrace

	for _, sh := range shards[1:] {
		sp := sh.p
		sl := sp.log

		// Orphan DXT state belongs to the trace the previous chunks
		// left open. Events keep their row order: after everything the
		// earlier chunks appended, before anything this chunk's own
		// headers append.
		if len(sp.orphans) > 0 {
			cur.Events = append(cur.Events, sp.orphans...)
		}
		if sp.orphanHostSet && cur != nil {
			cur.Hostname = sp.orphanHost
		}

		// Header: later chunks overwrite only the fields they
		// explicitly assigned (the bitmask distinguishes assignment
		// from defaults); metadata and names are last-writer-wins maps.
		if sp.headerSet&hdrVersion != 0 {
			merged.Header.Version = sl.Header.Version
		}
		if sp.headerSet&hdrExe != 0 {
			merged.Header.Exe = sl.Header.Exe
		}
		if sp.headerSet&hdrUID != 0 {
			merged.Header.UID = sl.Header.UID
		}
		if sp.headerSet&hdrJobID != 0 {
			merged.Header.JobID = sl.Header.JobID
		}
		if sp.headerSet&hdrStartTime != 0 {
			merged.Header.StartTime = sl.Header.StartTime
		}
		if sp.headerSet&hdrEndTime != 0 {
			merged.Header.EndTime = sl.Header.EndTime
		}
		if sp.headerSet&hdrNProcs != 0 {
			merged.Header.NProcs = sl.Header.NProcs
		}
		if sp.headerSet&hdrRunTime != 0 {
			merged.Header.RunTime = sl.Header.RunTime
		}
		for k, v := range sl.Header.Metadata {
			merged.Header.Metadata[k] = v
		}
		for id, name := range sl.Names {
			merged.Names[id] = name
		}

		// Mounts keep concatenated chunk order: explicit "# mount
		// entry:" rows append unconditionally (historical behavior),
		// implicit rows only while their point is unseen globally.
		for mi, m := range sl.Mounts {
			if !sp.mountKind[mi] {
				if _, dup := mountSet[m.Point]; dup {
					continue
				}
			}
			merged.Mounts = append(merged.Mounts, m)
			mountSet[m.Point] = struct{}{}
		}

		// Modules: adopt record pointers for unseen (file, rank) keys;
		// only records split across a cut — at most one per module per
		// boundary — pay a counter-map copy, with later chunks
		// overwriting like sequential re-assignment does.
		for name, sm := range sl.Modules {
			mm, ok := merged.Modules[name]
			if !ok {
				merged.Modules[name] = sm
				continue
			}
			for _, r := range sm.Records {
				dst := mm.lookup(r.FileID, r.Rank)
				if dst == nil {
					mm.Records = append(mm.Records, r)
					mm.index[recordKey{r.FileID, r.Rank}] = r
					continue
				}
				for k, v := range r.Counters {
					dst.Counters[k] = v
				}
				for k, v := range r.FCounters {
					dst.FCounters[k] = v
				}
			}
		}

		// DXT file traces in shard insertion order; hostnames only
		// overwrite when this chunk actually assigned one.
		for _, t := range sl.DXT {
			mt, ok := dxtIdx[t.FileID]
			if !ok {
				adopt(t)
				merged.DXT = append(merged.DXT, t)
				dxtIdx[t.FileID] = t
				continue
			}
			mt.Events = append(mt.Events, t.Events...)
			if sp.hostSet[t.FileID] {
				mt.Hostname = t.Hostname
			}
		}
		if sp.dxtTrace != nil {
			cur = dxtIdx[sp.dxtTrace.FileID]
		}
	}

	// Event ordering is applied once, after all chunks contributed, so
	// SortByStart's stable tie-breaking sees the same insertion order a
	// sequential parse would have produced.
	for _, t := range merged.DXT {
		t.SortByStart()
	}
	return merged, nil
}
