package main

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"ion/internal/obs"
)

// span is one timed interval recorded by the harness, or converted
// from a job's service timeline. Spans of one job share its id.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"`
	Kind   string        `json:"kind,omitempty"` // prompt kind, HTTP route or shard label
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	// Part marks a sub-span that partitions its parent's own work
	// (parse shards, extract modules): it is not subtracted from the
	// parent's self time.
	Part bool `json:"part,omitempty"`
	// N and M are counts the span carries: bytes, or prompt and
	// completion tokens.
	N int64 `json:"n,omitempty"`
	M int64 `json:"m,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the harness's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, job, kind string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Job: job, Kind: kind, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id, optionally setting its job and counts.
func (t *tracer) end(id int, job string, n, m int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	if job != "" {
		s.Job = job
	}
	if n != 0 {
		s.N = n
	}
	if m != 0 {
		s.M = m
	}
}

// time runs fn inside a span.
func (t *tracer) time(name, job string, fn func()) {
	id := t.begin(name, job, "", -1)
	fn()
	t.end(id, "", 0, 0)
}

// add appends finished spans (a converted service timeline), giving
// them fresh ids and remapping their parents.
func (t *tracer) add(spans []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

type spanKey struct{}

// withSpan carries the enclosing harness span id through a call chain,
// so wrappers nested inside each other record their parent.
func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		return id
	}
	return -1
}

// partSpans names the service spans that partition their parent's work.
var partSpans = map[string]bool{"parse_shard": true, "extract_module": true}

// fromTimeline converts a job's service timeline into spans on the
// tracer's clock, ids local to the slice (tracer.add remaps them).
func fromTimeline(tl obs.Timeline, epoch time.Time) []span {
	idx := map[int]int{}
	out := make([]span, 0, len(tl.Spans))
	for _, r := range tl.Spans {
		idx[r.ID] = len(out)
		start := r.Start.Sub(epoch)
		s := span{ID: len(out), Parent: -1, Name: r.Name, Job: tl.Trace, Start: start,
			End: start + time.Duration(r.Seconds*float64(time.Second)), Part: partSpans[r.Name]}
		s.Kind = r.Attrs["issue"]
		out = append(out, s)
	}
	for i, r := range tl.Spans {
		if p, ok := idx[r.Parent]; ok && r.Parent != 0 {
			out[i].Parent = p
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children, so time nested spans account
// for is never counted twice. Part sub-spans are not subtracted; their
// work is the parent's own.
func selfTimes(spans []span) []time.Duration {
	at := make(map[int]int, len(spans)) // span id → index
	for i, s := range spans {
		at[s.ID] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := at[s.Parent]; ok && s.Parent >= 0 && !s.Part {
			children[p] = append(children[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]time.Duration
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		out[i] = s.dur() - union(ivs)
	}
	return out
}

// union is the total length covered by a set of intervals.
func union(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, k int) bool { return ivs[i][0] < ivs[k][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curB {
			if iv[1] > curB {
				curB = iv[1]
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = iv[0], iv[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// stragglers returns, per job, the analyze span's duration minus the
// median duration of its diagnose children: the fan-out waits for its
// slowest issue, and this is how much longer that took than a typical
// one.
func stragglers(spans []span) []time.Duration {
	kids := map[int][]time.Duration{}
	for _, s := range spans {
		if s.Name == "diagnose" && s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.dur())
		}
	}
	var out []time.Duration
	for _, s := range spans {
		d := kids[s.ID]
		if s.Name != "analyze" || len(d) == 0 {
			continue
		}
		sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
		med := d[len(d)/2]
		if len(d)%2 == 0 {
			med = (d[len(d)/2-1] + d[len(d)/2]) / 2
		}
		out = append(out, s.dur()-med)
	}
	return out
}
