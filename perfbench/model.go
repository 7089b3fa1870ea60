package main

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ion/internal/llm"
	"ion/internal/prompt"
)

// standIn puts a deterministic model wait in front of expertsim: the
// completion is computed, then held for waitModel.of(usage), as a
// hosted model would take that long to answer. It also keeps the
// per-job call accounting the end-to-end metrics need.
type standIn struct {
	inner llm.Client
	wait  waitModel

	mu   sync.Mutex
	jobs map[string]*jobCalls // by llm.JobIDFrom; "" for chat
}

// jobCalls is the completions attributed to one job id.
type jobCalls struct {
	calls, tokens int
	// maxDiagnosis plus summary is the model wait on the job's
	// critical path: the slowest diagnosis, then the summary.
	maxDiagnosis, summary time.Duration
}

func newStandIn(inner llm.Client, wait waitModel) *standIn {
	return &standIn{inner: inner, wait: wait, jobs: map[string]*jobCalls{}}
}

func (m *standIn) Name() string { return m.inner.Name() }

func (m *standIn) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	comp, err := m.inner.Complete(ctx, req)
	if err != nil {
		return comp, err
	}
	d := m.wait.of(comp.Usage)
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
		return llm.Completion{}, ctx.Err()
	}
	job := llm.JobIDFrom(ctx)
	m.mu.Lock()
	jc := m.jobs[job]
	if jc == nil {
		jc = &jobCalls{}
		m.jobs[job] = jc
	}
	jc.calls++
	jc.tokens += comp.Usage.Total()
	switch req.Metadata[prompt.MetaKind] {
	case prompt.KindDiagnosis:
		jc.maxDiagnosis = max(jc.maxDiagnosis, d)
	case prompt.KindSummary:
		jc.summary += d
	}
	m.mu.Unlock()
	return comp, nil
}

// calls returns a copy of the per-job accounting.
func (m *standIn) calls() map[string]jobCalls {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]jobCalls, len(m.jobs))
	for job, jc := range m.jobs {
		out[job] = *jc
	}
	return out
}

// timedClient is a harness wrapper placed between two layers of the
// client chain: it records one span per call, parented on the wrapper
// around it, carrying the job id and prompt kind.
type timedClient struct {
	inner    llm.Client
	tr       *tracer
	name     string
	inflight *atomic.Int64 // outermost wrapper only
	maxIn    *atomic.Int64
}

func (c *timedClient) Name() string { return c.inner.Name() }

func (c *timedClient) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if c.inflight != nil {
		n := c.inflight.Add(1)
		for {
			cur := c.maxIn.Load()
			if n <= cur || c.maxIn.CompareAndSwap(cur, n) {
				break
			}
		}
		defer c.inflight.Add(-1)
	}
	id := c.tr.begin(c.name, llm.JobIDFrom(ctx), req.Metadata[prompt.MetaKind], spanFrom(ctx))
	comp, err := c.inner.Complete(withSpan(ctx, id), req)
	c.tr.end(id, "", int64(comp.Usage.PromptTokens), int64(comp.Usage.CompletionTokens))
	return comp, err
}

// isShadow reports whether a ledger job id tags a shadow re-run.
func isShadow(job string) bool { return strings.HasSuffix(job, "-shadow") }
