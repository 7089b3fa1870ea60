// Package expertsim implements a deterministic, offline simulation of
// the I/O-expert language model ION queries (the paper used GPT-4 via
// the OpenAI Assistants API). It consumes the exact prompts the ION
// Analyzer constructs, plans an issue-specific analysis program,
// executes it against the extracted CSV files (the Assistants
// code-interpreter analogue, backed by internal/analysis), and responds
// in the instructed output format: chain-of-thought steps, the analysis
// code, and a grounded conclusion with a verdict line.
//
// Substituting this model for GPT-4 keeps the entire ION pipeline —
// prompt construction, parallel fan-out, completion parsing, global
// summarization, and the interactive interface — identical and fully
// reproducible. A real endpoint can be swapped in through llm.OpenAI
// without touching the pipeline.
package expertsim

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"ion/internal/analysis"
	"ion/internal/extractor"
	"ion/internal/issue"
	"ion/internal/knowledge"
	"ion/internal/llm"
	"ion/internal/prompt"
)

// ModelName is reported in completions.
const ModelName = "ion-expertsim-1"

// envCacheSize bounds how many CSV directories a client keeps loaded.
// A directory is needed while one job's issues fan out (plus any shadow
// re-run of that job), so a few beyond the service's concurrent jobs
// suffice.
const envCacheSize = 8

// Client is the simulated expert model. It is safe for concurrent use.
type Client struct {
	// LoadDir loads extracted CSVs; tests may override it.
	LoadDir func(dir string) (*extractor.Output, error)

	mu   sync.Mutex
	envs map[string]*envEntry // at most envCacheSize, by recency
	tick uint64               // recency clock for envs
}

// envEntry is one CSV directory's analysis environment. The first
// request for the directory loads it; concurrent requests for the same
// directory wait on ready instead of loading it again, and requests
// for other directories do not wait at all.
type envEntry struct {
	ready chan struct{} // closed once env and err are set
	env   *analysis.Env
	err   error
	used  uint64 // Client.tick at the last request; guarded by Client.mu
}

// New returns a simulated expert client.
func New() *Client {
	return &Client{LoadDir: extractor.LoadDir, envs: map[string]*envEntry{}}
}

// Name implements llm.Client.
func (c *Client) Name() string { return "expertsim" }

// Complete implements llm.Client by dispatching on the request kind.
func (c *Client) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if err := ctx.Err(); err != nil {
		return llm.Completion{}, fmt.Errorf("expertsim: %w", err)
	}
	content := userContent(req)
	kind := req.Metadata[prompt.MetaKind]
	if kind == "" {
		kind = classify(content)
	}
	var (
		out string
		err error
	)
	switch kind {
	case prompt.KindDiagnosis:
		out, err = c.diagnose(ctx, req, content)
	case prompt.KindSummary:
		out, err = summarize(content)
	case prompt.KindChat:
		out, err = chat(content)
	default:
		return llm.Completion{}, fmt.Errorf("expertsim: cannot classify request (kind %q)", kind)
	}
	if err != nil {
		return llm.Completion{}, err
	}
	return llm.Completion{
		Content: out,
		Model:   ModelName,
		Usage: llm.Usage{
			PromptTokens:     llm.PromptTokens(req),
			CompletionTokens: llm.EstimateTokens(out),
		},
	}, nil
}

// userContent concatenates the user-role messages.
func userContent(req llm.Request) string {
	var b strings.Builder
	for _, m := range req.Messages {
		if m.Role == llm.RoleUser {
			b.WriteString(m.Content)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// classify infers the request kind from prompt structure when metadata
// is absent (e.g. replayed or hand-written requests).
func classify(content string) string {
	switch {
	case strings.Contains(content, "# Diagnosis request"):
		return prompt.KindDiagnosis
	case strings.Contains(content, "# Summarization request"):
		return prompt.KindSummary
	case strings.Contains(content, "# Interactive question"):
		return prompt.KindChat
	}
	return ""
}

var issueIDRe = regexp.MustCompile(`(?m)^Issue-ID:\s*([a-z-]+)\s*$`)

// diagnose runs the per-issue analysis plan.
func (c *Client) diagnose(ctx context.Context, req llm.Request, content string) (string, error) {
	id := issue.ID(req.Metadata[prompt.MetaIssue])
	if id == "" {
		if m := issueIDRe.FindStringSubmatch(content); m != nil {
			id = issue.ID(m[1])
		}
	}
	if !issue.Valid(id) {
		return "", fmt.Errorf("expertsim: diagnosis prompt does not identify a known issue (got %q)", id)
	}
	env, err := c.envFor(ctx, req, content)
	if err != nil {
		return "", err
	}
	p, err := planFor(id, env)
	if err != nil {
		return "", fmt.Errorf("expertsim: planning %s: %w", id, err)
	}
	return p.render(), nil
}

// envFor resolves the analysis environment for the request's CSV
// directory, loading it at most once however many requests ask
// concurrently.
func (c *Client) envFor(ctx context.Context, req llm.Request, content string) (*analysis.Env, error) {
	dir := req.Metadata[prompt.MetaCSVDir]
	if dir == "" && len(req.Files) > 0 {
		dir = filepath.Dir(req.Files[0])
	}
	if dir == "" {
		return nil, fmt.Errorf("expertsim: request attaches no CSV files and names no CSV directory")
	}
	hyper := parseHyper(content)
	key := dir + "|" + fmt.Sprint(hyper)
	c.mu.Lock()
	e, loaded := c.envs[key]
	if !loaded {
		e = &envEntry{ready: make(chan struct{})}
		c.envs[key] = e
	}
	c.tick++
	e.used = c.tick
	c.evictLocked()
	c.mu.Unlock()

	if loaded {
		select {
		case <-e.ready:
			return e.env, e.err
		case <-ctx.Done():
			return nil, fmt.Errorf("expertsim: waiting for trace CSVs: %w", ctx.Err())
		}
	}
	defer close(e.ready)
	out, err := c.LoadDir(dir)
	if err != nil {
		e.err = fmt.Errorf("expertsim: loading trace CSVs: %w", err)
		// Forget the failure so a later request retries the load.
		c.mu.Lock()
		if c.envs[key] == e {
			delete(c.envs, key)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	e.env = analysis.NewEnv(out, hyper)
	return e.env, nil
}

// evictLocked drops the least recently used directories beyond
// envCacheSize. Requests already holding an evicted entry still get its
// result; the next request for that directory loads it again.
func (c *Client) evictLocked() {
	for len(c.envs) > envCacheSize {
		var oldest string
		for k, e := range c.envs {
			if oldest == "" || e.used < c.envs[oldest].used {
				oldest = k
			}
		}
		delete(c.envs, oldest)
	}
}

var hyperRe = regexp.MustCompile(`(?m)^- (lustre_stripe_size|rpc_size|mem_alignment) = (\d+) bytes$`)

// parseHyper reads the system hyper-parameters from the prompt; the
// prompt is the interface, so the simulated expert honors exactly what
// it was told.
func parseHyper(content string) knowledge.Hyperparams {
	h := knowledge.DefaultHyperparams()
	for _, m := range hyperRe.FindAllStringSubmatch(content, -1) {
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil || v <= 0 {
			continue
		}
		switch m[1] {
		case "lustre_stripe_size":
			h.StripeSize = v
		case "rpc_size":
			h.RPCSize = v
		case "mem_alignment":
			h.MemAlignment = v
		}
	}
	return h
}

// plan is one completed diagnosis: the three output sections.
type plan struct {
	Steps      []string
	Code       string
	Conclusion string
	Verdict    issue.Verdict
}

// render produces the completion text in the instructed format.
func (p plan) render() string {
	var b strings.Builder
	b.WriteString(prompt.SectionSteps + "\n")
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "%d. %s\n", i+1, s)
	}
	b.WriteString("\n" + prompt.SectionCode + "\n")
	b.WriteString("```python\n")
	b.WriteString(strings.TrimSpace(p.Code))
	b.WriteString("\n```\n")
	b.WriteString("\n" + prompt.SectionConclusion + "\n")
	b.WriteString(strings.TrimSpace(p.Conclusion))
	fmt.Fprintf(&b, "\n%s %s\n", prompt.VerdictPrefix, p.Verdict)
	return b.String()
}

// planFor dispatches to the per-issue planner.
func planFor(id issue.ID, env *analysis.Env) (plan, error) {
	switch id {
	case issue.SmallIO:
		return planSmallIO(env)
	case issue.MisalignedIO:
		return planAlignment(env)
	case issue.RandomAccess:
		return planRandom(env)
	case issue.SharedFile:
		return planSharedFile(env)
	case issue.LoadImbalance:
		return planImbalance(env)
	case issue.Metadata:
		return planMetadata(env)
	case issue.Interface:
		return planInterface(env)
	case issue.CollectiveIO:
		return planCollective(env)
	case issue.TimeImbalance:
		return planTimeImbalance(env)
	}
	return plan{}, fmt.Errorf("expertsim: no planner for issue %q", id)
}
