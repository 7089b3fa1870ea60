// Package ion implements the I/O Navigator framework: the Extractor →
// Analyzer pipeline of the paper. Analyze unpacks a Darshan trace into
// per-module CSVs, fans one prompt per I/O issue out to the language
// model in parallel, parses each completion into its reasoning steps /
// analysis code / conclusion, asks the model for a global summary, and
// exposes an interactive session for follow-up questions.
package ion

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ion/internal/darshan"
	"ion/internal/extractor"
	"ion/internal/issue"
	"ion/internal/knowledge"
	"ion/internal/llm"
	"ion/internal/obs"
	"ion/internal/prompt"
)

// Config assembles a Framework.
type Config struct {
	// Client is the language model backend (expertsim, OpenAI, replay).
	Client llm.Client
	// KB is the issue knowledge base; nil uses the default base with
	// hyperparameters derived from the trace.
	KB *knowledge.Base
	// Issues restricts the analysis to a subset; nil analyzes all.
	Issues []issue.ID
	// Parallel bounds concurrent prompts; 0 means one goroutine per
	// issue (the paper sends all prompts in parallel).
	Parallel int
	// SkipSummary disables the global summarization step.
	SkipSummary bool
}

// Framework is the assembled ION instance.
type Framework struct {
	cfg Config
}

// New returns a Framework. The Client is required.
func New(cfg Config) (*Framework, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("ion: Config.Client is required")
	}
	return &Framework{cfg: cfg}, nil
}

// IssueDiagnosis is the parsed completion for one issue.
type IssueDiagnosis struct {
	Issue      issue.ID
	Title      string
	Steps      []string
	Code       string
	Conclusion string
	Verdict    issue.Verdict
	Usage      llm.Usage
	// Raw is the unparsed completion, kept for the interactive session.
	Raw string
}

// Report is the full ION output for one trace.
type Report struct {
	// Trace identifies the analyzed input (log path or workload name).
	Trace string
	// Header echoes the job-level facts.
	Header darshan.Header
	// Diagnoses maps issue id to its parsed diagnosis.
	Diagnoses map[issue.ID]*IssueDiagnosis
	// Order lists issue ids in the order they were analyzed.
	Order []issue.ID
	// Summary is the global diagnosis summary.
	Summary string
	// CSVDir is the extraction directory used.
	CSVDir string
	// Model names the backend that produced the diagnosis.
	Model string
}

// Verdict returns the verdict for an issue (not-detected when absent).
func (r *Report) Verdict(id issue.ID) issue.Verdict {
	if d, ok := r.Diagnoses[id]; ok {
		return d.Verdict
	}
	return issue.VerdictNotDetected
}

// Detected lists the issues with a detected verdict, in analysis order.
func (r *Report) Detected() []issue.ID {
	var out []issue.ID
	for _, id := range r.Order {
		if r.Verdict(id) == issue.VerdictDetected {
			out = append(out, id)
		}
	}
	return out
}

// Mitigated lists issues found present but neutralized.
func (r *Report) Mitigated() []issue.ID {
	var out []issue.ID
	for _, id := range r.Order {
		if r.Verdict(id) == issue.VerdictMitigated {
			out = append(out, id)
		}
	}
	return out
}

// ContextText renders the report as the context block chat prompts
// embed: one "[id] Title" section per issue with conclusion and steps.
func (r *Report) ContextText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace: %s (nprocs=%d, runtime=%.3fs)\n\n", r.Trace, r.Header.NProcs, r.Header.RunTime)
	for _, id := range r.Order {
		d := r.Diagnoses[id]
		if d == nil {
			continue
		}
		fmt.Fprintf(&b, "[%s] %s\n", id, d.Title)
		fmt.Fprintf(&b, "VERDICT: %s\n", d.Verdict)
		b.WriteString(strings.TrimSpace(d.Conclusion))
		b.WriteString("\n")
		for i, s := range d.Steps {
			fmt.Fprintf(&b, "  step %d: %s\n", i+1, s)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// AnalyzeLog runs the full pipeline on an in-memory Darshan log,
// extracting CSVs into workDir.
func (f *Framework) AnalyzeLog(ctx context.Context, log *darshan.Log, trace, workDir string) (*Report, error) {
	ectx, span := obs.StartSpan(ctx, "extract")
	out, err := extractor.ExtractToDirContext(ectx, log, workDir)
	span.SetError(err)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("ion: extracting trace: %w", err)
	}
	return f.analyze(ctx, out, trace, AnalyzeOptions{})
}

// AnalyzeFile runs the full pipeline on a Darshan log file.
func (f *Framework) AnalyzeFile(ctx context.Context, logPath, workDir string) (*Report, error) {
	ectx, span := obs.StartSpan(ctx, "extract")
	out, err := extractor.ExtractFileContext(ectx, logPath, workDir)
	span.SetError(err)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("ion: %w", err)
	}
	return f.analyze(ctx, out, logPath, AnalyzeOptions{})
}

// AnalyzeExtracted runs the Analyzer on already-extracted CSVs.
func (f *Framework) AnalyzeExtracted(ctx context.Context, out *extractor.Output, trace string) (*Report, error) {
	return f.analyze(ctx, out, trace, AnalyzeOptions{})
}

// AnalyzeOptions tunes one analysis run without rebuilding the
// Framework — the semantic cache's conditioning knob.
type AnalyzeOptions struct {
	// Retrieved maps issue ids to retrieved context from a similar
	// prior diagnosis, injected into that issue's prompt so the model
	// confirms or adjusts instead of diagnosing from scratch. Every
	// issue is still asked.
	Retrieved map[issue.ID]string
}

// AnalyzeExtractedOpts is AnalyzeExtracted with per-run options.
func (f *Framework) AnalyzeExtractedOpts(ctx context.Context, out *extractor.Output, trace string, opts AnalyzeOptions) (*Report, error) {
	return f.analyze(ctx, out, trace, opts)
}

func (f *Framework) analyze(ctx context.Context, out *extractor.Output, trace string, opts AnalyzeOptions) (*Report, error) {
	kb := f.cfg.KB
	if kb == nil {
		kb = knowledge.NewBase(knowledge.FromExtract(out))
	}
	builder := prompt.NewBuilder(kb)

	issues := f.cfg.Issues
	if len(issues) == 0 {
		issues = kb.Issues()
	}
	for _, id := range issues {
		if !issue.Valid(id) {
			return nil, fmt.Errorf("ion: unknown issue %q requested", id)
		}
	}

	report := &Report{
		Trace:     trace,
		Header:    out.Header,
		Diagnoses: map[issue.ID]*IssueDiagnosis{},
		Order:     append([]issue.ID(nil), issues...),
		Model:     f.cfg.Client.Name(),
	}
	if dir, ok := firstDir(out); ok {
		report.CSVDir = dir
	}

	// Fan the per-issue prompts out in parallel, as the paper does.
	limit := f.cfg.Parallel
	if limit <= 0 || limit > len(issues) {
		limit = len(issues)
	}
	actx, analyzeSpan := obs.StartSpan(ctx, "analyze")
	logger := obs.LoggerFrom(ctx)
	sem := make(chan struct{}, limit)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, id := range issues {
		id := id
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ictx, span := obs.StartSpan(actx, "diagnose", obs.L("issue", string(id)))
			diag, err := f.diagnoseOne(ictx, builder, id, out, opts.Retrieved[id])
			span.SetError(err)
			span.End()
			if err != nil {
				logger.Warn("issue diagnosis failed", "issue", id, "err", err)
			} else {
				logger.Debug("issue diagnosed", "issue", id, "verdict", diag.Verdict,
					"tokens", diag.Usage.Total())
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			report.Diagnoses[id] = diag
		}()
	}
	wg.Wait()
	analyzeSpan.SetError(firstErr)
	analyzeSpan.End()
	if firstErr != nil {
		return nil, firstErr
	}

	if !f.cfg.SkipSummary {
		conclusions := map[issue.ID]string{}
		for id, d := range report.Diagnoses {
			conclusions[id] = d.Conclusion + "\n" + prompt.VerdictPrefix + " " + string(d.Verdict)
		}
		sreq := builder.Summary(conclusions)
		sctx, span := obs.StartSpan(ctx, "summarize")
		comp, err := f.cfg.Client.Complete(sctx, sreq)
		span.SetError(err)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("ion: summarization: %w", err)
		}
		report.Summary = comp.Content
	}
	return report, nil
}

func (f *Framework) diagnoseOne(ctx context.Context, builder *prompt.Builder, id issue.ID, out *extractor.Output, retrieved string) (*IssueDiagnosis, error) {
	req, err := builder.DiagnosisConditioned(id, out, retrieved)
	if err != nil {
		return nil, fmt.Errorf("ion: building %s prompt: %w", id, err)
	}
	comp, err := f.cfg.Client.Complete(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("ion: completing %s diagnosis: %w", id, err)
	}
	diag, err := ParseCompletion(id, comp.Content)
	if err != nil {
		return nil, fmt.Errorf("ion: parsing %s completion: %w", id, err)
	}
	diag.Usage = comp.Usage
	return diag, nil
}

// ParseCompletion splits a diagnosis completion into its sections and
// verdict per the instructed output format.
func ParseCompletion(id issue.ID, content string) (*IssueDiagnosis, error) {
	d := &IssueDiagnosis{Issue: id, Title: issue.Title(id), Raw: content}

	stepsBody, ok := section(content, prompt.SectionSteps, prompt.SectionCode)
	if !ok {
		return nil, fmt.Errorf("completion lacks %q section", prompt.SectionSteps)
	}
	for _, line := range strings.Split(stepsBody, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Strip "N." list markers.
		if i := strings.Index(line, ". "); i > 0 && i <= 3 && isDigits(line[:i]) {
			line = line[i+2:]
		}
		d.Steps = append(d.Steps, line)
	}
	if len(d.Steps) == 0 {
		return nil, fmt.Errorf("completion has no analysis steps")
	}

	codeBody, ok := section(content, prompt.SectionCode, prompt.SectionConclusion)
	if !ok {
		return nil, fmt.Errorf("completion lacks %q section", prompt.SectionCode)
	}
	d.Code = stripFence(codeBody)

	conclBody, ok := section(content, prompt.SectionConclusion, "")
	if !ok {
		return nil, fmt.Errorf("completion lacks %q section", prompt.SectionConclusion)
	}
	verdict, rest, err := extractVerdict(conclBody)
	if err != nil {
		return nil, err
	}
	d.Verdict = verdict
	d.Conclusion = strings.TrimSpace(rest)
	if d.Conclusion == "" {
		return nil, fmt.Errorf("completion has an empty conclusion")
	}
	return d, nil
}

// section returns the text between the `from` marker and the `to`
// marker (or end of content when to is empty).
func section(content, from, to string) (string, bool) {
	i := strings.Index(content, from)
	if i < 0 {
		return "", false
	}
	body := content[i+len(from):]
	if to != "" {
		j := strings.Index(body, to)
		if j < 0 {
			return "", false
		}
		body = body[:j]
	}
	return strings.TrimSpace(body), true
}

// stripFence removes a surrounding ```python fence if present.
func stripFence(s string) string {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "```") {
		if i := strings.Index(s, "\n"); i >= 0 {
			s = s[i+1:]
		}
		if j := strings.LastIndex(s, "```"); j >= 0 {
			s = s[:j]
		}
	}
	return strings.TrimSpace(s)
}

// extractVerdict pulls the final "VERDICT: x" line out of a conclusion.
func extractVerdict(body string) (issue.Verdict, string, error) {
	lines := strings.Split(body, "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		line := strings.TrimSpace(lines[i])
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, prompt.VerdictPrefix) {
			return "", "", fmt.Errorf("conclusion does not end with a %q line (got %q)", prompt.VerdictPrefix, line)
		}
		v := issue.Verdict(strings.TrimSpace(strings.TrimPrefix(line, prompt.VerdictPrefix)))
		switch v {
		case issue.VerdictDetected, issue.VerdictMitigated, issue.VerdictNotDetected:
			return v, strings.Join(lines[:i], "\n"), nil
		}
		return "", "", fmt.Errorf("unknown verdict %q", v)
	}
	return "", "", fmt.Errorf("empty conclusion section")
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func firstDir(out *extractor.Output) (string, bool) {
	var paths []string
	for _, p := range out.Paths {
		paths = append(paths, p)
	}
	if len(paths) == 0 {
		return "", false
	}
	sort.Strings(paths)
	p := paths[0]
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i], true
	}
	return "", false
}
