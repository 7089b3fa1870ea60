package expertsim

import (
	"context"
	"strings"

	"ion/internal/issue"
	"ion/internal/llm"
	"ion/internal/prompt"
)

// Contradictor wraps an inner llm.Client and rewrites the verdict line
// of every diagnosis completion to a forced verdict, leaving the steps,
// code, and conclusion untouched so the completion still parses. It
// exists to exercise the diagnosis-quality observatory: a wrapped
// expertsim produces plausible, well-formed diagnoses whose verdicts
// systematically contradict the ground-truth labels of the bundled
// workloads, and (via shadow re-runs against a different inner client)
// flip cached verdicts. Drift-testing aid only — never wired into
// production paths.
type Contradictor struct {
	// Inner produces the completions to rewrite.
	Inner llm.Client
	// Force is the verdict every diagnosis is rewritten to state
	// (defaults to not-detected, the maximally "LGTM" drift).
	Force issue.Verdict
}

// Name implements llm.Client.
func (c *Contradictor) Name() string { return "contradict(" + c.Inner.Name() + ")" }

// Complete implements llm.Client: diagnosis completions get their
// final VERDICT line rewritten; everything else passes through.
func (c *Contradictor) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	comp, err := c.Inner.Complete(ctx, req)
	if err != nil {
		return comp, err
	}
	if req.Metadata[prompt.MetaKind] != prompt.KindDiagnosis {
		return comp, nil
	}
	force := c.Force
	if force == "" {
		force = issue.VerdictNotDetected
	}
	lines := strings.Split(strings.TrimRight(comp.Content, "\n"), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.HasPrefix(lines[i], prompt.VerdictPrefix) {
			lines[i] = prompt.VerdictPrefix + " " + string(force)
			break
		}
	}
	comp.Content = strings.Join(lines, "\n") + "\n"
	return comp, nil
}
