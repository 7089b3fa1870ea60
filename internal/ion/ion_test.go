package ion

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"ion/internal/expertsim"
	"ion/internal/issue"
	"ion/internal/llm"
	"ion/internal/prompt"
	"ion/internal/testutil"
)

const sampleCompletion = `### ANALYSIS STEPS
1. Counted 100 operations.
2. Found 90 small ones.

### ANALYSIS CODE
` + "```python\nimport pandas as pd\nprint(1)\n```" + `

### CONCLUSION
Most operations are small.
VERDICT: detected
`

func TestParseCompletion(t *testing.T) {
	d, err := ParseCompletion(issue.SmallIO, sampleCompletion)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Steps) != 2 || d.Steps[0] != "Counted 100 operations." {
		t.Errorf("steps = %#v", d.Steps)
	}
	if !strings.Contains(d.Code, "import pandas") || strings.Contains(d.Code, "```") {
		t.Errorf("code = %q", d.Code)
	}
	if d.Conclusion != "Most operations are small." {
		t.Errorf("conclusion = %q", d.Conclusion)
	}
	if d.Verdict != issue.VerdictDetected {
		t.Errorf("verdict = %q", d.Verdict)
	}
	if d.Title != issue.Title(issue.SmallIO) {
		t.Errorf("title = %q", d.Title)
	}
}

func TestParseCompletionErrors(t *testing.T) {
	cases := []struct {
		name    string
		content string
	}{
		{"no steps section", "### CONCLUSION\nok\nVERDICT: detected\n"},
		{"no code section", "### ANALYSIS STEPS\n1. x\n### CONCLUSION\nok\nVERDICT: detected\n"},
		{"no conclusion", "### ANALYSIS STEPS\n1. x\n### ANALYSIS CODE\ncode\n"},
		{"no verdict", "### ANALYSIS STEPS\n1. x\n### ANALYSIS CODE\ncode\n### CONCLUSION\nok\n"},
		{"bad verdict", "### ANALYSIS STEPS\n1. x\n### ANALYSIS CODE\ncode\n### CONCLUSION\nok\nVERDICT: maybe\n"},
		{"empty steps", "### ANALYSIS STEPS\n### ANALYSIS CODE\ncode\n### CONCLUSION\nok\nVERDICT: detected\n"},
		{"empty conclusion", "### ANALYSIS STEPS\n1. x\n### ANALYSIS CODE\ncode\n### CONCLUSION\nVERDICT: detected\n"},
	}
	for _, c := range cases {
		if _, err := ParseCompletion(issue.SmallIO, c.content); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestNewRequiresClient(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil client accepted")
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	log, err := testutil.Log("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Client: expertsim.New()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fw.AnalyzeLog(context.Background(), log, "ior-hard", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnoses) != len(issue.All) {
		t.Errorf("diagnoses = %d, want %d", len(rep.Diagnoses), len(issue.All))
	}
	if rep.Verdict(issue.SmallIO) != issue.VerdictDetected {
		t.Errorf("ior-hard small-io verdict = %s", rep.Verdict(issue.SmallIO))
	}
	if rep.Summary == "" {
		t.Error("summary missing")
	}
	if got := rep.Detected(); len(got) == 0 {
		t.Error("no detected issues on ior-hard")
	}
	ctxText := rep.ContextText()
	if !strings.Contains(ctxText, "[small-io]") || !strings.Contains(ctxText, "VERDICT:") {
		t.Errorf("context text malformed:\n%s", ctxText[:200])
	}
	// Token usage accounted.
	for id, d := range rep.Diagnoses {
		if d.Usage.Total() == 0 {
			t.Errorf("%s: no token usage recorded", id)
		}
	}
}

func TestAnalyzeIssueSubset(t *testing.T) {
	log, err := testutil.Log("ior-easy-1m-shared")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{
		Client:      expertsim.New(),
		Issues:      []issue.ID{issue.SmallIO, issue.Interface},
		SkipSummary: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fw.AnalyzeLog(context.Background(), log, "x", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnoses) != 2 {
		t.Errorf("diagnoses = %d, want 2", len(rep.Diagnoses))
	}
	if rep.Summary != "" {
		t.Error("summary should be skipped")
	}
}

func TestAnalyzeUnknownIssue(t *testing.T) {
	log, err := testutil.Log("ior-easy-1m-shared")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Client: expertsim.New(), Issues: []issue.ID{"bogus"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.AnalyzeLog(context.Background(), log, "x", t.TempDir()); err == nil {
		t.Error("unknown issue accepted")
	}
}

func TestAnalyzeFileFromDisk(t *testing.T) {
	log, err := testutil.Log("md-workbench")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/mdw.darshan"
	if err := log.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Client: expertsim.New(), SkipSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fw.AnalyzeFile(context.Background(), path, dir+"/csv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict(issue.Metadata) != issue.VerdictDetected {
		t.Errorf("md-workbench metadata verdict = %s", rep.Verdict(issue.Metadata))
	}
}

// countingClient wraps expertsim and counts concurrent completions.
type countingClient struct {
	inner   llm.Client
	calls   int32
	current int32
	peak    int32
}

func (c *countingClient) Name() string { return "counting" }
func (c *countingClient) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	atomic.AddInt32(&c.calls, 1)
	cur := atomic.AddInt32(&c.current, 1)
	for {
		p := atomic.LoadInt32(&c.peak)
		if cur <= p || atomic.CompareAndSwapInt32(&c.peak, p, cur) {
			break
		}
	}
	defer atomic.AddInt32(&c.current, -1)
	return c.inner.Complete(ctx, req)
}

func TestParallelBound(t *testing.T) {
	log, err := testutil.Log("ior-easy-2k-shared")
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingClient{inner: expertsim.New()}
	fw, err := New(Config{Client: cc, Parallel: 2, SkipSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.AnalyzeLog(context.Background(), log, "x", t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if cc.peak > 2 {
		t.Errorf("parallelism bound violated: peak %d > 2", cc.peak)
	}
	if int(cc.calls) != len(issue.All) {
		t.Errorf("calls = %d, want %d", cc.calls, len(issue.All))
	}
}

// failingClient errors on a specific issue.
type failingClient struct {
	inner llm.Client
	fail  issue.ID
}

func (c *failingClient) Name() string { return "failing" }
func (c *failingClient) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if issue.ID(req.Metadata[prompt.MetaIssue]) == c.fail {
		return llm.Completion{}, errors.New("backend exploded")
	}
	return c.inner.Complete(ctx, req)
}

func TestAnalyzePropagatesBackendError(t *testing.T) {
	log, err := testutil.Log("ior-easy-2k-shared")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Client: &failingClient{inner: expertsim.New(), fail: issue.SharedFile}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fw.AnalyzeLog(context.Background(), log, "x", t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "backend exploded") {
		t.Errorf("backend error not propagated: %v", err)
	}
}

func TestSession(t *testing.T) {
	log, err := testutil.Log("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	client := expertsim.New()
	fw, err := New(Config{Client: client, SkipSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fw.AnalyzeLog(context.Background(), log, "ior-hard", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(client, rep)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := s.Ask(context.Background(), "Why is the small I/O a problem here?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(answer, "Small I/O") {
		t.Errorf("answer off-topic: %s", answer)
	}
	if len(s.History()) != 2 {
		t.Errorf("history = %d messages, want 2", len(s.History()))
	}
	if _, err := s.Ask(context.Background(), "   "); err == nil {
		t.Error("empty question accepted")
	}

	// History keeps the last 8 of 10 turns.
	for i := 0; i < 9; i++ {
		if _, err := s.Ask(context.Background(), fmt.Sprintf("question %d about locks?", i)); err != nil {
			t.Fatal(err)
		}
	}
	h := s.History()
	if len(h) != 16 {
		t.Fatalf("history = %d messages, want 16 (8 turns)", len(h))
	}
	if h[0].Content != "question 1 about locks?" {
		t.Errorf("oldest kept question = %q, want question 1", h[0].Content)
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, &Report{}); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := NewSession(expertsim.New(), nil); err == nil {
		t.Error("nil report accepted")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	log, err := testutil.Log("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Client: expertsim.New(), SkipSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fw.AnalyzeLog(context.Background(), log, "ior-hard", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/report.json"
	if err := rep.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trace != rep.Trace || len(back.Diagnoses) != len(rep.Diagnoses) {
		t.Errorf("round trip lost structure: %d vs %d diagnoses", len(back.Diagnoses), len(rep.Diagnoses))
	}
	for id, d := range rep.Diagnoses {
		bd := back.Diagnoses[id]
		if bd == nil {
			t.Fatalf("%s missing after reload", id)
		}
		if bd.Verdict != d.Verdict || bd.Conclusion != d.Conclusion || len(bd.Steps) != len(d.Steps) {
			t.Errorf("%s changed through JSON", id)
		}
	}
	// A reloaded report drives a session like a fresh one.
	s, err := NewSession(expertsim.New(), back)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(context.Background(), "what about the misalignment?"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadJSONErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadJSON(dir + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(bad); err == nil {
		t.Error("corrupt file accepted")
	}
	wrongVer := dir + "/ver.json"
	if err := os.WriteFile(wrongVer, []byte(`{"version":99,"report":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(wrongVer); err == nil {
		t.Error("wrong version accepted")
	}
	empty := dir + "/empty.json"
	if err := os.WriteFile(empty, []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(empty); err == nil {
		t.Error("empty report accepted")
	}
}
