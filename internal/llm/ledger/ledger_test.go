package ledger

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ion/internal/journal"
	"ion/internal/llm"
	"ion/internal/obs"
	"ion/internal/prompt"
)

func testStore(t *testing.T, opts StoreOptions) *Store {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "ledger.jsonl")
	}
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func entry(id, job, backend string) Entry {
	return Entry{
		ID: id, Job: job, Backend: backend, Model: "m",
		PromptSHA: strings.Repeat("a", 64), TokensIn: 100, TokensOut: 50,
		Outcome: "ok", CostUSD: 0.001, Time: time.Now().UTC(),
	}
}

func TestPriceEstimate(t *testing.T) {
	p := DefaultPrices()
	got := p.Estimate("gpt-4o", 1_000_000, 1_000_000)
	if got != 12.50 {
		t.Fatalf("gpt-4o 1M/1M = %v, want 12.50", got)
	}
	// Unknown models use the "*" fallback.
	if got := p.Estimate("ion-expertsim-1", 1_000_000, 0); got != 0.50 {
		t.Fatalf("fallback estimate = %v, want 0.50", got)
	}
	// No fallback, unknown model: free but accounted.
	if got := (PriceTable{"x": {InPerM: 1}}).Estimate("y", 1000, 1000); got != 0 {
		t.Fatalf("no-fallback estimate = %v, want 0", got)
	}
}

func TestParsePriceTable(t *testing.T) {
	raw := []byte(`{"m1": {"in_per_m": 1, "out_per_m": 2}}`)
	pt, err := ParsePriceTable(raw)
	if err != nil || pt["m1"].OutPerM != 2 {
		t.Fatalf("raw form: %v %+v", err, pt)
	}
	wrapped := []byte(`{"prices": {"m2": {"in_per_m": 3, "out_per_m": 4}}}`)
	pt, err = ParsePriceTable(wrapped)
	if err != nil || pt["m2"].InPerM != 3 {
		t.Fatalf("wrapped form: %v %+v", err, pt)
	}
	for _, bad := range []string{`[]`, `{}`, `{"": {"in_per_m": 1}}`, `{"m": {"in_per_m": -1}}`} {
		if _, err := ParsePriceTable([]byte(bad)); err == nil {
			t.Fatalf("ParsePriceTable(%s) accepted invalid input", bad)
		}
	}
}

func TestStoreAppendAndFilter(t *testing.T) {
	st := testStore(t, StoreOptions{})
	for i := 0; i < 5; i++ {
		job := "job-a"
		backend := "expertsim"
		if i%2 == 1 {
			job, backend = "job-b", "openai"
		}
		if err := st.Append(entry(fmt.Sprintf("e-%d", i), job, backend)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := len(st.Entries(Filter{})); got != 5 {
		t.Fatalf("Entries = %d, want 5", got)
	}
	if got := len(st.Entries(Filter{Job: "job-a"})); got != 3 {
		t.Fatalf("job-a entries = %d, want 3", got)
	}
	if got := len(st.Entries(Filter{Backend: "openai"})); got != 2 {
		t.Fatalf("openai entries = %d, want 2", got)
	}
	if got := len(st.Entries(Filter{Limit: 2})); got != 2 {
		t.Fatalf("limited entries = %d, want 2", got)
	}
	// Newest first.
	if st.Entries(Filter{})[0].ID != "e-4" {
		t.Fatalf("Entries not newest-first: %v", st.Entries(Filter{})[0].ID)
	}
	// Tail is oldest first.
	tail := st.Tail(3)
	if len(tail) != 3 || tail[0].ID != "e-2" || tail[2].ID != "e-4" {
		t.Fatalf("Tail order wrong: %+v", tail)
	}
	sum := st.SumJob("job-a")
	if sum.Calls != 3 || sum.TokensIn != 300 || sum.TokensOut != 150 {
		t.Fatalf("SumJob = %+v", sum)
	}
}

// TestTotalsCountEveryCall: the lifetime totals count every entry
// appended, evicted and superseded ones included, and a restart
// re-seeds them from every line the journal replays.
func TestTotalsCountEveryCall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	st := testStore(t, StoreOptions{Path: path})
	for i := 0; i <= maxEntries; i++ {
		st.Append(entry(fmt.Sprintf("e-%d", i), "j", "b"))
	}
	st.Append(entry(fmt.Sprintf("e-%d", maxEntries), "j", "b")) // re-journaled: supersedes
	if tot := st.Totals(); tot.Calls != maxEntries+2 || tot.Entries != maxEntries || tot.Evicted != 1 {
		t.Fatalf("Totals = %+v, want %d calls, %d entries, 1 evicted", tot, maxEntries+2, maxEntries)
	}
	st.Close()

	st2 := testStore(t, StoreOptions{Path: path})
	if tot := st2.Totals(); tot.Calls != maxEntries+2 || tot.Entries != maxEntries || tot.TokensIn != 100*(maxEntries+2) {
		t.Fatalf("replayed Totals = %+v, want every journaled line counted", tot)
	}
}

func TestHealthScorer(t *testing.T) {
	h := newHealthScorer()
	now := time.Now()
	// Below the sample floor: perfectly healthy.
	h.observe("b", 0.1, "ok", now)
	snap := h.Snapshot(now)
	if len(snap) != 1 || snap[0].Score != 1 {
		t.Fatalf("below floor: %+v", snap)
	}
	// All errors: score 0.3, below the 0.5 alert threshold.
	for i := 0; i < 20; i++ {
		h.observe("bad", 0.1, "error", now)
	}
	for _, bh := range h.Snapshot(now) {
		if bh.Backend == "bad" {
			if bh.Score >= 0.5 {
				t.Fatalf("all-error backend score = %v, want < 0.5", bh.Score)
			}
			if bh.ErrorRate != 1 {
				t.Fatalf("error rate = %v, want 1", bh.ErrorRate)
			}
		}
	}
	// Healthy traffic stays healthy.
	for i := 0; i < 20; i++ {
		h.observe("good", 0.1, "ok", now)
	}
	for _, bh := range h.Snapshot(now) {
		if bh.Backend == "good" && bh.Score != 1 {
			t.Fatalf("healthy backend score = %v, want 1", bh.Score)
		}
	}
	// Latency regression: baseline 0.1s, recent 1.0s → penalty.
	for i := 0; i < 32; i++ {
		h.observe("slow", 0.1, "ok", now)
	}
	var score float64
	for i := 0; i < 32; i++ {
		score = h.observe("slow", 1.0, "ok", now)
	}
	if score >= 1 || score < 0.7 {
		t.Fatalf("latency-regressed score = %v, want in [0.7, 1)", score)
	}
}

// fakeClient counts calls and returns canned completions or errors.
type fakeClient struct {
	calls int
	fail  error
}

func (f *fakeClient) Name() string { return "fake" }
func (f *fakeClient) Complete(_ context.Context, req llm.Request) (llm.Completion, error) {
	f.calls++
	if f.fail != nil {
		return llm.Completion{}, f.fail
	}
	return llm.Completion{
		Content: "the answer",
		Model:   req.Model,
		Usage:   llm.Usage{PromptTokens: 10, CompletionTokens: 20},
	}, nil
}

func testReq() llm.Request {
	return llm.Request{
		Model:    "gpt-4o",
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "diagnose this"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindDiagnosis, prompt.MetaIssue: "random-access"},
	}
}

func TestWrapRecordsEntries(t *testing.T) {
	st := testStore(t, StoreOptions{})
	reg := obs.NewRegistry()
	c := Wrap(&fakeClient{}, st, WrapOptions{Registry: reg})
	if c.Name() != "fake" {
		t.Fatalf("Name = %q, want fake", c.Name())
	}
	ctx := llm.WithAttempt(llm.WithJobID(context.Background(), "job-42"), 2)
	if _, err := c.Complete(ctx, testReq()); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	ents := st.Entries(Filter{})
	if len(ents) != 1 {
		t.Fatalf("entries = %d, want 1", len(ents))
	}
	e := ents[0]
	if e.Job != "job-42" || e.Attempt != 2 {
		t.Fatalf("provenance not recorded: %+v", e)
	}
	if e.Template != "diagnosis" || e.Issue != "random-access" {
		t.Fatalf("template/issue not recorded: %+v", e)
	}
	if e.Backend != "fake" || e.Model != "gpt-4o" || e.Outcome != "ok" {
		t.Fatalf("call identity wrong: %+v", e)
	}
	if e.TokensIn != 10 || e.TokensOut != 20 {
		t.Fatalf("tokens wrong: %+v", e)
	}
	wantCost := DefaultPrices().Estimate("gpt-4o", 10, 20)
	if e.CostUSD != wantCost {
		t.Fatalf("cost = %v, want %v", e.CostUSD, wantCost)
	}
	if len(e.PromptSHA) != 64 {
		t.Fatalf("prompt sha = %q, want 64 hex chars", e.PromptSHA)
	}
	// Default privacy posture: no raw text in the entry.
	if e.PromptText != "" || e.ResponseText != "" {
		t.Fatalf("raw text persisted without capture opt-in: %+v", e)
	}
	// Metrics exported.
	found := map[string]bool{}
	for _, s := range reg.Gather() {
		found[s.Name] = true
	}
	for _, name := range []string{"ion_llm_cost_usd_total", "ion_llm_backend_health", "ion_llm_ledger_entries", "ion_llm_ledger_bytes"} {
		if !found[name] {
			t.Fatalf("metric %s not exported; have %v", name, found)
		}
	}
}

func TestWrapFailureOutcome(t *testing.T) {
	st := testStore(t, StoreOptions{})
	boom := errors.New("backend exploded")
	c := Wrap(&fakeClient{fail: boom}, st, WrapOptions{})
	if _, err := c.Complete(context.Background(), testReq()); !errors.Is(err, boom) {
		t.Fatalf("error not forwarded: %v", err)
	}
	e := st.Entries(Filter{})[0]
	if e.Outcome != "error" || e.Error == "" {
		t.Fatalf("failure entry: %+v", e)
	}
	if e.TokensOut != 0 || e.TokensIn == 0 {
		t.Fatalf("failure tokens: %+v", e)
	}

	// Timeout classification flows through llm.Outcome.
	ct := Wrap(&fakeClient{fail: context.DeadlineExceeded}, st, WrapOptions{})
	ct.Complete(context.Background(), testReq())
	if e := st.Entries(Filter{})[0]; e.Outcome != "timeout" {
		t.Fatalf("timeout entry: %+v", e)
	}
}

func TestWrapCaptureText(t *testing.T) {
	st := testStore(t, StoreOptions{})
	c := Wrap(&fakeClient{}, st, WrapOptions{CaptureText: true})
	c.Complete(context.Background(), testReq())
	e := st.Entries(Filter{})[0]
	if !strings.Contains(e.PromptText, "diagnose this") || e.ResponseText != "the answer" {
		t.Fatalf("capture-text entry: %+v", e)
	}
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	st, err := Open(StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	rec := Wrap(&fakeClient{}, st, WrapOptions{CaptureText: true})
	req := testReq()
	want, err := rec.Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	rep, err := NewReplay(path)
	if err != nil {
		t.Fatalf("NewReplay: %v", err)
	}
	if rep.Len() != 1 {
		t.Fatalf("replay len = %d, want 1", rep.Len())
	}
	got, err := rep.Complete(context.Background(), req)
	if err != nil || got.Content != want.Content || got.Model != want.Model {
		t.Fatalf("replay = %+v, %v; want %+v", got, err, want)
	}
	// Strict mode: an unrecorded prompt is drift, not a silent live call.
	other := testReq()
	other.Messages[0].Content = "something new"
	if _, err := rep.Complete(context.Background(), other); err == nil {
		t.Fatal("replay answered an unrecorded prompt")
	}
}

func TestReplayErrors(t *testing.T) {
	dir := t.TempDir()
	// Missing file.
	if _, err := NewReplay(filepath.Join(dir, "absent.jsonl")); err == nil {
		t.Fatal("NewReplay accepted a missing file")
	}
	// Hash-only ledger (default privacy posture): nothing to replay.
	path := filepath.Join(dir, "hashonly.jsonl")
	st, _ := Open(StoreOptions{Path: path})
	Wrap(&fakeClient{}, st, WrapOptions{}).Complete(context.Background(), testReq())
	st.Close()
	if _, err := NewReplay(path); err == nil {
		t.Fatal("NewReplay accepted a ledger without captured text")
	}
	// Truncated mid-record line is skipped, rest replays.
	mixed := filepath.Join(dir, "mixed.jsonl")
	good, _ := os.ReadFile(path)
	_ = good
	stm, _ := Open(StoreOptions{Path: mixed})
	Wrap(&fakeClient{}, stm, WrapOptions{CaptureText: true}).Complete(context.Background(), testReq())
	stm.Close()
	f, _ := os.OpenFile(mixed, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"id":"torn","prompt_sha":"abc","response_text":"x`)
	f.Close()
	rep, err := NewReplay(mixed)
	if err != nil || rep.Len() != 1 {
		t.Fatalf("mixed replay: %v len=%d", err, rep.Len())
	}
}

// TestReplaySkipsOverLimitLine checks that -replay-ledger reads past a
// line longer than the journal's limit, as store replay does.
func TestReplaySkipsOverLimitLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	record := func(content string) {
		st, err := Open(StoreOptions{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		req := testReq()
		req.Messages[0].Content = content
		Wrap(&fakeClient{}, st, WrapOptions{CaptureText: true}).Complete(context.Background(), req)
		st.Close()
	}
	record("before")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(strings.Repeat("x", journal.MaxLine+1) + "\n")
	f.Close()
	record("after")
	rep, err := NewReplay(path)
	if err != nil {
		t.Fatalf("NewReplay: %v", err)
	}
	if rep.Len() != 2 {
		t.Fatalf("replay over an over-limit line indexed %d prompts, want 2", rep.Len())
	}
}

func TestPromptHashStability(t *testing.T) {
	a := testReq()
	b := testReq()
	// Metadata and files must not affect the hash (they carry
	// workdir-dependent paths).
	b.Metadata["ion-csv-dir"] = "/tmp/elsewhere"
	b.Files = []string{"/tmp/elsewhere/x.csv"}
	if PromptHash(a) != PromptHash(b) {
		t.Fatal("PromptHash varies with metadata/files")
	}
	b.Messages[0].Content += "!"
	if PromptHash(a) == PromptHash(b) {
		t.Fatal("PromptHash ignores message content")
	}
}
