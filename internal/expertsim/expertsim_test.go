package expertsim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ion/internal/analysis"
	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/knowledge"
	"ion/internal/llm"
	"ion/internal/prompt"
	"ion/internal/testutil"
	"ion/internal/workloads"
)

// diagnose runs the full prompt → expertsim → parse loop for one issue
// on one workload.
func diagnose(t *testing.T, workload string, id issue.ID) *ion.IssueDiagnosis {
	t.Helper()
	out, _, err := testutil.Extracted(workload)
	if err != nil {
		t.Fatal(err)
	}
	kb := knowledge.NewBase(knowledge.FromExtract(out))
	req, err := prompt.NewBuilder(kb).Diagnosis(id, out)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := New().Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("%s/%s: %v", workload, id, err)
	}
	d, err := ion.ParseCompletion(id, comp.Content)
	if err != nil {
		t.Fatalf("%s/%s: completion unparsable: %v\n---\n%s", workload, id, err, comp.Content)
	}
	return d
}

// TestVerdictsMatchGroundTruth is the core regression test of the
// reproduction: across every evaluation workload, every ground-truth
// issue must get its expected verdict and no unlisted issue may be
// "detected".
func TestVerdictsMatchGroundTruth(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			want := map[issue.ID]issue.Verdict{}
			for _, e := range w.Truth {
				want[e.Issue] = e.Want
			}
			for _, id := range issue.All {
				d := diagnose(t, w.Name, id)
				if exp, listed := want[id]; listed {
					if d.Verdict != exp {
						t.Errorf("%s: verdict %s, want %s\nconclusion: %s", id, d.Verdict, exp, d.Conclusion)
					}
				} else if d.Verdict == issue.VerdictDetected {
					t.Errorf("%s: false positive (detected)\nconclusion: %s", id, d.Conclusion)
				}
			}
		})
	}
}

func TestCompletionFormat(t *testing.T) {
	d := diagnose(t, "ior-hard", issue.SmallIO)
	if len(d.Steps) < 3 {
		t.Errorf("expected >=3 reasoning steps, got %d", len(d.Steps))
	}
	for i, s := range d.Steps {
		if !strings.ContainsAny(s, "0123456789") {
			t.Errorf("step %d carries no computed number: %q", i, s)
		}
	}
	if !strings.Contains(d.Code, "pd.read_csv") {
		t.Error("code listing missing pandas analysis")
	}
	if !strings.Contains(d.Conclusion, "%") {
		t.Error("conclusion carries no quantification")
	}
}

func TestPaperShapeNumbers(t *testing.T) {
	// Paper row "IOR-Easy-2KB": ~99.8% misalignment; ops small but
	// sequential and aggregatable; shared file without stripe overlap.
	mis := diagnose(t, "ior-easy-2k-shared", issue.MisalignedIO)
	if !strings.Contains(mis.Conclusion, "99.8") {
		t.Errorf("2KB misalignment should be ~99.8%%: %s", mis.Conclusion)
	}
	shared := diagnose(t, "ior-easy-2k-shared", issue.SharedFile)
	if !strings.Contains(shared.Conclusion, "no overlapping operations within the same stripe") {
		t.Errorf("shared-file conclusion should rule out stripe overlap: %s", shared.Conclusion)
	}
	// Paper row "IOR-Easy-1MB": 0.0% misalignment over 8192 ops.
	mis1m := diagnose(t, "ior-easy-1m-shared", issue.MisalignedIO)
	if !strings.Contains(mis1m.Conclusion, "8192") {
		t.Errorf("1MB misalignment conclusion should count 8192 ops: %s", mis1m.Conclusion)
	}
	if !strings.Contains(mis1m.Conclusion, "0.00%") {
		t.Errorf("1MB misalignment should be 0.00%%: %s", mis1m.Conclusion)
	}
	// Paper: interface insight names POSIX-only usage with multiple ranks.
	iface := diagnose(t, "ior-easy-1m-fpp", issue.Interface)
	if !strings.Contains(iface.Conclusion, "only using POSIX") {
		t.Errorf("interface conclusion: %s", iface.Conclusion)
	}
	// Paper: E2E baseline names rank 0 as the overloaded rank.
	imb := diagnose(t, "e2e-baseline", issue.LoadImbalance)
	if !strings.Contains(imb.Conclusion, "rank 0") {
		t.Errorf("imbalance conclusion must name rank 0: %s", imb.Conclusion)
	}
	// Paper: E2E optimized attributes the skew to a subset and calls it
	// possibly intentional.
	sub := diagnose(t, "e2e-optimized", issue.LoadImbalance)
	if !strings.Contains(sub.Conclusion, "subset") || !strings.Contains(sub.Conclusion, "1024") {
		t.Errorf("subset conclusion: %s", sub.Conclusion)
	}
	if !strings.Contains(sub.Conclusion, "intentional") && !strings.Contains(sub.Conclusion, "aggregator") {
		t.Errorf("subset conclusion should flag possible intent: %s", sub.Conclusion)
	}
}

func TestSummary(t *testing.T) {
	out, _, err := testutil.Extracted("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	kb := knowledge.NewBase(knowledge.FromExtract(out))
	b := prompt.NewBuilder(kb)
	client := New()
	conclusions := map[issue.ID]string{}
	for _, id := range []issue.ID{issue.SmallIO, issue.SharedFile, issue.Metadata} {
		req, err := b.Diagnosis(id, out)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := client.Complete(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ion.ParseCompletion(id, comp.Content)
		if err != nil {
			t.Fatal(err)
		}
		conclusions[id] = d.Conclusion + "\n" + prompt.VerdictPrefix + " " + string(d.Verdict)
	}
	sreq := b.Summary(conclusions)
	comp, err := client.Complete(context.Background(), sreq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp.Content, "Global I/O Diagnosis Summary") {
		t.Errorf("summary header missing: %s", comp.Content)
	}
	if !strings.Contains(comp.Content, "Issues requiring attention") {
		t.Errorf("summary lacks detected-issue section: %s", comp.Content)
	}
	if !strings.Contains(comp.Content, "Recommended next steps") {
		t.Errorf("summary lacks recommendations: %s", comp.Content)
	}
}

func TestSummaryEmptyPromptFails(t *testing.T) {
	req := llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "# Summarization request\n\nnothing here"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindSummary},
	}
	if _, err := New().Complete(context.Background(), req); err == nil {
		t.Error("summary without diagnosis blocks should fail")
	}
}

func TestChat(t *testing.T) {
	contextText := `[small-io] Small I/O Operations
VERDICT: detected
The application exhibits a repetitive pattern of small requests: 99.00% of operations are below the stripe unit.
  step 1: Computed the access-size distribution.

[shared-file] Shared-File Access Contention
VERDICT: mitigated
No overlapping operations within the same stripe.
`
	b := prompt.NewBuilder(knowledge.NewBase(knowledge.DefaultHyperparams()))
	req := b.Chat(contextText, nil, "Why are the small writes a problem, and how do I fix them?")
	comp, err := New().Complete(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp.Content, "Small I/O") {
		t.Errorf("chat answer should route to the small-io section: %s", comp.Content)
	}
	if !strings.Contains(comp.Content, "remedy") && !strings.Contains(comp.Content, "Batch") {
		t.Errorf("fix-seeking question should include a recommendation: %s", comp.Content)
	}

	// Lock/contention questions route to shared-file.
	req2 := b.Chat(contextText, nil, "Did you see any lock contention on the stripes?")
	comp2, err := New().Complete(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(comp2.Content, "Shared-File") {
		t.Errorf("chat answer should route to shared-file: %s", comp2.Content)
	}
}

func TestChatErrors(t *testing.T) {
	c := New()
	_, err := c.Complete(context.Background(), llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "# Interactive question\n\nno sections"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindChat},
	})
	if err == nil {
		t.Error("malformed chat prompt accepted")
	}
}

func TestDiagnosisErrors(t *testing.T) {
	c := New()
	// Unknown issue.
	_, err := c.Complete(context.Background(), llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "# Diagnosis request\n\nIssue-ID: bogus\n"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindDiagnosis},
	})
	if err == nil {
		t.Error("unknown issue accepted")
	}
	// No CSV location.
	_, err = c.Complete(context.Background(), llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "# Diagnosis request\n\nIssue-ID: small-io\n"}},
		Metadata: map[string]string{prompt.MetaKind: prompt.KindDiagnosis},
	})
	if err == nil {
		t.Error("request without CSVs accepted")
	}
	// Unclassifiable request.
	_, err = c.Complete(context.Background(), llm.Request{
		Messages: []llm.Message{{Role: llm.RoleUser, Content: "hello"}},
	})
	if err == nil {
		t.Error("unclassifiable request accepted")
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]string{
		"# Diagnosis request: x":    prompt.KindDiagnosis,
		"# Summarization request":   prompt.KindSummary,
		"# Interactive question":    prompt.KindChat,
		"something else completely": "",
	}
	for content, want := range cases {
		if got := classify(content); got != want {
			t.Errorf("classify(%q) = %q, want %q", content, got, want)
		}
	}
}

func TestParseHyper(t *testing.T) {
	content := "## System hyper-parameters\n\n- lustre_stripe_size = 65536 bytes\n- rpc_size = 262144 bytes\n- mem_alignment = 16 bytes\n"
	h := parseHyper(content)
	if h.StripeSize != 65536 || h.RPCSize != 262144 || h.MemAlignment != 16 {
		t.Errorf("parseHyper = %+v", h)
	}
	// Defaults survive garbage.
	h2 := parseHyper("- lustre_stripe_size = -5 bytes\n")
	if h2.StripeSize != knowledge.DefaultHyperparams().StripeSize {
		t.Errorf("negative stripe accepted: %+v", h2)
	}
}

func TestEnvCaching(t *testing.T) {
	out, dir, err := testutil.Extracted("ior-easy-1m-shared")
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	c := New()
	loads := 0
	c.LoadDir = func(d string) (*extractor.Output, error) {
		loads++
		return extractor.LoadDir(d)
	}
	kb := knowledge.NewBase(knowledge.DefaultHyperparams())
	b := prompt.NewBuilder(kb)
	reload, err := extractor.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reload.Paths = map[string]string{}
	for name := range reload.Tables {
		reload.Paths[name] = dir + "/" + name + ".csv"
	}
	for _, id := range []issue.ID{issue.SmallIO, issue.MisalignedIO, issue.SharedFile} {
		req, err := b.Diagnosis(id, reload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Complete(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 1 {
		t.Errorf("CSV dir loaded %d times, want 1 (cache miss)", loads)
	}
}

func TestFirstSentences(t *testing.T) {
	text := "First point. Second point. Third point."
	if got := firstSentences(text, 1); got != "First point." {
		t.Errorf("got %q", got)
	}
	if got := firstSentences(text, 2); got != "First point. Second point." {
		t.Errorf("got %q", got)
	}
	// Decimal points must not split sentences.
	dec := "The rate is 99.8% of operations. Second."
	if got := firstSentences(dec, 1); !strings.Contains(got, "99.8%") {
		t.Errorf("decimal split: %q", got)
	}
}

func TestChatAnaphoricFollowUp(t *testing.T) {
	contextText := `[load-imbalance] Imbalanced I/O Workload
VERDICT: detected
Severe load imbalance detected: rank 0 performs most bytes.

[small-io] Small I/O Operations
VERDICT: mitigated
Small but consecutive operations aggregate fine.
`
	b := prompt.NewBuilder(knowledge.NewBase(knowledge.DefaultHyperparams()))
	client := New()

	// Turn 1 establishes the topic.
	req1 := b.Chat(contextText, nil, "Which rank causes the load imbalance?")
	a1, err := client.Complete(context.Background(), req1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a1.Content, "Imbalanced I/O Workload") {
		t.Fatalf("turn 1 off-topic: %s", a1.Content)
	}

	// Turn 2 is anaphoric: no topic words of its own.
	history := []llm.Message{
		{Role: llm.RoleUser, Content: "Which rank causes the load imbalance?"},
		{Role: llm.RoleAssistant, Content: a1.Content},
	}
	req2 := b.Chat(contextText, history, "Why is that happening?")
	a2, err := client.Complete(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a2.Content, "Imbalanced I/O Workload") {
		t.Errorf("follow-up lost the topic: %s", a2.Content)
	}
}

// diagnosisRequests builds the nine diagnosis prompts for a workload
// and returns them with the workload's CSV directory.
func diagnosisRequests(t *testing.T, workload string) (string, []llm.Request) {
	t.Helper()
	out, dir, err := testutil.Extracted(workload)
	if err != nil {
		t.Fatal(err)
	}
	b := prompt.NewBuilder(knowledge.NewBase(knowledge.FromExtract(out)))
	reqs := make([]llm.Request, 0, len(issue.All))
	for _, id := range issue.All {
		req, err := b.Diagnosis(id, out)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	return dir, reqs
}

// TestDiagnosesDeterministic renders every diagnosis of every bundled
// family with several fresh clients: the completions must be
// byte-identical, whatever order Go's maps iterate in.
func TestDiagnosesDeterministic(t *testing.T) {
	const clients = 4
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		t.Run(w.Name, func(t *testing.T) {
			dir, reqs := diagnosisRequests(t, w.Name)
			out, err := extractor.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var first []string
			for n := 0; n < clients; n++ {
				c := New()
				c.LoadDir = func(string) (*extractor.Output, error) { return out, nil }
				for i, req := range reqs {
					comp, err := c.Complete(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						first = append(first, comp.Content)
					} else if comp.Content != first[i] {
						t.Fatalf("%s: client %d wrote a different completion\n--- client 0 ---\n%s\n--- client %d ---\n%s",
							issue.All[i], n, first[i], n, comp.Content)
					}
				}
			}
		})
	}
}

// TestEnvCacheBounded diagnoses more directories than the cache holds:
// the cache stays at its bound, an evicted directory reloads with
// identical output, and a failed load is retried rather than cached.
func TestEnvCacheBounded(t *testing.T) {
	c := New()
	loads := map[string]int{}
	c.LoadDir = func(d string) (*extractor.Output, error) {
		loads[d]++
		return extractor.LoadDir(d)
	}
	var dirs []string
	var reqs []llm.Request
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		dir, rs := diagnosisRequests(t, w.Name)
		dirs = append(dirs, dir)
		reqs = append(reqs, rs[0])
	}
	if len(dirs) <= envCacheSize {
		t.Fatalf("only %d directories for a cache of %d", len(dirs), envCacheSize)
	}
	var firstOut string
	for i, req := range reqs {
		comp, err := c.Complete(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstOut = comp.Content
		}
		if n := len(c.envs); n > envCacheSize {
			t.Fatalf("after %d directories the cache holds %d, bound %d", i+1, n, envCacheSize)
		}
	}
	comp, err := c.Complete(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if loads[dirs[0]] != 2 {
		t.Errorf("evicted directory loaded %d times, want 2", loads[dirs[0]])
	}
	if comp.Content != firstOut {
		t.Errorf("reloaded directory diagnosed differently:\n%s\n---\n%s", firstOut, comp.Content)
	}

	fail := true
	c.LoadDir = func(d string) (*extractor.Output, error) {
		loads[d]++
		if fail {
			return nil, errors.New("read failed")
		}
		return extractor.LoadDir(d)
	}
	last := reqs[len(reqs)-1]
	before := loads[dirs[len(dirs)-1]]
	c.mu.Lock()
	clear(c.envs) // force the next request to load
	c.mu.Unlock()
	if _, err := c.Complete(context.Background(), last); err == nil {
		t.Fatal("failed load reported no error")
	}
	fail = false
	if _, err := c.Complete(context.Background(), last); err != nil {
		t.Fatalf("retry after a failed load: %v", err)
	}
	if got := loads[dirs[len(dirs)-1]] - before; got != 2 {
		t.Errorf("failed directory loaded %d times across two requests, want 2 (failure not cached)", got)
	}
}

// TestEnvLoadPerDirectory gates one directory's load and shows a second
// directory's diagnoses complete meanwhile, that requests for the gated
// directory share its one load, and that a waiter gives up when its
// context ends.
func TestEnvLoadPerDirectory(t *testing.T) {
	dirA, reqsA := diagnosisRequests(t, "ior-hard")
	dirB, reqsB := diagnosisRequests(t, "e2e-optimized")
	gate := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	loads := map[string]int{}
	c := New()
	c.LoadDir = func(d string) (*extractor.Output, error) {
		mu.Lock()
		loads[d]++
		first := loads[d] == 1
		mu.Unlock()
		if d == dirA {
			if first {
				close(started)
			}
			<-gate
		}
		return extractor.LoadDir(d)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(reqsA))
	for _, req := range reqsA {
		wg.Add(1)
		go func(req llm.Request) {
			defer wg.Done()
			if _, err := c.Complete(context.Background(), req); err != nil {
				errs <- err
			}
		}(req)
	}
	<-started

	doneB := make(chan error, 1)
	go func() {
		for _, req := range reqsB {
			if _, err := c.Complete(context.Background(), req); err != nil {
				doneB <- err
				return
			}
		}
		doneB <- nil
	}()
	select {
	case err := <-doneB:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(gate)
		t.Fatal("diagnoses of one directory waited for another directory's load")
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Complete(ctx, reqsA[0])
		waiter <- err
	}()
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter on a gated load returned %v, want context.Canceled", err)
	}

	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if loads[dirA] != 1 || loads[dirB] != 1 {
		t.Errorf("loads = %v, want each directory loaded once", loads)
	}
}

// TestPlannersConcurrentOnOneEnv runs all nine planners at once, twice
// over, on one Env: each must render what it renders alone, and the
// shared-file report, which two planners consult, is computed once.
func TestPlannersConcurrentOnOneEnv(t *testing.T) {
	out, _, err := testutil.Extracted("openpmd-optimized")
	if err != nil {
		t.Fatal(err)
	}
	hyper := knowledge.FromExtract(out)
	want := map[issue.ID]string{}
	for _, id := range issue.All {
		p, err := planFor(id, analysis.NewEnv(out, hyper))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = p.render()
	}

	env := analysis.NewEnv(out, hyper)
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, id := range issue.All {
			wg.Add(1)
			go func(id issue.ID) {
				defer wg.Done()
				p, err := planFor(id, env)
				if err != nil {
					t.Error(err)
					return
				}
				if got := p.render(); got != want[id] {
					t.Errorf("%s rendered differently under concurrency:\n%s\n---\n%s", id, want[id], got)
				}
			}(id)
		}
	}
	wg.Wait()
	if n := env.SharedFileRuns(); n != 1 {
		t.Errorf("shared-file report computed %d times, want 1", n)
	}
}
