package jobs

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/ion"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/obs/series"
	"ion/internal/prompt"
	"ion/internal/quality"
	"ion/internal/semcache"
	"ion/internal/workloads"
)

// calInterval is the calibration scrape interval, in virtual time.
const calInterval = 5 * time.Second

// calibration is one row's stack: the service over a backend wrapped
// by the ledger, the semantic cache, quality scoring and the runtime
// gauges, with a series store evaluating the default rules on a
// virtual clock.
type calibration struct {
	t      *testing.T
	svc    *Service
	client llm.Client // the ledger-wrapped backend the service runs on
	qual   *quality.Store
	store  *series.Store
	now    time.Time
	reused []Job // the reuse stream's jobs, which the interactive stream visits
}

// scrape advances the virtual clock one interval and scrapes.
func (c *calibration) scrape() {
	c.now = c.now.Add(calInterval)
	c.store.Scrape(c.now)
}

// run submits a trace, waits for the job and any shadow it scheduled
// before settling, and scrapes.
func (c *calibration) run(name string, trace []byte) Job {
	c.t.Helper()
	j := submitWait(c.t, c.svc, name, trace)
	c.svc.shadowWG.Wait()
	c.scrape()
	return j
}

// twice runs each family twice under its own name, the second copy one
// metadata line different (a new trace, not a dedup hit).
func (c *calibration) twice(fams []workloads.Workload) []Job {
	c.t.Helper()
	var out []Job
	for round := 0; round < 2; round++ {
		for _, w := range fams {
			out = append(out, c.run(w.Name, textTrace(c.t, w.Name, round)))
		}
	}
	return out
}

// bundled is the 12 bundled workload families.
func bundled() []workloads.Workload { return append(workloads.All(), workloads.Extras()...) }

// reuseStream is the reuse-ingest shape: each family twice at the
// default thresholds, so the second copies are reused (verbatim or
// conditioned), and every reuse is shadowed. It checks the traffic is
// correct: every job succeeds, every label matches, and no shadow
// flips.
func reuseStream(c *calibration) {
	t := c.t
	fams := bundled()
	c.reused = c.twice(fams)
	for _, j := range c.reused {
		if !j.State.Succeeded() {
			t.Fatalf("%s: state %s (%s)", j.Trace, j.State, j.Error)
		}
	}
	cards := c.qual.Entries()
	if len(cards) != 2*len(fams) {
		t.Fatalf("%d scorecards, want %d", len(cards), 2*len(fams))
	}
	reused := 0
	for _, card := range cards {
		checkLabels(t, card)
		if card.Mode == quality.ModeFull {
			continue
		}
		reused++
		if card.Shadow == nil || len(card.Shadow.Flips) > 0 {
			t.Errorf("%s (%s): shadow %+v, want a shadow re-run without flips", card.Trace, card.Mode, card.Shadow)
		}
	}
	if reused < len(fams) {
		t.Fatalf("%d reused or conditioned jobs, want at least the %d second copies", reused, len(fams))
	}
}

// freshStream is the fresh-diagnosis shape: each family twice as
// distinct traces with both reuse tiers off, so every job runs the full
// fan-out and the semantic cache only misses.
func freshStream(c *calibration) {
	t := c.t
	for _, j := range c.twice(bundled()) {
		if j.State != StateDone || j.ReusedFrom != nil {
			t.Fatalf("%s: state %s, provenance %+v; want a fresh run", j.Trace, j.State, j.ReusedFrom)
		}
	}
	for _, card := range c.qual.Entries() {
		checkLabels(t, card)
	}
	if st := c.svc.sem.Stats(); st.Hits+st.Conditioned != 0 || st.Misses != 2*int64(len(bundled())) {
		t.Fatalf("semantic cache %+v, want only misses", st)
	}
}

// calQuestions are the interactive stream's chat questions.
var calQuestions = []string{
	"Why is this application's I/O slow?",
	"Which issue should I fix first?",
	"How do I fix the small writes?",
	"Is the shared-file access a problem here?",
	"and how do I fix that?",
}

// interactiveStream is the interactive shape over the reuse stream's
// jobs: 1–3 questions per report through a chat session on the same
// ledger-wrapped client, stamped with the job id, and a header-changed
// upload of each of three families between reports.
func interactiveStream(c *calibration) {
	t := c.t
	uploads := []string{"ior-rnd4k", "stdio-postprocess", "e2e-optimized"}
	turns := 0
	for k, j := range c.reused {
		rep, err := c.svc.Report(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := ion.NewSession(c.client, rep)
		if err != nil {
			t.Fatal(err)
		}
		ctx := llm.WithJobID(context.Background(), j.ID)
		for q := 0; q <= k%3; q++ {
			if answer, err := sess.Ask(ctx, calQuestions[(k+q)%len(calQuestions)]); err != nil || strings.TrimSpace(answer) == "" {
				t.Fatalf("%s: answer %q, err %v", j.Trace, answer, err)
			}
			turns++
			c.scrape()
		}
		if k%8 == 7 {
			name := uploads[k/8]
			if u := c.run(name, textTrace(t, name, 2+k)); !u.State.Succeeded() {
				t.Fatalf("upload %s: state %s (%s)", name, u.State, u.Error)
			}
		}
	}
	chats := 0
	for _, e := range c.svc.ledger.Entries(ledger.Filter{}) {
		if e.Template == prompt.KindChat && e.Job != "" {
			chats++
		}
	}
	if chats != turns {
		t.Fatalf("the ledger attributes %d chat calls to a job, want the %d turns asked", chats, turns)
	}
}

// failingStream runs jobs against a backend that fails every call;
// with one attempt per job each of them fails.
func failingStream(c *calibration) {
	for _, name := range []string{"ior-hard", "md-workbench", "e2e-baseline"} {
		if j := c.run(name, textTrace(c.t, name, 0)); j.State != StateFailed {
			c.t.Fatalf("%s against a failing backend: state %s", name, j.State)
		}
	}
}

// heldStream holds every call at the gate while both workers run a job
// and 15 more queue (15 of 16 slots), then releases the gate and drains
// the queue.
func heldStream(gate *gateClient) func(*calibration) {
	return func(c *calibration) {
		t := c.t
		small := []string{"healthy-checkpoint", "e2e-optimized"}
		var ids []string
		submit := func(i int) {
			name := small[i%len(small)]
			j, _, err := c.svc.Submit(name, textTrace(t, name, i))
			if err != nil {
				t.Fatalf("submission %d: %v", i, err)
			}
			ids = append(ids, j.ID)
			c.scrape()
		}
		submit(0)
		submit(1)
		deadline := time.Now().Add(30 * time.Second)
		for c.svc.Stats().Busy < 2 {
			if time.Now().After(deadline) {
				t.Fatal("the workers never picked up both held jobs")
			}
			time.Sleep(time.Millisecond)
		}
		for i := 2; i < 17; i++ {
			submit(i)
		}
		if st := c.svc.Stats(); st.Busy != 2 || st.QueueDepth != 15 {
			t.Fatalf("held stack: %d running, %d queued; want 2 and 15", st.Busy, st.QueueDepth)
		}
		for end := c.now.Add(3 * time.Minute); c.now.Before(end); {
			c.scrape()
		}
		close(gate.release)
		for _, id := range ids {
			if j := waitDone(t, c.svc, id); !j.State.Succeeded() {
				t.Fatalf("%s after release: state %s (%s)", j.Trace, j.State, j.Error)
			}
		}
		c.svc.shadowWG.Wait()
	}
}

// shadowContradictor contradicts only shadow re-runs: their diagnosis
// verdicts go to drifted, every other call to the embedded client.
type shadowContradictor struct {
	llm.Client
	drifted llm.Client
}

func (c *shadowContradictor) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if strings.HasSuffix(llm.JobIDFrom(ctx), "-shadow") {
		return c.drifted.Complete(ctx, req)
	}
	return c.Client.Complete(ctx, req)
}

// contradictedStream runs families with detected issues twice, so the
// second copies are reused and their shadow re-runs flip.
func contradictedStream(c *calibration) {
	var fams []workloads.Workload
	for _, name := range []string{"ior-hard", "md-workbench", "e2e-baseline"} {
		w, err := workloads.ByName(name)
		if err != nil {
			c.t.Fatal(err)
		}
		fams = append(fams, w)
	}
	c.twice(fams)
}

// checkLabels fails on a labelled verdict that differs from its label.
func checkLabels(t *testing.T, card quality.Scorecard) {
	t.Helper()
	for _, s := range card.Issues {
		if s.Label != "" && s.Verdict != s.Label {
			t.Errorf("%s (%s): %s is %s, labelled %s", card.Trace, card.Mode, s.Issue, s.Verdict, s.Label)
		}
	}
}

// TestDefaultRulesCalibration evaluates the shipped default rules,
// unmodified, over the real service stack, scraping every 5s of virtual
// time: once per job or chat turn, then for 3 more minutes after each
// stream, longer than any rule's For. On the three correct streams
// (the interactive one continues over the reuse stream's jobs) every
// rule stays ok with no transition and is evaluated on data (a
// missing series would also read ok).
// Each fault row drives the rules it names ok → pending → firing on
// their own For and leaves every other rule ok.
func TestDefaultRulesCalibration(t *testing.T) {
	gate := &gateClient{Client: expertsim.New(), started: make(chan struct{}), release: make(chan struct{})}
	failing := &flakyClient{Client: expertsim.New()}
	failing.remaining.Store(1 << 30)
	inner := expertsim.New()
	fresh := func(cfg *Config) { cfg.SemReuseThreshold, cfg.SemConditionThreshold = 1.5, 1.5 }

	for _, tc := range []struct {
		name    string
		backend llm.Client // nil: expertsim
		config  func(*Config)
		streams []func(*calibration)
		fires   []string // nil: correct streams
	}{
		{name: "correct/fresh", config: fresh, streams: []func(*calibration){freshStream}},
		{name: "correct/reuse+interactive", streams: []func(*calibration){reuseStream, interactiveStream}},
		{
			name:    "fault/failing-backend",
			backend: failing,
			config:  func(cfg *Config) { cfg.MaxAttempts = 1 },
			streams: []func(*calibration){failingStream},
			fires:   []string{"JobFailureRatioHigh", "LLMBackendDegraded"},
		},
		{
			name:    "fault/held-backend",
			backend: gate,
			streams: []func(*calibration){heldStream(gate)},
			fires:   []string{"QueueNearCapacity"},
		},
		{
			name:    "fault/shadow-contradictor",
			backend: &shadowContradictor{Client: inner, drifted: &expertsim.Contradictor{Inner: inner}},
			config:  func(cfg *Config) { cfg.ShadowSampleRate = 2 },
			streams: []func(*calibration){contradictedStream},
			fires:   []string{"SemcacheFlipRateHigh"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			reg := obs.NewRegistry()
			obs.RegisterRuntimeMetrics(reg)
			lst, err := ledger.Open(ledger.StoreOptions{Path: filepath.Join(dir, "ledger.jsonl")})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lst.Close() })
			backend := tc.backend
			if backend == nil {
				backend = expertsim.New()
			}
			client := ledger.Wrap(backend, lst, ledger.WrapOptions{Registry: reg})
			qual := openQualStore(t, filepath.Join(dir, "quality.jsonl"))
			cfg := Config{
				Workers:          2,
				Client:           client,
				Ledger:           lst,
				SemCache:         openSemStore(t, semcache.Options{}),
				Quality:          qual,
				ShadowSampleRate: 1,
				Obs:              reg,
			}
			if tc.config != nil {
				tc.config(&cfg)
			}
			c := &calibration{
				t:      t,
				svc:    openService(t, cfg),
				client: client,
				qual:   qual,
				store: series.New(reg, series.Options{
					Interval:  calInterval,
					Retention: 10 * time.Minute,
					Rules:     series.DefaultRules(),
				}),
				now: time.Now(),
			}
			for _, stream := range tc.streams {
				stream(c)
				for end := c.now.Add(3 * time.Minute); c.now.Before(end); {
					c.scrape()
				}
				c.check(tc.fires)
			}
		})
	}
}

// check asserts the alert states after a stream: every rule in fires
// went ok → pending → firing on its own For, and every other rule is ok
// with no transition. With fires nil (correct traffic), every rule was
// also evaluated on data.
func (c *calibration) check(fires []string) {
	t := c.t
	t.Helper()
	rules := map[string]series.Rule{}
	for _, r := range series.DefaultRules() {
		rules[r.Name] = r
	}
	fire := map[string]bool{}
	for _, name := range fires {
		if _, ok := rules[name]; !ok {
			t.Fatalf("%s is not a default rule", name)
		}
		fire[name] = true
	}
	alerts := c.store.Alerts()
	if len(alerts) != len(rules) {
		t.Fatalf("%d alert states for %d default rules", len(alerts), len(rules))
	}
	for _, a := range alerts {
		if !fire[a.Rule.Name] {
			if a.State != series.StateOK || len(a.History) > 0 {
				t.Errorf("%s (%s): state %s, value %v, history %+v; want ok throughout",
					a.Rule.Name, a.Rule.Expr, a.State, a.Value, a.History)
			}
			if fires == nil && a.NoData {
				t.Errorf("%s (%s): no_data = %v on correct traffic", a.Rule.Name, a.Rule.Expr, a.NoData)
			}
			continue
		}
		h := a.History
		hold := time.Duration(rules[a.Rule.Name].For)
		if len(h) < 2 || h[0].From != series.StateOK || h[0].To != series.StatePending ||
			h[1].To != series.StateFiring {
			t.Errorf("%s (%s): history %+v, want ok → pending → firing", a.Rule.Name, a.Rule.Expr, h)
			continue
		}
		if held := h[1].At.Sub(h[0].At); held < hold || held >= hold+calInterval {
			t.Errorf("%s fired %v after going pending, want its For of %v", a.Rule.Name, held, hold)
		}
	}
}
