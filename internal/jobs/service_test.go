package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/llm"
	"ion/internal/obs"
	"ion/internal/testutil"
)

// traceBytes returns the binary container bytes of a generated
// workload trace, cached per test binary.
var traceOnce struct {
	sync.Mutex
	data map[string][]byte
}

func traceBytes(t *testing.T, workload string) []byte {
	t.Helper()
	traceOnce.Lock()
	defer traceOnce.Unlock()
	if traceOnce.data == nil {
		traceOnce.data = map[string][]byte{}
	}
	if d, ok := traceOnce.data[workload]; ok {
		return d
	}
	log, err := testutil.Log(workload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	traceOnce.data[workload] = buf.Bytes()
	return buf.Bytes()
}

// textTrace renders the workload as darshan-parser text with a unique
// metadata line, producing distinct-but-valid trace bytes for tests
// that need many different submissions.
func textTrace(t *testing.T, workload string, variant int) []byte {
	t.Helper()
	log, err := testutil.Log(workload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# metadata: variant = %d\n", variant)
	if err := log.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteDXTText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Client == nil {
		cfg.Client = expertsim.New()
	}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return svc
}

func waitDone(t *testing.T, svc *Service, id string) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	j, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return j
}

func TestSubmitAndComplete(t *testing.T) {
	svc := openService(t, Config{Workers: 2})
	j, dedup, err := svc.Submit("ior-hard", traceBytes(t, "ior-hard"))
	if err != nil {
		t.Fatal(err)
	}
	if dedup {
		t.Error("first submission reported as dedup hit")
	}
	final := waitDone(t, svc, j.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	if final.Attempts != 1 || final.StartedAt.IsZero() || final.FinishedAt.IsZero() {
		t.Errorf("lifecycle fields off: %+v", final)
	}
	rep, err := svc.Report(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace != "ior-hard" || len(rep.Diagnoses) == 0 {
		t.Errorf("report malformed: trace=%q diagnoses=%d", rep.Trace, len(rep.Diagnoses))
	}
	st := svc.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDedupCacheHit(t *testing.T) {
	svc := openService(t, Config{Workers: 1})
	data := traceBytes(t, "ior-hard")
	j, _, err := svc.Submit("ior-hard", data)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, j.ID)

	j2, dedup, err := svc.Submit("ior-hard-again", data)
	if err != nil {
		t.Fatal(err)
	}
	if !dedup {
		t.Error("identical trace was not a dedup hit")
	}
	if j2.ID != j.ID {
		t.Errorf("dedup returned job %s, want cached %s", j2.ID, j.ID)
	}
	st := svc.Stats()
	if st.CacheHits != 1 || st.Submitted != 2 {
		t.Errorf("stats = %+v, want 1 cache hit of 2 submissions", st)
	}
	if st.CacheHitRate() != 0.5 {
		t.Errorf("cache hit rate = %v, want 0.5", st.CacheHitRate())
	}
}

// flakyClient fails the first n completions with a transient error,
// then delegates to the real backend.
type flakyClient struct {
	llm.Client
	remaining atomic.Int64
}

func (c *flakyClient) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if c.remaining.Add(-1) >= 0 {
		return llm.Completion{}, fmt.Errorf("backend hiccup: connection reset")
	}
	return c.Client.Complete(ctx, req)
}

func TestRetryThenSucceed(t *testing.T) {
	flaky := &flakyClient{Client: expertsim.New()}
	flaky.remaining.Store(2)
	svc := openService(t, Config{
		Workers:     1,
		Client:      flaky,
		MaxAttempts: 5,
	})
	j, _, err := svc.Submit("flaky", traceBytes(t, "ior-hard"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, j.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done after retries", final.State, final.Error)
	}
	if final.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥ 2", final.Attempts)
	}
	st := svc.Stats()
	if st.Retried < 1 {
		t.Errorf("stats.Retried = %d, want ≥ 1", st.Retried)
	}
	if st.Completed != 1 {
		t.Errorf("stats.Completed = %d, want 1", st.Completed)
	}
}

func TestRetriesExhausted(t *testing.T) {
	flaky := &flakyClient{Client: expertsim.New()}
	flaky.remaining.Store(1 << 30) // never recovers
	svc := openService(t, Config{
		Workers:     1,
		Client:      flaky,
		MaxAttempts: 2,
	})
	data := traceBytes(t, "ior-hard")
	j, _, err := svc.Submit("doomed", data)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, j.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Attempts != 2 || final.Error == "" {
		t.Errorf("failure record off: %+v", final)
	}
	if st := svc.Stats(); st.Failed != 1 || st.Retried != 1 {
		t.Errorf("stats = %+v, want 1 failed / 1 retried", st)
	}
	if _, err := svc.Report(j.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("Report on failed job = %v, want ErrNotDone", err)
	}
	// A failed job must not answer dedup: resubmitting creates a new one.
	j2, dedup, err := svc.Submit("doomed-again", data)
	if err != nil {
		t.Fatal(err)
	}
	if dedup || j2.ID == j.ID {
		t.Errorf("failed job served as dedup cache: dedup=%v id=%s", dedup, j2.ID)
	}
}

// spanNames collects the distinct span names of a job's persisted
// timeline.
func spanNames(t *testing.T, svc *Service, id string) map[string]bool {
	t.Helper()
	raw, err := svc.Store().Timeline(id)
	if err != nil {
		t.Fatalf("timeline for %s: %v", id, err)
	}
	var tl obs.Timeline
	if err := json.Unmarshal(raw, &tl); err != nil {
		t.Fatalf("decoding timeline: %v", err)
	}
	names := map[string]bool{}
	for _, sp := range tl.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestResubmitAfterFailureExtractsAgain: a job whose analysis failed
// leaves the dedup map, so the same bytes resubmitted get a fresh job,
// and that job parses and extracts into its own work directory, which
// its report names.
func TestResubmitAfterFailureExtractsAgain(t *testing.T) {
	flaky := &flakyClient{Client: expertsim.New()}
	flaky.remaining.Store(1) // exactly the first completion fails
	svc := openService(t, Config{Workers: 1, Client: flaky, MaxAttempts: 1})
	data := traceBytes(t, "ior-hard")

	j1 := submitWait(t, svc, "first", data)
	if j1.State != StateFailed {
		t.Fatalf("first job state = %s, want failed", j1.State)
	}
	j2, dedup, err := svc.Submit("second", data)
	if err != nil {
		t.Fatal(err)
	}
	if dedup || j2.ID == j1.ID {
		t.Fatalf("resubmission did not create a fresh job: dedup=%v", dedup)
	}
	if final := waitDone(t, svc, j2.ID); final.State != StateDone {
		t.Fatalf("second job state = %s (error %q), want done", final.State, final.Error)
	}
	if names := spanNames(t, svc, j2.ID); !names["parse"] || !names["extract"] {
		t.Errorf("resubmitted job spans = %v, want parse and extract", names)
	}
	rep, err := svc.Report(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := svc.Store().WorkDir(j2.ID); rep.CSVDir != want {
		t.Errorf("report CSVDir = %q, want the job's own work directory %q", rep.CSVDir, want)
	}
}

// gateClient blocks completions until released, signalling when the
// first one has started.
type gateClient struct {
	llm.Client
	started chan struct{} // closed when a completion begins
	release chan struct{} // close to let completions proceed
	once    sync.Once
}

func (c *gateClient) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	c.once.Do(func() { close(c.started) })
	select {
	case <-c.release:
	case <-ctx.Done():
		return llm.Completion{}, ctx.Err()
	}
	return c.Client.Complete(ctx, req)
}

func TestBackpressureShedsLoad(t *testing.T) {
	gate := &gateClient{
		Client:  expertsim.New(),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	svc := openService(t, Config{Workers: 1, QueueDepth: 1, Client: gate})

	a, _, err := svc.Submit("a", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker is actually running job A, so B
	// lands in the queue rather than racing the dequeue.
	select {
	case <-gate.started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never started job A")
	}

	b, _, err := svc.Submit("b", textTrace(t, "ior-hard", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Submit("c", textTrace(t, "ior-hard", 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission error = %v, want ErrQueueFull", err)
	}
	if st := svc.Stats(); st.QueueDepth != 1 || st.Busy != 1 || st.Utilization() != 1 {
		t.Errorf("stats under load = %+v", st)
	}

	close(gate.release)
	if j := waitDone(t, svc, a.ID); j.State != StateDone {
		t.Errorf("job a = %s (%s)", j.State, j.Error)
	}
	if j := waitDone(t, svc, b.ID); j.State != StateDone {
		t.Errorf("job b = %s (%s)", j.State, j.Error)
	}
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	data := traceBytes(t, "ior-hard")

	// A paused service accepts and persists the job but never runs it —
	// the moral equivalent of crashing with work in the queue.
	paused := openService(t, Config{Dir: dir, Paused: true})
	j, _, err := paused.Submit("ior-hard", data)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued {
		t.Fatalf("paused job state = %s, want queued", j.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	paused.Close(ctx)
	cancel()

	// A fresh service over the same directory must resume the job.
	svc := openService(t, Config{Dir: dir, Workers: 1})
	if st := svc.Stats(); st.Recovered != 1 {
		t.Fatalf("stats.Recovered = %d, want 1", st.Recovered)
	}
	final := waitDone(t, svc, j.ID)
	if final.State != StateDone {
		t.Fatalf("recovered job state = %s (%s), want done", final.State, final.Error)
	}
	if _, err := svc.Report(j.ID); err != nil {
		t.Errorf("report after recovery: %v", err)
	}
	// The dedup index is rebuilt from disk too.
	if _, dedup, err := svc.Submit("same", data); err != nil || !dedup {
		t.Errorf("resubmit after recovery: dedup=%v err=%v", dedup, err)
	}
}

func TestBadTraceRejected(t *testing.T) {
	svc := openService(t, Config{Workers: 1})
	for _, body := range [][]byte{nil, []byte("not a darshan log\n"), []byte("# metadata: only = comments\n")} {
		if _, _, err := svc.Submit("junk", body); !errors.Is(err, ErrBadTrace) {
			t.Errorf("Submit(%q) error = %v, want ErrBadTrace", body, err)
		}
	}
	if st := svc.Stats(); st.Submitted != 0 {
		t.Errorf("rejected submissions counted: %+v", st)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	svc := openService(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Submit("late", traceBytes(t, "ior-hard")); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := svc.Close(ctx); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestWaitErrors(t *testing.T) {
	svc := openService(t, Config{Paused: true})
	if _, err := svc.Wait(context.Background(), "j-aaaaaaaaaaaa"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Wait on unknown id = %v, want ErrNotFound", err)
	}
	j, _, err := svc.Submit("parked", traceBytes(t, "ior-hard"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := svc.Wait(ctx, j.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Wait on parked job = %v, want deadline exceeded", err)
	}
}

// TestConcurrentSubmitPollShutdown exercises the service under -race:
// parallel submissions of distinct and identical traces interleaved
// with polling and a graceful shutdown.
func TestConcurrentSubmitPollShutdown(t *testing.T) {
	svc := openService(t, Config{Workers: 4, QueueDepth: 32})
	variants := make([][]byte, 4)
	for i := range variants {
		variants[i] = textTrace(t, "ior-hard", i)
	}

	var wg sync.WaitGroup
	ids := make(chan string, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				j, _, err := svc.Submit(fmt.Sprintf("w%d-%d", g, i), variants[(g+i)%len(variants)])
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("submit: %v", err)
					return
				}
				if err == nil {
					ids <- j.ID
				}
				svc.Stats()
				svc.List()
			}
		}()
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		if _, err := svc.Get(id); err != nil {
			t.Errorf("get %s: %v", id, err)
		}
		waitDone(t, svc, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Errorf("close: %v", err)
	}
	st := svc.Stats()
	if st.Completed == 0 || st.Failed != 0 {
		t.Errorf("final stats = %+v", st)
	}
	if st.CacheHits == 0 {
		t.Errorf("no dedup hits across %d submissions of %d variants", st.Submitted, len(variants))
	}
}
