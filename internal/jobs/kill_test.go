package jobs

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/ion"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/quality"
	"ion/internal/semcache"
)

// The test binary run with killDirEnv set is a child service over that
// data directory, which TestKillAtAnyPoint kills; killSeedEnv seeds its
// traffic.
const (
	killDirEnv  = "ION_JOBS_KILL_DIR"
	killSeedEnv = "ION_JOBS_KILL_SEED"
	killRounds  = 12
)

// killStack is the calibration test's stack over a data directory:
// expertsim behind the ledger, the semantic cache and quality, every
// reuse shadowed.
type killStack struct {
	svc    *Service
	client llm.Client
	closed []func() error
}

// openKillStack opens the stack over dir, failing the test if any of its
// journals does not reopen. A paused stack runs nothing.
func openKillStack(t *testing.T, dir string, paused bool) *killStack {
	t.Helper()
	st := &killStack{}
	lst, err := ledger.Open(ledger.StoreOptions{Path: filepath.Join(dir, "llm", "ledger.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	st.closed = append(st.closed, lst.Close)
	sem, err := semcache.Open(semcache.Options{Path: filepath.Join(dir, "semcache.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	st.closed = append(st.closed, sem.Close)
	qual, err := quality.Open(quality.Options{Path: filepath.Join(dir, "quality.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	st.closed = append(st.closed, qual.Close)
	st.client = ledger.Wrap(expertsim.New(), lst, ledger.WrapOptions{})
	st.svc, err = Open(Config{Dir: dir, Client: st.client, Paused: paused, Ledger: lst,
		SemCache: sem, Quality: qual, ShadowSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// close drains the service, then closes the journals it writes.
func (st *killStack) close(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := st.svc.Close(ctx); err != nil {
		t.Errorf("closing the service: %v", err)
	}
	for _, c := range st.closed {
		c()
	}
}

// TestKillAtAnyPoint SIGKILLs a child service, one at a time, at seeded
// moments of a seeded mix of uploads and chat, over one data directory.
// After each kill the service reopens and every job the child accepted
// is a record that ends done or reused with a report; no temp file, no
// file of an id without a record and no input of a settled job is left;
// and the other journals reopen.
func TestKillAtAnyPoint(t *testing.T) {
	if dir := os.Getenv(killDirEnv); dir != "" {
		seed, _ := strconv.Atoi(os.Getenv(killSeedEnv))
		killChild(t, dir, seed)
		return
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	var accepted []string
	for round := 0; round < killRounds; round++ {
		delay := time.Duration(300+rng.Intn(1200)) * time.Millisecond
		ids, output := killChildAfter(t, dir, round, delay)
		accepted = append(accepted, ids...)
		if !checkAfterKill(t, dir, accepted) {
			t.Fatalf("round %d, killed after %v; the child's output:\n%s", round, delay, output)
		}
	}
	t.Logf("%d rounds, %d accepted submissions", killRounds, len(accepted))
}

// killChild is the child service: it submits whole-body and paced
// streamed header-changed copies of the families and exact duplicates,
// and asks about finished reports, printing each job id once Submit
// returns, until it is killed.
func killChild(t *testing.T, dir string, seed int) {
	st := openKillStack(t, dir, false)
	rng := rand.New(rand.NewSource(int64(seed)))
	fams := bundled()
	var bodies [][]byte
	var ids []string
	for i := 0; ; i++ {
		name := fams[rng.Intn(len(fams))].Name
		body := textTrace(t, name, 1000*seed+i)
		var (
			j   Job
			err error
		)
		switch r := rng.Intn(10); {
		case r < 4:
			j, _, err = st.svc.Submit(name, body)
		case r < 7:
			j, _, err = st.svc.SubmitStream(name, pacedReader{bytes.NewReader(body)})
		case r < 8 && len(bodies) > 0:
			j, _, err = st.svc.Submit(name, bodies[rng.Intn(len(bodies))])
		default:
			if len(ids) > 0 {
				killChat(t, st, ids[rng.Intn(len(ids))], calQuestions[rng.Intn(len(calQuestions))])
			}
			continue
		}
		if errors.Is(err, ErrQueueFull) {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
		ids = append(ids, j.ID)
		fmt.Printf("submitted %s\n", j.ID)
	}
}

// killChat asks one question about a job's report, if it has one yet.
func killChat(t *testing.T, st *killStack, id, question string) {
	rep, err := st.svc.Report(id)
	if err != nil {
		return
	}
	sess, err := ion.NewSession(st.client, rep)
	if err == nil {
		_, err = sess.Ask(llm.WithJobID(context.Background(), id), question)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// killChildAfter starts a child service over dir, SIGKILLs it after
// delay, and returns the job ids it printed and the rest of its output.
func killChildAfter(t *testing.T, dir string, seed int, delay time.Duration) (ids []string, output string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillAtAnyPoint$", "-test.count=1")
	cmd.Env = append(os.Environ(), killDirEnv+"="+dir, killSeedEnv+"="+strconv.Itoa(seed))
	var rest bytes.Buffer
	cmd.Stderr = &rest
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var other strings.Builder
	exited := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if id, ok := strings.CutPrefix(sc.Text(), "submitted "); ok {
				ids = append(ids, id)
			} else {
				fmt.Fprintln(&other, sc.Text())
			}
		}
		exited <- cmd.Wait()
	}()
	select {
	case err := <-exited:
		t.Fatalf("the child exited before it was killed (%v):\n%s%s", err, other.String(), rest.String())
	case <-time.After(delay):
	}
	cmd.Process.Kill()
	<-exited
	return ids, other.String() + rest.String()
}

// checkAfterKill reopens the stack over dir and reports whether every
// check held: first paused, to look at what Open's sweep left with
// nothing running, then with workers until every job has settled.
func checkAfterKill(t *testing.T, dir string, accepted []string) bool {
	t.Helper()
	st := openKillStack(t, dir, true)
	for _, id := range accepted {
		if _, err := st.svc.Get(id); err != nil {
			t.Errorf("accepted job %s: %v", id, err)
		}
	}
	checkLeftovers(t, dir, st.svc)
	st.close(t)

	st = openKillStack(t, dir, false)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, j := range st.svc.List() {
		got, err := st.svc.Wait(ctx, j.ID)
		if err != nil || !got.State.Succeeded() {
			t.Errorf("job %s (%s): state %s (%s), %v; want done or reused", j.ID, j.Trace, got.State, got.Error, err)
			continue
		}
		if _, err := st.svc.Report(j.ID); err != nil {
			t.Errorf("job %s (%s): %v", j.ID, j.Trace, err)
		}
	}
	// Close ends the shadow re-runs, which remove their jobs' inputs.
	st.close(t)
	checkLeftovers(t, dir, st.svc)
	return !t.Failed()
}

// checkLeftovers fails the test on what no crash may leave behind: a
// temp file, a file of an id without a record, or a trace or work
// directory of a settled job.
func checkLeftovers(t *testing.T, dir string, svc *Service) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("temp file %s is left", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"traces", "work", "reports"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			id := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(e.Name(), ".darshan"), ".json"), ".trace")
			j, err := svc.Get(id)
			switch {
			case err != nil:
				t.Errorf("%s/%s: no job record", sub, e.Name())
			case sub != "reports" && j.State.Terminal():
				t.Errorf("%s/%s: the job has settled (%s)", sub, e.Name(), j.State)
			}
		}
	}
}
