package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/semcache"
)

// dataFiles maps each file under dir, by slash-separated relative path,
// to its size.
func dataFiles(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[filepath.ToSlash(rel)] = info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSettledJobKeepsOnlyItsReport runs the 12 families twice, the
// second copies header-changed and reused, every reuse shadowed. Once
// every job and shadow has settled, each job has its record, report and
// timeline under the data directory, and no trace or work file is left.
func TestSettledJobKeepsOnlyItsReport(t *testing.T) {
	dir := t.TempDir()
	lst, err := ledger.Open(ledger.StoreOptions{Path: filepath.Join(dir, "llm", "ledger.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lst.Close() })
	svc := openService(t, Config{
		Dir:              dir,
		Workers:          2,
		Client:           ledger.Wrap(expertsim.New(), lst, ledger.WrapOptions{}),
		Ledger:           lst,
		SemCache:         openSemStore(t, semcache.Options{Path: filepath.Join(dir, "semcache.jsonl")}),
		Quality:          openQualStore(t, filepath.Join(dir, "quality.jsonl")),
		ShadowSampleRate: 2,
	})
	want := map[string]bool{"jobs.jsonl": true, "llm/ledger.jsonl": true, "semcache.jsonl": true, "quality.jsonl": true}
	var ids []string
	for round := 0; round < 2; round++ {
		for _, w := range bundled() {
			j := submitWait(t, svc, w.Name, textTrace(t, w.Name, round))
			if !j.State.Succeeded() {
				t.Fatalf("%s: state %s (%s)", w.Name, j.State, j.Error)
			}
			ids = append(ids, j.ID)
			want["reports/"+j.ID+".json"] = true
			want["reports/"+j.ID+".trace.json"] = true
		}
	}
	svc.shadowWG.Wait()

	files := dataFiles(t, dir)
	var total int64
	for name, size := range files {
		total += size
		if !want[name] {
			t.Errorf("%s is left under the data directory", name)
		}
	}
	for name := range want {
		if _, ok := files[name]; !ok {
			t.Errorf("%s is missing", name)
		}
	}
	t.Logf("%.3f MiB per job over %d jobs, journals included", float64(total)/float64(len(ids))/(1<<20), len(ids))
}

// TestJobTableBound lowers the job table's bound: the oldest settled
// jobs go together with their report, timeline, dedup entry and
// semantic-cache entry; their bytes make a new job; a reopen keeps the
// live set; and Open refuses a queue the bound cannot hold.
func TestJobTableBound(t *testing.T) {
	defer func(n int) { maxJobs = n }(maxJobs)
	maxJobs = 6
	dir := t.TempDir()
	sem := openSemStore(t, semcache.Options{})
	// Both reuse tiers off: every job is a fresh diagnosis with its own
	// semantic-cache entry.
	cfg := Config{Dir: dir, Workers: 1, QueueDepth: 2, SemCache: sem, SemReuseThreshold: 1.5, SemConditionThreshold: 1.5}
	svc := openService(t, cfg)
	fams := bundled()
	var jobs []Job
	for _, w := range fams[:9] {
		jobs = append(jobs, submitWait(t, svc, w.Name, traceBytes(t, w.Name)))
	}

	evicted := map[string]bool{}
	for _, j := range jobs[:3] {
		evicted[j.ID] = true
		if _, err := svc.Get(j.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("evicted job %s: Get = %v, want ErrNotFound", j.Trace, err)
		}
		if _, err := svc.Store().Report(j.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("evicted job %s: report %v, want it removed", j.Trace, err)
		}
		if _, err := svc.Store().Timeline(j.ID); !errors.Is(err, ErrNotFound) {
			t.Errorf("evicted job %s: timeline %v, want it removed", j.Trace, err)
		}
	}
	for _, j := range jobs[3:] {
		if got, err := svc.Get(j.ID); err != nil || got.State != StateDone {
			t.Errorf("live job %s: %+v, %v", j.Trace, got, err)
		}
		if _, err := svc.Report(j.ID); err != nil {
			t.Errorf("live job %s: report %v", j.Trace, err)
		}
	}
	for _, e := range sem.Entries() {
		if evicted[e.JobID] != e.Revoked {
			t.Errorf("semantic-cache entry of %s: revoked %v, want %v", e.Trace, e.Revoked, evicted[e.JobID])
		}
	}
	if st := svc.Stats(); st.Jobs != maxJobs {
		t.Errorf("%d records live, want the bound, %d", st.Jobs, maxJobs)
	}

	again, dedup, err := svc.Submit("again", traceBytes(t, fams[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	if dedup || again.ID == jobs[0].ID {
		t.Fatalf("an evicted job's bytes were answered from the dedup cache (dedup %v, id %s)", dedup, again.ID)
	}
	if got := waitDone(t, svc, again.ID); got.State != StateDone {
		t.Fatalf("resubmitted job: state %s (%s)", got.State, got.Error)
	}

	live := func(svc *Service) []string {
		var ids []string
		for _, j := range svc.List() {
			ids = append(ids, j.ID)
		}
		slices.Sort(ids)
		return ids
	}
	before := live(svc)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	svc.Close(ctx)
	if after := live(openService(t, cfg)); !slices.Equal(after, before) {
		t.Errorf("reopen kept %v, want %v", after, before)
	}

	if _, err := Open(Config{Dir: t.TempDir(), Client: expertsim.New(), Workers: 2, QueueDepth: maxJobs - 2}); err == nil {
		t.Error("Open accepted a queue depth plus workers at the job table's bound")
	}
}

// holdClient holds every call made for the first job it sees until
// release is closed; calls for other jobs pass.
type holdClient struct {
	llm.Client
	once    sync.Once
	held    string
	started chan struct{} // closed when the held job's first call arrives
	release chan struct{}
}

func (c *holdClient) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	id := llm.JobIDFrom(ctx)
	c.once.Do(func() {
		c.held = id
		close(c.started)
	})
	if id == c.held {
		select {
		case <-c.release:
		case <-ctx.Done():
			return llm.Completion{}, ctx.Err()
		}
	}
	return c.Client.Complete(ctx, req)
}

// TestUnsettledJobOutlivesTheBound: a job held in its attempt while
// more jobs than the bound settle around it keeps its record, and ends
// done once released. Only settled jobs are evicted.
func TestUnsettledJobOutlivesTheBound(t *testing.T) {
	defer func(n int) { maxJobs = n }(maxJobs)
	maxJobs = 4
	hold := &holdClient{Client: expertsim.New(), started: make(chan struct{}), release: make(chan struct{})}
	svc := openService(t, Config{Workers: 2, QueueDepth: 1, Client: hold})
	held, _, err := svc.Submit("held", textTrace(t, "ior-hard", 0))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hold.started:
	case <-time.After(30 * time.Second):
		t.Fatal("the held job never reached the backend")
	}
	for i := 1; i <= 2*maxJobs; i++ {
		if j := submitWait(t, svc, "other", textTrace(t, "ior-hard", i)); j.State != StateDone {
			t.Fatalf("job %d: state %s (%s)", i, j.State, j.Error)
		}
	}
	if got, err := svc.Get(held.ID); err != nil || got.State != StateRunning {
		t.Fatalf("held job after %d others settled: %+v, %v; want it running", 2*maxJobs, got, err)
	}
	if st := svc.Stats(); st.Jobs != maxJobs {
		t.Errorf("%d records live, want the bound, %d", st.Jobs, maxJobs)
	}
	close(hold.release)
	if got := waitDone(t, svc, held.ID); got.State != StateDone {
		t.Fatalf("held job: state %s (%s)", got.State, got.Error)
	}
	if _, err := svc.Report(held.ID); err != nil {
		t.Fatalf("held job: report %v", err)
	}
}

// TestReplayKeepsAJobsLastEviction replays a table in which one job was
// evicted while running, put back, settled, and evicted again: the
// reopened service must not bring back the running copy.
func TestReplayKeepsAJobsLastEviction(t *testing.T) {
	defer func(n int) { maxJobs = n }(maxJobs)
	maxJobs = 2
	dir := t.TempDir()
	table, err := openJobs(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := Job{ID: "j-000000000001", State: StateRunning}
	settled := func(id string) Job { return Job{ID: id, State: StateDone} }
	// The writes a service makes: the running job is evicted by the
	// second settled job and put back, then it settles, and two more
	// jobs evict it again.
	for _, j := range []Job{u, settled("j-00000000000a"), settled("j-00000000000b"), u,
		settled(u.ID), settled("j-00000000000c"), settled("j-00000000000d")} {
		if err := table.Put(j); err != nil {
			t.Fatal(err)
		}
	}
	table.Close()
	svc := openService(t, Config{Dir: dir, Paused: true, QueueDepth: 1})
	if got, err := svc.Get(u.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("the evicted job came back as %+v (%v)", got, err)
	}
	if st := svc.Stats(); st.Recovered != 0 || st.Jobs != maxJobs {
		t.Errorf("recovered %d jobs, %d live; want none recovered and %d live", st.Recovered, st.Jobs, maxJobs)
	}
}

// TestOldLayoutDataDirRefused: Open refuses a data directory in the
// older layout, one jobs/<id>.json file per job, and leaves it as it
// was; its start-up sweep would have removed those jobs' traces and
// reports as record-less.
func TestOldLayoutDataDirRefused(t *testing.T) {
	dir := t.TempDir()
	job := Job{ID: newID(), Trace: "ior-hard", State: StateDone, SubmittedAt: time.Now()}
	rec, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"jobs/" + job.ID + ".json":          rec,
		"traces/" + job.ID + ".darshan":     traceBytes(t, "ior-hard"),
		"reports/" + job.ID + ".json":       []byte(`{"trace":"ior-hard"}`),
		"reports/" + job.ID + ".trace.json": []byte(`{"spans":[]}`),
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dataFiles(t, dir)
	if svc, err := Open(Config{Dir: dir, Client: expertsim.New()}); err == nil {
		svc.Close(context.Background())
		t.Error("Open accepted a data directory in the old layout")
	} else if !strings.Contains(err.Error(), "jobs/<id>.json") {
		t.Errorf("error does not name the old layout: %v", err)
	}
	if after := dataFiles(t, dir); !maps.Equal(after, before) {
		t.Errorf("data directory changed: %v, was %v", after, before)
	}
}
