package webui

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ion/internal/expertsim"
	"ion/internal/ion"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/prompt"
	"ion/internal/testutil"
)

// chatBackend serves diagnoses from expertsim and answers each chat
// call with "answer to: <question>". With quorum > 0, a chat call is
// held until quorum chat calls have arrived, and fails if they do not
// arrive within holdTimeout. It records the most chat calls in flight
// at once per job and the job id each chat call carried.
type chatBackend struct {
	llm.Client
	quorum int

	mu          sync.Mutex
	arrived     int
	met         chan struct{} // closed when arrived reaches quorum
	inflight    map[string]int
	maxInflight map[string]int
	jobs        []string
}

const holdTimeout = 10 * time.Second

func newChatBackend(quorum int) *chatBackend {
	return &chatBackend{
		Client: expertsim.New(), quorum: quorum, met: make(chan struct{}),
		inflight: map[string]int{}, maxInflight: map[string]int{},
	}
}

func (b *chatBackend) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if req.Metadata[prompt.MetaKind] != prompt.KindChat {
		return b.Client.Complete(ctx, req)
	}
	job := llm.JobIDFrom(ctx)
	b.mu.Lock()
	b.jobs = append(b.jobs, job)
	b.inflight[job]++
	b.maxInflight[job] = max(b.maxInflight[job], b.inflight[job])
	b.arrived++
	if b.arrived == b.quorum {
		close(b.met)
	}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.inflight[job]--
		b.mu.Unlock()
	}()
	if b.quorum > 0 {
		select {
		case <-b.met:
		case <-time.After(holdTimeout):
			return llm.Completion{}, fmt.Errorf("held chat call: %d of %d chat calls arrived", b.arrivedCount(), b.quorum)
		}
	} else {
		// Leave room for a second turn on the same session to overlap.
		time.Sleep(5 * time.Millisecond)
	}
	last := req.Messages[len(req.Messages)-1].Content
	_, q, _ := strings.Cut(last, "## Question\n\n")
	return llm.Completion{Content: "answer to: " + strings.TrimSpace(q)}, nil
}

func (b *chatBackend) arrivedCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.arrived
}

// postAsk posts one question to a job's chat and returns the answer.
func postAsk(base, id, question string) (string, error) {
	body, _ := json.Marshal(map[string]string{"question": question})
	resp, err := http.Post(base+"/api/jobs/"+id+"/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return "", fmt.Errorf("ask %s: status %d: %s", id, resp.StatusCode, strings.TrimSpace(msg.String()))
	}
	var ar askResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return "", err
	}
	return ar.Answer, nil
}

// chatServer builds a job server over backend and runs one finished
// job per named workload.
func chatServer(t *testing.T, backend *chatBackend, workloads ...string) (string, *JobServer, []string) {
	t.Helper()
	svc, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Workers: 2, Client: backend})
	if err != nil {
		t.Fatal(err)
	}
	js, err := NewJobServer(backend, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(js.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close(t.Context())
	})
	var ids []string
	for _, w := range workloads {
		log, err := testutil.Log(w)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := log.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		sr, st := postTrace(t, srv.URL+"/api/jobs?name="+w, buf.Bytes())
		if st != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", w, st)
		}
		if job := waitJobDone(t, srv.URL, sr.Job.ID); job.State != jobs.StateDone {
			t.Fatalf("%s: state %s (%s)", w, job.State, job.Error)
		}
		ids = append(ids, sr.Job.ID)
	}
	return srv.URL, js, ids
}

// TestChatAsksRunConcurrently: questions on two jobs are in flight at
// once. The backend holds each chat call until the second one arrives,
// so a server that answers one question at a time fails it after the
// hold times out. Each chat call carries its job's id.
func TestChatAsksRunConcurrently(t *testing.T) {
	backend := newChatBackend(2)
	base, _, ids := chatServer(t, backend, "ior-hard", "md-workbench")

	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := fmt.Sprintf("what slows job %d down?", i)
			answer, err := postAsk(base, id, q)
			if err == nil && answer != "answer to: "+q {
				err = fmt.Errorf("answer %q to %q", answer, q)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	seen := map[string]bool{}
	for _, job := range backend.jobs {
		seen[job] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("no chat call carried job id %s (saw %q)", id, backend.jobs)
		}
	}
}

// TestChatOneJobAnswersInOrder: concurrent questions on one job are
// answered one at a time, each answer goes back to its own asker, and
// the session history pairs every question with its own answer.
func TestChatOneJobAnswersInOrder(t *testing.T) {
	backend := newChatBackend(0)
	base, js, ids := chatServer(t, backend, "ior-hard")
	id := ids[0]

	const n = 6 // within the session's retained history
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := fmt.Sprintf("question %d about the small writes?", i)
			answer, err := postAsk(base, id, q)
			if err == nil && answer != "answer to: "+q {
				err = fmt.Errorf("answer %q to %q", answer, q)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	backend.mu.Lock()
	most := backend.maxInflight[id]
	backend.mu.Unlock()
	if most != 1 {
		t.Errorf("%d chat calls on one job in flight at once, want 1", most)
	}

	sess := js.chats.keep(id, nil)
	if sess == nil {
		t.Fatal("no session kept for the job")
	}
	hist := sess.History()
	if len(hist) != 2*n {
		t.Fatalf("history holds %d messages, want %d", len(hist), 2*n)
	}
	asked := map[string]bool{}
	for k := 0; k < len(hist); k += 2 {
		q, a := hist[k], hist[k+1]
		if q.Role != llm.RoleUser || a.Role != llm.RoleAssistant || a.Content != "answer to: "+q.Content {
			t.Errorf("turn %d: %s %q / %s %q", k/2, q.Role, q.Content, a.Role, a.Content)
		}
		asked[q.Content] = true
	}
	if len(asked) != n {
		t.Errorf("history holds %d distinct questions, want %d", len(asked), n)
	}
}

// TestChatSessionsEvictLeastRecentlyUsed: past the bound, the session
// used longest ago goes; a lookup counts as a use, and a racing keep
// returns the session kept first.
func TestChatSessionsEvictLeastRecentlyUsed(t *testing.T) {
	c := chats{max: 2}
	sess := func() *ion.Session {
		s, err := ion.NewSession(expertsim.New(), &ion.Report{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if c.keep("a", nil) != nil {
		t.Fatal("a lookup created a session")
	}
	a, b := sess(), sess()
	if c.keep("a", a) != a || c.keep("b", b) != b {
		t.Fatal("keep did not keep a new session")
	}
	if c.keep("a", sess()) != a {
		t.Error("a second keep replaced the session kept first")
	}
	c.keep("b", nil)
	c.keep("a", nil) // b is now the least recently used
	c.keep("c", sess())
	if c.keep("b", nil) != nil {
		t.Error("least recently used session b survived past the bound")
	}
	if c.keep("a", nil) != a || c.keep("c", nil) == nil {
		t.Error("a recently used session was evicted")
	}
}
