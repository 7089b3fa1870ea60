package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ion/internal/ion"
	"ion/internal/issue"
)

// TestStoreJobRoundTrip: a job record written to the job table reads
// back the same after a reopen.
func TestStoreJobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	table, err := openJobs(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := Job{
		ID:          "j-0123456789ab",
		Trace:       "ior-hard",
		Hash:        "deadbeef",
		State:       StateQueued,
		Attempts:    1,
		SubmittedAt: time.Now().UTC().Truncate(time.Second),
	}
	if err := table.Put(j); err != nil {
		t.Fatal(err)
	}
	table.Close()
	if table, err = openJobs(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	back, ok := table.Get(j.ID)
	if !ok {
		t.Fatal("record lost across a reopen")
	}
	if back.ID != j.ID || back.Trace != j.Trace || back.State != j.State || !back.SubmittedAt.Equal(j.SubmittedAt) {
		t.Errorf("round-trip mismatch: %+v != %+v", back, j)
	}
}

func TestStoreGetJobNotFound(t *testing.T) {
	svc := openService(t, Config{Paused: true})
	if _, err := svc.Get("j-aaaaaaaaaaaa"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing job error = %v, want ErrNotFound", err)
	}
	st := svc.Store()
	if _, err := st.Trace("j-aaaaaaaaaaaa"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing trace error = %v, want ErrNotFound", err)
	}
	if _, err := st.Report("j-aaaaaaaaaaaa"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing report error = %v, want ErrNotFound", err)
	}
}

// TestStoreRejectsBadIDs: no id that could escape the store layout names
// a record or a file.
func TestStoreRejectsBadIDs(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "../escape", "a/b", "UPPER", "j..j", "j j"} {
		if err := (Job{ID: id, State: StateQueued}).check(); err == nil {
			t.Errorf("the job table accepts id %q", id)
		}
		if err := st.PutTrace(id, []byte("x")); err == nil {
			t.Errorf("PutTrace accepted id %q", id)
		}
		if _, err := st.Report(id); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Report(%q) = %v, want an invalid-id error", id, err)
		}
	}
}

// TestStoreJobsSkipsGarbage: a torn tail, a garbage line and a record
// with an unknown state in jobs.jsonl do not poison recovery, and the
// one valid record is recovered.
func TestStoreJobsSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	table, err := openJobs(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Put(Job{ID: "j-0123456789ab", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	table.Close()
	f, err := os.OpenFile(filepath.Join(dir, "jobs.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not a job\n" + `{"id":"j-badstate1234","state":"exploded"}` + "\n" + `{"id": "j-to`)
	f.Close()

	svc := openService(t, Config{Dir: dir, Paused: true})
	jobs := svc.List()
	if len(jobs) != 1 || jobs[0].ID != "j-0123456789ab" || jobs[0].State != StateQueued {
		t.Errorf("List() = %+v, want the one valid record", jobs)
	}
	if st := svc.Stats(); st.Recovered != 1 {
		t.Errorf("recovered %d jobs, want 1", st.Recovered)
	}
}

func TestStoreTraceAndReportRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := "j-0123456789ab"
	if err := st.PutTrace(id, []byte("trace bytes")); err != nil {
		t.Fatal(err)
	}
	data, err := st.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "trace bytes" {
		t.Errorf("trace round-trip = %q", data)
	}

	rep := &ion.Report{
		Trace:     "ior-hard",
		Diagnoses: map[issue.ID]*ion.IssueDiagnosis{},
		Summary:   "all clear",
	}
	if err := st.PutReport(id, rep); err != nil {
		t.Fatal(err)
	}
	back, err := st.Report(id)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trace != rep.Trace || back.Summary != rep.Summary {
		t.Errorf("report round-trip = %+v", back)
	}
}
