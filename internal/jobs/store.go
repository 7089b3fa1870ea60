package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ion/internal/ion"
	"ion/internal/journal"
	"ion/internal/obs"
)

// maxJobs bounds the job table, as the other journals' default bounds
// theirs. A var so tests can lower it.
var maxJobs = 4096

// openJobs replays the job table: the job records, one journal keyed by
// job id at <dir>/jobs.jsonl and bounded at maxJobs records. evicted
// sees each record the bound drops.
func openJobs(dir string, evicted func(Job)) (*journal.Store[Job], error) {
	return journal.Open(journal.Options[Job]{
		Path:       filepath.Join(dir, "jobs.jsonl"),
		Key:        func(j Job) string { return j.ID },
		Size:       func(Job) int64 { return 0 },
		Check:      Job.check,
		MaxRecords: maxJobs,
		Evicted:    evicted,
	})
}

// check rejects a record the job table must not hold.
func (j Job) check() error {
	if !j.State.Valid() {
		return fmt.Errorf("jobs: job %q has unknown state %q", j.ID, j.State)
	}
	return validID(j.ID)
}

// Store keeps the files of the jobs in the job table under a data
// directory:
//
//	<dir>/traces/<id>.darshan        submitted trace bytes, until the job settles
//	<dir>/work/<id>/                 per-job CSV extraction workspace, until the job settles
//	<dir>/reports/<id>.json          finished report (ion versioned envelope)
//	<dir>/reports/<id>.trace.json    span timeline of the analysis run
//
// Writes go through a temp file and a rename, so a crash mid-write never
// leaves a torn file, and sweep removes whatever a crash leaves behind.
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens the data directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: store directory is required")
	}
	for _, sub := range storeDirs {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("jobs: opening store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// storeDirs are the subdirectories a Store owns.
var storeDirs = []string{"traces", "work", "reports"}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// WorkDir returns the per-job CSV extraction directory.
func (s *Store) WorkDir(id string) string {
	return filepath.Join(s.dir, "work", id)
}

// PutTrace persists the submitted trace bytes for a job, given as
// segments written in order.
func (s *Store) PutTrace(id string, segs ...[]byte) error {
	return s.write("traces", id, ".darshan", segs...)
}

// Trace opens the submitted trace of a job for reading and returns its
// size. The caller closes the file.
func (s *Store) Trace(id string) (*os.File, int64, error) {
	if err := validID(id); err != nil {
		return nil, 0, err
	}
	f, err := os.Open(filepath.Join(s.dir, "traces", id+".darshan"))
	if os.IsNotExist(err) {
		return nil, 0, ErrNotFound
	}
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("jobs: %w", err)
	}
	return f, fi.Size(), nil
}

// PutReport persists a finished report.
func (s *Store) PutReport(id string, rep *ion.Report) error {
	var b bytes.Buffer
	if err := rep.EncodeJSON(&b); err != nil {
		return err
	}
	return s.write("reports", id, ".json", b.Bytes())
}

// Report reads back the report for a completed job.
func (s *Store) Report(id string) (*ion.Report, error) {
	data, err := s.read("reports", id, ".json")
	if err != nil {
		return nil, err
	}
	rep, err := ion.DecodeJSON(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("jobs: report for %s: %w", id, err)
	}
	return rep, nil
}

// PutTimeline persists the span timeline of a job's analysis run next
// to its report.
func (s *Store) PutTimeline(id string, tl obs.Timeline) error {
	data, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: marshaling timeline for %s: %w", id, err)
	}
	return s.write("reports", id, ".trace.json", data)
}

// Timeline reads back the raw timeline JSON for a job, for the HTTP
// layer to serve verbatim.
func (s *Store) Timeline(id string) ([]byte, error) {
	return s.read("reports", id, ".trace.json")
}

// read returns the bytes of a job's file, or ErrNotFound.
func (s *Store) read(sub, id, suffix string) ([]byte, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, sub, id+suffix))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return data, nil
}

// write writes a job's file, the concatenation of data, through a temp
// file and a rename, so readers never observe a partial file.
func (s *Store) write(sub, id, suffix string, data ...[]byte) error {
	if err := validID(id); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, sub), ".tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	for _, d := range data {
		if _, err = tmp.Write(d); err != nil {
			break
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(s.dir, sub, id+suffix))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: writing %s for %s: %w", sub, id, err)
	}
	return nil
}

// removeInputs deletes a job's trace and work directory, which nothing
// reads once the job has settled and its shadow re-run, if any, has
// ended. What a removal misses, the next sweep removes.
func (s *Store) removeInputs(id string) {
	os.Remove(filepath.Join(s.dir, "traces", id+".darshan"))
	os.RemoveAll(s.WorkDir(id))
}

// removeOutputs deletes an evicted job's report and timeline. What it
// misses, the next sweep removes.
func (s *Store) removeOutputs(id string) {
	os.Remove(filepath.Join(s.dir, "reports", id+".json"))
	os.Remove(filepath.Join(s.dir, "reports", id+".trace.json"))
}

// sweep removes what a crash can leave in the store's directories: temp
// files, the files of any id without a record in get, and the inputs of
// settled jobs. Its errors are dropped: nothing reads what it misses,
// and the next Open sweeps again.
func (s *Store) sweep(get func(id string) (Job, bool)) {
	for _, sub := range storeDirs {
		entries, _ := os.ReadDir(filepath.Join(s.dir, sub))
		for _, e := range entries {
			// <id>, <id>.darshan, <id>.json or <id>.trace.json; a
			// ".tmp-*" name has no record.
			id := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(e.Name(), ".darshan"), ".json"), ".trace")
			if j, ok := get(id); !ok || (j.State.Terminal() && sub != "reports") {
				os.RemoveAll(filepath.Join(s.dir, sub, e.Name()))
			}
		}
	}
}

// validID guards file-name construction: ids are generated internally,
// but the job table and the HTTP layer hand back ids read from disk and
// from URLs, so reject anything that could escape the store layout.
func validID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("jobs: invalid job id %q", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
		default:
			return fmt.Errorf("jobs: invalid job id %q", id)
		}
	}
	return nil
}
