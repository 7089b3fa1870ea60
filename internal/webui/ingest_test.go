package webui

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ion/internal/darshan"
	"ion/internal/expertsim"
	"ion/internal/jobs"
	"ion/internal/obs"
	"ion/internal/testutil"
)

// paddedText renders a workload as darshan-parser text, padded with
// metadata comments to at least minBytes.
func paddedText(t *testing.T, workload string, minBytes int) []byte {
	t.Helper()
	log, err := testutil.Log(workload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := log.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteDXTText(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; buf.Len() < minBytes; i++ {
		fmt.Fprintf(&buf, "# metadata: pad_%d = %d\n", i, i)
	}
	return buf.Bytes()
}

// pacedReader hands out its body 64 KiB per Read, a millisecond apart,
// the way an upload arrives over a network. It has no Len, so a POST
// of it goes out chunked.
type pacedReader struct{ r io.Reader }

func (p pacedReader) Read(b []byte) (int, error) {
	time.Sleep(time.Millisecond)
	if len(b) > 64<<10 {
		b = b[:64<<10]
	}
	return p.r.Read(b)
}

// TestSubmitEndpointBudget: POST /api/jobs charges its body to the
// ingest buffer budget, as the stream route does. Past a 1 MiB budget
// a 2 MB text body answers 429 with Retry-After; a 0.5 MB body is
// accepted.
func TestSubmitEndpointBudget(t *testing.T) {
	srv, _ := jobServer(t, jobs.Config{Paused: true, StreamMaxBuffer: 1 << 20})
	resp, err := http.Post(srv.URL+"/api/jobs?name=big", "application/octet-stream",
		bytes.NewReader(paddedText(t, "ior-hard", 2_000_000)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("2 MB body: status %d, Retry-After %q; want 429 with a Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if _, status := postTrace(t, srv.URL+"/api/jobs?name=small", paddedText(t, "ior-rnd4k", 500_000)); status != http.StatusAccepted {
		t.Fatalf("0.5 MB body: status %d, want 202", status)
	}
}

// TestEveryEntryPointRecordsOneParse: whichever way a text trace
// enters the service — an in-process Submit, a whole-body POST, a
// chunked POST arriving over time, or a job recovered after a paused
// restart — its timeline holds exactly one parse span with at least one
// parse_shard child, and ion_pipeline_stage_seconds counts one parse
// per job.
func TestEveryEntryPointRecordsOneParse(t *testing.T) {
	body := paddedText(t, "ior-hard", 1_500_000)
	for _, tc := range []struct {
		name string
		// submit sends body to a service over dir reporting into reg
		// and returns the service with the job's id.
		submit func(t *testing.T, dir string, reg *obs.Registry) (*jobs.Service, string)
	}{
		{"submit", func(t *testing.T, dir string, reg *obs.Registry) (*jobs.Service, string) {
			_, svc := jobServer(t, jobs.Config{Dir: dir, Workers: 1, Obs: reg})
			j, _, err := svc.Submit("ior-hard", body)
			if err != nil {
				t.Fatal(err)
			}
			return svc, j.ID
		}},
		{"whole-body POST", func(t *testing.T, dir string, reg *obs.Registry) (*jobs.Service, string) {
			srv, svc := jobServer(t, jobs.Config{Dir: dir, Workers: 1, Obs: reg})
			sr, status := postTrace(t, srv.URL+"/api/jobs?name=ior-hard", body)
			if status != http.StatusAccepted {
				t.Fatalf("status %d, want 202", status)
			}
			return svc, sr.Job.ID
		}},
		{"chunked POST", func(t *testing.T, dir string, reg *obs.Registry) (*jobs.Service, string) {
			srv, svc := jobServer(t, jobs.Config{Dir: dir, Workers: 1, Obs: reg})
			resp, err := http.Post(srv.URL+"/api/jobs/stream?name=ior-hard", "application/octet-stream",
				pacedReader{bytes.NewReader(body)})
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var sr submitResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("status %d, decode error %v; want 202", resp.StatusCode, err)
			}
			return svc, sr.Job.ID
		}},
		{"recovered", func(t *testing.T, dir string, reg *obs.Registry) (*jobs.Service, string) {
			paused, err := jobs.Open(jobs.Config{Dir: dir, Client: expertsim.New(), Paused: true})
			if err != nil {
				t.Fatal(err)
			}
			j, _, err := paused.Submit("ior-hard", body)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := paused.Close(ctx); err != nil {
				t.Fatal(err)
			}
			_, svc := jobServer(t, jobs.Config{Dir: dir, Workers: 1, Obs: reg})
			return svc, j.ID
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			svc, id := tc.submit(t, t.TempDir(), reg)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if j, err := svc.Wait(ctx, id); err != nil || j.State != jobs.StateDone {
				t.Fatalf("job %s: state %s (%s), err %v; want done", id, j.State, j.Error, err)
			}
			raw, err := svc.Store().Timeline(id)
			if err != nil {
				t.Fatal(err)
			}
			var tl obs.Timeline
			if err := json.Unmarshal(raw, &tl); err != nil {
				t.Fatal(err)
			}
			var parses []obs.SpanRecord
			for _, r := range tl.Spans {
				if r.Name == "parse" {
					parses = append(parses, r)
				}
			}
			if len(parses) != 1 {
				t.Fatalf("%d parse spans, want exactly one", len(parses))
			}
			shards := 0
			for _, k := range tl.Children(parses[0].ID) {
				if k.Name == "parse_shard" {
					shards++
				}
			}
			if shards == 0 {
				t.Error("the parse span has no parse_shard child")
			}
			h := reg.Histogram("ion_pipeline_stage_seconds", "", nil, obs.L("stage", "parse"))
			if h.Count() != 1 {
				t.Errorf("ion_pipeline_stage_seconds{stage=\"parse\"} counts %d parses for one job", h.Count())
			}
		})
	}
}

// TestOverlongLineRejectedEverywhere: a text body with a line longer
// than the parser accepts (16 MiB) between two traces is rejected at
// that line's position by ParseText, ParseTextParallel, Submit, and
// both POST routes, with a declared length and chunked. None admits the
// trace cut short at that line.
func TestOverlongLineRejectedEverywhere(t *testing.T) {
	first := paddedText(t, "ior-hard", 0)
	body := append(append([]byte{}, first...), "# metadata: long = "...)
	body = append(body, bytes.Repeat([]byte{'x'}, 17<<20)...)
	body = append(append(body, '\n'), paddedText(t, "ior-easy-1m-shared", 0)...)
	want := fmt.Sprintf("darshan: line %d (byte %d): line too long", bytes.Count(first, []byte{'\n'})+1, len(first))

	_, err := darshan.ParseText(bytes.NewReader(body))
	if err == nil || err.Error() != want {
		t.Fatalf("ParseText: %v, want %s", err, want)
	}
	if _, err := darshan.ParseTextParallel(body, 2); err == nil || err.Error() != want {
		t.Fatalf("ParseTextParallel: %v, want %s", err, want)
	}
	srv, svc := jobServer(t, jobs.Config{Paused: true})
	if _, _, err := svc.Submit("probe", body); !errors.Is(err, jobs.ErrBadTrace) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Submit: %v, want ErrBadTrace with %s", err, want)
	}
	for _, route := range []struct {
		path string
		body io.Reader
	}{
		{"/api/jobs?name=probe", bytes.NewReader(body)},
		{"/api/jobs/stream?name=probe", io.MultiReader(bytes.NewReader(body))}, // no Len: chunked
	} {
		resp, err := http.Post(srv.URL+route.path, "application/octet-stream", route.body)
		if err != nil {
			t.Fatalf("POST %s: %v", route.path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Fatalf("POST %s: status %d, %q; want 400 with %s", route.path, resp.StatusCode, msg, want)
		}
	}
	if jobs := svc.List(); len(jobs) != 0 {
		t.Fatalf("%d jobs admitted, want none", len(jobs))
	}
}
