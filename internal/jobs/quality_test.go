package jobs

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"ion/internal/eval"
	"ion/internal/expertsim"
	"ion/internal/issue"
	"ion/internal/llm"
	"ion/internal/obs"
	"ion/internal/prompt"
	"ion/internal/quality"
	"ion/internal/semcache"
	"ion/internal/workloads"
)

func openQualStore(t *testing.T, path string) *quality.Store {
	t.Helper()
	st, err := quality.Open(quality.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// gatherGauge returns the value of the named series with the given
// labels from the registry, failing the test when absent.
func gatherGauge(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) float64 {
	t.Helper()
	for _, s := range reg.Gather() {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for i, l := range labels {
			if s.Labels[i] != l {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("no sample %s%v in registry", name, labels)
	return 0
}

// TestQualityScorecardOnDisagreement is the label half of the
// acceptance criteria: a plausible but wrong LLM (expertsim with every
// verdict rewritten to not-detected) diagnoses a bundled workload,
// submitted under its own name. The persisted scorecard must carry
// every ground-truth label of the workload, count the contradicted
// ones as mismatches, and the job must carry the same counts. The same
// bytes under another name score without labels.
func TestQualityScorecardOnDisagreement(t *testing.T) {
	qual := openQualStore(t, filepath.Join(t.TempDir(), "quality.jsonl"))
	svc := openService(t, Config{
		Workers: 1,
		Client:  &expertsim.Contradictor{Inner: expertsim.New()},
		Quality: qual,
	})

	j := submitWait(t, svc, "ior-hard", traceBytes(t, "ior-hard"))
	if j.State != StateDone {
		t.Fatalf("job state = %s (%s)", j.State, j.Error)
	}
	card, ok := qual.Get(j.ID)
	if !ok {
		t.Fatal("no scorecard persisted for the job")
	}
	if card.Mode != quality.ModeFull || card.Trace != "ior-hard" {
		t.Errorf("scorecard mode %q trace %q, want full ior-hard", card.Mode, card.Trace)
	}
	w, err := workloads.ByName("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	matched, mismatched := card.Labels()
	if matched+mismatched != len(w.Truth) {
		t.Fatalf("scorecard labels %d issues, want the workload's %d", matched+mismatched, len(w.Truth))
	}
	wantMismatched := 0
	for _, e := range w.Truth {
		if e.Want != issue.VerdictNotDetected {
			wantMismatched++
		}
	}
	if mismatched != wantMismatched || mismatched == 0 {
		t.Fatalf("contradicting LLM scored %d label mismatches, want %d", mismatched, wantMismatched)
	}
	if q := j.Quality; q == nil || q.LabelMatches != matched || q.LabelMismatches != mismatched {
		t.Fatalf("job quality provenance = %+v, want the scorecard's %d/%d", q, matched, mismatched)
	}

	other := submitWait(t, svc, "unlabelled", textTrace(t, "ior-hard", 1))
	if q := other.Quality; other.State != StateDone || q == nil || q.LabelMatches != 0 || q.LabelMismatches != 0 {
		t.Fatalf("unlabelled trace: state %s, quality %+v; want scored without labels", other.State, q)
	}
}

// TestTraceFileNameGetsLabels: a job named by a trace's path or file
// name (ionserve -log dir/x.darshan, a browser upload of
// x.darshan.txt) is scored against workload x's ground-truth labels.
func TestTraceFileNameGetsLabels(t *testing.T) {
	qual := openQualStore(t, filepath.Join(t.TempDir(), "quality.jsonl"))
	svc := openService(t, Config{Workers: 1, Quality: qual})
	for _, tc := range []struct{ name, workload string }{
		{"some/dir/openpmd-baseline.darshan.txt", "openpmd-baseline"},
		{"ior-hard.darshan", "ior-hard"},
		{"ior-easy-4m-fpp.darshan", "ior-easy-4m-fpp"}, // an eval sweep variant
		{"scale-8ranks.darshan", "scale-8ranks"},       // a rank-scaling sweep variant
	} {
		w, err := workloads.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		j := submitWait(t, svc, tc.name, textTrace(t, tc.workload, 0))
		if j.State != StateDone {
			t.Fatalf("%s: state %s (%s)", tc.name, j.State, j.Error)
		}
		card, ok := qual.Get(j.ID)
		if !ok {
			t.Fatalf("%s: no scorecard", tc.name)
		}
		if matched, mismatched := card.Labels(); matched != len(w.Truth) || mismatched != 0 {
			t.Errorf("%s: %d labels matched, %d mismatched; want all %d of %s matched",
				tc.name, matched, mismatched, len(w.Truth), tc.workload)
		}
		if card.Trace != tc.name {
			t.Errorf("scorecard trace %q, want the job name %q", card.Trace, tc.name)
		}
		if tc.workload == "ior-easy-4m-fpp" {
			// 4 MiB transfers fill the RPC: there is no small I/O.
			var label issue.Verdict
			for _, is := range card.Issues {
				if is.Issue == issue.SmallIO {
					label = is.Label
				}
			}
			if label != issue.VerdictNotDetected {
				t.Errorf("%s: small-io label %q, want %q", tc.name, label, issue.VerdictNotDetected)
			}
		}
	}
}

// TestShadowFlipSurvivesRestart is the revocation half of the
// acceptance criteria. Generation 1 (faithful expertsim) indexes a cold
// diagnosis; generation 2 restarts onto the same journals with a
// drifted backend (every verdict forced to not-detected) and a 100%
// shadow sample rate. A perturbed resubmission is served verbatim from
// the cache, the background shadow re-run contradicts the served
// verdicts, the flip is journaled, the flip-ratio gauge fires, and the
// entry that served it is revoked, so the next variant runs fresh. A
// third generation replays it all from disk and keeps the entry
// revoked.
func TestShadowFlipSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	semPath := filepath.Join(dir, "semcache.jsonl")
	qualPath := filepath.Join(dir, "quality.jsonl")

	// Generation 1: faithful diagnosis, indexed into the semantic cache.
	sem1, err := semcache.Open(semcache.Options{Path: semPath})
	if err != nil {
		t.Fatal(err)
	}
	qual1 := openQualStore(t, qualPath)
	svc1 := openService(t, Config{Dir: dir, Workers: 1, SemCache: sem1, Quality: qual1})
	j1, _, err := svc1.Submit("ior-hard-gen1", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, svc1, j1.ID); got.State != StateDone {
		t.Fatalf("cold job: %s (%s)", got.State, got.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	svc1.Close(ctx)
	cancel()
	sem1.Close()
	qual1.Close()

	// Generation 2: the backend has drifted; every reused diagnosis is
	// shadow re-checked.
	sem2, err := semcache.Open(semcache.Options{Path: semPath})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sem2.Close() })
	qual2 := openQualStore(t, qualPath)
	reg2 := obs.NewRegistry()
	svc2 := openService(t, Config{
		Dir:              dir,
		Workers:          1,
		Client:           &expertsim.Contradictor{Inner: expertsim.New()},
		SemCache:         sem2,
		Quality:          qual2,
		ShadowSampleRate: 1,
		Obs:              reg2,
	})
	j2, _, err := svc2.Submit("ior-hard-gen2", textTrace(t, "ior-hard", 2))
	if err != nil {
		t.Fatal(err)
	}
	got2 := waitDone(t, svc2, j2.ID)
	if got2.State != StateReused {
		t.Fatalf("perturbed job state = %s (%s), want reused", got2.State, got2.Error)
	}

	// The shadow re-run was scheduled before the job finished. Wait for
	// it to return, which is after its last effect: the scorecard, the
	// job's provenance and the flip-ratio gauge are all published.
	svc2.shadowWG.Wait()
	card, ok := qual2.Get(j2.ID)
	if !ok || card.Shadow == nil {
		t.Fatalf("job %s was never shadowed", j2.ID)
	}
	if card.Mode != quality.ModeVerbatim {
		t.Errorf("shadowed scorecard mode = %q, want verbatim", card.Mode)
	}
	if len(card.Shadow.Flips) == 0 {
		t.Fatal("drifted shadow re-run flipped no verdicts")
	}
	jq, err := svc2.Get(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jq.Quality == nil || !jq.Quality.Shadowed || jq.Quality.Flips != len(card.Shadow.Flips) {
		t.Fatalf("job shadow provenance = %+v, want shadowed with %d flips", jq.Quality, len(card.Shadow.Flips))
	}
	if fs := qual2.FlipStats()[quality.ModeVerbatim]; fs.Shadowed != 1 || fs.Flipped != 1 {
		t.Fatalf("verbatim flip stats = %+v, want 1/1", fs)
	}
	if v := gatherGauge(t, reg2, "ion_semcache_flip_ratio", obs.L("mode", string(quality.ModeVerbatim))); v != 1 {
		t.Fatalf("ion_semcache_flip_ratio{mode=verbatim} = %v, want 1", v)
	}
	// The flip revoked j1's entry, though the variant matched it at
	// similarity 1.0: the next variant runs fresh.
	j3 := submitWait(t, svc2, "ior-hard-gen2b", textTrace(t, "ior-hard", 3))
	if j3.State != StateDone || j3.ReusedFrom != nil {
		t.Fatalf("variant after the flip: state %s, provenance %+v; want a fresh run", j3.State, j3.ReusedFrom)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	svc2.Close(ctx)
	cancel()
	qual2.Close()
	sem2.Close()

	// Generation 3: the flip survives restart via journal replay and the
	// gauge republishes at Open, before any new traffic.
	qual3 := openQualStore(t, qualPath)
	if fs := qual3.FlipStats()[quality.ModeVerbatim]; fs.Ratio() != 1 {
		t.Fatalf("replayed flip stats = %+v, want ratio 1", fs)
	}
	sem3, err := semcache.Open(semcache.Options{Path: semPath})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sem3.Close() })
	reg3 := obs.NewRegistry()
	// The backend is faithful again.
	svc3 := openService(t, Config{
		Dir:              dir,
		Workers:          1,
		SemCache:         sem3,
		Quality:          qual3,
		ShadowSampleRate: 1,
		Obs:              reg3,
	})
	if v := gatherGauge(t, reg3, "ion_semcache_flip_ratio", obs.L("mode", string(quality.ModeVerbatim))); v != 1 {
		t.Fatalf("post-restart flip gauge = %v, want 1", v)
	}
	// j3's drifted diagnosis is the one live neighbor: it serves the next
	// variant, and the faithful shadow re-run revokes it in turn.
	j4 := submitWait(t, svc3, "ior-hard-gen3", textTrace(t, "ior-hard", 4))
	if j4.State != StateReused || j4.ReusedFrom == nil || j4.ReusedFrom.From != j3.ID {
		t.Fatalf("gen-3 variant: state %s, provenance %+v; want served from %s", j4.State, j4.ReusedFrom, j3.ID)
	}
	svc3.shadowWG.Wait()
	// With both neighbors revoked the next variant runs fresh. Had j1's
	// revocation been lost at restart, j1 would serve it.
	j5 := submitWait(t, svc3, "ior-hard-gen3b", textTrace(t, "ior-hard", 5))
	if j5.State != StateDone || j5.ReusedFrom != nil {
		t.Fatalf("gen-3 variant after both flips: state %s, provenance %+v; want a fresh run", j5.State, j5.ReusedFrom)
	}
}

// conditionedDrift is a backend that has drifted only where a
// neighbor's conclusions ride along: conditioned diagnosis prompts go
// to drifted, everything else (cold runs and shadow re-runs) to the
// embedded faithful client.
type conditionedDrift struct {
	llm.Client
	drifted llm.Client
}

func (c *conditionedDrift) Complete(ctx context.Context, req llm.Request) (llm.Completion, error) {
	if req.Metadata[prompt.MetaConditioned] == "1" {
		return c.drifted.Complete(ctx, req)
	}
	return c.Client.Complete(ctx, req)
}

// TestShadowFlipRevokesConditionedEntry: on default thresholds
// openpmd-baseline runs conditioned on ior-hard, and its drifted report
// is indexed as the job's own entry. The shadow re-run flips it, which
// must revoke that entry as well as the neighbor's, so a later
// openpmd-baseline variant (similarity 1.0 to the drifted report) is
// not served from it and keeps its labelled verdicts.
func TestShadowFlipRevokesConditionedEntry(t *testing.T) {
	inner := expertsim.New()
	qual := openQualStore(t, filepath.Join(t.TempDir(), "quality.jsonl"))
	svc := openService(t, Config{
		Workers:          1,
		Client:           &conditionedDrift{Client: inner, drifted: &expertsim.Contradictor{Inner: inner}},
		SemCache:         openSemStore(t, semcache.Options{}),
		Quality:          qual,
		ShadowSampleRate: 1,
	})

	j1 := submitWait(t, svc, "ior-hard", traceBytes(t, "ior-hard"))
	if j1.State != StateDone {
		t.Fatalf("ior-hard: state %s (%s)", j1.State, j1.Error)
	}
	j2 := submitWait(t, svc, "openpmd-baseline", traceBytes(t, "openpmd-baseline"))
	if r := j2.ReusedFrom; j2.State != StateDone || r == nil || r.Mode != ReuseConditioned || r.From != j1.ID {
		t.Fatalf("openpmd-baseline: state %s, provenance %+v; want conditioned on %s", j2.State, r, j1.ID)
	}
	svc.shadowWG.Wait()
	if card, ok := qual.Get(j2.ID); !ok || card.Shadow == nil || len(card.Shadow.Flips) == 0 {
		t.Fatalf("the conditioned job's shadow re-run flipped no verdicts: %+v", card.Shadow)
	}

	j3 := submitWait(t, svc, "openpmd-baseline-variant", textTrace(t, "openpmd-baseline", 1))
	if r := j3.ReusedFrom; r != nil && r.From == j2.ID {
		t.Fatalf("variant %s from the flipped job %s at similarity %.3f", r.Mode, j2.ID, r.Similarity)
	}
	if j3.State != StateDone {
		t.Fatalf("variant: state %s (%s)", j3.State, j3.Error)
	}
	rep, err := svc.Report(j3.ID)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("openpmd-baseline")
	if err != nil {
		t.Fatal(err)
	}
	if sc := eval.ScoreION(w, rep); !sc.Perfect() {
		t.Errorf("variant report: %s, mismatches %+v, false positives %v", sc, sc.Mismatches, sc.FalsePositives)
	}
}

// submitWait submits a trace and waits for its job to settle.
func submitWait(t *testing.T, svc *Service, name string, trace []byte) Job {
	t.Helper()
	j, _, err := svc.Submit(name, trace)
	if err != nil {
		t.Fatal(err)
	}
	return waitDone(t, svc, j.ID)
}

// TestShadowSkippedWhenDisabled: without a sample rate no shadow runs,
// and verbatim hits still score quality.
func TestShadowSkippedWhenDisabled(t *testing.T) {
	sem := openSemStore(t, semcache.Options{})
	qual := openQualStore(t, filepath.Join(t.TempDir(), "quality.jsonl"))
	svc := openService(t, Config{Workers: 1, SemCache: sem, Quality: qual})

	j1, _, err := svc.Submit("ior-1", textTrace(t, "ior-hard", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, j1.ID)
	j2, _, err := svc.Submit("ior-2", textTrace(t, "ior-hard", 2))
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, svc, j2.ID)
	if got.State != StateReused {
		t.Fatalf("state = %s, want reused", got.State)
	}
	card, ok := qual.Get(j2.ID)
	if !ok {
		t.Fatal("verbatim hit was not scored")
	}
	if card.Mode != quality.ModeVerbatim || card.Shadow != nil {
		t.Fatalf("scorecard = mode %q shadow %v, want verbatim and no shadow", card.Mode, card.Shadow)
	}
	if fs := qual.FlipStats()[quality.ModeVerbatim]; fs.Shadowed != 0 {
		t.Fatalf("flip stats = %+v, want no shadows", fs)
	}
}
