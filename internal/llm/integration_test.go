package llm_test

// Integration test for the record/replay flow against the real ION
// pipeline: a full analysis is recorded once into a text-captured
// ledger, then replayed from it with no backend at all — the
// reproducibility workflow users rely on when a live LLM backs the
// analyzer (ion -ledger PATH -ledger-capture-text, then
// ion -replay-ledger PATH).

import (
	"context"
	"path/filepath"
	"testing"

	"ion/internal/expertsim"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/llm/ledger"
	"ion/internal/testutil"
)

func TestRecordThenReplayFullAnalysis(t *testing.T) {
	log, err := testutil.Log("ior-hard")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	workdir := t.TempDir()

	// Pass 1: record a full analysis with its prompt and response text.
	st, err := ledger.Open(ledger.StoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	rec := ledger.Wrap(expertsim.New(), st, ledger.WrapOptions{CaptureText: true})
	fw1, err := ion.New(ion.Config{Client: rec})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := fw1.AnalyzeLog(context.Background(), log, "ior-hard", workdir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Pass 2: replay. Replay is strict, so a prompt that drifted from
	// the recording fails the analysis instead of reaching a backend.
	replay, err := ledger.NewReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	fw2, err := ion.New(ion.Config{Client: replay})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := fw2.AnalyzeLog(context.Background(), log, "ior-hard", workdir)
	if err != nil {
		t.Fatalf("replayed analysis failed (recording miss?): %v", err)
	}

	for _, id := range issue.All {
		if rep1.Verdict(id) != rep2.Verdict(id) {
			t.Errorf("%s: verdict changed between record (%s) and replay (%s)",
				id, rep1.Verdict(id), rep2.Verdict(id))
		}
		d1, d2 := rep1.Diagnoses[id], rep2.Diagnoses[id]
		if d1 != nil && d2 != nil && d1.Conclusion != d2.Conclusion {
			t.Errorf("%s: conclusion changed through replay", id)
		}
	}
	if rep1.Summary != rep2.Summary {
		t.Error("summary changed through replay")
	}
}
