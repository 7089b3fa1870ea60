package eval

import (
	"context"
	"strings"
	"testing"

	"ion/internal/drishti"
	"ion/internal/expertsim"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/workloads"
)

func runner() *Runner {
	return &Runner{Client: expertsim.New(), SkipSummary: true}
}

func TestScoreIONPerfect(t *testing.T) {
	w := workloads.Workload{
		Truth: []issue.Expectation{
			{Issue: issue.SmallIO, Want: issue.VerdictDetected},
			{Issue: issue.SharedFile, Want: issue.VerdictMitigated},
		},
	}
	rep := &ion.Report{
		Order: []issue.ID{issue.SmallIO, issue.SharedFile, issue.Metadata},
		Diagnoses: map[issue.ID]*ion.IssueDiagnosis{
			issue.SmallIO:    {Verdict: issue.VerdictDetected},
			issue.SharedFile: {Verdict: issue.VerdictMitigated},
			issue.Metadata:   {Verdict: issue.VerdictNotDetected},
		},
	}
	s := ScoreION(w, rep)
	if !s.Perfect() || s.Matched != 2 {
		t.Errorf("score = %+v", s)
	}
}

func TestScoreIONMismatchAndFP(t *testing.T) {
	w := workloads.Workload{
		Truth: []issue.Expectation{{Issue: issue.SmallIO, Want: issue.VerdictMitigated}},
	}
	rep := &ion.Report{
		Order: []issue.ID{issue.SmallIO, issue.Metadata},
		Diagnoses: map[issue.ID]*ion.IssueDiagnosis{
			issue.SmallIO:  {Verdict: issue.VerdictDetected}, // wrong verdict
			issue.Metadata: {Verdict: issue.VerdictDetected}, // unlisted detection
		},
	}
	s := ScoreION(w, rep)
	if s.Matched != 0 || len(s.Mismatches) != 1 || len(s.FalsePositives) != 1 {
		t.Errorf("score = %+v", s)
	}
	if s.Perfect() {
		t.Error("imperfect score reported perfect")
	}
	if !strings.Contains(s.String(), "0/1") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestScoreDrishtiSemantics(t *testing.T) {
	w := workloads.Workload{
		Truth: []issue.Expectation{
			{Issue: issue.SmallIO, Want: issue.VerdictDetected},     // should flag
			{Issue: issue.SharedFile, Want: issue.VerdictMitigated}, // should stay silent
		},
	}
	rep := &drishti.Report{Insights: []drishti.Insight{
		{Code: "D02", Level: drishti.LevelHigh, Issue: issue.SmallIO},
		{Code: "D30", Level: drishti.LevelHigh, Issue: issue.SharedFile},   // false alarm on mitigated
		{Code: "D09", Level: drishti.LevelHigh, Issue: issue.RandomAccess}, // unlisted flag
	}}
	s := ScoreDrishti(w, rep)
	if s.Matched != 1 {
		t.Errorf("matched = %d", s.Matched)
	}
	if len(s.Mismatches) != 1 || s.Mismatches[0].Issue != issue.SharedFile {
		t.Errorf("mismatches = %+v", s.Mismatches)
	}
	if len(s.FalsePositives) != 1 || s.FalsePositives[0] != issue.RandomAccess {
		t.Errorf("false positives = %+v", s.FalsePositives)
	}
}

func TestRunSingleWorkload(t *testing.T) {
	res, err := runner().Run(context.Background(), workloads.IORHard())
	if err != nil {
		t.Fatal(err)
	}
	if !res.IONScore.Perfect() {
		t.Errorf("ION imperfect on ior-hard: %+v", res.IONScore)
	}
	if res.DrishtiRep.TriggersEvaluated == 0 {
		t.Error("Drishti did not run")
	}
}

func TestFigure2Reproduction(t *testing.T) {
	text, results, err := runner().Figure2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("rows = %d, want 6", len(results))
	}
	for _, res := range results {
		if !res.IONScore.Perfect() {
			t.Errorf("%s: ION score %s (mismatches %+v, FPs %v)",
				res.Workload.Name, res.IONScore, res.IONScore.Mismatches, res.IONScore.FalsePositives)
		}
	}
	for _, want := range []string{
		"Figure 2", "IOR-Easy-2KB-Shared-File", "IOR-Hard", "MD-Workbench",
		"Ground truth:", "ION output:", "Detection matrix",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("figure text missing %q", want)
		}
	}
}

func TestFigure3Reproduction(t *testing.T) {
	text, results, err := runner().Figure3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("rows = %d, want 4", len(results))
	}
	for _, res := range results {
		if !res.IONScore.Perfect() {
			t.Errorf("%s: ION score %s", res.Workload.Name, res.IONScore)
		}
		// The paper's claim: ION matches or exceeds Drishti everywhere.
		if res.DrishtiScore.Matched > res.IONScore.Matched {
			t.Errorf("%s: Drishti (%d) beat ION (%d)",
				res.Workload.Name, res.DrishtiScore.Matched, res.IONScore.Matched)
		}
	}
	for _, want := range []string{
		"Figure 3", "OpenPMD (Baseline)", "E2E (Optimized)", "Drishti output:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("figure text missing %q", want)
		}
	}
}

func TestFigure3KeyShapeClaims(t *testing.T) {
	_, results, err := runner().Figure3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Result{}
	for _, r := range results {
		byName[r.Workload.Name] = r
	}
	// OpenPMD baseline: both tools find small I/O + misalignment; only
	// ION sees the shared-file conflicts and the degraded collectives'
	// aggregation context.
	ob := byName["openpmd-baseline"]
	if ob.IONReport.Verdict(issue.SmallIO) != issue.VerdictDetected || !ob.DrishtiRep.Flagged(issue.SmallIO) {
		t.Error("both tools should find small I/O on openpmd baseline")
	}
	if ob.IONReport.Verdict(issue.SharedFile) != issue.VerdictDetected || ob.DrishtiRep.Flagged(issue.SharedFile) {
		t.Error("only ION should see the shared-file stripe conflicts")
	}
	// OpenPMD optimized: Drishti flags random reads; ION contextualizes
	// them as low-volume.
	oo := byName["openpmd-optimized"]
	if !oo.DrishtiRep.Flagged(issue.RandomAccess) {
		t.Error("Drishti should flag random reads on openpmd optimized")
	}
	if oo.IONReport.Verdict(issue.RandomAccess) != issue.VerdictMitigated {
		t.Error("ION should contextualize the random reads as mitigated")
	}
	// E2E baseline: both find imbalance; ION names rank 0.
	eb := byName["e2e-baseline"]
	if !eb.DrishtiRep.Flagged(issue.LoadImbalance) {
		t.Error("Drishti should flag the load imbalance")
	}
	if d := eb.IONReport.Diagnoses[issue.LoadImbalance]; d == nil || !strings.Contains(d.Conclusion, "rank 0") {
		t.Error("ION should name rank 0")
	}
	// E2E optimized: only ION sees the aggregator subset.
	eo := byName["e2e-optimized"]
	if eo.DrishtiRep.Flagged(issue.LoadImbalance) {
		t.Error("Drishti should not see the subset imbalance")
	}
	if eo.IONReport.Verdict(issue.LoadImbalance) != issue.VerdictMitigated {
		t.Error("ION should report the subset as mitigated/intentional")
	}
}

func TestThresholdPitfall(t *testing.T) {
	text, rows, err := runner().ThresholdPitfall(context.Background(), []int64{1 << 20, 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 workloads x 2 thresholds
		t.Fatalf("rows = %d", len(rows))
	}
	// ION's verdict must be threshold-independent and always correct.
	for _, r := range rows {
		if r.IONVerdict != r.TruthWant {
			t.Errorf("%s@%d: ION verdict %s, truth %s", r.Workload, r.Threshold, r.IONVerdict, r.TruthWant)
		}
	}
	// Drishti must diverge somewhere (that is the pitfall).
	divergent := false
	for _, r := range rows {
		flagMatchesTruth := (r.Flagged && r.TruthWant == issue.VerdictDetected) ||
			(!r.Flagged && r.TruthWant != issue.VerdictDetected)
		if !flagMatchesTruth {
			divergent = true
		}
	}
	if !divergent {
		t.Error("threshold sweep produced no Drishti divergence; pitfall not demonstrated")
	}
	if !strings.Contains(text, "Threshold pitfall") {
		t.Error("pitfall text header missing")
	}
}

func TestAggregateSuperiority(t *testing.T) {
	// Across the whole evaluation, ION's verdict accuracy must strictly
	// exceed Drishti's flag accuracy with no ION false positives — the
	// headline quantitative claim of the reproduction.
	r := runner()
	all := append(workloads.Figure2(), workloads.Figure3()...)
	results, err := r.RunAll(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	var ionHit, dHit, total, ionFP int
	for _, res := range results {
		ionHit += res.IONScore.Matched
		dHit += res.DrishtiScore.Matched
		total += res.IONScore.Expected
		ionFP += len(res.IONScore.FalsePositives)
	}
	if ionHit != total {
		t.Errorf("ION matched %d/%d", ionHit, total)
	}
	if ionFP != 0 {
		t.Errorf("ION false positives: %d", ionFP)
	}
	if dHit >= ionHit {
		t.Errorf("Drishti (%d) not behind ION (%d): comparison shape lost", dHit, ionHit)
	}
}

// TestIOREasyVariantsMatchTruth scores ION on every IOR-Easy variant
// the sweeps build (eight transfer sizes, shared and file-per-process)
// against the labels the generator derives from its own parameters:
// small-io is not-detected at or above the RPC size, misaligned-io
// detected below the stripe size.
func TestIOREasyVariantsMatchTruth(t *testing.T) {
	var ws []workloads.Workload
	for _, xfer := range []int64{2 << 10, 8 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20, 8 << 20} {
		ws = append(ws, workloads.IOREasy(xfer, true), workloads.IOREasy(xfer, false))
	}
	results, err := runner().RunAll(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	matched, expected := 0, 0
	for _, res := range results {
		matched += res.IONScore.Matched
		expected += res.IONScore.Expected
		for _, m := range res.IONScore.Mismatches {
			t.Errorf("%s: %s = %s, label %s", res.Workload.Name, m.Issue, m.Got, m.Want)
		}
		if fp := res.IONScore.FalsePositives; len(fp) > 0 {
			t.Errorf("%s: false positives %v", res.Workload.Name, fp)
		}
	}
	if matched != 50 || expected != 50 {
		t.Errorf("ION matched %d of %d labelled verdicts, want 50 of 50", matched, expected)
	}
}

func TestTransferSweep(t *testing.T) {
	text, rows, err := runner().TransferSweep(context.Background(),
		[]int64{2 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byXfer := map[int64]SweepRow{}
	for _, r := range rows {
		byXfer[r.Transfer] = r
	}
	// Sub-stripe transfers: misaligned, small-io mitigated by aggregation.
	for _, x := range []int64{2 << 10, 256 << 10} {
		if byXfer[x].Misaligned != issue.VerdictDetected {
			t.Errorf("%d: misaligned = %s", x, byXfer[x].Misaligned)
		}
		if byXfer[x].SmallIO != issue.VerdictMitigated {
			t.Errorf("%d: small-io = %s", x, byXfer[x].SmallIO)
		}
		if byXfer[x].AggregatedShare < 0.9 {
			t.Errorf("%d: aggregation share %.2f", x, byXfer[x].AggregatedShare)
		}
	}
	// At and above the stripe boundary: aligned.
	for _, x := range []int64{1 << 20, 4 << 20, 8 << 20} {
		if byXfer[x].Misaligned != issue.VerdictNotDetected {
			t.Errorf("%d: misaligned = %s", x, byXfer[x].Misaligned)
		}
	}
	// Above the RPC size small I/O ceases to exist.
	if byXfer[8<<20].SmallIO != issue.VerdictNotDetected {
		t.Errorf("8MiB: small-io = %s", byXfer[8<<20].SmallIO)
	}
	if !strings.Contains(text, "Transfer-size sweep") {
		t.Error("header missing")
	}
}

func TestScaleSweep(t *testing.T) {
	text, rows, err := runner().ScaleSweep(context.Background(), []int{2, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SharedFile != issue.VerdictDetected {
			t.Errorf("%d ranks: shared-file = %s", r.Ranks, r.SharedFile)
		}
	}
	// Contention grows with scale.
	if !(rows[0].LockConflicts < rows[1].LockConflicts && rows[1].LockConflicts < rows[2].LockConflicts) {
		t.Errorf("lock conflicts not monotone: %+v", rows)
	}
	if !strings.Contains(text, "Rank-scaling sweep") {
		t.Error("header missing")
	}
}
