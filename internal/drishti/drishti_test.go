package drishti

import (
	"strings"
	"testing"

	"ion/internal/extractor"
	"ion/internal/issue"
	"ion/internal/table"
	"ion/internal/testutil"
)

func analyzeWorkload(t *testing.T, name string, cfg Config) *Report {
	t.Helper()
	out, _, err := testutil.Extracted(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SmallRequestSize != 1<<20 {
		t.Errorf("small size = %d, want Drishti's 1 MiB", cfg.SmallRequestSize)
	}
	if cfg.SmallRequestsPercent != 0.10 {
		t.Errorf("small pct = %f", cfg.SmallRequestsPercent)
	}
}

func TestAnalyzeNil(t *testing.T) {
	if _, err := Analyze(nil, DefaultConfig()); err == nil {
		t.Error("nil extraction accepted")
	}
}

func TestTriggerCount(t *testing.T) {
	rep := analyzeWorkload(t, "ior-easy-1m-shared", DefaultConfig())
	if rep.TriggersEvaluated < 30 {
		t.Errorf("triggers evaluated = %d, Drishti has 30", rep.TriggersEvaluated)
	}
}

func TestOpenPMDBaselineMatchesPaperColumn(t *testing.T) {
	// Paper Figure 3: small reads + small writes + per-file attribution
	// + 100% misaligned.
	rep := analyzeWorkload(t, "openpmd-baseline", DefaultConfig())
	if !rep.Flagged(issue.SmallIO) {
		t.Error("small I/O not flagged")
	}
	if !rep.Flagged(issue.MisalignedIO) {
		t.Error("misalignment not flagged")
	}
	text := rep.Render()
	for _, want := range []string{
		"small read requests",
		"small write requests",
		"8a_parallel_3Db_0000001.h5",
		"misaligned file requests",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestOpenPMDOptimizedMatchesPaperColumn(t *testing.T) {
	// Paper: Drishti flags random read operations on the optimized trace.
	rep := analyzeWorkload(t, "openpmd-optimized", DefaultConfig())
	if !rep.Flagged(issue.RandomAccess) {
		t.Error("random reads not flagged")
	}
	if !strings.Contains(rep.Render(), "random read operations") {
		t.Error("random-read message missing")
	}
	// And (the §2 pitfall): it also flags the benign small reads.
	if !rep.Flagged(issue.SmallIO) {
		t.Error("expected the threshold false alarm on small reads")
	}
}

func TestE2EBaselineMatchesPaperColumn(t *testing.T) {
	// Paper: misaligned (99.81%) + load imbalance (99.90%) naming the file.
	rep := analyzeWorkload(t, "e2e-baseline", DefaultConfig())
	if !rep.Flagged(issue.MisalignedIO) {
		t.Error("misalignment not flagged")
	}
	if !rep.Flagged(issue.LoadImbalance) {
		t.Error("load imbalance not flagged")
	}
	text := rep.Render()
	if !strings.Contains(text, "Load imbalance of 99") {
		t.Errorf("imbalance percentage off:\n%s", text)
	}
	if !strings.Contains(text, "3d_32_32_16_32_32_32.nc4") {
		t.Error("imbalance message does not name the file")
	}
}

func TestE2EOptimizedMatchesPaperColumn(t *testing.T) {
	// Paper: ONLY misalignment remains; the aggregator-subset imbalance
	// is invisible to counter-only analysis.
	rep := analyzeWorkload(t, "e2e-optimized", DefaultConfig())
	if !rep.Flagged(issue.MisalignedIO) {
		t.Error("misalignment not flagged")
	}
	if rep.Flagged(issue.LoadImbalance) {
		t.Error("counter-only Drishti should not see the aggregator subset")
	}
}

func TestIORHardStridedLooksSequentialToCounters(t *testing.T) {
	// The Darshan subtlety: strided forward access counts as sequential,
	// so Drishti's random trigger stays silent where ION (DXT-based)
	// detects the non-contiguous pattern.
	rep := analyzeWorkload(t, "ior-hard", DefaultConfig())
	if rep.Flagged(issue.RandomAccess) {
		t.Error("counter-based random trigger should miss the strided pattern")
	}
	if !rep.Flagged(issue.SmallIO) {
		t.Error("small I/O should be flagged")
	}
	if !rep.Flagged(issue.MisalignedIO) {
		t.Error("misalignment should be flagged")
	}
}

func TestIOREasy2KFalseAlarm(t *testing.T) {
	// The paper's headline pitfall: the 1 MiB / 10% trigger fires on an
	// aggregatable consecutive stream.
	rep := analyzeWorkload(t, "ior-easy-2k-shared", DefaultConfig())
	if !rep.Flagged(issue.SmallIO) {
		t.Error("expected the small-I/O false alarm on the aggregatable stream")
	}
}

func TestIOREasy1MBlindSpot(t *testing.T) {
	// 1 MiB transfers are not "< 1MB": the fixed threshold goes silent.
	rep := analyzeWorkload(t, "ior-easy-1m-shared", DefaultConfig())
	if rep.Flagged(issue.SmallIO) {
		t.Error("1 MiB transfers must not trip the < 1 MiB trigger")
	}
}

func TestMDWorkbenchCountFloorBlindSpot(t *testing.T) {
	// 768 small writes < the 1000-count floor: Drishti under-reports the
	// metadata-bound workload's small I/O.
	rep := analyzeWorkload(t, "md-workbench", DefaultConfig())
	if rep.Flagged(issue.SmallIO) {
		t.Error("count floor should suppress the small-I/O trigger here")
	}
	// But lowering the floor fires it — the threshold sensitivity.
	cfg := DefaultConfig()
	cfg.SmallRequestsCount = 100
	rep2 := analyzeWorkload(t, "md-workbench", cfg)
	if !rep2.Flagged(issue.SmallIO) {
		t.Error("lowered floor should fire the trigger")
	}
}

func TestThresholdSensitivity(t *testing.T) {
	// Raising the small-request threshold to 4 MiB flags the benign
	// 1 MiB stream: thresholds cut both ways.
	cfg := DefaultConfig()
	cfg.SmallRequestSize = 4 << 20
	rep := analyzeWorkload(t, "ior-easy-1m-shared", cfg)
	if !rep.Flagged(issue.SmallIO) {
		t.Error("4 MiB threshold should flag 1 MiB transfers")
	}
}

func TestPosixOnlyTrigger(t *testing.T) {
	rep := analyzeWorkload(t, "ior-easy-1m-fpp", DefaultConfig())
	found := false
	for _, in := range rep.Insights {
		if in.Code == "D23" {
			found = true
			if in.Level != LevelWarn {
				t.Errorf("D23 level = %s", in.Level)
			}
		}
	}
	if !found {
		t.Error("POSIX-only trigger did not fire")
	}
	// MPI-IO workloads must not trip it.
	rep2 := analyzeWorkload(t, "openpmd-baseline", DefaultConfig())
	for _, in := range rep2.Insights {
		if in.Code == "D23" {
			t.Error("D23 fired despite MPI-IO usage")
		}
	}
}

func TestIndependentWritesTrigger(t *testing.T) {
	rep := analyzeWorkload(t, "openpmd-baseline", DefaultConfig())
	if !rep.Flagged(issue.CollectiveIO) {
		t.Error("independent MPI-IO writes not flagged")
	}
}

func TestMetadataTriggers(t *testing.T) {
	rep := analyzeWorkload(t, "md-workbench", DefaultConfig())
	var sawMetaOps, sawManyFiles bool
	for _, in := range rep.Insights {
		switch in.Code {
		case "D18":
			sawMetaOps = true
		case "D22":
			sawManyFiles = true
		}
	}
	if !sawMetaOps {
		t.Error("metadata ops trigger silent on md-workbench")
	}
	if !sawManyFiles {
		t.Error("many-files trigger silent on md-workbench")
	}
}

func TestInsightOrdering(t *testing.T) {
	rep := analyzeWorkload(t, "e2e-baseline", DefaultConfig())
	lastRank := -1
	for _, in := range rep.Insights {
		r := levelRank(in.Level)
		if r < lastRank {
			t.Fatalf("insights not ordered by severity: %v", rep.Insights)
		}
		lastRank = r
	}
}

func TestRenderShape(t *testing.T) {
	rep := analyzeWorkload(t, "ior-hard", DefaultConfig())
	text := rep.Render()
	if !strings.Contains(text, "DRISHTI") {
		t.Error("banner missing")
	}
	if !strings.Contains(text, "[HIGH]") {
		t.Error("levels missing")
	}
}

func TestEmptyTraceQuiet(t *testing.T) {
	// A trace with no tables at all evaluates all triggers silently.
	out := &extractor.Output{Tables: map[string]*table.Table{}}
	rep, err := Analyze(out, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Insights) != 0 {
		t.Errorf("empty trace produced insights: %v", rep.Insights)
	}
}
