package workloads

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ion/internal/darshan"
	"ion/internal/issue"
)

// generated caches workload logs so the many shape tests don't re-run
// the simulator per test.
var generated = map[string]*darshan.Log{}

func logFor(t *testing.T, name string) *darshan.Log {
	t.Helper()
	if l, ok := generated[name]; ok {
		return l
	}
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	l, err := w.Generate()
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	generated[name] = l
	return l
}

// posixTotals sums a counter across all POSIX records.
func posixTotals(l *darshan.Log, counter string) int64 {
	var n int64
	for _, r := range l.Module(darshan.ModPOSIX).Records {
		n += r.C(counter)
	}
	return n
}

func smallShare(l *darshan.Log) float64 {
	var small, total int64
	for _, r := range l.Module(darshan.ModPOSIX).Records {
		total += r.C(darshan.CPosixReads) + r.C(darshan.CPosixWrites)
		for _, b := range darshan.SizeBins {
			if b.Hi > 0 && b.Hi <= 1<<20 {
				small += r.C("POSIX_SIZE_READ_" + b.Suffix)
				small += r.C("POSIX_SIZE_WRITE_" + b.Suffix)
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(small) / float64(total)
}

func misalignShare(l *darshan.Log) float64 {
	var mis, total int64
	for _, r := range l.Module(darshan.ModPOSIX).Records {
		total += r.C(darshan.CPosixReads) + r.C(darshan.CPosixWrites)
		mis += r.C(darshan.CPosixFileNotAligned)
	}
	if total == 0 {
		return 0
	}
	return float64(mis) / float64(total)
}

func TestAllWorkloadsGenerateValidLogs(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			l := logFor(t, w.Name)
			if err := l.Validate(); err != nil {
				t.Fatalf("invalid log: %v", err)
			}
			if l.Header.NProcs != w.NProcs {
				t.Errorf("nprocs: got %d want %d", l.Header.NProcs, w.NProcs)
			}
			if l.Header.RunTime <= 0 {
				t.Error("runtime not positive")
			}
			if !l.HasModule(darshan.ModPOSIX) {
				t.Error("no POSIX module")
			}
			if !l.HasModule(darshan.ModLustre) {
				t.Error("no LUSTRE module")
			}
			if len(l.DXT) == 0 {
				t.Error("no DXT traces")
			}
			for _, exp := range w.Truth {
				if !issue.Valid(exp.Issue) {
					t.Errorf("ground truth references unknown issue %q", exp.Issue)
				}
			}
		})
	}
}

func TestIOREasy2KShape(t *testing.T) {
	l := logFor(t, "ior-easy-2k-shared")
	if got := smallShare(l); got < 0.99 {
		t.Errorf("small share = %.4f, want ~1.0", got)
	}
	// 2 KiB accesses are misaligned except at exact 1 MiB multiples
	// (1 in 512): expect ~99.8%.
	if got := misalignShare(l); got < 0.99 || got > 0.999 {
		t.Errorf("misalign share = %.4f, want ~0.998", got)
	}
	// Sequential+consecutive: nearly all accesses after the first.
	consec := posixTotals(l, darshan.CPosixConsecReads) + posixTotals(l, darshan.CPosixConsecWrites)
	ops := posixTotals(l, darshan.CPosixReads) + posixTotals(l, darshan.CPosixWrites)
	if float64(consec) < 0.99*float64(ops-8) {
		t.Errorf("consecutive = %d of %d ops", consec, ops)
	}
	// POSIX only: no MPI-IO module.
	if l.HasModule(darshan.ModMPIIO) {
		t.Error("ior-easy must not record MPI-IO")
	}
	// One shared record at rank -1.
	recs := l.Module(darshan.ModPOSIX).Records
	if len(recs) != 1 || recs[0].Rank != darshan.SharedRank {
		t.Errorf("expected one shared POSIX record, got %d records", len(recs))
	}
}

func TestIOREasy1MAligned(t *testing.T) {
	l := logFor(t, "ior-easy-1m-shared")
	if got := misalignShare(l); got != 0 {
		t.Errorf("1MB transfers on 1MB stripes must be aligned, got %.4f", got)
	}
	// Paper reports 8192 total I/O operations for this configuration.
	ops := posixTotals(l, darshan.CPosixReads) + posixTotals(l, darshan.CPosixWrites)
	if ops != 8192 {
		t.Errorf("total ops = %d, want 8192", ops)
	}
}

func TestIOREasyFPPExclusiveFiles(t *testing.T) {
	l := logFor(t, "ior-easy-1m-fpp")
	recs := l.Module(darshan.ModPOSIX).Records
	if len(recs) != 4 {
		t.Fatalf("expected 4 per-rank records, got %d", len(recs))
	}
	for _, r := range recs {
		if r.Rank == darshan.SharedRank {
			t.Error("file-per-process must not produce shared records")
		}
	}
}

func TestIORHardShape(t *testing.T) {
	l := logFor(t, "ior-hard")
	if got := smallShare(l); got < 0.99 {
		t.Errorf("small share = %.4f", got)
	}
	if got := misalignShare(l); got < 0.99 {
		t.Errorf("misalign share = %.4f, want ~1.0", got)
	}
	// Strided: no consecutive accesses at all.
	consec := posixTotals(l, darshan.CPosixConsecReads) + posixTotals(l, darshan.CPosixConsecWrites)
	if consec != 0 {
		t.Errorf("strided pattern must have no consecutive accesses, got %d", consec)
	}
	// But offsets increase per rank: sequential counters stay high
	// (this is the Darshan subtlety the knowledge base encodes).
	seq := posixTotals(l, darshan.CPosixSeqReads) + posixTotals(l, darshan.CPosixSeqWrites)
	if seq == 0 {
		t.Error("forward strided pattern should count as sequential in Darshan terms")
	}
}

func TestIORRandom4KShape(t *testing.T) {
	l := logFor(t, "ior-rnd4k")
	if got := misalignShare(l); got < 0.98 {
		t.Errorf("misalign share = %.4f, want ~0.996", got)
	}
	// Random: sequential share must be mediocre (~50%), unlike strided.
	seq := posixTotals(l, darshan.CPosixSeqReads) + posixTotals(l, darshan.CPosixSeqWrites)
	ops := posixTotals(l, darshan.CPosixReads) + posixTotals(l, darshan.CPosixWrites)
	if share := float64(seq) / float64(ops); share > 0.7 {
		t.Errorf("random workload too sequential: %.3f", share)
	}
}

func TestMDWorkbenchShape(t *testing.T) {
	l := logFor(t, "md-workbench")
	opens := posixTotals(l, darshan.CPosixOpens)
	stats := posixTotals(l, darshan.CPosixStats)
	dataOps := posixTotals(l, darshan.CPosixReads) + posixTotals(l, darshan.CPosixWrites)
	if opens+stats < dataOps {
		t.Errorf("metadata ops (%d) should rival data ops (%d)", opens+stats, dataOps)
	}
	// Many distinct files.
	if n := len(l.Module(darshan.ModPOSIX).Records); n < 200 {
		t.Errorf("expected hundreds of file records, got %d", n)
	}
}

func TestOpenPMDBaselineShape(t *testing.T) {
	l := logFor(t, "openpmd-baseline")
	if got := smallShare(l); got < 0.97 {
		t.Errorf("small share = %.4f, want ~0.99", got)
	}
	if got := misalignShare(l); got < 0.99 {
		t.Errorf("misalign share = %.4f, want ~1.0", got)
	}
	if !l.HasModule(darshan.ModMPIIO) {
		t.Fatal("openpmd uses MPI-IO")
	}
	var coll, indep int64
	for _, r := range l.Module(darshan.ModMPIIO).Records {
		coll += r.C(darshan.CMpiioCollWrites) + r.C(darshan.CMpiioCollReads)
		indep += r.C(darshan.CMpiioIndepWrites) + r.C(darshan.CMpiioIndepReads)
	}
	if coll != 0 {
		t.Errorf("HDF5 bug degrades collectives: expected 0 collective data ops, got %d", coll)
	}
	if indep == 0 {
		t.Error("expected independent MPI-IO data ops")
	}
	// Consecutive share high: the paper's aggregation-potential insight.
	consec := posixTotals(l, darshan.CPosixConsecReads) + posixTotals(l, darshan.CPosixConsecWrites)
	ops := posixTotals(l, darshan.CPosixReads) + posixTotals(l, darshan.CPosixWrites)
	if float64(consec)/float64(ops) < 0.9 {
		t.Errorf("consecutive share %.3f, want >0.9", float64(consec)/float64(ops))
	}
}

func TestOpenPMDOptimizedShape(t *testing.T) {
	l := logFor(t, "openpmd-optimized")
	if got := smallShare(l); got > 0.5 {
		t.Errorf("optimized small share = %.4f, want low", got)
	}
	var coll int64
	for _, r := range l.Module(darshan.ModMPIIO).Records {
		coll += r.C(darshan.CMpiioCollWrites)
	}
	if coll == 0 {
		t.Error("optimized variant must use collective writes")
	}
	// Aligned collective writes: misalignment low overall (reads may
	// stray but writes dominate).
	if got := misalignShare(l); got > 0.4 {
		t.Errorf("optimized misalign share = %.4f, want low", got)
	}
}

func TestE2EBaselineImbalance(t *testing.T) {
	l := logFor(t, "e2e-baseline")
	rec := sharedPosixRecord(t, l, e2eFile)
	slow := rec.C(darshan.CPosixSlowestBytes)
	fast := rec.C(darshan.CPosixFastestBytes)
	if slow == 0 {
		t.Fatal("slowest rank bytes missing")
	}
	imb := float64(slow-fast) / float64(slow)
	if imb < 0.99 {
		t.Errorf("load imbalance = %.4f, want ~0.999", imb)
	}
	if rec.C(darshan.CPosixSlowestRank) != 0 {
		t.Errorf("slowest rank should be 0, got %d", rec.C(darshan.CPosixSlowestRank))
	}
	if got := misalignShare(l); got < 0.99 {
		t.Errorf("misalign share = %.4f, want ~0.998", got)
	}
}

func TestE2EOptimizedSubsetImbalance(t *testing.T) {
	l := logFor(t, "e2e-optimized")
	// 64 aggregators issue ~98% of write operations: verify via DXT.
	perRank := map[int64]int{}
	total := 0
	for _, tr := range l.DXT {
		for _, ev := range tr.Events {
			if ev.Op == darshan.OpWrite {
				perRank[ev.Rank]++
				total++
			}
		}
	}
	// Count writes from the busiest 64 ranks.
	counts := make([]int, 0, len(perRank))
	for _, c := range perRank {
		counts = append(counts, c)
	}
	top := 0
	for i := 0; i < 64; i++ {
		best, bestIdx := -1, -1
		for j, c := range counts {
			if c > best {
				best, bestIdx = c, j
			}
		}
		top += best
		counts[bestIdx] = -1
	}
	share := float64(top) / float64(total)
	if share < 0.95 {
		t.Errorf("top-64 rank write share = %.4f, want ~0.98", share)
	}
	// No longer concentrated on rank 0 alone.
	if float64(perRank[0])/float64(total) > 0.5 {
		t.Error("optimized variant should not be rank-0 dominated")
	}
}

func sharedPosixRecord(t *testing.T, l *darshan.Log, file string) *darshan.Record {
	t.Helper()
	id := FileID(file)
	rec := l.Module(darshan.ModPOSIX).Find(id, darshan.SharedRank)
	if rec == nil {
		t.Fatalf("no shared POSIX record for %s", file)
	}
	return rec
}

func TestByName(t *testing.T) {
	if _, err := ByName("ior-hard"); err != nil {
		t.Errorf("ior-hard should exist: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	} else if !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unhelpful error: %v", err)
	}

	// Every IOR-Easy variant the eval sweeps build resolves to itself.
	for _, xfer := range []int64{2 << 10, 8 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20, 8 << 20} {
		for _, shared := range []bool{true, false} {
			want := IOREasy(xfer, shared)
			got, err := ByName(want.Name)
			if err != nil {
				t.Errorf("%s: %v", want.Name, err)
				continue
			}
			if got.Name != want.Name || got.Exe != want.Exe || !reflect.DeepEqual(got.Truth, want.Truth) {
				t.Errorf("%s resolved to %s (%s)", want.Name, got.Name, got.Exe)
			}
		}
	}
	if w, err := ByName("ior-easy-1536b-fpp"); err != nil || w.Name != "ior-easy-1536b-fpp" {
		t.Errorf("ior-easy-1536b-fpp = %q, %v", w.Name, err)
	}
	// The largest sizes whose files fit in an int64: a rank's block
	// per file, every rank's block in a shared file.
	for _, largest := range []string{
		fmt.Sprintf("ior-easy-%dm-fpp", math.MaxInt64/(1<<20*ioEasyOpsPerRank)),
		fmt.Sprintf("ior-easy-%dm-shared", math.MaxInt64/(1<<20*ioEasyOpsPerRank*ioEasyRanks)),
	} {
		if _, err := ByName(largest); err != nil {
			t.Errorf("%s: %v", largest, err)
		}
	}

	// Names arrive from uploads: anything IOREasy would not emit is
	// unknown.
	for _, name := range []string{
		"ior-easy-0k-shared", "ior-easy-0b-fpp", // zero size
		"ior-easy-1024k-shared", "ior-easy-2048b-fpp", "ior-easy-01m-shared", "ior-easy-+1m-shared", // not canonical
		"ior-easy--1m-shared", "ior-easy-1g-shared", "ior-easy-m-shared", "ior-easy--shared",
		"ior-easy-1m", "ior-easy-1m-both", "ior-easy-1m-shared-x", "ior-easy-1m-", "ior-easy-",
		fmt.Sprintf("ior-easy-%dm-fpp", math.MaxInt64/(1<<20*ioEasyOpsPerRank)+1),                // block overflows
		fmt.Sprintf("ior-easy-%dm-shared", math.MaxInt64/(1<<20*ioEasyOpsPerRank*ioEasyRanks)+1), // shared file overflows
		"ior-easy-8589934591m-shared", // one block fits, the shared file does not
		"ior-easy-99999999999999999999b-fpp",
	} {
		if w, err := ByName(name); err == nil {
			t.Errorf("%q resolved to %s", name, w.Name)
		}
	}

	// Every rank-scaling variant from 2 to maxScaleRanks resolves to
	// itself; any other spelling or count is unknown.
	for _, n := range []int{2, 4, 8, 16, 32, maxScaleRanks} {
		want := Scale(n)
		got, err := ByName(want.Name)
		if err != nil {
			t.Errorf("%s: %v", want.Name, err)
			continue
		}
		if got.Name != want.Name || got.NProcs != n || !reflect.DeepEqual(got.Truth, want.Truth) {
			t.Errorf("%s resolved to %s (%d ranks)", want.Name, got.Name, got.NProcs)
		}
	}
	for _, name := range []string{
		"scale-0ranks", "scale-1ranks", fmt.Sprintf("scale-%dranks", maxScaleRanks+1), // out of range
		"scale-02ranks", "scale-+2ranks", "scale--2ranks", "scale- 2ranks", // not canonical
		"scale-2rank", "scale-ranks", "scale-2ranks-x", "scale-2", "scale-", "scale-99999999999999999999ranks",
	} {
		if w, err := ByName(name); err == nil {
			t.Errorf("%q resolved to %s", name, w.Name)
		}
	}
}

func TestFigureSplits(t *testing.T) {
	f2, f3 := Figure2(), Figure3()
	if len(f2) != 6 || len(f3) != 4 {
		t.Fatalf("figure splits wrong: %d, %d", len(f2), len(f3))
	}
	if f2[0].Name != "ior-easy-2k-shared" || f3[0].Name != "openpmd-baseline" {
		t.Error("figure ordering wrong")
	}
}

func TestFileIDStable(t *testing.T) {
	a := FileID("/lustre/x")
	b := FileID("/lustre/x")
	c := FileID("/lustre/y")
	if a != b {
		t.Error("FileID not deterministic")
	}
	if a == c {
		t.Error("FileID collision on trivially different paths")
	}
	if a>>63 != 0 {
		t.Error("FileID must clear the top bit")
	}
}

func TestRecorderRoundTripThroughFormats(t *testing.T) {
	l := logFor(t, "ior-easy-2k-shared")
	dir := t.TempDir()
	path := dir + "/trace.darshan"
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := darshan.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalOps() != l.TotalOps() {
		t.Errorf("ops changed through container: %d vs %d", got.TotalOps(), l.TotalOps())
	}
	if len(got.DXT) != len(l.DXT) {
		t.Errorf("DXT traces changed: %d vs %d", len(got.DXT), len(l.DXT))
	}
}
