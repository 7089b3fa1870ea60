package extractor

import (
	"context"
	"testing"

	"ion/internal/darshan"
	"ion/internal/workloads"
)

func testLog(t *testing.T) *darshan.Log {
	t.Helper()
	w, err := workloads.ByName("ior-easy-2k-shared")
	if err != nil {
		t.Fatal(err)
	}
	log, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestExtractTables(t *testing.T) {
	log := testLog(t)
	out, err := extract(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{TablePOSIX, TableLustre, TableDXT, TableJob} {
		if out.Table(name) == nil {
			t.Errorf("missing table %s", name)
		}
	}
	if out.Table(TableMPIIO) != nil {
		t.Error("POSIX-only workload must not produce an MPIIO table")
	}

	posix := out.Table(TablePOSIX)
	if posix.NumRows() != 1 {
		t.Fatalf("POSIX rows = %d, want 1 shared record", posix.NumRows())
	}
	reads, err := posix.Int(0, darshan.CPosixReads)
	if err != nil {
		t.Fatal(err)
	}
	if reads != 4096 {
		t.Errorf("POSIX_READS = %d, want 4096", reads)
	}
	name, err := posix.Value(0, "file_name")
	if err != nil {
		t.Fatal(err)
	}
	if name != "/lustre/ior-easy/testfile" {
		t.Errorf("file_name = %q", name)
	}
	rank, err := posix.Int(0, "rank")
	if err != nil {
		t.Fatal(err)
	}
	if rank != -1 {
		t.Errorf("rank = %d, want shared (-1)", rank)
	}

	// DXT row count equals total data ops.
	dxt := out.Table(TableDXT)
	if int64(dxt.NumRows()) != log.TotalOps() {
		t.Errorf("DXT rows = %d, total ops = %d", dxt.NumRows(), log.TotalOps())
	}

	// Lustre stripe info is present and plausible.
	lustre := out.Table(TableLustre)
	ss, err := lustre.Int(0, darshan.CLustreStripeSize)
	if err != nil {
		t.Fatal(err)
	}
	if ss != 1<<20 {
		t.Errorf("stripe size = %d", ss)
	}
	ids, err := lustre.Value(0, "OST_IDS")
	if err != nil {
		t.Fatal(err)
	}
	if ids == "" {
		t.Error("OST_IDS empty")
	}

	// Job table carries the header.
	job := out.Table(TableJob)
	nprocs, err := job.Int(0, "nprocs")
	if err != nil {
		t.Fatal(err)
	}
	if nprocs != 4 {
		t.Errorf("nprocs = %d", nprocs)
	}
}

func TestExtractToDirAndLoadDir(t *testing.T) {
	log := testLog(t)
	dir := t.TempDir()
	out, err := ExtractToDir(context.Background(), log, dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range out.Paths {
		if path == "" {
			t.Errorf("table %s has no path", name)
		}
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Header.NProcs != 4 {
		t.Errorf("reloaded nprocs = %d", back.Header.NProcs)
	}
	posix := back.Table(TablePOSIX)
	if posix == nil {
		t.Fatal("POSIX table missing after reload")
	}
	orig := out.Table(TablePOSIX)
	if posix.NumRows() != orig.NumRows() {
		t.Errorf("rows changed through disk: %d vs %d", posix.NumRows(), orig.NumRows())
	}
	for j, c := range orig.Cols {
		if posix.Cols[j] != c {
			t.Errorf("column %d changed: %q vs %q", j, posix.Cols[j], c)
		}
	}
}

func TestExtractFileFromBinaryLog(t *testing.T) {
	log := testLog(t)
	dir := t.TempDir()
	logPath := dir + "/trace.darshan"
	if err := log.WriteFile(logPath); err != nil {
		t.Fatal(err)
	}
	out, err := ExtractFile(context.Background(), logPath, dir+"/csv")
	if err != nil {
		t.Fatal(err)
	}
	if out.Table(TablePOSIX) == nil {
		t.Error("POSIX table missing from file extraction")
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := LoadDir("/nonexistent-dir-xyz"); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestDXTOrderingAndTypes(t *testing.T) {
	log := testLog(t)
	out, err := extract(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	dxt := out.Table(TableDXT)
	prev := -1.0
	for i := 0; i < dxt.NumRows(); i++ {
		start, err := dxt.Float(i, "start")
		if err != nil {
			t.Fatal(err)
		}
		end, err := dxt.Float(i, "end")
		if err != nil {
			t.Fatal(err)
		}
		if end < start {
			t.Fatalf("row %d: end %v < start %v", i, end, start)
		}
		if start < prev {
			t.Fatalf("row %d: DXT not time-ordered", i)
		}
		prev = start
		op, err := dxt.Value(i, "op")
		if err != nil {
			t.Fatal(err)
		}
		if op != "read" && op != "write" {
			t.Fatalf("row %d: bad op %q", i, op)
		}
		if _, err := dxt.Int(i, "offset"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestModuleNamesOrder(t *testing.T) {
	log := testLog(t)
	out, err := extract(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	names := out.ModuleNames()
	if len(names) == 0 || names[0] != TablePOSIX {
		t.Errorf("module order wrong: %v", names)
	}
	// JOB always last of the canonical list present.
	if names[len(names)-1] != TableJob {
		t.Errorf("JOB should be last: %v", names)
	}
}

func TestHistogramColumnsSumToOps(t *testing.T) {
	log := testLog(t)
	out, err := extract(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	posix := out.Table(TablePOSIX)
	for i := 0; i < posix.NumRows(); i++ {
		var sum int64
		for _, b := range darshan.SizeBins {
			v, err := posix.Int(i, "POSIX_SIZE_WRITE_"+b.Suffix)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		writes, err := posix.Int(i, darshan.CPosixWrites)
		if err != nil {
			t.Fatal(err)
		}
		if sum != writes {
			t.Errorf("row %d: histogram sums to %d, writes = %d", i, sum, writes)
		}
	}
}

// BenchmarkExtract measures in-memory log → table extraction on the
// openpmd-baseline trace.
func BenchmarkExtract(b *testing.B) {
	w, err := workloads.ByName("openpmd-baseline")
	if err != nil {
		b.Fatal(err)
	}
	log, err := w.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract(context.Background(), log); err != nil {
			b.Fatal(err)
		}
	}
}
