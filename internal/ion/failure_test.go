package ion

// Failure-injection tests: the pipeline must fail loudly and
// descriptively — never panic, never fabricate a diagnosis — when the
// trace data is corrupt, truncated, or structurally wrong.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ion/internal/expertsim"
	"ion/internal/extractor"
	"ion/internal/issue"
	"ion/internal/testutil"
)

// corrupt applies a mutation to an extracted CSV directory and runs the
// analyzer over it.
func corruptAndAnalyze(t *testing.T, mutate func(dir string) error) error {
	t.Helper()
	log, err := testutil.Log("ior-easy-1m-shared")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := extractor.ExtractToDir(context.Background(), log, dir); err != nil {
		t.Fatal(err)
	}
	if err := mutate(dir); err != nil {
		t.Fatal(err)
	}
	out, err := extractor.LoadDir(dir)
	if err != nil {
		return err // corruption caught at load time: also acceptable
	}
	fw, err := New(Config{Client: expertsim.New(), SkipSummary: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fw.AnalyzeExtracted(context.Background(), out, "corrupt")
	return err
}

func TestCorruptDXTNumbersFail(t *testing.T) {
	err := corruptAndAnalyze(t, func(dir string) error {
		path := filepath.Join(dir, "DXT.csv")
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// Break a numeric column value on the first data row.
		lines := strings.SplitN(string(data), "\n", 3)
		cells := strings.Split(lines[1], ",")
		cells[6] = "not-a-number" // offset column
		lines[1] = strings.Join(cells, ",")
		return os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644)
	})
	if err == nil {
		t.Fatal("corrupt DXT offset accepted")
	}
	if !strings.Contains(err.Error(), "not-a-number") && !strings.Contains(err.Error(), "offset") {
		t.Errorf("error not descriptive: %v", err)
	}
}

func TestTruncatedCSVFails(t *testing.T) {
	err := corruptAndAnalyze(t, func(dir string) error {
		path := filepath.Join(dir, "POSIX.csv")
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// Chop the file inside the last data row.
		return os.WriteFile(path, data[:len(data)-10], 0o644)
	})
	if err == nil {
		t.Fatal("truncated POSIX.csv accepted")
	}
}

func TestMissingDXTDegradesGracefully(t *testing.T) {
	// Without DXT the per-stream analyses cannot run; the diagnosis
	// must error (these issues NEED the trace), not silently pass.
	err := corruptAndAnalyze(t, func(dir string) error {
		return os.Remove(filepath.Join(dir, "DXT.csv"))
	})
	if err == nil {
		t.Fatal("missing DXT accepted for DXT-dependent issues")
	}
	if !strings.Contains(err.Error(), "DXT") {
		t.Errorf("error should name the missing table: %v", err)
	}

	// But counter-only issues still work on the same directory.
	log, err2 := testutil.Log("ior-easy-1m-shared")
	if err2 != nil {
		t.Fatal(err2)
	}
	dir := t.TempDir()
	if _, err := extractor.ExtractToDir(context.Background(), log, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "DXT.csv")); err != nil {
		t.Fatal(err)
	}
	out, err2 := extractor.LoadDir(dir)
	if err2 != nil {
		t.Fatal(err2)
	}
	fw, err2 := New(Config{
		Client:      expertsim.New(),
		Issues:      []issue.ID{issue.MisalignedIO, issue.Metadata, issue.CollectiveIO},
		SkipSummary: true,
	})
	if err2 != nil {
		t.Fatal(err2)
	}
	rep, err2 := fw.AnalyzeExtracted(context.Background(), out, "no-dxt")
	if err2 != nil {
		t.Fatalf("counter-only analysis should survive a missing DXT table: %v", err2)
	}
	if rep.Verdict(issue.MisalignedIO) != issue.VerdictNotDetected {
		t.Errorf("alignment verdict = %s", rep.Verdict(issue.MisalignedIO))
	}
}

func TestEmptyDirFails(t *testing.T) {
	fw, err := New(Config{Client: expertsim.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.AnalyzeFile(context.Background(), "/nonexistent.darshan", t.TempDir()); err == nil {
		t.Fatal("nonexistent log accepted")
	}
}

func TestGarbageLogFileFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.darshan")
	if err := os.WriteFile(path, []byte("POSIX\tgarbage\tnot\ta\tlog\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Client: expertsim.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.AnalyzeFile(context.Background(), path, filepath.Join(dir, "csv")); err == nil {
		t.Fatal("garbage log accepted")
	}
}
