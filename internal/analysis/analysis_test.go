package analysis

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ion/internal/extractor"
	"ion/internal/knowledge"
	"ion/internal/table"
	"ion/internal/testutil"
)

func envFor(t *testing.T, workload string) *Env {
	t.Helper()
	out, _, err := testutil.Extracted(workload)
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(out, knowledge.FromExtract(out))
}

func TestSmallIOOnIOREasy2K(t *testing.T) {
	r, err := SmallIO(envFor(t, "ior-easy-2k-shared"))
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalOps != 8192 {
		t.Errorf("total ops = %d", r.TotalOps)
	}
	if r.TinyShare < 0.99 {
		t.Errorf("tiny share = %.3f", r.TinyShare)
	}
	if r.ConsecShare < 0.99 {
		t.Errorf("consec share = %.3f (sequential stream should aggregate)", r.ConsecShare)
	}
	if r.RPCSize != 4<<20 || r.StripeSize != 1<<20 {
		t.Errorf("hyperparams wrong: %+v", r)
	}
}

func TestSmallIOOnIORHard(t *testing.T) {
	r, err := SmallIO(envFor(t, "ior-hard"))
	if err != nil {
		t.Fatal(err)
	}
	if r.ConsecShare > 0.01 {
		t.Errorf("strided stream must not look aggregatable: %.3f", r.ConsecShare)
	}
	if r.TinyShare < 0.99 {
		t.Errorf("tiny share = %.3f", r.TinyShare)
	}
}

func TestAlignmentShares(t *testing.T) {
	r2k, err := Alignment(envFor(t, "ior-easy-2k-shared"))
	if err != nil {
		t.Fatal(err)
	}
	if r2k.FileShare < 0.99 || r2k.FileShare > 0.999 {
		t.Errorf("2k misalign share = %.4f, want ~0.998", r2k.FileShare)
	}
	r1m, err := Alignment(envFor(t, "ior-easy-1m-shared"))
	if err != nil {
		t.Fatal(err)
	}
	if r1m.FileShare != 0 {
		t.Errorf("1m misalign share = %.4f, want 0", r1m.FileShare)
	}
	if r1m.FileAlignment != 1<<20 {
		t.Errorf("alignment boundary = %d", r1m.FileAlignment)
	}
}

func TestPatternClassification(t *testing.T) {
	// ior-hard: strided forward jumps, no backward, no consecutive.
	hard, err := Pattern(envFor(t, "ior-hard"))
	if err != nil {
		t.Fatal(err)
	}
	if hard.Consecutive != 0 {
		t.Errorf("ior-hard consecutive = %d", hard.Consecutive)
	}
	if hard.NonContigShare < 0.99 {
		t.Errorf("ior-hard noncontig = %.3f", hard.NonContigShare)
	}
	if hard.BackwardShare > 0.01 {
		t.Errorf("ior-hard backward share = %.3f, strided is forward-only", hard.BackwardShare)
	}

	// ior-rnd4k: substantial backward jumps.
	rnd, err := Pattern(envFor(t, "ior-rnd4k"))
	if err != nil {
		t.Fatal(err)
	}
	if rnd.BackwardShare < 0.2 {
		t.Errorf("rnd4k backward share = %.3f", rnd.BackwardShare)
	}

	// md-workbench: same-offset re-access counts as repeats, not random.
	mdw, err := Pattern(envFor(t, "md-workbench"))
	if err != nil {
		t.Fatal(err)
	}
	if mdw.Repeats == 0 {
		t.Error("md-workbench should show repeat accesses")
	}
	if mdw.NonContigShare > 0.05 {
		t.Errorf("md-workbench noncontig = %.3f; repeats misclassified as random", mdw.NonContigShare)
	}
}

func TestSharedFileConflicts(t *testing.T) {
	easy, err := SharedFile(envFor(t, "ior-easy-2k-shared"))
	if err != nil {
		t.Fatal(err)
	}
	if easy.SharedFiles != 1 || easy.MaxRanks != 4 {
		t.Errorf("shared files = %d, max ranks = %d", easy.SharedFiles, easy.MaxRanks)
	}
	if easy.ConflictStripes != 0 {
		t.Errorf("segmented access must not conflict: %d stripes", easy.ConflictStripes)
	}
	if easy.OverlapEvents != 0 {
		t.Errorf("segmented access must not overlap: %d events", easy.OverlapEvents)
	}

	hard, err := SharedFile(envFor(t, "ior-hard"))
	if err != nil {
		t.Fatal(err)
	}
	if hard.ConflictShare < 0.5 {
		t.Errorf("interleaved writes should conflict broadly: %.3f", hard.ConflictShare)
	}
	if hard.OverlapEvents == 0 {
		t.Error("interleaved writes should overlap in time")
	}

	fpp, err := SharedFile(envFor(t, "ior-easy-1m-fpp"))
	if err != nil {
		t.Fatal(err)
	}
	if fpp.SharedFiles != 0 {
		t.Errorf("file-per-process shows %d shared files", fpp.SharedFiles)
	}
}

func TestImbalancePatterns(t *testing.T) {
	base, err := Imbalance(envFor(t, "e2e-baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Pattern != "single-rank" || base.TopRank != 0 {
		t.Errorf("e2e baseline pattern = %s, top rank %d", base.Pattern, base.TopRank)
	}
	if base.ImbalancePct < 0.98 {
		t.Errorf("imbalance pct = %.4f, want ~0.99", base.ImbalancePct)
	}

	opt, err := Imbalance(envFor(t, "e2e-optimized"))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Pattern != "subset" {
		t.Errorf("e2e optimized pattern = %s", opt.Pattern)
	}
	if opt.SubsetK > 64 || opt.SubsetK == 0 {
		t.Errorf("subset size = %d, want <=64", opt.SubsetK)
	}

	bal, err := Imbalance(envFor(t, "ior-easy-1m-shared"))
	if err != nil {
		t.Fatal(err)
	}
	if bal.Pattern != "balanced" {
		t.Errorf("ior-easy pattern = %s", bal.Pattern)
	}
}

func TestMetadataRatios(t *testing.T) {
	mdw, err := Metadata(envFor(t, "md-workbench"))
	if err != nil {
		t.Fatal(err)
	}
	if mdw.Ratio < 0.5 {
		t.Errorf("md-workbench metadata ratio = %.2f", mdw.Ratio)
	}
	if mdw.DistinctFiles < 200 {
		t.Errorf("distinct files = %d", mdw.DistinctFiles)
	}
	easy, err := Metadata(envFor(t, "ior-easy-1m-shared"))
	if err != nil {
		t.Fatal(err)
	}
	if easy.Ratio > 0.01 {
		t.Errorf("ior-easy metadata ratio = %.4f", easy.Ratio)
	}
}

func TestInterfaceReports(t *testing.T) {
	posixOnly, err := Interface(envFor(t, "ior-hard"))
	if err != nil {
		t.Fatal(err)
	}
	if posixOnly.UsesMPIIO || !posixOnly.UsesPOSIX || !posixOnly.MultiRankData {
		t.Errorf("ior-hard interface = %+v", posixOnly)
	}
	if posixOnly.SharedFiles != 1 {
		t.Errorf("shared files = %d", posixOnly.SharedFiles)
	}
	mpi, err := Interface(envFor(t, "openpmd-baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if !mpi.UsesMPIIO {
		t.Error("openpmd should use MPI-IO")
	}
	if mpi.Describe() == "" {
		t.Error("describe empty")
	}
}

func TestCollectiveReports(t *testing.T) {
	degraded, err := Collective(envFor(t, "openpmd-baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if !degraded.HasMPIIO || degraded.CollOps != 0 || degraded.IndepOps == 0 {
		t.Errorf("openpmd baseline collective = %+v", degraded)
	}
	if degraded.SmallIndepShare < 0.9 {
		t.Errorf("small indep share = %.3f", degraded.SmallIndepShare)
	}
	healthy, err := Collective(envFor(t, "openpmd-optimized"))
	if err != nil {
		t.Fatal(err)
	}
	if healthy.CollShare < 0.9 {
		t.Errorf("optimized collective share = %.3f", healthy.CollShare)
	}
	none, err := Collective(envFor(t, "ior-hard"))
	if err != nil {
		t.Fatal(err)
	}
	if none.HasMPIIO {
		t.Error("ior-hard reports MPI-IO")
	}
}

func TestTimeImbalance(t *testing.T) {
	base, err := TimeImbalance(envFor(t, "e2e-baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if base.SlowestRank != 0 {
		t.Errorf("slowest rank = %d, want 0", base.SlowestRank)
	}
	if base.Ratio < 10 {
		t.Errorf("ratio = %.1f, want >=10", base.Ratio)
	}
	even, err := TimeImbalance(envFor(t, "ior-easy-1m-fpp"))
	if err != nil {
		t.Fatal(err)
	}
	if even.Ratio > 3 {
		t.Errorf("balanced workload ratio = %.1f", even.Ratio)
	}
}

func TestMissingTables(t *testing.T) {
	empty := NewEnv(&extractor.Output{Tables: map[string]*table.Table{}}, knowledge.DefaultHyperparams())
	if _, err := SmallIO(empty); err == nil {
		t.Error("SmallIO without DXT accepted")
	}
	if _, err := Alignment(empty); err == nil {
		t.Error("Alignment without POSIX accepted")
	}
	if _, err := Metadata(empty); err == nil {
		t.Error("Metadata without POSIX accepted")
	}
	// Collective degrades gracefully (no MPI-IO is a valid state).
	if r, err := Collective(empty); err != nil || r.HasMPIIO {
		t.Errorf("Collective on empty env: %+v, %v", r, err)
	}
}

// TestMalformedDXT checks that a bad DXT cell or a missing column is
// reported with its position rather than analyzed.
func TestMalformedDXT(t *testing.T) {
	cols := []string{"file_name", "op", "rank", "offset", "length", "start", "end"}
	good := []string{"/f", "write", "0", "0", "10", "0", "1"}
	for _, c := range []struct {
		col, val, want string
	}{
		{"op", "append", `table DXT: op[1] = "append" is not read or write`},
		{"rank", "r0", `table DXT: rank[1] = "r0" is not an integer`},
		{"length", "", `table DXT: length[1] = "" is not an integer`},
		{"end", "later", `table DXT: end[1] = "later" is not a number`},
	} {
		tab := table.New(extractor.TableDXT, cols)
		bad := append([]string(nil), good...)
		bad[slices.Index(cols, c.col)] = c.val
		for _, row := range [][]string{good, bad} {
			if err := tab.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		env := NewEnv(&extractor.Output{Tables: map[string]*table.Table{extractor.TableDXT: tab}}, knowledge.DefaultHyperparams())
		if _, err := SmallIO(env); err == nil || err.Error() != c.want {
			t.Errorf("bad %s: error %v, want %q", c.col, err, c.want)
		}
	}
	noEnd := table.New(extractor.TableDXT, cols[:len(cols)-1])
	env := NewEnv(&extractor.Output{Tables: map[string]*table.Table{extractor.TableDXT: noEnd}}, knowledge.DefaultHyperparams())
	if _, err := SharedFile(env); err == nil || !strings.Contains(err.Error(), `no column "end"`) {
		t.Errorf("missing column: error %v", err)
	}
}

func TestShareBoundsProperty(t *testing.T) {
	f := func(num, den uint16) bool {
		s := share(int64(num), int64(den))
		if den == 0 {
			return s == 0
		}
		if num > den {
			return s > 1
		}
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReportSharesWithinBounds(t *testing.T) {
	// All computed shares across all workloads stay in [0, 1].
	for _, name := range []string{
		"ior-easy-2k-shared", "ior-hard", "ior-rnd4k", "md-workbench",
		"openpmd-baseline", "openpmd-optimized", "e2e-baseline", "e2e-optimized",
	} {
		env := envFor(t, name)
		small, err := SmallIO(env)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := Pattern(env)
		if err != nil {
			t.Fatal(err)
		}
		al, err := Alignment(env)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := SharedFile(env)
		if err != nil {
			t.Fatal(err)
		}
		for label, v := range map[string]float64{
			"small":     small.SmallShare,
			"tiny":      small.TinyShare,
			"consec":    small.ConsecShare,
			"volume":    small.VolumeShare,
			"noncontig": pat.NonContigShare,
			"backward":  pat.BackwardShare,
			"file-mis":  al.FileShare,
			"mem-mis":   al.MemShare,
			"conflict":  sf.ConflictShare,
			"on-shared": sf.WritesOnSharedShare,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s: share %s = %f out of [0,1]", name, label, v)
			}
		}
	}
}

func TestPct(t *testing.T) {
	if Pct(0.5) != "50.00%" {
		t.Errorf("Pct(0.5) = %s", Pct(0.5))
	}
	if Pct(0.998) != "99.80%" {
		t.Errorf("Pct(0.998) = %s", Pct(0.998))
	}
}
