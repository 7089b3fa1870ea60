package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ion/internal/ion"
	"ion/internal/iosim"
	"ion/internal/issue"
	"ion/internal/workloads"
)

// SweepRow is one transfer-size observation.
type SweepRow struct {
	Transfer   int64
	SmallIO    issue.Verdict
	Misaligned issue.Verdict
	// Makespan is the simulated completion time of the run.
	Makespan float64
	// AggregatedShare is the fraction of ops the client cache absorbed.
	AggregatedShare float64
}

// TransferSweep runs the ior-easy shared-file workload across transfer
// sizes and records how ION's verdicts and the simulated performance
// move together: the small-I/O verdict should read "mitigated" for the
// sequential stream below the RPC size and "not-detected" at or above
// it, where no transfer is small; the misalignment verdict should flip
// exactly at the stripe boundary; and the simulated makespan should
// track the aggregation behavior — verdicts grounded in physics rather
// than thresholds.
func (r *Runner) TransferSweep(ctx context.Context, transfers []int64) (string, []SweepRow, error) {
	fw, err := ion.New(ion.Config{Client: r.Client, SkipSummary: true,
		Issues: []issue.ID{issue.SmallIO, issue.MisalignedIO}})
	if err != nil {
		return "", nil, err
	}
	baseDir := r.WorkDir
	if baseDir == "" {
		baseDir, err = os.MkdirTemp("", "ion-sweep-")
		if err != nil {
			return "", nil, fmt.Errorf("eval: %w", err)
		}
		defer os.RemoveAll(baseDir)
	}

	var rows []SweepRow
	var b strings.Builder
	b.WriteString("Transfer-size sweep: ior-easy shared file, sequential stream\n")
	b.WriteString(strings.Repeat("=", 72) + "\n")
	fmt.Fprintf(&b, "%-12s %-12s %-14s %-14s %-12s\n",
		"transfer", "small-io", "misaligned-io", "makespan(s)", "aggregated")
	for _, xfer := range transfers {
		w := workloads.IOREasy(xfer, true)
		log, stats, err := w.GenerateWithStats()
		if err != nil {
			return "", nil, err
		}
		rep, err := fw.AnalyzeLog(ctx, log, w.Name, filepath.Join(baseDir, fmt.Sprintf("x%d", xfer)))
		if err != nil {
			return "", nil, err
		}
		aggShare := 0.0
		if stats.DataOps > 0 {
			aggShare = float64(stats.AggregatedOps) / float64(stats.DataOps)
		}
		row := SweepRow{
			Transfer:        xfer,
			SmallIO:         rep.Verdict(issue.SmallIO),
			Misaligned:      rep.Verdict(issue.MisalignedIO),
			Makespan:        stats.Makespan,
			AggregatedShare: aggShare,
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "%-12s %-12s %-14s %-14.4f %-12s\n",
			humanSize(xfer), row.SmallIO, row.Misaligned, row.Makespan,
			fmt.Sprintf("%.1f%%", 100*aggShare))
	}
	b.WriteString(`
Reading: sub-stripe transfers are fully misaligned yet stay "mitigated"
on small I/O because the sequential stream aggregates; at the stripe
boundary (1 MiB) misalignment disappears; above the RPC size small I/O
ceases to exist. The verdicts flip exactly where the system facts say
they should, with no tunable thresholds involved.
`)
	return b.String(), rows, nil
}

func humanSize(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// ScaleRow is one rank-count observation of the scaling sweep.
type ScaleRow struct {
	Ranks         int
	LockConflicts int
	SharedFile    issue.Verdict
	Makespan      float64
}

// ScaleSweep grows the writer count on an interleaved shared-file
// pattern and records how extent-lock contention rises with scale and
// whether ION's shared-file verdict tracks it — the contention-scaling
// experiment a center runs before growing a job.
func (r *Runner) ScaleSweep(ctx context.Context, rankCounts []int) (string, []ScaleRow, error) {
	fw, err := ion.New(ion.Config{Client: r.Client, SkipSummary: true,
		Issues: []issue.ID{issue.SharedFile}})
	if err != nil {
		return "", nil, err
	}
	baseDir := r.WorkDir
	if baseDir == "" {
		baseDir, err = os.MkdirTemp("", "ion-scale-")
		if err != nil {
			return "", nil, fmt.Errorf("eval: %w", err)
		}
		defer os.RemoveAll(baseDir)
	}

	var rows []ScaleRow
	var b strings.Builder
	b.WriteString("Rank-scaling sweep: interleaved 64 KiB writes on one shared file\n")
	b.WriteString(strings.Repeat("=", 68) + "\n")
	fmt.Fprintf(&b, "%-8s %-16s %-14s %-12s\n", "ranks", "lock conflicts", "shared-file", "makespan(s)")
	for _, n := range rankCounts {
		w := interleavedWriters(n)
		log, stats, err := w.GenerateWithStats()
		if err != nil {
			return "", nil, err
		}
		rep, err := fw.AnalyzeLog(ctx, log, w.Name, filepath.Join(baseDir, fmt.Sprintf("r%d", n)))
		if err != nil {
			return "", nil, err
		}
		row := ScaleRow{
			Ranks:         n,
			LockConflicts: stats.LockConflicts,
			SharedFile:    rep.Verdict(issue.SharedFile),
			Makespan:      stats.Makespan,
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "%-8d %-16d %-14s %-12.4f\n", n, row.LockConflicts, row.SharedFile, row.Makespan)
	}
	b.WriteString(`
Reading: interleaving more writers multiplies extent-lock revocations;
the shared-file diagnosis stays "detected" at every scale because the
stripe-conflict analysis sees the interleaving directly, independent of
absolute op counts.
`)
	return b.String(), rows, nil
}

// interleavedWriters builds the scaling workload: n ranks interleave
// 64 KiB records into one shared file.
func interleavedWriters(n int) workloads.Workload {
	const recSize = 64 << 10
	const perRank = 128
	return workloads.Workload{
		Name:        fmt.Sprintf("scale-%dranks", n),
		Title:       fmt.Sprintf("Interleaved writers ×%d", n),
		Description: fmt.Sprintf("%d ranks interleave %d x 64 KiB records on one shared file", n, perRank),
		Exe:         "./scale-probe",
		NProcs:      n,
		Config:      defaultSimConfig,
		Ops: func() []iosim.Op {
			const file = "/lustre/scale/shared.dat"
			var ops []iosim.Op
			for r := 0; r < n; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindOpen, File: file})
			}
			for i := 0; i < perRank; i++ {
				for r := 0; r < n; r++ {
					off := int64(i*n+r) * recSize
					ops = append(ops, iosim.Op{
						Rank: r, Kind: iosim.KindWrite, File: file,
						Offset: off, Size: recSize, MemAligned: true,
					})
				}
			}
			for r := 0; r < n; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindClose, File: file})
			}
			return ops
		},
	}
}

func defaultSimConfig() iosim.Config { return iosim.ExampleConfig() }
