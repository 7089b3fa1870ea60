package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"ion/internal/iosim"
	"ion/internal/issue"
)

// The rank-scaling probe of eval's ScaleSweep: every rank writes
// scaleRecords records of scaleRecordSize bytes into one shared file,
// interleaved with the other ranks' records.
const (
	scaleRecordSize = 64 << 10
	scaleRecords    = 128
	// maxScaleRanks bounds the rank counts ByName resolves, since names
	// arrive from uploads and generating a variant simulates
	// ranks × scaleRecords writes.
	maxScaleRanks = 1024
)

// Scale models the rank-scaling probe: n POSIX ranks, n ≥ 2, interleave
// 64 KiB records on one shared file, rank r writing its i-th record at
// (i·n + r) × 64 KiB. Its labels follow from those parameters and the
// simulator's 1 MiB stripes and 4 MiB RPCs.
func Scale(n int) Workload {
	return Workload{
		Name:        fmt.Sprintf("scale-%dranks", n),
		Title:       fmt.Sprintf("Interleaved writers ×%d", n),
		Description: fmt.Sprintf("%d ranks interleave %d x 64 KiB records on one shared file", n, scaleRecords),
		Exe:         "./scale-probe",
		NProcs:      n,
		Truth: []issue.Expectation{
			Expect(issue.SmallIO, issue.VerdictDetected,
				"64 KiB records, far below the 4 MiB RPC size, with other ranks' records between a rank's own: no aggregation possible"),
			Expect(issue.MisalignedIO, issue.VerdictDetected,
				"15 of every 16 64 KiB records start off a 1 MiB stripe boundary"),
			Expect(issue.RandomAccess, issue.VerdictDetected,
				fmt.Sprintf("each rank skips %d other ranks' records between its writes: strided, never contiguous", n-1)),
			Expect(issue.SharedFile, issue.VerdictDetected,
				"every 1 MiB stripe holds records of several ranks: extent-lock conflicts"),
			Expect(issue.Interface, issue.VerdictDetected,
				"multiple ranks perform I/O through POSIX only; MPI-IO is never used"),
		},
		Config: iosim.ExampleConfig,
		Ops: func() []iosim.Op {
			const file = "/lustre/scale/shared.dat"
			var ops []iosim.Op
			for r := 0; r < n; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindOpen, File: file})
			}
			for i := 0; i < scaleRecords; i++ {
				for r := 0; r < n; r++ {
					off := int64(i*n+r) * scaleRecordSize
					ops = append(ops, iosim.Op{
						Rank: r, Kind: iosim.KindWrite, File: file,
						Offset: off, Size: scaleRecordSize, MemAligned: true,
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

// scaleByName resolves a name Scale emits, scale-<n>ranks, for
// 2 ≤ n ≤ maxScaleRanks spelled as Scale spells it (no sign, no
// leading zero).
func scaleByName(name string) (Workload, bool) {
	rest, ok := strings.CutPrefix(name, "scale-")
	if !ok {
		return Workload{}, false
	}
	digits, ok := strings.CutSuffix(rest, "ranks")
	if !ok {
		return Workload{}, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 2 || n > maxScaleRanks || strconv.Itoa(n) != digits {
		return Workload{}, false
	}
	return Scale(n), true
}
