package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"ion/internal/iosim"
	"ion/internal/issue"
)

// The IO500-derived workloads of Figure 2. All run 4 ranks through the
// POSIX interface, as in the paper's controlled setup, on a Lustre
// configuration with 1 MiB stripes and a 4 MiB RPC size.

const (
	ioEasyRanks      = 4
	ioEasyOpsPerRank = 1024 // writes per rank; same count of reads
	iorHardXfer      = 47008
	iorHardIters     = 1024
	rnd4kOpsPerRank  = 1024
)

// IOREasy models the ior-easy configuration: each rank streams
// sequential, consecutive transfers of the given size. With shared=true
// all ranks write disjoint segments of one file; otherwise each rank
// owns a file (file-per-process).
func IOREasy(transfer int64, shared bool) Workload {
	name := fmt.Sprintf("ior-easy-%s-%s", sizeName(transfer), layoutName(shared))
	title := fmt.Sprintf("IOR-Easy-%s-%s", sizeLabel(transfer), layoutLabel(shared))
	const ranks = ioEasyRanks
	cfg := iosim.ExampleConfig()

	smallIO := Expect(issue.SmallIO, issue.VerdictMitigated,
		"small transfers, but sequential and consecutive: aggregatable into bulk RPCs")
	if transfer >= cfg.RPCSize {
		smallIO = Expect(issue.SmallIO, issue.VerdictNotDetected,
			"every transfer fills at least one bulk RPC: there is no small I/O")
	}
	truth := []issue.Expectation{
		smallIO,
		Expect(issue.Interface, issue.VerdictDetected,
			"multiple ranks perform I/O through POSIX only; MPI-IO is never used"),
	}
	if transfer < cfg.StripeSize {
		truth = append(truth, Expect(issue.MisalignedIO, issue.VerdictDetected,
			"2 KiB transfers land off the 1 MiB stripe boundary almost always"))
	}
	if shared {
		truth = append(truth, Expect(issue.SharedFile, issue.VerdictMitigated,
			"all ranks share one file, but segmented access never overlaps a stripe"))
	}

	return Workload{
		Name:  name,
		Title: title,
		Description: fmt.Sprintf(
			"ior-easy: %d ranks, %s sequential consecutive transfers, %s, POSIX",
			ranks, sizeLabel(transfer), layoutLabel(shared)),
		Exe:    fmt.Sprintf("ior -a POSIX -t %d -b %d -s 1", transfer, transfer*ioEasyOpsPerRank),
		NProcs: ranks,
		Truth:  truth,
		Config: iosim.ExampleConfig,
		Ops: func() []iosim.Op {
			var ops []iosim.Op
			segment := transfer * ioEasyOpsPerRank
			file := func(r int) string {
				if shared {
					return "/lustre/ior-easy/testfile"
				}
				return fmt.Sprintf("/lustre/ior-easy/testfile.%08d", r)
			}
			base := func(r int) int64 {
				if shared {
					return int64(r) * segment
				}
				return 0
			}
			for r := 0; r < ranks; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindOpen, File: file(r), API: iosim.APIPOSIX})
			}
			// Write phase: sequential consecutive transfers.
			for r := 0; r < ranks; r++ {
				for i := int64(0); i < ioEasyOpsPerRank; i++ {
					ops = append(ops, iosim.Op{
						Rank: r, Kind: iosim.KindWrite, File: file(r),
						Offset: base(r) + i*transfer, Size: transfer,
						API: iosim.APIPOSIX, MemAligned: true,
					})
				}
			}
			// Read-back phase, equally sequential.
			for r := 0; r < ranks; r++ {
				for i := int64(0); i < ioEasyOpsPerRank; i++ {
					ops = append(ops, iosim.Op{
						Rank: r, Kind: iosim.KindRead, File: file(r),
						Offset: base(r) + i*transfer, Size: transfer,
						API: iosim.APIPOSIX, MemAligned: true,
					})
				}
			}
			for r := 0; r < ranks; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindClose, File: file(r), API: iosim.APIPOSIX})
			}
			return ops
		},
	}
}

// IORHard models the ior-hard configuration: 47008-byte transfers in a
// globally interleaved (strided) layout on one shared file, so per-rank
// accesses are never consecutive, stripes interleave between ranks, and
// client-side aggregation cannot absorb the small requests.
func IORHard() Workload {
	const ranks = 4
	return Workload{
		Name:  "ior-hard",
		Title: "IOR-Hard",
		Description: fmt.Sprintf(
			"ior-hard: %d ranks, %d-byte interleaved strided transfers on one shared file, POSIX",
			ranks, iorHardXfer),
		Exe:    fmt.Sprintf("ior -a POSIX -t %d -s %d -w -r (hard)", iorHardXfer, iorHardIters),
		NProcs: ranks,
		Truth: []issue.Expectation{
			Expect(issue.SmallIO, issue.VerdictDetected,
				"small transfers with gaps between a rank's accesses: no aggregation possible"),
			Expect(issue.MisalignedIO, issue.VerdictDetected,
				"47008-byte units never align with the 1 MiB stripe boundary"),
			Expect(issue.RandomAccess, issue.VerdictDetected,
				"per-rank access is strided/non-contiguous, defeating readahead and write-back"),
			Expect(issue.SharedFile, issue.VerdictDetected,
				"rank-interleaved writes share stripes: extent-lock conflicts and temporal overlap"),
			Expect(issue.Interface, issue.VerdictDetected,
				"multiple ranks perform I/O through POSIX only; MPI-IO is never used"),
		},
		Config: iosim.ExampleConfig,
		Ops: func() []iosim.Op {
			const file = "/lustre/ior-hard/IOR_file"
			var ops []iosim.Op
			for r := 0; r < ranks; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindOpen, File: file, API: iosim.APIPOSIX})
			}
			for r := 0; r < ranks; r++ {
				for i := int64(0); i < iorHardIters; i++ {
					off := (i*int64(ranks) + int64(r)) * iorHardXfer
					ops = append(ops, iosim.Op{
						Rank: r, Kind: iosim.KindWrite, File: file,
						Offset: off, Size: iorHardXfer,
						API: iosim.APIPOSIX, MemAligned: false,
					})
				}
			}
			for r := 0; r < ranks; r++ {
				for i := int64(0); i < iorHardIters; i++ {
					off := (i*int64(ranks) + int64(r)) * iorHardXfer
					ops = append(ops, iosim.Op{
						Rank: r, Kind: iosim.KindRead, File: file,
						Offset: off, Size: iorHardXfer,
						API: iosim.APIPOSIX, MemAligned: false,
					})
				}
			}
			for r := 0; r < ranks; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindClose, File: file, API: iosim.APIPOSIX})
			}
			return ops
		},
	}
}

// IORRandom4K models the ior-rnd4k configuration: uniform random 4 KiB
// reads and writes across one shared file.
func IORRandom4K() Workload {
	const ranks = 4
	return Workload{
		Name:  "ior-rnd4k",
		Title: "IOR-Random-4K-Shared-File",
		Description: fmt.Sprintf(
			"ior-rnd4k: %d ranks, random 4 KiB reads/writes on one shared file, POSIX", ranks),
		Exe:    "ior -a POSIX -t 4k -z -w -r (random)",
		NProcs: ranks,
		Truth: []issue.Expectation{
			Expect(issue.SmallIO, issue.VerdictDetected,
				"4 KiB requests with random placement: aggregation impossible"),
			Expect(issue.RandomAccess, issue.VerdictDetected,
				"uniform random offsets defeat readahead and write-back caching"),
			Expect(issue.MisalignedIO, issue.VerdictDetected,
				"random 4 KiB offsets rarely coincide with stripe boundaries"),
			Expect(issue.SharedFile, issue.VerdictDetected,
				"random writes from all ranks collide on stripes: lock contention"),
			Expect(issue.Interface, issue.VerdictDetected,
				"multiple ranks perform I/O through POSIX only; MPI-IO is never used"),
		},
		Config: iosim.ExampleConfig,
		Ops: func() []iosim.Op {
			const file = "/lustre/ior-rnd4k/IOR_file"
			const xfer = 4096
			span := int64(ranks) * rnd4kOpsPerRank * xfer * 4
			rng := rand.New(rand.NewSource(20240708))
			var ops []iosim.Op
			for r := 0; r < ranks; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindOpen, File: file, API: iosim.APIPOSIX})
			}
			for i := 0; i < rnd4kOpsPerRank; i++ {
				for r := 0; r < ranks; r++ {
					kind := iosim.KindWrite
					if rng.Intn(2) == 0 {
						kind = iosim.KindRead
					}
					off := (rng.Int63n(span) / xfer) * xfer
					ops = append(ops, iosim.Op{
						Rank: r, Kind: kind, File: file,
						Offset: off, Size: xfer,
						API: iosim.APIPOSIX, MemAligned: true,
					})
				}
			}
			for r := 0; r < ranks; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindClose, File: file, API: iosim.APIPOSIX})
			}
			return ops
		},
	}
}

// MDWorkbench models the md-workbench configuration: a metadata-bound
// loop that creates, writes, reads, stats, and closes many small
// per-rank files, always accessing offset zero with a tiny object.
func MDWorkbench() Workload {
	const (
		ranks      = 4
		filesPer   = 64
		iterations = 3
		objSize    = 3901
	)
	return Workload{
		Name:  "md-workbench",
		Title: "MD-Workbench",
		Description: fmt.Sprintf(
			"md-workbench: %d ranks × %d files × %d iterations of tiny same-offset I/O, POSIX",
			ranks, filesPer, iterations),
		Exe:    fmt.Sprintf("md-workbench -I %d -P %d -S %d", filesPer, iterations, objSize),
		NProcs: ranks,
		Truth: []issue.Expectation{
			Expect(issue.Metadata, issue.VerdictDetected,
				"opens/stats/closes dominate: heavy load on the metadata server"),
			Expect(issue.SmallIO, issue.VerdictDetected,
				"repeated ~4 KiB objects to many files: no aggregation across files"),
			Expect(issue.Interface, issue.VerdictDetected,
				"multiple ranks perform I/O through POSIX only; MPI-IO is never used"),
		},
		Config: iosim.ExampleConfig,
		Ops: func() []iosim.Op {
			var ops []iosim.Op
			file := func(r, f int) string {
				return fmt.Sprintf("/lustre/mdw/rank%d/obj.%04d", r, f)
			}
			for it := 0; it < iterations; it++ {
				for r := 0; r < ranks; r++ {
					for f := 0; f < filesPer; f++ {
						path := file(r, f)
						ops = append(ops,
							iosim.Op{Rank: r, Kind: iosim.KindOpen, File: path, API: iosim.APIPOSIX},
							iosim.Op{Rank: r, Kind: iosim.KindWrite, File: path, Offset: 0, Size: objSize, API: iosim.APIPOSIX, MemAligned: true},
							iosim.Op{Rank: r, Kind: iosim.KindClose, File: path, API: iosim.APIPOSIX},
							iosim.Op{Rank: r, Kind: iosim.KindOpen, File: path, API: iosim.APIPOSIX},
							iosim.Op{Rank: r, Kind: iosim.KindRead, File: path, Offset: 0, Size: objSize, API: iosim.APIPOSIX, MemAligned: true},
							iosim.Op{Rank: r, Kind: iosim.KindClose, File: path, API: iosim.APIPOSIX},
							iosim.Op{Rank: r, Kind: iosim.KindStat, File: path, API: iosim.APIPOSIX},
						)
					}
				}
			}
			return ops
		},
	}
}

// iorEasyByName resolves a name IOREasy emits,
// ior-easy-<size>-<shared|fpp> with a size of <n>b, <n>k or <n>m.
// Names arrive from uploads, so it accepts only the spelling IOREasy
// itself gives a size (1m, not 1024k or 01m), and only sizes whose
// files fit in an int64: a rank's block is transfer × ioEasyOpsPerRank,
// and a shared file holds every rank's block.
func iorEasyByName(name string) (Workload, bool) {
	rest, ok := strings.CutPrefix(name, "ior-easy-")
	if !ok {
		return Workload{}, false
	}
	size, layout, ok := strings.Cut(rest, "-")
	if !ok || size == "" || (layout != "shared" && layout != "fpp") {
		return Workload{}, false
	}
	var unit int64
	switch size[len(size)-1] {
	case 'b':
		unit = 1
	case 'k':
		unit = 1 << 10
	case 'm':
		unit = 1 << 20
	default:
		return Workload{}, false
	}
	extent := unit * ioEasyOpsPerRank // a file's bytes per unit of transfer
	if layout == "shared" {
		extent *= ioEasyRanks
	}
	n, err := strconv.ParseInt(size[:len(size)-1], 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/extent || sizeName(n*unit) != size {
		return Workload{}, false
	}
	return IOREasy(n*unit, layout == "shared"), true
}

func sizeName(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dm", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	}
	return fmt.Sprintf("%db", n)
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

func layoutName(shared bool) string {
	if shared {
		return "shared"
	}
	return "fpp"
}

func layoutLabel(shared bool) string {
	if shared {
		return "Shared-File"
	}
	return "File-per-process"
}
