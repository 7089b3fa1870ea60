// Package semcache implements the semantic diagnosis cache: a
// fixed-length, scale-normalized signature vector computed from a
// trace's extracted counter tables, and a persistent nearest-neighbor
// store over the signatures of completed diagnoses. Near-duplicate
// workloads — the same application at a different scale or timestep —
// land in the same signature neighborhood even though their trace
// bytes (and content hashes) differ, so the job service can serve a
// prior diagnosis instead of paying full LLM fan-out, or hand it to the
// model as context.
package semcache

import (
	"math"

	"ion/internal/darshan"
	"ion/internal/extractor"
	"ion/internal/table"
)

// Version tags persisted signatures; bump it whenever the dimension
// list or a formula changes so stale entries are dropped on load
// instead of matching against incomparable vectors.
const Version = 1

// DefaultQuantStep is the per-dimension quantization grid. Every
// dimension is a ratio in [0, 1]; snapping to a 1/32 grid absorbs
// run-to-run jitter (a few extra metadata calls, slightly different
// byte totals) without collapsing genuinely different workloads.
const DefaultQuantStep = 1.0 / 32

// dimensions names each signature slot, index-aligned with the vector
// Extract returns. The names surface in per-dimension provenance
// deltas on reused jobs.
var dimensions = []string{
	"read_op_share",         // reads / (reads+writes), POSIX+STDIO ops
	"small_op_share",        // POSIX accesses under 1 MiB / all sized accesses
	"tiny_op_share",         // POSIX accesses under 100 KiB / all sized accesses
	"seq_share",             // sequential reads+writes / ops
	"consec_share",          // consecutive reads+writes / ops
	"rw_switch_share",       // read/write switches / ops
	"file_misaligned_share", // file-misaligned accesses / ops
	"mem_misaligned_share",  // memory-misaligned accesses / ops
	"metadata_share",        // metadata ops / (metadata + data ops)
	"shared_file_share",     // files accessed by >1 rank / files
	"rank_imbalance",        // (slowest-fastest rank bytes) / slowest
	"collective_share",      // collective MPI-IO ops / (collective+independent)
	"mpiio_share",           // MPI-IO data ops / all data ops
	"stdio_share",           // STDIO data ops / all data ops
	"xfer_scale",            // log2(1+mean transfer bytes) / 30, clamped
	"rw_mix_share",          // files both read and written / files
}

// Dimensions returns the signature dimension names, index-aligned with
// the vectors Extract produces.
func Dimensions() []string { return append([]string(nil), dimensions...) }

// Signature is one feature vector. All dimensions are scale-normalized
// ratios in [0, 1], so traces from 8 ranks and 8000 ranks of the same
// workload shape project to nearby points.
type Signature []float64

// Extract projects an extraction output onto the signature space. It
// is best-effort: missing tables or columns contribute zeros rather
// than errors, so every successfully extracted trace has a signature.
func Extract(out *extractor.Output) Signature {
	sig := make(Signature, len(dimensions))
	if out == nil {
		return sig
	}
	posix := out.Table(extractor.TablePOSIX)
	mpiio := out.Table(extractor.TableMPIIO)
	stdio := out.Table(extractor.TableSTDIO)

	pReads := sum(posix, darshan.CPosixReads)
	pWrites := sum(posix, darshan.CPosixWrites)
	sReads := sum(stdio, darshan.CStdioReads)
	sWrites := sum(stdio, darshan.CStdioWrites)
	mReads := sum(mpiio, darshan.CMpiioIndepReads) + sum(mpiio, darshan.CMpiioCollReads)
	mWrites := sum(mpiio, darshan.CMpiioIndepWrites) + sum(mpiio, darshan.CMpiioCollWrites)

	pOps := pReads + pWrites
	dataOps := pOps + sReads + sWrites + mReads + mWrites

	sig[0] = ratio(pReads+sReads+mReads, pReads+pWrites+sReads+sWrites+mReads+mWrites)

	var sized, small, tiny float64
	for _, b := range darshan.SizeBins {
		n := sum(posix, "POSIX_SIZE_READ_"+b.Suffix) + sum(posix, "POSIX_SIZE_WRITE_"+b.Suffix)
		sized += n
		if b.Hi > 0 && b.Hi <= 1<<20 {
			small += n
		}
		if b.Hi > 0 && b.Hi <= 100<<10 {
			tiny += n
		}
	}
	sig[1] = ratio(small, sized)
	sig[2] = ratio(tiny, sized)

	sig[3] = ratio(sum(posix, darshan.CPosixSeqReads)+sum(posix, darshan.CPosixSeqWrites), pOps)
	sig[4] = ratio(sum(posix, darshan.CPosixConsecReads)+sum(posix, darshan.CPosixConsecWrites), pOps)
	sig[5] = ratio(sum(posix, darshan.CPosixRWSwitches), pOps)
	sig[6] = ratio(sum(posix, darshan.CPosixFileNotAligned), pOps)
	sig[7] = ratio(sum(posix, darshan.CPosixMemNotAligned), pOps)

	meta := sum(posix, darshan.CPosixOpens) + sum(posix, darshan.CPosixStats) +
		sum(posix, darshan.CPosixSeeks) + sum(posix, darshan.CPosixFsyncs) +
		sum(posix, darshan.CPosixFdsyncs) + sum(stdio, darshan.CStdioOpens) +
		sum(mpiio, darshan.CMpiioIndepOpens) + sum(mpiio, darshan.CMpiioCollOpens)
	sig[8] = ratio(meta, meta+dataOps)

	sig[9], sig[15] = fileShares(posix)
	sig[10] = rankImbalance(posix)

	coll := sum(mpiio, darshan.CMpiioCollReads) + sum(mpiio, darshan.CMpiioCollWrites) +
		sum(mpiio, darshan.CMpiioCollOpens)
	indep := sum(mpiio, darshan.CMpiioIndepReads) + sum(mpiio, darshan.CMpiioIndepWrites) +
		sum(mpiio, darshan.CMpiioIndepOpens)
	sig[11] = ratio(coll, coll+indep)
	sig[12] = ratio(mReads+mWrites, dataOps)
	sig[13] = ratio(sReads+sWrites, dataOps)

	bytes := sum(posix, darshan.CPosixBytesRead) + sum(posix, darshan.CPosixBytesWritten) +
		sum(stdio, darshan.CStdioBytesRead) + sum(stdio, darshan.CStdioBytesWritten)
	if ops := pOps + sReads + sWrites; ops > 0 && bytes > 0 {
		// log2 of the mean transfer size, normalized so ~1 GiB/op maps
		// to 1.0: keeps absolute scale comparable without letting byte
		// counts dominate the ratio dimensions.
		sig[14] = clamp01(math.Log2(1+bytes/ops) / 30)
	}
	return sig
}

// fileShares scans the POSIX table once and returns the share of files
// accessed by more than one rank (or recorded as rank -1, Darshan's
// shared-file reduction) and the share of files that are both read and
// written.
func fileShares(posix *table.Table) (shared, rwMix float64) {
	if posix == nil || posix.NumRows() == 0 {
		return 0, 0
	}
	type facts struct {
		ranks     map[string]bool
		sharedRow bool
		rd, wr    bool
	}
	files := map[string]*facts{}
	for i := 0; i < posix.NumRows(); i++ {
		id, err := posix.Value(i, "file_id")
		if err != nil {
			return 0, 0
		}
		f := files[id]
		if f == nil {
			f = &facts{ranks: map[string]bool{}}
			files[id] = f
		}
		if rank, err := posix.Value(i, "rank"); err == nil {
			if rank == "-1" {
				f.sharedRow = true
			} else {
				f.ranks[rank] = true
			}
		}
		if v, err := posix.Int(i, darshan.CPosixReads); err == nil && v > 0 {
			f.rd = true
		}
		if v, err := posix.Int(i, darshan.CPosixWrites); err == nil && v > 0 {
			f.wr = true
		}
	}
	var nShared, nMix float64
	for _, f := range files {
		if f.sharedRow || len(f.ranks) > 1 {
			nShared++
		}
		if f.rd && f.wr {
			nMix++
		}
	}
	n := float64(len(files))
	return nShared / n, nMix / n
}

// rankImbalance derives (slowest-fastest)/slowest from the shared-file
// reduction rows' fastest/slowest rank byte counters — 0 for perfectly
// balanced I/O, approaching 1 when one rank does almost nothing.
func rankImbalance(posix *table.Table) float64 {
	if posix == nil {
		return 0
	}
	fast := sum(posix, darshan.CPosixFastestBytes)
	slow := sum(posix, darshan.CPosixSlowestBytes)
	if slow <= 0 || fast < 0 {
		return 0
	}
	if fast > slow {
		// Counter semantics vary by Darshan version; normalize so the
		// larger side is the denominator.
		fast, slow = slow, fast
	}
	return clamp01((slow - fast) / slow)
}

// Quantize snaps each dimension to a step grid (DefaultQuantStep when
// step <= 0), mapping run-to-run jitter to identical vectors.
func (s Signature) Quantize(step float64) Signature {
	if step <= 0 {
		step = DefaultQuantStep
	}
	out := make(Signature, len(s))
	for i, v := range s {
		out[i] = clamp01(math.Round(v/step) * step)
	}
	return out
}

// Cosine returns the cosine similarity of two signatures in [0, 1],
// guarding both zero-norm cases: two all-zero vectors (e.g. two
// metadata-only traces) are identical, one zero vector against a
// non-zero one shares nothing.
func Cosine(a, b Signature) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return clamp01(dot / (math.Sqrt(na) * math.Sqrt(nb)))
}

// Deltas returns the named per-dimension differences a-b, keeping only
// dimensions that actually moved — the provenance record on a reused
// job that tells the user how the new run differs from its neighbor.
func Deltas(a, b Signature) map[string]float64 {
	out := map[string]float64{}
	for i, name := range dimensions {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if d := av - bv; d != 0 {
			out[name] = d
		}
	}
	return out
}

func sum(t *table.Table, col string) float64 {
	if t == nil || !t.HasCol(col) {
		return 0
	}
	v, err := t.SumFloat(col)
	if err != nil || v < 0 {
		return 0
	}
	return v
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return clamp01(num / den)
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
