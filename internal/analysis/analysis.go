// Package analysis is the computation engine behind the simulated
// expert model: the set of trace analyses the paper's LLM performed by
// generating and executing code through the Assistants API. Each
// exported function computes one issue-specific report from the
// extracted CSV tables, and the expertsim client stitches the results
// into chain-of-thought steps, a code listing, and a conclusion.
package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ion/internal/darshan"
	"ion/internal/extractor"
	"ion/internal/knowledge"
	"ion/internal/table"
)

// Env bundles everything an analysis needs: the extracted tables and
// the system hyperparameters. It is safe for concurrent use: the DXT
// parse and the shared-file report are each computed once, by the
// first analysis that needs them, and shared by every later one.
type Env struct {
	Out   *extractor.Output
	Hyper knowledge.Hyperparams

	eventsOnce sync.Once
	events     []Event
	files      []string // file index → file name
	eventsErr  error

	sharedOnce sync.Once
	shared     SharedFileReport
	sharedErr  error
	sharedRuns atomic.Int32
}

// NewEnv builds an analysis environment.
func NewEnv(out *extractor.Output, hyper knowledge.Hyperparams) *Env {
	return &Env{Out: out, Hyper: hyper}
}

// Event is one parsed DXT row.
type Event struct {
	File   int32 // dense per-trace file index; Env.FileName maps it back
	Write  bool  // a write; DXT records only reads and writes
	Rank   int64
	Offset int64
	Length int64
	Start  float64
	End    float64
}

// Events parses the DXT table on first use and caches it. It returns
// an error when the trace has no DXT data — callers fall back to
// counter-only analyses.
func (e *Env) Events() ([]Event, error) {
	e.eventsOnce.Do(func() {
		e.events, e.files, e.eventsErr = parseEvents(e.Out.Table(extractor.TableDXT))
	})
	return e.events, e.eventsErr
}

// FileName returns the name of the file an event's File index denotes.
func (e *Env) FileName(file int32) string { return e.files[file] }

// The DXT columns the analyses read, indexed by the dxt* constants.
var dxtCols = [...]string{"file_name", "op", "rank", "offset", "length", "start", "end"}

const (
	dxtFile = iota
	dxtOp
	dxtRank
	dxtOffset
	dxtLength
	dxtStart
	dxtEnd
)

// parseEvents converts the DXT table into events, resolving each
// column once and interning file names to dense indices in order of
// first appearance.
func parseEvents(t *table.Table) ([]Event, []string, error) {
	if t == nil {
		return nil, nil, fmt.Errorf("analysis: trace has no DXT table")
	}
	var col [len(dxtCols)]int
	for c, name := range dxtCols {
		i, err := t.ColIndex(name)
		if err != nil {
			return nil, nil, err
		}
		col[c] = i
	}
	evs := make([]Event, len(t.Rows))
	var files []string
	index := map[string]int32{}
	var cur int32
	bad := func(i, c int, want string) error {
		return fmt.Errorf("table %s: %s[%d] = %q is not %s", t.Name, dxtCols[c], i, t.Rows[i][col[c]], want)
	}
	for i, row := range t.Rows {
		ev := &evs[i]
		// DXT rows come grouped by file, so most rows repeat the
		// previous row's name and skip the map.
		if name := row[col[dxtFile]]; len(files) == 0 || name != files[cur] {
			f, ok := index[name]
			if !ok {
				f = int32(len(files))
				files = append(files, name)
				index[name] = f
			}
			cur = f
		}
		ev.File = cur
		switch row[col[dxtOp]] {
		case string(darshan.OpWrite):
			ev.Write = true
		case string(darshan.OpRead):
		default:
			return nil, nil, bad(i, dxtOp, "read or write")
		}
		var err error
		if ev.Rank, err = strconv.ParseInt(row[col[dxtRank]], 10, 64); err != nil {
			return nil, nil, bad(i, dxtRank, "an integer")
		}
		if ev.Offset, err = strconv.ParseInt(row[col[dxtOffset]], 10, 64); err != nil {
			return nil, nil, bad(i, dxtOffset, "an integer")
		}
		if ev.Length, err = strconv.ParseInt(row[col[dxtLength]], 10, 64); err != nil {
			return nil, nil, bad(i, dxtLength, "an integer")
		}
		if ev.Start, err = strconv.ParseFloat(row[col[dxtStart]], 64); err != nil {
			return nil, nil, bad(i, dxtStart, "a number")
		}
		if ev.End, err = strconv.ParseFloat(row[col[dxtEnd]], 64); err != nil {
			return nil, nil, bad(i, dxtEnd, "a number")
		}
	}
	return evs, files, nil
}

// SumPosix sums one POSIX counter column across records; missing table
// or column yields zero (Darshan counter semantics).
func (e *Env) SumPosix(counter string) int64 {
	t := e.Out.Table(extractor.TablePOSIX)
	if t == nil || !t.HasCol(counter) {
		return 0
	}
	v, err := t.SumInt(counter)
	if err != nil {
		return 0
	}
	return v
}

// SumPosixFloat sums one POSIX float counter column.
func (e *Env) SumPosixFloat(counter string) float64 {
	t := e.Out.Table(extractor.TablePOSIX)
	if t == nil || !t.HasCol(counter) {
		return 0
	}
	v, err := t.SumFloat(counter)
	if err != nil {
		return 0
	}
	return v
}

// SumMpiio sums one MPI-IO counter column.
func (e *Env) SumMpiio(counter string) int64 {
	t := e.Out.Table(extractor.TableMPIIO)
	if t == nil || !t.HasCol(counter) {
		return 0
	}
	v, err := t.SumInt(counter)
	if err != nil {
		return 0
	}
	return v
}

// NProcs returns the job's rank count from the JOB table.
func (e *Env) NProcs() int {
	t := e.Out.Table(extractor.TableJob)
	if t == nil || t.NumRows() == 0 {
		return e.Out.Header.NProcs
	}
	v, err := t.Int(0, "nprocs")
	if err != nil {
		return e.Out.Header.NProcs
	}
	return int(v)
}

// TotalDataOps returns POSIX reads+writes (the denominator most shares
// use).
func (e *Env) TotalDataOps() int64 {
	return e.SumPosix(darshan.CPosixReads) + e.SumPosix(darshan.CPosixWrites)
}

// share divides safely.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// fshare divides floats safely.
func fshare(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Pct formats a share as a percentage with two decimals.
func Pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

// stream keys one per-(file, rank, op) access stream.
type stream struct {
	file  int32
	write bool
	rank  int64
}

// --- Small I/O ---

// SmallIOReport quantifies small-request behavior and aggregation
// potential.
type SmallIOReport struct {
	TotalOps     int64
	SmallOps     int64 // ops below the RPC size
	SmallShare   float64
	TinyOps      int64 // ops below the stripe size
	TinyShare    float64
	SmallBytes   int64
	TotalBytes   int64
	VolumeShare  float64 // bytes moved by small ops / total bytes
	ConsecSmall  int64   // small ops consecutive with the previous access
	ConsecShare  float64 // of small ops
	AggPotential int64   // small ops that are consecutive → aggregatable
	PerRankSmall float64 // mean small ops per rank
	RPCSize      int64
	StripeSize   int64
}

// SmallIO computes the small-I/O report from the DXT event stream.
func SmallIO(env *Env) (SmallIOReport, error) {
	evs, err := env.Events()
	if err != nil {
		return SmallIOReport{}, err
	}
	r := SmallIOReport{RPCSize: env.Hyper.RPCSize, StripeSize: env.Hyper.StripeSize}
	prevEnd := map[stream]int64{}
	ranks := map[int64]bool{}
	for _, ev := range evs {
		r.TotalOps++
		r.TotalBytes += ev.Length
		ranks[ev.Rank] = true
		small := ev.Length < env.Hyper.RPCSize
		if small {
			r.SmallOps++
			r.SmallBytes += ev.Length
		}
		if ev.Length < env.Hyper.StripeSize {
			r.TinyOps++
		}
		id := stream{ev.File, ev.Write, ev.Rank}
		if end, seen := prevEnd[id]; seen && small && ev.Offset == end {
			r.ConsecSmall++
		}
		prevEnd[id] = ev.Offset + ev.Length
	}
	r.SmallShare = share(r.SmallOps, r.TotalOps)
	r.TinyShare = share(r.TinyOps, r.TotalOps)
	r.VolumeShare = share(r.SmallBytes, r.TotalBytes)
	r.ConsecShare = share(r.ConsecSmall, r.SmallOps)
	r.AggPotential = r.ConsecSmall
	if len(ranks) > 0 {
		r.PerRankSmall = float64(r.SmallOps) / float64(len(ranks))
	}
	return r, nil
}

// --- Alignment ---

// AlignmentReport quantifies file- and memory-alignment violations.
type AlignmentReport struct {
	TotalOps      int64
	FileMis       int64
	FileShare     float64
	MemMis        int64
	MemShare      float64
	FileAlignment int64
	WorstFile     string
	WorstFileMis  int64
}

// Alignment computes misalignment shares from POSIX counters, with the
// per-file worst offender.
func Alignment(env *Env) (AlignmentReport, error) {
	t := env.Out.Table(extractor.TablePOSIX)
	if t == nil {
		return AlignmentReport{}, fmt.Errorf("analysis: trace has no POSIX table")
	}
	var r AlignmentReport
	for i := 0; i < t.NumRows(); i++ {
		reads, err := t.Int(i, darshan.CPosixReads)
		if err != nil {
			return r, err
		}
		writes, err := t.Int(i, darshan.CPosixWrites)
		if err != nil {
			return r, err
		}
		mis, err := t.Int(i, darshan.CPosixFileNotAligned)
		if err != nil {
			return r, err
		}
		mem, err := t.Int(i, darshan.CPosixMemNotAligned)
		if err != nil {
			return r, err
		}
		align, err := t.Int(i, darshan.CPosixFileAlignment)
		if err != nil {
			return r, err
		}
		r.TotalOps += reads + writes
		r.FileMis += mis
		r.MemMis += mem
		if align > r.FileAlignment {
			r.FileAlignment = align
		}
		if mis > r.WorstFileMis {
			r.WorstFileMis = mis
			r.WorstFile, _ = t.Value(i, "file_name")
		}
	}
	r.FileShare = share(r.FileMis, r.TotalOps)
	r.MemShare = share(r.MemMis, r.TotalOps)
	return r, nil
}

// --- Access pattern ---

// PatternReport classifies every non-initial access of each per-rank
// stream as consecutive, repeat (same offset and length as the previous
// access — temporal re-access, not randomness), forward jump (strided),
// or backward jump.
type PatternReport struct {
	Classified     int64
	Consecutive    int64
	Repeats        int64
	ForwardJumps   int64
	BackwardJumps  int64
	ConsecShare    float64
	NonContig      int64
	NonContigShare float64
	BackwardShare  float64
	// Random ops = non-contiguous accesses; RandomBytes their volume.
	RandomOps         int64
	RandomBytes       int64
	TotalBytes        int64
	RandomVolumeShare float64
	// PerRankRandomMean is mean random ops per active rank.
	PerRankRandomMean float64
	// RandomReads/RandomReadShare mirror Drishti's read-random metric.
	Reads           int64
	RandomReads     int64
	RandomReadShare float64
}

// Pattern computes the access-pattern report from DXT.
func Pattern(env *Env) (PatternReport, error) {
	evs, err := env.Events()
	if err != nil {
		return PatternReport{}, err
	}
	var r PatternReport
	type extent struct{ offset, length int64 }
	prev := map[stream]extent{}
	randPerRank := map[int64]int64{}
	for _, ev := range evs {
		r.TotalBytes += ev.Length
		if !ev.Write {
			r.Reads++
		}
		id := stream{ev.File, ev.Write, ev.Rank}
		if p, seen := prev[id]; seen {
			r.Classified++
			end := p.offset + p.length
			switch {
			case ev.Offset == end:
				r.Consecutive++
			case ev.Offset == p.offset && ev.Length == p.length:
				r.Repeats++
			default:
				if ev.Offset > end {
					r.ForwardJumps++
				} else {
					r.BackwardJumps++
				}
				r.RandomOps++
				r.RandomBytes += ev.Length
				randPerRank[ev.Rank]++
				if !ev.Write {
					r.RandomReads++
				}
			}
		}
		prev[id] = extent{ev.Offset, ev.Length}
	}
	r.NonContig = r.ForwardJumps + r.BackwardJumps
	r.ConsecShare = share(r.Consecutive, r.Classified)
	r.NonContigShare = share(r.NonContig, r.Classified)
	r.BackwardShare = share(r.BackwardJumps, r.Classified)
	r.RandomVolumeShare = share(r.RandomBytes, r.TotalBytes)
	r.RandomReadShare = share(r.RandomReads, r.Reads)
	if len(randPerRank) > 0 {
		var sum int64
		for _, v := range randPerRank {
			sum += v
		}
		r.PerRankRandomMean = float64(sum) / float64(len(randPerRank))
	}
	return r, nil
}

// --- Shared file ---

// SharedFileReport reconstructs multi-rank file access and stripe
// conflicts from DXT.
type SharedFileReport struct {
	SharedFiles         int
	MaxRanks            int
	BusiestFile         string
	StripesTouched      int64
	ConflictStripes     int64 // stripes written by more than one rank
	ConflictShare       float64
	OverlapEvents       int64 // conflicting-stripe accesses overlapping in time
	WriteOps            int64
	WritesOnShared      int64 // writes landing on conflict stripes
	WritesOnSharedShare float64
	StripeSize          int64
}

// SharedFile returns the shared-file report. It is computed once per
// Env and shared, since several issues' analyses consult it.
func SharedFile(env *Env) (SharedFileReport, error) {
	env.sharedOnce.Do(func() {
		env.sharedRuns.Add(1)
		env.shared, env.sharedErr = sharedFile(env)
	})
	return env.shared, env.sharedErr
}

// SharedFileRuns reports how many times the shared-file report has
// been computed for env: never more than once.
func (e *Env) SharedFileRuns() int { return int(e.sharedRuns.Load()) }

// stripeVisit is one event's access to one stripe of one file.
type stripeVisit struct {
	file   int32
	event  int32
	stripe int64
}

// sharedFile reconstructs stripe sharing in one pass over every
// (file, stripe, event) visit, sorted so each stripe's visits are
// adjacent and in trace order.
func sharedFile(env *Env) (SharedFileReport, error) {
	evs, err := env.Events()
	if err != nil {
		return SharedFileReport{}, err
	}
	r := SharedFileReport{StripeSize: env.Hyper.StripeSize}
	for f, n := range ranksPerFile(evs, len(env.files)) {
		if n > 1 {
			r.SharedFiles++
		}
		// Ties go to the lexically first name, so the report does not
		// depend on the order files appear in the trace.
		if name := env.FileName(int32(f)); n > r.MaxRanks || n == r.MaxRanks && name < r.BusiestFile {
			r.MaxRanks = n
			r.BusiestFile = name
		}
	}
	visits := make([]stripeVisit, 0, len(evs))
	for i := range evs {
		ev := &evs[i]
		if ev.Write {
			r.WriteOps++
		}
		first := ev.Offset / r.StripeSize
		last := (ev.Offset + max64(ev.Length, 1) - 1) / r.StripeSize
		for s := first; s <= last; s++ {
			visits = append(visits, stripeVisit{file: ev.File, event: int32(i), stripe: s})
		}
	}
	slices.SortFunc(visits, func(a, b stripeVisit) int {
		if c := cmp.Compare(a.file, b.file); c != 0 {
			return c
		}
		if c := cmp.Compare(a.stripe, b.stripe); c != 0 {
			return c
		}
		return cmp.Compare(a.event, b.event)
	})
	onShared := make([]bool, len(evs)) // writes landing on a conflict stripe
	for lo := 0; lo < len(visits); {
		hi := lo + 1
		for hi < len(visits) && visits[hi].file == visits[lo].file && visits[hi].stripe == visits[lo].stripe {
			hi++
		}
		stripe := visits[lo:hi]
		lo = hi
		r.StripesTouched++
		// latest is the access with the latest end so far: a later
		// access overlapping it in time, from another rank, with at
		// least one of the two a write, is a conflict (concurrent
		// reads of one stripe are benign).
		var latest *Event
		var writer int64
		writers := 0 // distinct writing ranks, counted up to two
		for _, v := range stripe {
			ev := &evs[v.event]
			if latest != nil && latest.Rank != ev.Rank && ev.Start < latest.End && (latest.Write || ev.Write) {
				r.OverlapEvents++
			}
			if latest == nil || ev.End > latest.End {
				latest = ev
			}
			if ev.Write && (writers == 0 || writers == 1 && ev.Rank != writer) {
				writer = ev.Rank
				writers++
			}
		}
		if writers > 1 {
			r.ConflictStripes++
			for _, v := range stripe {
				onShared[v.event] = onShared[v.event] || evs[v.event].Write
			}
		}
	}
	for _, on := range onShared {
		if on {
			r.WritesOnShared++
		}
	}
	r.ConflictShare = share(r.ConflictStripes, r.StripesTouched)
	r.WritesOnSharedShare = share(r.WritesOnShared, r.WriteOps)
	return r, nil
}

// ranksPerFile counts the distinct ranks accessing each file index.
func ranksPerFile(evs []Event, files int) []int {
	type fileRank struct {
		file int32
		rank int64
	}
	counts := make([]int, files)
	seen := map[fileRank]struct{}{}
	for i := range evs {
		k := fileRank{evs[i].File, evs[i].Rank}
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			counts[k.file]++
		}
	}
	return counts
}

// --- Load imbalance ---

// RankLoad is one rank's totals.
type RankLoad struct {
	Rank  int64
	Bytes int64
	Ops   int64
	Time  float64
}

// ImbalanceReport quantifies per-rank workload skew.
type ImbalanceReport struct {
	Ranks        int
	ActiveRanks  int
	Loads        []RankLoad // sorted by bytes descending
	TopRank      int64
	TopByteShare float64
	TopOpsShare  float64
	// SubsetK is the smallest number of ranks covering 95% of bytes.
	SubsetK int
	// SubsetShare is the byte share of those SubsetK ranks.
	SubsetShare float64
	// ImbalancePct is Drishti's (max-avg)/max metric over bytes.
	ImbalancePct float64
	TotalBytes   int64
	// Pattern classifies the shape: "balanced", "single-rank", "subset".
	Pattern string
}

// Imbalance computes per-rank load distribution from DXT.
func Imbalance(env *Env) (ImbalanceReport, error) {
	evs, err := env.Events()
	if err != nil {
		return ImbalanceReport{}, err
	}
	per := map[int64]*RankLoad{}
	for _, ev := range evs {
		l, ok := per[ev.Rank]
		if !ok {
			l = &RankLoad{Rank: ev.Rank}
			per[ev.Rank] = l
		}
		l.Bytes += ev.Length
		l.Ops++
		l.Time += ev.End - ev.Start
	}
	r := ImbalanceReport{Ranks: env.NProcs(), ActiveRanks: len(per)}
	for _, l := range per {
		r.Loads = append(r.Loads, *l)
		r.TotalBytes += l.Bytes
	}
	sort.Slice(r.Loads, func(i, j int) bool {
		if r.Loads[i].Bytes != r.Loads[j].Bytes {
			return r.Loads[i].Bytes > r.Loads[j].Bytes
		}
		return r.Loads[i].Rank < r.Loads[j].Rank
	})
	if len(r.Loads) == 0 {
		r.Pattern = "balanced"
		return r, nil
	}
	var totalOps int64
	for _, l := range r.Loads {
		totalOps += l.Ops
	}
	r.TopRank = r.Loads[0].Rank
	r.TopByteShare = share(r.Loads[0].Bytes, r.TotalBytes)
	r.TopOpsShare = share(r.Loads[0].Ops, totalOps)
	var cum int64
	for i, l := range r.Loads {
		cum += l.Bytes
		if float64(cum) >= 0.95*float64(r.TotalBytes) {
			r.SubsetK = i + 1
			r.SubsetShare = share(cum, r.TotalBytes)
			break
		}
	}
	maxB := float64(r.Loads[0].Bytes)
	avgB := float64(r.TotalBytes) / float64(maxInt(r.Ranks, len(r.Loads)))
	r.ImbalancePct = fshare(maxB-avgB, maxB)
	topOutlier := len(r.Loads) > 1 && r.Loads[0].Bytes > 10*r.Loads[1].Bytes
	switch {
	case r.Ranks <= 1:
		// A serial job cannot be imbalanced.
		r.Pattern = "balanced"
	case r.TopByteShare > 0.5 && r.Ranks > 1, topOutlier && r.ImbalancePct > 0.5:
		r.Pattern = "single-rank"
	case r.SubsetK > 0 && r.SubsetK*4 < r.ActiveRanks:
		r.Pattern = "subset"
	case r.ImbalancePct > 0.3 && r.ActiveRanks*2 < r.Ranks:
		r.Pattern = "subset"
	default:
		r.Pattern = "balanced"
	}
	return r, nil
}

// --- Metadata ---

// MetadataReport compares metadata load against data load.
type MetadataReport struct {
	Opens, Stats, Seeks, Fsyncs int64
	MetaOps                     int64
	DataOps                     int64
	Ratio                       float64 // metadata ops per data op
	MetaTime                    float64
	IOTime                      float64
	TimeShare                   float64 // metadata time / total I/O time
	DistinctFiles               int
}

// Metadata computes the metadata report from POSIX counters.
func Metadata(env *Env) (MetadataReport, error) {
	t := env.Out.Table(extractor.TablePOSIX)
	if t == nil {
		return MetadataReport{}, fmt.Errorf("analysis: trace has no POSIX table")
	}
	var r MetadataReport
	r.Opens = env.SumPosix(darshan.CPosixOpens)
	r.Stats = env.SumPosix(darshan.CPosixStats)
	r.Seeks = env.SumPosix(darshan.CPosixSeeks)
	r.Fsyncs = env.SumPosix(darshan.CPosixFsyncs)
	r.MetaOps = r.Opens + r.Stats + r.Seeks + r.Fsyncs
	r.DataOps = env.TotalDataOps()
	r.Ratio = fshare(float64(r.MetaOps), float64(r.DataOps))
	r.MetaTime = env.SumPosixFloat(darshan.FPosixMetaTime)
	r.IOTime = r.MetaTime +
		env.SumPosixFloat(darshan.FPosixReadTime) +
		env.SumPosixFloat(darshan.FPosixWriteTime)
	r.TimeShare = fshare(r.MetaTime, r.IOTime)
	files := map[string]bool{}
	for i := 0; i < t.NumRows(); i++ {
		name, err := t.Value(i, "file_name")
		if err != nil {
			return r, err
		}
		files[name] = true
	}
	r.DistinctFiles = len(files)
	return r, nil
}

// --- Interface usage ---

// InterfaceReport describes which I/O interfaces the job used.
type InterfaceReport struct {
	NProcs        int
	UsesPOSIX     bool
	UsesMPIIO     bool
	UsesSTDIO     bool
	PosixDataOps  int64
	MpiioDataOps  int64
	StdioDataOps  int64
	MultiRankData bool // >1 rank performed data I/O
	SharedFiles   int  // files accessed by >1 rank (0 if no DXT)
}

// Interface computes the interface-usage report.
func Interface(env *Env) (InterfaceReport, error) {
	var r InterfaceReport
	r.NProcs = env.NProcs()
	posix := env.Out.Table(extractor.TablePOSIX)
	r.UsesPOSIX = posix != nil && posix.NumRows() > 0
	r.PosixDataOps = env.TotalDataOps()
	mp := env.Out.Table(extractor.TableMPIIO)
	r.MpiioDataOps = env.SumMpiio(darshan.CMpiioIndepReads) + env.SumMpiio(darshan.CMpiioIndepWrites) +
		env.SumMpiio(darshan.CMpiioCollReads) + env.SumMpiio(darshan.CMpiioCollWrites)
	r.UsesMPIIO = mp != nil && mp.NumRows() > 0 && r.MpiioDataOps > 0
	st := env.Out.Table(extractor.TableSTDIO)
	if st != nil && st.NumRows() > 0 {
		reads, _ := st.SumInt(darshan.CStdioReads)
		writes, _ := st.SumInt(darshan.CStdioWrites)
		r.StdioDataOps = reads + writes
		r.UsesSTDIO = r.StdioDataOps > 0
	}
	if evs, err := env.Events(); err == nil {
		for i := range evs {
			if evs[i].Rank != evs[0].Rank {
				r.MultiRankData = true
				break
			}
		}
		for _, n := range ranksPerFile(evs, len(env.files)) {
			if n > 1 {
				r.SharedFiles++
			}
		}
	} else {
		r.MultiRankData = r.NProcs > 1 && r.PosixDataOps > 0
	}
	return r, nil
}

// --- Collective I/O ---

// CollectiveReport describes the collective/independent MPI-IO split.
type CollectiveReport struct {
	HasMPIIO        bool
	CollOps         int64
	IndepOps        int64
	CollOpens       int64
	IndepOpens      int64
	CollShare       float64
	SmallIndep      int64 // independent data ops below the stripe size
	SmallIndepShare float64
}

// Collective computes the collective-I/O report.
func Collective(env *Env) (CollectiveReport, error) {
	var r CollectiveReport
	t := env.Out.Table(extractor.TableMPIIO)
	if t == nil || t.NumRows() == 0 {
		return r, nil
	}
	r.HasMPIIO = true
	r.CollOps = env.SumMpiio(darshan.CMpiioCollReads) + env.SumMpiio(darshan.CMpiioCollWrites)
	r.IndepOps = env.SumMpiio(darshan.CMpiioIndepReads) + env.SumMpiio(darshan.CMpiioIndepWrites)
	r.CollOpens = env.SumMpiio(darshan.CMpiioCollOpens)
	r.IndepOpens = env.SumMpiio(darshan.CMpiioIndepOpens)
	r.CollShare = share(r.CollOps, r.CollOps+r.IndepOps)
	for _, b := range darshan.SizeBins {
		if b.Hi > 0 && b.Hi <= env.Hyper.StripeSize {
			r.SmallIndep += env.SumMpiio("MPIIO_SIZE_READ_AGG_" + b.Suffix)
			r.SmallIndep += env.SumMpiio("MPIIO_SIZE_WRITE_AGG_" + b.Suffix)
		}
	}
	// The size histogram covers all MPI-IO ops; attribute small ones to
	// the independent side proportionally when collectives exist.
	if r.CollOps == 0 {
		r.SmallIndepShare = share(r.SmallIndep, r.IndepOps)
	} else {
		r.SmallIndepShare = share(r.SmallIndep, r.CollOps+r.IndepOps)
	}
	return r, nil
}

// --- Time imbalance ---

// TimeReport quantifies per-rank I/O time divergence.
type TimeReport struct {
	ActiveRanks  int
	SlowestRank  int64
	SlowestTime  float64
	MeanTime     float64
	Ratio        float64 // slowest / mean
	VarianceTime float64 // Darshan's reduced variance counter
}

// TimeImbalance computes the time-imbalance report.
func TimeImbalance(env *Env) (TimeReport, error) {
	evs, err := env.Events()
	if err != nil {
		return TimeReport{}, err
	}
	per := map[int64]float64{}
	for _, ev := range evs {
		per[ev.Rank] += ev.End - ev.Start
	}
	var r TimeReport
	r.ActiveRanks = len(per)
	if r.ActiveRanks == 0 {
		return r, nil
	}
	// Visit ranks in ascending order: the float sum is then the same on
	// every run, and the lowest rank wins a tie for slowest.
	ranks := make([]int64, 0, len(per))
	for rank := range per {
		ranks = append(ranks, rank)
	}
	slices.Sort(ranks)
	var sum float64
	for _, rank := range ranks {
		t := per[rank]
		sum += t
		if t > r.SlowestTime {
			r.SlowestTime = t
			r.SlowestRank = rank
		}
	}
	r.MeanTime = sum / float64(r.ActiveRanks)
	r.Ratio = fshare(r.SlowestTime, r.MeanTime)
	r.VarianceTime = env.SumPosixFloat(darshan.FPosixVarianceTime)
	return r, nil
}

// FileCount returns the number of distinct files in the POSIX table.
func FileCount(env *Env) int {
	t := env.Out.Table(extractor.TablePOSIX)
	if t == nil {
		return 0
	}
	files := map[string]bool{}
	for i := 0; i < t.NumRows(); i++ {
		if name, err := t.Value(i, "file_name"); err == nil {
			files[name] = true
		}
	}
	return len(files)
}

// Describe renders a short human-readable list of the interfaces used.
func (r InterfaceReport) Describe() string {
	var used []string
	if r.UsesPOSIX {
		used = append(used, "POSIX")
	}
	if r.UsesMPIIO {
		used = append(used, "MPI-IO")
	}
	if r.UsesSTDIO {
		used = append(used, "STDIO")
	}
	if len(used) == 0 {
		return "no I/O interfaces"
	}
	return strings.Join(used, ", ")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
