// Package drishti reimplements the Drishti I/O diagnosis tool (Bez et
// al., PDSW'22): the trigger-based baseline the paper compares ION
// against. Drishti evaluates a fixed set of heuristic triggers with
// expert-tuned thresholds over Darshan counters and emits leveled
// insights with canned recommendations. The deliberate contrast with
// ION: thresholds here are workload-independent constants (1 MiB
// "small", 10% rates, ...), there is no mitigation reasoning, and the
// DXT trace is never consulted.
package drishti

import (
	"fmt"
	"sort"
	"strings"

	"ion/internal/darshan"
	"ion/internal/extractor"
	"ion/internal/issue"
	"ion/internal/table"
)

// Level grades an insight, mirroring Drishti's traffic-light output.
type Level string

// Insight levels.
const (
	LevelHigh Level = "HIGH"
	LevelWarn Level = "WARN"
	LevelOK   Level = "OK"
	LevelInfo Level = "INFO"
)

// Insight is one fired trigger.
type Insight struct {
	Code           string // stable trigger id, e.g. "D05"
	Level          Level
	Issue          issue.ID // taxonomy mapping for the evaluation
	Message        string
	Recommendation string
}

// Config holds Drishti's thresholds — the fixed constants the paper
// argues are error-prone across systems and workloads (§2).
type Config struct {
	SmallRequestSize     int64   // bytes; below this a request is "small" (default 1 MiB)
	SmallRequestsPercent float64 // share of small requests that triggers (default 0.10)
	SmallRequestsCount   int64   // absolute count floor (default 1000)
	MisalignedPercent    float64 // share of misaligned requests (default 0.10)
	MetadataTimeSeconds  float64 // aggregate metadata seconds (default 30)
	MetadataOpsCount     int64   // open/stat count floor (default 1000)
	RandomOpsPercent     float64 // share of non-sequential ops (default 0.20)
	ImbalancePercent     float64 // (max-avg)/max byte imbalance (default 0.30)
	StragglerPercent     float64 // single-op share of phase time (default 0.15)
	TimeImbalanceCV      float64 // coefficient of variation of rank time (default 1.0)
	CollectivePercent    float64 // minimum collective share before indep ops flagged (default 0.50)
}

// DefaultConfig returns Drishti's published defaults.
func DefaultConfig() Config {
	return Config{
		SmallRequestSize:     1 << 20,
		SmallRequestsPercent: 0.10,
		SmallRequestsCount:   1000,
		MisalignedPercent:    0.10,
		MetadataTimeSeconds:  30,
		MetadataOpsCount:     1000,
		RandomOpsPercent:     0.20,
		ImbalancePercent:     0.30,
		StragglerPercent:     0.15,
		TimeImbalanceCV:      1.0,
		CollectivePercent:    0.50,
	}
}

// Report is the result of one Drishti run.
type Report struct {
	Insights []Insight
	// TriggersEvaluated counts the checks performed.
	TriggersEvaluated int
}

// Flagged reports whether a HIGH insight maps to the issue — Drishti's
// headline findings, the level the paper's Figure 3 column shows.
func (r *Report) Flagged(id issue.ID) bool {
	for _, in := range r.Insights {
		if in.Issue == id && in.Level == LevelHigh {
			return true
		}
	}
	return false
}

// Render prints the report in Drishti's terminal style.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString("DRISHTI v.0 (reimplementation)\n")
	fmt.Fprintf(&b, "%d triggers evaluated, %d insights\n\n", r.TriggersEvaluated, len(r.Insights))
	for _, in := range r.Insights {
		fmt.Fprintf(&b, "[%-4s] %s %s\n", in.Level, in.Code, in.Message)
		if in.Recommendation != "" {
			fmt.Fprintf(&b, "        > %s\n", in.Recommendation)
		}
	}
	return b.String()
}

// analyzer carries shared state across triggers.
type analyzer struct {
	cfg    Config
	out    *extractor.Output
	posix  *table.Table
	mpiio  *table.Table
	stdio  *table.Table
	lustre *table.Table
	report *Report
}

// Analyze runs every trigger over an extracted trace.
func Analyze(out *extractor.Output, cfg Config) (*Report, error) {
	if out == nil {
		return nil, fmt.Errorf("drishti: nil extraction")
	}
	a := &analyzer{
		cfg:    cfg,
		out:    out,
		posix:  out.Table(extractor.TablePOSIX),
		mpiio:  out.Table(extractor.TableMPIIO),
		stdio:  out.Table(extractor.TableSTDIO),
		lustre: out.Table(extractor.TableLustre),
		report: &Report{},
	}
	triggers := []func() error{
		a.stdioUsage,
		a.smallReads,
		a.smallWrites,
		a.misalignedFile,
		a.misalignedMem,
		a.redundantReads,
		a.redundantWrites,
		a.randomReads,
		a.randomWrites,
		a.sequentialReads,
		a.sequentialWrites,
		a.loadImbalance,
		a.timeImbalance,
		a.writeStraggler,
		a.readStraggler,
		a.metadataTime,
		a.metadataOps,
		a.excessiveSeeks,
		a.excessiveFsyncs,
		a.rwSwitches,
		a.manyFiles,
		a.posixOnly,
		a.indepReads,
		a.indepWrites,
		a.noCollectiveOpens,
		a.blockingMPIIO,
		a.noHints,
		a.stripeWidth,
		a.sharedSmallWrites,
		a.fileCountPerRank,
	}
	for _, t := range triggers {
		a.report.TriggersEvaluated++
		if err := t(); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(a.report.Insights, func(i, j int) bool {
		return levelRank(a.report.Insights[i].Level) < levelRank(a.report.Insights[j].Level)
	})
	return a.report, nil
}

func levelRank(l Level) int {
	switch l {
	case LevelHigh:
		return 0
	case LevelWarn:
		return 1
	case LevelInfo:
		return 2
	}
	return 3
}

func (a *analyzer) add(code string, level Level, id issue.ID, msg, rec string) {
	a.report.Insights = append(a.report.Insights, Insight{
		Code: code, Level: level, Issue: id, Message: msg, Recommendation: rec,
	})
}

// --- counter helpers ---

func (a *analyzer) sum(t *table.Table, col string) int64 {
	if t == nil || !t.HasCol(col) {
		return 0
	}
	v, err := t.SumInt(col)
	if err != nil {
		return 0
	}
	return v
}

func (a *analyzer) fsum(t *table.Table, col string) float64 {
	if t == nil || !t.HasCol(col) {
		return 0
	}
	v, err := t.SumFloat(col)
	if err != nil {
		return 0
	}
	return v
}

func (a *analyzer) posixOps() int64 {
	return a.sum(a.posix, darshan.CPosixReads) + a.sum(a.posix, darshan.CPosixWrites)
}

// smallCount sums the histogram bins below the small-request size.
func (a *analyzer) smallCount(prefix string) int64 {
	var n int64
	for _, b := range darshan.SizeBins {
		if b.Hi > 0 && b.Hi <= a.cfg.SmallRequestSize {
			n += a.sum(a.posix, prefix+b.Suffix)
		}
	}
	return n
}

func (a *analyzer) nprocs() int64 {
	job := a.out.Table(extractor.TableJob)
	if job == nil || job.NumRows() == 0 {
		return int64(a.out.Header.NProcs)
	}
	v, err := job.Int(0, "nprocs")
	if err != nil {
		return int64(a.out.Header.NProcs)
	}
	return v
}

func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

func safeShare(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
