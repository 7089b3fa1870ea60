// Package repro holds the top-level benchmark harness: one benchmark
// per evaluation artifact (Figure 2, Figure 3, the §2 threshold
// pitfall), per-stage pipeline benchmarks (simulator, recorder, log
// formats, extractor, prompts, completions), and the ablation
// benchmarks for the design choices DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ion/internal/advisor"
	"ion/internal/consistency"
	"ion/internal/darshan"
	"ion/internal/drishti"
	"ion/internal/dxtexplore"
	"ion/internal/eval"
	"ion/internal/expertsim"
	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/iosim"
	"ion/internal/issue"
	"ion/internal/jobs"
	"ion/internal/knowledge"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs/prof"
	"ion/internal/prompt"
	"ion/internal/quality"
	"ion/internal/rag"
	"ion/internal/semcache"
	"ion/internal/testutil"
	"ion/internal/webui"
	"ion/internal/workloads"
)

// BenchmarkFigure2 regenerates each Figure 2 row: the full ION pipeline
// (extract → 9 parallel diagnoses) over the IO500-derived traces, with
// the verdict-accuracy score reported as a metric.
func BenchmarkFigure2(b *testing.B) {
	for _, w := range workloads.Figure2() {
		w := w
		b.Run(w.Title, func(b *testing.B) {
			benchWorkloadION(b, w)
		})
	}
}

// BenchmarkFigure3 regenerates each Figure 3 row: ION and Drishti on
// the application traces.
func BenchmarkFigure3(b *testing.B) {
	for _, w := range workloads.Figure3() {
		w := w
		b.Run(w.Title, func(b *testing.B) {
			benchWorkloadION(b, w)
		})
	}
}

func benchWorkloadION(b *testing.B, w workloads.Workload) {
	log, err := testutil.Log(w.Name)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	fw, err := ion.New(ion.Config{Client: expertsim.New(), SkipSummary: true})
	if err != nil {
		b.Fatal(err)
	}
	var matched, expected int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fw.AnalyzeLog(context.Background(), log, w.Name, filepath.Join(dir, fmt.Sprint(i%4)))
		if err != nil {
			b.Fatal(err)
		}
		s := eval.ScoreION(w, rep)
		matched, expected = s.Matched, s.Expected
	}
	b.ReportMetric(float64(matched), "verdicts-matched")
	b.ReportMetric(float64(expected), "verdicts-expected")
}

// BenchmarkDrishtiBaseline times the trigger engine on each Figure 3
// trace, with its ground-truth accuracy as a metric.
func BenchmarkDrishtiBaseline(b *testing.B) {
	for _, w := range workloads.Figure3() {
		w := w
		b.Run(w.Title, func(b *testing.B) {
			out, _, err := testutil.Extracted(w.Name)
			if err != nil {
				b.Fatal(err)
			}
			var matched int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := drishti.Analyze(out, drishti.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				matched = eval.ScoreDrishti(w, rep).Matched
			}
			b.ReportMetric(float64(matched), "flags-matched")
		})
	}
}

// BenchmarkThresholdPitfall reproduces the §2 sweep: Drishti across
// small-request thresholds on the boundary workload, reporting how
// often the fixed threshold disagrees with ground truth.
func BenchmarkThresholdPitfall(b *testing.B) {
	out, _, err := testutil.Extracted("ior-easy-2k-shared")
	if err != nil {
		b.Fatal(err)
	}
	thresholds := []int64{256 << 10, 1 << 20, 4 << 20}
	var wrong int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wrong = 0
		for _, th := range thresholds {
			cfg := drishti.DefaultConfig()
			cfg.SmallRequestSize = th
			rep, err := drishti.Analyze(out, cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Ground truth: mitigated — a correct binary tool stays silent.
			if rep.Flagged(issue.SmallIO) {
				wrong++
			}
		}
	}
	b.ReportMetric(float64(wrong), "wrong-thresholds")
}

// --- pipeline stage benchmarks ---

// BenchmarkIosim measures simulator throughput on the ior-hard op
// stream (shared-file contention, the heaviest code path).
func BenchmarkIosim(b *testing.B) {
	w := workloads.IORHard()
	ops := w.Ops()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := iosim.New(w.Config())
		if _, err := sim.Run(ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ops)), "ops/run")
}

// BenchmarkRecorder measures trace recording (ops -> Darshan counters).
func BenchmarkRecorder(b *testing.B) {
	w := workloads.IORHard()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogFormats measures serialization of the binary container
// and the darshan-parser text format.
func BenchmarkLogFormats(b *testing.B) {
	log, err := testutil.Log("openpmd-baseline")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := log.WriteBinary(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
	var bin bytes.Buffer
	if err := log.WriteBinary(&bin); err != nil {
		b.Fatal(err)
	}
	b.Run("binary-read", func(b *testing.B) {
		b.SetBytes(int64(bin.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := darshan.ReadBinary(bytes.NewReader(bin.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := log.WriteText(&buf); err != nil {
				b.Fatal(err)
			}
			if err := log.WriteDXTText(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
	var txt bytes.Buffer
	if err := log.WriteText(&txt); err != nil {
		b.Fatal(err)
	}
	if err := log.WriteDXTText(&txt); err != nil {
		b.Fatal(err)
	}
	b.Run("text-parse", func(b *testing.B) {
		b.SetBytes(int64(txt.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := darshan.ParseText(bytes.NewReader(txt.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtractor measures log → CSV extraction, tables written to
// disk; internal/extractor's BenchmarkExtract measures the in-memory
// half alone.
func BenchmarkExtractor(b *testing.B) {
	log, err := testutil.Log("openpmd-baseline")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("to-disk", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			if _, err := extractor.ExtractToDir(context.Background(), log, filepath.Join(dir, fmt.Sprint(i%8))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPromptBuild measures per-issue prompt construction, with the
// prompt size in tokens as a metric.
func BenchmarkPromptBuild(b *testing.B) {
	out, _, err := testutil.Extracted("openpmd-baseline")
	if err != nil {
		b.Fatal(err)
	}
	kb := knowledge.NewBase(knowledge.FromExtract(out))
	builder := prompt.NewBuilder(kb)
	var tokens int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := builder.Diagnosis(issue.SmallIO, out)
		if err != nil {
			b.Fatal(err)
		}
		tokens = llm.PromptTokens(req)
	}
	b.ReportMetric(float64(tokens), "prompt-tokens")
}

// BenchmarkExpertCompletion measures a single diagnosis completion
// (prompt → simulated expert → steps/code/conclusion). Each iteration
// uses a fresh client, so it loads the CSVs and analyzes the trace as a
// new job's first request does, rather than reading cached reports.
func BenchmarkExpertCompletion(b *testing.B) {
	for _, name := range []string{"ior-hard", "openpmd-optimized"} {
		b.Run(name, func(b *testing.B) {
			out, _, err := testutil.Extracted(name)
			if err != nil {
				b.Fatal(err)
			}
			kb := knowledge.NewBase(knowledge.FromExtract(out))
			req, err := prompt.NewBuilder(kb).Diagnosis(issue.SharedFile, out)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := expertsim.New().Complete(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeEndToEnd measures the complete Analyzer (all issues,
// parallel fan-out, summary) on an already-extracted trace, with a
// fresh expert client per iteration as each new job has.
func BenchmarkAnalyzeEndToEnd(b *testing.B) {
	for _, name := range []string{"e2e-baseline", "openpmd-optimized"} {
		b.Run(name, func(b *testing.B) {
			out, _, err := testutil.Extracted(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw, err := ion.New(ion.Config{Client: expertsim.New()})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fw.AnalyzeExtracted(context.Background(), out, name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInteractive measures one Q&A turn against a diagnosis.
func BenchmarkInteractive(b *testing.B) {
	out, _, err := testutil.Extracted("e2e-baseline")
	if err != nil {
		b.Fatal(err)
	}
	client := expertsim.New()
	fw, err := ion.New(ion.Config{Client: client, SkipSummary: true})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := fw.AnalyzeExtracted(context.Background(), out, "e2e")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ion.NewSession(client, rep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Ask(context.Background(), "which rank causes the imbalance?"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks ---

// BenchmarkPromptStrategy contrasts the paper's divide-and-conquer
// prompting with the rejected monolithic design: the metric is tokens
// per completion request the model must digest.
func BenchmarkPromptStrategy(b *testing.B) {
	out, _, err := testutil.Extracted("openpmd-baseline")
	if err != nil {
		b.Fatal(err)
	}
	kb := knowledge.NewBase(knowledge.FromExtract(out))
	builder := prompt.NewBuilder(kb)

	b.Run("divide-and-conquer", func(b *testing.B) {
		var maxTokens int
		for i := 0; i < b.N; i++ {
			maxTokens = 0
			for _, id := range kb.Issues() {
				req, err := builder.Diagnosis(id, out)
				if err != nil {
					b.Fatal(err)
				}
				if t := llm.PromptTokens(req); t > maxTokens {
					maxTokens = t
				}
			}
		}
		b.ReportMetric(float64(maxTokens), "max-tokens-per-request")
	})
	b.Run("monolithic", func(b *testing.B) {
		var tokens int
		for i := 0; i < b.N; i++ {
			// One voluminous prompt: every context and every column
			// description in a single request.
			var total int
			for _, id := range kb.Issues() {
				req, err := builder.Diagnosis(id, out)
				if err != nil {
					b.Fatal(err)
				}
				total += llm.PromptTokens(req)
			}
			tokens = total
		}
		b.ReportMetric(float64(tokens), "max-tokens-per-request")
	})
}

// BenchmarkModuleFiltering quantifies the per-issue module map: prompt
// tokens with the filter versus describing every module table.
func BenchmarkModuleFiltering(b *testing.B) {
	out, _, err := testutil.Extracted("openpmd-baseline")
	if err != nil {
		b.Fatal(err)
	}
	kb := knowledge.NewBase(knowledge.FromExtract(out))
	builder := prompt.NewBuilder(kb)
	b.Run("filtered", func(b *testing.B) {
		var tokens int
		for i := 0; i < b.N; i++ {
			req, err := builder.Diagnosis(issue.Metadata, out)
			if err != nil {
				b.Fatal(err)
			}
			tokens = llm.PromptTokens(req)
		}
		b.ReportMetric(float64(tokens), "prompt-tokens")
	})
	b.Run("unfiltered-bound", func(b *testing.B) {
		// The DXT-heavy issue approximates "describe everything".
		var tokens int
		for i := 0; i < b.N; i++ {
			req, err := builder.Diagnosis(issue.SmallIO, out)
			if err != nil {
				b.Fatal(err)
			}
			tokens = llm.PromptTokens(req)
		}
		b.ReportMetric(float64(tokens), "prompt-tokens")
	})
}

// BenchmarkParallelFanout contrasts sequential and parallel per-issue
// prompting (the paper sends all prompts in parallel).
func BenchmarkParallelFanout(b *testing.B) {
	out, _, err := testutil.Extracted("e2e-baseline")
	if err != nil {
		b.Fatal(err)
	}
	for _, parallel := range []int{1, 3, 9} {
		parallel := parallel
		b.Run(fmt.Sprintf("parallel-%d", parallel), func(b *testing.B) {
			fw, err := ion.New(ion.Config{Client: expertsim.New(), Parallel: parallel, SkipSummary: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fw.AnalyzeExtracted(context.Background(), out, "e2e"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregationAblation runs the same small-write stream with
// client-side aggregation on and off: the simulated makespan gap is the
// physical fact ION's small-I/O context encodes (sequential small I/O
// is mitigated; disable aggregation and it is not).
func BenchmarkAggregationAblation(b *testing.B) {
	mkOps := func() []iosim.Op {
		var ops []iosim.Op
		for i := 0; i < 4096; i++ {
			ops = append(ops, iosim.Op{
				Rank: 0, Kind: iosim.KindWrite, File: "/lustre/f",
				Offset: int64(i) * 4096, Size: 4096, MemAligned: true,
			})
		}
		return ops
	}
	for _, agg := range []bool{true, false} {
		agg := agg
		name := "aggregation-on"
		if !agg {
			name = "aggregation-off"
		}
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				cfg := iosim.ExampleConfig()
				cfg.Aggregation = agg
				cfg.CollectiveBuffering = agg
				sim := iosim.New(cfg)
				if _, err := sim.Run(mkOps()); err != nil {
					b.Fatal(err)
				}
				makespan = sim.Stats().Makespan
			}
			b.ReportMetric(makespan*1e3, "simulated-ms")
		})
	}
}

// TestMain keeps the benchmark temp space tidy.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

// --- extension benchmarks ---

// BenchmarkConsistencyCheck measures the verification pass over a full
// diagnosis (the §5 consistency-checking extension).
func BenchmarkConsistencyCheck(b *testing.B) {
	out, _, err := testutil.Extracted("e2e-baseline")
	if err != nil {
		b.Fatal(err)
	}
	fw, err := ion.New(ion.Config{Client: expertsim.New(), SkipSummary: true})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := fw.AnalyzeExtracted(context.Background(), out, "e2e")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := consistency.Check(rep, out)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consistent() {
			b.Fatal("expert report inconsistent")
		}
	}
}

// BenchmarkRAGRetrieval measures index construction plus one retrieval
// (the §5 RAG extension), reporting the context-size reduction versus
// resending the full report.
func BenchmarkRAGRetrieval(b *testing.B) {
	out, _, err := testutil.Extracted("e2e-baseline")
	if err != nil {
		b.Fatal(err)
	}
	fw, err := ion.New(ion.Config{Client: expertsim.New(), SkipSummary: true})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := fw.AnalyzeExtracted(context.Background(), out, "e2e")
	if err != nil {
		b.Fatal(err)
	}
	kb := knowledge.NewBase(knowledge.FromExtract(out))
	full := len(rep.ContextText())
	var retrieved int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		provider, err := rag.ContextProvider(rep, kb, 4)
		if err != nil {
			b.Fatal(err)
		}
		retrieved = len(provider("which rank causes the write imbalance?"))
	}
	b.ReportMetric(float64(full), "full-context-bytes")
	b.ReportMetric(float64(retrieved), "retrieved-context-bytes")
}

// BenchmarkAdvisor measures optimization-plan construction.
func BenchmarkAdvisor(b *testing.B) {
	out, _, err := testutil.Extracted("ior-hard")
	if err != nil {
		b.Fatal(err)
	}
	fw, err := ion.New(ion.Config{Client: expertsim.New(), SkipSummary: true})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := fw.AnalyzeExtracted(context.Background(), out, "ior-hard")
	if err != nil {
		b.Fatal(err)
	}
	var actions int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := advisor.Recommend(rep, out)
		if err != nil {
			b.Fatal(err)
		}
		actions = len(plan.Recommendations)
	}
	b.ReportMetric(float64(actions), "actions")
}

// BenchmarkDXTExplore measures the visualization pipeline on the
// largest trace (1024 ranks).
func BenchmarkDXTExplore(b *testing.B) {
	log, err := testutil.Log("e2e-baseline")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := dxtexplore.Explore(log, dxtexplore.Options{Width: 80, MaxRows: 16})
		if len(out) == 0 {
			b.Fatal("empty visualization")
		}
	}
}

// BenchmarkTransferSweep regenerates the transfer-size sweep: verdict
// flips tracked against the simulated performance across sizes.
func BenchmarkTransferSweep(b *testing.B) {
	r := &eval.Runner{Client: expertsim.New(), SkipSummary: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.TransferSweep(context.Background(),
			[]int64{2 << 10, 1 << 20, 8 << 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeTrace exercises the pipeline at scale: a 256-rank
// interleaved workload with ~130k DXT events through generation,
// extraction, and the full diagnosis.
func BenchmarkLargeTrace(b *testing.B) {
	const ranks, perRank = 256, 256
	w := workloads.Workload{
		Name: "large", Title: "Large", Exe: "./large", NProcs: ranks,
		Config: iosim.ExampleConfig,
		Ops: func() []iosim.Op {
			var ops []iosim.Op
			for r := 0; r < ranks; r++ {
				ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindOpen, File: "/lustre/large"})
			}
			for i := 0; i < perRank; i++ {
				for r := 0; r < ranks; r++ {
					off := int64(i*ranks+r) * 65536
					ops = append(ops, iosim.Op{Rank: r, Kind: iosim.KindWrite, File: "/lustre/large",
						Offset: off, Size: 65536, MemAligned: true})
				}
			}
			return ops
		},
	}
	log, err := w.Generate()
	if err != nil {
		b.Fatal(err)
	}
	fw, err := ion.New(ion.Config{Client: expertsim.New(), SkipSummary: true})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fw.AnalyzeLog(context.Background(), log, "large", filepath.Join(dir, fmt.Sprint(i%2)))
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Diagnoses) != 9 {
			b.Fatal("incomplete diagnosis")
		}
	}
	b.ReportMetric(float64(log.TotalOps()), "trace-ops")
}

// BenchmarkSemcacheLookup measures one semantic-cache nearest-neighbor
// lookup against a 10k-entry store: the linear cosine scan over
// quantized signatures that every job submission pays before deciding
// whether to reuse, condition, or run cold.
func BenchmarkSemcacheLookup(b *testing.B) {
	const entries = 10_000
	store, err := semcache.Open(semcache.Options{
		Path:       filepath.Join(b.TempDir(), "semcache.jsonl"),
		MaxEntries: -1,
		MaxBytes:   -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	dims := len(semcache.Dimensions())
	for i := 0; i < entries; i++ {
		sig := make(semcache.Signature, dims)
		for d := range sig {
			// Deterministic spread across the unit cube so neighbors are
			// realistic: no near-duplicates, no degenerate zero vectors.
			sig[d] = float64((i*31+d*17)%97) / 96
		}
		err := store.Put(semcache.Entry{
			JobID:     fmt.Sprintf("j-%012d", i),
			TraceHash: fmt.Sprintf("h-%d", i),
			Trace:     "bench",
			Signature: sig,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	out, _, err := testutil.Extracted("openpmd-baseline")
	if err != nil {
		b.Fatal(err)
	}
	query := semcache.Extract(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := store.Lookup(query); !ok {
			b.Fatal("lookup found no neighbor in a populated store")
		}
	}
	b.ReportMetric(entries, "entries")
}

// journalStores opens each journaled store at path with its production
// bounds and returns a writer of record i and the store's closer. prof
// keeps 360 windows, so its 4,096 appends evict and compact, and its
// replay reads the compacted journal.
var journalStores = []struct {
	name string
	open func(path string) (put func(i int) error, closeFn func() error, err error)
}{
	{"semcache", func(path string) (func(int) error, func() error, error) {
		st, err := semcache.Open(semcache.Options{Path: path})
		return func(i int) error {
			sig := make(semcache.Signature, len(semcache.Dimensions()))
			for d := range sig {
				sig[d] = float64((i*31+d*17)%97) / 96
			}
			return st.Put(semcache.Entry{
				JobID:     fmt.Sprintf("j-%012d", i),
				TraceHash: fmt.Sprintf("%064x", i),
				Trace:     "ior-hard.darshan",
				Signature: sig,
				Issues:    []string{"small-io", "random-access"},
				Outcome:   "full",
				CreatedAt: time.Unix(1700000000+int64(i), 0).UTC(),
			})
		}, st.Close, err
	}},
	{"ledger", func(path string) (func(int) error, func() error, error) {
		st, err := ledger.Open(ledger.StoreOptions{Path: path})
		return func(i int) error {
			return st.Append(ledger.Entry{
				ID:        fmt.Sprintf("e-%012x", i),
				Time:      time.Unix(1700000000+int64(i), 0).UTC(),
				Job:       fmt.Sprintf("j-%012d", i/10),
				Template:  "diagnosis",
				Issue:     "small-io",
				PromptSHA: fmt.Sprintf("%064x", i),
				Backend:   "expertsim",
				Model:     "ion-expertsim-1",
				TokensIn:  1867, TokensOut: 345, LatencyMS: 41.5,
				Outcome: "ok", Attempt: 1, CostUSD: 0.0011,
			})
		}, st.Close, err
	}},
	{"quality", func(path string) (func(int) error, func() error, error) {
		st, err := quality.Open(quality.Options{Path: path})
		return func(i int) error {
			c := quality.Scorecard{
				JobID:     fmt.Sprintf("j-%012d", i),
				Trace:     "ior-hard.darshan",
				TraceHash: fmt.Sprintf("%064x", i),
				Mode:      quality.ModeFull,
				CreatedAt: time.Unix(1700000000+int64(i), 0).UTC(),
			}
			for _, id := range issue.All {
				c.Issues = append(c.Issues, quality.IssueScore{Issue: id, Verdict: issue.VerdictDetected, Label: issue.VerdictDetected})
			}
			return st.Put(c)
		}, st.Close, err
	}},
	{"prof", func(path string) (func(int) error, func() error, error) {
		st, err := prof.OpenStore(prof.StoreOptions{Path: path})
		return func(i int) error {
			end := time.Unix(1700000000+int64(i), 0).UTC()
			w := prof.Window{
				ID: fmt.Sprintf("w-cpu-%d", i), Kind: "cpu", Unit: "nanoseconds",
				Start: end.Add(-time.Second), End: end, Total: 1e9, KeptValue: 8e8,
			}
			for f := 0; f < 10; f++ {
				w.Functions = append(w.Functions, prof.FuncStat{Name: fmt.Sprintf("ion/internal/darshan.(*binDecoder).f%d", f), Flat: 1e8, Cum: 2e8, FlatShare: 0.1, CumShare: 0.2})
			}
			for k := 0; k < 5; k++ {
				w.Stacks = append(w.Stacks, prof.Stack{Frames: []string{"runtime.main", "main.main", "ion/internal/jobs.(*Service).run", fmt.Sprintf("ion/internal/darshan.f%d", k)}, Value: 1.6e8})
			}
			return st.Add(w)
		}, st.Close, err
	}},
}

// BenchmarkJournalStores appends 4,096 records to each journaled store,
// then replays them as a restarted service does at open. The records
// are shaped like production ones, so ns/record compares the stores'
// write and restart costs.
func BenchmarkJournalStores(b *testing.B) {
	const records = 4096
	for _, s := range journalStores {
		fill := func(b *testing.B, path string) {
			put, closeFn, err := s.open(path)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < records; i++ {
				if err := put(i); err != nil {
					b.Fatal(err)
				}
			}
			if err := closeFn(); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(s.name+"/append", func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				fill(b, filepath.Join(dir, fmt.Sprintf("j-%d.jsonl", n)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
		b.Run(s.name+"/replay", func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "j.jsonl")
			fill(b, path)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				_, closeFn, err := s.open(path)
				if err != nil {
					b.Fatal(err)
				}
				closeFn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}

// BenchmarkSignatureExtract measures projecting an extracted trace into
// its feature vector — the per-submission cost of semantic indexing.
func BenchmarkSignatureExtract(b *testing.B) {
	out, _, err := testutil.Extracted("openpmd-baseline")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sig := semcache.Extract(out); len(sig) == 0 {
			b.Fatal("empty signature")
		}
	}
}

// BenchmarkParseTextLarge parses a synthetic trace of over a million
// counter lines, reporting throughput in MB/s. This is the sustained-
// ingestion number: per-record setup costs are amortized away and the
// per-line byte-scanning path dominates.
func BenchmarkParseTextLarge(b *testing.B) {
	const nfiles = 16000
	l := darshan.NewLog()
	l.Header.Exe = "large ./in"
	l.Header.NProcs = 64
	l.Mounts = append(l.Mounts, darshan.Mount{Point: "/lustre", FSType: "lustre"})
	counters := darshan.CountersFor(darshan.ModPOSIX)
	fcounters := darshan.FCountersFor(darshan.ModPOSIX)
	for i := 0; i < nfiles; i++ {
		id := uint64(1 + i)
		l.Names[id] = fmt.Sprintf("/lustre/data/file-%d", i)
		r := l.Module(darshan.ModPOSIX).Record(id, int64(i%64))
		for k, c := range counters {
			r.Counters[c] = int64(k * i)
		}
		for k, c := range fcounters {
			r.FCounters[c] = float64(k) * 0.25
		}
	}
	var buf bytes.Buffer
	if err := l.WriteText(&buf); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	if lines := bytes.Count(text, []byte("\n")); lines < 1_000_000 {
		b.Fatalf("synthetic trace has %d lines, want >= 1M", lines)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := darshan.ParseText(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitHTTP times POST /api/jobs of each of the 12 families
// as a whole darshan-parser text body, upload included, against an
// httptest JobServer over a paused service. The first post of a family
// queues its job; every repeat is a dedup hit that is still read,
// parsed and hashed in full, so the queue never fills and each
// iteration measures the submit path alone.
func BenchmarkSubmitHTTP(b *testing.B) {
	svc, err := jobs.Open(jobs.Config{Dir: b.TempDir(), Client: expertsim.New(), Paused: true})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	js, err := webui.NewJobServer(expertsim.New(), svc)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(js.Handler())
	defer srv.Close()
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		log, err := testutil.Log(w.Name)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := log.WriteText(&buf); err != nil {
			b.Fatal(err)
		}
		if err := log.WriteDXTText(&buf); err != nil {
			b.Fatal(err)
		}
		body := buf.Bytes()
		b.Run(w.Name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(srv.URL+"/api/jobs?name="+w.Name, "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
					b.Fatalf("POST /api/jobs: status %d", resp.StatusCode)
				}
			}
		})
	}
}
