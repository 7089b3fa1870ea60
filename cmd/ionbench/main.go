// Command ionbench regenerates the paper's evaluation artifacts:
//
//	ionbench -figure 2     reproduce Figure 2 (ION vs ground truth, IO500)
//	ionbench -figure 3     reproduce Figure 3 (ION vs Drishti, OpenPMD+E2E)
//	ionbench -pitfalls     reproduce the §2 threshold-pitfall analysis
//	ionbench -all          everything, plus the aggregate scoreboard
//
// Output is deterministic: the default backend is the simulated expert
// model, so the tables regenerate bit-identically across runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ion/internal/eval"
	"ion/internal/expertsim"
	"ion/internal/obs"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "figure to reproduce: 2 or 3")
		pitfalls = flag.Bool("pitfalls", false, "run the §2 threshold-pitfall sweep")
		sweep    = flag.Bool("sweep", false, "run the transfer-size sweep")
		scale    = flag.Bool("scale", false, "run the rank-scaling contention sweep")
		all      = flag.Bool("all", false, "run every experiment")
		stages   = flag.Bool("stages", false, "print the per-stage latency summary (p50/p95/p99) after the run")
		workdir  = flag.String("workdir", "", "directory for extracted CSVs (default: temp)")
		version  = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.GetBuildInfo().String())
		return
	}
	if *figure == 0 && !*pitfalls && !*sweep && !*scale && !*all {
		flag.Usage()
		os.Exit(2)
	}

	runner := &eval.Runner{Client: expertsim.New(), WorkDir: *workdir, SkipSummary: true}
	ctx := context.Background()
	var tracer *obs.Tracer
	if *stages {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
	}

	var fig2, fig3 []*eval.Result
	if *all || *figure == 2 {
		text, results, err := runner.Figure2(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
		fig2 = results
	}
	if *all || *figure == 3 {
		text, results, err := runner.Figure3(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
		fig3 = results
	}
	if *all || *sweep {
		text, _, err := runner.TransferSweep(ctx, []int64{2 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20})
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}
	if *all || *scale {
		text, _, err := runner.ScaleSweep(ctx, []int{2, 4, 8, 16, 32})
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}
	if *all || *pitfalls {
		text, _, err := runner.ThresholdPitfall(ctx, []int64{256 << 10, 1 << 20, 4 << 20})
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}
	if *all {
		scoreboard(append(fig2, fig3...))
	}
	if *stages {
		printStages(tracer.Timeline())
	}
}

// printStages renders the per-stage latency distribution of everything
// the run executed, so the evaluation artifacts can track where the
// pipeline spends its time, not just end-to-end totals.
func printStages(tl obs.Timeline) {
	stats := obs.Summarize(tl)
	if len(stats) == 0 {
		fmt.Println("\nPer-stage latency: no spans recorded")
		return
	}
	fmt.Println("\nPer-stage latency")
	fmt.Println("=================")
	fmt.Printf("%-16s %6s %12s %10s %10s %10s %10s\n",
		"stage", "count", "total", "p50", "p95", "p99", "max")
	for _, st := range stats {
		fmt.Printf("%-16s %6d %11.3fs %9.3fms %9.3fms %9.3fms %9.3fms\n",
			st.Stage, st.Count, st.TotalSeconds,
			1e3*st.P50, 1e3*st.P95, 1e3*st.P99, 1e3*st.Max)
	}
}

func scoreboard(results []*eval.Result) {
	fmt.Println("Aggregate scoreboard")
	fmt.Println("====================")
	fmt.Printf("%-22s %-28s %-28s\n", "workload", "ION (verdict accuracy)", "Drishti (flag accuracy)")
	var ionHit, ionTotal, ionFP, dHit, dTotal, dFP int
	for _, r := range results {
		fmt.Printf("%-22s %-28s %-28s\n", r.Workload.Name, r.IONScore.String(), r.DrishtiScore.String())
		ionHit += r.IONScore.Matched
		ionTotal += r.IONScore.Expected
		ionFP += len(r.IONScore.FalsePositives)
		dHit += r.DrishtiScore.Matched
		dTotal += r.DrishtiScore.Expected
		dFP += len(r.DrishtiScore.FalsePositives)
	}
	fmt.Printf("%-22s %d/%d matched, %d FP         %d/%d matched, %d FP\n",
		"TOTAL", ionHit, ionTotal, ionFP, dHit, dTotal, dFP)
	fmt.Println("\nPer-issue detail of mismatches:")
	for _, r := range results {
		for _, m := range r.IONScore.Mismatches {
			fmt.Printf("  ION     %-22s %-20s want=%s got=%s\n", r.Workload.Name, m.Issue, m.Want, m.Got)
		}
		for _, m := range r.DrishtiScore.Mismatches {
			fmt.Printf("  Drishti %-22s %-20s want=%s got=%s\n", r.Workload.Name, m.Issue, m.Want, m.Got)
		}
		for _, id := range r.IONScore.FalsePositives {
			fmt.Printf("  ION     %-22s %-20s false positive\n", r.Workload.Name, id)
		}
		for _, id := range r.DrishtiScore.FalsePositives {
			fmt.Printf("  Drishti %-22s %-20s false positive\n", r.Workload.Name, id)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ionbench:", err)
	os.Exit(1)
}
