// Command drishti runs the reimplemented Drishti trigger analyzer over
// a Darshan trace: the threshold-based baseline tool ION is evaluated
// against. Thresholds are exposed as flags so the paper's §2 argument
// (fixed thresholds mislead on boundary workloads) can be explored.
//
// Usage:
//
//	drishti -log trace.darshan
//	drishti -log trace.darshan -small-size 4194304 -small-pct 0.05
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"ion/internal/drishti"
	"ion/internal/extractor"
)

func main() {
	cfg := drishti.DefaultConfig()
	var (
		logPath = flag.String("log", "", "Darshan log to analyze")
		csvDir  = flag.String("csv", "", "analyze an already-extracted CSV directory instead of a log")
		workdir = flag.String("workdir", "", "extraction directory (default: <log>.csv)")
	)
	flag.Int64Var(&cfg.SmallRequestSize, "small-size", cfg.SmallRequestSize, "small-request threshold in bytes")
	flag.Float64Var(&cfg.SmallRequestsPercent, "small-pct", cfg.SmallRequestsPercent, "small-request share trigger")
	flag.Int64Var(&cfg.SmallRequestsCount, "small-count", cfg.SmallRequestsCount, "small-request absolute count floor")
	flag.Float64Var(&cfg.MisalignedPercent, "misaligned-pct", cfg.MisalignedPercent, "misaligned share trigger")
	flag.Float64Var(&cfg.RandomOpsPercent, "random-pct", cfg.RandomOpsPercent, "random-operation share trigger")
	flag.Float64Var(&cfg.ImbalancePercent, "imbalance-pct", cfg.ImbalancePercent, "load-imbalance trigger")
	flag.Float64Var(&cfg.MetadataTimeSeconds, "meta-seconds", cfg.MetadataTimeSeconds, "metadata time trigger (seconds)")
	flag.Parse()

	var (
		out *extractor.Output
		err error
	)
	switch {
	case *csvDir != "":
		out, err = extractor.LoadDir(*csvDir)
	case *logPath != "":
		dir := *workdir
		if dir == "" {
			dir = *logPath + ".csv"
		}
		out, err = extractor.ExtractFile(context.Background(), *logPath, dir)
	default:
		fmt.Fprintln(os.Stderr, "drishti: need -log or -csv")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	rep, err := drishti.Analyze(out, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Render())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drishti:", err)
	os.Exit(1)
}
