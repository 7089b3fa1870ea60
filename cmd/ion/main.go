// Command ion analyzes a Darshan trace with the ION framework: it
// extracts the log into per-module CSVs, fans per-issue diagnosis
// prompts out to the configured language-model backend, prints the
// diagnosis report with its chain-of-thought steps and generated
// analysis code, and optionally opens the interactive Q&A interface.
//
// Usage:
//
//	ion -log trace.darshan
//	ion -log trace.darshan -interactive
//	ion -log trace.darshan -backend openai -base-url http://localhost:8000/v1
//	ion -log trace.darshan -ledger calls.jsonl -ledger-capture-text
//	ion -log trace.darshan -replay-ledger calls.jsonl
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ion/internal/advisor"
	"ion/internal/consistency"
	"ion/internal/darshan"
	"ion/internal/dxtexplore"
	"ion/internal/expertsim"
	"ion/internal/extractor"
	"ion/internal/ion"
	"ion/internal/issue"
	"ion/internal/knowledge"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/rag"
	"ion/internal/report"
)

func main() {
	var (
		logPath     = flag.String("log", "", "Darshan log to analyze (binary container or parser text)")
		workdir     = flag.String("workdir", "", "directory for extracted CSVs (default: <log>.csv)")
		issuesFlag  = flag.String("issues", "", "comma-separated issue subset (default: all)")
		backend     = flag.String("backend", "expertsim", "LLM backend: expertsim or openai")
		baseURL     = flag.String("base-url", "https://api.openai.com/v1", "OpenAI-compatible endpoint (backend=openai)")
		apiKey      = flag.String("api-key", os.Getenv("OPENAI_API_KEY"), "API key (backend=openai)")
		model       = flag.String("model", "gpt-4-1106-preview", "model name (backend=openai)")
		ledgerPath  = flag.String("ledger", "", "append every LLM call to this audit-ledger journal (JSONL)")
		ledgerText  = flag.Bool("ledger-capture-text", false, "store raw prompt/response text in the ledger (default: prompt hashes and accounting only)")
		priceTable  = flag.String("llm-price-table", "", "JSON per-model price table overriding the built-in rates (USD per 1M tokens)")
		replayLed   = flag.String("replay-ledger", "", "re-run the recorded prompt set from this ledger journal deterministically (needs -ledger-capture-text at record time); overrides -backend")
		interactive = flag.Bool("interactive", false, "open the Q&A interface after the diagnosis")
		showCode    = flag.Bool("code", false, "show the generated analysis code")
		hideSteps   = flag.Bool("no-steps", false, "hide the chain-of-thought steps")
		color       = flag.Bool("color", false, "ANSI colors")
		everything  = flag.Bool("verbose", false, "include issues with a clear verdict")
		summary     = flag.Bool("summary", true, "include the global diagnosis summary")
		verify      = flag.Bool("verify", false, "run the consistency checker over the diagnosis")
		useRAG      = flag.Bool("rag", false, "use retrieval-augmented context in interactive mode")
		explore     = flag.Bool("explore", false, "print DXT visualizations before the diagnosis")
		advise      = flag.Bool("advise", false, "print the ranked optimization plan after the diagnosis")
		saveReport  = flag.String("save-report", "", "save the diagnosis as JSON to this path")
		kbDir       = flag.String("kb", "", "directory of JSON knowledge-context overrides")
		traceOut    = flag.String("trace-out", "", "write the pipeline span timeline as JSON to this path")
		logLevel    = flag.String("log-level", "warn", "structured log level: debug, info, warn, or error")
		showVersion = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(obs.GetBuildInfo().String())
		return
	}
	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "ion: -log is required")
		flag.Usage()
		os.Exit(2)
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, level)
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	client, err := buildClient(*backend, *baseURL, *apiKey, *model)
	if err != nil {
		fatal(err)
	}
	if *replayLed != "" {
		// Deterministic re-run: every prompt must resolve from the
		// recorded set, so drift fails loudly instead of silently
		// burning tokens.
		rp, err := ledger.NewReplay(*replayLed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ion: replaying %d recorded completion(s) from %s\n", rp.Len(), *replayLed)
		client = rp
	}
	if *ledgerPath != "" {
		prices := ledger.DefaultPrices()
		if *priceTable != "" {
			data, err := os.ReadFile(*priceTable)
			if err != nil {
				fatal(err)
			}
			if prices, err = ledger.ParsePriceTable(data); err != nil {
				fatal(err)
			}
		}
		lst, err := ledger.Open(ledger.StoreOptions{Path: *ledgerPath})
		if err != nil {
			fatal(err)
		}
		defer lst.Close()
		client = ledger.Wrap(client, lst, ledger.WrapOptions{
			Prices:      prices,
			CaptureText: *ledgerText,
			Registry:    reg,
		})
	}
	// Instrument outermost, after replay/ledger composition, so
	// the telemetry measures what the pipeline actually waited on.
	client = llm.Instrument(client, reg)

	var issues []issue.ID
	if *issuesFlag != "" {
		for _, s := range strings.Split(*issuesFlag, ",") {
			issues = append(issues, issue.ID(strings.TrimSpace(s)))
		}
	}

	var kb *knowledge.Base
	if *kbDir != "" {
		kb = knowledge.NewBase(knowledge.DefaultHyperparams())
		n, err := kb.LoadOverrides(*kbDir)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ion: loaded %d knowledge override(s) from %s\n", n, *kbDir)
	}

	fw, err := ion.New(ion.Config{Client: client, KB: kb, Issues: issues, SkipSummary: !*summary})
	if err != nil {
		fatal(err)
	}
	dir := *workdir
	if dir == "" {
		dir = *logPath + ".csv"
	}

	ctx := obs.WithLogger(context.Background(), logger)
	var tracer *obs.Tracer
	var root *obs.Span
	if *traceOut != "" {
		tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tracer)
		ctx, root = obs.StartSpan(ctx, "pipeline", obs.L("trace", *logPath))
	}
	start := time.Now()
	rep, err := fw.AnalyzeFile(ctx, *logPath, dir)
	if err != nil {
		fatal(err)
	}
	logger.Info("diagnosis complete", "trace", *logPath, "issues", len(rep.Diagnoses),
		"elapsed", time.Since(start).Round(time.Millisecond).String())

	if tracer != nil {
		root.End()
		tl := tracer.Timeline()
		tl.Trace = *logPath
		data, err := json.MarshalIndent(tl, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ion: span timeline (%d spans) written to %s\n", len(tl.Spans), *traceOut)
	}

	if *saveReport != "" {
		if err := rep.SaveJSON(*saveReport); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ion: report saved to %s\n", *saveReport)
	}

	if *explore {
		traceLog, err := darshan.Load(*logPath)
		if err != nil {
			fatal(err)
		}
		fmt.Println(dxtexplore.Explore(traceLog, dxtexplore.Options{Width: 72, MaxRows: 12}))
	}

	opts := report.Options{
		Color:        *color,
		ShowCode:     *showCode,
		ShowSteps:    !*hideSteps,
		OnlyFindings: !*everything,
	}
	if err := report.WriteReport(os.Stdout, rep, opts); err != nil {
		fatal(err)
	}

	if *advise {
		out, err := extractor.LoadDir(dir)
		if err != nil {
			fatal(err)
		}
		plan, err := advisor.Recommend(rep, out)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(plan.Render())
	}

	if *verify {
		out, err := extractor.LoadDir(dir)
		if err != nil {
			fatal(err)
		}
		res, err := consistency.Check(rep, out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nconsistency: %d rules checked, %d violation(s)\n", res.RulesChecked, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Printf("  [%s] %s: %s\n", v.Severity, v.Rule, v.Detail)
		}
		if !res.Consistent() {
			fmt.Println("consistency: ERROR-level violations found — treat this diagnosis with suspicion")
		}
	}

	if *interactive {
		if err := repl(client, rep, *useRAG); err != nil {
			fatal(err)
		}
	}
}

func buildClient(backend, baseURL, apiKey, model string) (llm.Client, error) {
	switch backend {
	case "expertsim":
		return expertsim.New(), nil
	case "openai":
		c, err := llm.NewOpenAI(llm.OpenAIConfig{BaseURL: baseURL, APIKey: apiKey, Model: model})
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, fmt.Errorf("ion: unknown backend %q", backend)
}

func repl(client llm.Client, rep *ion.Report, useRAG bool) error {
	session, err := ion.NewSession(client, rep)
	if err != nil {
		return err
	}
	if useRAG {
		provider, err := rag.ContextProvider(rep, knowledge.NewBase(knowledge.DefaultHyperparams()), 4)
		if err != nil {
			return err
		}
		session.SetContextProvider(provider)
	}
	fmt.Println("\nInteractive mode — ask about the diagnosis (empty line or 'exit' to quit).")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("ion> ")
		if !sc.Scan() {
			break
		}
		q := strings.TrimSpace(sc.Text())
		if q == "" || q == "exit" || q == "quit" {
			break
		}
		answer, err := session.Ask(context.Background(), q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ion:", err)
			continue
		}
		fmt.Println(answer)
	}
	return sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ion:", err)
	os.Exit(1)
}
