// Command ionserve runs the ION diagnosis service: Darshan traces are
// uploaded as analysis jobs, queued onto a bounded worker pool, run
// through the ion pipeline, and served through the paper's web front
// end (Figure 1) — a report page with per-issue modals and interactive
// message window per job, plus a JSON API for job lifecycle and
// service stats.
//
// Usage:
//
//	ionserve -addr :8080                      # empty service, POST traces to /api/jobs
//	ionserve -log trace.darshan -addr :8080   # one-shot: submit, wait, serve
//	ionserve -report saved.json               # serve a previously saved report
//	ionserve -log trace.darshan -html out.html  # render the report page and exit
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ion/internal/expertsim"
	"ion/internal/ion"
	"ion/internal/jobs"
	"ion/internal/llm"
	"ion/internal/llm/ledger"
	"ion/internal/obs"
	"ion/internal/obs/flight"
	"ion/internal/obs/prof"
	"ion/internal/obs/series"
	"ion/internal/quality"
	"ion/internal/semcache"
	"ion/internal/webui"
)

func main() {
	var (
		logPath      = flag.String("log", "", "Darshan log to submit as the first job")
		reportPath   = flag.String("report", "", "serve a previously saved report JSON instead of running the service")
		dataDir      = flag.String("data", "", "service data directory for jobs, traces, and reports (default: <log>.ionserve or ./ionserve-data)")
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		htmlOut      = flag.String("html", "", "write the report page to this file and exit (no server)")
		workers      = flag.Int("workers", 2, "analysis worker pool size")
		queueDepth   = flag.Int("queue", 16, "queued-job bound; submissions beyond it get HTTP 429")
		parseWorkers = flag.Int("parse-workers", 0, "trace-parse shard pool size (0 = GOMAXPROCS)")
		streamMaxBuf = flag.Int64("stream-max-buffer", 256<<20, "total trace bytes held by in-flight uploads, on both submit routes, before 429 (negative = unlimited)")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "per-attempt analysis timeout")
		retries      = flag.Int("retries", 3, "max analysis attempts per job (first run included)")
		logLevel     = flag.String("log-level", "info", "structured log level: debug, info, warn, or error")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (separate listener, never the public one)")
		scrapeInt    = flag.Duration("scrape-interval", 5*time.Second, "self-observation scrape cadence (0 disables the series store, dashboard, and alerting)")
		retention    = flag.Duration("retention", 15*time.Minute, "how much series history the in-process store keeps")
		rulesPath    = flag.String("rules", "", "JSON alert-rules file (default: built-in SLO rules)")
		incDir       = flag.String("incident-dir", "", "directory for flight-recorder incident bundles (default: <data>/incidents; \"none\" disables the recorder)")
		incKeep      = flag.Int("incident-retention", 16, "incident bundles kept on disk (oldest deleted first)")
		captureCPU   = flag.Int("capture-cpu-seconds", 5, "CPU-profile length inside an incident capture (0 skips the CPU profile)")

		profInterval  = flag.Duration("prof-interval", time.Minute, "continuous-profiler duty cycle: one CPU window plus heap/goroutine snapshots per interval (0 disables)")
		profWindow    = flag.Duration("prof-window", 10*time.Second, "CPU-profile length inside each continuous-profiler cycle (clamped to half the interval)")
		profRetention = flag.Duration("prof-retention", 2*time.Hour, "how long decoded profile windows are retained in <data>/prof")

		ledgerPath = flag.String("ledger", "", "LLM audit-ledger journal (default: <data>/llm/ledger.jsonl; \"none\" disables)")
		ledgerText = flag.Bool("ledger-capture-text", false, "store raw prompt/response text in the ledger (default: prompt hashes and accounting only)")
		priceTable = flag.String("llm-price-table", "", "JSON per-model price table overriding the built-in rates (USD per 1M tokens)")

		semCache      = flag.Bool("sem-cache", true, "semantic diagnosis cache: reuse prior diagnoses of similar traces")
		semReuse      = flag.Float64("sem-reuse-threshold", 0.995, "signature similarity at or above which a prior diagnosis is served verbatim (>1 disables the verbatim tier)")
		semCondition  = flag.Float64("sem-condition-threshold", 0.90, "signature similarity at or above which the analysis is conditioned on a prior diagnosis (>1 disables conditioning)")
		semMaxEntries = flag.Int("sem-max-entries", semcache.DefaultMaxEntries, "semantic-cache entry bound (LRU eviction beyond it; negative disables)")
		semMaxBytes   = flag.Int64("sem-max-bytes", semcache.DefaultMaxBytes, "semantic-cache journal byte bound (LRU eviction beyond it; negative disables)")

		qualityOn  = flag.Bool("quality", true, "diagnosis quality observatory: score LLM verdicts against the ground-truth labels of bundled workloads, journal scorecards, and shadow re-run reused diagnoses")
		shadowRate = flag.Float64("shadow-sample-rate", 0.05, "fraction of semcache-reused/conditioned jobs re-run in the background to measure verdict flips (0 disables)")

		showVersion = flag.Bool("version", false, "print version and build info, then exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(obs.GetBuildInfo().String())
		return
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, level)
	reg := obs.NewRegistry()
	// Process health lands in the same registry (and therefore the same
	// series store) as the application metrics.
	obs.RegisterRuntimeMetrics(reg)
	// ion_build_info joins every scrape, profile window, and incident
	// bundle to the binary that produced it.
	obs.RegisterBuildInfo(reg)
	// Instrument the client at the edge, so both the analysis workers
	// and the chat sessions report into the same registry. The service
	// path recomposes this below with the audit ledger in the middle.
	base := expertsim.New()
	client := llm.Instrument(base, reg)

	if *debugAddr != "" {
		serveDebug(*debugAddr, logger)
	}

	// -report keeps its original single-report behavior.
	if *reportPath != "" {
		rep, err := ion.LoadJSON(*reportPath)
		if err != nil {
			fatal(err)
		}
		srv, err := webui.New(client, rep)
		if err != nil {
			fatal(err)
		}
		if *htmlOut != "" {
			renderHTML(srv.Handler(), *htmlOut)
			return
		}
		fmt.Printf("ionserve: report %s ready — http://%s\n", rep.Trace, *addr)
		serve(*addr, srv.Handler(), nil)
		return
	}

	dir := *dataDir
	if dir == "" {
		if *logPath != "" {
			dir = *logPath + ".ionserve"
		} else {
			dir = "ionserve-data"
		}
	}

	// One CPU-profile guard is shared by the continuous profiler and the
	// flight recorder: runtime/pprof allows a single active CPU profile,
	// and incident captures preempt the rolling window.
	cpuGuard := obs.NewCPUProfileGuard()

	// Flight recorder: always-on rings (logs, slow spans, metric
	// snapshots), snapshotted into a tar.gz incident bundle when an
	// alert fires or /api/debug/capture is hit. The recorder's log tee
	// becomes the root logger, so every component below records into the
	// incident ring — including debug-level lines stderr drops.
	var rec *flight.Recorder
	if *incDir != "none" {
		bundleDir := *incDir
		if bundleDir == "" {
			bundleDir = filepath.Join(dir, "incidents")
		}
		rec, err = flight.New(flight.Options{
			Dir:        bundleDir,
			CPUProfile: time.Duration(*captureCPU) * time.Second,
			CPUGuard:   cpuGuard,
			MaxBundles: *incKeep,
			Registry:   reg,
			Config:     flagConfig(),
			Logger:     logger,
		})
		if err != nil {
			fatal(err)
		}
		logger = slog.New(rec.LogHandler(logger.Handler()))
		rec.Start()
		defer rec.Stop()
	}

	// Continuous profiler: a rolling CPU window plus heap/goroutine
	// snapshots every cycle, decoded in-process and journaled under
	// <data>/prof so "what was hot before the restart" survives.
	var profiler *prof.Profiler
	if *profInterval > 0 {
		profStore, err := prof.OpenStore(prof.StoreOptions{
			Path:      filepath.Join(dir, "prof", "windows.jsonl"),
			Retention: *profRetention,
		})
		if err != nil {
			fatal(err)
		}
		defer profStore.Close()
		profiler, err = prof.New(prof.Options{
			Window:   *profWindow,
			Interval: *profInterval,
			Store:    profStore,
			Registry: reg,
			Guard:    cpuGuard,
			Logger:   logger,
		})
		if err != nil {
			fatal(err)
		}
		profiler.Start()
		defer profiler.Stop()
		if rec != nil {
			// Incident bundles carry the recent profile windows, so a
			// capture answers "what was the CPU doing" without waiting for
			// its own profile.
			rec.SetProfileWindowsFn(func() any { return profStore.Windows("", 12) })
		}
	}

	// LLM audit ledger: one journaled entry per completion (prompt hash,
	// tokens, latency, outcome, estimated cost), replayed across
	// restarts like the other journals. The recording wrapper sits
	// between the backend and the instrumentation so the telemetry
	// measures ledger overhead too; it also maintains the rolling
	// per-backend health score the LLMBackendDegraded rule watches.
	var ledgerStore *ledger.Store
	var ledgerClient *ledger.Client
	if *ledgerPath != "none" {
		path := *ledgerPath
		if path == "" {
			path = filepath.Join(dir, "llm", "ledger.jsonl")
		}
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
		ledgerStore, err = ledger.Open(ledger.StoreOptions{Path: path})
		if err != nil {
			fatal(err)
		}
		defer ledgerStore.Close()
		ledgerClient = ledger.Wrap(base, ledgerStore, ledger.WrapOptions{
			Prices:      prices,
			CaptureText: *ledgerText,
			Registry:    reg,
		})
		client = llm.Instrument(ledgerClient, reg)
		if rec != nil {
			// Incident bundles carry the recent LLM calls — hashes and
			// accounting only, so the bundle stays shareable.
			rec.SetLedgerTailFn(func() any { return ledgerStore.Tail(50) })
		}
	}

	// Semantic diagnosis cache: one journaled signature entry per
	// completed diagnosis, consulted before every fresh analysis. Opened
	// under the data dir so it survives restarts with the job store.
	var sem *semcache.Store
	if *semCache {
		sem, err = semcache.Open(semcache.Options{
			Path:       filepath.Join(dir, "semcache.jsonl"),
			MaxEntries: *semMaxEntries,
			MaxBytes:   *semMaxBytes,
		})
		if err != nil {
			fatal(err)
		}
		defer sem.Close()
	}

	// Diagnosis quality observatory: one journaled scorecard per
	// successful diagnosis (LLM verdicts vs ground-truth labels when the
	// trace is a bundled workload), a sampled shadow re-run of reused
	// diagnoses to catch cache decay, and the flip gauges
	// SemcacheFlipRateHigh watches.
	var qstore *quality.Store
	if *qualityOn {
		qstore, err = quality.Open(quality.Options{
			Path: filepath.Join(dir, "quality.jsonl"),
		})
		if err != nil {
			fatal(err)
		}
		defer qstore.Close()
		if rec != nil {
			// Incidents carry the recent scorecards, so the bundle shows
			// which verdicts mismatched or flipped without a live service.
			rec.SetQualityScorecardsFn(func() any { return qstore.Tail(50) })
		}
	}

	jobsCfg := jobs.Config{
		Dir:                   dir,
		Client:                client,
		Workers:               *workers,
		QueueDepth:            *queueDepth,
		ParseWorkers:          *parseWorkers,
		StreamMaxBuffer:       *streamMaxBuf,
		JobTimeout:            *jobTimeout,
		MaxAttempts:           *retries,
		Obs:                   reg,
		Logger:                logger,
		SemCache:              sem,
		SemReuseThreshold:     *semReuse,
		SemConditionThreshold: *semCondition,
		Ledger:                ledgerStore,
		Quality:               qstore,
		ShadowSampleRate:      *shadowRate,
	}
	if rec != nil {
		// Completed job timelines feed the recorder's tail-sampler, so
		// the slowest runs per stage are in memory when a capture fires.
		jobsCfg.OnTimeline = rec.OfferTimeline
	}
	svc, err := jobs.Open(jobsCfg)
	if err != nil {
		fatal(err)
	}

	home := "/"
	if *logPath != "" {
		// One-shot mode: submit the trace as a job and wait for it, so
		// the classic `ionserve -log trace.darshan` flow still comes up
		// with the diagnosis ready.
		trace, err := os.ReadFile(*logPath)
		if err != nil {
			fatal(err)
		}
		job, dedup, err := svc.Submit(*logPath, trace)
		if err != nil {
			fatal(err)
		}
		if dedup {
			fmt.Printf("ionserve: %s already analyzed (job %s)\n", *logPath, job.ID)
		}
		final, err := svc.Wait(context.Background(), job.ID)
		if err != nil {
			fatal(err)
		}
		if !final.State.Succeeded() {
			fatal(fmt.Errorf("analyzing %s: %s", *logPath, final.Error))
		}
		if *htmlOut != "" {
			rep, err := svc.Report(final.ID)
			if err != nil {
				fatal(err)
			}
			single, err := webui.New(client, rep)
			if err != nil {
				fatal(err)
			}
			renderHTML(single.Handler(), *htmlOut)
			closeService(svc)
			return
		}
		home = "/jobs/" + final.ID
		fmt.Printf("ionserve: diagnosis of %s ready — http://%s%s\n", *logPath, *addr, home)
	} else {
		fmt.Printf("ionserve: service ready — http://%s (POST traces to /api/jobs)\n", *addr)
	}

	js, err := webui.NewJobServer(client, svc)
	if err != nil {
		fatal(err)
	}
	js.WithObs(reg, logger)
	if rec != nil {
		js.WithFlight(rec)
	}
	if ledgerClient != nil {
		js.WithLLMLedger(ledgerClient)
	}
	if profiler != nil {
		js.WithProf(profiler)
	}
	if qstore != nil {
		js.WithQuality(qstore)
	}

	if *scrapeInt > 0 {
		rules := series.DefaultRules()
		if *rulesPath != "" {
			data, err := os.ReadFile(*rulesPath)
			if err != nil {
				fatal(err)
			}
			if rules, err = series.ParseRules(data); err != nil {
				fatal(err)
			}
		}
		opts := series.Options{
			Interval:  *scrapeInt,
			Retention: *retention,
			Rules:     rules,
			Logger:    logger,
		}
		if rec != nil {
			// A rule entering firing is the moment evidence still exists:
			// capture in a goroutine so the (up to 5s) CPU profile never
			// stalls the scrape loop. The recorder singleflights and
			// rate-limits, so alert storms cost one bundle, not a pile.
			opts.OnTransition = func(tr series.RuleTransition) {
				if tr.To != series.StateFiring {
					return
				}
				go func() {
					if _, err := rec.Capture("alert:" + tr.Rule); err != nil {
						logger.Debug("incident capture skipped", "rule", tr.Rule, "err", err)
					}
				}()
			}
		}
		store := series.New(reg, opts)
		if rec != nil {
			rec.SetAlertsFunc(func() any { return store.Alerts() })
		}
		store.Start()
		defer store.Stop()
		js.WithSeries(store)
		fmt.Printf("ionserve: dashboard at http://%s/dashboard (scrape %s, retention %s, %d rules)\n",
			*addr, *scrapeInt, *retention, len(rules))
	}
	serve(*addr, js.Handler(), svc)
}

// flagConfig snapshots every flag's effective value for the incident
// bundle's config.json (the recorder redacts secret-looking keys).
func flagConfig() map[string]string {
	cfg := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) { cfg[f.Name] = f.Value.String() })
	return cfg
}

// serveDebug exposes net/http/pprof on its own listener and mux so
// profiling endpoints are never reachable through the public address.
// (The pprof import also registers on http.DefaultServeMux, but no
// listener here serves that mux.)
func serveDebug(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	server := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	logger.Info("debug listener up", "addr", addr, "endpoints", "/debug/pprof/")
	go func() {
		if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug listener failed", "addr", addr, "err", err)
		}
	}()
}

// serve runs a configured http.Server and shuts it down gracefully on
// SIGINT/SIGTERM, draining the job service (when present) afterwards.
func serve(addr string, handler http.Handler, svc *jobs.Service) {
	server := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "ionserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "ionserve: shutdown:", err)
		}
	}
	if svc != nil {
		closeService(svc)
	}
}

func closeService(svc *jobs.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ionserve: draining jobs:", err)
	}
}

// renderHTML writes the handler's index page to a file (the -html
// render-and-exit mode).
func renderHTML(h http.Handler, path string) {
	req, _ := http.NewRequest(http.MethodGet, "/", nil)
	var page strings.Builder
	rec := &fileResponse{w: &page, header: http.Header{}}
	h.ServeHTTP(rec, req)
	if err := os.WriteFile(path, []byte(page.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("ionserve: wrote %s\n", path)
}

// fileResponse adapts a writer into an http.ResponseWriter for the
// -html render-to-file mode.
type fileResponse struct {
	w      *strings.Builder
	header http.Header
}

func (r *fileResponse) Header() http.Header         { return r.header }
func (r *fileResponse) WriteHeader(int)             {}
func (r *fileResponse) Write(p []byte) (int, error) { return r.w.Write(p) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ionserve:", err)
	os.Exit(1)
}
