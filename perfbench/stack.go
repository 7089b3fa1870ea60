package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ion/internal/expertsim"
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

// stack is ionserve's service stack, built in-process from the
// constructors cmd/ionserve calls, in the same order and with the same
// settings, and served over loopback. Two things differ from ionserve:
// the model is the standIn wait in front of expertsim, and the harness
// drives series.Store.Scrape and prof.Profiler.CaptureCycle itself on
// ionserve's cadences instead of calling Start, so every run starts the
// profiler's CPU window at the same point and the traced run can time
// each call.
type stack struct {
	dir   string
	cfg   serveConfig
	tr    *tracer // nil when untraced
	reg   *obs.Registry
	model *standIn

	rec          *flight.Recorder
	profStore    *prof.Store
	profiler     *prof.Profiler
	ledgerStore  *ledger.Store
	ledgerClient *ledger.Client
	sem          *semcache.Store
	qual         *quality.Store
	svc          *jobs.Service
	series       *series.Store
	srv          *http.Server
	served       chan error
	base         string // http://127.0.0.1:port

	// Call-chain accounting of the traced run.
	inflight, maxInflight atomic.Int64

	alertsFired atomic.Int64
	captures    sync.WaitGroup

	// openTimes are the harness timings of the stores' Open calls.
	openTimes map[string]time.Duration
}

// openStack builds the stack over dir with cfg.
func openStack(dir string, cfg serveConfig, wait waitModel, tr *tracer) (*stack, error) {
	st := &stack{dir: dir, cfg: cfg, tr: tr, openTimes: map[string]time.Duration{}}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	level, err := obs.ParseLevel(cfg.LogLevel)
	if err != nil {
		return nil, err
	}
	// ionserve logs to stderr; the benchmark formats the same records
	// and discards them.
	logger := obs.NewLogger(io.Discard, level)
	st.reg = obs.NewRegistry()
	obs.RegisterRuntimeMetrics(st.reg)
	obs.RegisterBuildInfo(st.reg)

	// The client chain is ionserve's llm.Instrument(ledger.Wrap(base))
	// with base = the wait stand-in over expertsim. The traced run puts
	// a timing wrapper between every two layers.
	wrap := func(c llm.Client, name string) llm.Client {
		if tr == nil {
			return c
		}
		return &timedClient{inner: c, tr: tr, name: name}
	}
	st.model = newStandIn(wrap(expertsim.New(), "chain.expertsim"), wait)
	base := wrap(st.model, "chain.wait")

	cpuGuard := obs.NewCPUProfileGuard()
	st.rec, err = flight.New(flight.Options{
		Dir:        filepath.Join(dir, "incidents"),
		CPUProfile: time.Duration(cfg.CaptureCPUSeconds) * time.Second,
		CPUGuard:   cpuGuard,
		MaxBundles: cfg.IncidentRetention,
		Registry:   st.reg,
		Config:     cfg.flags(),
		Logger:     logger,
	})
	if err != nil {
		return nil, err
	}
	logger = slog.New(st.rec.LogHandler(logger.Handler()))
	st.rec.Start()

	st.timeOpen("prof", func() {
		st.profStore, err = prof.OpenStore(prof.StoreOptions{
			Path:      filepath.Join(dir, "prof", "windows.jsonl"),
			Retention: cfg.ProfRetention,
		})
	})
	if err != nil {
		return nil, err
	}
	st.profiler, err = prof.New(prof.Options{
		Window:   cfg.ProfWindow,
		Interval: cfg.ProfInterval,
		Store:    st.profStore,
		Registry: st.reg,
		Guard:    cpuGuard,
		Logger:   logger,
	})
	if err != nil {
		return nil, err
	}
	st.rec.SetProfileWindowsFn(func() any { return st.profStore.Windows("", 12) })

	st.timeOpen("ledger", func() {
		st.ledgerStore, err = ledger.Open(ledger.StoreOptions{Path: filepath.Join(dir, "llm", "ledger.jsonl")})
	})
	if err != nil {
		return nil, err
	}
	st.ledgerClient = ledger.Wrap(base, st.ledgerStore, ledger.WrapOptions{
		Prices:      ledger.DefaultPrices(),
		CaptureText: cfg.LedgerCaptureText,
		Registry:    st.reg,
	})
	client := wrap(llm.Instrument(wrap(st.ledgerClient, "chain.ledger"), st.reg), "chain.instrument")
	if tc, ok := client.(*timedClient); ok {
		tc.inflight, tc.maxIn = &st.inflight, &st.maxInflight
	}
	st.rec.SetLedgerTailFn(func() any { return st.ledgerStore.Tail(50) })

	st.timeOpen("semcache", func() {
		st.sem, err = semcache.Open(semcache.Options{
			Path:       filepath.Join(dir, "semcache.jsonl"),
			MaxEntries: cfg.SemMaxEntries,
			MaxBytes:   cfg.SemMaxBytes,
		})
	})
	if err != nil {
		return nil, err
	}

	st.timeOpen("quality", func() {
		st.qual, err = quality.Open(quality.Options{Path: filepath.Join(dir, "quality.jsonl")})
	})
	if err != nil {
		return nil, err
	}
	st.rec.SetQualityScorecardsFn(func() any { return st.qual.Tail(50) })

	jobsCfg := jobs.Config{
		Dir:                   dir,
		Client:                client,
		Workers:               cfg.Workers,
		QueueDepth:            cfg.Queue,
		ParseWorkers:          cfg.ParseWorkers,
		StreamMaxBuffer:       cfg.StreamMaxBuffer,
		JobTimeout:            cfg.JobTimeout,
		MaxAttempts:           cfg.Retries,
		Obs:                   st.reg,
		Logger:                logger,
		SemCache:              st.sem,
		SemReuseThreshold:     cfg.SemReuse,
		SemConditionThreshold: cfg.SemCondition,
		Ledger:                st.ledgerStore,
		Quality:               st.qual,
		ShadowSampleRate:      cfg.ShadowRate,
		OnTimeline:            st.rec.OfferTimeline,
	}
	if tr != nil {
		jobsCfg.OnTimeline = func(tl obs.Timeline) {
			id := tr.begin("offer_timeline", tl.Trace, "", -1)
			st.rec.OfferTimeline(tl)
			tr.end(id, "", 0, 0)
		}
	}
	st.timeOpen("jobs", func() { st.svc, err = jobs.Open(jobsCfg) })
	if err != nil {
		return nil, err
	}

	js, err := webui.NewJobServer(client, st.svc)
	if err != nil {
		return nil, err
	}
	js.WithObs(st.reg, logger)
	js.WithFlight(st.rec)
	js.WithLLMLedger(st.ledgerClient)
	js.WithProf(st.profiler)
	js.WithQuality(st.qual)

	st.series = series.New(st.reg, series.Options{
		Interval:  cfg.ScrapeInterval,
		Retention: cfg.Retention,
		Rules:     series.DefaultRules(),
		Logger:    logger,
		OnTransition: func(t series.RuleTransition) {
			if t.To != series.StateFiring {
				return
			}
			st.alertsFired.Add(1)
			st.captures.Add(1)
			go func() {
				defer st.captures.Done()
				if _, err := st.rec.Capture("alert:" + t.Rule); err != nil {
					logger.Debug("incident capture skipped", "rule", t.Rule, "err", err)
				}
			}()
		},
	})
	st.rec.SetAlertsFunc(func() any { return st.series.Alerts() })
	js.WithSeries(st.series)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.srv = &http.Server{
		Handler:           js.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	ok = true
	return st, nil
}

// timeOpen times one store's Open call (recorded as a span too, in the
// traced run).
func (st *stack) timeOpen(name string, fn func()) {
	start := time.Now()
	st.tr.time(name+".open", "", fn)
	st.openTimes[name] = time.Since(start)
}

// drive runs the scrape and profiler cadences from now until stop is
// closed: a scrape immediately and every ScrapeInterval, a profiler
// cycle immediately and every ProfInterval, as their Start loops do.
// After closing stop, call the returned wait; it returns once both
// loops have exited.
func (st *stack) drive(stop <-chan struct{}, profCycles *atomic.Int64) (wait func()) {
	var wg sync.WaitGroup
	loop := func(every time.Duration, name string, fn func(time.Time)) {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		now := time.Now()
		for {
			id := st.tr.begin(name, "", "", -1)
			fn(now)
			st.tr.end(id, "", 0, 0)
			select {
			case <-stop:
				return
			case now = <-t.C:
			}
		}
	}
	wg.Add(2)
	go loop(st.cfg.ScrapeInterval, "scrape", st.series.Scrape)
	go loop(st.cfg.ProfInterval, "capture_cycle", func(now time.Time) {
		st.profiler.CaptureCycle(now)
		select {
		case <-stop:
			// Stop interrupted the window; it is not a full cycle.
		default:
			profCycles.Add(1)
		}
	})
	return func() {
		// Stop interrupts an in-flight CPU window.
		st.profiler.Stop()
		wg.Wait()
	}
}

// close shuts the stack down in ionserve's order: listener, job
// service drain, then the stores.
func (st *stack) close() error {
	var errs []error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		errs = append(errs, st.srv.Shutdown(ctx))
		cancel()
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if st.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		errs = append(errs, st.svc.Close(ctx))
		cancel()
	}
	st.captures.Wait()
	if st.series != nil {
		st.series.Stop()
	}
	if st.qual != nil {
		errs = append(errs, st.qual.Close())
	}
	if st.sem != nil {
		errs = append(errs, st.sem.Close())
	}
	if st.ledgerStore != nil {
		errs = append(errs, st.ledgerStore.Close())
	}
	if st.profiler != nil {
		st.profiler.Stop()
	}
	if st.profStore != nil {
		errs = append(errs, st.profStore.Close())
	}
	if st.rec != nil {
		st.rec.Stop()
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("closing service stack: %w", err)
	}
	return nil
}
