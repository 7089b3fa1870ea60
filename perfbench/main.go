// Command perfbench is the service benchmark: it builds ionserve's
// service stack in-process, serves it over loopback, drives one of
// three seeded traffic mixes through it, checks every served report
// against ground truth, and prints end-to-end metrics (or, with
// -trace 1, per-layer metrics from a traced pass).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh -workload fresh-diagnosis -seed 1 -seconds 20 -trace 0
//	bash perfbench/run.sh -workload all -seed 1          # every workload, every metric
//	bash perfbench/run.sh -compare parent.txt change.txt # judge two commits' runs
//
// Each run prints a human-readable table, a `RECORD {...}` line with
// the run record, and, last, one JSON object with the keys correct,
// attempted, failed and metrics, holding the BENCHMARK.json metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"fresh-diagnosis", "reuse-ingest", "interactive"}

func main() {
	var (
		workload = flag.String("workload", "", "fresh-diagnosis, reuse-ingest, interactive, or all")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: also run a traced pass and report per-layer metrics")
		root     = flag.String("root", ".", "repository root (BENCHMARK.json, sources, .bench_build)")
		compare  = flag.Bool("compare", false, "compare two files of RECORD lines: -compare PARENT CHANGE")
	)
	flag.Parse()
	if err := runMain(*workload, *seed, *seconds, *trace, *root, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(workload string, seed int64, seconds, trace int, root string, compare bool, args []string) error {
	bench, err := loadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files: PARENT CHANGE")
		}
		return compareFiles(os.Stdout, bench, args[0], args[1])
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("bad -seconds or -trace")
	}
	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	} else if !contains(workloadNames, workload) {
		return fmt.Errorf("unknown -workload %q (have %s, all)", workload, strings.Join(workloadNames, ", "))
	}

	fams, err := loadFamilies()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	meta := runMeta(root)
	var last result
	var table []result
	for _, name := range names {
		res, err := measure(fams, name, seed, seconds, trace == 1, build, meta)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.print(os.Stdout)
		line, _ := json.Marshal(res.record)
		fmt.Printf("RECORD %s\n", line)
		table = append(table, res)
		last = res
	}
	if len(table) > 1 {
		printSummary(os.Stdout, table)
	}
	return last.printContract(os.Stdout, bench, trace == 1)
}

// result is one workload's measured passes.
type result struct {
	record record
	e2e    metricSet
	layer  metricSet // traced runs only
	checks []string
}

// record is the run record printed as the RECORD line.
type record struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     int       `json:"trace"`
	Meta      meta      `json:"meta"`
	ModelWait waitModel `json:"model_wait_ns"`
	Inputs    string    `json:"inputs_sha256"`
	DeckUsed  int       `json:"deck_used,omitempty"`
	// ShadowRuns counts the quality observatory's sampled background
	// re-runs during the timed phase (the service's own randomness).
	ShadowRuns int                    `json:"shadow_runs"`
	Phases     map[string]phaseCounts `json:"phases"`
	Correct    bool                   `json:"correct"`
	BadOutput  []string               `json:"bad_output,omitempty"`
	// ReuseMismatch lists semantic-cache-derived reports whose verdicts
	// differ from ground truth; they lower verdict_match_share.
	ReuseMismatch []string  `json:"reuse_mismatch,omitempty"`
	EndToEnd      metricSet `json:"end_to_end"`
	PerLayer      metricSet `json:"per_layer,omitempty"`
	Checks        []string  `json:"checks,omitempty"`
	SpansFile     string    `json:"spans_file,omitempty"`
	SetupRounds   []float64 `json:"setup_rounds_s"`
}

type meta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

// measure runs one workload: an untraced pass, and with traced a
// second, traced pass over the same inputs.
func measure(fams []*family, workload string, seed int64, seconds int, traced bool, build string, m meta) (result, error) {
	conns := runtime.NumCPU()
	h := &harness{
		fams:    fams,
		conns:   conns,
		seed:    seed,
		seconds: seconds,
		dataDir: filepath.Join(build, fmt.Sprintf("data-%d", os.Getpid())),
		client:  httpClient(conns),
		own:     httpClient(1),
	}
	defer h.client.CloseIdleConnections()
	defer h.own.CloseIdleConnections()
	base, err := h.pass(workload, ionserveDefaults)
	if err != nil {
		return result{}, err
	}
	e2e, timed := endToEnd(base)
	res := result{e2e: e2e}
	rec := record{
		Workload: workload, Seed: seed, Seconds: seconds, Meta: m, ModelWait: modelWait,
		Inputs: base.fingerprint, DeckUsed: base.deckUsed, EndToEnd: e2e,
		Phases:        map[string]phaseCounts{"setup": base.setupOps, "timed": timed},
		Correct:       correct(base),
		BadOutput:     base.badOutput,
		ReuseMismatch: base.reuseMismatch,
	}
	for job := range base.calls {
		if isShadow(job) {
			rec.ShadowRuns++
		}
	}
	for _, d := range base.setups {
		rec.SetupRounds = append(rec.SetupRounds, d.Seconds())
	}
	switch workload {
	case "fresh-diagnosis":
		share, n := criticalWaitShare(base)
		res.checks = append(res.checks, fmt.Sprintf("median model wait on the critical path over run time = %.3f over %d jobs (want > 0.5)", share, n))
	case "reuse-ingest":
		res.checks = append(res.checks, fmt.Sprintf("llm_calls_per_job = %g (want 0)", e2e["llm_calls_per_job"].Value))
	}
	if traced {
		h.tr = newTracer()
		tr, err := h.pass(workload, ionserveDefaults)
		if err != nil {
			return result{}, err
		}
		e2eT, timedT := endToEnd(tr)
		res.layer = perLayer(tr, e2eT, e2e)
		rec.Trace = 1
		rec.PerLayer = res.layer
		rec.Phases["traced_setup"] = tr.setupOps
		rec.Phases["traced_timed"] = timedT
		rec.Correct = rec.Correct && correct(tr)
		rec.BadOutput = append(rec.BadOutput, tr.badOutput...)
		if workload == "interactive" {
			asks := 0
			for _, o := range tr.ops {
				if o.route == "ask" && o.ok {
					asks++
				}
			}
			res.checks = append(res.checks, fmt.Sprintf("llm.calls_chat = %g, successful asks = %d (want equal)", res.layer["llm.calls_chat"].Value, asks))
		}
		path := filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := writeSpans(path, h.tr); err != nil {
			return result{}, err
		}
		rec.SpansFile = path
	}
	rec.Checks = res.checks
	res.record = rec
	return res, nil
}

func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// correct reports whether reports were checked and every output check
// passed: each full diagnosis matched ground truth, every served
// report, page and answer was well formed.
func correct(r *run) bool {
	return r.checked > 0 && len(r.badOutput) == 0
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMeta describes the host and the code under test. A checkout
// without version-control data is identified by a digest of its Go
// sources.
func runMeta(root string) meta {
	m := meta{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	m.Source = hex.EncodeToString(h.Sum(nil))
	return m
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []benchSpec `json:"end_to_end"`
	PerLayer   []benchSpec `json:"per_layer"`
}

type benchSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func (res result) print(w io.Writer) {
	r := res.record
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d trace=%d  nproc=%d GOMAXPROCS=%d %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Meta.NProc, r.Meta.GOMAXPROCS, r.Meta.Go)
	fmt.Fprintf(w, "   inputs sha256 %s\n", r.Inputs)
	for _, ph := range []string{"setup", "timed", "traced_setup", "traced_timed"} {
		if c, ok := r.Phases[ph]; ok {
			fmt.Fprintf(w, "   %-13s attempted %d, succeeded %d, failed %d\n", ph, c.Attempted, c.Succeeded, c.Failed)
		}
	}
	fmt.Fprintf(w, "   end to end:\n")
	printMetrics(w, res.e2e, e2eOrder)
	if res.layer != nil {
		fmt.Fprintf(w, "   per layer (traced pass):\n")
		names := make([]string, 0, len(res.layer))
		for n := range res.layer {
			names = append(names, n)
		}
		sort.SliceStable(names, func(i, k int) bool { return layerRank(names[i]) < layerRank(names[k]) })
		printMetrics(w, res.layer, names)
	}
	for _, c := range res.checks {
		fmt.Fprintf(w, "   check: %s\n", c)
	}
	fmt.Fprintf(w, "   correct: %v\n", r.Correct)
	for _, b := range r.BadOutput {
		fmt.Fprintf(w, "   bad output: %s\n", b)
	}
	for _, b := range r.ReuseMismatch {
		fmt.Fprintf(w, "   reuse mismatch: %s\n", b)
	}
}

var e2eOrder = []string{
	"setup_s", "job_latency_p50_s", "job_latency_p90_s", "submit_latency_p50_ms", "submit_latency_p90_ms",
	"jobs_per_s", "read_latency_p50_ms", "read_latency_p99_ms", "ask_latency_p50_ms", "ask_latency_p90_ms",
	"llm_calls_per_job", "llm_tokens_per_job", "cpu_ms_per_op", "heap_live_mb", "failed_ops_share",
	"verdict_match_share",
}

var layerOrder = []string{"webui", "jobs", "darshan", "extractor", "semcache", "ion", "llm", "ledger", "expertsim", "quality", "obs", "runtime", "load"}

func layerRank(name string) string {
	for i, l := range layerOrder {
		if l == layerOf(name) {
			return fmt.Sprintf("%02d%s", i, name)
		}
	}
	return "99" + name
}

func printMetrics(w io.Writer, ms metricSet, order []string) {
	for _, n := range order {
		m, ok := ms[n]
		if !ok {
			continue
		}
		if m.Supported {
			fmt.Fprintf(w, "     %-34s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "     %-34s %14s %-6s (n=%d)\n", n, "unsupported", m.Unit, m.N)
		}
	}
}

func printSummary(w io.Writer, rs []result) {
	fmt.Fprintf(w, "== end-to-end metrics by workload\n     %-26s", "metric")
	for _, r := range rs {
		fmt.Fprintf(w, " %18s", r.record.Workload)
	}
	fmt.Fprintln(w)
	for _, n := range e2eOrder {
		fmt.Fprintf(w, "     %-26s", n)
		for _, r := range rs {
			m := r.e2e[n]
			cell := fmt.Sprintf("unsupp. (n=%d)", m.N)
			if m.Supported {
				cell = fmt.Sprintf("%.4g %s", m.Value, m.Unit)
			}
			fmt.Fprintf(w, " %18s", cell)
		}
		fmt.Fprintln(w)
	}
}

// printContract prints the last line: the BENCHMARK.json metrics of
// the (last) workload, end-to-end or, traced, per-layer.
func (res result) printContract(w io.Writer, bench benchmarkFile, traced bool) error {
	specs, set := bench.EndToEnd, res.e2e
	phase := res.record.Phases["timed"]
	if traced {
		specs, set = bench.PerLayer, res.layer
		phase = res.record.Phases["traced_timed"]
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, s := range specs {
		m, ok := set[s.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names %s, which the harness does not compute", s.Name)
		}
		if !m.Supported && !traced {
			return fmt.Errorf("%s on %s is unsupported (n=%d)", s.Name, res.record.Workload, m.N)
		}
		out[s.Name] = value{Value: m.Value, Unit: s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.record.Correct, phase.Attempted, phase.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
