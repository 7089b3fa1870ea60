// Package extractor implements the ION Extractor: it unpacks a Darshan
// log and reshapes each module's counter records into CSV files the
// Analyzer's prompts reference — POSIX.csv, MPIIO.csv, STDIO.csv,
// LUSTRE.csv, and DXT.csv — mirroring the paper's design of running
// darshan-parser / darshan-dxt-parser and formatting one CSV per
// module.
package extractor

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ion/internal/darshan"
	"ion/internal/obs"
	"ion/internal/table"
)

// Module table names as written to disk (without the .csv suffix).
const (
	TablePOSIX  = "POSIX"
	TableMPIIO  = "MPIIO"
	TableSTDIO  = "STDIO"
	TableLustre = "LUSTRE"
	TableDXT    = "DXT"
	TableJob    = "JOB"
)

// Fixed leading columns of every module table.
var keyCols = []string{"file_id", "file_name", "rank"}

// DXT table columns.
var dxtCols = []string{
	"file_id", "file_name", "module", "rank", "op",
	"segment", "offset", "length", "start", "end", "osts",
}

// Job table columns (a single-row table with header facts).
var jobCols = []string{
	"exe", "nprocs", "run_time", "start_time", "end_time", "jobid", "uid",
}

// Output is the result of an extraction: the per-module tables, plus
// the paths they were written to when a directory was given.
type Output struct {
	// Tables maps table name (e.g. "POSIX") to its contents.
	Tables map[string]*table.Table
	// Paths maps table name to the CSV path on disk; empty when the
	// extraction was in-memory only.
	Paths map[string]string
	// Header echoes the log's job-level metadata.
	Header darshan.Header
}

// Table returns the named table or nil.
func (o *Output) Table(name string) *table.Table { return o.Tables[name] }

// ModuleNames returns the extracted table names in canonical order.
func (o *Output) ModuleNames() []string {
	canon := []string{TablePOSIX, TableMPIIO, TableSTDIO, TableLustre, TableDXT, TableJob}
	var out []string
	for _, n := range canon {
		if _, ok := o.Tables[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// extract converts a Darshan log into module CSV tables in memory. When
// ctx carries an obs.Tracer, each module's table build is recorded as
// an extract_module span. The per-module tables build concurrently on a
// worker pool bounded by GOMAXPROCS; the log is only read, never
// mutated, so the builders share it without synchronization.
func extract(ctx context.Context, log *darshan.Log) (*Output, error) {
	type build struct {
		name string
		fn   func() (*table.Table, error)
	}
	var builds []build
	for _, spec := range []struct {
		module string
		name   string
	}{
		{darshan.ModPOSIX, TablePOSIX},
		{darshan.ModMPIIO, TableMPIIO},
		{darshan.ModSTDIO, TableSTDIO},
		{darshan.ModLustre, TableLustre},
	} {
		if !log.HasModule(spec.module) {
			continue
		}
		spec := spec
		builds = append(builds, build{spec.name, func() (*table.Table, error) {
			return moduleTable(log, spec.module, spec.name)
		}})
	}
	if len(log.DXT) > 0 {
		builds = append(builds, build{TableDXT, func() (*table.Table, error) {
			return dxtTable(log)
		}})
	}
	builds = append(builds, build{TableJob, func() (*table.Table, error) {
		return jobTable(log.Header)
	}})

	workers := runtime.GOMAXPROCS(0)
	if workers > len(builds) {
		workers = len(builds)
	}
	tables := make([]*table.Table, len(builds))
	errs := make([]error, len(builds))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, b := range builds {
		i, b := i, b
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			_, span := obs.StartSpan(ctx, "extract_module", obs.L("module", b.name))
			tables[i], errs[i] = b.fn()
			span.SetError(errs[i])
			span.End()
		}()
	}
	wg.Wait()

	out := &Output{
		Tables: make(map[string]*table.Table, len(builds)),
		Paths:  map[string]string{},
		Header: log.Header,
	}
	for i, b := range builds {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.Tables[b.name] = tables[i]
	}
	return out, nil
}

// jobTable renders the single-row job-facts table from the header.
func jobTable(h darshan.Header) (*table.Table, error) {
	job := table.New(TableJob, jobCols)
	if err := job.Append([]string{
		h.Exe,
		strconv.Itoa(h.NProcs),
		formatFloat(h.RunTime),
		strconv.FormatInt(h.StartTime, 10),
		strconv.FormatInt(h.EndTime, 10),
		strconv.FormatInt(h.JobID, 10),
		strconv.Itoa(h.UID),
	}); err != nil {
		return nil, fmt.Errorf("extractor: job table: %w", err)
	}
	return job, nil
}

// ExtractToDir extracts the log and writes each table as <dir>/<name>.csv.
func ExtractToDir(ctx context.Context, log *darshan.Log, dir string) (*Output, error) {
	out, err := extract(ctx, log)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("extractor: %w", err)
	}
	for name, t := range out.Tables {
		path := filepath.Join(dir, name+".csv")
		if err := t.WriteFile(path); err != nil {
			return nil, fmt.Errorf("extractor: %w", err)
		}
		out.Paths[name] = path
	}
	return out, nil
}

// ExtractFile loads a Darshan log file (binary container or parser
// text), recording the load as a parse span, and extracts it to dir.
func ExtractFile(ctx context.Context, logPath, dir string) (*Output, error) {
	_, span := obs.StartSpan(ctx, "parse", obs.L("path", logPath))
	log, err := darshan.Load(logPath)
	span.SetError(err)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("extractor: loading %s: %w", logPath, err)
	}
	return ExtractToDir(ctx, log, dir)
}

// LoadDir reads previously extracted CSVs back from a directory.
func LoadDir(dir string) (*Output, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("extractor: %w", err)
	}
	out := &Output{Tables: map[string]*table.Table{}, Paths: map[string]string{}}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".csv")
		path := filepath.Join(dir, e.Name())
		t, err := table.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("extractor: %w", err)
		}
		t.Name = name
		out.Tables[name] = t
		out.Paths[name] = path
	}
	if len(out.Tables) == 0 {
		return nil, fmt.Errorf("extractor: no CSV tables found in %s", dir)
	}
	if job, ok := out.Tables[TableJob]; ok && job.NumRows() > 0 {
		out.Header.Exe, _ = job.Value(0, "exe")
		if v, err := job.Int(0, "nprocs"); err == nil {
			out.Header.NProcs = int(v)
		}
		if v, err := job.Float(0, "run_time"); err == nil {
			out.Header.RunTime = v
		}
	}
	return out, nil
}

// moduleTable flattens one module's records: fixed key columns followed
// by every canonical counter, float counters, and (for Lustre) the
// per-stripe OST id list collapsed into one "OST_IDS" column.
func moduleTable(log *darshan.Log, module, name string) (*table.Table, error) {
	cols := append([]string{}, keyCols...)
	counters := darshan.CountersFor(module)
	fcounters := darshan.FCountersFor(module)
	cols = append(cols, counters...)
	if module == darshan.ModLustre {
		cols = append(cols, "OST_IDS")
	}
	cols = append(cols, fcounters...)
	t := table.New(name, cols)

	recs := append([]*darshan.Record(nil), log.Modules[module].Records...)
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].FileID != recs[j].FileID {
			return recs[i].FileID < recs[j].FileID
		}
		return recs[i].Rank < recs[j].Rank
	})
	t.Grow(len(recs))
	w := table.NewRowWriter(t)
	var ostKey []byte // scratch for LUSTRE_OST_ID_<k> map keys
	for _, r := range recs {
		w.Uint(r.FileID)
		w.String(log.Name(r.FileID))
		w.Int(r.Rank)
		for _, c := range counters {
			w.Int(r.Counters[c])
		}
		if module == darshan.ModLustre {
			width := r.Counters[darshan.CLustreStripeWidth]
			for k := int64(0); k < width; k++ {
				if k > 0 {
					w.PartSep(';')
				}
				ostKey = append(ostKey[:0], "LUSTRE_OST_ID_"...)
				ostKey = strconv.AppendInt(ostKey, k, 10)
				w.PartInt(r.Counters[string(ostKey)])
			}
			w.EndCell()
		}
		for _, c := range fcounters {
			w.Float(r.FCounters[c])
		}
		if err := w.EndRow(); err != nil {
			return nil, fmt.Errorf("extractor: %w", err)
		}
	}
	return t, nil
}

func dxtTable(log *darshan.Log) (*table.Table, error) {
	t := table.New(TableDXT, dxtCols)
	total := 0
	for _, tr := range log.DXT {
		total += len(tr.Events)
	}
	t.Grow(total)
	w := table.NewRowWriter(t)
	for _, tr := range log.DXT {
		name := log.Name(tr.FileID)
		for _, ev := range tr.Events {
			w.Uint(tr.FileID)
			w.String(name)
			w.String(ev.Module)
			w.Int(ev.Rank)
			w.String(string(ev.Op))
			w.Int(ev.Segment)
			w.Int(ev.Offset)
			w.Int(ev.Length)
			w.Float(ev.Start)
			w.Float(ev.End)
			for i, o := range ev.OSTs {
				if i > 0 {
					w.PartSep(';')
				}
				w.PartInt(int64(o))
			}
			w.EndCell()
			if err := w.EndRow(); err != nil {
				return nil, fmt.Errorf("extractor: %w", err)
			}
		}
	}
	return t, nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
