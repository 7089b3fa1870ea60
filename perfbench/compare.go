package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// readRecords reads the RECORD lines of a file of benchmark output.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "RECORD ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles judges a change against its parent from their runs, by
// the rules of the choosing-metrics guide §6–8: for every (metric,
// workload) pair it prints each side's median and quartiles, then
// "better" (the change wins at least 9 in 10 seed-paired runs and the
// medians differ by more than the parent's quartile spread),
// "unresolved" (run-to-run spread wider than the bound, unless every
// change run beats every parent run), "worse beyond bound" (median
// worse than the parent's by more than the bound), or "within bound".
// Runs pair by workload and seed, and a pair whose input fingerprints
// differ stops the comparison: the inputs, not the code, changed.
func compareFiles(w io.Writer, bench benchmarkFile, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		seed     int64
	}
	index := func(rs []record) map[key]record {
		m := map[key]record{}
		for _, r := range rs {
			m[key{r.Workload, r.Seed}] = r
		}
		return m
	}
	pi, ci := index(parent), index(change)
	var keys []key
	for k, p := range pi {
		c, ok := ci[k]
		if !ok {
			continue
		}
		if p.Inputs != c.Inputs {
			return fmt.Errorf("%s seed %d: input fingerprints differ (%s vs %s); the generated inputs changed, so the commits are not comparable",
				k.workload, k.seed, p.Inputs, c.Inputs)
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return fmt.Errorf("no (workload, seed) runs in common")
	}
	sort.Slice(keys, func(i, k int) bool {
		if keys[i].workload != keys[k].workload {
			return keys[i].workload < keys[k].workload
		}
		return keys[i].seed < keys[k].seed
	})
	specs := map[string]benchSpec{}
	for _, s := range bench.EndToEnd {
		specs[s.Name] = s
	}
	fmt.Fprintf(w, "%-16s %-24s %5s %-30s %-30s %s\n", "workload", "metric", "pairs", "parent q1/median/q3", "change q1/median/q3", "verdict")
	for _, wl := range workloadNames {
		for _, name := range e2eOrder {
			var ps, cs []float64
			for _, k := range keys {
				if k.workload != wl {
					continue
				}
				p, c := pi[k].EndToEnd[name], ci[k].EndToEnd[name]
				if p.Supported && c.Supported {
					ps, cs = append(ps, p.Value), append(cs, c.Value)
				}
			}
			if len(ps) == 0 {
				continue
			}
			spec, bounded := specs[name]
			lower := !bounded || spec.Better != "higher"
			bound := math.Inf(1)
			if bounded {
				bound = spec.Bound
			}
			verdict := judge(ps, cs, lower, bound)
			if !bounded && verdict != "better" {
				verdict = "no bound in BENCHMARK.json"
			}
			fmt.Fprintf(w, "%-16s %-24s %5d %-30s %-30s %s\n", wl, name, len(ps), quartiles(ps), quartiles(cs), verdict)
		}
	}
	return nil
}

func quartiles(v []float64) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g", percentile(v, 0.25), percentile(v, 0.5), percentile(v, 0.75))
}

// judge applies the comparison rules to seed-paired samples.
func judge(parent, change []float64, lowerBetter bool, bound float64) string {
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := median(parent), median(change)
	iqrP := percentile(parent, 0.75) - percentile(parent, 0.25)
	iqrC := percentile(change, 0.75) - percentile(change, 0.25)
	if float64(wins) >= 0.9*float64(len(parent)) && better(mc, mp) && math.Abs(mc-mp) > iqrP {
		return "better"
	}
	spread := math.Max(relative(iqrP, mp), relative(iqrC, mc))
	if spread > bound {
		allBetter := true
		for _, c := range change {
			for _, p := range parent {
				allBetter = allBetter && better(c, p)
			}
		}
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	worse := mc > mp*(1+bound)
	if !lowerBetter {
		worse = mc < mp*(1-bound)
	}
	if worse {
		return "worse beyond bound"
	}
	return "within bound"
}

func relative(spread, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(spread / med)
}
