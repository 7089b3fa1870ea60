// Package workloads generates the evaluation traces of the paper: the
// six controlled IO500-derived workloads of Figure 2 and the two real
// applications (OpenPMD, E2E) of Figure 3 in baseline and optimized
// variants. Each workload builds an operation stream, executes it on
// the iosim parallel-file-system simulator, and records the run into a
// Darshan log, carrying a ground-truth issue list for scoring.
package workloads

import (
	"fmt"
	"sort"

	"ion/internal/darshan"
	"ion/internal/iosim"
	"ion/internal/issue"
)

// Workload is one reproducible trace generator.
type Workload struct {
	// Name is the identifier used by CLIs and the benchmark harness,
	// e.g. "ior-easy-2k-shared".
	Name string
	// Title matches the paper's row label, e.g. "IOR-Easy-2KB-Shared-File".
	Title string
	// Description summarizes the access pattern.
	Description string
	// Exe is the command line recorded in the Darshan header.
	Exe string
	// NProcs is the number of MPI ranks.
	NProcs int
	// Truth is the ground-truth issue list for the evaluation.
	Truth []issue.Expectation
	// Config returns the simulator configuration for the run.
	Config func() iosim.Config
	// Layouts optionally overrides file striping before the run.
	Layouts map[string]iosim.Layout
	// Ops builds the operation stream.
	Ops func() []iosim.Op
}

// Generate runs the workload through the simulator and records a
// Darshan log with DXT tracing enabled.
func (w Workload) Generate() (*darshan.Log, error) {
	log, _, err := w.generate()
	return log, err
}

// GenerateWithStats also returns the simulator statistics, which the
// benchmark harness reports alongside diagnosis results.
func (w Workload) GenerateWithStats() (*darshan.Log, iosim.Stats, error) {
	return w.generate()
}

func (w Workload) generate() (*darshan.Log, iosim.Stats, error) {
	cfg := w.Config()
	sim := iosim.New(cfg)
	for file, layout := range w.Layouts {
		if err := sim.SetLayout(file, layout); err != nil {
			return nil, iosim.Stats{}, fmt.Errorf("workloads: %s: %w", w.Name, err)
		}
	}
	ops := w.Ops()
	if len(ops) == 0 {
		return nil, iosim.Stats{}, fmt.Errorf("workloads: %s produced no operations", w.Name)
	}
	results, err := sim.Run(ops)
	if err != nil {
		return nil, iosim.Stats{}, fmt.Errorf("workloads: %s: %w", w.Name, err)
	}
	log, err := Record(sim, ops, results, Meta{
		Exe:        w.Exe,
		NProcs:     w.NProcs,
		JobID:      int64(1000000 + len(w.Name)*7919),
		UID:        1001,
		StartTime:  1719000000,
		MountPoint: "/lustre",
		FSType:     "lustre",
		WithDXT:    true,
	})
	if err != nil {
		return nil, iosim.Stats{}, err
	}
	return log, sim.Stats(), nil
}

// Expect is a convenience constructor for ground-truth entries.
func Expect(id issue.ID, want issue.Verdict, note string) issue.Expectation {
	return issue.Expectation{Issue: id, Want: want, Note: note}
}

// All returns every workload of the evaluation, Figure 2 rows first,
// then the Figure 3 application traces.
func All() []Workload {
	return []Workload{
		IOREasy(2048, true),
		IOREasy(1<<20, true),
		IOREasy(1<<20, false),
		IORHard(),
		IORRandom4K(),
		MDWorkbench(),
		OpenPMD(false),
		OpenPMD(true),
		E2E(false),
		E2E(true),
	}
}

// ByName returns the named workload, searching the evaluation set and
// the extra (non-paper) workloads, then the IOR-Easy variants under
// the names IOREasy gives them.
func ByName(name string) (Workload, error) {
	var names []string
	for _, w := range append(All(), Extras()...) {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	if w, ok := iorEasyByName(name); ok {
		return w, nil
	}
	sort.Strings(names)
	return Workload{}, fmt.Errorf("workloads: unknown workload %q (have %v, or ior-easy-<size>-<shared|fpp>)", name, names)
}

// Figure2 returns the six IO500-derived workloads in paper row order.
func Figure2() []Workload {
	return All()[:6]
}

// Figure3 returns the four application traces in paper row order.
func Figure3() []Workload {
	return All()[6:]
}
