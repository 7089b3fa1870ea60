// Package testutil provides shared helpers for the test suites: cached
// workload generation and extraction, so the many packages that test
// against realistic traces do not each re-run the simulator.
package testutil

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ion/internal/darshan"
	"ion/internal/extractor"
	"ion/internal/workloads"
)

var (
	mu     sync.Mutex
	logs   = map[string]*darshan.Log{}
	outs   = map[string]*extractor.Output{}
	dirs   = map[string]string{}
	tmpDir string
)

// Log returns the generated Darshan log for a workload, cached across
// calls within the test binary.
func Log(name string) (*darshan.Log, error) {
	mu.Lock()
	defer mu.Unlock()
	return logLocked(name)
}

func logLocked(name string) (*darshan.Log, error) {
	if l, ok := logs[name]; ok {
		return l, nil
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	l, err := w.Generate()
	if err != nil {
		return nil, fmt.Errorf("testutil: generating %s: %w", name, err)
	}
	logs[name] = l
	return l, nil
}

// Extracted returns the extracted CSV tables (written to a shared temp
// directory) for a workload, cached across calls.
func Extracted(name string) (*extractor.Output, string, error) {
	mu.Lock()
	defer mu.Unlock()
	if o, ok := outs[name]; ok {
		return o, dirs[name], nil
	}
	l, err := logLocked(name)
	if err != nil {
		return nil, "", err
	}
	if tmpDir == "" {
		tmpDir, err = os.MkdirTemp("", "ion-testutil-")
		if err != nil {
			return nil, "", fmt.Errorf("testutil: %w", err)
		}
	}
	dir := filepath.Join(tmpDir, name)
	o, err := extractor.ExtractToDir(context.Background(), l, dir)
	if err != nil {
		return nil, "", fmt.Errorf("testutil: extracting %s: %w", name, err)
	}
	outs[name] = o
	dirs[name] = dir
	return o, dir, nil
}
