package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// importLegacy moves the job records of a data directory in the older
// layout, one <dir>/jobs/<id>.json file per job, into the job table
// through put, oldest submission first, and then removes jobs/. Files
// that do not parse or check are skipped. A crash part-way imports
// again at the next Open, each record superseding its earlier copy.
func importLegacy(dir string, put func(Job) error) error {
	legacy := filepath.Join(dir, "jobs")
	entries, err := os.ReadDir(legacy)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: importing %s: %w", legacy, err)
	}
	var recs []Job
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		var j Job
		data, err := os.ReadFile(filepath.Join(legacy, e.Name()))
		if err == nil && json.Unmarshal(data, &j) == nil && j.check() == nil {
			recs = append(recs, j)
		}
	}
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].SubmittedAt.Before(recs[b].SubmittedAt) })
	for _, j := range recs {
		if err := put(j); err != nil {
			return fmt.Errorf("jobs: importing %s: %w", j.ID, err)
		}
	}
	return os.RemoveAll(legacy)
}
