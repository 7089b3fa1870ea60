package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "parse", Start: 0, End: 30 * ms},
		// Shards partition the parse: its self time keeps them.
		{ID: 2, Parent: 1, Name: "parse_shard", Start: 0, End: 20 * ms, Part: true},
		{ID: 3, Parent: 1, Name: "parse_shard", Start: 5 * ms, End: 30 * ms, Part: true},
		{ID: 4, Parent: 0, Name: "attempt", Start: 40 * ms, End: 100 * ms},
		{ID: 5, Parent: 4, Name: "analyze", Start: 40 * ms, End: 80 * ms},
		// Parallel diagnoses overlap: their union, not their sum, is
		// subtracted from analyze.
		{ID: 6, Parent: 5, Name: "diagnose", Start: 40 * ms, End: 70 * ms},
		{ID: 7, Parent: 5, Name: "diagnose", Start: 45 * ms, End: 78 * ms},
		{ID: 8, Parent: 6, Name: "llm_complete", Start: 50 * ms, End: 65 * ms},
		{ID: 9, Parent: 4, Name: "summarize", Start: 80 * ms, End: 95 * ms},
	}
	want := []time.Duration{10 * ms, 30 * ms, 20 * ms, 25 * ms, 5 * ms, 2 * ms, 15 * ms, 33 * ms, 15 * ms, 15 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got, want[i])
		}
	}
	// The fan-out waited 40ms for diagnoses whose median took 31.5ms.
	if got := stragglers(spans); len(got) != 1 || got[0] != 8500*time.Microsecond {
		t.Errorf("stragglers = %v, want [8.5ms]", got)
	}
}

func TestSelfTimesFollowIDsNotPositions(t *testing.T) {
	// A filtered span list keeps its original ids.
	spans := []span{
		{ID: 7, Parent: -1, Name: "chain.ledger", Start: 0, End: 10},
		{ID: 9, Parent: 7, Name: "chain.wait", Start: 2, End: 9},
	}
	if got := selfTimes(spans); got[0] != 3 || got[1] != 7 {
		t.Errorf("self times %v, want [3 7]", got)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	noisy := []float64{60, 140, 70, 130, 100, 90, 150, 65, 110, 95}
	same := []float64{100, 100, 101, 99, 100, 101, 99, 100, 100, 101}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{faster, "better"},
		{slower, "worse beyond bound"},
		{noisy, "unresolved"},
		{same, "within bound"},
	} {
		if got := judge(parent, c.change, true, 0.1); got != c.want {
			t.Errorf("judge(%v) = %q, want %q", c.change, got, c.want)
		}
	}
}
