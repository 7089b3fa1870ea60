package analysis

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"ion/internal/extractor"
	"ion/internal/knowledge"
	"ion/internal/table"
	"ion/internal/workloads"
)

// This file keeps the string-keyed, map-per-stream implementations of
// SmallIO, Pattern and SharedFile as references: they read the DXT
// table cell by cell and key every stream and stripe on file names, so
// they share nothing with the interned, sorted implementations they
// check. The only change from the original is SharedFile's tie rule
// (the lexically first busiest file), which the original left to map
// order.

type refEvent struct {
	FileName string
	Rank     int64
	Op       string
	Offset   int64
	Length   int64
	Start    float64
	End      float64
}

func refEvents(env *Env) ([]refEvent, error) {
	t := env.Out.Table(extractor.TableDXT)
	if t == nil {
		return nil, fmt.Errorf("no DXT table")
	}
	evs := make([]refEvent, 0, t.NumRows())
	for i := 0; i < t.NumRows(); i++ {
		var ev refEvent
		var err error
		if ev.FileName, err = t.Value(i, "file_name"); err != nil {
			return nil, err
		}
		if ev.Rank, err = t.Int(i, "rank"); err != nil {
			return nil, err
		}
		if ev.Op, err = t.Value(i, "op"); err != nil {
			return nil, err
		}
		if ev.Offset, err = t.Int(i, "offset"); err != nil {
			return nil, err
		}
		if ev.Length, err = t.Int(i, "length"); err != nil {
			return nil, err
		}
		if ev.Start, err = t.Float(i, "start"); err != nil {
			return nil, err
		}
		if ev.End, err = t.Float(i, "end"); err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

type refStreamID struct {
	file string
	rank int64
	op   string
}

func refSmallIO(env *Env) (SmallIOReport, error) {
	evs, err := refEvents(env)
	if err != nil {
		return SmallIOReport{}, err
	}
	r := SmallIOReport{RPCSize: env.Hyper.RPCSize, StripeSize: env.Hyper.StripeSize}
	prevEnd := map[refStreamID]int64{}
	seen := map[refStreamID]bool{}
	ranks := map[int64]bool{}
	for _, ev := range evs {
		r.TotalOps++
		r.TotalBytes += ev.Length
		ranks[ev.Rank] = true
		small := ev.Length < env.Hyper.RPCSize
		if small {
			r.SmallOps++
			r.SmallBytes += ev.Length
		}
		if ev.Length < env.Hyper.StripeSize {
			r.TinyOps++
		}
		id := refStreamID{ev.FileName, ev.Rank, ev.Op}
		if seen[id] && small && ev.Offset == prevEnd[id] {
			r.ConsecSmall++
		}
		seen[id] = true
		prevEnd[id] = ev.Offset + ev.Length
	}
	r.SmallShare = share(r.SmallOps, r.TotalOps)
	r.TinyShare = share(r.TinyOps, r.TotalOps)
	r.VolumeShare = share(r.SmallBytes, r.TotalBytes)
	r.ConsecShare = share(r.ConsecSmall, r.SmallOps)
	r.AggPotential = r.ConsecSmall
	if len(ranks) > 0 {
		r.PerRankSmall = float64(r.SmallOps) / float64(len(ranks))
	}
	return r, nil
}

func refPattern(env *Env) (PatternReport, error) {
	evs, err := refEvents(env)
	if err != nil {
		return PatternReport{}, err
	}
	var r PatternReport
	prevEnd := map[refStreamID]int64{}
	prevStart := map[refStreamID]int64{}
	prevLen := map[refStreamID]int64{}
	seen := map[refStreamID]bool{}
	randPerRank := map[int64]int64{}
	for _, ev := range evs {
		r.TotalBytes += ev.Length
		if ev.Op == "read" {
			r.Reads++
		}
		id := refStreamID{ev.FileName, ev.Rank, ev.Op}
		if seen[id] {
			r.Classified++
			switch {
			case ev.Offset == prevEnd[id]:
				r.Consecutive++
			case ev.Offset == prevStart[id] && ev.Length == prevLen[id]:
				r.Repeats++
			case ev.Offset > prevEnd[id]:
				r.ForwardJumps++
				r.RandomOps++
				r.RandomBytes += ev.Length
				randPerRank[ev.Rank]++
				if ev.Op == "read" {
					r.RandomReads++
				}
			default:
				r.BackwardJumps++
				r.RandomOps++
				r.RandomBytes += ev.Length
				randPerRank[ev.Rank]++
				if ev.Op == "read" {
					r.RandomReads++
				}
			}
		}
		seen[id] = true
		prevEnd[id] = ev.Offset + ev.Length
		prevStart[id] = ev.Offset
		prevLen[id] = ev.Length
	}
	r.NonContig = r.ForwardJumps + r.BackwardJumps
	r.ConsecShare = share(r.Consecutive, r.Classified)
	r.NonContigShare = share(r.NonContig, r.Classified)
	r.BackwardShare = share(r.BackwardJumps, r.Classified)
	r.RandomVolumeShare = share(r.RandomBytes, r.TotalBytes)
	r.RandomReadShare = share(r.RandomReads, r.Reads)
	if len(randPerRank) > 0 {
		var sum int64
		for _, v := range randPerRank {
			sum += v
		}
		r.PerRankRandomMean = float64(sum) / float64(len(randPerRank))
	}
	return r, nil
}

func refSharedFile(env *Env) (SharedFileReport, error) {
	evs, err := refEvents(env)
	if err != nil {
		return SharedFileReport{}, err
	}
	r := SharedFileReport{StripeSize: env.Hyper.StripeSize}
	type stripeKey struct {
		file   string
		stripe int64
	}
	ranksPerFile := map[string]map[int64]bool{}
	writersPerStripe := map[stripeKey]map[int64]bool{}
	stripes := map[stripeKey]bool{}
	type interval struct {
		rank  int64
		end   float64
		write bool
	}
	lastOnStripe := map[stripeKey]interval{}

	for _, ev := range evs {
		if ranksPerFile[ev.FileName] == nil {
			ranksPerFile[ev.FileName] = map[int64]bool{}
		}
		ranksPerFile[ev.FileName][ev.Rank] = true
		first := ev.Offset / r.StripeSize
		last := (ev.Offset + max64(ev.Length, 1) - 1) / r.StripeSize
		for s := first; s <= last; s++ {
			k := stripeKey{ev.FileName, s}
			stripes[k] = true
			if ev.Op == "write" {
				if writersPerStripe[k] == nil {
					writersPerStripe[k] = map[int64]bool{}
				}
				writersPerStripe[k][ev.Rank] = true
			}
			if prev, ok := lastOnStripe[k]; ok && prev.rank != ev.Rank && ev.Start < prev.end &&
				(prev.write || ev.Op == "write") {
				r.OverlapEvents++
			}
			if cur, ok := lastOnStripe[k]; !ok || ev.End > cur.end {
				lastOnStripe[k] = interval{rank: ev.Rank, end: ev.End, write: ev.Op == "write"}
			}
		}
		if ev.Op == "write" {
			r.WriteOps++
		}
	}
	for file, ranks := range ranksPerFile {
		if len(ranks) > 1 {
			r.SharedFiles++
		}
		if len(ranks) > r.MaxRanks || len(ranks) == r.MaxRanks && file < r.BusiestFile {
			r.MaxRanks = len(ranks)
			r.BusiestFile = file
		}
	}
	conflict := map[stripeKey]bool{}
	for k, writers := range writersPerStripe {
		if len(writers) > 1 {
			conflict[k] = true
			r.ConflictStripes++
		}
	}
	r.StripesTouched = int64(len(stripes))
	r.ConflictShare = share(r.ConflictStripes, r.StripesTouched)
	for _, ev := range evs {
		if ev.Op != "write" {
			continue
		}
		first := ev.Offset / r.StripeSize
		last := (ev.Offset + max64(ev.Length, 1) - 1) / r.StripeSize
		for s := first; s <= last; s++ {
			if conflict[stripeKey{ev.FileName, s}] {
				r.WritesOnShared++
				break
			}
		}
	}
	r.WritesOnSharedShare = share(r.WritesOnShared, r.WriteOps)
	return r, nil
}

// synthEvent is one row of a synthetic DXT table.
type synthEvent struct {
	file   string
	rank   int64
	op     string
	offset int64
	length int64
	start  float64
	end    float64
}

// synthEnv builds an Env over a DXT table with the extractor's columns.
func synthEnv(t *testing.T, stripe int64, evs []synthEvent) *Env {
	t.Helper()
	tab := table.New(extractor.TableDXT, []string{
		"file_id", "file_name", "module", "rank", "op",
		"segment", "offset", "length", "start", "end", "osts",
	})
	for i, ev := range evs {
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		row := []string{"1", ev.file, "X_POSIX", strconv.FormatInt(ev.rank, 10), ev.op,
			strconv.Itoa(i), strconv.FormatInt(ev.offset, 10), strconv.FormatInt(ev.length, 10),
			f(ev.start), f(ev.end), "0"}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	hyper := knowledge.DefaultHyperparams()
	hyper.StripeSize = stripe
	return NewEnv(&extractor.Output{Tables: map[string]*table.Table{extractor.TableDXT: tab}}, hyper)
}

// multiFileTie has three files with two ranks each, first seen in an
// order that is not lexical, and stripes written by one rank, by two
// ranks at once, and read concurrently.
var multiFileTie = []synthEvent{
	{"/b", 1, "write", 0, 100, 0, 2},
	{"/b", 2, "write", 50, 100, 1, 3}, // same stripe, other rank, overlapping
	{"/c", 3, "write", 0, 1000, 0, 1},
	{"/a", 0, "read", 0, 10, 0, 5},
	{"/a", 4, "read", 5, 10, 1, 2}, // concurrent reads: benign
	{"/c", 5, "read", 990, 20, 0.5, 1.5},
	{"/b", 1, "write", 150, 10, 4, 5},
	{"/a", 0, "write", 300, 0, 6, 7}, // zero-length write still touches a stripe
}

// randomEvents draws a small trace whose accesses collide often: few
// files, ranks and stripes, overlapping times, some multi-stripe spans.
func randomEvents(rng *rand.Rand) []synthEvent {
	files := []string{"/r/x", "/r/y", "/r/z"}
	evs := make([]synthEvent, 20+rng.Intn(200))
	for i := range evs {
		start := float64(rng.Intn(50)) / 10
		evs[i] = synthEvent{
			file:   files[rng.Intn(1+rng.Intn(len(files)))],
			rank:   int64(rng.Intn(5)),
			op:     []string{"read", "write"}[rng.Intn(2)],
			offset: int64(rng.Intn(16)) * 64,
			length: int64(rng.Intn(4)) * int64(1+rng.Intn(300)),
			start:  start,
			end:    start + float64(rng.Intn(30))/10,
		}
	}
	return evs
}

// TestReportsMatchReference compares every field of the SmallIO,
// Pattern and SharedFile reports with the string-keyed references, on
// every bundled family, a synthetic multi-file tie, and random traces.
func TestReportsMatchReference(t *testing.T) {
	type tcase struct {
		name string
		env  func(*testing.T) *Env
	}
	var cases []tcase
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		name := w.Name
		cases = append(cases, tcase{name, func(t *testing.T) *Env { return envFor(t, name) }})
	}
	cases = append(cases, tcase{"multi-file-tie", func(t *testing.T) *Env { return synthEnv(t, 128, multiFileTie) }})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 25; i++ {
		evs := randomEvents(rng)
		cases = append(cases, tcase{fmt.Sprintf("random-%d", i), func(t *testing.T) *Env { return synthEnv(t, 256, evs) }})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := c.env(t)
			small, err := SmallIO(env)
			if err != nil {
				t.Fatal(err)
			}
			wantSmall, err := refSmallIO(env)
			if err != nil {
				t.Fatal(err)
			}
			if small != wantSmall {
				t.Errorf("SmallIO:\n got %+v\nwant %+v", small, wantSmall)
			}
			pat, err := Pattern(env)
			if err != nil {
				t.Fatal(err)
			}
			wantPat, err := refPattern(env)
			if err != nil {
				t.Fatal(err)
			}
			if pat != wantPat {
				t.Errorf("Pattern:\n got %+v\nwant %+v", pat, wantPat)
			}
			sf, err := SharedFile(env)
			if err != nil {
				t.Fatal(err)
			}
			wantSF, err := refSharedFile(env)
			if err != nil {
				t.Fatal(err)
			}
			if sf != wantSF {
				t.Errorf("SharedFile:\n got %+v\nwant %+v", sf, wantSF)
			}
		})
	}
}

// TestSharedFileTieBreak pins the synthetic trace's report: the three
// files tie at two ranks, so the lexically first is the busiest.
func TestSharedFileTieBreak(t *testing.T) {
	r, err := SharedFile(synthEnv(t, 128, multiFileTie))
	if err != nil {
		t.Fatal(err)
	}
	want := SharedFileReport{
		SharedFiles:         3,
		MaxRanks:            2,
		BusiestFile:         "/a",
		StripesTouched:      12, // /b: 0–1, /c: 0–7, /a: 0 and 2 (the empty write at 300)
		ConflictStripes:     2,  // /b stripes 0 and 1: ranks 1 and 2 both write
		OverlapEvents:       2,  // /b stripe 0: rank 2's write; /c stripe 7: rank 5's read
		WriteOps:            5,
		WritesOnShared:      3, // the three writes to /b
		StripeSize:          128,
		ConflictShare:       2.0 / 12,
		WritesOnSharedShare: 3.0 / 5,
	}
	if r != want {
		t.Errorf("SharedFile:\n got %+v\nwant %+v", r, want)
	}
}
