package darshan

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// parallelAt parses data as shards cut at exactly the given byte
// offsets, dispatched straight to a StreamParser's pool, so tests
// control where boundaries land. Offsets must be increasing positions
// within data.
func parallelAt(data []byte, cuts ...int) (*Log, error) {
	sp := NewStreamParser(StreamOptions{Workers: 2})
	prev := 0
	for _, c := range append(cuts, len(data)) {
		sp.dispatch(data[prev:c], true)
		prev = c
	}
	log, _, err := sp.Finish()
	return log, err
}

// mustRenderEqual asserts that par parses data into a log that renders
// byte-identically to the sequential parse — the fixed-point property
// the merge guarantees.
func mustRenderEqual(t *testing.T, data []byte, par func() (*Log, error)) {
	t.Helper()
	seq, err := ParseText(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("sequential parse: %v", err)
	}
	got, err := par()
	if err != nil {
		t.Fatalf("parallel parse: %v", err)
	}
	want, have := render(t, seq), render(t, got)
	if !bytes.Equal(want, have) {
		t.Fatalf("parallel parse diverged from sequential:\n--- sequential ---\n%.2000s\n--- parallel ---\n%.2000s", want, have)
	}
}

// lineStart returns the offset of the line beginning with marker,
// which must occur in data.
func lineStart(t *testing.T, data []byte, marker string) int {
	t.Helper()
	i := bytes.Index(data, []byte(marker))
	if i < 0 {
		t.Fatalf("marker %q not found", marker)
	}
	return i
}

func TestParseTextParallelMatchesSequential(t *testing.T) {
	text, _ := syntheticText(t, 40)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		mustRenderEqual(t, text, func() (*Log, error) {
			return parseStreamed(text, StreamOptions{Workers: workers, segBytes: 512})
		})
	}
	// Default segment size: an input this small is one shard, which
	// must behave identically.
	mustRenderEqual(t, text, func() (*Log, error) {
		return ParseTextParallel(text, 8)
	})
}

func TestParseTextParallelRealSample(t *testing.T) {
	data, err := os.ReadFile("testdata/real_sample.txt")
	if err != nil {
		t.Skip("no testdata sample")
	}
	for _, seg := range []int{64, 256, 1024, 8192} {
		mustRenderEqual(t, data, func() (*Log, error) {
			return parseStreamed(data, StreamOptions{Workers: 4, segBytes: seg})
		})
	}
}

// TestParseTextParallelBoundaryEdges pins the exact boundary cases the
// merge must survive: a module table header exactly at a cut, a DXT
// block header exactly at a cut, a DXT block (and its rank header)
// split mid-block across shards, and a trailing record with no
// newline.
func TestParseTextParallelBoundaryEdges(t *testing.T) {
	text, _ := syntheticText(t, 12)

	t.Run("module header at boundary", func(t *testing.T) {
		cut := lineStart(t, text, "# POSIX module data")
		mustRenderEqual(t, text, func() (*Log, error) { return parallelAt(text, cut) })
	})
	t.Run("dxt header at boundary", func(t *testing.T) {
		cut := lineStart(t, text, "# DXT, file_id:")
		mustRenderEqual(t, text, func() (*Log, error) { return parallelAt(text, cut) })
	})
	t.Run("dxt block spans shards", func(t *testing.T) {
		// Cut in the middle of the event rows: the second shard opens
		// with headerless X_ rows that merge as orphans.
		first := lineStart(t, text, " X_POSIX")
		cut := first + bytes.Index(text[first:], []byte("\n X_POSIX")) + 1
		mid := cut + bytes.Index(text[cut:], []byte("\n X_POSIX")) + 1
		mustRenderEqual(t, text, func() (*Log, error) { return parallelAt(text, cut, mid) })
	})
	t.Run("rank header at boundary", func(t *testing.T) {
		cut := lineStart(t, text, "# DXT, rank:")
		mustRenderEqual(t, text, func() (*Log, error) { return parallelAt(text, cut) })
	})
	t.Run("trailing record no newline", func(t *testing.T) {
		trimmed := bytes.TrimRight(text, "\n")
		cut := lineStart(t, trimmed, "# DXT, file_id:")
		mustRenderEqual(t, trimmed, func() (*Log, error) { return parallelAt(trimmed, cut) })
	})
	t.Run("every small boundary", func(t *testing.T) {
		// Sweep a single cut across an interesting region (the
		// counter/DXT transition) line by line.
		region := lineStart(t, text, "# DXT_POSIX module data")
		for cut := region; cut < len(text) && cut < region+2000; cut += bytes.IndexByte(text[cut:], '\n') + 1 {
			mustRenderEqual(t, text, func() (*Log, error) { return parallelAt(text, cut) })
		}
	})
}

// TestParseErrorPosition pins the structured error contract: every
// parse failure carries a *ParseError locating the offending line by
// 1-based line number and byte offset.
func TestParseErrorPosition(t *testing.T) {
	input := "# nprocs: 2\nPOSIX\t0\t42\tPOSIX_OPENS\t3\t/f\t/\ttmpfs\nPOSIX\tbad\t42\tPOSIX_OPENS\t3\t/f\t/\ttmpfs\n"
	_, err := ParseText(strings.NewReader(input))
	if err == nil {
		t.Fatal("want error for bad rank")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not carry a *ParseError", err)
	}
	wantOff := int64(len("# nprocs: 2\nPOSIX\t0\t42\tPOSIX_OPENS\t3\t/f\t/\ttmpfs\n"))
	if pe.Line != 3 || pe.Offset != wantOff {
		t.Fatalf("ParseError = line %d offset %d, want line 3 offset %d", pe.Line, pe.Offset, wantOff)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error text %q lacks position", err)
	}
}

// TestParseTextParallelErrorPositions asserts sharded parses report the
// same first error, at the same rebased position, as sequential ones.
func TestParseTextParallelErrorPositions(t *testing.T) {
	good, _ := syntheticText(t, 8)
	cases := map[string][]byte{
		"bad line in later shard": append(append([]byte{}, good...), []byte("POSIX\tbad\t42\tPOSIX_OPENS\t3\t/f\t/\ttmpfs\n")...),
		"orphan event at start":   []byte(" X_POSIX 0 write 0 0 8 0.1 0.2\nPOSIX\t0\t42\tPOSIX_OPENS\t3\t/f\t/\ttmpfs\n" + string(good)),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			_, seqErr := ParseText(bytes.NewReader(data))
			if seqErr == nil {
				t.Fatal("sequential parse unexpectedly succeeded")
			}
			_, parErr := parseStreamed(data, StreamOptions{Workers: 4, segBytes: 256})
			if parErr == nil {
				t.Fatal("parallel parse unexpectedly succeeded")
			}
			if seqErr.Error() != parErr.Error() {
				t.Fatalf("error mismatch:\nsequential: %v\nparallel:   %v", seqErr, parErr)
			}
		})
	}
}

// TestParseErrorsQuoteAPrefix: an error quotes at most a prefix of the
// offending field or line, and wraps strconv's cause rather than its
// *NumError, so a 4 MiB bad field or malformed line gives an error
// under 1 KiB, at the line's position, from the sequential and the
// sharded parse alike.
func TestParseErrorsQuoteAPrefix(t *testing.T) {
	head := "# nprocs: 1\n"
	huge := strings.Repeat("9x", 2<<20)
	for name, tc := range map[string]struct {
		line  string
		cause error
	}{
		"bad counter value": {"POSIX\t0\t42\tPOSIX_OPENS\t" + huge + "\t/f\t/\ttmpfs\n", strconv.ErrSyntax},
		"rank out of range": {"POSIX\t" + strings.Repeat("9", 4<<20) + "\t42\tPOSIX_OPENS\t3\n", strconv.ErrRange},
		"malformed line":    {"POSIX" + huge + "\n", nil},
	} {
		t.Run(name, func(t *testing.T) {
			data := []byte(head + tc.line + "POSIX\t0\t42\tPOSIX_READS\t1\t/f\t/\ttmpfs\n")
			_, seqErr := ParseText(bytes.NewReader(data))
			_, parErr := ParseTextParallel(data, 2)
			var pe *ParseError
			if !errors.As(seqErr, &pe) || pe.Line != 2 || pe.Offset != int64(len(head)) {
				t.Fatalf("ParseText: %.200v; want a *ParseError at line 2, byte %d", seqErr, len(head))
			}
			if n := len(seqErr.Error()); n >= 1<<10 {
				t.Fatalf("a %d-byte error: %.200s", n, seqErr)
			}
			if tc.cause != nil && !errors.Is(seqErr, tc.cause) {
				t.Fatalf("%v does not wrap %v", seqErr, tc.cause)
			}
			if parErr == nil || parErr.Error() != seqErr.Error() {
				t.Fatalf("error mismatch:\nsequential: %v\nparallel:   %.200v", seqErr, parErr)
			}
		})
	}
}

// TestParseTextParallelAllocBound holds the sharded path, at four
// shards, to no more than twice the sequential parser's per-line
// allocation budget (0.5): per-shard intern tables, scratch and segment
// buffers duplicate fixed costs, but the per-line fast path must stay
// allocation-free.
func TestParseTextParallelAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	text, lines := syntheticText(t, 200)
	opts := StreamOptions{Workers: 4, segBytes: len(text)/4 + 1<<10}
	sp := NewStreamParser(opts)
	feedStream(t, sp, text, len(text))
	if _, _, err := sp.Finish(); err != nil || sp.Shards() != 4 {
		t.Fatalf("%d shards (err %v), want 4", sp.Shards(), err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := parseStreamed(text, opts); err != nil {
			t.Fatal(err)
		}
	})
	perLine := avg / float64(lines)
	t.Logf("ParseTextParallel(4): %.0f allocs over %d lines (%.3f allocs/line)", avg, lines, perLine)
	if perLine > 1.0 {
		t.Errorf("sharded parse allocates %.3f per line (%.0f total), want ≤ 1.0 (2× sequential budget)", perLine, avg)
	}
}

func TestParseTextParallelOnShard(t *testing.T) {
	text, _ := syntheticText(t, 40)
	var started, finished atomic.Int32
	_, err := parseStreamed(text, StreamOptions{
		Workers:  2,
		segBytes: len(text)/2 + 1<<10,
		OnShard: func(shard int, chunk []byte) func(error) {
			started.Add(1)
			if len(chunk) == 0 {
				t.Errorf("shard %d got empty chunk", shard)
			}
			return func(err error) {
				if err != nil {
					t.Errorf("shard %d: %v", shard, err)
				}
				finished.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != 2 || finished.Load() != 2 {
		t.Fatalf("OnShard fired %d/%d times, want 2/2", started.Load(), finished.Load())
	}
}
