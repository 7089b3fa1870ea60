package darshan

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// feedStream writes data to a StreamParser in uneven pieces so cuts
// land at arbitrary positions relative to lines and chunk boundaries.
func feedStream(t *testing.T, sp *StreamParser, data []byte, piece int) {
	t.Helper()
	for off := 0; off < len(data); off += piece {
		end := off + piece
		if end > len(data) {
			end = len(data)
		}
		if _, err := sp.Write(data[off:end]); err != nil {
			t.Fatalf("Write at %d: %v", off, err)
		}
	}
}

func TestStreamParserMatchesSequential(t *testing.T) {
	text, _ := syntheticText(t, 60)
	seq, err := ParseText(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, piece := range []int{7, 1021, 64 << 10} {
		sp := NewStreamParser(StreamOptions{Workers: 3, segBytes: 8 << 10})
		feedStream(t, sp, text, piece)
		log, segs, err := sp.Finish()
		if err != nil {
			t.Fatalf("piece %d: %v", piece, err)
		}
		if data := bytes.Join(segs, nil); !bytes.Equal(data, text) {
			t.Fatalf("piece %d: reassembled body differs (%d vs %d bytes)", piece, len(data), len(text))
		}
		if got, want := render(t, log), render(t, seq); !bytes.Equal(got, want) {
			t.Fatalf("piece %d: streamed parse diverged from sequential", piece)
		}
		if sp.Shards() < 2 {
			t.Fatalf("piece %d: expected multiple shards, got %d", piece, sp.Shards())
		}
		if sp.EarlyShards() == 0 {
			t.Fatalf("piece %d: no shard was dispatched during upload", piece)
		}
	}
}

func TestStreamParserErrorMatchesSequential(t *testing.T) {
	good, _ := syntheticText(t, 20)
	data := append(append([]byte{}, good...), []byte("POSIX\tbad\t42\tPOSIX_OPENS\t3\t/f\t/\ttmpfs\n")...)
	_, seqErr := ParseText(bytes.NewReader(data))
	if seqErr == nil {
		t.Fatal("sequential parse unexpectedly succeeded")
	}
	sp := NewStreamParser(StreamOptions{Workers: 2, segBytes: 4 << 10})
	for off := 0; off < len(data); off += 911 {
		end := off + 911
		if end > len(data) {
			end = len(data)
		}
		if _, err := sp.Write(data[off:end]); err != nil {
			break // early failure notice is allowed; Finish has the real error
		}
	}
	_, segs, err := sp.Finish()
	if err == nil {
		t.Fatal("streamed parse unexpectedly succeeded")
	}
	if err.Error() != seqErr.Error() {
		t.Fatalf("error mismatch:\nsequential: %v\nstreamed:   %v", seqErr, err)
	}
	if !bytes.Equal(bytes.Join(segs, nil), data) {
		t.Fatal("Finish did not return the full body alongside the error")
	}
}

func TestStreamParserEmpty(t *testing.T) {
	sp := NewStreamParser(StreamOptions{})
	log, segs, err := sp.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 || len(log.Modules) != 0 || len(log.DXT) != 0 {
		t.Fatalf("empty stream produced segments=%d modules=%d dxt=%d", len(segs), len(log.Modules), len(log.DXT))
	}
}

// TestStreamParserBackpressure forces the single parse worker to stall
// until the backpressure hook fires, proving Write blocks — and
// reports it — when parsing falls behind the upload.
func TestStreamParserBackpressure(t *testing.T) {
	text, _ := syntheticText(t, 40)
	gate := make(chan struct{})
	var stalls int
	sp := NewStreamParser(StreamOptions{
		Workers:  1,
		segBytes: 2 << 10,
		OnShard: func(shard int, chunk []byte) func(error) {
			if shard == 0 {
				<-gate // hold the only worker until backpressure is observed
			}
			return nil
		},
		OnBackpressure: func() {
			if stalls == 0 {
				close(gate)
			}
			stalls++
		},
	})
	feedStream(t, sp, text, 4<<10)
	log, _, err := sp.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stalls == 0 {
		t.Fatal("backpressure hook never fired")
	}
	if len(log.Modules) == 0 {
		t.Fatal("parse produced no modules")
	}
}

// TestSegmentBytes pins the segment rule: a body of known size gets one
// segment per worker plus 4 KiB for the partial line each cut carries,
// clamped to [256 KiB, 1 MiB]; a body of unknown size gets 1 MiB.
func TestSegmentBytes(t *testing.T) {
	for _, tc := range []struct {
		size    int64
		workers int
		want    int
	}{
		{800 << 10, 1, 800<<10 + 4<<10},
		{800 << 10, 2, 400<<10 + 4<<10},
		{800 << 10, 4, 256 << 10}, // 204 KiB per worker: the floor
		{3 << 20, 4, 768<<10 + 4<<10},
		{10 << 20, 1, 1 << 20}, // the ceiling
		{10 << 20, 4, 1 << 20},
		{722312, 2, 365252},
		{0, 2, 1 << 20}, // unknown
		{-1, 4, 1 << 20},
	} {
		if got := segmentBytes(tc.size, tc.workers); got != tc.want {
			t.Errorf("segmentBytes(%d, %d) = %d, want %d", tc.size, tc.workers, got, tc.want)
		}
	}

	// The slack keeps a 722,312-byte body at two workers in two shards:
	// the first cut carries a partial line into the second segment,
	// which the body's remaining bytes then do not fill.
	body, _ := syntheticText(t, 100)
	for len(body) < 722312-64 {
		body = append(body, "# metadata: pad = 0\n"...)
	}
	tail := "# metadata: tail = "
	body = append(body, tail+strings.Repeat("x", 722312-len(body)-len(tail)-1)+"\n"...)
	if len(body) != 722312 {
		t.Fatalf("body is %d bytes", len(body))
	}
	sp := NewStreamParser(StreamOptions{Workers: 2, Size: int64(len(body))})
	feedStream(t, sp, body, 64<<10)
	if _, _, err := sp.Finish(); err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 2 {
		t.Fatalf("%d shards, want 2", sp.Shards())
	}
}

// TestLineLengthLimit: ParseText and the stream parser, at the service's
// segment size and at tiny segments, accept a line of maxLineBytes and
// reject one a byte longer at that line's position, even with valid
// lines after it; the stream parser takes no bytes past that line.
func TestLineLengthLimit(t *testing.T) {
	head := "# nprocs: 1\nPOSIX\t0\t42\tPOSIX_OPENS\t3\t/f\t/\ttmpfs\n"
	tail := "POSIX\t0\t42\tPOSIX_READS\t1\t/f\t/\ttmpfs\n"
	for _, n := range []int{maxLineBytes, maxLineBytes + 1} {
		body := []byte(head + "# " + strings.Repeat("x", n-2) + "\n" + tail)
		_, seqErr := ParseText(bytes.NewReader(body))
		want := ""
		if n > maxLineBytes {
			want = fmt.Sprintf("darshan: line 3 (byte %d): line too long", len(head))
		}
		if got := errText(seqErr); got != want {
			t.Fatalf("%d-byte line: ParseText error %q, want %q", n, got, want)
		}
		for name, opts := range map[string]StreamOptions{
			"sized":   {Workers: 2, Size: int64(len(body))},
			"24-byte": {Workers: 2, segBytes: 24},
		} {
			sp := NewStreamParser(opts)
			written, werr := sp.Write(body)
			_, segs, err := sp.Finish()
			data := bytes.Join(segs, nil)
			if got := errText(err); got != want {
				t.Fatalf("%d-byte line, %s segments: error %q, want %q", n, name, got, want)
			}
			if want != "" && (werr == nil || written > len(head)+maxLineBytes+1 || len(data) != written) {
				t.Fatalf("%d-byte line, %s segments: Write took %d bytes (err %v) and Finish returned %d; want it stopped at the line",
					n, name, written, werr, len(data))
			}
		}
	}
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
