package darshan

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
)

// render serializes a log the way the text pipeline does: counter
// section followed by the DXT section.
func render(tb testing.TB, l *Log) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := l.WriteText(&buf); err != nil {
		tb.Fatalf("WriteText: %v", err)
	}
	if err := l.WriteDXTText(&buf); err != nil {
		tb.Fatalf("WriteDXTText: %v", err)
	}
	return buf.Bytes()
}

// FuzzParseText asserts three properties over arbitrary input:
// ParseText never panics; any log it accepts round-trips through the
// text writer — parse(render(log)) renders back byte-identically once
// the first render has normalized formatting (rounded timestamps,
// truncated comma-bearing names in DXT comments); and the sharded
// parser agrees with the sequential one — same rendered log on
// success, same positioned error on failure — even when forced to cut
// tiny inputs into many 24-byte segments.
func FuzzParseText(f *testing.F) {
	if data, err := os.ReadFile("testdata/real_sample.txt"); err == nil {
		f.Add(data)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		f.Add(render(f, randomLog(rng)))
	}
	f.Add([]byte("# darshan log version: 3.41\n# nprocs: 2\nPOSIX\t0\t42\tPOSIX_OPENS\t3\t/f\t/\ttmpfs\n"))
	f.Add([]byte("# DXT, file_id: 9, file_name: /d\n# DXT, rank: 0, hostname: n1\nX_POSIX 0 write 0 0 8 0.1 0.2 [0,1]\n"))
	// Segmenter exercise: interleaved counter lines and a DXT block long
	// enough that small segments cut through the event rows, the rank
	// header, and the block header.
	f.Add([]byte("# nprocs: 2\n" +
		"POSIX\t0\t7\tPOSIX_OPENS\t1\t/a\t/\ttmpfs\n" +
		"POSIX\t1\t7\tPOSIX_OPENS\t2\t/a\t/\ttmpfs\n" +
		"# DXT, file_id: 7, file_name: /a\n" +
		"# DXT, rank: 0, hostname: n1\n" +
		"# DXT, write_count: 3, read_count: 1\n" +
		" X_POSIX 0 write 0 0 8 0.1 0.2\n" +
		" X_POSIX 0 write 1 8 8 0.2 0.3\n" +
		" X_POSIX 0 write 2 16 8 0.3 0.4\n" +
		" X_POSIX 0 read 0 0 8 0.4 0.5\n" +
		"# DXT, rank: 1, hostname: n2\n" +
		" X_POSIX 1 write 0 0 8 0.5 0.6\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ParseText(bytes.NewReader(data))
		plog, perr := parseStreamed(data, StreamOptions{Workers: 4, segBytes: 24})
		switch {
		case err == nil && perr != nil:
			t.Fatalf("sequential accepted what sharded rejected: %v", perr)
		case err != nil && perr == nil:
			t.Fatalf("sharded accepted what sequential rejected: %v", err)
		case err != nil:
			if err.Error() != perr.Error() {
				t.Fatalf("error divergence:\nsequential: %v\nsharded:    %v", err, perr)
			}
			return // rejected input is fine; panicking is not
		}
		if sr, pr := render(t, log), render(t, plog); !bytes.Equal(sr, pr) {
			t.Fatalf("sharded parse diverged from sequential:\n--- sequential ---\n%s\n--- sharded ---\n%s", sr, pr)
		}
		r1 := render(t, log)
		log2, err := ParseText(bytes.NewReader(r1))
		if err != nil {
			t.Fatalf("reparsing rendered log failed: %v\nrendered:\n%s", err, r1)
		}
		r2 := render(t, log2)
		log3, err := ParseText(bytes.NewReader(r2))
		if err != nil {
			t.Fatalf("reparsing second render failed: %v", err)
		}
		r3 := render(t, log3)
		if !bytes.Equal(r2, r3) {
			t.Fatalf("render/parse did not reach a fixed point:\n--- second render ---\n%s\n--- third render ---\n%s", r2, r3)
		}
	})
}

// FuzzReadBinary asserts that ReadBinary never panics on arbitrary
// bytes, and that any log it accepts round-trips through WriteBinary:
// the container written from the decoded log decodes, and writing that
// log again reproduces it byte for byte.
func FuzzReadBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if err := randomLog(rng).WriteBinary(&buf); err != nil {
			f.Fatalf("WriteBinary: %v", err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // body cut short
	}
	f.Add(append(binMagic[:], 1, 0)) // preamble without a body
	f.Add([]byte("# darshan log version: 3.41\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		var first bytes.Buffer
		if err := log.WriteBinary(&first); err != nil {
			t.Fatalf("WriteBinary of a decoded log: %v", err)
		}
		back, err := ReadBinary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding a written log: %v", err)
		}
		var second bytes.Buffer
		if err := back.WriteBinary(&second); err != nil {
			t.Fatalf("WriteBinary of the re-decoded log: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("the written log did not round-trip through ReadBinary")
		}
	})
}
