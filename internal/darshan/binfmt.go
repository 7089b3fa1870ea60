package darshan

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// The binary container emulates a .darshan file: a short uncompressed
// magic+version preamble followed by a gzip-compressed body holding the
// header, name and mount tables, module records, and DXT traces. Real
// Darshan logs are likewise compressed region files; tools must unpack
// them (darshan-parser) before analysis, and our Extractor does the
// same through Load.

var binMagic = [8]byte{'D', 'S', 'H', 'N', 'B', 'I', 'N', '1'}

const binVersion uint16 = 1

// WriteBinary serializes the log into the binary container format.
func (l *Log) WriteBinary(w io.Writer) (err error) {
	if _, err = w.Write(binMagic[:]); err != nil {
		return fmt.Errorf("darshan: writing magic: %w", err)
	}
	if err = binary.Write(w, binary.LittleEndian, binVersion); err != nil {
		return fmt.Errorf("darshan: writing version: %w", err)
	}
	zw := gzip.NewWriter(w)
	defer func() {
		if cerr := zw.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("darshan: closing gzip stream: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(zw)
	enc := &binEncoder{w: bw}
	enc.header(l.Header)
	enc.names(l.Names)
	enc.mounts(l.Mounts)
	enc.modules(l)
	enc.dxt(l.DXT)
	if enc.err != nil {
		return fmt.Errorf("darshan: encoding log: %w", enc.err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("darshan: flushing log body: %w", err)
	}
	return nil
}

// ReadBinary deserializes a log from the binary container format. The
// caller must have consumed nothing from r.
func ReadBinary(r io.Reader) (*Log, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("darshan: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("darshan: bad magic %q: not a binary darshan log", magic[:])
	}
	var version uint16
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("darshan: reading version: %w", err)
	}
	if version != binVersion {
		return nil, fmt.Errorf("darshan: unsupported binary log version %d", version)
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("darshan: opening gzip stream: %w", err)
	}
	defer zr.Close()
	dec := &binDecoder{r: bufio.NewReaderSize(zr, 64<<10), interns: make(map[string]string, 128)}
	log := NewLog()
	dec.header(&log.Header)
	dec.names(log.Names)
	dec.mounts(&log.Mounts)
	dec.modules(log)
	dec.dxt(log)
	if dec.err != nil {
		return nil, fmt.Errorf("darshan: decoding log: %w", dec.err)
	}
	return log, nil
}

// WriteFile writes the log as a binary container at path.
func (l *Log) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("darshan: %w", err)
	}
	if err := l.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("darshan: closing %s: %w", path, err)
	}
	return nil
}

// Load opens a log file, auto-detecting the binary container format
// (by magic) and falling back to the darshan-parser text format.
func Load(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("darshan: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if IsBinary(br) {
		return ReadBinary(br)
	}
	return ParseText(br)
}

// IsBinary peeks at the head of br and reports whether it starts with
// the binary container's magic. It consumes nothing; a read error reads
// as not binary and is left for the caller's next read.
func IsBinary(br *bufio.Reader) bool {
	head, _ := br.Peek(len(binMagic))
	return bytes.Equal(head, binMagic[:])
}

// --- encoder ---

type binEncoder struct {
	w   *bufio.Writer
	err error
}

func (e *binEncoder) u16(v uint16) {
	if e.err != nil {
		return
	}
	e.err = binary.Write(e.w, binary.LittleEndian, v)
}

func (e *binEncoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	e.err = binary.Write(e.w, binary.LittleEndian, v)
}

func (e *binEncoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *binEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *binEncoder) str(s string) {
	e.u64(uint64(len(s)))
	if e.err != nil {
		return
	}
	_, e.err = e.w.WriteString(s)
}

func (e *binEncoder) header(h Header) {
	e.str(h.Version)
	e.str(h.Exe)
	e.i64(int64(h.UID))
	e.i64(h.JobID)
	e.i64(int64(h.NProcs))
	e.i64(h.StartTime)
	e.i64(h.EndTime)
	e.f64(h.RunTime)
	e.u64(uint64(len(h.Metadata)))
	for _, k := range sortedKeys(h.Metadata) {
		e.str(k)
		e.str(h.Metadata[k])
	}
}

func (e *binEncoder) names(names map[uint64]string) {
	ids := make([]uint64, 0, len(names))
	for id := range names {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.u64(uint64(len(ids)))
	for _, id := range ids {
		e.u64(id)
		e.str(names[id])
	}
}

func (e *binEncoder) mounts(ms []Mount) {
	e.u64(uint64(len(ms)))
	for _, m := range ms {
		e.str(m.Point)
		e.str(m.FSType)
	}
}

func (e *binEncoder) modules(l *Log) {
	names := l.ModuleNames()
	e.u64(uint64(len(names)))
	for _, name := range names {
		mod := l.Modules[name]
		e.str(name)
		recs := sortedRecords(mod)
		e.u64(uint64(len(recs)))
		for _, r := range recs {
			e.u64(r.FileID)
			e.i64(r.Rank)
			e.counterMapI(r.Counters)
			e.counterMapF(r.FCounters)
		}
	}
}

func (e *binEncoder) counterMapI(m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.i64(m[k])
	}
}

func (e *binEncoder) counterMapF(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.f64(m[k])
	}
}

func (e *binEncoder) dxt(traces []*DXTFileTrace) {
	e.u64(uint64(len(traces)))
	for _, t := range traces {
		e.u64(t.FileID)
		e.str(t.Hostname)
		e.u64(uint64(len(t.Events)))
		for _, ev := range t.Events {
			e.str(ev.Module)
			e.i64(ev.Rank)
			if ev.Op == OpWrite {
				e.u16(1)
			} else {
				e.u16(0)
			}
			e.i64(ev.Segment)
			e.i64(ev.Offset)
			e.i64(ev.Length)
			e.f64(ev.Start)
			e.f64(ev.End)
			e.u64(uint64(len(ev.OSTs)))
			for _, o := range ev.OSTs {
				e.i64(int64(o))
			}
		}
	}
}

// --- decoder ---

// binDecoder reads the body without allocating per field: fields are
// read in place from the buffered reader, repeated names (modules,
// counters, hostnames) are interned once per decode, and OST lists
// share one arena, as in the text parser.
type binDecoder struct {
	r        *bufio.Reader
	err      error
	interns  map[string]string // canonical copies of repeated names
	ostArena []int             // backing storage for DXTEvent.OSTs slices
}

// maxBinElems bounds decoded collection sizes to keep a corrupt or
// hostile length prefix from driving huge allocations.
const maxBinElems = 1 << 28

// maxBinPrealloc bounds the capacity reserved up front from a count
// prefix; a longer collection grows as its elements arrive.
const maxBinPrealloc = 1 << 16

// next returns the next n bytes of the body, in place in the reader's
// buffer and valid until the next read. A body that ends inside the
// field fails like io.ReadFull.
func (d *binDecoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > d.r.Size() {
		// Longer than the read buffer: only a pathological name.
		b := make([]byte, n)
		if _, d.err = io.ReadFull(d.r, b); d.err != nil {
			return nil
		}
		return b
	}
	b, err := d.r.Peek(n)
	if len(b) < n {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		d.err = err
		return nil
	}
	d.r.Discard(n)
	return b
}

func (d *binDecoder) u16() uint16 {
	if b := d.next(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *binDecoder) u64() uint64 {
	if b := d.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *binDecoder) i64() int64   { return int64(d.u64()) }
func (d *binDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *binDecoder) count(what string) int {
	n := d.u64()
	if d.err == nil && n > maxBinElems {
		d.err = fmt.Errorf("implausible %s count %d", what, n)
	}
	return int(n)
}

// str reads a length-prefixed string ("" once decoding has failed).
func (d *binDecoder) str() string { return string(d.next(d.count("string length"))) }

// name reads a length-prefixed string that repeats across the log
// (a module, counter or host name) and returns its canonical copy.
func (d *binDecoder) name() string {
	b := d.next(d.count("string length"))
	if s, ok := d.interns[string(b)]; ok {
		return s
	}
	s := string(b)
	d.interns[s] = s
	return s
}

func (d *binDecoder) header(h *Header) {
	h.Version = d.str()
	h.Exe = d.str()
	h.UID = int(d.i64())
	h.JobID = d.i64()
	h.NProcs = int(d.i64())
	h.StartTime = d.i64()
	h.EndTime = d.i64()
	h.RunTime = d.f64()
	n := d.count("metadata")
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		v := d.str()
		h.Metadata[k] = v
	}
}

func (d *binDecoder) names(names map[uint64]string) {
	n := d.count("name table")
	for i := 0; i < n && d.err == nil; i++ {
		id := d.u64()
		names[id] = d.str()
	}
}

func (d *binDecoder) mounts(ms *[]Mount) {
	n := d.count("mount table")
	for i := 0; i < n && d.err == nil; i++ {
		*ms = append(*ms, Mount{Point: d.str(), FSType: d.name()})
	}
}

func (d *binDecoder) modules(l *Log) {
	nmod := d.count("module")
	for i := 0; i < nmod && d.err == nil; i++ {
		name := d.name()
		mod := l.Module(name)
		nrec := d.count("record")
		for j := 0; j < nrec && d.err == nil; j++ {
			rec := NewRecord(d.u64(), d.i64())
			nc := d.count("counter")
			for k := 0; k < nc && d.err == nil; k++ {
				cname := d.name()
				rec.Counters[cname] = d.i64()
			}
			nf := d.count("fcounter")
			for k := 0; k < nf && d.err == nil; k++ {
				cname := d.name()
				rec.FCounters[cname] = d.f64()
			}
			mod.Records = append(mod.Records, rec)
		}
	}
}

func (d *binDecoder) dxt(l *Log) {
	nt := d.count("DXT trace")
	for i := 0; i < nt && d.err == nil; i++ {
		t := &DXTFileTrace{FileID: d.u64(), Hostname: d.name()}
		ne := d.count("DXT event")
		if ne > 0 && d.err == nil {
			t.Events = make([]DXTEvent, 0, min(ne, maxBinPrealloc))
		}
		for j := 0; j < ne && d.err == nil; j++ {
			var ev DXTEvent
			ev.Module = d.name()
			ev.Rank = d.i64()
			if d.u16() == 1 {
				ev.Op = OpWrite
			} else {
				ev.Op = OpRead
			}
			ev.Segment = d.i64()
			ev.Offset = d.i64()
			ev.Length = d.i64()
			ev.Start = d.f64()
			ev.End = d.f64()
			no := d.count("OST list")
			start := len(d.ostArena)
			for k := 0; k < no && d.err == nil; k++ {
				d.ostArena = append(d.ostArena, int(d.i64()))
			}
			if end := len(d.ostArena); end > start {
				ev.OSTs = d.ostArena[start:end:end]
			}
			t.Events = append(t.Events, ev)
		}
		l.DXT = append(l.DXT, t)
	}
}
