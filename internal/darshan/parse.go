package darshan

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unsafe"
)

// maxDXTPrealloc bounds how many events a single DXT header's
// write_count/read_count may preallocate, so a hostile header cannot
// request gigabytes from a few bytes of input. Larger traces simply
// fall back to append growth past this point.
const maxDXTPrealloc = 1 << 15

// maxLineBytes bounds a single input line, newline excluded; a longer
// line is rejected with a positioned errLineTooLong rather than buffered
// without limit.
const maxLineBytes = 16 * 1024 * 1024

// errLineTooLong reports a line longer than maxLineBytes.
var errLineTooLong = errors.New("line too long")

// quoteBytes bounds how much of an offending field or line an error
// quotes.
const quoteBytes = 64

// ParseError locates a parse failure in the input: Line is 1-based,
// Offset is the byte offset of the start of the offending line. All
// errors returned by ParseText and by the stream parser (which
// ParseTextParallel is) carry a *ParseError in their chain.
type ParseError struct {
	Line   int
	Offset int64
	Err    error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("darshan: line %d (byte %d): %v", e.Line, e.Offset, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

func posErr(line int, off int64, err error) error {
	return &ParseError{Line: line, Offset: off, Err: err}
}

// errOrphanEvent mirrors the sequential parser's message for a DXT
// event row seen before any "# DXT, file_id" header established the
// current file trace.
var errOrphanEvent = errors.New("DXT event before DXT file header")

// Header-field assignment bits. A shard records which header fields its
// chunk explicitly set so the merge can replay last-writer-wins
// semantics without confusing defaults for assignments.
const (
	hdrVersion = 1 << iota
	hdrExe
	hdrUID
	hdrJobID
	hdrStartTime
	hdrEndTime
	hdrNProcs
	hdrRunTime
)

// parser carries the per-parse state that lets ParseText run without
// allocating per line: an intern table for repeated names, a mount-point
// set replacing the old O(mounts) scan, an index over DXT file traces,
// field-cut scratch buffers, and an arena for OST lists.
//
// The same machine parses one shard of a sharded or streamed parse; the
// extra bookkeeping below (headerSet, mountKind, hostSet, orphan state)
// records exactly the facts the deterministic merge in shard.go needs
// to replay sequential semantics across chunk boundaries.
type parser struct {
	log      *Log
	interns  map[string]string
	mounts   map[string]struct{}
	dxtIdx   map[uint64]*DXTFileTrace
	dxtTrace *DXTFileTrace
	dxtRank  int64

	// Memo of the last counter line's (module, file, rank) so runs of
	// lines for the same record skip the map lookups entirely.
	lastMod *Module
	lastRec *Record

	headerSet uint32          // hdr* bits for fields this chunk assigned
	mountKind []bool          // parallel to log.Mounts; true = explicit "# mount entry:"
	hostSet   map[uint64]bool // file ids whose Hostname this chunk assigned

	// Orphan state: a shard other than the first may legally open with
	// DXT event rows (and a rank/hostname header) that belong to a file
	// trace declared in an earlier chunk. They are collected here and
	// reattached during merge; only if no earlier chunk has a current
	// trace does the merge report errOrphanEvent at orphanLine/orphanOff.
	allowOrphan   bool
	orphans       []DXTEvent
	orphanLine    int
	orphanOff     int64
	orphanHost    string
	orphanHostSet bool

	fields   [][]byte // tab/space field-cut scratch
	kvKeys   [][]byte // DXT comment attribute scratch
	kvVals   [][]byte
	ostArena []int // backing storage for DXTEvent.OSTs slices
}

func newParser(allowOrphan bool) *parser {
	return &parser{
		log:         NewLog(),
		interns:     make(map[string]string, 128),
		mounts:      make(map[string]struct{}, 8),
		dxtIdx:      make(map[uint64]*DXTFileTrace, 8),
		hostSet:     make(map[uint64]bool, 4),
		allowOrphan: allowOrphan,
	}
}

// ParseText reads a log in the darshan-parser text format produced by
// WriteText, optionally followed by a darshan-dxt-parser section as
// produced by WriteDXTText, and reconstructs the Log. Unknown counters
// are preserved verbatim; unknown comment lines are ignored, matching
// the tolerance of the reference tooling. Errors carry a *ParseError
// with the 1-based line number and byte offset of the failing line.
func ParseText(r io.Reader) (*Log, error) {
	p := newParser(false)
	br := bufio.NewReaderSize(r, 64*1024)
	var (
		off    int64
		lineno int
		spill  []byte // reassembly buffer for lines longer than the reader
	)
	for {
		raw, err := br.ReadSlice('\n')
		if len(raw) == 0 && err == io.EOF {
			break
		}
		lineno++
		lineStart := off
		line := raw
		if err == bufio.ErrBufferFull {
			spill = append(spill[:0], raw...)
			for err == bufio.ErrBufferFull && len(spill) <= maxLineBytes {
				raw, err = br.ReadSlice('\n')
				spill = append(spill, raw...)
			}
			if len(bytes.TrimSuffix(spill, []byte{'\n'})) > maxLineBytes {
				return nil, posErr(lineno, lineStart, errLineTooLong)
			}
			line = spill
		}
		off += int64(len(line))
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("darshan: reading log: %w", err)
		}
		if perr := p.parseLine(line, lineno, lineStart); perr != nil {
			return nil, perr
		}
		if err == io.EOF {
			break
		}
	}
	return p.finish(), nil
}

// finish applies the end-of-parse pass (event ordering) and returns the
// log. Shard parses must not call this: merged traces are sorted once
// after concatenation so ties keep their input order.
func (p *parser) finish() *Log {
	for _, t := range p.log.DXT {
		t.SortByStart()
	}
	return p.log
}

// parseLine dispatches one raw line (trailing newline optional). lineno
// and off locate the line within this parser's input for error reports;
// shard parses use chunk-local positions that the merge rebases.
func (p *parser) parseLine(raw []byte, lineno int, off int64) error {
	line := bytes.TrimSpace(raw)
	if len(line) == 0 {
		return nil
	}
	if line[0] == '#' {
		if err := p.parseComment(line); err != nil {
			return posErr(lineno, off, err)
		}
		return nil
	}
	// Data row: either a counter record line (tab separated) or a
	// DXT event line (space aligned, module starts with "X_").
	if len(line) >= 2 && line[0] == 'X' && line[1] == '_' {
		if p.dxtTrace == nil {
			if !p.allowOrphan {
				return posErr(lineno, off, errOrphanEvent)
			}
			if len(p.orphans) == 0 {
				p.orphanLine, p.orphanOff = lineno, off
			}
		}
		if err := p.parseDXTEventLine(line); err != nil {
			return posErr(lineno, off, err)
		}
		return nil
	}
	if err := p.parseCounterLine(line); err != nil {
		return posErr(lineno, off, err)
	}
	return nil
}

// parseChunk feeds every line of data to parseLine using chunk-local
// positions starting at line 1, offset 0. It returns the number of
// lines consumed (newline-terminated segments plus any unterminated
// tail), which the merge uses to rebase later shards' positions.
func (p *parser) parseChunk(data []byte) (lines int, err error) {
	var pos int
	for pos < len(data) {
		raw := data[pos:]
		advance := len(raw)
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i]
			advance = i + 1
		}
		lines++
		if len(raw) > maxLineBytes {
			return lines, posErr(lines, int64(pos), errLineTooLong)
		}
		if err := p.parseLine(raw, lines, int64(pos)); err != nil {
			return lines, err
		}
		pos += advance
	}
	return lines, nil
}

// bstr views b as a string without copying. The result aliases the
// scanner's buffer and must not be retained across Scan calls; it is
// only handed to strconv parse functions, which do not keep it.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// cutPrefix returns b without the leading prefix and whether it was
// present. The string(...) conversion in the comparison does not
// allocate.
func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix {
		return b[len(prefix):], true
	}
	return nil, false
}

// quote renders an offending field or line for an error message: in
// full when short, else its first quoteBytes bytes and its length, so
// an error stays small however long the input.
func quote(b []byte) string {
	if len(b) <= quoteBytes {
		return strconv.Quote(string(b))
	}
	return fmt.Sprintf("%q... (%d bytes)", b[:quoteBytes], len(b))
}

// badNum reports a field that did not parse as a number. It wraps
// strconv's cause (ErrSyntax or ErrRange) rather than its *NumError,
// whose text quotes the whole field again.
func badNum(what string, field []byte, err error) error {
	var ne *strconv.NumError
	if errors.As(err, &ne) {
		err = ne.Err
	}
	return fmt.Errorf("bad %s %s: %w", what, quote(field), err)
}

// intern returns the canonical string for b, copying it at most once
// per distinct value per parse. Module and counter names repeat for
// every record, so the N-records x M-counters map keys share storage.
func (p *parser) intern(b []byte) string {
	if s, ok := p.interns[string(b)]; ok {
		return s
	}
	s := string(b)
	p.interns[s] = s
	return s
}

// setName records the path for a file id, skipping the common case
// where the id already maps to the identical name.
func (p *parser) setName(id uint64, name []byte) {
	if cur, ok := p.log.Names[id]; ok && cur == string(name) {
		return
	}
	p.log.Names[id] = string(name)
}

// addMount appends an implicit mount entry (from a counter or DXT line)
// unless its mount point was already captured, using the set instead of
// scanning the slice per line.
func (p *parser) addMount(point, fsType []byte) {
	if _, dup := p.mounts[string(point)]; dup {
		return
	}
	pt := string(point)
	p.log.Mounts = append(p.log.Mounts, Mount{Point: pt, FSType: string(fsType)})
	p.mountKind = append(p.mountKind, false)
	p.mounts[pt] = struct{}{}
}

// dxtFor returns the trace for a file id via the parse-local index,
// falling back to (and populating) the log's lookup on first sight.
func (p *parser) dxtFor(id uint64) *DXTFileTrace {
	if t, ok := p.dxtIdx[id]; ok {
		return t
	}
	t := p.log.DXTForFile(id)
	p.dxtIdx[id] = t
	return t
}

func (p *parser) parseComment(line []byte) error {
	l := p.log
	body := bytes.TrimSpace(line[1:])
	if rest, ok := cutPrefix(body, "darshan log version:"); ok {
		l.Header.Version = string(bytes.TrimSpace(rest))
		p.headerSet |= hdrVersion
		return nil
	}
	if rest, ok := cutPrefix(body, "exe:"); ok {
		l.Header.Exe = string(bytes.TrimSpace(rest))
		p.headerSet |= hdrExe
		return nil
	}
	if rest, ok := cutPrefix(body, "uid:"); ok {
		rest = bytes.TrimSpace(rest)
		v, err := strconv.Atoi(bstr(rest))
		if err != nil {
			return badNum("uid", rest, err)
		}
		l.Header.UID = v
		p.headerSet |= hdrUID
		return nil
	}
	if rest, ok := cutPrefix(body, "jobid:"); ok {
		rest = bytes.TrimSpace(rest)
		v, err := strconv.ParseInt(bstr(rest), 10, 64)
		if err != nil {
			return badNum("jobid", rest, err)
		}
		l.Header.JobID = v
		p.headerSet |= hdrJobID
		return nil
	}
	if rest, ok := cutPrefix(body, "start_time:"); ok {
		rest = bytes.TrimSpace(rest)
		v, err := strconv.ParseInt(bstr(rest), 10, 64)
		if err != nil {
			return badNum("start_time", rest, err)
		}
		l.Header.StartTime = v
		p.headerSet |= hdrStartTime
		return nil
	}
	if rest, ok := cutPrefix(body, "end_time:"); ok {
		rest = bytes.TrimSpace(rest)
		v, err := strconv.ParseInt(bstr(rest), 10, 64)
		if err != nil {
			return badNum("end_time", rest, err)
		}
		l.Header.EndTime = v
		p.headerSet |= hdrEndTime
		return nil
	}
	if rest, ok := cutPrefix(body, "nprocs:"); ok {
		rest = bytes.TrimSpace(rest)
		v, err := strconv.Atoi(bstr(rest))
		if err != nil {
			return badNum("nprocs", rest, err)
		}
		l.Header.NProcs = v
		p.headerSet |= hdrNProcs
		return nil
	}
	if rest, ok := cutPrefix(body, "run time:"); ok {
		rest = bytes.TrimSpace(rest)
		v, err := strconv.ParseFloat(bstr(rest), 64)
		if err != nil {
			return badNum("run time", rest, err)
		}
		l.Header.RunTime = v
		p.headerSet |= hdrRunTime
		return nil
	}
	if rest, ok := cutPrefix(body, "metadata:"); ok {
		if i := bytes.IndexByte(rest, '='); i >= 0 {
			k := string(bytes.TrimSpace(rest[:i]))
			l.Header.Metadata[k] = string(bytes.TrimSpace(rest[i+1:]))
		}
		return nil
	}
	if rest, ok := cutPrefix(body, "mount entry:"); ok {
		p.fields = splitWS(p.fields[:0], rest)
		if len(p.fields) == 2 {
			// Mirror the historical behavior: explicit mount-table
			// entries append unconditionally, but still seed the dedup
			// set consulted by counter and DXT lines.
			pt := string(p.fields[0])
			l.Mounts = append(l.Mounts, Mount{Point: pt, FSType: string(p.fields[1])})
			p.mountKind = append(p.mountKind, true)
			p.mounts[pt] = struct{}{}
		}
		return nil
	}
	if rest, ok := cutPrefix(body, "DXT,"); ok {
		return p.parseDXTComment(rest)
	}
	return nil
}

// parseDXTComment handles one "# DXT, k: v, k: v" header line. The
// attribute pairs are collected into scratch slices and looked up by
// key, preserving the last-value-wins semantics of the old map build.
func (p *parser) parseDXTComment(rest []byte) error {
	p.kvKeys = p.kvKeys[:0]
	p.kvVals = p.kvVals[:0]
	for {
		i := bytes.IndexByte(rest, ',')
		part := rest
		if i >= 0 {
			part = rest[:i]
		}
		if j := bytes.IndexByte(part, ':'); j >= 0 {
			p.kvKeys = append(p.kvKeys, bytes.TrimSpace(part[:j]))
			p.kvVals = append(p.kvVals, bytes.TrimSpace(part[j+1:]))
		}
		if i < 0 {
			break
		}
		rest = rest[i+1:]
	}
	if idb, ok := p.attr("file_id"); ok {
		id, err := strconv.ParseUint(bstr(idb), 10, 64)
		if err != nil {
			return badNum("DXT file_id", idb, err)
		}
		p.dxtTrace = p.dxtFor(id)
		if nameb, ok := p.attr("file_name"); ok {
			p.setName(id, nameb)
		}
	}
	if rb, ok := p.attr("rank"); ok {
		r, err := strconv.ParseInt(bstr(rb), 10, 64)
		if err != nil {
			return badNum("DXT rank", rb, err)
		}
		p.dxtRank = r
		if hb, ok := p.attr("hostname"); ok {
			switch {
			case p.dxtTrace != nil:
				if p.dxtTrace.Hostname != string(hb) {
					p.dxtTrace.Hostname = string(hb)
				}
				p.hostSet[p.dxtTrace.FileID] = true
			case p.allowOrphan:
				// Rank header for a file trace opened in an earlier
				// chunk; the merge applies it to that trace.
				p.orphanHost = string(hb)
				p.orphanHostSet = true
			}
		}
	}
	if mb, ok := p.attr("mnt_pt"); ok {
		fsb, _ := p.attr("fs_type")
		p.addMount(mb, fsb)
	}
	if t := p.dxtTrace; t != nil {
		// Preallocate the event slice from the header's announced
		// segment counts so appends don't repeatedly regrow it.
		want := 0
		if wb, ok := p.attr("write_count"); ok {
			if n, err := strconv.ParseInt(bstr(wb), 10, 64); err == nil && n > 0 {
				want += int(n)
			}
		}
		if rb, ok := p.attr("read_count"); ok {
			if n, err := strconv.ParseInt(bstr(rb), 10, 64); err == nil && n > 0 {
				want += int(n)
			}
		}
		if want > maxDXTPrealloc {
			want = maxDXTPrealloc
		}
		if want > 0 && cap(t.Events)-len(t.Events) < want {
			// Grow by at least 2x so a long run of per-rank block
			// headers costs amortized-linear copying, not quadratic.
			newCap := len(t.Events) + want
			if c := 2 * cap(t.Events); c > newCap {
				newCap = c
			}
			grown := make([]DXTEvent, len(t.Events), newCap)
			copy(grown, t.Events)
			t.Events = grown
		}
	}
	return nil
}

// attr returns the value for key among the scratch attribute pairs,
// scanning backwards so duplicate keys resolve like map overwrites.
func (p *parser) attr(key string) ([]byte, bool) {
	for i := len(p.kvKeys) - 1; i >= 0; i-- {
		if string(p.kvKeys[i]) == key {
			return p.kvVals[i], true
		}
	}
	return nil, false
}

// parseCounterLine parses one tab-separated record line:
// module, rank, record id, counter, value, file name, mount pt, fs type.
func (p *parser) parseCounterLine(line []byte) error {
	fields := splitByte(p.fields[:0], line, '\t')
	p.fields = fields
	if len(fields) < 5 {
		return fmt.Errorf("malformed counter line %s", quote(line))
	}
	rank, err := strconv.ParseInt(bstr(fields[1]), 10, 64)
	if err != nil {
		return badNum("rank", fields[1], err)
	}
	fileID, err := strconv.ParseUint(bstr(fields[2]), 10, 64)
	if err != nil {
		return badNum("record id", fields[2], err)
	}
	if len(fields) >= 6 && len(fields[5]) > 0 {
		p.setName(fileID, fields[5])
	}
	if len(fields) >= 8 && len(fields[6]) > 0 {
		p.addMount(fields[6], fields[7])
	}
	mod := p.lastMod
	if mod == nil || string(fields[0]) != mod.Name {
		mod = p.log.Module(p.intern(fields[0]))
		p.lastMod = mod
		p.lastRec = nil
	}
	rec := p.lastRec
	if rec == nil || rec.FileID != fileID || rec.Rank != rank {
		rec = mod.Record(fileID, rank)
		p.lastRec = rec
	}
	counter, value := fields[3], fields[4]
	if isFloatCounter(bstr(counter)) {
		v, err := strconv.ParseFloat(bstr(value), 64)
		if err != nil {
			return badNum("float counter "+quote(counter)+" value", value, err)
		}
		rec.FCounters[p.intern(counter)] = v
		return nil
	}
	v, err := strconv.ParseInt(bstr(value), 10, 64)
	if err != nil {
		return badNum("counter "+quote(counter)+" value", value, err)
	}
	rec.Counters[p.intern(counter)] = v
	return nil
}

// isFloatCounter reports whether a counter name denotes a Darshan float
// counter. Darshan uses the "<MODULE>_F_" prefix convention.
func isFloatCounter(name string) bool {
	for i := 0; i+3 <= len(name); i++ {
		if name[i] == '_' && name[i+1] == 'F' && name[i+2] == '_' {
			return true
		}
	}
	return false
}

// parseDXTEventLine parses one fixed-width DXT event row, e.g.:
//
//	X_POSIX       0  write        0            0        2048      0.0001      0.0002  [0,1]
func (p *parser) parseDXTEventLine(line []byte) error {
	fields := splitWS(p.fields[:0], line)
	p.fields = fields
	if len(fields) < 8 {
		return fmt.Errorf("malformed DXT event %s", quote(line))
	}
	var ev DXTEvent
	ev.Module = p.intern(fields[0])
	var err error
	if ev.Rank, err = strconv.ParseInt(bstr(fields[1]), 10, 64); err != nil {
		return badNum("DXT rank", fields[1], err)
	}
	switch {
	case string(fields[2]) == "read":
		ev.Op = OpRead
	case string(fields[2]) == "write":
		ev.Op = OpWrite
	default:
		return fmt.Errorf("bad DXT op %s", quote(fields[2]))
	}
	if ev.Segment, err = strconv.ParseInt(bstr(fields[3]), 10, 64); err != nil {
		return badNum("DXT segment", fields[3], err)
	}
	if ev.Offset, err = strconv.ParseInt(bstr(fields[4]), 10, 64); err != nil {
		return badNum("DXT offset", fields[4], err)
	}
	if ev.Length, err = strconv.ParseInt(bstr(fields[5]), 10, 64); err != nil {
		return badNum("DXT length", fields[5], err)
	}
	if ev.Start, err = strconv.ParseFloat(bstr(fields[6]), 64); err != nil {
		return badNum("DXT start", fields[6], err)
	}
	if ev.End, err = strconv.ParseFloat(bstr(fields[7]), 64); err != nil {
		return badNum("DXT end", fields[7], err)
	}
	if len(fields) >= 9 {
		ost := bytes.Trim(fields[8], "[]")
		start := len(p.ostArena)
		for len(ost) > 0 {
			var s []byte
			if i := bytes.IndexByte(ost, ','); i >= 0 {
				s, ost = ost[:i], ost[i+1:]
			} else {
				s, ost = ost, nil
			}
			if len(s) == 0 {
				continue
			}
			o, err := strconv.Atoi(bstr(s))
			if err != nil {
				return badNum("DXT OST list", fields[8], err)
			}
			p.ostArena = append(p.ostArena, o)
		}
		if end := len(p.ostArena); end > start {
			ev.OSTs = p.ostArena[start:end:end]
		}
	}
	if p.dxtTrace != nil {
		p.dxtTrace.Events = append(p.dxtTrace.Events, ev)
	} else {
		p.orphans = append(p.orphans, ev)
	}
	return nil
}

// splitByte appends the sep-separated subslices of line to dst,
// including empty fields, matching strings.Split.
func splitByte(dst [][]byte, line []byte, sep byte) [][]byte {
	for {
		i := bytes.IndexByte(line, sep)
		if i < 0 {
			return append(dst, line)
		}
		dst = append(dst, line[:i])
		line = line[i+1:]
	}
}

// splitWS appends the whitespace-separated fields of line to dst,
// matching strings.Fields for ASCII input.
func splitWS(dst [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		j := i + 1
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		dst = append(dst, line[i:j])
		i = j
	}
	return dst
}

func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}
