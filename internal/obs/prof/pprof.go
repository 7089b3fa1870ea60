// Package prof is ionserve's continuous profiler: always-on, low-
// overhead capture of rolling CPU profile windows (N seconds of every
// M) plus periodic heap/goroutine snapshots, decoded from the runtime's
// gzipped pprof protobuf into per-function sample tables and folded
// stacks, and journaled into a retention-bounded window store. The
// windows are evidence, read next to other evidence: the profile
// window an explained job overlapped, the windows an incident bundle
// carries, and a flamegraph of any window. No rule fires on them: a
// fixed threshold on one short window's shares fires on near-idle
// windows, where a handful of samples give one function the whole
// share.
//
// Like the rest of the telemetry layer the package is stdlib-only; the
// pprof wire format is decoded by a hand-rolled varint reader rather
// than a protobuf dependency.
package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// ValueType is one sample dimension of a profile: what the numbers
// mean ("cpu") and their unit ("nanoseconds").
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// ProfileSample is one decoded stack sample: the call stack (leaf
// first, as the wire format stores it) and one value per sample type.
type ProfileSample struct {
	// Stack holds function names, leaf first. Inlined frames are
	// expanded, innermost first, so the leaf attribution matches what
	// `go tool pprof` reports.
	Stack []string
	// Values holds one measurement per Profile.SampleTypes entry.
	Values []int64
}

// Profile is a decoded pprof profile: the subset of profile.proto the
// continuous profiler consumes (samples resolved to function names;
// mappings, addresses, and labels are parsed past, not retained).
type Profile struct {
	SampleTypes   []ValueType
	Samples       []ProfileSample
	TimeNanos     int64
	DurationNanos int64
	Period        int64
	PeriodType    ValueType
}

// ValueIndex returns the index of the sample type named typ, or -1.
func (p *Profile) ValueIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return -1
}

// DefaultValueIndex picks the conventional primary sample dimension:
// "cpu" (nanoseconds) for CPU profiles, "inuse_space" for heap
// profiles, falling back to the last sample type (the pprof default).
func (p *Profile) DefaultValueIndex() int {
	for _, typ := range []string{"cpu", "inuse_space"} {
		if i := p.ValueIndex(typ); i >= 0 {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// gzipMagic is the two-byte gzip header the runtime's pprof writer
// always emits with debug=0.
var gzipMagic = []byte{0x1f, 0x8b}

// Parse decodes a pprof profile as written by runtime/pprof with
// debug=0: an optionally-gzipped profile.proto message. Truncated or
// corrupt input returns an error; it never panics, so torn journal
// tails and half-written files degrade to a skipped record.
func Parse(data []byte) (*Profile, error) {
	if bytes.HasPrefix(data, gzipMagic) {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gzip header: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, 256<<20))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		data = raw
	}
	return parseProto(data)
}

// --- minimal protobuf wire-format reader -----------------------------

// errTruncated is the generic malformed-input error; the decoder cares
// only that decoding stops, not which byte offended.
var errTruncated = fmt.Errorf("prof: truncated or malformed protobuf")

// wire types of profile.proto fields (groups never appear).
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// pbuf is a cursor over an encoded message.
type pbuf struct {
	data []byte
	pos  int
}

func (b *pbuf) done() bool { return b.pos >= len(b.data) }

// varint reads one base-128 varint.
func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if b.pos >= len(b.data) {
			return 0, errTruncated
		}
		c := b.data[b.pos]
		b.pos++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errTruncated
}

// field reads the next field tag.
func (b *pbuf) field() (num int, wire int, err error) {
	tag, err := b.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(tag >> 3), int(tag & 7), nil
}

// bytes reads a length-delimited payload.
func (b *pbuf) bytes() ([]byte, error) {
	n, err := b.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b.data)-b.pos) {
		return nil, errTruncated
	}
	out := b.data[b.pos : b.pos+int(n)]
	b.pos += int(n)
	return out, nil
}

// skip advances past a field of the given wire type.
func (b *pbuf) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := b.varint()
		return err
	case wireI64:
		if len(b.data)-b.pos < 8 {
			return errTruncated
		}
		b.pos += 8
		return nil
	case wireBytes:
		_, err := b.bytes()
		return err
	case wireI32:
		if len(b.data)-b.pos < 4 {
			return errTruncated
		}
		b.pos += 4
		return nil
	}
	return errTruncated
}

// packedUints decodes a repeated integer field: either one varint
// (unpacked encoding) or a length-delimited run of varints (packed).
func packedUints(b *pbuf, wire int, out []uint64) ([]uint64, error) {
	if wire == wireVarint {
		v, err := b.varint()
		if err != nil {
			return out, err
		}
		return append(out, v), nil
	}
	if wire != wireBytes {
		return out, errTruncated
	}
	payload, err := b.bytes()
	if err != nil {
		return out, err
	}
	p := &pbuf{data: payload}
	for !p.done() {
		v, err := p.varint()
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

// --- profile.proto field numbers ------------------------------------

// rawValueType is ValueType before string-table resolution.
type rawValueType struct{ typ, unit int64 }

func parseValueType(data []byte) (rawValueType, error) {
	var vt rawValueType
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return vt, err
		}
		switch num {
		case 1: // type
			v, err := b.varint()
			if err != nil {
				return vt, err
			}
			vt.typ = int64(v)
		case 2: // unit
			v, err := b.varint()
			if err != nil {
				return vt, err
			}
			vt.unit = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return vt, err
			}
		}
	}
	return vt, nil
}

// rawSample is Sample before location resolution.
type rawSample struct {
	locs   []uint64
	values []int64
}

func parseSample(data []byte) (rawSample, error) {
	var s rawSample
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1: // location_id (repeated, possibly packed)
			s.locs, err = packedUints(b, wire, s.locs)
			if err != nil {
				return s, err
			}
		case 2: // value (repeated, possibly packed)
			var vals []uint64
			vals, err = packedUints(b, wire, nil)
			if err != nil {
				return s, err
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
		default:
			if err := b.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// rawLocation resolves to a list of function ids (innermost inline
// frame first, matching the Line ordering of the wire format).
type rawLocation struct {
	id      uint64
	funcIDs []uint64
}

func parseLocation(data []byte) (rawLocation, error) {
	var l rawLocation
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return l, err
		}
		switch num {
		case 1: // id
			v, err := b.varint()
			if err != nil {
				return l, err
			}
			l.id = v
		case 4: // line (repeated message)
			payload, err := b.bytes()
			if err != nil {
				return l, err
			}
			fid, err := parseLineFunc(payload)
			if err != nil {
				return l, err
			}
			l.funcIDs = append(l.funcIDs, fid)
		default:
			if err := b.skip(wire); err != nil {
				return l, err
			}
		}
	}
	return l, nil
}

func parseLineFunc(data []byte) (uint64, error) {
	b := &pbuf{data: data}
	var fid uint64
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return 0, err
		}
		if num == 1 { // function_id
			fid, err = b.varint()
			if err != nil {
				return 0, err
			}
			continue
		}
		if err := b.skip(wire); err != nil {
			return 0, err
		}
	}
	return fid, nil
}

// rawFunction maps a function id to its name string index.
type rawFunction struct {
	id   uint64
	name int64
}

func parseFunction(data []byte) (rawFunction, error) {
	var f rawFunction
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return f, err
		}
		switch num {
		case 1: // id
			v, err := b.varint()
			if err != nil {
				return f, err
			}
			f.id = v
		case 2: // name (string table index)
			v, err := b.varint()
			if err != nil {
				return f, err
			}
			f.name = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return f, err
			}
		}
	}
	return f, nil
}

// parseProto decodes the top-level Profile message and resolves
// samples to function-name stacks.
func parseProto(data []byte) (*Profile, error) {
	var (
		sampleTypes []rawValueType
		samples     []rawSample
		locations   = map[uint64][]uint64{} // location id → function ids
		functions   = map[uint64]int64{}    // function id → name index
		strings     []string
		periodType  rawValueType
		p           = &Profile{}
	)
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			payload, err := b.bytes()
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(payload)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			payload, err := b.bytes()
			if err != nil {
				return nil, err
			}
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4: // location
			payload, err := b.bytes()
			if err != nil {
				return nil, err
			}
			l, err := parseLocation(payload)
			if err != nil {
				return nil, err
			}
			locations[l.id] = l.funcIDs
		case 5: // function
			payload, err := b.bytes()
			if err != nil {
				return nil, err
			}
			f, err := parseFunction(payload)
			if err != nil {
				return nil, err
			}
			functions[f.id] = f.name
		case 6: // string_table
			payload, err := b.bytes()
			if err != nil {
				return nil, err
			}
			strings = append(strings, string(payload))
		case 9: // time_nanos
			v, err := b.varint()
			if err != nil {
				return nil, err
			}
			p.TimeNanos = int64(v)
		case 10: // duration_nanos
			v, err := b.varint()
			if err != nil {
				return nil, err
			}
			p.DurationNanos = int64(v)
		case 11: // period_type
			payload, err := b.bytes()
			if err != nil {
				return nil, err
			}
			periodType, err = parseValueType(payload)
			if err != nil {
				return nil, err
			}
		case 12: // period
			v, err := b.varint()
			if err != nil {
				return nil, err
			}
			p.Period = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return nil, err
			}
		}
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strings) {
			return ""
		}
		return strings[i]
	}
	for _, vt := range sampleTypes {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(vt.typ), Unit: str(vt.unit)})
	}
	p.PeriodType = ValueType{Type: str(periodType.typ), Unit: str(periodType.unit)}
	if len(p.SampleTypes) == 0 {
		return nil, fmt.Errorf("prof: profile has no sample types")
	}

	for _, rs := range samples {
		if len(rs.values) == 0 {
			continue
		}
		ps := ProfileSample{Values: rs.values, Stack: make([]string, 0, len(rs.locs))}
		for _, loc := range rs.locs {
			for _, fid := range locations[loc] {
				name := str(functions[fid])
				if name == "" {
					name = "unknown"
				}
				ps.Stack = append(ps.Stack, name)
			}
		}
		p.Samples = append(p.Samples, ps)
	}
	return p, nil
}

// --- aggregation -----------------------------------------------------

// FuncStat is one function's share of a profile: Flat is time (or
// bytes) sampled with the function on top of the stack, Cum includes
// time anywhere on the stack. Shares are fractions of the window total.
type FuncStat struct {
	Name      string  `json:"name"`
	Flat      int64   `json:"flat"`
	Cum       int64   `json:"cum"`
	FlatShare float64 `json:"flat_share"`
	CumShare  float64 `json:"cum_share"`
}

// Stack is one folded call stack (root first) with its aggregated
// value: the flamegraph input row.
type Stack struct {
	Frames []string `json:"frames"`
	Value  int64    `json:"value"`
}

// Aggregate folds a profile's samples at value index vi into the
// per-function table (sorted by Flat descending, Name ascending on
// ties) and deduplicated root-first stacks (sorted by Value
// descending). total is the sum over all samples — shares and the
// stacks are fractions of it even after top-N truncation upstream.
func Aggregate(p *Profile, vi int) (funcs []FuncStat, stacks []Stack, total int64) {
	if vi < 0 || len(p.SampleTypes) == 0 {
		return nil, nil, 0
	}
	flat := map[string]int64{}
	cum := map[string]int64{}
	folded := map[string]*Stack{}
	var keyBuf bytes.Buffer
	for _, s := range p.Samples {
		if vi >= len(s.Values) || len(s.Stack) == 0 {
			continue
		}
		v := s.Values[vi]
		if v == 0 {
			continue
		}
		total += v
		flat[s.Stack[0]] += v
		seen := map[string]bool{}
		for _, fn := range s.Stack {
			if !seen[fn] {
				seen[fn] = true
				cum[fn] += v
			}
		}
		// Fold the (root-first) stack.
		keyBuf.Reset()
		for i := len(s.Stack) - 1; i >= 0; i-- {
			keyBuf.WriteString(s.Stack[i])
			keyBuf.WriteByte(';')
		}
		key := keyBuf.String()
		if st, ok := folded[key]; ok {
			st.Value += v
		} else {
			frames := make([]string, len(s.Stack))
			for i, fn := range s.Stack {
				frames[len(s.Stack)-1-i] = fn
			}
			folded[key] = &Stack{Frames: frames, Value: v}
		}
	}

	funcs = make([]FuncStat, 0, len(flat))
	for name, f := range flat {
		funcs = append(funcs, FuncStat{Name: name, Flat: f, Cum: cum[name]})
	}
	// Functions that never appear as a leaf still deserve a row when
	// they dominate cumulatively (e.g. the worker loop itself).
	for name, c := range cum {
		if _, ok := flat[name]; !ok {
			funcs = append(funcs, FuncStat{Name: name, Cum: c})
		}
	}
	if total > 0 {
		for i := range funcs {
			funcs[i].FlatShare = float64(funcs[i].Flat) / float64(total)
			funcs[i].CumShare = float64(funcs[i].Cum) / float64(total)
		}
	}
	sort.Slice(funcs, func(i, j int) bool {
		if funcs[i].Flat != funcs[j].Flat {
			return funcs[i].Flat > funcs[j].Flat
		}
		if funcs[i].Cum != funcs[j].Cum {
			return funcs[i].Cum > funcs[j].Cum
		}
		return funcs[i].Name < funcs[j].Name
	})

	stacks = make([]Stack, 0, len(folded))
	for _, st := range folded {
		stacks = append(stacks, *st)
	}
	sort.Slice(stacks, func(i, j int) bool {
		if stacks[i].Value != stacks[j].Value {
			return stacks[i].Value > stacks[j].Value
		}
		return fmt.Sprint(stacks[i].Frames) < fmt.Sprint(stacks[j].Frames)
	})
	return funcs, stacks, total
}
