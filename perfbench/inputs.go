package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"ion/internal/darshan"
	"ion/internal/workloads"
)

// shapeSeed draws the shape of every workload's traffic: arrival times,
// family order, the reuse deck and the interactive visits. It is fixed,
// and -seed sets the header job id of every body, so each seed sends
// different bytes (distinct content hashes, dedup keys and work dirs)
// in the same shape. With a few dozen jobs per run, a seeded shape
// moved the medians by 15–30% from seed to seed — how tightly arrivals
// clustered, which families a closed loop happened to overlap — and
// drowned any change in the code.
const shapeSeed = 1

// family is one bundled trace generator with its rendered bytes. Every
// body the benchmark sends is a family's trace with a seeded header
// change (the job id), so counters and ground-truth labels stay those
// of the family while content hashes differ.
type family struct {
	w    workloads.Workload
	log  *darshan.Log
	text []byte // darshan-parser text, counters then DXT
	// idAt..idEnd is the byte range of the jobid value in text.
	idAt, idEnd int
}

// loadFamilies generates the 12 bundled families: the paper's 10
// evaluation workloads plus the 2 extras.
func loadFamilies() ([]*family, error) {
	var out []*family
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		log, err := w.Generate()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := log.WriteText(&buf); err != nil {
			return nil, err
		}
		if err := log.WriteDXTText(&buf); err != nil {
			return nil, err
		}
		text := buf.Bytes()
		key := []byte("\n# jobid: ")
		i := bytes.Index(text, key)
		if i < 0 {
			return nil, fmt.Errorf("%s: text trace has no jobid header", w.Name)
		}
		at := i + len(key)
		end := at + bytes.IndexByte(text[at:], '\n')
		out = append(out, &family{w: w, log: log, text: text, idAt: at, idEnd: end})
	}
	return out, nil
}

func familyIndex(fams []*family, name string) int {
	for i, f := range fams {
		if f.w.Name == name {
			return i
		}
	}
	panic("perfbench: unknown family " + name)
}

// binaryVariant renders the family as a binary Darshan log whose
// header carries jobID.
func (f *family) binaryVariant(jobID int64) ([]byte, error) {
	l := *f.log
	l.Header.JobID = jobID
	var buf bytes.Buffer
	if err := l.WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// upload is one trace body to send.
type upload struct {
	fam    int
	jobID  int64
	stream bool   // POST /api/jobs/stream instead of /api/jobs
	dup    bool   // exact re-submission of an earlier body
	data   []byte // binary bodies; nil for text variants
	fams   []*family
}

// size is the body length in bytes.
func (u upload) size() int64 {
	if u.data != nil {
		return int64(len(u.data))
	}
	f := u.fams[u.fam]
	return int64(f.idAt + len(strconv.FormatInt(u.jobID, 10)) + len(f.text) - f.idEnd)
}

// reader streams the body without materializing text variants.
func (u upload) reader() io.Reader {
	if u.data != nil {
		return bytes.NewReader(u.data)
	}
	f := u.fams[u.fam]
	return io.MultiReader(bytes.NewReader(f.text[:f.idAt]),
		bytes.NewReader([]byte(strconv.FormatInt(u.jobID, 10))),
		bytes.NewReader(f.text[f.idEnd:]))
}

// bytes materializes the body (traced runs time a parse of it).
func (u upload) bytes() []byte {
	if u.data != nil {
		return u.data
	}
	b, _ := io.ReadAll(u.reader())
	return b
}

func (u upload) name() string { return u.fams[u.fam].w.Name }

// jobIDs hands out distinct seeded header job ids.
type jobIDs struct {
	r    *rand.Rand
	used map[int64]bool
}

func newJobIDs(seed int64) *jobIDs {
	return &jobIDs{r: rand.New(rand.NewSource(seed)), used: map[int64]bool{}}
}

func (g *jobIDs) next() int64 {
	for {
		id := 2_000_000 + g.r.Int63n(1_000_000_000)
		if !g.used[id] {
			g.used[id] = true
			return id
		}
	}
}

// fingerprint accumulates a SHA-256 over every input the program
// receives: bodies (or the family bytes plus the header changes that
// derive them) and the arrival schedule.
type fingerprint struct{ h hash.Hash }

func newFingerprint(workload string, seed int64) *fingerprint {
	fp := &fingerprint{h: sha256.New()}
	fmt.Fprintf(fp.h, "perfbench-inputs v1\x00%s\x00%d\x00", workload, seed)
	return fp
}

func (fp *fingerprint) bytes(b []byte) {
	binary.Write(fp.h, binary.LittleEndian, int64(len(b)))
	fp.h.Write(b)
}

func (fp *fingerprint) ints(vs ...int64) { binary.Write(fp.h, binary.LittleEndian, vs) }

func (fp *fingerprint) families(fams []*family) {
	for _, f := range fams {
		fp.bytes([]byte(f.w.Name))
		fp.bytes(f.text)
	}
}

func (fp *fingerprint) upload(u upload) {
	fp.ints(int64(u.fam), u.jobID, b2i(u.stream), b2i(u.dup))
	if u.data != nil {
		fp.bytes(u.data)
	}
}

func (fp *fingerprint) sum() string { return hex.EncodeToString(fp.h.Sum(nil)) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// freshInputs is the fresh-diagnosis traffic: n distinct binary
// traces, every family equally often, due at n arrival times over the
// run. Arrival times are n uniform draws on [0, seconds), sorted: a
// Poisson process conditioned on its count.
type freshInputs struct {
	warm    []upload
	uploads []upload
	due     []time.Duration
}

func makeFresh(fams []*family, seed int64, seconds int, fp *fingerprint) (*freshInputs, error) {
	r := rand.New(rand.NewSource(shapeSeed))
	ids := newJobIDs(seed ^ 0x5eed)
	n := int(freshRate*float64(seconds)/float64(len(fams))+0.5) * len(fams)
	if n < len(fams) {
		n = len(fams)
	}
	in := &freshInputs{}
	mk := func(fam int) (upload, error) {
		u := upload{fam: fam, jobID: ids.next(), fams: fams}
		var err error
		u.data, err = fams[fam].binaryVariant(u.jobID)
		fp.upload(u)
		return u, err
	}
	// Warm-up: two small families, so first-use costs (regexp
	// compilation, knowledge-base load) land in set-up.
	for _, name := range []string{"healthy-checkpoint", "e2e-optimized"} {
		u, err := mk(familyIndex(fams, name))
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, u)
	}
	for len(in.uploads) < n {
		for _, fam := range r.Perm(len(fams)) {
			u, err := mk(fam)
			if err != nil {
				return nil, err
			}
			in.uploads = append(in.uploads, u)
		}
	}
	span := time.Duration(seconds) * time.Second
	for range in.uploads {
		in.due = append(in.due, time.Duration(r.Int63n(int64(span))))
	}
	sort.Slice(in.due, func(i, k int) bool { return in.due[i] < in.due[k] })
	for _, d := range in.due {
		fp.ints(int64(d))
	}
	return in, nil
}

// reuseInputs is the reuse-ingest traffic: one prewarm body per family,
// then an unbounded deck of blocks. Each block holds every
// family, the three largest five times each, a quarter of the entries
// exact re-submissions of the family's prewarm body (dedup hits) and
// the rest header-changed re-runs (verbatim semantic-cache hits).
type reuseInputs struct {
	fams    []*family
	seed    int64
	prewarm []upload
	weights []int

	mu       sync.Mutex
	cached   []upload // block cachedAt
	cachedAt int
	used     int // entries handed out
}

// reuseFingerprintBlocks is how many deck blocks the fingerprint
// covers; a run that consumes more reports deck_used beyond it.
const reuseFingerprintBlocks = 64

func makeReuse(fams []*family, seed int64, fp *fingerprint) *reuseInputs {
	in := &reuseInputs{fams: fams, seed: seed, weights: make([]int, len(fams))}
	ids := newJobIDs(seed ^ 0x9e3779b9)
	for i := range fams {
		in.weights[i] = 1
		in.prewarm = append(in.prewarm, upload{fam: i, jobID: ids.next(), fams: fams})
	}
	for _, name := range []string{"openpmd-baseline", "md-workbench", "e2e-baseline"} {
		in.weights[familyIndex(fams, name)] = 5
	}
	fp.families(fams)
	for _, u := range in.prewarm {
		fp.upload(u)
	}
	for b := 0; b < reuseFingerprintBlocks; b++ {
		for _, u := range in.block(b) {
			fp.upload(u)
		}
	}
	return in
}

// entry returns deck entry k.
func (in *reuseInputs) entry(k int) upload {
	in.mu.Lock()
	defer in.mu.Unlock()
	if b := k / in.blockLen(); in.cached == nil || in.cachedAt != b {
		in.cached, in.cachedAt = in.block(b), b
	}
	in.used = max(in.used, k+1)
	return in.cached[k%in.blockLen()]
}

func (in *reuseInputs) blockLen() int {
	n := 0
	for _, w := range in.weights {
		n += w
	}
	return n
}

// block returns deck block b; blocks are independent draws, so any
// prefix of the deck is reproducible without generating the rest.
func (in *reuseInputs) block(b int) []upload {
	r := rand.New(rand.NewSource(shapeSeed*1_000_003 + int64(b)))
	var fams []int
	for i, w := range in.weights {
		for k := 0; k < w; k++ {
			fams = append(fams, i)
		}
	}
	r.Shuffle(len(fams), func(i, k int) { fams[i], fams[k] = fams[k], fams[i] })
	dups := map[int]bool{}
	for _, i := range r.Perm(len(fams))[:len(fams)/4] {
		dups[i] = true
	}
	out := make([]upload, len(fams))
	for i, fam := range fams {
		u := in.prewarm[fam]
		if !dups[i] {
			// Re-run ids are distinct per (block, entry) and lie above
			// the range newJobIDs draws from.
			u.jobID = 3_000_000_000 + (in.seed%1_000_000)*100_000 + int64(b*len(fams)+i)
		}
		u.dup = dups[i]
		u.stream = u.size() >= streamMinBytes
		out[i] = u
	}
	return out
}

// interactiveInputs is the interactive traffic: a populated set of
// completed jobs (populatePerFamily per family), and per client a
// stream of visits to them.
type interactiveInputs struct {
	fams     []*family
	seed     int64
	populate []upload
	// uploadFams are the families users upload: the three ~370 KB
	// traces. Across all twelve, per-job ingest time spans 10 ms to
	// 150 ms, and the median of a few dozen uploads flipped between the
	// two modes from run to run.
	uploadFams []int
}

// visit is one user's session on a job.
type visit struct {
	target    int // index into the populated jobs
	targetFam int
	questions []string
	list      bool // read /api/jobs
	stats     bool // read /api/stats
	upload    *upload
}

var questions = []string{
	"Why is this application's I/O slow?",
	"Which issue should I fix first?",
	"How do I fix the small writes?",
	"Tell me more about the metadata load.",
	"Is the shared-file access a problem here?",
	"What does the DXT timeline say about stragglers?",
	"How much of the run time is spent in I/O?",
	"and how do I fix that?",
}

// interactiveFingerprintVisits is how many visits per client the
// fingerprint covers.
const interactiveFingerprintVisits = 512

func makeInteractive(fams []*family, seed int64, clients int, fp *fingerprint) *interactiveInputs {
	in := &interactiveInputs{fams: fams, seed: seed}
	for _, name := range []string{"ior-rnd4k", "stdio-postprocess", "e2e-optimized"} {
		in.uploadFams = append(in.uploadFams, familyIndex(fams, name))
	}
	ids := newJobIDs(seed ^ 0x1f1f1f1f)
	// Families populate in their fixed order; the seed picks the header
	// ids. Which family's first job the semantic cache conditions on an
	// earlier neighbour thus does not depend on the seed.
	for k := 0; k < populatePerFamily; k++ {
		for fam := range fams {
			in.populate = append(in.populate, upload{fam: fam, jobID: ids.next(), fams: fams})
		}
	}
	fp.families(fams)
	for _, u := range in.populate {
		fp.upload(u)
	}
	for c := 0; c < clients; c++ {
		vs := in.visits(c)
		for i := 0; i < interactiveFingerprintVisits; i++ {
			v := vs()
			fp.ints(int64(v.target), b2i(v.list), b2i(v.stats))
			for _, q := range v.questions {
				fp.bytes([]byte(q))
			}
			if v.upload != nil {
				fp.upload(*v.upload)
			}
		}
	}
	return in
}

// visits returns client c's visit generator. Visits come in cycles
// with a fixed make-up: every family once (alternating between
// its populated jobs from one cycle to the next), 1–3 questions in a
// fixed proportion, a job-list read and a stats read on a quarter of
// the visits each, and an upload on two thirds of them, its family
// dealt from a shuffled deck of uploadFams.
func (in *interactiveInputs) visits(c int) func() visit {
	r := rand.New(rand.NewSource(shapeSeed*7919 + int64(c) + 1))
	n := int64(0)
	nf := len(in.fams)
	byFam := make([][]int, nf) // family → populated job indexes
	for i, u := range in.populate {
		byFam[u.fam] = append(byFam[u.fam], i)
	}
	var cycle []visit
	var upFams []int
	cycles := 0
	return func() visit {
		if len(cycle) == 0 {
			order := r.Perm(nf)
			nq := make([]int, nf)
			for i := range nq {
				nq[i] = 1 + i%3
			}
			r.Shuffle(nf, func(i, k int) { nq[i], nq[k] = nq[k], nq[i] })
			list, stats, ups := r.Perm(nf), r.Perm(nf), r.Perm(nf)
			cycle = make([]visit, nf)
			for i, fam := range order {
				jobs := byFam[fam]
				v := visit{target: jobs[cycles%len(jobs)], targetFam: fam}
				for q := 0; q < nq[i]; q++ {
					v.questions = append(v.questions, questions[r.Intn(len(questions))])
				}
				v.list = list[i] < nf/4
				v.stats = stats[i] < nf/4
				if ups[i] < nf*2/3 {
					if len(upFams) == 0 {
						for _, i := range r.Perm(len(in.uploadFams)) {
							upFams = append(upFams, in.uploadFams[i])
						}
					}
					// Upload ids are distinct per client and visit and lie
					// above the range newJobIDs draws from.
					n++
					u := upload{fam: upFams[0], jobID: 4_000_000_000 + (in.seed%1_000_000)*100_000 + int64(c)*50_000 + n, fams: in.fams}
					upFams = upFams[1:]
					u.stream = u.size() >= streamMinBytes
					v.upload = &u
				}
				cycle[i] = v
			}
			cycles++
		}
		v := cycle[0]
		cycle = cycle[1:]
		return v
	}
}
