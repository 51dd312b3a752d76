package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	fairness "repro"
)

type cacheStore = fairness.CacheStore

// workload generates a closed loop's requests and builds the system that
// answers them.
type workload interface {
	name() string
	// clients is the number of closed-loop callers; each sends its next
	// request only after the previous one has returned.
	clients() int
	// request is the seq-th request of a client, a pure function of the
	// seed. The scenarios of one request are distinct.
	request(seed uint64, client, seq int) request
	// detailed reports whether the checks need each outcome's numbers;
	// otherwise records keep one fingerprint per request.
	detailed() bool
	// setup builds a fresh instance of the system under test.
	setup(ctx context.Context, e env) (system, error)
}

// env is what a workload's set-up receives.
type env struct {
	seed uint64
	// dir is private scratch space for this instance.
	dir string
	// tracer is nil with tracing off; otherwise the system installs the
	// traced wrappers.
	tracer    *tracer
	wrapCache func(cacheStore) cacheStore
}

// system is one set-up instance of the program under test.
type system interface {
	do(ctx context.Context, req request) response
	// verify checks the records after the window and sets failure on each
	// request whose outcomes are wrong. specsOf regenerates a record's
	// scenarios, which records do not keep.
	verify(ctx context.Context, recs []*record, specsOf func(*record) []fairness.Scenario) error
	close()
}

type request struct {
	client, seq int
	// id is unique across the clients of a run.
	id int
	// n is the number of scenarios; specs is dropped once the request
	// has run.
	n     int
	specs []fairness.Scenario
}

// trace is the request's span trace id; it also prefixes the names of
// the request's scenarios, which is how the job runner wrapper finds it.
func (r request) trace() string { return "r" + strconv.Itoa(r.id) }

// requestOf returns the trace id a scenario list was generated under.
func requestOf(specs []fairness.Scenario) string {
	if len(specs) == 0 {
		return ""
	}
	id, _, _ := strings.Cut(specs[0].Name, "/")
	return id
}

// response is what a system returns for one request.
type response struct {
	outcomes []fairness.SweepOutcome
	computed int
	trials   int64
	err      error
}

// fact is what the checks need of one outcome. Records keep facts, not
// outcomes, so memory stays flat however many requests a window holds.
type fact struct {
	// key identifies the scenario and position the outcome answers.
	key uint64
	// digest covers the outcome's content except timing, the position's
	// name and the cache flag.
	digest                  uint64
	cacheHit                bool
	trialsRun, trialsBudget int64
	share, meanLambda       float64
}

func factKey(hash, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(hash))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return h.Sum64()
}

func factOf(o fairness.SweepOutcome) (fact, error) {
	d, err := outcomeDigest(o)
	return fact{
		key:          factKey(o.Hash, o.Name),
		digest:       d,
		cacheHit:     o.CacheHit,
		trialsRun:    o.TrialsRun,
		trialsBudget: o.TrialsBudget,
		share:        o.Share,
		meanLambda:   o.Verdict.MeanLambda,
	}, err
}

// foldPrint folds one outcome's identity, digest and cache flag into a
// request's running fingerprint.
func foldPrint(acc, key, digest uint64, hit bool) uint64 {
	if hit {
		digest = ^digest
	}
	return mix64(acc ^ mix64(key^mix64(digest)))
}

type record struct {
	req        request
	start, end time.Time
	// print folds every outcome in order, starting from the count; facts
	// keeps each outcome only for detailed workloads. Records keep no
	// outcomes, so the benchmark's memory stays small however many
	// requests a window holds.
	print uint64
	facts []fact
	// sample keeps the outcomes of the first sampleRecords records, for
	// the direct codec measurements.
	sample   []fairness.SweepOutcome
	computed int
	trials   int64
	err      error
	// failure is set when the request failed or its outcomes are wrong.
	failure string
}

// sampleRecords is how many records of a phase keep their outcomes.
const sampleRecords = 128

// condense stores what the checks need of a response.
func (r *record) condense(resp response, detailed, keep bool) {
	r.computed, r.trials, r.err = resp.computed, resp.trials, resp.err
	r.req.specs = nil
	r.print = uint64(len(resp.outcomes))
	for _, o := range resp.outcomes {
		f, err := factOf(o)
		if err != nil && r.err == nil {
			r.err = err
		}
		r.print = foldPrint(r.print, f.key, f.digest, f.cacheHit)
		if detailed {
			r.facts = append(r.facts, f)
		}
	}
	if keep {
		r.sample = resp.outcomes
	}
}

func (r *record) latency() time.Duration { return r.end.Sub(r.start) }

// phase is one closed-loop run of all clients.
type phase struct {
	recs []*record
	// wall runs from the first request's start to the last one's end.
	wall time.Duration
	// perClient counts the requests each client completed.
	perClient []int
}

// drive runs the workload's clients in a closed loop, each sending
// requests first, first+1, ... With counts nil, each client starts
// requests until window has passed; otherwise client c sends exactly
// counts[c] requests. With tr set, every request runs under a root span.
func drive(ctx context.Context, sys system, w workload, seed uint64, first int, window time.Duration, counts []int, tr *tracer) phase {
	n := w.clients()
	per := make([][]*record, n)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := first; ; seq++ {
				if counts == nil && time.Since(begin) >= window || counts != nil && seq-first >= counts[c] || ctx.Err() != nil {
					return
				}
				req := w.request(seed, c, seq)
				rctx := ctx
				var root *span
				if tr != nil {
					root = tr.root(req.trace())
					rctx = withSpan(ctx, root.ref)
				}
				req.n = len(req.specs)
				rec := &record{req: req, start: time.Now()}
				resp := sys.do(rctx, req)
				rec.end = time.Now()
				if root != nil {
					root.end()
				}
				rec.condense(resp, w.detailed(), len(per[c]) < sampleRecords)
				per[c] = append(per[c], rec)
			}
		}()
	}
	wg.Wait()
	ph := phase{perClient: make([]int, n)}
	var last time.Time
	for c, recs := range per {
		ph.perClient[c] = len(recs)
		ph.recs = append(ph.recs, recs...)
		for _, r := range recs {
			if r.end.After(last) {
				last = r.end
			}
		}
	}
	if !last.IsZero() {
		ph.wall = last.Sub(begin)
	}
	sort.Slice(ph.recs, func(i, j int) bool { return ph.recs[i].req.id < ph.recs[j].req.id })
	return ph
}

// rng is splitmix64: the benchmark's own deterministic input generator,
// independent of the program's RNG.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// newRNG derives an independent stream from the seed and a path of
// integers (workload, client, request ...).
func newRNG(seed uint64, path ...uint64) *rng {
	s := mix64(seed + 0x9e3779b97f4a7c15)
	for _, p := range path {
		s = mix64(s ^ mix64(p+0x9e3779b97f4a7c15))
	}
	return &rng{s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// seed returns a fresh nonzero scenario seed (zero means "default").
func (r *rng) seed() uint64 { return r.next() | 1 }

// outcomeDigest hashes an outcome's content, except timing and the
// per-position bookkeeping (name, cache flag).
func outcomeDigest(o fairness.SweepOutcome) (uint64, error) {
	o.ElapsedMS, o.CacheHit, o.Name = 0, false, ""
	b, err := json.Marshal(o)
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(sum[:8]), nil
}

var inf = math.Inf(1)

// finite maps +Inf (a percentile that lands on a failed request) to the
// largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// calibrate times a fixed single-threaded integer loop (median of five),
// so a slow or contended host is visible next to the measurements.
func calibrate() float64 {
	times := make([]float64, 5)
	for i := range times {
		begin := time.Now()
		x := uint64(i)
		for range 20_000_000 {
			x = mix64(x)
		}
		calibSink = x
		times[i] = time.Since(begin).Seconds() * 1000
	}
	return median(times)
}

var calibSink uint64

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// processSample is a reading of the process's CPU time and allocator.
type processSample struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
}

func sampleProcess() processSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time on failure
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
	}
}

func (p processSample) since(q processSample) processSample {
	return processSample{cpu: p.cpu - q.cpu, allocBytes: p.allocBytes - q.allocBytes, gcCycles: p.gcCycles - q.gcCycles}
}
