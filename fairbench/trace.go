package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	fairness "repro"
	"repro/internal/cluster"
	"repro/internal/sweep"
)

// The traced run records spans from the benchmark's own wrappers around
// the seams the program already exposes: the sweep Evaluator and
// CacheStore, the cluster's HTTP client and worker RunFunc, and the job
// service's SweepRunner and the DispatchGate it hands out. Nothing inside
// the program is instrumented; the untraced run installs none of these.

// spanRef names one recorded span: trace is the request it belongs to.
type spanRef struct{ trace, id string }

type ctxKey int

const (
	spanKey ctxKey = iota
	trialWorkersKey
)

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey).(spanRef)
	return ref
}

// evalStat is one evaluator call: the kernel work behind ns_per_step.
type evalStat struct {
	protocol     string
	dur          time.Duration
	trials       int64
	blocks       int
	trialWorkers int
}

// shardStat is one shard claim as the coordinator's HTTP client saw it.
type shardStat struct {
	rtt, ttfb time.Duration
	bytes     int64
	outcomes  int
	done      bool
}

// jobTimes are the job-service instants of one request, on the tracer's
// clock.
type jobTimes struct {
	submitted, started, returned, observed time.Duration
}

// tracer keeps every span and layer count in memory; they are analysed
// and written out after the run.
type tracer struct {
	base time.Time
	seq  atomic.Uint64
	// cur is the parent of cache operations, which carry no context. It
	// is only meaningful for the single-client workloads that use a cache.
	cur atomic.Pointer[spanRef]

	mu     sync.Mutex
	spans  []fairness.SpanRecord
	evals  []evalStat
	shards []shardStat
	// shardParent maps a shard id to the span its claim ran under, so the
	// context-free ack that follows it joins the same request.
	shardParent map[string]spanRef
	jobs        map[string]*jobTimes
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), shardParent: map[string]spanRef{}, jobs: map[string]*jobTimes{}}
}

// reset drops everything recorded so far (the warm-up requests).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.evals, t.shards = nil, nil, nil
	t.shardParent = map[string]spanRef{}
	t.jobs = map[string]*jobTimes{}
}

// now is the tracer's monotonic clock; span starts are placed on a
// wall-clock axis derived from it so that parents and children never
// disagree about order.
func (t *tracer) now() time.Duration { return time.Since(t.base) }

type span struct {
	t      *tracer
	ref    spanRef
	parent string
	name   string
	start  time.Duration
}

func (t *tracer) start(parent spanRef, name string) *span {
	return &span{
		t:      t,
		ref:    spanRef{trace: parent.trace, id: strconv.FormatUint(t.seq.Add(1), 10)},
		parent: parent.id,
		name:   name,
		start:  t.now(),
	}
}

func (s *span) end() time.Duration {
	end := s.t.now()
	s.t.add(s.ref, s.parent, s.name, s.start, end)
	return end - s.start
}

// add records a span whose interval is already known.
func (t *tracer) add(ref spanRef, parent, name string, start, end time.Duration) {
	rec := fairness.SpanRecord{
		TraceID:     ref.trace,
		SpanID:      ref.id,
		ParentID:    parent,
		Name:        name,
		Service:     "fairbench",
		StartUnixNS: t.base.UnixNano() + int64(start),
		DurationMS:  float64(end-start) / 1e6,
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// rootID is the span id of every request's root span; span ids are
// unique within a request, and requests are analysed one at a time.
const rootID = "root"

// root opens the span covering one whole request.
func (t *tracer) root(trace string) *span {
	return &span{t: t, ref: spanRef{trace: trace, id: rootID}, name: "request", start: t.now()}
}

// addChild records a span under parent whose interval is already known.
func (t *tracer) addChild(parent spanRef, name string, start, end time.Duration) {
	t.add(spanRef{trace: parent.trace, id: strconv.FormatUint(t.seq.Add(1), 10)}, parent.id, name, start, end)
}

func (t *tracer) job(id string) *jobTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		j = &jobTimes{}
		t.jobs[id] = j
	}
	return j
}

// trialWorkersFor is the per-scenario trial parallelism sweep.RunContext
// chooses for a run over n unique scenarios with the Engine's default
// worker counts. sweep pins TrialWorkers only on its own
// *MonteCarloEvaluator; a wrapping evaluator must pin it itself, or it
// would silently run GOMAXPROCS trial workers per scenario.
func trialWorkersFor(n int) int {
	procs := runtime.GOMAXPROCS(0)
	if min(procs, n) > 1 {
		return 1
	}
	return procs
}

// withTrialWorkers records the trial parallelism for a run over n unique
// scenarios; every request and shard holds distinct scenarios only.
func withTrialWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, trialWorkersKey, trialWorkersFor(n))
}

// tracedEvaluator times every kernel call of the reference Monte-Carlo
// backend.
type tracedEvaluator struct{ t *tracer }

func (e tracedEvaluator) Name() string { return (&sweep.MonteCarloEvaluator{}).Name() }

func (e tracedEvaluator) Evaluate(ctx context.Context, spec fairness.Scenario) (fairness.Evaluation, error) {
	tw, _ := ctx.Value(trialWorkersKey).(int)
	inner := &sweep.MonteCarloEvaluator{TrialWorkers: tw}
	sp := e.t.start(spanFrom(ctx), "montecarlo."+spec.Protocol)
	ev, err := inner.Evaluate(ctx, spec)
	d := sp.end()
	e.t.mu.Lock()
	e.t.evals = append(e.t.evals, evalStat{spec.Protocol, d, ev.TrialsRun, spec.Blocks, tw})
	e.t.mu.Unlock()
	return ev, err
}

// tracedCache times Get and Add on the wrapped store.
type tracedCache struct {
	fairness.CacheStore
	t *tracer
}

func (c tracedCache) parent() spanRef {
	if p := c.t.cur.Load(); p != nil {
		return *p
	}
	return spanRef{}
}

func (c tracedCache) Get(key string) (fairness.SweepOutcome, bool) {
	sp := c.t.start(c.parent(), "cachestore.get")
	out, ok := c.CacheStore.Get(key)
	sp.end()
	return out, ok
}

func (c tracedCache) Add(key string, out fairness.SweepOutcome) {
	sp := c.t.start(c.parent(), "cachestore.add")
	c.CacheStore.Add(key, out)
	sp.end()
}

// spanHeader carries the coordinator-side shard span to the worker
// handler, which puts it on the request context the RunFunc receives.
const spanHeader = "X-Fairbench-Span"

// tracedTransport times every coordinator HTTP exchange: shard claims
// from request to the end of the NDJSON stream, and their acks.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, parent := "cluster.http", spanFrom(req.Context())
	shardID := peekShardID(req)
	switch {
	case strings.HasSuffix(req.URL.Path, "/v1/shard/ack"):
		name = "cluster.ack"
		tt.t.mu.Lock()
		parent = tt.t.shardParent[shardID]
		delete(tt.t.shardParent, shardID)
		tt.t.mu.Unlock()
	case strings.HasSuffix(req.URL.Path, "/v1/shard"):
		name = "cluster.shard"
		tt.t.mu.Lock()
		tt.t.shardParent[shardID] = parent
		tt.t.mu.Unlock()
	}
	sp := tt.t.start(parent, name)
	if name == "cluster.shard" {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, sp.ref.trace+" "+sp.ref.id)
	}
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		rtt := sp.end()
		if name == "cluster.shard" {
			tt.t.mu.Lock()
			tt.t.shards = append(tt.t.shards, shardStat{rtt: rtt})
			tt.t.mu.Unlock()
		}
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, sp: sp, shard: name == "cluster.shard"}
	return resp, nil
}

// peekShardID reads the shard_id of a claim or ack body without consuming
// the request's own body.
func peekShardID(req *http.Request) string {
	if req.GetBody == nil {
		return ""
	}
	body, err := req.GetBody()
	if err != nil {
		return ""
	}
	defer body.Close()
	var head struct {
		ShardID string `json:"shard_id"`
	}
	if json.NewDecoder(body).Decode(&head) != nil {
		return ""
	}
	return head.ShardID
}

// tracedBody ends its span when the coordinator closes the stream, and
// counts what the stream carried.
type tracedBody struct {
	io.ReadCloser
	sp    *span
	shard bool
	once  sync.Once

	ttfb  time.Duration
	bytes int64
	lines int
	tail  []byte
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 {
		if b.bytes == 0 {
			b.ttfb = b.sp.t.now() - b.sp.start
		}
		b.bytes += int64(n)
		b.lines += bytes.Count(p[:n], []byte{'\n'})
		b.tail = append(b.tail, p[:n]...)
		if len(b.tail) > 512 {
			b.tail = b.tail[len(b.tail)-512:]
		}
	}
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		rtt := b.sp.end()
		if !b.shard {
			return
		}
		// The stream is one NDJSON outcome per scenario and a summary
		// line; a claim that ended without a done summary was requeued.
		done := bytes.Contains(b.tail, []byte(`"done":true`))
		outcomes := b.lines
		if done {
			outcomes--
		}
		t := b.sp.t
		t.mu.Lock()
		t.shards = append(t.shards, shardStat{rtt: rtt, ttfb: b.ttfb, bytes: b.bytes, outcomes: outcomes, done: done})
		t.mu.Unlock()
	})
	return err
}

// tracedWorkerHandler moves the coordinator's shard span from the claim
// header onto the request context, where the worker's RunFunc finds it.
func tracedWorkerHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if trace, id, ok := strings.Cut(r.Header.Get(spanHeader), " "); ok {
			r = r.WithContext(withSpan(r.Context(), spanRef{trace: trace, id: id}))
		}
		next.ServeHTTP(w, r)
	})
}

// tracedRunFunc times a worker's evaluation of one shard.
func tracedRunFunc(t *tracer, run cluster.RunFunc) cluster.RunFunc {
	return func(ctx context.Context, specs []fairness.Scenario, onOutcome func(fairness.SweepOutcome)) (sweep.Stats, error) {
		sp := t.start(spanFrom(ctx), "cluster.worker_eval")
		ctx = withTrialWorkers(withSpan(ctx, sp.ref), len(specs))
		defer sp.end()
		return run(ctx, specs, onOutcome)
	}
}

// tracedRunner times one job's execution and hands it a timed gate. The
// job's request is found through the name of its first scenario.
func tracedRunner(t *tracer, run fairness.JobSweepRunner) fairness.JobSweepRunner {
	return func(ctx context.Context, specs []fairness.Scenario, gate fairness.ClusterDispatchGate, cache fairness.CacheStore) (*fairness.SweepReport, error) {
		trace := requestOf(specs)
		jt := t.job(trace)
		jt.started = t.now()
		sp := t.start(spanRef{trace: trace, id: rootID}, "jobs.run")
		ctx = withSpan(ctx, sp.ref)
		rep, err := run(ctx, specs, tracedGate{gate, t}, cache)
		sp.end()
		jt.returned = t.now()
		return rep, err
	}
}

// tracedGate times each wait for a fair-share dispatch grant.
type tracedGate struct {
	inner fairness.ClusterDispatchGate
	t     *tracer
}

func (g tracedGate) Acquire(ctx context.Context, want int) (int, func(), error) {
	sp := g.t.start(spanFrom(ctx), "jobs.gate_wait")
	n, release, err := g.inner.Acquire(ctx, want)
	sp.end()
	return n, release, err
}
