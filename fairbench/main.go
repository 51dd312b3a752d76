// Command fairbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload against the fairness library, checks every
// outcome, and prints its metrics; the last line of standard output is
// one JSON object.
//
//	bash fairbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the same requests twice, untraced and then
// traced, and reports the per-layer metrics of the traced replay. See
// DESIGN.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	fairness "repro"
)

// hardLimit bounds one whole run, set-up and checks included.
const hardLimit = 170 * time.Second

// warmupFirst is the first sequence number of the warm-up loop; set-up
// uses -1 to -3, and the window counts up from 0.
const warmupFirst = -1 << 30

// workloads lists the benchmark's workloads at their benchmark sizes.
// BENCHMARK.json gates paper-cold and jobs-cluster; cache-replay runs
// by hand (see DESIGN.md for why it is not gated).
var workloads = map[string]func() workload{
	"paper-cold":   func() workload { return paperCold{trials: 40, blocks: 1500} },
	"cache-replay": func() workload { return cacheReplay{pool: 320, hits: 15, trials: 12, blocks: 240} },
	"jobs-cluster": func() workload { return jobsCluster{scenarios: 24, trials: 20, blocks: 1000, shardSize: 6} },
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-cold, cache-replay or jobs-cluster")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 30, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for caches and span dumps")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fairbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	opts := options{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		setupReps: 9,
		warmup:    8 * time.Second,
		dir:       filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
		traceDir:  filepath.Join(*workdir, "traces"),
	}
	res, err := run(ctx, mk(), opts, os.Stdout)
	if rmErr := os.RemoveAll(opts.dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "fairbench:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// options configures one benchmark run.
type options struct {
	seed   uint64
	window time.Duration
	trace  bool
	// setupReps is how many times the end-to-end run sets the system up;
	// setup_s is their median and the last one serves the window.
	setupReps int
	// dir holds the run's scratch files; traceDir receives the spans.
	dir, traceDir string
	// warmup is how long the untimed closed loop runs before the window.
	warmup time.Duration
	// wrapCache, when set, wraps the cache of the measured system (tests
	// use it to inject faults).
	wrapCache func(cacheStore) cacheStore
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and writes human-readable details to out.
func run(ctx context.Context, w workload, o options, out io.Writer) (result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s: seed %d, window %v, %d client(s), GOMAXPROCS %d, NumCPU %d\n",
		w.name(), o.seed, o.window, w.clients(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if o.trace {
		return runTraced(ctx, w, o, out)
	}
	return runUntraced(ctx, w, o, out)
}

// runUntraced measures the end-to-end metrics with tracing off.
func runUntraced(ctx context.Context, w workload, o options, out io.Writer) (result, error) {
	var (
		sys    system
		setups []float64
	)
	for rep := range max(o.setupReps, 1) {
		if sys != nil {
			sys.close()
		}
		begin := time.Now()
		s, err := setup(ctx, w, env{seed: o.seed, dir: filepath.Join(o.dir, fmt.Sprintf("setup-%d", rep)), wrapCache: o.wrapCache})
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		sys = s
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer sys.close()

	// The warm-up runs the closed loop untimed on requests the window
	// never sends (negative sequence numbers) until the host reaches a
	// steady state.
	if o.warmup > 0 {
		drive(ctx, sys, w, o.seed, warmupFirst, o.warmup, nil, nil)
	}
	ph := drive(ctx, sys, w, o.seed, 0, o.window, nil, nil)
	// Read before the checks, whose reference sweeps are not part of the
	// system's footprint.
	rss := peakRSSMB()
	if err := verify(ctx, sys, w, o.seed, ph.recs); err != nil {
		return result{}, err
	}
	s := summarize(ph)
	fmt.Fprintf(out, "set-up: %d repetitions, median %.4fs (each: %s)\n", len(setups), median(setups), fmtList(setups))
	fmt.Fprintf(out, "requests: %d attempted, %d ok, %d scenarios verified in %.3fs\n",
		s.attempted, s.ok, s.scenarios, ph.wall.Seconds())
	fmt.Fprintf(out, "latency: p50 %.3fms, p90 %.3fms over %d requests (%d beyond p90)\n",
		s.p50, s.p90, s.attempted, s.beyondP90)
	fmt.Fprintf(out, "verified scenarios per second of the window: %s\n", timeline(ph))
	fmt.Fprintf(out, "host calibration loop: %.3fms\n", calibrate())
	reportFailures(out, ph.recs)
	metrics := map[string]metric{
		"scenarios_per_s": {s.scenariosPerSec, "scenarios/s"},
		"request_p50_ms":  {finite(s.p50), "ms"},
		"request_p90_ms":  {finite(s.p90), "ms"},
		"setup_s":         {median(setups), "s"},
		"ok_ratio":        {s.okRatio, "ratio"},
		"peak_rss_mb":     {rss, "MB"},
	}
	printMetrics(out, metrics)
	return result{
		Correct:   s.ok == s.attempted,
		Attempted: s.attempted,
		Failed:    s.attempted - s.ok,
		Metrics:   metrics,
	}, nil
}

// runTraced replays the requests of an untraced half-window with tracing
// on, checks that both did the same work, and reports the per-layer
// metrics of the traced replay.
func runTraced(ctx context.Context, w workload, o options, out io.Writer) (result, error) {
	calib := calibrate()

	plain, err := setup(ctx, w, env{seed: o.seed, dir: filepath.Join(o.dir, "untraced"), wrapCache: o.wrapCache})
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	if o.warmup > 0 {
		drive(ctx, plain, w, o.seed, warmupFirst, o.warmup, nil, nil)
	}
	before := sampleProcess()
	base := drive(ctx, plain, w, o.seed, 0, o.window/2, nil, nil)
	proc := sampleProcess().since(before)
	verr := verify(ctx, plain, w, o.seed, base.recs)
	plain.close()
	if verr != nil {
		return result{}, verr
	}

	tr := newTracer()
	traced, err := setup(ctx, w, env{seed: o.seed, dir: filepath.Join(o.dir, "traced"), tracer: tr, wrapCache: o.wrapCache})
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	tr.reset() // set-up and warm-up are not part of the replay
	replay := drive(ctx, traced, w, o.seed, 0, 0, base.perClient, tr)
	traced.close()
	// The replay's outcomes are checked against the verified untraced run.
	markErrors(replay.recs)
	same := sameWork(base.recs, replay.recs, tr)
	if same != nil {
		fmt.Fprintln(out, "traced replay diverged:", same)
	}
	an, err := analyse(tr)
	if err != nil {
		return result{}, err
	}
	if err := writeSpans(o.traceDir, w.name(), o.seed, tr); err != nil {
		fmt.Fprintln(out, "span dump:", err)
	}

	s := summarize(base)
	metrics := layerMetrics(w, o.seed, an, base, replay, proc, calib)
	fmt.Fprintf(out, "untraced: %d requests in %.3fs; traced replay: %.3fs (overhead ratio %.4f)\n",
		len(base.recs), base.wall.Seconds(), replay.wall.Seconds(), metrics["trace.overhead_ratio"].Value)
	printBreakdown(out, an)
	reportFailures(out, base.recs)
	reportFailures(out, replay.recs)
	if na := notApplicable(w); len(na) > 0 {
		fmt.Fprintf(out, "not applicable on %s (reported as 0): %s\n", w.name(), na)
	}
	printMetrics(out, metrics)
	rs := summarize(replay)
	return result{
		Correct:   s.ok == s.attempted && rs.ok == rs.attempted && same == nil,
		Attempted: s.attempted + rs.attempted,
		Failed:    s.attempted - s.ok + rs.attempted - rs.ok,
		Metrics:   metrics,
	}, nil
}

// setup builds one system and warms it with three requests per client.
// Warm-up requests use negative sequence numbers, which the window never
// reaches.
func setup(ctx context.Context, w workload, e env) (system, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	sys, err := w.setup(ctx, e)
	if err != nil {
		return nil, err
	}
	for c := range w.clients() {
		for seq := -1; seq >= -3; seq-- {
			if resp := sys.do(ctx, w.request(e.seed, c, seq)); resp.err != nil {
				sys.close()
				return nil, fmt.Errorf("warm-up: %w", resp.err)
			}
		}
	}
	return sys, nil
}

// verify runs the workload's correctness checks after the window, so
// they never count toward any timing.
func verify(ctx context.Context, sys system, w workload, seed uint64, recs []*record) error {
	markErrors(recs)
	return sys.verify(ctx, recs, specsOf(w, seed))
}

// markErrors fails the requests the system answered with an error.
func markErrors(recs []*record) {
	for _, r := range recs {
		if r.err != nil {
			r.failure = r.err.Error()
		}
	}
}

// specsOf regenerates the scenarios of a record.
func specsOf(w workload, seed uint64) func(*record) []fairness.Scenario {
	return func(r *record) []fairness.Scenario { return w.request(seed, r.req.client, r.req.seq).specs }
}

// sameWork checks that the traced replay executed the same trials and
// produced the same outcomes as the untraced run, and that every traced
// kernel call ran with the trial parallelism the sweep runner chooses.
func sameWork(base, replay []*record, tr *tracer) error {
	key := func(r *record) [2]int { return [2]int{r.req.client, r.req.seq} }
	byKey := make(map[[2]int]*record, len(base))
	for _, r := range base {
		byKey[key(r)] = r
	}
	if len(replay) != len(base) {
		return fmt.Errorf("replayed %d requests, untraced run had %d", len(replay), len(base))
	}
	for _, r := range replay {
		b, ok := byKey[key(r)]
		if !ok {
			return fmt.Errorf("request %d of client %d was not in the untraced run", r.req.seq, r.req.client)
		}
		if b.trials != r.trials {
			return fmt.Errorf("request %d: %d trials untraced, %d traced", r.req.id, b.trials, r.trials)
		}
		if b.print != r.print || !slices.Equal(b.facts, r.facts) {
			return fmt.Errorf("request %d: outcomes differ between the untraced and traced runs", r.req.id)
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, e := range tr.evals {
		if e.trialWorkers < 1 {
			return fmt.Errorf("a traced %s evaluation ran without pinned trial workers", e.protocol)
		}
	}
	return nil
}

// summary is the end-to-end view of one phase.
type summary struct {
	attempted, ok, scenarios int
	okRatio, scenariosPerSec float64
	p50, p90                 float64
	beyondP90                int
}

// summarize computes the end-to-end metrics of a phase. A failed or wrong
// request counts as missing every latency: it enters the percentiles as
// +Inf, and its scenarios do not count as work done.
func summarize(ph phase) summary {
	s := summary{attempted: len(ph.recs)}
	lat := make([]float64, 0, len(ph.recs))
	for _, r := range ph.recs {
		if r.failure != "" {
			lat = append(lat, inf)
			continue
		}
		s.ok++
		s.scenarios += r.req.n
		lat = append(lat, r.latency().Seconds()*1000)
	}
	if s.attempted > 0 {
		s.okRatio = float64(s.ok) / float64(s.attempted)
	}
	if ph.wall > 0 {
		s.scenariosPerSec = float64(s.scenarios) / ph.wall.Seconds()
	}
	sort.Float64s(lat)
	s.p50, s.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
	for _, v := range lat {
		if v > s.p90 {
			s.beyondP90++
		}
	}
	return s
}

func reportFailures(out io.Writer, recs []*record) {
	shown := 0
	for _, r := range recs {
		if r.failure == "" {
			continue
		}
		if shown < 5 {
			fmt.Fprintf(out, "FAILED request %d (client %d): %s\n", r.req.id, r.req.client, r.failure)
		}
		shown++
	}
	if shown > 5 {
		fmt.Fprintf(out, "... and %d more failed requests\n", shown-5)
	}
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func fmtList(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}

// timeline counts the verified scenarios finished in each second of a
// phase, to tell a steady window from one with stalls.
func timeline(ph phase) string {
	if len(ph.recs) == 0 {
		return ""
	}
	begin := ph.recs[0].start
	for _, r := range ph.recs {
		if r.start.Before(begin) {
			begin = r.start
		}
	}
	buckets := make([]int, int(ph.wall/time.Second)+1)
	for _, r := range ph.recs {
		if r.failure == "" {
			buckets[int(r.end.Sub(begin)/time.Second)] += r.req.n
		}
	}
	s := ""
	for i, n := range buckets {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprint(n)
	}
	return s
}
