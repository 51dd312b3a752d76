package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	fairness "repro"
)

// layers is the order the per-request wall-time split is printed in.
var layers = []string{"bench", "sweep", "cachestore", "montecarlo", "cluster", "jobs"}

// layerOf maps a span name to the layer its self time belongs to.
//
//   - request: the benchmark's own client (submission, completion
//     notice, result paging on jobs-cluster)
//   - sweep, cluster.worker_eval: the sweep runner (scenario validation,
//     normalisation and hashing, deduplication, dispatch, and on a
//     worker the NDJSON encoding of each outcome)
//   - jobs.run: the cluster coordinator the job runner calls (shard
//     cutting, NDJSON decoding and merging)
//   - cluster.shard, cluster.ack: loopback HTTP and streaming
func layerOf(name string) string {
	switch {
	case name == "request":
		return "bench"
	case name == "sweep", name == "cluster.worker_eval":
		return "sweep"
	case strings.HasPrefix(name, "cachestore."):
		return "cachestore"
	case strings.HasPrefix(name, "montecarlo."):
		return "montecarlo"
	case name == "jobs.run", strings.HasPrefix(name, "cluster."):
		return "cluster"
	case strings.HasPrefix(name, "jobs."):
		return "jobs"
	}
	return "other"
}

// analysis is the traced replay broken down per request.
type analysis struct {
	requests int
	wallMS   float64
	// reqWallMS is each request's wall time.
	reqWallMS []float64
	// stageMS sums each span name's exact share of the requests' wall
	// time (telemetry.StageBreakdown); layerMS groups it by layer.
	stageMS map[string]float64
	// reqLayerMS is each request's self time per layer.
	reqLayerMS map[string][]float64
	// durMS lists every span's duration by name; reqSumMS sums them per
	// request.
	durMS    map[string][]float64
	reqSumMS map[string][]float64
	// partitionErrMS is the largest gap between a request's wall time and
	// the sum of its stage times.
	partitionErrMS float64
	unattributed   int
	evals          []evalStat
	shards         []shardStat
	jobs           map[string]*jobTimes
}

// analyse assembles each request's spans into a tree and splits its wall
// time exactly across the spans covering it.
func analyse(tr *tracer) (*analysis, error) {
	tr.mu.Lock()
	byTrace := map[string][]fairness.SpanRecord{}
	for _, s := range tr.spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	an := &analysis{
		stageMS:    map[string]float64{},
		reqLayerMS: map[string][]float64{},
		durMS:      map[string][]float64{},
		reqSumMS:   map[string][]float64{},
		evals:      tr.evals,
		shards:     tr.shards,
		jobs:       tr.jobs,
	}
	tr.mu.Unlock()

	traces := make([]string, 0, len(byTrace))
	for id := range byTrace {
		traces = append(traces, id)
	}
	sort.Strings(traces)
	for _, id := range traces {
		tree := fairness.BuildSpanTree(byTrace[id])
		var root *fairness.SpanNode
		for _, r := range tree.Roots {
			if r.SpanID == rootID && id != "" {
				root = r
				continue
			}
			an.unattributed += countNodes(r)
		}
		if root == nil {
			continue
		}
		// The breakdown partitions the root's nanosecond interval.
		wall := float64(root.EndUnixNS()-root.StartUnixNS) / 1e6
		an.requests++
		an.wallMS += wall
		an.reqWallMS = append(an.reqWallMS, wall)
		sum := 0.0
		self := map[string]float64{}
		for name, ms := range root.StageBreakdown() {
			an.stageMS[name] += ms
			self[layerOf(name)] += ms
			sum += ms
		}
		for _, l := range layers {
			an.reqLayerMS[l] = append(an.reqLayerMS[l], self[l])
		}
		an.partitionErrMS = math.Max(an.partitionErrMS, math.Abs(sum-wall))
		sums := map[string]float64{}
		walk(root, func(n *fairness.SpanNode) {
			an.durMS[n.Name] = append(an.durMS[n.Name], n.DurationMS)
			sums[n.Name] += n.DurationMS
		})
		for name, v := range sums {
			an.reqSumMS[name] = append(an.reqSumMS[name], v)
		}
	}
	if an.requests == 0 {
		return nil, fmt.Errorf("the traced replay recorded no request spans")
	}
	return an, nil
}

func walk(n *fairness.SpanNode, fn func(*fairness.SpanNode)) {
	fn(n)
	for _, c := range n.Children {
		walk(c, fn)
	}
}

func countNodes(n *fairness.SpanNode) int {
	c := 0
	walk(n, func(*fairness.SpanNode) { c++ })
	return c
}

// layerSpec is one per-layer metric as BENCHMARK.json declares it.
type layerSpec struct{ name, unit string }

var paperProtocols = []string{"pow", "mlpos", "slpos", "cpos"}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = func() []layerSpec {
	var l []layerSpec
	for _, p := range paperProtocols {
		l = append(l, layerSpec{"montecarlo.eval_ms." + p, "ms"})
	}
	for _, p := range paperProtocols {
		l = append(l, layerSpec{"montecarlo.ns_per_step." + p, "ns"})
	}
	l = append(l,
		layerSpec{"montecarlo.trials_per_scenario", "count"},
		layerSpec{"sweep.core_utilization", "ratio"},
		layerSpec{"sweep.self_ms", "ms"},
		layerSpec{"sweep.hit_ratio", "ratio"},
		layerSpec{"scenario.hash_us", "us"},
		layerSpec{"sweep.diskcache_get_us", "us"},
		layerSpec{"sweep.diskcache_put_us", "us"},
		layerSpec{"sweep.outcome_decode_us", "us"},
		layerSpec{"sweep.outcome_encode_us", "us"},
		layerSpec{"cachestore.bytes_per_entry", "B"},
		layerSpec{"cluster.shard_rtt_ms", "ms"},
		layerSpec{"cluster.shard_ttfb_ms", "ms"},
		layerSpec{"cluster.worker_eval_ms", "ms"},
		layerSpec{"cluster.stream_bytes_per_scenario", "B"},
		layerSpec{"cluster.shards_per_job", "count"},
		layerSpec{"cluster.requeues", "count"},
		layerSpec{"jobs.queue_wait_ms", "ms"},
		layerSpec{"jobs.gate_wait_ms", "ms"},
		layerSpec{"jobs.run_ms", "ms"},
		layerSpec{"jobs.done_observe_lag_ms", "ms"},
		layerSpec{"process.cpu_ms_per_scenario", "ms"},
		layerSpec{"process.alloc_bytes_per_scenario", "B"},
		layerSpec{"process.gc_cycles_per_request", "count"},
		layerSpec{"host.calib_ms", "ms"},
		layerSpec{"trace.coverage", "ratio"},
		layerSpec{"trace.overhead_ratio", "ratio"},
	)
	for _, name := range layers {
		l = append(l, layerSpec{"layer." + name + "_ms", "ms"})
	}
	return l
}()

// notApplicable lists the per-layer metrics a workload bypasses; they
// are reported as 0.
func notApplicable(w workload) []string {
	var na []string
	for _, m := range perLayer {
		cluster := strings.HasPrefix(m.name, "cluster.") || strings.HasPrefix(m.name, "jobs.") ||
			m.name == "layer.cluster_ms" || m.name == "layer.jobs_ms"
		cache := strings.HasPrefix(m.name, "sweep.diskcache_") || m.name == "layer.cachestore_ms"
		switch w.name() {
		case "paper-cold", "cache-replay":
			if cluster {
				na = append(na, m.name)
			}
		case "jobs-cluster":
			if cache {
				na = append(na, m.name)
			}
		}
	}
	return na
}

// layerMetrics computes every per-layer metric of a traced run. proc is
// the process's usage over the untraced phase.
func layerMetrics(w workload, seed uint64, an *analysis, base, replay phase, proc processSample, calibMS float64) map[string]metric {
	v := map[string]float64{}
	evalNS := map[string]float64{}
	steps := map[string]float64{}
	busy, trials := 0.0, 0.0
	for _, e := range an.evals {
		evalNS[e.protocol] += float64(e.dur)
		steps[e.protocol] += float64(e.trials) * float64(e.blocks)
		busy += float64(e.dur)
		trials += float64(e.trials)
	}
	for _, p := range paperProtocols {
		v["montecarlo.eval_ms."+p] = median(an.durMS["montecarlo."+p])
		if steps[p] > 0 {
			v["montecarlo.ns_per_step."+p] = evalNS[p] / steps[p]
		}
	}
	if len(an.evals) > 0 {
		v["montecarlo.trials_per_scenario"] = trials / float64(len(an.evals))
	}
	if replay.wall > 0 {
		v["sweep.core_utilization"] = busy / (float64(replay.wall) * float64(runtime.GOMAXPROCS(0)))
	}
	v["sweep.self_ms"] = median(an.reqLayerMS["sweep"])
	requested, computed := 0, 0
	for _, r := range replay.recs {
		requested += r.req.n
		computed += r.computed
	}
	if requested > 0 {
		v["sweep.hit_ratio"] = float64(requested-computed) / float64(requested)
	}
	v["scenario.hash_us"] = hashMicros(replay.recs, specsOf(w, seed))
	v["sweep.diskcache_get_us"] = mean(an.durMS["cachestore.get"]) * 1000
	v["sweep.diskcache_put_us"] = mean(an.durMS["cachestore.add"]) * 1000
	v["sweep.outcome_encode_us"], v["sweep.outcome_decode_us"], v["cachestore.bytes_per_entry"] = codecCost(replay.recs)

	var rtt, ttfb []float64
	var streamBytes, streamed int64
	requeues := 0
	for _, s := range an.shards {
		rtt = append(rtt, s.rtt.Seconds()*1000)
		if !s.done {
			requeues++
			continue
		}
		ttfb = append(ttfb, s.ttfb.Seconds()*1000)
		streamBytes += s.bytes
		streamed += int64(s.outcomes)
	}
	v["cluster.shard_rtt_ms"] = median(rtt)
	v["cluster.shard_ttfb_ms"] = median(ttfb)
	v["cluster.worker_eval_ms"] = median(an.durMS["cluster.worker_eval"])
	if streamed > 0 {
		v["cluster.stream_bytes_per_scenario"] = float64(streamBytes) / float64(streamed)
	}
	if len(an.jobs) > 0 {
		v["cluster.shards_per_job"] = float64(len(an.shards)) / float64(len(an.jobs))
	}
	v["cluster.requeues"] = float64(requeues)
	var lag []float64
	for _, j := range an.jobs {
		lag = append(lag, (j.observed-j.returned).Seconds()*1000)
	}
	v["jobs.queue_wait_ms"] = median(an.reqSumMS["jobs.queue"])
	v["jobs.gate_wait_ms"] = median(an.reqSumMS["jobs.gate_wait"])
	v["jobs.run_ms"] = median(an.durMS["jobs.run"])
	v["jobs.done_observe_lag_ms"] = median(lag)

	bs := summarize(base)
	if bs.scenarios > 0 {
		v["process.cpu_ms_per_scenario"] = proc.cpu.Seconds() * 1000 / float64(bs.scenarios)
		v["process.alloc_bytes_per_scenario"] = float64(proc.allocBytes) / float64(bs.scenarios)
	}
	if bs.attempted > 0 {
		v["process.gc_cycles_per_request"] = float64(proc.gcCycles) / float64(bs.attempted)
	}
	v["host.calib_ms"] = calibMS
	if an.wallMS > 0 {
		v["trace.coverage"] = 1 - an.stageMS["request"]/an.wallMS
	}
	if base.wall > 0 {
		v["trace.overhead_ratio"] = float64(replay.wall) / float64(base.wall)
	}
	for _, l := range layers {
		v["layer."+l+"_ms"] = mean(an.reqLayerMS[l])
	}

	na := map[string]bool{}
	for _, n := range notApplicable(w) {
		na[n] = true
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		val := v[m.name]
		if na[m.name] || math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		out[m.name] = metric{val, m.unit}
	}
	return out
}

// sampleSpecs caps how many of a run's scenarios and outcomes the direct
// layer measurements use.
const sampleSpecs = 2000

// hashMicros times Spec.Validate, Spec.Normalized and Spec.Hash once per
// scenario of the replayed requests (median of three passes).
func hashMicros(recs []*record, specsOf func(*record) []fairness.Scenario) float64 {
	var specs []fairness.Scenario
	for _, r := range recs {
		specs = append(specs, specsOf(r)...)
		if len(specs) >= sampleSpecs {
			break
		}
	}
	if len(specs) == 0 {
		return 0
	}
	passes := make([]float64, 3)
	for i := range passes {
		begin := time.Now()
		for _, s := range specs {
			if s.Validate() == nil {
				hashSink = s.Normalized().Blocks
				if h, err := s.Hash(); err == nil {
					hashSink += len(h)
				}
			}
		}
		passes[i] = time.Since(begin).Seconds() * 1e6 / float64(len(specs))
	}
	return median(passes)
}

var hashSink int

// codecCost times the JSON encoding and decoding the disk cache and the
// shard stream apply to each outcome, on the replay's own outcomes, and
// reports the mean encoded size.
func codecCost(recs []*record) (encodeUS, decodeUS, bytesPerEntry float64) {
	var outs []fairness.SweepOutcome
	for _, r := range recs {
		outs = append(outs, r.sample...)
		if len(outs) >= sampleSpecs {
			break
		}
	}
	if len(outs) == 0 {
		return 0, 0, 0
	}
	enc := make([][]byte, len(outs))
	begin := time.Now()
	for i, o := range outs {
		enc[i], _ = json.Marshal(o) // every outcome was already verified to encode
	}
	encodeUS = time.Since(begin).Seconds() * 1e6 / float64(len(outs))
	total := 0
	begin = time.Now()
	for _, b := range enc {
		var o fairness.SweepOutcome
		if json.Unmarshal(b, &o) == nil {
			total += len(b)
		}
	}
	decodeUS = time.Since(begin).Seconds() * 1e6 / float64(len(outs))
	return encodeUS, decodeUS, float64(total) / float64(len(outs))
}

// printBreakdown prints how the traced requests' wall time splits across
// layers and spans.
func printBreakdown(out io.Writer, an *analysis) {
	fmt.Fprintf(out, "traced requests: %d, mean wall %.3fms, partition error %.2gms, unattributed spans %d\n",
		an.requests, an.wallMS/float64(an.requests), an.partitionErrMS, an.unattributed)
	for _, l := range layers {
		ms := mean(an.reqLayerMS[l])
		fmt.Fprintf(out, "  layer %-11s %10.4fms/request %6.2f%%\n", l, ms, 100*ms*float64(an.requests)/an.wallMS)
	}
	names := make([]string, 0, len(an.stageMS))
	for n := range an.stageMS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  stage %-22s self %10.4fms/request over %d spans\n",
			n, an.stageMS[n]/float64(an.requests), len(an.durMS[n]))
	}
}

// writeSpans writes the recorded spans as NDJSON when the run ends.
func writeSpans(dir, workload string, seed uint64, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
