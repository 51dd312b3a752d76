package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	fairness "repro"
)

// tinyWorkloads are the benchmark's workloads at sizes a unit test can
// afford.
func tinyWorkloads() []workload {
	return []workload{
		paperCold{trials: 40, blocks: 1500}, // the benchmark size: smaller SL-PoS runs can end above a
		cacheReplay{pool: 24, hits: 5, trials: 4, blocks: 40},
		jobsCluster{scenarios: 6, trials: 4, blocks: 40, shardSize: 2},
	}
}

func tinyRun(t *testing.T, w workload, trace bool, wrap func(cacheStore) cacheStore) (result, string) {
	t.Helper()
	var out bytes.Buffer
	o := options{
		seed:      3,
		window:    150 * time.Millisecond,
		trace:     trace,
		setupReps: 2,
		dir:       t.TempDir(),
		traceDir:  t.TempDir(),
		wrapCache: wrap,
	}
	res, err := run(context.Background(), w, o, &out)
	if err != nil {
		t.Fatalf("%s (trace %v): %v\n%s", w.name(), trace, err, out.String())
	}
	return res, out.String()
}

func hashesOf(t *testing.T, specs []fairness.Scenario) []string {
	t.Helper()
	var hs []string
	for _, s := range specs {
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return hs
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, mk := range workloads {
		w := mk()
		for c := range w.clients() {
			for seq := -2; seq < 4; seq++ {
				a, b := w.request(7, c, seq), w.request(7, c, seq)
				if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(hashesOf(t, a.specs), hashesOf(t, b.specs)) {
					t.Errorf("%s: request %d of client %d differs between two generations from one seed", name, seq, c)
				}
				ha, hc := hashesOf(t, a.specs), hashesOf(t, w.request(8, c, seq).specs)
				if reflect.DeepEqual(ha, hc) {
					t.Errorf("%s: seeds 7 and 8 give the same request %d of client %d", name, seq, c)
				}
				seen := map[string]bool{}
				for _, h := range ha {
					if seen[h] {
						t.Errorf("%s: request %d of client %d repeats a scenario", name, seq, c)
					}
					seen[h] = true
				}
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestEveryDeclaredMetricIsPrintedWithItsUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(decl.PerLayer), len(perLayer))
	}
	for _, w := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			declared := decl.EndToEnd
			if trace {
				declared = decl.PerLayer
			}
			res, out := tinyRun(t, w, trace, nil)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct %v, %d attempted, %d failed\n%s", w.name(), trace, res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json declares %d", w.name(), trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s is %+v, want unit %q", w.name(), trace, m.Name, got, m.Unit)
					continue
				}
				if !strings.Contains(out, "metric "+m.Name+" ") || !strings.Contains(out, " "+m.Unit+"\n") {
					t.Errorf("%s (trace %v): metric %s is not printed with its unit", w.name(), trace, m.Name)
				}
			}
			if !trace && res.Metrics["ok_ratio"].Value != 1 {
				t.Errorf("%s: ok_ratio %v on the unmodified program", w.name(), res.Metrics["ok_ratio"].Value)
			}
		}
	}
}

// corruptingCache flips the mean λ of every hit on one cache entry.
type corruptingCache struct {
	cacheStore
	once sync.Once
	mu   sync.Mutex
	key  string
}

func (c *corruptingCache) Get(key string) (fairness.SweepOutcome, bool) {
	out, ok := c.cacheStore.Get(key)
	if !ok {
		return out, ok
	}
	c.once.Do(func() { c.mu.Lock(); c.key = key; c.mu.Unlock() })
	c.mu.Lock()
	bad := key == c.key
	c.mu.Unlock()
	if bad {
		out.Verdict.MeanLambda = math.Nextafter(out.Verdict.MeanLambda, 2)
	}
	return out, ok
}

func TestCorruptedCacheEntryLowersOkRatio(t *testing.T) {
	w := cacheReplay{pool: 24, hits: 5, trials: 4, blocks: 40}
	res, out := tinyRun(t, w, false, func(c cacheStore) cacheStore { return &corruptingCache{cacheStore: c} })
	if ok := res.Metrics["ok_ratio"].Value; !(ok < 1) || res.Correct || res.Failed == 0 {
		t.Fatalf("ok_ratio %v, correct %v, %d failed with a corrupted cache entry\n%s", ok, res.Correct, res.Failed, out)
	}
	if !strings.Contains(out, "outcomes differ from the expected ones") {
		t.Errorf("the failure does not name the corrupted hit:\n%s", out)
	}
}

func TestLayerSelfTimesSumToRequestWall(t *testing.T) {
	ctx := context.Background()
	for _, w := range tinyWorkloads() {
		tr := newTracer()
		sys, err := setup(ctx, w, env{seed: 5, dir: t.TempDir(), tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		tr.reset()
		ph := drive(ctx, sys, w, 5, 0, 0, fill(w.clients(), 3), tr)
		sys.close()
		an, err := analyse(tr)
		if err != nil {
			t.Fatal(err)
		}
		if an.requests != len(ph.recs) || an.unattributed != 0 {
			t.Errorf("%s: %d request trees for %d requests, %d unattributed spans", w.name(), an.requests, len(ph.recs), an.unattributed)
		}
		for i, wall := range an.reqWallMS {
			sum := 0.0
			for _, l := range layers {
				sum += an.reqLayerMS[l][i]
			}
			if math.Abs(sum-wall) > 1e-6 {
				t.Errorf("%s: request %d layer self-times sum to %.9fms, wall %.9fms", w.name(), i, sum, wall)
			}
		}
		if an.stageMS["request"] >= an.wallMS {
			t.Errorf("%s: no layer span covers any request time", w.name())
		}
	}
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
