package sweep

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

func TestRunDeterministicAcrossAllWorkerCounts(t *testing.T) {
	// The satellite contract: every scenario- and trial-level worker
	// count produces the same report, outcome for outcome and bit for
	// bit. The grid adds one Fig. 3/5 cell (pow, mlpos, slpos, cpos at
	// one a, w) so the C-PoS kernel runs under both trial schedules.
	cell, err := scenario.Grid{
		Base:      scenario.Spec{Blocks: 300, Trials: 40, Seed: 9, Stake: 0.2, W: 0.01},
		Protocols: []string{"pow", "mlpos", "slpos", "cpos"},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	specs := append(quickGrid(t), cell...)
	rows := []struct {
		name string
		opts Options
	}{
		{"workers=1", Options{Workers: 1}},
		{"workers=4", Options{Workers: 4}},
		{"workers=GOMAXPROCS", Options{Workers: runtime.GOMAXPROCS(0)}},
		{"default", Options{}},
		{"trialworkers=1", Options{TrialWorkers: 1}},
	}
	var base []Outcome
	for _, row := range rows {
		rep, err := RunContext(context.Background(), specs, row.opts)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		for i := range rep.Outcomes {
			rep.Outcomes[i].ElapsedMS = 0 // wall time, not part of the result
		}
		if base == nil {
			base = rep.Outcomes
			continue
		}
		for i := range base {
			if a, b := base[i], rep.Outcomes[i]; !reflect.DeepEqual(a, b) {
				t.Errorf("%s outcome %d differs from %s:\n%+v\n%+v", row.name, i, rows[0].name, a, b)
			}
		}
	}
}

// countGoroutines samples the goroutine count after a settle loop so
// already-exiting goroutines don't read as leaks.
func countGoroutines(settleBelow int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > settleBelow; i++ {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestRunContextCancelMidSweepPartialReport(t *testing.T) {
	// Cancel after the first streamed outcome of a grid that would take
	// much longer to finish: the sweep must return promptly with a
	// partial report, ctx.Err(), and no leaked worker goroutines.
	g := scenario.Grid{
		Base:      scenario.Spec{Blocks: 4000, Trials: 400, Seed: 5},
		Protocols: []string{"pow", "mlpos", "slpos", "cpos", "fslpos"},
		Stake:     []float64{0.1, 0.2, 0.3, 0.4},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	start := time.Now()
	rep, err := RunContext(ctx, specs, Options{Workers: 2, OnOutcome: func(Outcome) {
		streamed++
		cancel()
	}})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Partial {
		t.Fatalf("cancelled sweep must return a partial report, got %+v", rep)
	}
	filled := 0
	for _, o := range rep.Outcomes {
		if o.Hash != "" {
			filled++
		}
	}
	if filled == 0 || filled >= len(specs) {
		t.Errorf("partial report has %d/%d outcomes, want some but not all", filled, len(specs))
	}
	if filled != rep.Stats.Computed+rep.Stats.CacheHits {
		t.Errorf("stats inconsistent with filled outcomes: filled=%d stats=%+v", filled, rep.Stats)
	}
	// "Returns within one scenario": the 20-scenario grid at this scale
	// takes seconds; a cancelled run must come back well inside that.
	if full := 20 * elapsed / time.Duration(max(filled, 1)); elapsed > 5*time.Second && elapsed > full/2 {
		t.Errorf("cancelled sweep took %v for %d/%d outcomes — not prompt", elapsed, filled, len(specs))
	}
	// goleak-style accounting: the worker pool must drain completely.
	if after := countGoroutines(before); after > before {
		t.Errorf("goroutines leaked by cancelled sweep: %d -> %d", before, after)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunContext(ctx, quickGrid(t), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if !rep.Partial || rep.Stats.Computed != 0 || rep.Stats.TrialsRun != 0 {
		t.Errorf("pre-cancelled sweep: %+v", rep.Stats)
	}
}

func TestCompletedOutcomesOfCancelledSweepMatchFullSweep(t *testing.T) {
	// Whatever a cancelled sweep did finish must be exactly what the full
	// sweep computes — cancellation must never corrupt results.
	specs := quickGrid(t)
	full, err := Run(specs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, _ := RunContext(ctx, specs, Options{Workers: 1, OnOutcome: func(Outcome) { cancel() }})
	checked := 0
	for i, o := range partial.Outcomes {
		if o.Hash == "" {
			continue
		}
		checked++
		if o.Verdict != full.Outcomes[i].Verdict {
			t.Errorf("outcome %d differs from full sweep", i)
		}
	}
	if checked == 0 {
		t.Error("cancelled sweep finished nothing — cannot compare")
	}
}

func TestTheoryEvaluatorPoWMatchesExactBinomial(t *testing.T) {
	spec := scenario.Spec{Protocol: "pow", W: 0.01, Stake: 0.2, Blocks: 4000, Trials: 10}
	rep, err := Run([]scenario.Spec{spec}, Options{Evaluator: &TheoryEvaluator{}})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Backend != "theory" {
		t.Errorf("backend = %q", o.Backend)
	}
	want := 1 - core.PoWFairProbExact(4000, 0.2, 0.1)
	if math.Abs(o.Verdict.UnfairProbability-want) > 1e-12 {
		t.Errorf("unfair = %v, want exact binomial %v", o.Verdict.UnfairProbability, want)
	}
	if !o.Verdict.RobustFair || !o.Verdict.ExpectationalFair {
		t.Errorf("PoW at n=4000 should be certified fair: %+v", o.Verdict)
	}
	if o.Verdict.MeanLambda != 0.2 {
		t.Errorf("mean = %v", o.Verdict.MeanLambda)
	}
	if got := o.Equitability; got != 1.0/4000 {
		t.Errorf("equitability = %v, want 1/n", got)
	}
	if rep.Stats.TrialsRun != 0 {
		t.Errorf("closed-form backend ran %d trials", rep.Stats.TrialsRun)
	}
}

func TestTheoryEvaluatorQualitativeShape(t *testing.T) {
	// The theory backend must reproduce the paper's ordering without a
	// single trial: PoW certified fair, ML-PoS at w=0.01 not certifiable,
	// SL-PoS drifting to monopoly.
	g := scenario.Grid{
		Base:      scenario.Spec{Stake: 0.2, Blocks: 5000, W: 0.01},
		Protocols: []string{"pow", "mlpos", "slpos", "cpos"},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(specs, Options{Evaluator: &TheoryEvaluator{}})
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string]Outcome{}
	for _, o := range rep.Outcomes {
		byProto[o.Spec.Protocol] = o
	}
	if !byProto["pow"].Verdict.RobustFair {
		t.Errorf("PoW: %+v", byProto["pow"].Verdict)
	}
	if !byProto["cpos"].Verdict.RobustFair {
		t.Errorf("C-PoS should satisfy Theorem 4.10 at the paper setting: %+v", byProto["cpos"].Verdict)
	}
	if byProto["mlpos"].Verdict.RobustFair {
		t.Errorf("ML-PoS at w=0.01 must not be certified: %+v", byProto["mlpos"].Verdict)
	}
	if byProto["mlpos"].ConvergenceBlock != -1 {
		t.Errorf("ML-PoS at w=0.01 never converges (limit dist), got %d", byProto["mlpos"].ConvergenceBlock)
	}
	slpos := byProto["slpos"]
	if slpos.Verdict.ExpectationalFair || slpos.Verdict.RobustFair {
		t.Errorf("SL-PoS: %+v", slpos.Verdict)
	}
	if slpos.Verdict.MeanLambda >= 0.2 {
		t.Errorf("SL-PoS mean-field share should decay below a, got %v", slpos.Verdict.MeanLambda)
	}
}

func TestTheoryEvaluatorUnsupportedProtocol(t *testing.T) {
	_, err := Run([]scenario.Spec{{Protocol: "eos", Blocks: 100, Trials: 10}},
		Options{Evaluator: &TheoryEvaluator{}})
	if !errors.Is(err, ErrBackend) {
		t.Errorf("err = %v, want ErrBackend", err)
	}
}

func TestChainSimEvaluatorSmoke(t *testing.T) {
	// A tiny chainsim-backed sweep: slpos is deterministic per seed and
	// must show the rich-get-richer drift that motivates the paper.
	spec := scenario.Spec{Protocol: "slpos", W: 0.01, Stake: 0.2, Blocks: 120, Trials: 6, Seed: 3}
	rep, err := Run([]scenario.Spec{spec}, Options{Evaluator: &ChainSimEvaluator{}})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.Backend != "chainsim" {
		t.Errorf("backend = %q", o.Backend)
	}
	if o.Verdict.Protocol != "SL-PoS" {
		t.Errorf("protocol = %q", o.Verdict.Protocol)
	}
	if rep.Stats.TrialsRun != 6 {
		t.Errorf("trials = %d", rep.Stats.TrialsRun)
	}
	// Determinism: the same spec reproduces the same verdict.
	rep2, err := Run([]scenario.Spec{spec}, Options{Evaluator: &ChainSimEvaluator{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Outcomes[0].Verdict != o.Verdict {
		t.Errorf("chainsim backend not deterministic:\n%+v\n%+v", o.Verdict, rep2.Outcomes[0].Verdict)
	}
}

func TestChainSimEvaluatorUnsupportedProtocol(t *testing.T) {
	_, err := Run([]scenario.Spec{{Protocol: "neo", Blocks: 50, Trials: 2}},
		Options{Evaluator: &ChainSimEvaluator{}})
	if !errors.Is(err, ErrBackend) {
		t.Errorf("err = %v, want ErrBackend", err)
	}
}

func TestChainSimEvaluatorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&ChainSimEvaluator{}).Evaluate(ctx,
		scenario.Spec{Protocol: "slpos", Blocks: 1000, Trials: 100}.Normalized())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestCacheKeysNamespacedByBackend(t *testing.T) {
	// A Monte-Carlo result must never be served to a theory sweep and
	// vice versa, even through a shared cache.
	spec := scenario.Spec{Protocol: "pow", W: 0.01, Stake: 0.2, Blocks: 400, Trials: 30, Seed: 7}
	cache := NewCache(16)
	mc, err := Run([]scenario.Spec{spec}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	th, err := Run([]scenario.Spec{spec}, Options{Cache: cache, Evaluator: &TheoryEvaluator{}})
	if err != nil {
		t.Fatal(err)
	}
	if th.Stats.CacheHits != 0 {
		t.Errorf("theory sweep hit the montecarlo cache entry")
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2 (one per backend)", cache.Len())
	}
	if mc.Outcomes[0].Verdict.UnfairProbability == th.Outcomes[0].Verdict.UnfairProbability {
		t.Log("note: MC and theory agree exactly here; namespacing still required")
	}
}

func TestChainSimEvaluatorCPoSParityWithMonteCarlo(t *testing.T) {
	// C-PoS coverage of the block-level backend: the real shard lotteries
	// and epoch inflation of internal/chainsim must agree with the
	// abstract Monte-Carlo model on both fairness verdicts, and land on
	// essentially the same mean reward fraction. The inflation reward
	// dominates (v >> w), so lambda concentrates near the initial share
	// and the comparison is sharp.
	spec := scenario.Spec{Protocol: "cpos", W: 0.02, V: 0.1, Shards: 4,
		Stake: 0.2, Blocks: 40, Trials: 24, Seed: 5}
	cs, err := Run([]scenario.Spec{spec}, Options{Evaluator: &ChainSimEvaluator{}})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := Run([]scenario.Spec{spec}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cv, mv := cs.Outcomes[0].Verdict, mc.Outcomes[0].Verdict
	if cv.Protocol != "C-PoS" || cs.Outcomes[0].Backend != "chainsim" {
		t.Fatalf("chainsim outcome: protocol %q backend %q", cv.Protocol, cs.Outcomes[0].Backend)
	}
	if cv.ExpectationalFair != mv.ExpectationalFair {
		t.Errorf("expectational fairness: chainsim %v, montecarlo %v", cv.ExpectationalFair, mv.ExpectationalFair)
	}
	if cv.RobustFair != mv.RobustFair {
		t.Errorf("robust fairness: chainsim %v, montecarlo %v", cv.RobustFair, mv.RobustFair)
	}
	if d := math.Abs(cv.MeanLambda - mv.MeanLambda); d > 0.03 {
		t.Errorf("mean lambda: chainsim %.4f vs montecarlo %.4f (diff %.4f)", cv.MeanLambda, mv.MeanLambda, d)
	}
	if cs.Stats.TrialsRun != 24 {
		t.Errorf("chainsim trials = %d", cs.Stats.TrialsRun)
	}
	// Determinism across runs (the cache-poisoning guarantee).
	cs2, err := Run([]scenario.Spec{spec}, Options{Evaluator: &ChainSimEvaluator{}})
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Outcomes[0].Verdict != cv {
		t.Errorf("chainsim cpos not deterministic:\n%+v\n%+v", cv, cs2.Outcomes[0].Verdict)
	}
}

func TestChainSimEvaluatorCPoSRejectsZeroPerShardReward(t *testing.T) {
	// w/P below half a ledger unit cannot be represented; fail loudly
	// instead of silently simulating a rewardless chain.
	_, err := (&ChainSimEvaluator{StakeUnits: 100}).Evaluate(context.Background(),
		scenario.Spec{Protocol: "cpos", W: 0.001, Shards: 32, Blocks: 10, Trials: 2}.Normalized())
	if !errors.Is(err, ErrBackend) {
		t.Errorf("err = %v, want ErrBackend", err)
	}
}
