package sweep

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// adaptiveGrid is a grid whose tiny ε makes nearly every trial unfair,
// so the stopping rule resolves each scenario at its minimum prefix.
func adaptiveGrid(t *testing.T) []scenario.Spec {
	t.Helper()
	g := scenario.Grid{
		Base:      scenario.Spec{Blocks: 100, Trials: 400, Seed: 5, Eps: 0.02},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.3},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestAdaptiveEvaluatorName(t *testing.T) {
	if got := (&MonteCarloEvaluator{}).Name(); got != "montecarlo" {
		t.Fatalf("exhaustive evaluator Name = %q, want montecarlo (CI and cache keys pin it)", got)
	}
	// Zero-value knobs normalise, so semantically identical rules share
	// a name — and therefore a cache namespace.
	zero := &MonteCarloEvaluator{Adaptive: &AdaptiveTrials{}}
	explicit := &MonteCarloEvaluator{Adaptive: &AdaptiveTrials{Confidence: 1e-3, MinTrials: 32, Batch: 8}}
	if zero.Name() != explicit.Name() {
		t.Errorf("normalised names differ: %q vs %q", zero.Name(), explicit.Name())
	}
	if zero.Name() == "montecarlo" {
		t.Error("adaptive evaluator must not share the exhaustive namespace")
	}
	for _, ev := range []*MonteCarloEvaluator{{}, zero} {
		if caps := ev.Capabilities(); caps.Backend != ev.Name() {
			t.Errorf("Capabilities().Backend = %q, Name() = %q — conformance requires they match", caps.Backend, ev.Name())
		}
	}
}

func TestWithTrialWorkersPreservesAdaptive(t *testing.T) {
	a := &AdaptiveTrials{MinTrials: 16}
	got := withTrialWorkers(&MonteCarloEvaluator{Adaptive: a}, 3, true)
	mc, ok := got.(*MonteCarloEvaluator)
	if !ok {
		t.Fatalf("withTrialWorkers returned %T", got)
	}
	if mc.TrialWorkers != 3 {
		t.Errorf("TrialWorkers = %d, want 3", mc.TrialWorkers)
	}
	if mc.Adaptive != a {
		t.Error("withTrialWorkers dropped the Adaptive configuration")
	}
	// With the sweep's default, an adaptive scenario keeps one trial
	// worker while other scenarios run beside it, and GOMAXPROCS alone.
	for _, c := range []struct {
		parallel bool
		want     int
	}{{true, 1}, {false, 0}} {
		got := withTrialWorkers(&MonteCarloEvaluator{Adaptive: a}, 0, c.parallel).(*MonteCarloEvaluator)
		if got.TrialWorkers != c.want {
			t.Errorf("parallel=%v: TrialWorkers = %d, want %d", c.parallel, got.TrialWorkers, c.want)
		}
	}
	if got := withTrialWorkers(&MonteCarloEvaluator{}, 0, true).(*MonteCarloEvaluator); got.TrialWorkers != 0 {
		t.Errorf("exhaustive evaluator: TrialWorkers = %d, want 0 (GOMAXPROCS)", got.TrialWorkers)
	}
	// An explicit TrialWorkers wins over the runner's resolution.
	pinned := &MonteCarloEvaluator{TrialWorkers: 2, Adaptive: a}
	if got := withTrialWorkers(pinned, 7, true); got != Evaluator(pinned) {
		t.Error("explicit TrialWorkers must pass through untouched")
	}
}

func TestAdaptiveSweepReportsTrialCounts(t *testing.T) {
	specs := adaptiveGrid(t)
	ev := &MonteCarloEvaluator{Adaptive: &AdaptiveTrials{MinTrials: 8, Batch: 8}}
	var base *Report
	for _, workers := range []int{1, 4} {
		rep, err := RunContext(context.Background(), specs, Options{Workers: workers, Evaluator: ev})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, o := range rep.Outcomes {
			if o.Backend != ev.Name() {
				t.Errorf("outcome %d backend = %q, want %q", i, o.Backend, ev.Name())
			}
			if o.TrialsBudget != int64(specs[i].Trials) {
				t.Errorf("outcome %d budget = %d, want %d", i, o.TrialsBudget, specs[i].Trials)
			}
			if !o.EarlyStopped || o.TrialsRun >= o.TrialsBudget {
				t.Errorf("outcome %d did not stop early: ran %d of %d", i, o.TrialsRun, o.TrialsBudget)
			}
			if !(o.AchievedEps > 0) || !(o.AchievedDelta > 0 && o.AchievedDelta <= 1) {
				t.Errorf("outcome %d achieved eps/delta = %v/%v, want positive certificate", i, o.AchievedEps, o.AchievedDelta)
			}
		}
		if base == nil {
			base = rep
			continue
		}
		for i := range base.Outcomes {
			a, b := base.Outcomes[i], rep.Outcomes[i]
			if a.TrialsRun != b.TrialsRun || a.Verdict != b.Verdict ||
				a.AchievedEps != b.AchievedEps || a.AchievedDelta != b.AchievedDelta {
				t.Errorf("workers=%d outcome %d differs:\n%+v\n%+v", workers, i, a, b)
			}
		}
		if base.Stats.TrialsRun != rep.Stats.TrialsRun {
			t.Errorf("stats trials differ across worker counts: %d vs %d", base.Stats.TrialsRun, rep.Stats.TrialsRun)
		}
	}
}

// TestAdaptiveParallelSweepComputesOnlyKeptBlocks pins the trial-worker
// default for early-stopping sweeps: while several scenarios run at
// once, each adaptive scenario runs its batches one at a time, so no
// batch past the stop point is computed and then thrown away.
func TestAdaptiveParallelSweepComputesOnlyKeptBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Long trials, so that a batch outlasts the start of the other
	// trial workers and any batch handed out ahead of the stop shows.
	specs, err := scenario.Grid{
		Base:      scenario.Spec{Blocks: 3000, Trials: 400, Seed: 5, Eps: 0.001},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.3},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ev := &MonteCarloEvaluator{Adaptive: &AdaptiveTrials{MinTrials: 8, Batch: 8}}
	blocks := telemetry.Default().Counter("fairness_montecarlo_blocks_total")
	before := blocks.Value()
	rep, err := RunContext(context.Background(), specs, Options{Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	computed := blocks.Value() - before
	var kept int64
	for i, o := range rep.Outcomes {
		if !o.EarlyStopped {
			t.Fatalf("outcome %d ran its whole budget; the grid must stop early", i)
		}
		kept += o.TrialsRun * int64(specs[i].Blocks)
	}
	if computed != kept {
		t.Errorf("adaptive sweep computed %d blocks but kept %d", computed, kept)
	}
}

func TestExhaustiveSweepStillReportsBudget(t *testing.T) {
	specs := quickGrid(t)[:1]
	rep, err := Run(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.EarlyStopped {
		t.Error("exhaustive run reported EarlyStopped")
	}
	if o.TrialsRun != int64(specs[0].Trials) || o.TrialsBudget != o.TrialsRun {
		t.Errorf("TrialsRun/Budget = %d/%d, want %d/%d", o.TrialsRun, o.TrialsBudget, specs[0].Trials, specs[0].Trials)
	}
	if !(o.AchievedEps > 0) {
		t.Errorf("achieved eps = %v, want > 0 even without early stopping", o.AchievedEps)
	}
}
