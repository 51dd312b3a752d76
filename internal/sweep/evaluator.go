package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/montecarlo"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// Evaluator is a pluggable scenario backend: anything that can turn a
// declarative scenario into a fairness evaluation. The sweep runner is
// backend-agnostic — it handles validation, deduplication, caching,
// parallelism and streaming, and delegates the actual fairness question
// to an Evaluator.
//
// Three implementations ship with the engine:
//
//   - MonteCarloEvaluator — the reference backend: deterministic repeated
//     mining games through internal/montecarlo (the PR-1 semantics,
//     bit for bit).
//   - TheoryEvaluator — closed-form answers from the paper's theorems,
//     no sampling at all.
//   - ChainSimEvaluator — block-level simulation with real SHA-256
//     puzzles through internal/chainsim.
//
// Evaluate receives the scenario in normalised form and must honour ctx:
// on cancellation it returns promptly with ctx.Err(). Results must be a
// pure function of the spec — the runner caches them under
// "name:contenthash", so a nondeterministic evaluator would poison every
// later sweep that shares the cache.
type Evaluator interface {
	// Name identifies the backend; it namespaces cache keys, so two
	// evaluators with different semantics must never share a name.
	Name() string
	// Evaluate answers one normalised, validated scenario.
	Evaluate(ctx context.Context, spec scenario.Spec) (Evaluation, error)
}

// Evaluation is the backend-independent result of evaluating one
// scenario: the fairness verdict plus the auxiliary metrics every
// Outcome carries. Bookkeeping (hashes, timing, cache state) is the
// runner's job, not the evaluator's.
type Evaluation struct {
	// Verdict carries both fairness notions at the final horizon.
	Verdict core.Verdict
	// Equitability is Fanti et al.'s normalised dispersion of final λ.
	Equitability float64
	// ConvergenceBlock is the first checkpoint from which the unfair
	// probability stays at or below δ, or -1.
	ConvergenceBlock int
	// TrialsRun counts the trials the evaluation actually executed
	// (zero for closed-form backends); TrialsBudget is the configured
	// trial count. They differ only when an adaptive stopping rule
	// resolved the verdict early (EarlyStopped) — the executed count is
	// an output of the run, not an input.
	TrialsRun    int64
	TrialsBudget int64
	EarlyStopped bool
	// AchievedEps is the Hoeffding half-width on the unfair-probability
	// estimate at the evaluation's confidence given TrialsRun samples:
	// the run certifies P(unfair) within ±AchievedEps of the observed
	// fraction. AchievedDelta is the resulting one-sided certificate —
	// the certified upper bound on the unfair probability, clamped to 1.
	// Both are zero for closed-form backends.
	AchievedEps   float64
	AchievedDelta float64
	// Arena, set only by the best-response ArenaEvaluator, carries the
	// equilibrium the verdict was assessed at: the fixed-point strategy
	// profile, per-miner payoffs and honest-baseline payoffs.
	Arena *arena.Equilibrium
}

// ErrBackend reports a scenario outside an evaluator's coverage.
var ErrBackend = errors.New("sweep: scenario not supported by backend")

// AdaptiveTrials opts a Monte-Carlo evaluator into adaptive early
// stopping: each scenario's Trials becomes a budget, and the run halts
// as soon as the unfair-probability verdict is resolved at the
// scenario's ε/δ with total error probability Confidence (see
// montecarlo.StopRule). Zero values resolve to the montecarlo package
// defaults. The stop point is deterministic for a fixed (seed, rule),
// so adaptive results remain cacheable and cluster-mergeable — but they
// are NOT sample-identical to exhaustive runs, which is why an adaptive
// evaluator reports a distinct Name.
type AdaptiveTrials struct {
	// Confidence is the total error-probability budget across all
	// stopping looks (0 = montecarlo.DefaultStopConfidence).
	Confidence float64
	// MinTrials is the smallest completed-trial prefix the rule
	// evaluates (0 = montecarlo.DefaultMinTrials).
	MinTrials int
	// Batch is the trial batch size of the inner loop and the stopping
	// granularity (0 = montecarlo.DefaultBatchSize).
	Batch int
}

// normalized resolves zero-value knobs to the montecarlo defaults, so
// two configurations with the same semantics share a Name (and a cache
// namespace).
func (a AdaptiveTrials) normalized() AdaptiveTrials {
	if a.Confidence == 0 {
		a.Confidence = montecarlo.DefaultStopConfidence
	}
	if a.MinTrials == 0 {
		a.MinTrials = montecarlo.DefaultMinTrials
	}
	if a.Batch == 0 {
		a.Batch = montecarlo.DefaultBatchSize
	}
	return a
}

// MonteCarloEvaluator is the reference backend: it runs the scenario's
// deterministic Monte-Carlo experiment through internal/montecarlo and
// assesses both fairness notions on the final-checkpoint λ samples. Its
// results are a pure function of the spec — independent of worker counts
// and identical to the pre-Evaluator sweep engine, bit for bit.
type MonteCarloEvaluator struct {
	// TrialWorkers caps each scenario's inner trial parallelism; 0 lets
	// the sweep runner apply Options.TrialWorkers (GOMAXPROCS by
	// default; 1 for an adaptive evaluator while several scenarios run
	// at once). Outcomes are identical for every value.
	TrialWorkers int
	// Adaptive, when non-nil, turns each scenario's Trials into a budget
	// with early stopping (see AdaptiveTrials). Honest scenarios stop as
	// soon as the verdict is resolved; adversarial scenarios run their
	// full budget (the selfish-mining simulator is not batched) but
	// still report achieved eps/delta at the adaptive confidence.
	Adaptive *AdaptiveTrials
}

// Name implements Evaluator. The exhaustive evaluator is "montecarlo";
// an adaptive evaluator appends its normalised stopping rule so that
// runs with different semantics never share a cache or cluster
// namespace.
func (e *MonteCarloEvaluator) Name() string {
	if e.Adaptive == nil {
		return "montecarlo"
	}
	a := e.Adaptive.normalized()
	return fmt.Sprintf("montecarlo+es(c=%g,min=%d,b=%d)", a.Confidence, a.MinTrials, a.Batch)
}

// Capabilities implements Capable: the reference backend covers the full
// scenario vocabulary, every registered strategy included.
func (e *MonteCarloEvaluator) Capabilities() Capabilities {
	return Capabilities{
		Backend:     e.Name(),
		Protocols:   scenario.ProtocolNames(),
		Withholding: true,
		Adversary:   true,
		Strategies:  scenario.StrategyNames(),
		Network:     true,
	}
}

// Evaluate implements Evaluator.
func (e *MonteCarloEvaluator) Evaluate(ctx context.Context, spec scenario.Spec) (Evaluation, error) {
	n := spec.Normalized()
	p, err := n.Build()
	if err != nil {
		return Evaluation{}, err
	}
	if strat, params, ok := raceAdversary(n); ok {
		return e.evaluateRace(ctx, n, p.Name(), strat, params)
	}
	stakes := n.Stakes
	if n.Network != nil {
		// Fork-induced skew (PoW only, enforced by spec validation):
		// PoW power is static, so the Sakurai–Shudo race model reduces
		// exactly to a per-height effective-power correction of the
		// win-probability vector.
		if stakes, err = attack.ForkEffectivePowers(n.Stakes, n.Network.ForkRate); err != nil {
			return Evaluation{}, err
		}
	}
	var gameOpts []game.Option
	if n.WithholdEvery > 0 {
		gameOpts = append(gameOpts, game.WithWithholding(n.WithholdEvery))
	}
	if miner, every, ok := withholdAdversary(n); ok {
		// The withhold strategy runs inside the ordinary mining game:
		// the deviator's rewards join her staking power only at
		// multiples of `every` blocks (never, for 0).
		gameOpts = append(gameOpts, game.WithMinerWithholding(miner, every))
	}
	var trials atomic.Int64
	cfg := montecarlo.Config{
		Trials:      n.Trials,
		Blocks:      n.Blocks,
		Checkpoints: n.Checkpoints,
		Miner:       n.Miner,
		Seed:        n.Seed,
		Workers:     e.TrialWorkers,
		GameOptions: gameOpts,
		OnTrialDone: func(int, float64) { trials.Add(1) },
	}
	if e.Adaptive != nil {
		a := e.Adaptive.normalized()
		cfg.Batch = a.Batch
		cfg.Stop = &montecarlo.StopRule{
			Share:      n.TrackedShare(),
			Eps:        n.Eps,
			Delta:      n.Delta,
			Confidence: a.Confidence,
			MinTrials:  a.MinTrials,
		}
	}
	res, err := montecarlo.RunContext(ctx, p, stakes, cfg)
	if err != nil {
		return Evaluation{TrialsRun: trials.Load()}, err
	}
	return assessSamples(n, p.Name(), res, int64(res.TrialsRun), int64(res.TrialsBudget), res.EarlyStopped, e.confidence()), nil
}

// confidence is the error budget the evaluator's achieved eps/delta
// certificate is stated at: the adaptive rule's when one is configured,
// the package default otherwise.
func (e *MonteCarloEvaluator) confidence() float64 {
	if e.Adaptive != nil {
		return e.Adaptive.normalized().Confidence
	}
	return montecarlo.DefaultStopConfidence
}

// adversaryParams flattens a normalised spec's adversary block into the
// registry's parameter struct.
func adversaryParams(n scenario.Spec) attack.Params {
	return attack.Params{
		Share: advShare(n),
		Gamma: n.Adversary.Gamma,
		Delay: n.Adversary.Delay,
		Every: n.Adversary.Every,
	}
}

// raceAdversary resolves a normalised spec's adversary block into an
// active PoW race strategy, shared by every sampling backend. It
// reports false when there is no adversary, when the strategy is not a
// race strategy, or when the parameterisation does not deviate from
// honest play — rational selfish mining below the Eyal–Sirer
// profitability threshold, selfish-delay at delay 1 — in which case the
// scenario collapses to its honest twin.
func raceAdversary(n scenario.Spec) (attack.Strategy, attack.Params, bool) {
	if n.Adversary == nil {
		return nil, attack.Params{}, false
	}
	strat, ok := attack.Lookup(n.Adversary.Strategy)
	if !ok || strat.Kind() != attack.KindPoWRace {
		return nil, attack.Params{}, false
	}
	p := adversaryParams(n)
	if !strat.Deviates(p) {
		return nil, attack.Params{}, false
	}
	return strat, p, true
}

// withholdAdversary resolves a normalised spec's adversary block into a
// deviating stake-withholding assignment: the deviator's miner index
// and restake period (0 = never restake).
func withholdAdversary(n scenario.Spec) (miner, every int, ok bool) {
	if n.Adversary == nil {
		return 0, 0, false
	}
	strat, found := attack.Lookup(n.Adversary.Strategy)
	if !found || strat.Kind() != attack.KindStakeWithhold || !strat.Deviates(adversaryParams(n)) {
		return 0, 0, false
	}
	return n.Adversary.Miner, n.Adversary.Every, true
}

// advShare returns the adversary's resource share of a normalised spec.
func advShare(n scenario.Spec) float64 {
	total := 0.0
	for _, v := range n.Stakes {
		total += v
	}
	return n.Stakes[n.Adversary.Miner] / total
}

// selfishCtxCheckInterval bounds events between context checks in the
// per-trial selfish loop.
const selfishCtxCheckInterval = 4096

// evaluateRace answers an adversarial PoW scenario by running the
// strategy's race state machine per trial (attack.RaceSim), seeding
// trial i with rng.Stream(seed, i) exactly like the honest path. The
// tracked miner's λ is the attacker's revenue share when she is the
// tracked miner, and the tracked miner's power-proportional slice of the
// honest pool's revenue otherwise.
func (e *MonteCarloEvaluator) evaluateRace(ctx context.Context, n scenario.Spec, protocolName string, strat attack.Strategy, p attack.Params) (Evaluation, error) {
	total := 0.0
	for _, v := range n.Stakes {
		total += v
	}
	trackedIsAttacker := n.Miner == n.Adversary.Miner
	honestSlice := 0.0
	if !trackedIsAttacker {
		honestSlice = (n.Stakes[n.Miner] / total) / (1 - p.Share)
	}
	cps := n.Checkpoints
	lambda := make([][]float64, len(cps))
	for i := range lambda {
		lambda[i] = make([]float64, n.Trials)
	}
	for trial := 0; trial < n.Trials; trial++ {
		if err := ctx.Err(); err != nil {
			return Evaluation{TrialsRun: int64(trial)}, err
		}
		sim, err := strat.NewRaceSim(p)
		if err != nil {
			return Evaluation{TrialsRun: int64(trial)}, err
		}
		r := rng.Stream(n.Seed, trial)
		next := 0
		for ev := 1; ev <= n.Blocks && next < len(cps); ev++ {
			if ev%selfishCtxCheckInterval == 0 && ctx.Err() != nil {
				return Evaluation{TrialsRun: int64(trial)}, ctx.Err()
			}
			sim.Step(r)
			if ev == cps[next] {
				share := sim.Snapshot().RevenueShare()
				if trackedIsAttacker {
					lambda[next][trial] = share
				} else {
					lambda[next][trial] = (1 - share) * honestSlice
				}
				next++
			}
		}
	}
	res := &montecarlo.Result{Protocol: protocolName, Checkpoints: cps, Lambda: lambda}
	return assessSamples(n, protocolName, res, int64(n.Trials), int64(n.Trials), false, e.confidence()), nil
}

// withTrialWorkers returns the evaluator the runner should use given the
// sweep's per-scenario trial parallelism (Options.TrialWorkers; 0 keeps
// the GOMAXPROCS default) and whether several scenarios run at once:
// custom evaluators pass through untouched; a Monte-Carlo or arena
// evaluator with no explicit TrialWorkers adopts the sweep's value (all
// other knobs preserved).
//
// The one exception is an adaptive Monte-Carlo evaluator inside a
// parallel sweep. Its trial workers each take a batch at once and the
// batches past the stop point are thrown away; while other scenarios
// already hold the cores, that speculation is pure waste, so it gets one
// trial worker by default.
func withTrialWorkers(ev Evaluator, trialWorkers int, parallelScenarios bool) Evaluator {
	if ev == nil {
		return &MonteCarloEvaluator{TrialWorkers: trialWorkers}
	}
	if mc, ok := ev.(*MonteCarloEvaluator); ok && mc.TrialWorkers == 0 {
		clone := *mc
		clone.TrialWorkers = trialWorkers
		if trialWorkers == 0 && mc.Adaptive != nil && parallelScenarios {
			clone.TrialWorkers = 1
		}
		return &clone
	}
	if ae, ok := ev.(*ArenaEvaluator); ok && ae.TrialWorkers == 0 {
		clone := *ae
		clone.TrialWorkers = trialWorkers
		return &clone
	}
	return ev
}

// assessSamples turns a per-checkpoint λ sample matrix into an
// Evaluation — the shared tail of every sampling backend. confidence is
// the error budget the achieved eps/delta certificate is stated at: for
// trialsRun samples, a Hoeffding bound puts the true unfair probability
// within ±achievedEps of the observed fraction except with probability
// confidence, so observed + achievedEps is a certified δ upper bound.
func assessSamples(spec scenario.Spec, protocolName string, res *montecarlo.Result, trialsRun, trialsBudget int64, earlyStopped bool, confidence float64) Evaluation {
	a := spec.TrackedShare()
	params := core.Params{Eps: spec.Eps, Delta: spec.Delta}
	final := res.FinalSamples()
	verdict := params.Assess(protocolName, final, a)
	ev := Evaluation{
		Verdict:          verdict,
		Equitability:     core.Equitability(final, a),
		ConvergenceBlock: res.ConvergenceBlock(a, spec.Eps, spec.Delta),
		TrialsRun:        trialsRun,
		TrialsBudget:     trialsBudget,
		EarlyStopped:     earlyStopped,
	}
	if trialsRun > 0 && confidence > 0 && confidence < 1 {
		ev.AchievedEps = math.Sqrt(math.Log(2/confidence) / (2 * float64(trialsRun)))
		ev.AchievedDelta = math.Min(1, verdict.UnfairProbability+ev.AchievedEps)
	}
	return ev
}

// unsupported builds the canonical protocol-coverage CapabilityError.
func unsupported(backend, protocol string, supported []string) error {
	return &CapabilityError{Backend: backend, Feature: "protocol", Protocol: protocol, Supported: supported}
}
