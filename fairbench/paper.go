package main

import (
	"context"
	"fmt"
	"math"

	fairness "repro"
)

// The Fig. 3 and Fig. 5 axes: the tracked miner's initial share a and the
// block reward w.
var (
	paperShares  = []float64{0.1, 0.2, 0.3, 0.4}
	paperRewards = []float64{1e-4, 1e-3, 1e-2, 1e-1}
)

// Workload stream identifiers for newRNG.
const (
	streamPaper = iota + 1
	streamPool
	streamReplay
	streamJobs
)

// newRequest fills in a request's identity; its scenarios are named
// "<trace>/<k>...".
func newRequest(clients, client, seq int) request {
	return request{client: client, seq: seq, id: seq*clients + client}
}

// paperCold asks for one paper cell per request: PoW, ML-PoS, SL-PoS and
// C-PoS at one (a, w), each with a fresh seed, so the exhaustive
// Monte-Carlo kernel computes everything and the LRU never hits.
type paperCold struct{ trials, blocks int }

func (paperCold) name() string   { return "paper-cold" }
func (paperCold) clients() int   { return 1 }
func (paperCold) detailed() bool { return true }

func (w paperCold) request(seed uint64, client, seq int) request {
	r := newRNG(seed, streamPaper, uint64(seq))
	req := newRequest(1, client, seq)
	a, reward := paperShares[r.intn(len(paperShares))], paperRewards[r.intn(len(paperRewards))]
	for _, p := range paperProtocols {
		req.specs = append(req.specs, fairness.Scenario{
			Name:     fmt.Sprintf("%s/%s/a=%g/w=%g", req.trace(), p, a, reward),
			Protocol: p,
			W:        reward,
			Stake:    a,
			Blocks:   w.blocks,
			Trials:   w.trials,
			Seed:     r.seed(),
		})
	}
	return req
}

func (w paperCold) setup(_ context.Context, e env) (system, error) {
	var cache cacheStore = fairness.NewSweepCache(0)
	return newSweepSystem(e, cache, w.check), nil
}

// hoeffdingDelta is the failure probability of the expectational
// fairness check on one scenario.
const hoeffdingDelta = 1e-6

// check tests the paper's predictions on one request: PoW, ML-PoS and
// C-PoS are expectationally fair, so the mean λ lies within a Hoeffding
// bound of a; SL-PoS with a < 0.5 makes the rich richer, so the mean λ
// stays below a. Every trial of the budget runs, and every scenario is
// computed.
func (w paperCold) check(r *record, specs []fairness.Scenario) string {
	if r.computed != len(specs) {
		return fmt.Sprintf("%d of %d scenarios computed, want all (fresh seeds)", r.computed, len(specs))
	}
	bound := math.Sqrt(math.Log(2/hoeffdingDelta) / (2 * float64(w.trials)))
	for i, f := range r.facts {
		s := specs[i]
		if f.trialsRun != int64(w.trials) || f.trialsBudget != int64(w.trials) {
			return fmt.Sprintf("%s: %d trials run of budget %d, want %d", s.Name, f.trialsRun, f.trialsBudget, w.trials)
		}
		a, lambda := f.share, f.meanLambda
		switch s.Protocol {
		case "slpos":
			if a < 0.5 && !(lambda < a) {
				return fmt.Sprintf("%s: mean λ %.6f is not below a = %g", s.Name, lambda, a)
			}
		default:
			if !(math.Abs(lambda-a) <= bound) {
				return fmt.Sprintf("%s: mean λ %.6f is %.4f from a = %g, beyond the Hoeffding bound %.4f",
					s.Name, lambda, math.Abs(lambda-a), a, bound)
			}
		}
	}
	return ""
}

// sweepSystem answers each request with one Engine.Sweep.
type sweepSystem struct {
	eng   *fairness.Engine
	tr    *tracer
	check func(r *record, specs []fairness.Scenario) string
}

// newSweepSystem builds the Engine over cache. With tracing on, the
// cache and the Monte-Carlo backend are wrapped.
func newSweepSystem(e env, cache cacheStore, check func(*record, []fairness.Scenario) string) *sweepSystem {
	if e.wrapCache != nil {
		cache = e.wrapCache(cache)
	}
	opts := []fairness.EngineOption{}
	if e.tracer != nil {
		cache = tracedCache{cache, e.tracer}
		opts = append(opts, fairness.WithBackend(tracedEvaluator{e.tracer}))
	}
	opts = append(opts, fairness.WithCache(cache))
	return &sweepSystem{eng: fairness.NewEngine(opts...), tr: e.tracer, check: check}
}

func (s *sweepSystem) do(ctx context.Context, req request) response {
	if s.tr != nil {
		sp := s.tr.start(spanFrom(ctx), "sweep")
		defer sp.end()
		s.tr.cur.Store(&sp.ref)
		ctx = withTrialWorkers(withSpan(ctx, sp.ref), len(req.specs))
	}
	rep, err := s.eng.Sweep(ctx, req.specs)
	if err != nil {
		return response{err: err}
	}
	return response{outcomes: rep.Outcomes, computed: rep.Stats.Computed, trials: rep.Stats.TrialsRun}
}

// verify checks that each request got one outcome per scenario, for the
// scenario it asked, and then applies the workload's own check. It needs
// a detailed workload.
func (s *sweepSystem) verify(_ context.Context, recs []*record, specsOf func(*record) []fairness.Scenario) error {
	for _, r := range recs {
		if r.failure != "" {
			continue
		}
		specs := specsOf(r)
		r.failure = checkIdentity(r, specs)
		if r.failure == "" {
			r.failure = s.check(r, specs)
		}
	}
	return nil
}

func (s *sweepSystem) close() {}

// checkIdentity checks that a request's outcomes answer its scenarios,
// position by position.
func checkIdentity(r *record, specs []fairness.Scenario) string {
	if len(r.facts) != len(specs) {
		return fmt.Sprintf("%d outcomes for %d scenarios", len(r.facts), len(specs))
	}
	for i, f := range r.facts {
		h, err := specs[i].Hash()
		if err != nil {
			return err.Error()
		}
		if f.key != factKey(h, specs[i].Name) {
			return fmt.Sprintf("outcome %d does not answer scenario %s", i, specs[i].Name)
		}
	}
	return ""
}
