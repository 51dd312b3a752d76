package sweep

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arena"
	"repro/internal/montecarlo"
	"repro/internal/scenario"
)

// ArenaEvaluator answers scenarios with best-response equilibrium
// dynamics (internal/arena): the spec describes an honest baseline
// game, the arena lets every miner pick a best response from a strategy
// menu until play fixes, and the evaluation reports the fairness of the
// fixed point — Verdict and Equitability are assessed on the tracked
// miner's λ samples under the equilibrium profile, and the Arena field
// carries the profile, payoffs and honest-baseline deltas.
//
// Results are a pure function of (spec, config): the round-robin order,
// tie-breaking and per-profile seeds are all deterministic, so local
// runs and cluster runs merge bit-identically. Name encodes the
// normalised config, namespacing caches exactly like the adaptive
// Monte-Carlo variants.
//
// TrialsRun counts every simulation trial the dynamics executed across
// profile evaluations; the achieved eps/delta certificate is stated on
// the final fixed-point sample matrix (spec.Trials columns) only.
type ArenaEvaluator struct {
	// Config is the arena's strategy menu and round bound; the zero
	// value selects each protocol's default menu.
	Config arena.Config
	// TrialWorkers caps per-payoff trial parallelism (0 lets the runner
	// apply Options.TrialWorkers, GOMAXPROCS by default). Results are
	// worker-independent.
	TrialWorkers int
}

// ArenaBackendName is the canonical name of the default-config arena
// backend.
const ArenaBackendName = "arena"

// Name implements Evaluator: "arena" for the default config, otherwise
// "arena(...)" encoding the non-default knobs — r=<max rounds> and
// s=<candidate>+<candidate>... — so differently-configured arenas never
// share a cache or cluster namespace. ParseArenaName inverts it.
func (e *ArenaEvaluator) Name() string {
	var parts []string
	if e.Config.MaxRounds > 0 && e.Config.MaxRounds != arena.DefaultMaxRounds {
		parts = append(parts, "r="+strconv.Itoa(e.Config.MaxRounds))
	}
	if len(e.Config.Candidates) > 0 {
		cands := make([]string, len(e.Config.Candidates))
		for i, c := range e.Config.Candidates {
			cands[i] = c.String()
		}
		parts = append(parts, "s="+strings.Join(cands, "+"))
	}
	if len(parts) == 0 {
		return ArenaBackendName
	}
	return ArenaBackendName + "(" + strings.Join(parts, ";") + ")"
}

// ParseArenaName parses "arena" or an "arena(...)" config encoding back
// into an evaluator. The round trip through Name is canonical: parsing
// a Name() output yields an evaluator with that exact Name.
func ParseArenaName(name string) (*ArenaEvaluator, error) {
	if name == ArenaBackendName {
		return &ArenaEvaluator{}, nil
	}
	inner, ok := strings.CutPrefix(name, ArenaBackendName+"(")
	if !ok || !strings.HasSuffix(inner, ")") {
		return nil, fmt.Errorf("%w: not an arena backend name: %q", ErrBackend, name)
	}
	ev := &ArenaEvaluator{}
	for _, part := range strings.Split(strings.TrimSuffix(inner, ")"), ";") {
		key, val, found := strings.Cut(part, "=")
		if !found {
			return nil, fmt.Errorf("%w: arena backend name part %q is not key=value", ErrBackend, part)
		}
		switch key {
		case "r":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%w: arena round bound %q", ErrBackend, val)
			}
			ev.Config.MaxRounds = n
		case "s":
			for _, cs := range strings.Split(val, "+") {
				c, err := arena.ParseCandidate(cs)
				if err != nil {
					return nil, fmt.Errorf("%w: arena candidate %q: %v", ErrBackend, cs, err)
				}
				ev.Config.Candidates = append(ev.Config.Candidates, c)
			}
		default:
			return nil, fmt.Errorf("%w: unknown arena backend parameter %q", ErrBackend, key)
		}
	}
	return ev, nil
}

// Capabilities implements Capable. The arena covers every protocol but
// refuses all treatment blocks: it assigns strategies itself, so a spec
// carrying an adversary, network or withholding block is outside its
// vocabulary.
func (e *ArenaEvaluator) Capabilities() Capabilities {
	return Capabilities{
		Backend:   e.Name(),
		Protocols: scenario.ProtocolNames(),
	}
}

// Evaluate implements Evaluator.
func (e *ArenaEvaluator) Evaluate(ctx context.Context, spec scenario.Spec) (Evaluation, error) {
	n := spec.Normalized()
	if err := e.Capabilities().Check(n); err != nil {
		return Evaluation{}, err
	}
	p, err := n.Build()
	if err != nil {
		return Evaluation{}, err
	}
	eng := arena.Engine{Config: e.Config, TrialWorkers: e.TrialWorkers}
	res, err := eng.Run(ctx, n)
	if err != nil {
		return Evaluation{}, err
	}
	mc := &montecarlo.Result{Protocol: p.Name(), Checkpoints: res.Checkpoints, Lambda: res.Lambda}
	ev := assessSamples(n, p.Name(), mc, int64(n.Trials), int64(n.Trials), false, montecarlo.DefaultStopConfidence)
	ev.TrialsRun = res.TrialsRun
	ev.TrialsBudget = res.TrialsRun
	ev.Arena = &res.Equilibrium
	return ev, nil
}
