package main

import (
	"context"
	"fmt"
	"path/filepath"

	fairness "repro"
)

// cposStepCost is roughly how many PoW steps one C-PoS epoch costs (it
// runs 32 shard lotteries); cheap C-PoS scenarios get a horizon this many
// times shorter so every protocol costs about the same.
const cposStepCost = 25

// cheapSpec draws one small scenario: any of the four paper protocols at
// a Fig. 3/5 (a, w).
func cheapSpec(r *rng, name string, trials, blocks int) fairness.Scenario {
	p := paperProtocols[r.intn(len(paperProtocols))]
	if p == "cpos" {
		blocks = max(blocks/cposStepCost, 1)
	}
	return fairness.Scenario{
		Name:     name,
		Protocol: p,
		W:        paperRewards[r.intn(len(paperRewards))],
		Stake:    paperShares[r.intn(len(paperShares))],
		Blocks:   blocks,
		Trials:   trials,
		Seed:     r.seed(),
	}
}

// cacheReplay sends sweeps that are mostly warm: each request is hits
// distinct scenarios from a pool the set-up computed into a disk cache,
// plus one cheap scenario never seen before.
type cacheReplay struct{ pool, hits, trials, blocks int }

func (cacheReplay) name() string { return "cache-replay" }
func (cacheReplay) clients() int { return 1 }

func (w cacheReplay) poolSpec(seed uint64, k int) fairness.Scenario {
	return cheapSpec(newRNG(seed, streamPool, uint64(k)), fmt.Sprintf("pool/%d", k), w.trials, w.blocks)
}

func (w cacheReplay) request(seed uint64, client, seq int) request {
	r := newRNG(seed, streamReplay, uint64(seq))
	req := newRequest(1, client, seq)
	picked := make(map[int]bool, w.hits)
	for len(req.specs) < w.hits {
		k := r.intn(w.pool)
		if picked[k] {
			continue
		}
		picked[k] = true
		s := w.poolSpec(seed, k)
		s.Name = fmt.Sprintf("%s/%s", req.trace(), s.Name)
		req.specs = append(req.specs, s)
	}
	req.specs = append(req.specs, cheapSpec(r, req.trace()+"/fresh", w.trials, w.blocks))
	return req
}

// replaySystem is a sweep system over a prewarmed disk cache.
type replaySystem struct {
	*sweepSystem
	// warm maps each pool scenario's hash to the digest of the outcome
	// the set-up computed for it.
	warm map[string]uint64
}

func (cacheReplay) detailed() bool { return false }

func (w cacheReplay) setup(ctx context.Context, e env) (system, error) {
	dc, err := fairness.NewDiskCache(filepath.Join(e.dir, "cache"))
	if err != nil {
		return nil, err
	}
	pool := make([]fairness.Scenario, w.pool)
	for k := range pool {
		pool[k] = w.poolSpec(e.seed, k)
	}
	rep, err := fairness.NewEngine(fairness.WithCache(dc)).Sweep(ctx, pool)
	if err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	s := &replaySystem{warm: make(map[string]uint64, len(pool))}
	for _, o := range rep.Outcomes {
		if s.warm[o.Hash], err = outcomeDigest(o); err != nil {
			return nil, err
		}
	}
	s.sweepSystem = newSweepSystem(e, dc, nil)
	return s, nil
}

// verify checks each request: exactly the fresh scenario was computed,
// it matches a local sweep without a cache, and every pool scenario was
// a hit identical to the outcome the set-up computed.
func (s *replaySystem) verify(ctx context.Context, recs []*record, specsOf func(*record) []fairness.Scenario) error {
	fresh, err := reference(ctx, recs, specsOf, func(r *record) []int { return []int{r.req.n - 1} })
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.failure != "" {
			continue
		}
		if r.computed != 1 {
			r.failure = fmt.Sprintf("%d scenarios computed, want exactly 1", r.computed)
			continue
		}
		last := r.req.n - 1
		r.failure = checkPrint(r, specsOf(r), func(i int, hash string) (uint64, bool, bool) {
			if i == last {
				return fresh[r][0], false, true
			}
			d, ok := s.warm[hash]
			return d, true, ok
		})
	}
	return nil
}

// checkPrint recomputes a request's fingerprint from what each position
// should hold: want returns the expected digest and cache flag of
// position i, or false when there is no expectation.
func checkPrint(r *record, specs []fairness.Scenario, want func(i int, hash string) (digest uint64, hit, ok bool)) string {
	if len(specs) != r.req.n {
		return fmt.Sprintf("%d scenarios regenerated, %d requested", len(specs), r.req.n)
	}
	p := uint64(len(specs))
	for i, s := range specs {
		h, err := s.Hash()
		if err != nil {
			return err.Error()
		}
		d, hit, ok := want(i, h)
		if !ok {
			return fmt.Sprintf("no expected outcome for %s", s.Name)
		}
		p = foldPrint(p, factKey(h, s.Name), d, hit)
	}
	if p != r.print {
		return "outcomes differ from the expected ones (cache hits from the set-up's outcomes, computed scenarios from a local sweep)"
	}
	return ""
}

// reference computes, in one local sweep without a cache, the outcome
// digests of the chosen positions of every passing record.
func reference(ctx context.Context, recs []*record, specsOf func(*record) []fairness.Scenario, positions func(*record) []int) (map[*record][]uint64, error) {
	var (
		specs []fairness.Scenario
		owner []*record
	)
	for _, r := range recs {
		if r.failure != "" {
			continue
		}
		all := specsOf(r)
		for _, i := range positions(r) {
			specs = append(specs, all[i])
			owner = append(owner, r)
		}
	}
	out := make(map[*record][]uint64, len(recs))
	if len(specs) == 0 {
		return out, nil
	}
	rep, err := fairness.NewEngine().Sweep(ctx, specs)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	for i, o := range rep.Outcomes {
		d, err := outcomeDigest(o)
		if err != nil {
			return nil, err
		}
		out[owner[i]] = append(out[owner[i]], d)
	}
	return out, nil
}
