package protocol

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// referenceCPoSStep is the original C-PoS epoch: it snapshots the
// epoch-start stakes and draws every shard through rng.Categorical,
// which re-validates and re-sums them once per shard. CPoS.Step must
// stay bit-identical to it.
func referenceCPoSStep(p CPoS, st *game.State, r *rng.Rand) {
	m := st.NumMiners()
	start := make([]float64, m)
	copy(start, st.Stakes)
	total := 0.0
	for _, s := range start {
		total += s
	}
	perShard := p.W / float64(p.P)
	for shard := 0; shard < p.P; shard++ {
		winner := r.Categorical(start)
		st.Credit(winner, perShard, perShard)
	}
	if p.V > 0 && total > 0 {
		for i, s := range start {
			if s > 0 {
				amt := p.V * s / total
				st.Credit(i, amt, amt)
			}
		}
	}
	st.EndBlock()
}

func TestCPoSStepMatchesReferenceBitForBit(t *testing.T) {
	withholding := map[string][]game.Option{
		"none":          nil,
		"every7":        {game.WithWithholding(7)},
		"miner0forever": {game.WithMinerWithholding(0, 0)},
		"every7+miner0": {game.WithWithholding(7), game.WithMinerWithholding(0, 0)},
	}
	for _, m := range []int{2, 5, 12} {
		for _, shards := range []int{1, 3, 32} {
			for wname, opts := range withholding {
				for _, zero := range []bool{false, true} {
					name := fmt.Sprintf("m%d/P%d/%s/zero=%v", m, shards, wname, zero)
					t.Run(name, func(t *testing.T) {
						p := NewCPoS(0.01, 0.1, shards)
						got := game.MustNew(game.LeaderAndPack(0.2, m), opts...)
						want := game.MustNew(game.LeaderAndPack(0.2, m), opts...)
						if zero {
							// A miner with no stake never wins a shard and
							// earns no inflation.
							got.Stakes[m-1], want.Stakes[m-1] = 0, 0
						}
						rg, rw := rng.New(uint64(m*100+shards)), rng.New(uint64(m*100+shards))
						for epoch := 0; epoch < 5000; epoch++ {
							p.Step(got, rg)
							referenceCPoSStep(p, want, rw)
						}
						assertBitsEqual(t, "Stakes", got.Stakes, want.Stakes)
						assertBitsEqual(t, "Rewards", got.Rewards, want.Rewards)
						for i := 0; i < m; i++ {
							if g, w := got.PendingStake(i), want.PendingStake(i); math.Float64bits(g) != math.Float64bits(w) {
								t.Errorf("PendingStake(%d) = %v, reference %v", i, g, w)
							}
						}
						if zero && got.Rewards[m-1] != 0 {
							t.Errorf("zero-stake miner earned %v", got.Rewards[m-1])
						}
						if rg.Uint64() != rw.Uint64() {
							t.Error("RNG streams diverged")
						}
					})
				}
			}
		}
	}
}

func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func TestStepAllocationFree(t *testing.T) {
	for _, p := range []Protocol{NewCPoS(0.01, 0.1, 32), NewHybrid(0.01, 0.5)} {
		st := game.MustNew(game.TwoMiner(0.2))
		r := rng.New(1)
		if allocs := testing.AllocsPerRun(100, func() { p.Step(st, r) }); allocs != 0 {
			t.Errorf("%s.Step: %v allocs/op, want 0", p.Name(), allocs)
		}
	}
}
