package protocol

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/rng"
)

// Hybrid models Filecoin-style incentives (Section 6.4): mining power is
// a blend of a fixed physical resource (storage space, which rewards
// cannot buy) and pledged stake (which rewards compound into). The winner
// of each block is drawn with probability proportional to
//
//	power_i = Alpha · initialShare_i + (1 − Alpha) · stakeShare_i ,
//
// and the block reward joins the stake component only. Alpha = 1
// degenerates to PoW (constant power) and Alpha = 0 to ML-PoS (pure Pólya
// urn), so the model interpolates the fairness spectrum between the
// paper's two extremes — the knob a Filecoin-like designer actually has.
type Hybrid struct {
	// W is the block reward.
	W float64
	// Alpha is the fixed-resource weight in [0, 1].
	Alpha float64
}

// NewHybrid returns the hybrid model. It panics if w <= 0 or alpha is
// outside [0, 1].
func NewHybrid(w, alpha float64) Hybrid {
	validateReward("Hybrid", w)
	if !(alpha >= 0 && alpha <= 1) {
		panic(fmt.Sprintf("protocol: Hybrid needs alpha in [0, 1], got %v", alpha))
	}
	return Hybrid{W: w, Alpha: alpha}
}

// Name implements Protocol.
func (Hybrid) Name() string { return "Hybrid" }

// Step draws the winner over blended power and stakes the reward.
func (p Hybrid) Step(st *game.State, r *rng.Rand) {
	totalStake := st.TotalStake()
	// Up to 8 miners fit the stack array; larger games spill to the heap
	// through append.
	var buf [8]float64
	weights := buf[:0]
	for i := range st.Stakes {
		w := p.Alpha * st.Initial[i]
		if totalStake > 0 {
			w += (1 - p.Alpha) * st.Stakes[i] / totalStake
		}
		weights = append(weights, w)
	}
	winner := r.Categorical(weights)
	st.Credit(winner, p.W, p.W)
	st.EndBlock()
}
