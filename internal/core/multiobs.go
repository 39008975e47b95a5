package core

import (
	"fmt"

	"ust/internal/markov"
)

// Multiple observations (Section VI of the paper). The paper doubles the
// state space to S × {¬hit, hit} so that worlds which already intersected
// the query window keep their current state and stay fusible with later
// observations. We represent the doubled space as two parallel vectors:
//
//	pNot — mass of worlds that have not yet intersected the window,
//	pHit — mass of worlds that have.
//
// Stepping both vectors by M and sweeping the in-window part of pNot
// into pHit at query timestamps is exactly the action of the paper's
// 2|S|×2|S| matrices M− and M+ without materializing them.
//
// At an observation time both halves are multiplied elementwise by the
// observation pdf (Lemma 1); normalization is deferred to the end, which
// leaves the possible-worlds ratio P(B)/(P(B)+P(C)) (Equation 1)
// unchanged while avoiding per-step rounding.

// PosteriorAt returns the object's state distribution at time t given
// all its observations — the smoothed/interpolated distribution that
// Section VI's machinery induces. It runs the same two-vector pass
// without any query window (the window never absorbs), fusing every
// observation, then normalizes.
//
// Observations at times > t still inform the result only if t lies
// between observations; this implementation conditions on observations
// at times ≤ max(t, last observation) and evolves/fuses in order, which
// matches the paper's forward treatment.
func PosteriorAt(chain *markov.Chain, obs []Observation, t int) (*markov.Distribution, error) {
	return posteriorAtBlock(chain, obs, t, nil)
}

func errZeroMass(id int) error {
	return fmt.Errorf("core: object %d has zero-mass observation", id)
}

func errObservedAfterHorizon(id, tObs, horizon int) error {
	return fmt.Errorf("core: object %d observed at t=%d, after query horizon %d", id, tObs, horizon)
}
