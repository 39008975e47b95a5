package core

import (
	"context"
	"fmt"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The row-oriented multi-observation passes (Section VI): two sparse.Vec
// halves of the doubled state space, stepped and fused with each stored
// pdf's Vec. The engine runs the lane-block passes (colkernel.go);
// these are their test references.

// existsMultiObsRow is the historical Vec-based pass: the reference
// existsMultiObsBlock is cross-checked and benchmarked against.
func existsMultiObsRow(ctx context.Context, chain *markov.Chain, obs []Observation, w *window) (float64, error) {
	if len(obs) == 0 {
		return 0, fmt.Errorf("core: no observations")
	}
	n := chain.NumStates()
	pNot := obs[0].PDF.Vec().Clone()
	pNot.Normalize()
	pHit := sparse.NewVec(n)

	// The pass must run to the later of the query horizon and the last
	// observation: observations after the window still reweight worlds.
	end := w.horizon
	if last := obs[len(obs)-1].Time; last > end {
		end = last
	}
	nextObs := 1 // obs[0] seeds the pass

	t := obs[0].Time
	if w.atTime(t) {
		transferHits(pNot, pHit, w)
	}
	bufA := sparse.NewVec(n)
	bufB := sparse.NewVec(n)
	for ; t < end; t++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		chain.Step(bufA, pNot)
		pNot, bufA = bufA, pNot
		chain.Step(bufB, pHit)
		pHit, bufB = bufB, pHit
		if w.atTime(t + 1) {
			transferHits(pNot, pHit, w)
		}
		fused := false
		for nextObs < len(obs) && obs[nextObs].Time == t+1 {
			// Lemma 1: elementwise product with the observation pdf.
			pNot.Hadamard(obs[nextObs].PDF.Vec())
			pHit.Hadamard(obs[nextObs].PDF.Vec())
			nextObs++
			fused = true
		}
		if fused {
			// Rescale jointly; the ratio P(B)/(P(B)+P(C)) is invariant
			// under a common factor and renormalizing here prevents
			// underflow across long observation sequences.
			total := pNot.Sum() + pHit.Sum()
			if total == 0 {
				return 0, fmt.Errorf("core: observations are mutually impossible under the motion model")
			}
			pNot.Scale(1 / total)
			pHit.Scale(1 / total)
		}
	}
	b := pHit.Sum() // worlds that satisfy the predicate (class B)
	c := pNot.Sum() // possible worlds that do not (class C)
	total := b + c
	if total == 0 {
		return 0, fmt.Errorf("core: observations are mutually impossible under the motion model")
	}
	return b / total, nil
}

// transferHits moves in-window mass from pNot into the same states of
// pHit: the redirected block of the doubled M+ matrix.
func transferHits(pNot, pHit *sparse.Vec, w *window) {
	pNot.Range(func(i int, x float64) {
		if w.inRegion(i) {
			pHit.Add(i, x)
			pNot.Set(i, 0)
		}
	})
	pNot.Compact()
}

// posteriorAtRow is the historical Vec-based smoothing pass: the
// reference for posteriorAtBlock. It allocates a fresh vector per
// backward step, which is exactly the GC pressure posteriorAtBlock
// removes.
func posteriorAtRow(chain *markov.Chain, obs []Observation, t int) (*markov.Distribution, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	if t < obs[0].Time {
		return nil, fmt.Errorf("core: cannot infer before the first observation (t=%d < %d)", t, obs[0].Time)
	}
	n := chain.NumStates()
	cur := obs[0].PDF.Vec().Clone()
	cur.Normalize()
	end := t
	if last := obs[len(obs)-1].Time; last > end {
		end = last
	}
	// forward[τ] snapshots are needed only at τ == t; keep one clone.
	var atT *sparse.Vec
	if obs[0].Time == t {
		atT = cur.Clone()
	}
	nextObs := 1
	buf := sparse.NewVec(n)
	for tau := obs[0].Time; tau < end; tau++ {
		chain.Step(buf, cur)
		cur, buf = buf, cur
		for nextObs < len(obs) && obs[nextObs].Time == tau+1 {
			cur.Hadamard(obs[nextObs].PDF.Vec())
			nextObs++
		}
		if cur.Sum() == 0 {
			return nil, fmt.Errorf("core: observations are mutually impossible under the motion model")
		}
		if tau+1 == t {
			atT = cur.Clone()
		}
	}
	if atT == nil {
		return nil, fmt.Errorf("core: internal error: no snapshot at t=%d", t)
	}
	if t < end {
		// Future observations reweight the past: the proper smoothed
		// posterior needs a backward pass. Compute it as
		// P(s at t | future obs) ∝ P(s at t) · P(future obs | s at t)
		// via one backward sweep of likelihoods.
		like := likelihoodBackward(chain, obs, t, end)
		atT.Hadamard(like)
	}
	if atT.Normalize() == 0 {
		return nil, fmt.Errorf("core: observations are mutually impossible under the motion model")
	}
	return markov.FromVec(atT), nil
}

// likelihoodBackward returns the vector L with L[s] = P(observations in
// (t, end] | state s at time t), computed by a backward sweep with the
// transposed chain.
func likelihoodBackward(chain *markov.Chain, obs []Observation, t, end int) *sparse.Vec {
	n := chain.NumStates()
	// L(end) starts as all ones *after* folding observations at end.
	like := sparse.NewVec(n)
	for i := 0; i < n; i++ {
		like.Set(i, 1)
	}
	for tau := end; tau > t; tau-- {
		for _, ob := range obs {
			if ob.Time == tau {
				like.Hadamard(ob.PDF.Vec())
			}
		}
		// L(tau-1)[s] = Σ_j M[s,j] · L(tau)[j] = row-wise MatVec.
		next := sparse.NewVec(n)
		sparse.MatVec(next, chain.Matrix(), like)
		like = next
	}
	return like
}
