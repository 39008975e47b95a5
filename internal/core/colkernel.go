package core

import (
	"context"
	"errors"
	"fmt"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The multi-observation kernels. They consume ObsSeg column blocks
// directly and run on lane blocks (querybased.go), stepped forward over
// M by the kernel every other pass uses: the doubled state space of
// Section VI is a K=2 block whose row s holds [pNot pHit], and the
// posterior a K=1 block forward and another backward over Mᵀ for the
// likelihood. An observation fusion is a gather over the observation's
// support columns: the fused result's support is contained in the
// observation's, so the fused block's live rows become that support, and
// the only per-call state is the pooled blocks.

// regionPins materializes the window's (possibly inverted) spatial
// predicate as a flat state list — the columnar form of eachRegionState,
// built once per kern or sweep and reused across objects and steps.
func regionPins(w *window) []int32 {
	size := len(w.states)
	if w.invert {
		size = len(w.mask) - size
	}
	pins := make([]int32, 0, size)
	w.eachRegionState(func(s int) { pins = append(pins, int32(s)) })
	return pins
}

// fuse multiplies every lane elementwise by the observation pdf given as
// support columns (Lemma 1), through the spare buffer, and returns the
// total remaining mass: the live rows become the observation's support.
func (b *laneBlock) fuse(ids []int32, probs []float64) float64 {
	clearRows(b.spare, b.spareLive, b.k)
	total := 0.0
	for p, s := range ids {
		src, dst := b.cur[int(s)*b.k:int(s)*b.k+b.k], b.spare[int(s)*b.k:int(s)*b.k+b.k]
		row := 0.0
		for c, x := range src {
			dst[c] = x * probs[p]
			row += dst[c]
		}
		total += row
		b.spareLive.Set(int(s))
	}
	b.swap()
	return total
}

// seedSeg fills lane 0 with the segment's first observation, normalized.
func (b *laneBlock) seedSeg(seg ObsSeg) error {
	ids, probs := seg.Supp(0)
	mass := 0.0
	for _, v := range probs {
		mass += v
	}
	if mass <= 0 {
		return errImpossibleObs
	}
	inv := 1 / mass
	for p, s := range ids {
		b.row(int(s))[0] = probs[p] * inv
	}
	return nil
}

var errImpossibleObs = errors.New("core: observations are mutually impossible under the motion model")

// existsMultiObsSeg computes P∃ for a multi-observation object from its
// column segment. pins may be nil (derived from w); pool may be nil
// (plain allocation). Semantics mirror existsMultiObsRow exactly — same
// pass structure, same deferred normalization — modulo floating-point
// summation order.
func existsMultiObsSeg(ctx context.Context, chain *markov.Chain, seg ObsSeg, w *window, pins []int32, pool *blockPool) (float64, error) {
	if seg.Len() == 0 {
		return 0, fmt.Errorf("core: no observations")
	}
	if pins == nil {
		pins = regionPins(w)
	}
	blk := pool.get(chain.NumStates(), 2)
	defer pool.put(blk)
	if err := blk.seedSeg(seg); err != nil {
		return 0, err
	}

	end := w.horizon
	if last := int(seg.Times[seg.Len()-1]); last > end {
		end = last
	}
	t := int(seg.Times[0])
	if w.atTime(t) {
		transferPinned(blk, pins)
	}
	nextObs := 1
	m := chain.Matrix()
	for ; t < end; t++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		blk.step(m, 2)
		if w.atTime(t + 1) {
			transferPinned(blk, pins)
		}
		if nextObs < seg.Len() && int(seg.Times[nextObs]) == t+1 {
			oIds, oProbs := seg.Supp(nextObs)
			nextObs++
			total := blk.fuse(oIds, oProbs)
			if total == 0 {
				return 0, errImpossibleObs
			}
			// Rescale jointly; the ratio P(B)/(P(B)+P(C)) is invariant
			// under a common factor and renormalizing here prevents
			// underflow across long observation sequences.
			inv := 1 / total
			for _, s := range oIds {
				blk.cur[2*int(s)] *= inv
				blk.cur[2*int(s)+1] *= inv
			}
		}
	}
	b, c := 0.0, 0.0
	blk.live.Range(func(s int) {
		c += blk.cur[2*s]
		b += blk.cur[2*s+1]
	})
	total := b + c
	if total == 0 {
		return 0, errImpossibleObs
	}
	return b / total, nil
}

// transferPinned moves in-window mass from the pNot lane into the pHit
// lane — the redirected block of the doubled M+ matrix, as an O(|S□|)
// walk over the pinned region states (a row that is not live holds
// zeros, and keeps them).
func transferPinned(blk *laneBlock, pins []int32) {
	for _, s := range pins {
		blk.cur[2*s+1] += blk.cur[2*s]
		blk.cur[2*s] = 0
	}
}

// posteriorAtSeg computes the smoothed posterior P(o(t) | all
// observations) from a column segment: a forward pass with observation
// fusion, then — when observations exist after t — one backward
// likelihood sweep, each a pooled single-lane block (pool may be nil).
// The result is a fresh vector the caller owns.
func posteriorAtSeg(chain *markov.Chain, seg ObsSeg, t int, pool *blockPool) (*sparse.Vec, error) {
	if seg.Len() == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	t0 := int(seg.Times[0])
	if t < t0 {
		return nil, fmt.Errorf("core: cannot infer before the first observation (t=%d < %d)", t, t0)
	}
	n := chain.NumStates()
	blk := pool.get(n, 1)
	defer pool.put(blk)
	if err := blk.seedSeg(seg); err != nil {
		return nil, err
	}

	end := t
	if last := int(seg.Times[seg.Len()-1]); last > end {
		end = last
	}
	// atT is the forward mass at t, then the posterior's backing.
	atT := make([]float64, n)
	snapshot := func() { blk.live.Range(func(s int) { atT[s] = blk.cur[s] }) }
	if t0 == t {
		snapshot()
	}
	nextObs := 1
	m := chain.Matrix()
	for tau := t0; tau < end; tau++ {
		blk.step(m, 1)
		if nextObs < seg.Len() && int(seg.Times[nextObs]) == tau+1 {
			oIds, oProbs := seg.Supp(nextObs)
			nextObs++
			blk.fuse(oIds, oProbs)
		}
		if blk.sum(0) == 0 {
			return nil, errImpossibleObs
		}
		if tau+1 == t {
			snapshot()
		}
	}
	if t < end {
		// Future observations reweight the past: multiply by the
		// backward likelihood L[s] = P(observations in (t, end] | s at t),
		// stepped over the transposed matrix (dst[i] += like[j]·M[i,j]).
		// Its live rows collapse to the last observation's support on
		// the first fusion.
		like := pool.get(n, 1)
		defer pool.put(like)
		for s := range n {
			like.row(s)[0] = 1
		}
		mt := chain.Transposed()
		obsIdx := seg.Len() - 1
		for tau := end; tau > t; tau-- {
			for obsIdx >= 0 && int(seg.Times[obsIdx]) > tau {
				obsIdx--
			}
			if obsIdx >= 0 && int(seg.Times[obsIdx]) == tau {
				like.fuse(seg.Supp(obsIdx))
			}
			like.step(mt, 1)
		}
		for i, x := range like.cur {
			atT[i] *= x
		}
	}
	mass := 0.0
	nnz := 0
	for _, v := range atT {
		mass += v
		if v != 0 {
			nnz++
		}
	}
	if mass == 0 {
		return nil, errImpossibleObs
	}
	inv := 1 / mass
	if float64(nnz) > sparse.DenseThreshold*float64(n) {
		for i, v := range atT {
			atT[i] = v * inv
		}
		return sparse.AdoptDense(atT), nil
	}
	supp := make([]int, 0, nnz)
	for i, v := range atT {
		if v != 0 {
			atT[i] = v * inv
			supp = append(supp, i)
		}
	}
	return sparse.AdoptSparse(atT, supp), nil
}

// segForObject returns the database plane's segment for exactly this
// object version, falling back to a transient row→column conversion for
// free-standing objects (plane-less callers, stale pointers, objects not
// inserted into the kern's database).
func segForObject(cols *ObsColumns, o *Object) ObsSeg {
	if cols != nil {
		if seg, ok := cols.segmentOf(o); ok {
			return seg
		}
	}
	return segFromObservations(o.Observations)
}
