package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The multi-observation kernels. They read each observation's pdf
// directly and run on lane blocks (querybased.go), stepped forward over
// M by the kernel every other pass uses: the doubled state space of
// Section VI is a K=2 block whose row s holds [pNot pHit], and the
// posterior a K=1 block forward and another backward over Mᵀ for the
// likelihood. An observation fusion is a gather over the pdf's support:
// the fused result's support is contained in the observation's, so the
// fused block's live rows become that support, and the only per-call
// state is the pooled blocks. The per-row products do not depend on the
// order a pdf visits its entries; every sum runs over the block's live
// rows in ascending order, so a pdf gives the same bits whatever its
// iteration order.

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

// fuse multiplies every lane elementwise by the observation pdf (Lemma
// 1), through the spare buffer: the live rows become the pdf's support.
func (b *laneBlock) fuse(pdf *markov.Distribution) {
	clearRows(b.spare, b.spareLive, b.k)
	pdf.Range(func(s int, p float64) {
		src, dst := b.cur[s*b.k:s*b.k+b.k], b.spare[s*b.k:s*b.k+b.k]
		for c, x := range src {
			dst[c] = x * p
		}
		b.spareLive.Set(s)
	})
	b.swap()
}

// seed fills lane 0 with the pdf, normalized.
func (b *laneBlock) seed(pdf *markov.Distribution) error {
	pdf.Range(func(s int, p float64) { b.row(s)[0] = p })
	mass := b.sum(0)
	if mass <= 0 {
		return errImpossibleObs
	}
	inv := 1 / mass
	b.live.Range(func(s int) { b.cur[s*b.k] *= inv })
	return nil
}

var errImpossibleObs = errors.New("core: observations are mutually impossible under the motion model")

// existsMultiObsBlock computes P∃ for an object from its observations,
// sorted by time. pins may be nil (derived from w); pool may be nil
// (plain allocation). Semantics mirror existsMultiObsRow exactly — same
// pass structure, same deferred normalization — modulo floating-point
// summation order.
func existsMultiObsBlock(ctx context.Context, chain *markov.Chain, obs []Observation, w *window, pins []int32, pool *blockPool) (float64, error) {
	if len(obs) == 0 {
		return 0, fmt.Errorf("core: no observations")
	}
	if pins == nil {
		pins = regionPins(w)
	}
	blk := pool.get(chain.NumStates(), 2)
	defer pool.put(blk)
	if err := blk.seed(obs[0].PDF); err != nil {
		return 0, err
	}
	end := max(w.horizon, obs[len(obs)-1].Time)
	if _, err := fuseForward(ctx, blk, chain, obs, end, w, pins); err != nil {
		return 0, err
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

// fuseForward steps a seeded block forward from the first observation's
// time to end, fusing every later observation and rescaling all lanes
// jointly after each fusion. With pins it is the doubled-space pass of
// existsMultiObsBlock: lane 0 holds the worlds that have not hit window
// w yet, lane 1 those that have, and at every window timestamp the
// pinned region rows move from lane 0 to lane 1. Without, it is that
// pass's lane 0 alone on a one-lane block — bit for bit, since a lane's
// bits do not depend on the block it shares — as long as lane 1 would
// stay zero (multiObsFeasible). It fails with errImpossibleObs when a
// fusion leaves no mass. finite reports whether every rescale factor was
// a finite positive number: only then does a zero lane stay +0.
func fuseForward(ctx context.Context, blk *laneBlock, chain *markov.Chain, obs []Observation, end int, w *window, pins []int32) (finite bool, err error) {
	t := obs[0].Time
	if pins != nil && w.atTime(t) {
		transferPinned(blk, pins)
	}
	nextObs := 1
	m := chain.Matrix()
	finite = true
	for ; t < end; t++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		blk.step(m, blk.k)
		if pins != nil && w.atTime(t+1) {
			transferPinned(blk, pins)
		}
		if nextObs < len(obs) && obs[nextObs].Time == t+1 {
			blk.fuse(obs[nextObs].PDF)
			nextObs++
			total := 0.0
			blk.live.Range(func(s int) {
				row := blk.cur[s*blk.k : s*blk.k+blk.k]
				r := row[0]
				for _, x := range row[1:] {
					r += x
				}
				total += r
			})
			if total == 0 {
				return false, errImpossibleObs
			}
			// Rescale jointly; the ratio P(B)/(P(B)+P(C)) is invariant
			// under a common factor and renormalizing here prevents
			// underflow across long observation sequences.
			inv := 1 / total
			finite = finite && inv > 0 && inv <= math.MaxFloat64
			blk.live.Range(func(s int) {
				row := blk.cur[s*blk.k : s*blk.k+blk.k]
				for c := range row {
					row[c] *= inv
				}
			})
		}
	}
	return finite, nil
}

// multiObsFeasible runs existsMultiObsBlock's pass without a window on
// one lane, from the first observation to the last: it fails with
// errImpossibleObs exactly where the two-lane pass does whenever that
// pass's hit lane stays zero, and reports whether every rescale factor
// was finite (fuseForward). Past the last observation the pass only
// steps its mass, rescaled to 1 there, over a row-stochastic matrix,
// which cannot empty it, so the check does not depend on the window's
// horizon: one per object version serves every window.
func multiObsFeasible(ctx context.Context, chain *markov.Chain, obs []Observation, pool *blockPool) (bool, error) {
	blk := pool.get(chain.NumStates(), 1)
	defer pool.put(blk)
	if err := blk.seed(obs[0].PDF); err != nil {
		return false, err
	}
	return fuseForward(ctx, blk, chain, obs, obs[len(obs)-1].Time, nil, nil)
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

// posteriorAtBlock computes the smoothed posterior P(o(t) | all
// observations) from observations sorted by time: a forward pass with
// observation fusion, then — when observations exist after t — one
// backward likelihood sweep, each a pooled single-lane block (pool may
// be nil). The result is a fresh, immutable distribution.
func posteriorAtBlock(chain *markov.Chain, obs []Observation, t int, pool *blockPool) (*markov.Distribution, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	t0 := obs[0].Time
	if t < t0 {
		return nil, fmt.Errorf("core: cannot infer before the first observation (t=%d < %d)", t, t0)
	}
	n := chain.NumStates()
	blk := pool.get(n, 1)
	defer pool.put(blk)
	if err := blk.seed(obs[0].PDF); err != nil {
		return nil, err
	}

	end := max(t, obs[len(obs)-1].Time)
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
		if nextObs < len(obs) && obs[nextObs].Time == tau+1 {
			blk.fuse(obs[nextObs].PDF)
			nextObs++
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
		obsIdx := len(obs) - 1
		for tau := end; tau > t; tau-- {
			for obsIdx >= 0 && obs[obsIdx].Time > tau {
				obsIdx--
			}
			if obsIdx >= 0 && obs[obsIdx].Time == tau {
				like.fuse(obs[obsIdx].PDF)
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
	// Packed in the mode a Vec filled ascending would have: dense past
	// DenseThreshold·n non-zeros, its ascending support otherwise.
	inv := 1 / mass
	if float64(nnz) > sparse.DenseThreshold*float64(n) {
		for i, v := range atT {
			atT[i] = v * inv
		}
		return markov.FromVec(sparse.AdoptDense(atT)), nil
	}
	states, probs := make([]int32, 0, nnz), make([]float64, 0, nnz)
	for i, v := range atT {
		if v != 0 {
			states = append(states, int32(i))
			probs = append(probs, v*inv)
		}
	}
	return markov.FromColumns(n, states, probs), nil
}
