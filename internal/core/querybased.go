package core

import (
	"context"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The query-based (QB) strategy of Section V-B computes, in a single
// backward sweep from the query horizon to t = 0, a scoring vector
// score(t0) whose entry s is the probability that an object located at
// state s at time t0 satisfies the query predicate. Every object is then
// answered with one sparse dot product — the batch evaluation that makes
// QB orders of magnitude faster than OB on large databases.
//
// The sweep works on the transposed chain. Where the paper transposes
// the augmented matrices (M±)ᵀ, we fold the absorbing state in
// implicitly: stepping backward INTO a query timestamp first replaces
// the scores of states inside S□ by 1 (any world standing there is a
// certain hit — the redirected column of M+), then applies Mᵀ.
//
// Far values. Every backward lane of this package (the PST∃Q score here,
// PSTkQ's visit vectors in ktimes.go, an expression's flag-word family in
// plan.go and the fused batch columns in batch.go) is stored as a
// non-negative offset from its far value: the 0 or 1 that a state holds
// when it is outside the backward reach of every small region. A lane
// whose far value is 1 holds 1 − value. The chain is row-stochastic
// (Definition 5; NewChain checks it to 1e-9), so M·(1 − x) = 1 − M·x and
// the offset steps with the same support-scatter kernel as any other
// lane: a sweep costs the reach of the small regions, never |S| a step.
// A row that sums to 1 − δ instead of 1 moves an answer by at most δ per
// step, so the error is bounded by (horizon − t0) × the chain's largest
// row-sum deviation. The sweeps materialize their results at t0, once, so
// cached vectors and the dot products that read them keep their shape.
//
// Sweep results are shared engine-wide through the score cache; the
// per-object machinery lives in the kernel layer (kernel.go).

// hitScores runs the backward sweep down to time t0 and returns the
// scoring vector. The result additionally accounts for t0 itself being a
// query timestamp (footnote 2 of the paper): scores of states in S□ are
// pinned to 1. The sweep checks ctx once per backward step and aborts
// with ctx.Err() on cancellation. Scratch buffers come from pool (nil is
// allowed); the returned vector is freshly owned by the caller.
//
// A region covering more than half of S (the complement a PST∀Q
// evaluates) is swept against the far value 1: the lane holds the
// survival probability 1 − score, which lives on the backward reach of
// the states outside the region — the paper's survival sweep.
func hitScores(ctx context.Context, chain *markov.Chain, w *window, t0 int, pool *sparse.VecPool) (*sparse.Vec, error) {
	lane, far, err := hitLane(ctx, chain, w, t0, pool)
	if err == nil && far {
		settleFar(lane)
	}
	return lane, err
}

// hitLane is hitScores's sweep without the final materialization: the
// lane at t0 and whether it is held against the far value 1.
func hitLane(ctx context.Context, chain *markov.Chain, w *window, t0 int, pool *sparse.VecPool) (*sparse.Vec, bool, error) {
	n := chain.NumStates()
	lane := pool.Get(n)
	if w.k == 0 || w.horizon < t0 {
		return lane, false, nil
	}
	far := w.coversMost()
	var seen *sparse.Bitset
	if far {
		// The lane as the horizon's pin leaves it: a world outside the
		// region there has not been hit yet.
		w.eachOutsideState(func(s int) { lane.Set(s, 1) })
		seen = sparse.NewBitset(n)
	}
	next := pool.Get(n)
	for t := w.horizon; t > t0; t-- {
		if err := ctx.Err(); err != nil {
			pool.Put(lane)
			pool.Put(next)
			return nil, false, err
		}
		if w.atTime(t) {
			pinLane(lane, w, far)
		}
		if far {
			// The fused batch kernel walks rows in ascending order; a far
			// lane does too, so EvaluateBatch keeps sequential Evaluate's
			// bits while the lane is sparse. (A near lane keeps its
			// support-list order, which its exists answers are pinned to.)
			lane.SortSupport(seen)
		}
		chain.StepBack(next, lane)
		lane, next = next, lane
	}
	if w.atTime(t0) {
		pinLane(lane, w, far)
	}
	pool.Put(next)
	return lane, far, nil
}

// pinLane sets score[s] = 1 for every state inside the (possibly
// inverted) spatial predicate — the redirected M+ column, viewed
// backward. A lane held against the far value 1 stores 1 − score, so the
// pin zeroes its region entries instead, at the cost of its support.
func pinLane(lane *sparse.Vec, w *window, far bool) {
	if !far {
		w.eachRegionState(func(s int) { lane.Set(s, 1) })
		return
	}
	lane.Range(func(s int, _ float64) {
		if w.inRegion(s) {
			lane.Set(s, 0)
		}
	})
	lane.Compact()
}

// settleFar materializes a lane held against the far value 1 in place:
// every entry x becomes 1 − x, clamped at 0 so that rounding cannot leave
// a negative probability.
func settleFar(lane *sparse.Vec) {
	for s := 0; s < lane.Len(); s++ {
		lane.Set(s, max(0, 1-lane.At(s)))
	}
}
