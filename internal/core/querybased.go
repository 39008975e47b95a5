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
// Sweep results are shared engine-wide through the score cache; the
// per-object machinery lives in the kernel layer (kernel.go).

// hitScores runs the backward sweep down to time t0 and returns the
// scoring vector. The result additionally accounts for t0 itself being a
// query timestamp (footnote 2 of the paper): scores of states in S□ are
// pinned to 1. The sweep checks ctx once per backward step and aborts
// with ctx.Err() on cancellation. Scratch buffers come from pool (nil is
// allowed); the returned vector is freshly owned by the caller.
func hitScores(ctx context.Context, chain *markov.Chain, w *window, t0 int, pool *sparse.VecPool) (*sparse.Vec, error) {
	n := chain.NumStates()
	score := pool.Get(n)
	if w.k == 0 || w.horizon < t0 {
		return score, nil
	}
	next := pool.Get(n)
	for t := w.horizon; t > t0; t-- {
		if err := ctx.Err(); err != nil {
			pool.Put(score)
			pool.Put(next)
			return nil, err
		}
		if w.atTime(t) {
			pinRegion(score, w)
		}
		chain.StepBack(next, score)
		score, next = next, score
	}
	if w.atTime(t0) {
		pinRegion(score, w)
	}
	pool.Put(next)
	return score, nil
}

// pinRegion sets score[s] = 1 for every state inside the (possibly
// inverted) spatial predicate — the redirected M+ column, viewed
// backward.
func pinRegion(score *sparse.Vec, w *window) {
	w.eachRegionState(func(s int) { score.Set(s, 1) })
}
