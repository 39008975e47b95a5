package core

import (
	"context"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// PSTkQ (Definition 4, algorithm of Section VII): the probability
// distribution over the number of query timestamps at which the object
// lies inside S□.
//
// The memory-efficient algorithm maintains the (|T□|+1) × |S| matrix
// C(t): entry c[k][s] is the probability that the object is at state s
// at time t having been inside the window at exactly k processed query
// timestamps. Each transition multiplies every row by M; arriving at a
// query timestamp shifts the in-window columns down one row (the visit
// count increments).

// kTimesForward is the per-object PSTkQ kernel of the object-based
// forward algorithm over a compiled (non-empty) window: it steps the
// count matrix forward from the seed, checking ctx once per transition.
// The returned slice has |T□|+1 entries; entry k is P(object inside S□
// at exactly k query timestamps). All |T□|+2 scratch rows come from pool
// (nil allowed) and return to it.
//
// With a reach cone the pass clips every row before it steps: mass that
// has left the cone can never enter S□ at a query time again, so its
// visit count is final — it is parked in out[k] instead of being carried
// to the horizon. The parked mass joins the sum in a different order
// than the unclipped pass adds it, so clipped distributions agree with
// unclipped ones to rounding (1e-12), not to the bit.
func kTimesForward(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, pool *sparse.VecPool) ([]float64, error) {
	n := chain.NumStates()
	rows := make([]*sparse.Vec, w.k+1)
	rows[0] = seed.start(pool)
	for i := 1; i < len(rows); i++ {
		rows[i] = pool.Get(n)
	}
	buf := pool.Get(n)
	defer func() {
		for _, r := range rows {
			pool.Put(r)
		}
		pool.Put(buf)
	}()
	out := make([]float64, w.k+1)
	if w.atTime(seed.t0) {
		shiftDown(rows, w)
	}
	for t := seed.t0; t < w.horizon; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Rows above the number of processed query times are all zero;
		// stepping them would be wasted work but correct. Step every
		// non-empty row.
		for i := range rows {
			out[i] += seed.clip(rows[i], t)
			if rows[i].NNZ() == 0 {
				continue
			}
			chain.Step(buf, rows[i])
			rows[i], buf = buf, rows[i]
		}
		if w.atTime(t + 1) {
			shiftDown(rows, w)
		}
	}
	for i, r := range rows {
		out[i] += r.Sum()
	}
	return out, nil
}

// shiftDown moves the in-window mass of row k into row k+1 (same
// states), from the top down so each world shifts exactly once. Mass in
// the last row stays: it has already visited at every query timestamp
// processed so far and the final shift would exceed |T□| (impossible —
// the last shift happens at the last query time, so the top row can only
// receive).
func shiftDown(rows []*sparse.Vec, w *window) {
	for i := len(rows) - 2; i >= 0; i-- {
		src, dst := rows[i], rows[i+1]
		src.Range(func(s int, x float64) {
			if w.inRegion(s) {
				dst.Add(s, x)
				src.Set(s, 0)
			}
		})
		src.Compact()
	}
}

// The query-based PSTkQ sweep maintains, per chain group, |T□|+1
// backward vectors B_k, where B_k(t)[s] is the probability that a world
// at state s at time t visits the window at exactly k of the query
// timestamps in (t, horizon]; stepping back INTO a query timestamp
// first re-indexes in-window states to consume one visit. Each object is
// then answered with |T□|+1 dot products.

// kTimesBackward produces the scoring vectors B_0 … B_K at time t0,
// checking ctx once per backward step. The returned vectors are owned by
// the caller (and typically handed to the score cache); only the swap
// buffer is pooled.
func kTimesBackward(ctx context.Context, chain *markov.Chain, w *window, t0 int, pool *sparse.VecPool) ([]*sparse.Vec, error) {
	n := chain.NumStates()
	backs := make([]*sparse.Vec, w.k+1)
	for k := range backs {
		backs[k] = pool.Get(n)
	}
	// At the horizon, no future query times remain: every state has
	// exactly 0 future visits with probability 1.
	for s := 0; s < n; s++ {
		backs[0].Set(s, 1)
	}
	buf := pool.Get(n)
	for t := w.horizon; t > t0; t-- {
		if err := ctx.Err(); err != nil {
			pool.Put(buf)
			return nil, err
		}
		if w.atTime(t) {
			consumeVisit(backs, w)
		}
		// B_k(t-1) = M · B_k(t) for every k.
		for k := range backs {
			sparse.MatVec(buf, chain.Matrix(), backs[k])
			backs[k], buf = buf, backs[k]
		}
	}
	if w.atTime(t0) {
		consumeVisit(backs, w)
	}
	pool.Put(buf)
	return backs, nil
}

// consumeVisit re-indexes the backward vectors at a query timestamp: a
// world standing inside the window consumes one visit, so B_k[s ∈ S□]
// becomes B_{k-1}[s ∈ S□], and B_0[s ∈ S□] becomes 0 (a world inside the
// window cannot have zero visits from here on). Processed top-down so
// each level moves once.
func consumeVisit(backs []*sparse.Vec, w *window) {
	for k := len(backs) - 1; k >= 1; k-- {
		dst, src := backs[k], backs[k-1]
		w.eachRegionState(func(s int) { dst.Set(s, src.At(s)) })
	}
	b0 := backs[0]
	w.eachRegionState(func(s int) { b0.Set(s, 0) })
	b0.Compact()
}
