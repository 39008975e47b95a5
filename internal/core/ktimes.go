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

// The query-based PSTkQ sweep maintains, per chain group, the backward
// vectors B_k, where B_k(t)[s] is the probability that a world at state
// s at time t visits the window at exactly k of the query timestamps in
// (t, horizon]; stepping back INTO a query timestamp first re-indexes
// in-window states to consume one visit. Each object is then answered
// with |T□|+1 dot products.
//
// Only B_1 … B_K are swept, as the lanes of one block (querybased.go):
// one matrix traversal per step serves all K. Every world makes some
// number of visits, so B_0 = 1 − Σ_{k≥1} B_k on a row-stochastic chain:
// B_0 is the lane whose far value is 1, and the offset it would store is
// the sum of the others, written into the block's last lane at t0. Each
// B_k with k ≥ 1 lives on the backward reach of S□.

// kTimesBackward produces the scoring vectors B_0 … B_K at time t0,
// checking ctx once per backward step. Its block comes from fpool (nil
// allowed); the returned vectors are owned by the caller (and typically
// handed to the score cache).
func kTimesBackward(ctx context.Context, chain *markov.Chain, w *window, t0 int, fpool *sparse.FloatPool) ([]*sparse.Vec, error) {
	K := w.k
	blk := newLaneBlock(chain.NumStates(), K+1, fpool)
	defer blk.release()
	mt := chain.Transposed()
	active := 0 // lanes B_1 … B_active can be non-zero: one per visit consumed
	for t := w.horizon; t >= t0; t-- {
		if w.atTime(t) {
			consumeVisit(blk, w)
			active = min(active+1, K)
		}
		if t == t0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		blk.stepBack(mt, active)
	}
	blk.far[K] = true
	blk.live.Range(func(s int) {
		row := blk.row(s)
		for _, x := range row[:K] {
			row[K] += x
		}
	})
	backs := []*sparse.Vec{blk.column(K)}
	for k := range K {
		backs = append(backs, blk.column(k))
	}
	return backs, nil
}

// consumeVisit re-indexes B_1 … B_K (lanes 0 … K−1) at a query
// timestamp: a world standing inside the window consumes one visit, so
// B_k[s ∈ S□] becomes B_{k-1}[s], with B_0[s] = 1 − Σ_{k≥1} B_k[s] read
// off the others (and a world inside the window cannot have zero visits
// from here on).
func consumeVisit(blk *laneBlock, w *window) {
	w.eachRegionState(func(s int) {
		row := blk.row(s)[:blk.k-1]
		sum := 0.0
		for _, x := range row {
			sum += x
		}
		copy(row[1:], row)
		row[0] = max(0, 1-sum)
	})
}
