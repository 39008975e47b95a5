package core

import (
	"context"

	"ust/internal/markov"
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
// at exactly k query timestamps). The matrix is one block from pool (nil
// allowed) whose lane k holds C(t)'s row k: one traversal of M per step
// moves every visit count reachable so far. A world reaches the count
// |T□| only at the last query timestamp, the horizon, where no step
// follows, so that count needs no lane: the block has |T□| lanes.
//
// Mass whose count is final is parked in out[k] instead of being
// carried to the horizon: mass reaching the count |T□|, and, with a
// reach cone, mass that has left the cone and can never enter S□ at a
// query time again (the pass clips every row before it steps, and ends
// when no row is left). The parked mass joins the sum in a different
// order than the unclipped pass adds it, so clipped distributions agree
// with unclipped ones to rounding (1e-12), not to the bit.
func kTimesForward(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, pool *blockPool) ([]float64, error) {
	K := w.k
	b := seed.open(pool, K)
	defer pool.put(b)
	m := chain.Matrix()
	out := make([]float64, K+1)
	active := 1 // visit counts 0 … active−1 can hold mass: one more per query time
	if w.atTime(seed.t0) {
		addVisit(b, w, out)
		active = min(active+1, K)
	}
	for t := seed.t0; t < w.horizon; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed.clip(b, t, out)
		if !b.live.Any() {
			break // every world's count is final
		}
		b.step(m, active)
		if w.atTime(t + 1) {
			addVisit(b, w, out)
			active = min(active+1, K)
		}
	}
	b.live.Range(func(s int) {
		for c, x := range b.cur[s*K : s*K+K] {
			out[c] += x
		}
	})
	return out, nil
}

// addVisit moves the mass on every live row inside the window up one
// visit count at a query timestamp — the forward twin of consumeVisit —
// from the top down so each world moves exactly once. Mass leaving the
// last lane reaches the count |T□| and is parked in out.
func addVisit(b *laneBlock, w *window, out []float64) {
	b.live.Range(func(s int) {
		if w.inRegion(s) {
			row := b.cur[s*b.k : s*b.k+b.k]
			out[b.k] += row[b.k-1]
			for c := b.k - 1; c > 0; c-- {
				row[c] = row[c-1]
			}
			row[0] = 0
		}
	})
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

// kTimesBackward produces the scoring columns B_0 … B_K at time t0,
// checking ctx once per backward step. Its block comes from pool (nil
// allowed); the returned columns are owned by the caller (and typically
// handed to the score cache).
func kTimesBackward(ctx context.Context, chain *markov.Chain, w *window, t0 int, pool *blockPool) ([][]float64, error) {
	K := w.k
	blk := pool.get(chain.NumStates(), K+1)
	defer pool.put(blk)
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
		blk.step(mt, active)
	}
	blk.far[K] = true
	blk.live.Range(func(s int) {
		row := blk.row(s)
		for _, x := range row[:K] {
			row[K] += x
		}
	})
	backs := [][]float64{blk.column(K)}
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
