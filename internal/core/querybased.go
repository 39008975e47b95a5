package core

import (
	"context"
	"math/bits"

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
// One kernel. Every backward sweep of this package — the PST∃Q score
// here, PSTkQ's visit family (ktimes.go), an expression's flag-word
// family (plan.go) and the batch's fused columns (batch.go) — runs its K
// lanes as one laneBlock stepped by fusedStepBack: one traversal of the
// transposed matrix per step for all K lanes, every lane summing its
// rows in ascending order. A lane's bits therefore do not depend on the
// block it shares, and EvaluateBatch is bit-identical to sequential
// Evaluate by construction.
//
// Far values. Every lane is stored as a non-negative offset from its far
// value: the 0 or 1 that a state holds when it is outside the backward
// reach of every small region. A lane whose far value is 1 holds
// 1 − value. The chain is row-stochastic (Definition 5; NewChain checks
// it to 1e-9), so M·(1 − x) = 1 − M·x and the offset steps like any other
// lane: a sweep costs the reach of the small regions, never |S| a step.
// A row that sums to 1 − δ instead of 1 moves an answer by at most δ per
// step, so the error is bounded by (horizon − t0) × the chain's largest
// row-sum deviation. The sweeps materialize their results at t0, once, so
// cached vectors and the dot products that read them keep their shape.
//
// Sweep results are shared engine-wide through the score cache; the
// per-object machinery lives in the kernel layer (kernel.go).

// hitScores runs the backward sweep down to time t0 and returns the
// scoring vector: a block of one lane. The result additionally accounts
// for t0 itself being a query timestamp (footnote 2 of the paper):
// scores of states in S□ are pinned to 1. The sweep checks ctx once per
// backward step and aborts with ctx.Err() on cancellation. Its block
// comes from fpool (nil is allowed); the returned vector is freshly
// owned by the caller.
//
// A region covering more than half of S (the complement a PST∀Q
// evaluates) is swept against the far value 1: the lane holds the
// survival probability 1 − score, which lives on the backward reach of
// the states outside the region — the paper's survival sweep.
func hitScores(ctx context.Context, chain *markov.Chain, w *window, t0 int, fpool *sparse.FloatPool) (*sparse.Vec, error) {
	n := chain.NumStates()
	if w.k == 0 || w.horizon < t0 {
		return sparse.NewVec(n), nil
	}
	blk := newLaneBlock(n, 1, fpool)
	defer blk.release()
	pins := blk.open(0, w, true)
	mt := chain.Transposed()
	for t := w.horizon; ; t-- {
		if w.atTime(t) {
			blk.pin(0, w, pins)
		}
		if t == t0 {
			return blk.column(0), nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		blk.stepBack(mt, 1)
	}
}

// laneBlock is the state-major block of K backward lanes over n states:
// row s holds every lane's entry at s, contiguously. Both buffers come
// from a FloatPool and are zero outside their live rows, so every
// operation visits live rows only. far[c] marks lane c as held against
// the far value 1.
type laneBlock struct {
	n, k            int
	cur, spare      []float64
	live, spareLive *sparse.Bitset
	far             []bool
	fpool           *sparse.FloatPool
}

func newLaneBlock(n, k int, fpool *sparse.FloatPool) *laneBlock {
	return &laneBlock{
		n: n, k: k,
		cur: fpool.Get(n * k), spare: fpool.Get(n * k),
		live: sparse.NewBitset(n), spareLive: sparse.NewBitset(n),
		far:   make([]bool, k),
		fpool: fpool,
	}
}

// release hands the buffers back to the pool; the block is dead after.
func (b *laneBlock) release() {
	b.fpool.Put(b.cur)
	b.fpool.Put(b.spare)
	b.cur, b.spare = nil, nil
}

// row returns state s's lanes for writing and marks the row live.
func (b *laneBlock) row(s int) []float64 {
	b.live.Set(s)
	return b.cur[s*b.k : s*b.k+b.k : s*b.k+b.k]
}

// stepBack advances lanes [0, active) one backward step over the
// transposed matrix mt; the other lanes are dropped.
func (b *laneBlock) stepBack(mt *sparse.CSR, active int) {
	fusedStepBack(b.spare, b.cur, b.spareLive, b.live, mt, b.k, active)
	b.cur, b.spare = b.spare, b.cur
	b.live, b.spareLive = b.spareLive, b.live
}

// open gives lane c window w's far value and returns w's region as a pin
// list when the lane is near (nil when far). A lane that starts at w's
// horizon also takes the state the horizon's pin leaves a far lane in: a
// world outside the region there has not been hit yet.
func (b *laneBlock) open(c int, w *window, start bool) []int32 {
	if b.far[c] = w.coversMost(); !b.far[c] {
		return regionPins(w)
	}
	if start {
		w.eachOutsideState(func(s int) { b.row(s)[c] = 1 })
	}
	return nil
}

// pin sets lane c's score to 1 on every state inside the (possibly
// inverted) spatial predicate — the redirected M+ column, viewed
// backward. A lane held against the far value 1 zeroes its live region
// rows instead; a near lane sets its pins.
func (b *laneBlock) pin(c int, w *window, pins []int32) {
	if !b.far[c] {
		for _, s := range pins {
			b.row(int(s))[c] = 1
		}
		return
	}
	b.live.Range(func(s int) {
		if w.inRegion(s) {
			b.cur[s*b.k+c] = 0
		}
	})
}

// copyColumn overwrites lane dst with lane src; zeroColumn clears lane c.
func (b *laneBlock) copyColumn(dst, src int) {
	b.live.Range(func(s int) { b.cur[s*b.k+dst] = b.cur[s*b.k+src] })
}

func (b *laneBlock) zeroColumn(c int) {
	b.live.Range(func(s int) { b.cur[s*b.k+c] = 0 })
}

// permute replaces lane c by lane from[c] on every live row, through the
// spare buffer; prev then reads a row as it was before.
func (b *laneBlock) permute(from []int) {
	b.spareLive.Range(func(s int) { clear(b.spare[s*b.k : s*b.k+b.k]) })
	b.spareLive.CopyFrom(b.live)
	b.live.Range(func(s int) {
		src, dst := b.cur[s*b.k:s*b.k+b.k], b.spare[s*b.k:s*b.k+b.k]
		for c, f := range from {
			dst[c] = src[f]
		}
	})
	b.cur, b.spare = b.spare, b.cur
	b.live, b.spareLive = b.spareLive, b.live
}

func (b *laneBlock) prev(s int) []float64 { return b.spare[s*b.k : s*b.k+b.k] }

// column materializes lane c as a vector the caller owns, a far lane
// settled to max(0, 1 − x) so that rounding cannot leave a negative
// probability. With at most DenseThreshold·n non-zeros it is built in
// sparse mode, its support ascending (the shape a Vec filled in
// ascending order keeps), and in dense mode past that.
func (b *laneBlock) column(c int) *sparse.Vec {
	data := make([]float64, b.n)
	nnz := 0
	if b.far[c] {
		for s := range data {
			data[s] = 1
		}
		nnz = b.n
	}
	b.live.Range(func(s int) {
		x := b.cur[s*b.k+c]
		if b.far[c] {
			x = max(0, 1-x)
			nnz--
		}
		if data[s] = x; x != 0 {
			nnz++
		}
	})
	if nnz > int(sparse.DenseThreshold*float64(b.n)) {
		return sparse.AdoptDense(data)
	}
	supp := make([]int, 0, nnz)
	for s, x := range data {
		if x != 0 {
			supp = append(supp, s)
		}
	}
	return sparse.AdoptSparse(data, supp)
}

// fusedStepBack advances the first `active` columns of a state-major
// block one backward step: the block analogue of chain.StepBack (dst =
// x · Mᵀ, Gustavson row scatter). xLive holds every row of x that can be
// non-zero; they are visited in ascending order, and a row whose live
// columns are all zero is skipped without touching the matrix row at
// all, so a step costs the columns' reach, not n·K. dst is cleared on
// the rows dstLive held, and dstLive becomes the rows written. The loop
// makes no call per row or edge (Bitset.Set inlines). A one-column block
// (every PST∃Q sweep outside a batch) takes the same loop with its row
// slicing written out: the general form costs it about a third more.
func fusedStepBack(dst, x []float64, dstLive, xLive *sparse.Bitset, mt *sparse.CSR, K, active int) {
	for wi, w := range dstLive.Words64() {
		for ; w != 0; w &= w - 1 {
			j := wi<<6 + bits.TrailingZeros64(w)
			clear(dst[j*K : j*K+K])
		}
	}
	dstLive.Reset()
	if active == 0 {
		return
	}
	for wi, w := range xLive.Words64() {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if K == 1 {
				xi := x[i]
				if xi == 0 {
					continue
				}
				cols, vals := mt.RowSlices(i)
				vals = vals[:len(cols)]
				for p, j := range cols {
					dstLive.Set(j)
					dst[j] += xi * vals[p]
				}
				continue
			}
			xb := x[i*K : i*K+active : i*K+active]
			nz := false
			for _, v := range xb {
				if v != 0 {
					nz = true
					break
				}
			}
			if !nz {
				continue
			}
			cols, vals := mt.RowSlices(i)
			vals = vals[:len(cols)] // equal lengths: lets the compiler drop bounds checks
			for p, j := range cols {
				v := vals[p]
				dstLive.Set(j)
				db := dst[j*K : j*K+active : j*K+active]
				db = db[:len(xb)]
				for c, xc := range xb {
					db[c] += xc * v
				}
			}
		}
	}
}
