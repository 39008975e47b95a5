package core

import (
	"context"
	"math/bits"
	"sync"

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
// One kernel. Every sweep of this package runs its K lanes as one
// laneBlock stepped by fusedStep: one traversal of the matrix per step
// for all K lanes, every lane summing its rows in ascending order. Given
// Mᵀ it steps backward — the PST∃Q score here, PSTkQ's visit family
// (ktimes.go), an expression's flag-word family (plan.go), the batch's
// fused columns (batch.go) and the posterior's likelihood (colkernel.go).
// Given M it steps forward — every object-based pass (objectbased.go,
// ktimes.go, plan.go) and the multi-observation and posterior passes
// (colkernel.go). A lane's bits therefore do not depend on the block it
// shares, EvaluateBatch is bit-identical to sequential Evaluate by
// construction, and a forward pass clipped to its reach cone is
// bit-identical to the unclipped one (objectbased.go).
//
// Far values. Every lane is stored as a non-negative offset from its far
// value: the 0 or 1 that a state holds when it is outside the backward
// reach of every small region. A lane whose far value is 1 holds
// 1 − value. The chain is row-stochastic (Definition 5; NewChain checks
// it to 1e-9), so M·(1 − x) = 1 − M·x and the offset steps like any other
// lane: a sweep costs the reach of the small regions, never |S| a step.
// A row that sums to 1 − δ instead of 1 moves an answer by at most δ per
// step, so the error is bounded by (horizon − t0) × the chain's largest
// row-sum deviation. The sweeps materialize their results at t0, once, as
// plain columns of |S| values (laneBlock.column): the score cache holds
// them, and every object's pdf drives its dot product against one.
//
// Sweep results are shared engine-wide through the score cache; the
// per-object machinery lives in the kernel layer (kernel.go).

// hitScores runs the backward sweep down to time t0 and returns the
// scoring vector: a block of one lane. The result additionally accounts
// for t0 itself being a query timestamp (footnote 2 of the paper):
// scores of states in S□ are pinned to 1. The sweep checks ctx once per
// backward step and aborts with ctx.Err() on cancellation. Its block
// comes from pool (nil is allowed); the returned column is freshly
// owned by the caller.
//
// A region covering more than half of S (the complement a PST∀Q
// evaluates) is swept against the far value 1: the lane holds the
// survival probability 1 − score, which lives on the backward reach of
// the states outside the region — the paper's survival sweep.
func hitScores(ctx context.Context, chain *markov.Chain, w *window, t0 int, pool *blockPool) ([]float64, error) {
	n := chain.NumStates()
	if w.k == 0 || w.horizon < t0 {
		return make([]float64, n), nil
	}
	blk := pool.get(n, 1)
	defer pool.put(blk)
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
		blk.step(mt, 1)
	}
}

// laneBlock is the state-major block of K lanes over n states: row s
// holds every lane's entry at s, contiguously. Each buffer's live set is
// exactly the rows written since the buffer was last cleared, and the
// buffer is zero on every other row, so every operation visits live rows
// only and a clear may sweep a span of rows without looking at which are
// live. far[c] marks lane c as held against the far value 1 (backward
// sweeps only; a forward lane is mass, and its far value is 0).
type laneBlock struct {
	n, k            int
	cur, spare      []float64
	live, spareLive *sparse.Bitset
	far             []bool
}

func newLaneBlock(n, k int) *laneBlock {
	b := &laneBlock{n: n, live: sparse.NewBitset(n), spareLive: sparse.NewBitset(n)}
	b.reshape(k)
	return b
}

// bytes is the memory b holds: both buffers, both live sets and the far
// flags.
func (b *laneBlock) bytes() int {
	return 8*(cap(b.cur)+cap(b.spare)+b.live.Words()+b.spareLive.Words()) + cap(b.far)
}

// reshape gives an empty block k lanes, re-slicing its zero buffers when
// they hold n·k values and allocating them when they do not.
func (b *laneBlock) reshape(k int) {
	if cap(b.cur) < b.n*k {
		b.cur, b.spare = make([]float64, b.n*k), make([]float64, b.n*k)
	}
	if cap(b.far) < k {
		b.far = make([]bool, k)
	}
	b.k, b.cur, b.spare, b.far = k, b.cur[:b.n*k], b.spare[:b.n*k], b.far[:k]
}

// blockPool recycles lane blocks — both buffers and both live sets —
// across passes and requests. put clears a block's live rows only, so a
// per-object pass pays O(live) to recycle its block, not n·K, and keeps
// it idle for the next get over the same n, whatever its lane count: a
// block keeps the largest buffers it was given, while the idle blocks
// hold at most maxIdleBytes of memory, counted by laneBlock.bytes (past
// that a block is left to the collector). Idle blocks are not dropped at
// every collection, as a sync.Pool's are: a pool that lost its widest
// block at each collection would allocate it again for most PSTkQ
// passes. The zero value is ready to use; a nil *blockPool allocates
// every block and drops what is put back.
type blockPool struct {
	mu    sync.Mutex
	idle  map[int][]*laneBlock // by state count
	bytes int                  // laneBlock.bytes of the idle blocks
}

// maxIdleBytes bounds the memory a pool keeps idle.
const maxIdleBytes = 32 << 20

// lanes is the one block pool every engine's sweeps and passes draw on,
// so that engines over the same state count — the shards of a process,
// an engine built again over a reloaded database — share idle blocks
// instead of each allocating its own.
var lanes blockPool

// get returns an empty block of K lanes over n states, every lane near.
func (p *blockPool) get(n, k int) *laneBlock {
	if p != nil {
		p.mu.Lock()
		if free := p.idle[n]; len(free) > 0 {
			b := free[len(free)-1]
			free[len(free)-1] = nil
			p.idle[n] = free[:len(free)-1]
			p.bytes -= b.bytes()
			p.mu.Unlock()
			b.reshape(k)
			return b
		}
		p.mu.Unlock()
	}
	return newLaneBlock(n, k)
}

// put clears b's live rows and keeps it idle; b is dead to the caller.
func (p *blockPool) put(b *laneBlock) {
	if p == nil {
		return
	}
	clearRows(b.cur, b.live, b.k)
	clearRows(b.spare, b.spareLive, b.k)
	clear(b.far)
	size := b.bytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bytes+size > maxIdleBytes {
		return
	}
	if p.idle == nil {
		p.idle = map[int][]*laneBlock{}
	}
	p.idle[b.n] = append(p.idle[b.n], b)
	p.bytes += size
}

// clearRows zeroes buf's K-wide rows on live and empties live. buf is
// zero off live (the block's invariant), so each non-zero word of live
// is cleared as one span, from its first live row to its last.
func clearRows(buf []float64, live *sparse.Bitset, K int) {
	for wi, w := range live.Words64() {
		if w == 0 {
			continue
		}
		lo := wi<<6 + bits.TrailingZeros64(w)
		hi := wi<<6 + 64 - bits.LeadingZeros64(w)
		clear(buf[lo*K : hi*K])
	}
	live.Reset()
}

// row returns state s's lanes for writing and marks the row live.
func (b *laneBlock) row(s int) []float64 {
	b.live.Set(s)
	return b.cur[s*b.k : s*b.k+b.k : s*b.k+b.k]
}

// step advances lanes [0, active) one step over m — the chain's matrix
// M forward, its transpose Mᵀ backward; the other lanes are dropped.
func (b *laneBlock) step(m *sparse.CSR, active int) {
	fusedStep(b, m, active)
	b.swap()
}

// swap makes the spare buffer current; the current one becomes spare.
func (b *laneBlock) swap() {
	b.cur, b.spare = b.spare, b.cur
	b.live, b.spareLive = b.spareLive, b.live
}

// sum totals lane c over the live rows, in ascending order.
func (b *laneBlock) sum(c int) float64 {
	total := 0.0
	b.live.Range(func(s int) { total += b.cur[s*b.k+c] })
	return total
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
	clearRows(b.spare, b.spareLive, b.k)
	b.spareLive.CopyFrom(b.live)
	b.live.Range(func(s int) {
		src, dst := b.cur[s*b.k:s*b.k+b.k], b.spare[s*b.k:s*b.k+b.k]
		for c, f := range from {
			dst[c] = src[f]
		}
	})
	b.swap()
}

func (b *laneBlock) prev(s int) []float64 { return b.spare[s*b.k : s*b.k+b.k] }

// column materializes lane c as a column of n values the caller owns,
// a far lane settled to max(0, 1 − x) so that rounding cannot leave a
// negative probability.
func (b *laneBlock) column(c int) []float64 {
	data := make([]float64, b.n)
	if b.far[c] {
		for s := range data {
			data[s] = 1
		}
	}
	b.live.Range(func(s int) {
		x := b.cur[s*b.k+c]
		if b.far[c] {
			x = max(0, 1-x)
		}
		data[s] = x
	})
	return data
}

// fusedStep advances the first `active` lanes of b one step over m into
// its spare buffer: spare = cur · m, a Gustavson row scatter (dst[j] +=
// x[i]·m[i,j]) — chain.Step given M, chain.StepBack given Mᵀ. The live
// rows of cur are visited in ascending order, and a row whose active
// lanes are all zero is skipped without touching the matrix row at all,
// so a step costs the lanes' reach, not n·K. The spare buffer is cleared
// on the rows spareLive held, and spareLive becomes exactly the rows
// written. A matrix row's destination bits are gathered in a register
// while its (ascending) columns stay in one 64-row word, and ORed into
// spareLive once per word the row reaches: setting a bit per non-zero
// made each set wait on the store before it whenever neighbouring
// non-zeros share a word, as they do on a chain with local successors.
// The set stays exact: its rows, and the order every pass visits them
// in, are the ones a set bit per non-zero gives. A one-lane block (every
// PST∃Q sweep outside a batch, every exists pass) takes the same loop
// with its row slicing written out: the general form costs it about a
// third more.
func fusedStep(b *laneBlock, m *sparse.CSR, active int) {
	dst, x, K := b.spare, b.cur, b.k
	clearRows(dst, b.spareLive, K)
	if active == 0 {
		return
	}
	live := b.spareLive.Words64()
	for wi, w := range b.live.Words64() {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if K == 1 {
				xi := x[i]
				if xi == 0 {
					continue
				}
				cols, vals := m.RowSlices(i)
				if len(cols) == 0 {
					continue
				}
				vals = vals[:len(cols)]
				cw, acc := cols[0]>>6, uint64(0)
				for p, j := range cols {
					if j>>6 != cw {
						live[cw] |= acc
						cw, acc = j>>6, 0
					}
					acc |= 1 << (uint(j) & 63)
					dst[j] += xi * vals[p]
				}
				live[cw] |= acc
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
			cols, vals := m.RowSlices(i)
			if len(cols) == 0 {
				continue
			}
			vals = vals[:len(cols)] // equal lengths: lets the compiler drop bounds checks
			cw, acc := cols[0]>>6, uint64(0)
			for p, j := range cols {
				v := vals[p]
				if j>>6 != cw {
					live[cw] |= acc
					cw, acc = j>>6, 0
				}
				acc |= 1 << (uint(j) & 63)
				db := dst[j*K : j*K+active : j*K+active]
				db = db[:len(xb)]
				for c, xc := range xb {
					db[c] += xc * v
				}
			}
			live[cw] |= acc
		}
	}
}
