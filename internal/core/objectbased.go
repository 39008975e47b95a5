package core

import (
	"context"
	"math"
	"math/bits"

	"ust/internal/markov"
)

// The object-based (OB) strategy of Section V-A evaluates a query for one
// object by propagating its distribution forward through time. Instead of
// materializing the paper's augmented matrices M− and M+, the default
// implementation applies the identical linear operator implicitly:
//
//   - a step into a non-query timestamp is a plain transition (M−),
//   - a step into a query timestamp additionally sweeps the mass that
//     landed inside S□ into the absorbing ◆ accumulator (M+).
//
// The materialized variant lives in absorbing.go and is used to validate
// this one (and in the ablation benchmark).
//
// PST∀Q is not run as 1 − PST∃Q over the complement S \ S□ (Section V),
// whose reach cone is nearly all of S, but as a survival pass: at each
// query timestamp the mass outside S□ is dropped instead of absorbed, and
// what is left at the horizon is the answer. It clips to S□'s own reach
// cone, so it costs what an exists pass costs.
//
// Every pass is a lane block (querybased.go) stepped forward over M by
// the kernel the backward sweeps use: exists and forall one lane, PSTkQ
// one lane per visit count (ktimes.go), an expression one single-lane
// block per reached flag word (plan.go).

// forwardSeed is what an object-based forward pass starts from: the
// observation pdf as stored (shared, unnormalized — the pass scales it
// into its pooled block, so no per-object |S| clone), its mass, the
// observation time, and the window's reach cone from that time on.
type forwardSeed struct {
	pdf  *markov.Distribution
	mass float64
	t0   int
	// cone is the reach cone of the window the pass clips to, from t0 on:
	// the states from which a trajectory can still be inside S□ at a
	// query time ≥ t. nil runs the paper-literal pass
	// (WithFilterRefine(false)).
	cone *reachCone
}

// open draws a block of k lanes from pool and fills lane 0 with
// pdf/mass — the bits Normalize on a clone of the pdf produces (the same
// sum, the same 1/sum scaling).
func (s forwardSeed) open(pool *blockPool, k int) *laneBlock {
	b := pool.get(s.pdf.NumStates(), k)
	inv := 1 / s.mass
	s.pdf.Range(func(i int, x float64) { b.row(i)[0] = x * inv })
	return b
}

// clip drops the mass of b — the pass's frontier at time t — that lies
// outside the reach cone, adding lane c's dropped mass to parked[c]
// (parked nil: discarded). Such mass is dead to the window: a state
// outside cone[t] has no successor inside cone[t+1], so it can never be
// inside S□ at a query time again, and it only ever feeds other non-cone
// rows. A cone row therefore receives the same addends in the same
// ascending row order with or without the clip, and exists/forall
// answers keep the unclipped pass's bits exactly.
//
// One walk over the live words: a word keeps w & cone and zeroes the
// rows it drops; a word where the cone is empty is dropped whole.
func (s forwardSeed) clip(b *laneBlock, t int, parked []float64) {
	if s.cone == nil {
		return
	}
	cone := s.cone.at(t - s.t0)
	lw := b.live.Words64()
	for wi, w := range lw {
		if w == 0 {
			continue
		}
		keep := cone.word(wi)
		out := w &^ keep
		if out == 0 {
			continue
		}
		lw[wi] = w & keep
		if keep == 0 && parked == nil {
			// The block is zero off its live rows: clear the word's rows
			// as one span, from its first live row to its last.
			first := wi<<6 + bits.TrailingZeros64(w)
			last := wi<<6 + 64 - bits.LeadingZeros64(w)
			clear(b.cur[first*b.k : last*b.k])
			continue
		}
		for ; out != 0; out &= out - 1 {
			i := wi<<6 + bits.TrailingZeros64(out)
			row := b.cur[i*b.k : i*b.k+b.k]
			if parked != nil {
				for c, x := range row {
					parked[c] += x
				}
			}
			clear(row)
		}
	}
}

// absorb moves lane 0's mass on the live rows inside w's region into the
// returned hit mass, in ascending row order: the action of M+'s extra
// column, applied in place.
func absorb(b *laneBlock, w *window) float64 {
	moved := 0.0
	b.live.Range(func(s int) {
		if w.inRegion(s) {
			moved += b.cur[s*b.k]
			b.cur[s*b.k] = 0
		}
	})
	return moved
}

// confine drops every live row outside w's region — the worlds that
// leave S□ at a query time, and so fail PST∀Q — zeroing the row and
// taking it off the live set.
func confine(b *laneBlock, w *window) {
	lw := b.live.Words64()
	for wi, word := range lw {
		for x := word; x != 0; x &= x - 1 {
			i := wi<<6 + bits.TrailingZeros64(x)
			if !w.inRegion(i) {
				clear(b.cur[i*b.k : i*b.k+b.k])
				word &^= 1 << uint(i&63)
			}
		}
		lw[wi] = word
	}
}

// existsForward computes P∃(o, S□, T□) for one object's seed, stepping
// forward to the query horizon: the OB strategy's exact pass, which is
// the bracketed pass below with no bar to fall below.
func existsForward(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, pool *blockPool) (float64, error) {
	p, _, err := existsOBRefine(ctx, chain, seed, w, -1, pool)
	return p, err
}

// existsOBRefine is the OB exists pass, bracketed against a bar: it
// either proves the exact P∃ falls below rejectBelow and stops early
// (qualified = false, p meaningless), or runs to completion and returns
// the exact probability. The proof reads an upper bound: the accumulated
// hit mass plus the free (unabsorbed, still inside the reach cone) mass,
// grown by what the remaining steps can add (liveGrowth). Rejection
// widens the bar by boundSlack so float rounding can only make the
// filter keep more, never drop a qualifying object. rejectBelow
// ≤ 0 disables it. The pass checks ctx once per forward step and aborts
// with ctx.Err() on cancellation; its one-lane block comes from pool
// (nil is allowed). A seed whose support misses its cone ends at the
// bit-exact 0 with no step taken.
func existsOBRefine(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, rejectBelow float64, pool *blockPool) (p float64, qualified bool, err error) {
	b := seed.open(pool, 1)
	defer pool.put(b)
	m := chain.Matrix()
	hit := 0.0
	if w.atTime(seed.t0) {
		hit += absorb(b, w)
	}
	for t := seed.t0; t < w.horizon; t++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		seed.clip(b, t, nil)
		if rejectBelow > 0 && hit+b.sum(0)*liveGrowth(w.horizon-t) < rejectBelow-boundSlack {
			return 0, false, nil // provably below the bar
		}
		if !b.live.Any() {
			break // every world absorbed or out of reach
		}
		b.step(m, 1)
		if w.atTime(t + 1) {
			hit += absorb(b, w)
		}
	}
	return hit, true, nil
}

// liveGrowth bounds the factor by which a pass's live mass can grow over
// the given number of forward steps. NewChain accepts rows that sum to up
// to 1 + markov.DefaultTolerance, so each step can scale the mass by that
// much, which over a few steps outgrows boundSlack.
func liveGrowth(steps int) float64 {
	return math.Pow(1+markov.DefaultTolerance, float64(steps))
}

// forallOBRefine is the OB PST∀Q pass over the query's own window w (not
// its complement): a survival pass. At every query timestamp it drops
// the live rows outside S□ (confine), and it returns the mass left on
// the live rows at the horizon, summed in ascending order. The live mass,
// grown by what the remaining steps can add (liveGrowth), is an upper
// bound at every step: the pass stops as soon as it falls below
// rejectBelow − boundSlack (qualified = false); rejectBelow ≤ 0 disables
// the bracket. The seed clips to w's own reach cone: a row outside it
// cannot be inside S□ at some later query time, so it is dropped there
// anyway, and the surviving rows receive the same addends in the same
// order with or without the clip — bit for bit. A seed whose support
// misses the cone ends at the bit-exact 0 with no step taken.
func forallOBRefine(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, rejectBelow float64, pool *blockPool) (p float64, qualified bool, err error) {
	b := seed.open(pool, 1)
	defer pool.put(b)
	m := chain.Matrix()
	if w.atTime(seed.t0) {
		confine(b, w)
	}
	for t := seed.t0; t < w.horizon; t++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		seed.clip(b, t, nil)
		if !b.live.Any() {
			return 0, true, nil // every world left S□ or its reach
		}
		if rejectBelow > 0 && b.sum(0)*liveGrowth(w.horizon-t) < rejectBelow-boundSlack {
			return 0, false, nil // provably below the bar
		}
		b.step(m, 1)
		if w.atTime(t + 1) {
			confine(b, w)
		}
	}
	return b.sum(0), true, nil
}
