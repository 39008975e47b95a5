package core

import (
	"context"
	"math/bits"

	"ust/internal/markov"
	"ust/internal/sparse"
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
	// cone[t-t0] is the possible-envelope at time t ∈ [t0, horizon]: the
	// states from which a trajectory can still be inside S□ at a query
	// time ≥ t. nil runs the paper-literal pass (WithFilterRefine(false)).
	cone []*sparse.Bitset
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
// absorbed, and it only ever feeds other non-cone rows. A cone row
// therefore receives the same addends in the same ascending row order
// with or without the clip, and exists/forall answers keep the unclipped
// pass's bits exactly.
func (s forwardSeed) clip(b *laneBlock, t int, parked []float64) {
	if s.cone == nil {
		return
	}
	keep := s.cone[t-s.t0]
	kw := keep.Words64()
	for wi, w := range b.live.Words64() {
		for out := w &^ kw[wi]; out != 0; out &= out - 1 {
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
	b.live.And(keep)
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

// existsForward computes P∃(o, S□, T□) for one object's seed, stepping
// forward to the query horizon: the OB strategy's exact pass, which is
// the bracketed pass below with no band to fall outside of.
func existsForward(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, pool *blockPool) (float64, error) {
	p, _, err := existsOBRefine(ctx, chain, seed, w, -1, 2, pool)
	return p, err
}

// existsOBRefine is the OB forward pass, bracketed against a rejection
// band: it either proves the exact P∃ falls outside [rejectBelow,
// rejectAbove] and stops early (qualified = false, p meaningless), or
// runs to completion and returns the exact probability. The proof side
// brackets the answer: the accumulated hit mass is a lower bound, hit
// plus the free (unabsorbed, still inside the reach cone) mass an upper
// bound. Rejection widens the band by boundSlack so float rounding can
// only make the filter keep more, never drop a qualifying object.
// Disable a side with rejectBelow ≤ 0 / rejectAbove ≥ 1+. The pass
// checks ctx once per forward step and aborts with ctx.Err() on
// cancellation; its one-lane block comes from pool (nil is allowed). A
// seed whose support misses its cone ends at the bit-exact 0 with no
// step taken.
func existsOBRefine(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, rejectBelow, rejectAbove float64, pool *blockPool) (p float64, qualified bool, err error) {
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
		if rejectBelow > 0 && hit+b.sum(0) < rejectBelow-boundSlack {
			return 0, false, nil // provably below the band
		}
		if hit > rejectAbove+boundSlack {
			return 0, false, nil // provably above the band
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
