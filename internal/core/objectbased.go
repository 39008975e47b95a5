package core

import (
	"context"

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

// sweepHits moves the probability mass of v that lies inside the spatial
// predicate into the return value, zeroing those entries. This is the
// action of M+'s extra column, applied in place.
func sweepHits(v *sparse.Vec, w *window) float64 {
	moved := 0.0
	v.Range(func(i int, x float64) {
		if w.inRegion(i) {
			moved += x
			v.Set(i, 0)
		}
	})
	v.Compact()
	return moved
}

// forwardSeed is what an object-based forward pass starts from: the
// observation pdf as stored (shared, unnormalized — the pass scales its
// own pooled working copy, so no per-object |S| clone), its mass, the
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

// start draws the pass's working vector from pool and fills it with
// pdf/mass — the bits Normalize on a clone of the pdf produces (the same
// sum, the same 1/sum scaling, in the same order).
func (s forwardSeed) start(pool *sparse.VecPool) *sparse.Vec {
	cur := pool.Get(s.pdf.NumStates())
	s.pdf.CopyTo(cur)
	cur.Scale(1 / s.mass)
	return cur
}

// clip drops the mass of v — the pass's frontier at time t — that lies
// outside the reach cone, and returns how much that was. Such mass is
// dead to the window: a state outside cone[t] has no successor inside
// cone[t+1], so it can never be absorbed, and it only ever feeds other
// non-cone states — every surviving entry keeps receiving the same
// addends in the same order (Restrict preserves support order), which
// is what keeps clipped answers on the unclipped pass's bits while both
// frontiers iterate in the same mode.
func (s forwardSeed) clip(v *sparse.Vec, t int) float64 {
	if s.cone == nil {
		return 0
	}
	return v.Restrict(s.cone[t-s.t0])
}

// existsForward computes P∃(o, S□, T□) for one object's seed, stepping
// forward to the query horizon: the OB strategy's exact pass, which is
// the bracketed pass below with no band to fall outside of.
func existsForward(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, pool *sparse.VecPool) (float64, error) {
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
// cancellation; scratch buffers come from pool (nil is allowed). A seed
// whose support misses its cone ends at the bit-exact 0 with no step
// taken.
func existsOBRefine(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window, rejectBelow, rejectAbove float64, pool *sparse.VecPool) (p float64, qualified bool, err error) {
	cur := seed.start(pool)
	next := pool.Get(cur.Len())
	defer func() {
		pool.Put(cur)
		pool.Put(next)
	}()
	hit := 0.0
	if w.atTime(seed.t0) {
		hit += sweepHits(cur, w)
	}
	for t := seed.t0; t < w.horizon; t++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		seed.clip(cur, t)
		if rejectBelow > 0 && hit+cur.Sum() < rejectBelow-boundSlack {
			return 0, false, nil // provably below the band
		}
		if hit > rejectAbove+boundSlack {
			return 0, false, nil // provably above the band
		}
		if cur.NNZ() == 0 {
			break // every world absorbed or out of reach
		}
		chain.Step(next, cur)
		cur, next = next, cur
		if w.atTime(t + 1) {
			hit += sweepHits(cur, w)
		}
	}
	return hit, true, nil
}
