package core

import (
	"context"
	"fmt"

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

// existsForward computes P∃(o, S□, T□) for an initial distribution
// observed at time t0, stepping forward to the query horizon. It is the
// shared kernel of the OB strategy. The pass checks ctx once per forward
// step and aborts with ctx.Err() on cancellation. Scratch buffers come
// from pool (nil is allowed).
func existsForward(ctx context.Context, chain *markov.Chain, init *sparse.Vec, t0 int, w *window, pool *sparse.VecPool) (float64, error) {
	cur := pool.Get(init.Len())
	cur.CopyFrom(init)
	next := pool.Get(init.Len())
	defer func() {
		pool.Put(cur)
		pool.Put(next)
	}()
	hit := 0.0
	if w.atTime(t0) {
		hit += sweepHits(cur, w)
	}
	for t := t0; t < w.horizon; t++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if cur.NNZ() == 0 {
			break // every world already absorbed
		}
		chain.Step(next, cur)
		cur, next = next, cur
		if w.atTime(t + 1) {
			hit += sweepHits(cur, w)
		}
	}
	return hit, nil
}

// existsOBOne is the per-object OB core: single-observation objects run
// the forward pass, objects with several observations are routed
// through the multi-observation kernel (Section VI).
func existsOBOne(ctx context.Context, ch *markov.Chain, o *Object, w *window, pool *sparse.VecPool) (float64, error) {
	if w.k == 0 {
		return 0, nil
	}
	if len(o.Observations) > 1 {
		return existsMultiObs(ctx, ch, o.Observations, w)
	}
	first := o.First()
	if first.Time > w.horizon {
		return 0, fmt.Errorf("core: object %d observed at t=%d, after query horizon %d", o.ID, first.Time, w.horizon)
	}
	init := first.PDF.Clone()
	mass := init.Vec().Normalize()
	if mass == 0 {
		return 0, fmt.Errorf("core: object %d has zero-mass observation", o.ID)
	}
	return existsForward(ctx, ch, init.Vec(), first.Time, w, pool)
}

// existsOBRefine is the filter–refine variant of the OB forward pass
// bracketed against a rejection band: it either proves the exact P∃
// falls outside [rejectBelow, rejectAbove] and stops early (qualified =
// false, p meaningless), or runs to completion and returns the exact
// probability — bit-identical to existsForward's, since the loop body is
// the same arithmetic in the same order. The proof side brackets the
// answer: the accumulated hit mass is a lower bound, hit plus the free
// (unabsorbed) mass an upper bound. Rejection widens the band by
// boundSlack so float rounding can only make the filter keep more, never
// drop a qualifying object. Disable a side with rejectBelow ≤ 0 /
// rejectAbove ≥ 1+.
func existsOBRefine(ctx context.Context, chain *markov.Chain, init *sparse.Vec, t0 int, w *window, rejectBelow, rejectAbove float64, pool *sparse.VecPool) (p float64, qualified bool, err error) {
	cur := pool.Get(init.Len())
	cur.CopyFrom(init)
	next := pool.Get(init.Len())
	defer func() {
		pool.Put(cur)
		pool.Put(next)
	}()
	hit := 0.0
	if w.atTime(t0) {
		hit += sweepHits(cur, w)
	}
	for t := t0; t < w.horizon; t++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		if hit+cur.Sum() < rejectBelow-boundSlack {
			return 0, false, nil // provably below the band
		}
		if hit > rejectAbove+boundSlack {
			return 0, false, nil // provably above the band
		}
		if cur.NNZ() == 0 {
			break
		}
		chain.Step(next, cur)
		cur, next = next, cur
		if w.atTime(t + 1) {
			hit += sweepHits(cur, w)
		}
	}
	return hit, true, nil
}
