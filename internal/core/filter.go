package core

import "context"

// The filter–refine path — the standard architecture for uncertain
// spatial query processing (Züfle's overview, §filter–refine; Range
// Queries on Uncertain Data applies it to threshold/top-k retrieval) —
// is a per-object gate inside scan (evaluate.go), the one loop of the
// exact strategies; this file holds its rules: when it engages
// (filtered), the bound it reads (upperBound) and what the exact-zero
// certificate answers (certificate).
//
// Filter–refine pays only where refinement is the expensive step, and
// that is the object-based strategy, whose refinement is a forward pass.
// The query-based strategy answers an object with one dot product
// against a score vector the request sweeps anyway (Section V-C), which
// costs less than any bound would; its objects all get the exact value
// and the consumer cuts on it, so the gate never engages there. Under
// the object-based strategy the gate bounds each object with
// conservative probability bounds from boolean reachability envelopes
// (kernel.go): the possible-envelope is cone[0] of the window's reach
// cone, the same boolean sweep the clipped forward pass reads, and the
// certain-envelope its dual. It then prunes the object when the bound
// proves it below the consumer's bar, answers it from the exact-zero
// certificate, or refines it with the SAME exact evaluator the ungated
// scan runs.
//
// The consumer's only input to the loop is the bar, plan.bar: the
// threshold for a thresholded stream; the threshold (−1 without one)
// raised by the top-k fold to the heap's minimum once the heap is full;
// −1 for the count aggregate, which prunes nothing and reads the gate
// for its certificates alone. The object-based exists/forall refine
// brackets the forward pass at the bar (existsOBRefine): it aborts as
// soon as the accumulated ◆ mass proves the object below it (Section
// V-C's pruning), again without affecting survivors' values.

// FilterReport summarizes the filter–refine funnel of one evaluation,
// reported on Response.Filter. Candidates = Pruned + Refined; the ratio
// Refined/Candidates is the fraction of the database that needed exact
// per-object work. Only the object-based strategy filters: the report
// is zero for every other strategy.
type FilterReport struct {
	// Candidates is the number of objects the filter considered.
	Candidates int
	// Pruned is the number answered or excluded by bounds alone, with
	// no exact evaluation (including exists-objects whose envelope
	// proves a bit-exact zero).
	Pruned int
	// Refined is the number of exact per-object evaluations.
	Refined int
}

// ranked reports whether the request thresholds or ranks its results.
func (p *evalPlan) ranked() bool { return p.req.threshold != nil || p.req.topK > 0 }

// filtered reports whether scan's filter gate engages for this plan: an
// object-based plan, serial, that is ranked over a boundable predicate
// or counts over exists/forall, whose certificates answer objects in
// O(1). The query-based strategy's exact value is a dot product, cheaper
// than any bound, and Monte-Carlo evaluation consumes a shared rng
// stream whose sequence is part of the observable output, so skipping an
// object would change every later answer; the parallel object-based
// fan-out has no bar to read (the top-k bar evolves object by object).
func (p *evalPlan) filtered() bool {
	if !p.useFilter || p.strategy != StrategyObjectBased || p.workers > 1 {
		return false
	}
	switch p.req.Predicate {
	case PredicateExists, PredicateForAll:
		spec, ok := p.req.AggregateHint()
		return p.ranked() || ok && spec.Kind == AggCount
	case PredicateKTimes, PredicateExpr:
		return p.ranked()
	default:
		return false
	}
}

// certificate reports whether the gate answers an object whose upper
// bound is exactly 0 without refining it, and with what probability.
// That zero is the exact-zero certificate (kern.existsUpper): P∃ over
// the kernel's window is 0, so an exists-object answers 0 and, for the
// count aggregate, a forall-object 1 − 0 = 1. A ranked forall reads a
// different bound (upperBound) and a ktimes result carries a
// distribution, so neither is certified.
func (p *evalPlan) certificate() (ok bool, prob float64) {
	switch {
	case p.req.Predicate == PredicateExists:
		return true, 0
	case p.req.Predicate == PredicateForAll && !p.ranked():
		return true, 1
	default:
		return false, 0
	}
}

// upperBound returns the bound the gate reads for the plan's objects
// against the group kernel k over the evaluation window (already
// complemented for PST∀Q): a conservative upper bound on an object's
// result, and ok = false when no cheap bound exists and the object must
// be refined.
//
// For exists and ktimes (whose Prob is P(≥1 visit) = P∃) the bound is
// the initial mass on the possible-envelope. For a ranked forall, P∀ =
// 1 − P∃(complement window), so the bound needs the LOWER bound of the
// complemented exists-query: the initial mass on the certain-envelope.
// The count aggregate's forall prunes nothing and reads the
// possible-envelope of the complement window for its certificate alone.
func (p *evalPlan) upperBound() func(k *kern, ctx context.Context, o *Object) (ub float64, ok bool, err error) {
	switch {
	case p.req.Predicate == PredicateExpr:
		return (*kern).exprUpper
	case p.req.Predicate == PredicateForAll && p.ranked():
		return func(k *kern, ctx context.Context, o *Object) (float64, bool, error) {
			lo, ok, err := k.existsLower(ctx, o)
			return 1 - lo, ok, err
		}
	default:
		return (*kern).existsUpper
	}
}

// obExistsRefine is the OB refine step with lower/upper-bound
// bracketing against the acceptance bar: P(result) < bar is proven as
// early as the bracket allows, skipping the rest of the forward pass.
// Ineligible shapes (k = 0, multi-observation, after-horizon, bar ≤ 0)
// fall back to the plain exact pass.
func (k *kern) obExistsRefine(ctx context.Context, o *Object, bar float64) (Result, bool, error) {
	if bar <= 0 || !k.boundable(o) {
		r, err := k.obExistsExact(ctx, o)
		return r, true, err
	}
	seed, err := k.seedFor(ctx, o)
	if err != nil {
		return Result{}, false, err
	}
	// The pass computes P∃ over k.w (the complemented window for PST∀Q).
	// Result < bar translates to: exists — P∃ < bar (reject below);
	// forall — 1 − P∃ < bar, i.e. P∃ > 1 − bar (reject above).
	rejectBelow, rejectAbove := bar, 2.0
	if k.forAll {
		rejectBelow, rejectAbove = -1, 1-bar
	}
	p, qualified, err := existsOBRefine(ctx, k.chain, seed, k.w, rejectBelow, rejectAbove, &lanes)
	if err != nil || !qualified {
		return Result{}, false, err
	}
	if k.forAll {
		p = 1 - p
	}
	return Result{ObjectID: o.ID, Prob: p}, true, nil
}
