package core

import (
	"context"
	"iter"
)

// The filter–refine path for ranked and thresholded retrieval — the
// standard architecture for uncertain spatial query processing (Züfle's
// overview, §filter–refine; Range Queries on Uncertain Data applies it
// to threshold/top-k retrieval). The filter stage computes, per object,
// conservative probability bounds from boolean reachability envelopes
// (kernel.go) that cost bit-ops instead of float sweeps and are shared
// per (chain, window, observation time) through the score cache. Objects
// whose bounds prove they cannot qualify are pruned without any exact
// evaluation; survivors are refined by the SAME exact evaluators the
// unfiltered streams use, so filtered and unfiltered results are
// byte-identical — the filter can only skip work, never change answers.
//
// For the object-based strategy the refine step additionally brackets
// the forward pass (existsOBRefine): it aborts as soon as the
// accumulated ◆ mass proves the object falls outside the acceptance
// band (Section V-C's pruning), again without affecting survivors'
// values.

// FilterReport summarizes the filter–refine funnel of one evaluation,
// reported on Response.Filter. Candidates = Pruned + Refined; the ratio
// Refined/Candidates is the fraction of the database that needed exact
// per-object work.
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

// exactZero reports whether the filter may answer this object with a
// bit-exact Prob = 0 result instead of refining: the upper bound is the
// exact zero certificate (see kern.existsUpper) and the predicate's
// result is plain P∃ with no distribution attached.
func exactZero(plan *evalPlan, ub float64, ok bool) bool {
	return ok && ub == 0 && plan.req.Predicate == PredicateExists
}

// filterEligible reports whether this plan runs the filter–refine path.
// The filter applies to exact strategies only: Monte-Carlo evaluation
// consumes a shared rng stream whose sequence is part of the observable
// output, so skipping an object would change every later answer. The
// parallel OB fan-out keeps its own unfiltered path (bound computation
// is inherently sequential against the evolving top-k bar).
func (p *evalPlan) filterEligible() bool {
	if !p.useFilter {
		return false
	}
	if p.req.topK <= 0 && p.req.threshold == nil {
		return false
	}
	switch p.req.Predicate {
	case PredicateExists, PredicateForAll, PredicateKTimes, PredicateExpr:
	default:
		return false
	}
	switch p.strategy {
	case StrategyQueryBased:
		return true // QB evaluation is serial regardless of workers
	case StrategyObjectBased:
		return p.workers <= 1
	default:
		return false
	}
}

// upperBound returns a conservative upper bound on the result
// probability of o under the plan's predicate, where k is the group
// kernel over the evaluation window (already complemented for PST∀Q).
// ok is false when no cheap bound exists and o must be refined.
//
// For exists and ktimes (whose Prob is P(≥1 visit) = P∃) the bound is
// the initial mass on the possible-envelope. For forall, P∀ = 1 −
// P∃(complement window), so the bound needs the LOWER bound of the
// complemented exists-query: the initial mass on the certain-envelope.
func upperBound(ctx context.Context, plan *evalPlan, k *kern, o *Object) (float64, bool, error) {
	switch plan.req.Predicate {
	case PredicateForAll:
		lo, ok, err := k.existsLower(ctx, o)
		return 1 - lo, ok, err
	case PredicateExpr:
		return k.exprUpper(ctx, o)
	default:
		return k.existsUpper(ctx, o)
	}
}

// refineOne evaluates one surviving object exactly, dispatching on the
// plan's predicate × strategy — the same evaluators the unfiltered
// streams call. bar is the current acceptance bar (threshold or top-k
// floor); the OB exists/forall refine may use it to abort bracketed
// passes early, reporting qualified = false exactly when the result
// probability is provably below bar.
func refineOne(ctx context.Context, plan *evalPlan, k *kern, o *Object, bar float64) (r Result, qualified bool, err error) {
	forAll := plan.req.Predicate == PredicateForAll
	switch {
	case plan.req.Predicate == PredicateKTimes && plan.strategy == StrategyObjectBased:
		r, err = k.ktimesOBExact(ctx, o)
	case plan.req.Predicate == PredicateKTimes:
		r, err = k.ktimesQBExact(ctx, o)
	case plan.req.Predicate == PredicateExpr && plan.strategy == StrategyObjectBased:
		r, err = k.exprOBExact(ctx, o)
	case plan.req.Predicate == PredicateExpr:
		r, err = k.exprExact(ctx, o)
	case plan.strategy == StrategyObjectBased:
		return k.obExistsRefine(ctx, o, forAll, bar)
	default:
		r, err = k.existsExact(ctx, o, forAll)
	}
	return r, true, err
}

// obExistsRefine is the OB refine step with lower/upper-bound
// bracketing against the acceptance bar: P(result) < bar is proven as
// early as the bracket allows, skipping the rest of the forward pass.
// Ineligible shapes (k = 0, multi-observation, after-horizon, bar ≤ 0)
// fall back to the plain exact pass.
func (k *kern) obExistsRefine(ctx context.Context, o *Object, forAll bool, bar float64) (Result, bool, error) {
	if bar <= 0 || !k.boundable(o) {
		r, err := k.obExistsExact(ctx, o, forAll)
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
	if forAll {
		rejectBelow, rejectAbove = -1, 1-bar
	}
	p, qualified, err := existsOBRefine(ctx, k.chain, seed, k.w, rejectBelow, rejectAbove, k.pool)
	if err != nil || !qualified {
		return Result{}, false, err
	}
	if forAll {
		p = 1 - p
	}
	return Result{ObjectID: o.ID, Prob: p}, true, nil
}

// filterGroupKernel builds the group kernel for the filter paths,
// dispatching on the plan's predicate: compound expressions compile
// their augmented program, everything else the (possibly complemented)
// single window.
func (e *Engine) filterGroupKernel(grp chainGroup, plan *evalPlan, complement bool) (*kern, error) {
	if plan.req.Predicate == PredicateExpr {
		return e.exprGroupKernel(grp, plan)
	}
	return e.groupKernel(grp, plan, complement)
}

// streamFilteredThreshold is the filter–refine core for WithThreshold
// requests without ranking: objects whose upper bound falls below τ are
// pruned; survivors are refined exactly and post-filtered exactly like
// the unfiltered stream.
func (e *Engine) streamFilteredThreshold(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	tau := *plan.req.threshold
	forAll := plan.req.Predicate == PredicateForAll
	return func(yield func(Result, error) bool) {
		for _, grp := range e.db.groupByChain() {
			k, err := e.filterGroupKernel(grp, plan, forAll)
			if err != nil {
				yield(Result{}, err)
				return
			}
			for _, o := range grp.objects {
				if err := ctx.Err(); err != nil {
					yield(Result{}, err)
					return
				}
				plan.filterRep.Candidates++
				ub, ok, err := upperBound(ctx, plan, k, o)
				if err != nil {
					yield(Result{}, err)
					return
				}
				if ok && ub < tau {
					plan.filterRep.Pruned++
					continue
				}
				if exactZero(plan, ub, ok) { // reachable only when τ = 0
					plan.filterRep.Pruned++
					if !yield(Result{ObjectID: o.ID, Prob: 0}, nil) {
						return
					}
					continue
				}
				r, qualified, err := refineOne(ctx, plan, k, o, tau)
				if err != nil {
					yield(Result{}, err)
					return
				}
				plan.filterRep.Refined++
				if !qualified || r.Prob < tau {
					continue
				}
				if !yield(r, nil) {
					return
				}
			}
		}
	}
}

// topKFiltered folds the database through the k-bounded min-heap while
// pruning objects whose upper bound proves they cannot displace the
// current k-th result. The pruning bar is the heap minimum once the heap
// is full (strictly: an object with ub < bar has true probability ≤ ub
// < bar, so it loses every comparison including id tie-breaks), combined
// with the request threshold when present.
func (e *Engine) topKFiltered(ctx context.Context, plan *evalPlan, h *resultMinHeap) error {
	kk := plan.req.topK
	tau := -1.0
	if plan.req.threshold != nil {
		tau = *plan.req.threshold
	}
	forAll := plan.req.Predicate == PredicateForAll
	for _, grp := range e.db.groupByChain() {
		k, err := e.filterGroupKernel(grp, plan, forAll)
		if err != nil {
			return err
		}
		for _, o := range grp.objects {
			if err := ctx.Err(); err != nil {
				return err
			}
			plan.filterRep.Candidates++
			// bar: results provably below it cannot enter the answer.
			// The threshold is inclusive (keep Prob ≥ τ) and the heap
			// bar exclusive (must strictly beat the minimum), so they
			// prune at ub < τ and ub < heapMin respectively — both
			// covered by ub < bar with bar = max(τ, heapMin).
			bar := tau
			if h.Len() == kk && (*h)[0].Prob > bar {
				bar = (*h)[0].Prob
			}
			ub, ok, err := upperBound(ctx, plan, k, o)
			if err != nil {
				return err
			}
			if ok && bar >= 0 && ub < bar {
				plan.filterRep.Pruned++
				continue
			}
			if exactZero(plan, ub, ok) && tau <= 0 {
				// The bar could not prune (ties at the current minimum
				// are resolved by object id), but the result is known
				// bit-exactly: fold it in without evaluation.
				plan.filterRep.Pruned++
				pushTopK(h, kk, Result{ObjectID: o.ID, Prob: 0})
				continue
			}
			refineBar := bar
			if h.Len() < kk {
				// The heap still has room: every exact value is needed.
				refineBar = tau
			}
			r, qualified, err := refineOne(ctx, plan, k, o, refineBar)
			if err != nil {
				return err
			}
			plan.filterRep.Refined++
			if !qualified || (tau >= 0 && r.Prob < tau) {
				continue
			}
			pushTopK(h, kk, r)
		}
	}
	return nil
}
