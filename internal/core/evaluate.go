package core

import (
	"container/heap"
	"context"
	"fmt"
	"iter"
	"math/rand"
	"runtime"

	"ust/internal/markov"
)

func errKTimesMultiObs(o *Object) error {
	return fmt.Errorf("core: PSTkQ with multiple observations is not supported; object %d has %d", o.ID, len(o.Observations))
}

func errEventuallyMultiObs(o *Object) error {
	return fmt.Errorf("core: eventually-queries support single-observation objects; object %d has %d", o.ID, len(o.Observations))
}

// Evaluate and EvaluateSeq are the single entry points of the query
// API: every predicate (exists / forall / ktimes / eventually), every
// strategy (query-based / object-based / Monte-Carlo) and every ranking
// (threshold / top-k) is expressed through a Request.

// Evaluator is the query surface every engine implementation serves:
// the in-process Engine, the shard router, and (shape-wise) the remote
// client. The conformance suite (internal/conformance) pins all of them
// to byte-identical results through exactly this interface.
type Evaluator interface {
	// Evaluate answers the request in one batch.
	Evaluate(ctx context.Context, req Request) (*Response, error)
	// EvaluateSeq streams the same results one object at a time.
	EvaluateSeq(ctx context.Context, req Request) iter.Seq2[Result, error]
	// EvaluateBatch answers many requests as one optimized unit.
	EvaluateBatch(ctx context.Context, reqs []Request) ([]*Response, error)
	// EvaluateBatchSeq streams batch outcomes with per-item errors.
	EvaluateBatchSeq(ctx context.Context, reqs []Request) iter.Seq[BatchItem]
}

var _ Evaluator = (*Engine)(nil)

// Response is the batch answer to a Request.
type Response struct {
	// Results holds one entry per qualifying object. Without ranking
	// options the order is the engine's evaluation order (objects
	// grouped by motion model, database order within a group); WithTopK
	// sorts descending by probability.
	Results []Result
	// Strategy is the strategy the evaluation actually ran with, after
	// per-request overrides and auto-planning.
	Strategy Strategy
	// Plans carries the planner's cost estimates (best first) when the
	// request asked for WithAutoPlan; nil otherwise.
	Plans []CostEstimate
	// Cache reports this evaluation's score-cache traffic: Hits sweeps
	// were served from the engine-wide cache, Misses were computed
	// fresh. Zero when caching is disabled.
	Cache CacheReport
	// Filter reports the filter–refine funnel of this evaluation:
	// Candidates considered, Pruned excluded by cheap bounds alone,
	// Refined evaluated exactly. Zero when the filter did not engage.
	Filter FilterReport
	// Agg is the aggregate answer for WithAggregate requests (Results is
	// empty then: the aggregate IS the answer); nil otherwise.
	Agg *AggResult
}

// evalPlan is a Request resolved against an engine: window materialized,
// strategy chosen, budgets defaulted.
type evalPlan struct {
	req       Request
	query     Query
	expr      *Expr // resolved expression (regions grounded), PredicateExpr only
	strategy  Strategy
	plans     []CostEstimate
	workers   int
	samples   int
	seed      int64
	useCache  bool
	useFilter bool
	cacheRep  cacheTally
	filterRep FilterReport
}

// prepare resolves the request's window, strategy and budgets.
func (e *Engine) prepare(req Request) (*evalPlan, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	p := &evalPlan{req: req}
	if req.Predicate == PredicateExpr {
		resolved, err := req.expr.resolved()
		if err != nil {
			return nil, err
		}
		p.expr = &resolved
	} else {
		q, err := req.Window()
		if err != nil {
			return nil, err
		}
		p.query = q
	}

	p.strategy = req.resolveStrategy(e.opts.Strategy)
	if req.autoPlan {
		switch req.Predicate {
		case PredicateExists, PredicateForAll:
			plans, perr := e.planExists(p.query)
			if perr != nil {
				return nil, perr
			}
			p.plans = plans
			p.strategy = plans[0].Strategy
		default:
			// The planner models the exists/forall sweeps only; other
			// predicates fall back to the engine default.
		}
	}

	p.workers = ResolveWorkers(req.parallelism)

	p.samples = e.opts.MonteCarloSamples
	if req.mcSamples > 0 {
		p.samples = req.mcSamples
	}
	p.seed = e.opts.MonteCarloSeed
	if req.mcSeed != nil {
		p.seed = *req.mcSeed
	}

	p.useCache = e.cache != nil
	if req.useCache != nil {
		p.useCache = p.useCache && *req.useCache
	}
	p.useFilter = req.useFilter == nil || *req.useFilter
	if p.plans != nil && (req.threshold != nil || req.topK > 0) {
		annotateFilterOps(p.plans, e, p.query)
	}
	return p, nil
}

// ResolveWorkers maps a WithParallelism hint to the worker count the
// engine runs with: 0 (unset) and 1 are serial, negative selects
// GOMAXPROCS. Exported so layered engines (the shard router's
// Monte-Carlo seeding rule) apply the identical resolution instead of
// a drifting copy.
func ResolveWorkers(hint int) int {
	switch {
	case hint > 0:
		return hint
	case hint < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// Evaluate answers the request in one batch. Cancelling ctx aborts the
// evaluation within one work item and returns ctx.Err().
func (e *Engine) Evaluate(ctx context.Context, req Request) (*Response, error) {
	plan, err := e.prepare(req)
	if err != nil {
		return nil, err
	}
	return e.evaluatePlan(ctx, plan)
}

// evaluatePlan runs an already-prepared plan to a batch Response.
func (e *Engine) evaluatePlan(ctx context.Context, plan *evalPlan) (*Response, error) {
	resp := &Response{Strategy: plan.strategy, Plans: plan.plans}

	if spec, ok := plan.req.AggregateHint(); ok {
		a, err := e.aggregate(ctx, plan, spec)
		if err != nil {
			return nil, err
		}
		resp.Agg = a
		resp.Cache, resp.Filter = plan.cacheRep.report(), plan.filterRep
		return resp, nil
	}

	if plan.req.topK > 0 {
		out, err := e.topK(ctx, plan)
		if err != nil {
			return nil, err
		}
		resp.Results = out
		resp.Cache, resp.Filter = plan.cacheRep.report(), plan.filterRep
		return resp, nil
	}

	results := make([]Result, 0, e.db.Len())
	for r, serr := range e.stream(ctx, plan) {
		if serr != nil {
			return nil, serr
		}
		results = append(results, r)
	}
	resp.Results = results
	resp.Cache, resp.Filter = plan.cacheRep.report(), plan.filterRep
	return resp, nil
}

// topK runs ranked retrieval: the stream folded through a k-sized
// min-heap so memory stays O(k) regardless of database size. When the
// plan is filter-eligible the fold additionally prunes objects whose
// upper bound provably cannot displace the current k-th result
// (filter.go); both paths share the same heap semantics and exact
// evaluators, so results are identical.
func (e *Engine) topK(ctx context.Context, plan *evalPlan) ([]Result, error) {
	h := &resultMinHeap{}
	heap.Init(h)
	if plan.filterEligible() {
		if err := e.topKFiltered(ctx, plan, h); err != nil {
			return nil, err
		}
	} else {
		for r, serr := range e.stream(ctx, plan) {
			if serr != nil {
				return nil, serr
			}
			pushTopK(h, plan.req.topK, r)
		}
	}
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out, nil
}

// pushTopK folds one result into the k-bounded min-heap.
func pushTopK(h *resultMinHeap, k int, r Result) {
	if h.Len() < k {
		heap.Push(h, r)
		return
	}
	if better(r, (*h)[0]) {
		(*h)[0] = r
		heap.Fix(h, 0)
	}
}

// EvaluateSeq answers the request as a stream: results are yielded one
// object at a time, in evaluation order, without materializing the full
// result slice — the entry point for million-object scans. The sequence
// yields a non-nil error (and stops) on the first failure, including
// ctx.Err() on cancellation. Threshold filtering applies on the fly;
// a WithTopK request needs the full pass anyway and is materialized
// internally before streaming the ranked tail.
func (e *Engine) EvaluateSeq(ctx context.Context, req Request) iter.Seq2[Result, error] {
	plan, err := e.prepare(req)
	if err != nil {
		return func(yield func(Result, error) bool) { yield(Result{}, err) }
	}
	if _, ok := req.AggregateHint(); ok {
		return func(yield func(Result, error) bool) { yield(Result{}, ErrAggregateStream) }
	}
	if req.topK > 0 {
		return func(yield func(Result, error) bool) {
			resp, rerr := e.evaluatePlan(ctx, plan)
			if rerr != nil {
				yield(Result{}, rerr)
				return
			}
			for _, r := range resp.Results {
				if !yield(r, nil) {
					return
				}
			}
		}
	}
	return e.stream(ctx, plan)
}

// stream picks the per-object function for the plan's predicate and
// strategy, hands it to one of the two scan drivers (scan for the exact
// strategies, scanMC for sampling) and applies threshold filtering.
// Filter-eligible threshold requests route through the filter–refine
// core (filter.go), which skips exact evaluation of objects that
// provably cannot reach the threshold.
func (e *Engine) stream(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	if plan.req.topK <= 0 && plan.req.threshold != nil && plan.filterEligible() {
		return e.streamFilteredThreshold(ctx, plan)
	}
	inner := e.unfiltered(ctx, plan)
	if plan.req.threshold == nil {
		return inner
	}
	tau := *plan.req.threshold
	return func(yield func(Result, error) bool) {
		for r, err := range inner {
			if err != nil {
				yield(Result{}, err)
				return
			}
			if r.Prob < tau {
				continue
			}
			if !yield(r, nil) {
				return
			}
		}
	}
}

// unfiltered is the predicate × strategy switch. The query-based
// strategy is serial whatever WithParallelism says — its per-object
// work is a dot product; the object-based one fans out when asked, and
// the kernels whose forward pass reads the transpose (exists, ktimes —
// not the augmented expression pass, which only steps forward) pre-build
// it so the workers' lazy initialization cannot race.
func (e *Engine) unfiltered(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	pred := plan.req.Predicate
	if plan.strategy == StrategyMonteCarlo && pred != PredicateEventually {
		return e.scanMC(ctx, plan)
	}
	ob := plan.strategy == StrategyObjectBased
	workers := 1
	if ob {
		workers = plan.workers
	}
	switch pred {
	case PredicateExpr:
		perObject := (*kern).exprExact
		if ob {
			perObject = (*kern).exprOBExact
		}
		return e.scan(ctx, workers, false, func(grp chainGroup) (*kern, error) {
			return e.exprGroupKernel(grp, plan)
		}, perObject)
	case PredicateEventually:
		region := sortedSet(plan.query.States)
		return e.scan(ctx, 1, false, func(grp chainGroup) (*kern, error) {
			k := e.kernel(grp.chain, nil, plan)
			var err error
			k.hitting, err = k.hittingFor(ctx, region, plan.req.maxSteps, plan.req.tol)
			return k, err
		}, (*kern).eventuallyExact)
	case PredicateKTimes:
		perObject := (*kern).ktimesQBExact
		if ob {
			perObject = (*kern).ktimesOBExact
		}
		return e.scan(ctx, workers, ob, func(grp chainGroup) (*kern, error) {
			return e.groupKernel(grp, plan, false)
		}, perObject)
	default: // exists / forall
		forAll := pred == PredicateForAll
		perObject := func(k *kern, ctx context.Context, o *Object) (Result, error) {
			return k.existsExact(ctx, o, forAll)
		}
		if ob {
			perObject = func(k *kern, ctx context.Context, o *Object) (Result, error) {
				return k.obExistsExact(ctx, o, forAll)
			}
		}
		return e.scan(ctx, workers, ob, func(grp chainGroup) (*kern, error) {
			return e.groupKernel(grp, plan, forAll)
		}, perObject)
	}
}

// scan is the one loop of the exact strategies: chain groups in order,
// one kernel per group, perObject over the group's objects — serially,
// or through parallelOrdered when workers > 1 (in-order delivery, the
// lowest-index error). warm pre-builds the group chain's transpose
// before a fan-out. A group's kernel is built when the scan reaches the
// group, so a window that fails to compile against a later group's
// state space surfaces after the earlier groups' results — the same
// rule for every strategy and worker count, and the one the filter
// loops (filter.go) follow.
func (e *Engine) scan(ctx context.Context, workers int, warm bool,
	kernelFor func(chainGroup) (*kern, error),
	perObject func(*kern, context.Context, *Object) (Result, error)) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		for _, grp := range e.db.groupByChain() {
			k, err := kernelFor(grp)
			if err != nil {
				yield(Result{}, err)
				return
			}
			if workers > 1 {
				if warm {
					grp.chain.Transposed()
				}
				for r, err := range parallelOrdered(ctx, len(grp.objects), workers, func(ctx context.Context, i int) (Result, error) {
					return perObject(k, ctx, grp.objects[i])
				}) {
					if err != nil {
						yield(Result{}, err)
						return
					}
					if !yield(r, nil) {
						return
					}
				}
				continue
			}
			for _, o := range grp.objects {
				if err := ctx.Err(); err != nil {
					yield(Result{}, err)
					return
				}
				r, err := perObject(k, ctx, o)
				if err != nil {
					yield(Result{}, err)
					return
				}
				if !yield(r, nil) {
					return
				}
			}
		}
	}
}

// groupKernel compiles the plan's window for one chain group (taking the
// PST∀Q complement when requested) and binds it to the engine kernel.
func (e *Engine) groupKernel(grp chainGroup, plan *evalPlan, complement bool) (*kern, error) {
	w, err := compile(plan.query, grp.chain.NumStates())
	if err != nil {
		return nil, err
	}
	if complement {
		w = w.complemented()
	}
	return e.kernel(grp.chain, w, plan), nil
}

// mcSampler compiles the plan's predicate against one chain and returns
// the per-object sampler (no kernel — sampling neither caches nor
// filters).
func (plan *evalPlan) mcSampler(chain *markov.Chain) (func(context.Context, *Object, *rand.Rand) (Result, error), error) {
	if plan.req.Predicate == PredicateExpr {
		prog, err := compileExpr(*plan.expr, chain.NumStates())
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, o *Object, rng *rand.Rand) (Result, error) {
			p, err := exprMCRun(ctx, chain, o, prog, plan.samples, rng)
			return Result{ObjectID: o.ID, Prob: p}, err
		}, nil
	}
	w, err := compile(plan.query, chain.NumStates())
	if err != nil {
		return nil, err
	}
	if plan.req.Predicate == PredicateKTimes {
		return func(ctx context.Context, o *Object, rng *rand.Rand) (Result, error) {
			dist, err := monteCarloKTimesRun(ctx, chain, o, w, plan.samples, rng)
			if err != nil {
				return Result{}, err
			}
			return kTimesResult(o.ID, dist), nil
		}, nil
	}
	pred := predicateExists
	if plan.req.Predicate == PredicateForAll {
		pred = predicateForAll
	}
	return func(ctx context.Context, o *Object, rng *rand.Rand) (Result, error) {
		p, err := monteCarloRun(ctx, chain, o, w, plan.samples, rng, pred)
		return Result{ObjectID: o.ID, Prob: p}, err
	}, nil
}

// scanMC is the one loop of the Monte-Carlo strategy. It walks the
// database in insertion order (not chain-group order) with one compiled
// sampler per distinct chain, all compiled before the first sample: the
// rng sequence is part of the observable output, and the serial shared
// rng has always consumed objects in database order. Serial evaluation
// shares one deterministic rng across objects; parallel evaluation
// derives an independent per-object seed so results stay reproducible
// regardless of scheduling.
func (e *Engine) scanMC(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		objects := e.db.Objects()
		samplers := map[*markov.Chain]func(context.Context, *Object, *rand.Rand) (Result, error){}
		for _, o := range objects {
			ch := e.db.ChainOf(o)
			if _, ok := samplers[ch]; ok {
				continue
			}
			sample, err := plan.mcSampler(ch)
			if err != nil {
				yield(Result{}, err)
				return
			}
			samplers[ch] = sample
		}
		if plan.workers > 1 {
			parallelOrdered(ctx, len(objects), plan.workers, func(ctx context.Context, i int) (Result, error) {
				o := objects[i]
				rng := rand.New(rand.NewSource(perObjectSeed(plan.seed, o.ID)))
				return samplers[e.db.ChainOf(o)](ctx, o, rng)
			})(yield)
			return
		}
		rng := rand.New(rand.NewSource(plan.seed))
		for _, o := range objects {
			if err := ctx.Err(); err != nil {
				yield(Result{}, err)
				return
			}
			r, err := samplers[e.db.ChainOf(o)](ctx, o, rng)
			if err != nil {
				yield(Result{}, err)
				return
			}
			if !yield(r, nil) {
				return
			}
		}
	}
}

// perObjectSeed derives a deterministic per-object rng seed from the
// request seed (splitmix64 finalizer over the pair).
func perObjectSeed(seed int64, objectID int) int64 {
	z := uint64(seed) ^ (uint64(objectID)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// kTimesResult wraps a PSTkQ distribution as a unified Result: Dist is
// the full distribution, Prob the probability of at least one visit.
func kTimesResult(objectID int, dist []float64) Result {
	p := 0.0
	if len(dist) > 0 {
		p = 1 - dist[0]
	}
	return Result{ObjectID: objectID, Prob: p, Dist: dist}
}
