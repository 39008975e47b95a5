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
//
// Every exact evaluation runs one object loop, scan: the plain stream,
// the thresholded stream, top-k and the count aggregate's factors. Its
// consumers differ only in the bar they hand the loop's filter gate
// (filter.go, object-based plans only) and in how they fold what it
// emits. Monte-Carlo sampling runs scanMC, whose rng order is
// observable output.

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
	// Refined evaluated exactly. Zero when the filter did not engage,
	// which is always the case for the query-based strategy.
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
	// bar is the acceptance bar scan's filter gate reads before each
	// object: the threshold, or −1 without one. The top-k fold raises it
	// to the heap's minimum once the heap is full.
	bar       float64
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
	p.bar = -1
	if req.threshold != nil {
		p.bar = *req.threshold
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
// min-heap, so memory stays O(k) whatever the database size. Once the
// heap is full, the fold raises the plan's bar to the larger of the
// threshold and the heap's minimum. An object whose probability is below
// the bar loses every comparison, id tie-breaks included, so the
// object-based gate may prune it on its bound alone; the query-based
// stream hands the heap every object's exact value, and the heap cuts.
func (e *Engine) topK(ctx context.Context, plan *evalPlan) ([]Result, error) {
	kk, tau := plan.req.topK, plan.bar
	h := &resultMinHeap{}
	for r, err := range e.stream(ctx, plan) {
		if err != nil {
			return nil, err
		}
		pushTopK(h, kk, r)
		if h.Len() == kk && (*h)[0].Prob > tau {
			plan.bar = (*h)[0].Prob
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

// stream is the per-object stream every consumer folds: scanMC for
// sampling, scan for the exact strategies, with the threshold applied
// on the fly.
func (e *Engine) stream(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	var inner iter.Seq2[Result, error]
	if plan.strategy == StrategyMonteCarlo && plan.req.Predicate != PredicateEventually {
		inner = e.scanMC(ctx, plan)
	} else {
		inner = e.scan(ctx, plan)
	}
	if plan.req.threshold == nil {
		return inner
	}
	tau := *plan.req.threshold
	return func(yield func(Result, error) bool) {
		inner(func(r Result, err error) bool {
			if err != nil {
				return yield(Result{}, err)
			}
			return r.Prob < tau || yield(r, nil)
		})
	}
}

// exactPass is one predicate × strategy pair of the exact strategies:
// the kernel a chain group compiles to, the exact evaluation of one of
// its objects, and the workers the object-based passes fan out to
// (warm: pre-build the chain's transpose first). bracket, when set, is
// how the filter gate refines at its bar instead of exact: the
// evaluation stops early once it proves the result below the bar
// (qualified = false); a bar ≤ 0 asks for the full evaluation.
type exactPass struct {
	kernel  func(*Engine, chainGroup, *evalPlan) (*kern, error)
	exact   func(*kern, context.Context, *Object) (Result, error)
	bracket func(k *kern, ctx context.Context, o *Object, bar float64) (r Result, qualified bool, err error)
	workers int
	warm    bool
}

// exactPassFor is the one predicate × strategy table. The query-based
// strategy is serial whatever WithParallelism says — its per-object
// work is a dot product; the object-based one fans out when asked, and
// the kernels whose forward pass reads the transpose (exists, ktimes —
// not the augmented expression pass, which only steps forward) pre-build
// it so the workers' lazy initialization cannot race. The object-based
// exists/forall pass is the one with a bracket; every other pair
// refines with its exact evaluator in full.
func exactPassFor(ctx context.Context, plan *evalPlan) exactPass {
	ob := plan.strategy == StrategyObjectBased
	p := exactPass{workers: 1}
	if ob {
		p.workers = plan.workers
	}
	switch pred := plan.req.Predicate; pred {
	case PredicateExpr:
		p.kernel = (*Engine).exprGroupKernel
		p.exact = (*kern).exprExact
		if ob {
			p.exact = (*kern).exprOBExact
		}
	case PredicateEventually:
		region := sortedSet(plan.query.States)
		p.workers = 1
		p.kernel = func(e *Engine, grp chainGroup, plan *evalPlan) (*kern, error) {
			k := e.kernel(grp.chain, nil, plan)
			var err error
			k.hitting, err = k.hittingFor(ctx, region, plan.req.maxSteps, plan.req.tol)
			return k, err
		}
		p.exact = (*kern).eventuallyExact
	default: // exists / forall / ktimes
		p.warm = ob
		p.kernel = (*Engine).groupKernel
		switch {
		case pred == PredicateKTimes && ob:
			p.exact = (*kern).ktimesOBExact
		case pred == PredicateKTimes:
			p.exact = (*kern).ktimesQBExact
		case ob:
			p.exact, p.bracket = (*kern).obExistsExact, (*kern).obExistsRefine
		default:
			p.exact = (*kern).existsExact
		}
	}
	return p
}

// scan is the one loop of the exact strategies: chain groups in order,
// one kernel per group, one exact pass per object — serially, or through
// parallelOrdered when the pass fans out (in-order delivery, the
// lowest-index error). When the plan's filter engages (filtered: a
// serial object-based plan), each object of the loop first passes the
// filter gate (filter.go): it is bounded, then pruned below plan.bar —
// the one value the consumer hands back into the loop — answered from
// the exact-zero certificate, or refined at the bar. A group's kernel is
// built when the scan reaches the group, so a window that fails to
// compile against a later group's state space surfaces after the earlier
// groups' results — the same rule for every strategy, worker count and
// consumer.
func (e *Engine) scan(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	pass := exactPassFor(ctx, plan)
	gated := plan.filtered()
	bound := plan.upperBound()
	certify, certified := plan.certificate()
	return func(yield func(Result, error) bool) {
		for _, grp := range e.db.groupByChain() {
			k, err := pass.kernel(e, grp, plan)
			if err != nil {
				yield(Result{}, err)
				return
			}
			if pass.workers > 1 {
				if pass.warm {
					grp.chain.Transposed()
				}
				for r, err := range parallelOrdered(ctx, len(grp.objects), pass.workers, func(ctx context.Context, i int) (Result, error) {
					return pass.exact(k, ctx, grp.objects[i])
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
				r, keep, err := Result{}, true, error(nil)
				if gated {
					// The filter gate, inline: most objects end at the
					// bound or the certificate.
					plan.filterRep.Candidates++
					var ub float64
					var ok bool
					ub, ok, err = bound(k, ctx, o)
					switch {
					case err != nil:
					case ok && plan.bar >= 0 && ub < plan.bar:
						plan.filterRep.Pruned++
						continue
					case ok && ub == 0 && certify:
						plan.filterRep.Pruned++
						r = Result{ObjectID: o.ID, Prob: certified}
					case pass.bracket != nil:
						if r, keep, err = pass.bracket(k, ctx, o, plan.bar); err == nil {
							plan.filterRep.Refined++
						}
					default:
						if r, err = pass.exact(k, ctx, o); err == nil {
							plan.filterRep.Refined++
						}
					}
				} else {
					r, err = pass.exact(k, ctx, o)
				}
				if err != nil {
					yield(Result{}, err)
					return
				}
				if keep && !yield(r, nil) {
					return
				}
			}
		}
	}
}

// groupKernel compiles the plan's window for one chain group (taking the
// complement for PST∀Q) and binds it to the engine kernel.
func (e *Engine) groupKernel(grp chainGroup, plan *evalPlan) (*kern, error) {
	w, err := compile(plan.query, grp.chain.NumStates())
	if err != nil {
		return nil, err
	}
	if plan.req.Predicate != PredicateForAll {
		return e.kernel(grp.chain, w, plan), nil
	}
	k := e.kernel(grp.chain, w.complemented(), plan)
	k.forAll = w
	return k, nil
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
