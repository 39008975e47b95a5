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
	cacheRep  CacheReport
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
		resp.Cache, resp.Filter = plan.cacheRep, plan.filterRep
		return resp, nil
	}

	if plan.req.topK > 0 {
		out, err := e.topK(ctx, plan)
		if err != nil {
			return nil, err
		}
		resp.Results = out
		resp.Cache, resp.Filter = plan.cacheRep, plan.filterRep
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
	resp.Cache, resp.Filter = plan.cacheRep, plan.filterRep
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

// stream dispatches to the per-predicate/per-strategy evaluation cores
// and applies threshold filtering. Filter-eligible threshold requests
// route through the filter–refine core (filter.go), which skips exact
// evaluation of objects that provably cannot reach the threshold.
func (e *Engine) stream(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	if plan.req.topK <= 0 && plan.req.threshold != nil && plan.filterEligible() {
		return e.streamFilteredThreshold(ctx, plan)
	}
	var inner iter.Seq2[Result, error]
	switch plan.req.Predicate {
	case PredicateExpr:
		switch plan.strategy {
		case StrategyObjectBased:
			inner = e.streamExprOB(ctx, plan)
		case StrategyMonteCarlo:
			inner = e.streamExprMC(ctx, plan)
		default:
			inner = e.streamExprQB(ctx, plan)
		}
	case PredicateEventually:
		inner = e.streamEventually(ctx, plan)
	case PredicateKTimes:
		switch plan.strategy {
		case StrategyObjectBased:
			inner = e.streamKTimesOB(ctx, plan)
		case StrategyMonteCarlo:
			inner = e.streamKTimesMC(ctx, plan)
		default:
			inner = e.streamKTimesQB(ctx, plan)
		}
	default: // exists / forall
		forAll := plan.req.Predicate == PredicateForAll
		switch plan.strategy {
		case StrategyObjectBased:
			inner = e.streamExistsOB(ctx, plan, forAll)
		case StrategyMonteCarlo:
			inner = e.streamExistsMC(ctx, plan, forAll)
		default:
			inner = e.streamExistsQB(ctx, plan, forAll)
		}
	}
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

// streamExistsQB is the query-based core: one ctx-aware backward sweep
// per (chain, observation time) — shared through the score cache — then
// a dot product per object.
func (e *Engine) streamExistsQB(ctx context.Context, plan *evalPlan, forAll bool) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		for _, grp := range e.db.groupByChain() {
			k, err := e.groupKernel(grp, plan, forAll)
			if err != nil {
				yield(Result{}, err)
				return
			}
			for _, o := range grp.objects {
				if err := ctx.Err(); err != nil {
					yield(Result{}, err)
					return
				}
				r, oerr := k.existsExact(ctx, o, forAll)
				if oerr != nil {
					yield(Result{}, oerr)
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

// obTask is one unit of object-based work: an object bound to its chain
// group's kernel.
type obTask struct {
	o *Object
	k *kern
}

// obTasks flattens the database into evaluation order with one kernel
// per chain group. complement selects the PST∀Q view. warm pre-builds
// each chain's transpose so concurrent lazy initialization cannot race
// when workers share the chain; serial paths skip it.
func (e *Engine) obTasks(plan *evalPlan, complement, warm bool) ([]obTask, error) {
	tasks := make([]obTask, 0, e.db.Len())
	for _, grp := range e.db.groupByChain() {
		k, err := e.groupKernel(grp, plan, complement)
		if err != nil {
			return nil, err
		}
		if warm {
			grp.chain.Transposed()
		}
		for _, o := range grp.objects {
			tasks = append(tasks, obTask{o: o, k: k})
		}
	}
	return tasks, nil
}

// streamExistsOB is the object-based core: a ctx-aware forward pass per
// object, optionally fanned out over plan.workers goroutines with
// in-order delivery.
func (e *Engine) streamExistsOB(ctx context.Context, plan *evalPlan, forAll bool) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		tasks, err := e.obTasks(plan, forAll, plan.workers > 1)
		if err != nil {
			yield(Result{}, err)
			return
		}
		eval := func(ctx context.Context, i int) (Result, error) {
			return tasks[i].k.obExistsExact(ctx, tasks[i].o, forAll)
		}
		if plan.workers > 1 {
			parallelOrdered(ctx, len(tasks), plan.workers, eval)(yield)
			return
		}
		for i := range tasks {
			if err := ctx.Err(); err != nil {
				yield(Result{}, err)
				return
			}
			r, oerr := eval(ctx, i)
			if oerr != nil {
				yield(Result{}, oerr)
				return
			}
			if !yield(r, nil) {
				return
			}
		}
	}
}

// mcTask is one unit of Monte-Carlo work: an object bound to its chain
// and compiled window (no kernel — sampling neither caches nor filters).
type mcTask struct {
	o     *Object
	chain *markov.Chain
	w     *window
}

// mcTasks flattens the database in insertion order (not chain-group
// order) with one compiled window per distinct chain: the Monte-Carlo
// rng sequence is part of the observable output, and the serial shared
// rng has always consumed objects in database order.
func (e *Engine) mcTasks(q Query) ([]mcTask, error) {
	windows := map[*markov.Chain]*window{}
	tasks := make([]mcTask, 0, e.db.Len())
	for _, o := range e.db.Objects() {
		ch := e.db.ChainOf(o)
		w, ok := windows[ch]
		if !ok {
			var err error
			w, err = compile(q, ch.NumStates())
			if err != nil {
				return nil, err
			}
			windows[ch] = w
		}
		tasks = append(tasks, mcTask{o: o, chain: ch, w: w})
	}
	return tasks, nil
}

// streamExistsMC is the Monte-Carlo core. Serial evaluation shares one
// deterministic rng across objects in database order (the legacy
// behaviour); parallel evaluation derives an independent per-object
// seed so results stay reproducible regardless of scheduling.
func (e *Engine) streamExistsMC(ctx context.Context, plan *evalPlan, forAll bool) iter.Seq2[Result, error] {
	pred := predicateExists
	if forAll {
		pred = predicateForAll
	}
	return func(yield func(Result, error) bool) {
		tasks, err := e.mcTasks(plan.query)
		if err != nil {
			yield(Result{}, err)
			return
		}
		if plan.workers > 1 {
			eval := func(ctx context.Context, i int) (Result, error) {
				t := tasks[i]
				rng := rand.New(rand.NewSource(perObjectSeed(plan.seed, t.o.ID)))
				p, merr := monteCarloRun(ctx, t.chain, t.o, t.w, plan.samples, rng, pred)
				if merr != nil {
					return Result{}, merr
				}
				return Result{ObjectID: t.o.ID, Prob: p}, nil
			}
			parallelOrdered(ctx, len(tasks), plan.workers, eval)(yield)
			return
		}
		rng := rand.New(rand.NewSource(plan.seed))
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				yield(Result{}, err)
				return
			}
			p, merr := monteCarloRun(ctx, t.chain, t.o, t.w, plan.samples, rng, pred)
			if merr != nil {
				yield(Result{}, merr)
				return
			}
			if !yield(Result{ObjectID: t.o.ID, Prob: p}, nil) {
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

// streamKTimesQB is the query-based PSTkQ core: |T□|+1 backward vectors
// per (chain, observation time) — shared through the score cache — then
// |T□|+1 dot products per object.
func (e *Engine) streamKTimesQB(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		for _, grp := range e.db.groupByChain() {
			k, err := e.groupKernel(grp, plan, false)
			if err != nil {
				yield(Result{}, err)
				return
			}
			for _, o := range grp.objects {
				if err := ctx.Err(); err != nil {
					yield(Result{}, err)
					return
				}
				r, oerr := k.ktimesQBExact(ctx, o)
				if oerr != nil {
					yield(Result{}, oerr)
					return
				}
				if !yield(r, nil) {
					return
				}
			}
		}
	}
}

// streamKTimesOB is the object-based PSTkQ core: one ctx-aware forward
// pass per object over the (|T□|+1)-row count matrix, optionally fanned
// out over plan.workers goroutines.
func (e *Engine) streamKTimesOB(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		tasks, err := e.obTasks(plan, false, plan.workers > 1)
		if err != nil {
			yield(Result{}, err)
			return
		}
		eval := func(ctx context.Context, i int) (Result, error) {
			return tasks[i].k.ktimesOBExact(ctx, tasks[i].o)
		}
		if plan.workers > 1 {
			parallelOrdered(ctx, len(tasks), plan.workers, eval)(yield)
			return
		}
		for i := range tasks {
			if err := ctx.Err(); err != nil {
				yield(Result{}, err)
				return
			}
			r, kerr := eval(ctx, i)
			if kerr != nil {
				yield(Result{}, kerr)
				return
			}
			if !yield(r, nil) {
				return
			}
		}
	}
}

// streamKTimesMC is the Monte-Carlo PSTkQ core.
func (e *Engine) streamKTimesMC(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		tasks, err := e.mcTasks(plan.query)
		if err != nil {
			yield(Result{}, err)
			return
		}
		if plan.workers > 1 {
			eval := func(ctx context.Context, i int) (Result, error) {
				t := tasks[i]
				rng := rand.New(rand.NewSource(perObjectSeed(plan.seed, t.o.ID)))
				dist, merr := monteCarloKTimesRun(ctx, t.chain, t.o, t.w, plan.samples, rng)
				if merr != nil {
					return Result{}, merr
				}
				return kTimesResult(t.o.ID, dist), nil
			}
			parallelOrdered(ctx, len(tasks), plan.workers, eval)(yield)
			return
		}
		rng := rand.New(rand.NewSource(plan.seed))
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				yield(Result{}, err)
				return
			}
			dist, merr := monteCarloKTimesRun(ctx, t.chain, t.o, t.w, plan.samples, rng)
			if merr != nil {
				yield(Result{}, merr)
				return
			}
			if !yield(kTimesResult(t.o.ID, dist), nil) {
				return
			}
		}
	}
}

// streamEventually is the unbounded-horizon core: one ctx-aware
// fixed-point sweep per chain group — shared through the score cache —
// then a dot product per object.
func (e *Engine) streamEventually(ctx context.Context, plan *evalPlan) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		region := sortedSet(plan.query.States)
		for _, grp := range e.db.groupByChain() {
			k := e.kernel(grp.chain, nil, plan)
			scores, err := k.hittingFor(ctx, region, plan.req.maxSteps, plan.req.tol)
			if err != nil {
				yield(Result{}, err)
				return
			}
			for _, o := range grp.objects {
				if err := ctx.Err(); err != nil {
					yield(Result{}, err)
					return
				}
				if len(o.Observations) > 1 {
					yield(Result{}, errEventuallyMultiObs(o))
					return
				}
				pdf := o.First().PDF.Vec()
				mass := pdf.Sum()
				if mass == 0 {
					yield(Result{}, errZeroMass(o.ID))
					return
				}
				p := pdf.Dot(scores) / mass
				if p > 1 {
					p = 1
				}
				if !yield(Result{ObjectID: o.ID, Prob: p}, nil) {
					return
				}
			}
		}
	}
}
