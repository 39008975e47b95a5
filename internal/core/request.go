package core

import (
	"fmt"
	"math"

	"ust/internal/spatial"
)

// The unified query surface. A Request is one self-contained question —
// predicate kind × spatio-temporal window × execution hints — and
// Engine.Evaluate / Engine.EvaluateSeq (and their batch forms) are the
// only entry points that ask it.

// Predicate identifies the query predicate of a Request.
type Predicate int

const (
	// PredicateExists is the PST∃Q (Definition 2): probability the
	// object is inside the region at SOME timestamp of the window.
	PredicateExists Predicate = iota
	// PredicateForAll is the PST∀Q (Definition 3): probability the
	// object is inside the region at EVERY timestamp of the window.
	PredicateForAll
	// PredicateKTimes is the PSTkQ (Definition 4): the distribution over
	// how many window timestamps the object spends inside the region.
	// Results carry the distribution in Result.Dist; Result.Prob is the
	// probability of at least one visit (1 − Dist[0]).
	PredicateKTimes
	// PredicateEventually is the unbounded-horizon extension: the
	// probability the object EVER enters the region, with no time limit
	// (the chain-theoretic hitting probability). The temporal predicate
	// is ignored; tune convergence with WithHittingLimits.
	PredicateEventually
	// PredicateExpr is a compound expression over exists/forall atoms
	// (algebra.go), each with its own window, combined with And/Or/Not/
	// Then and evaluated exactly by flag-bit state-space augmentation.
	// Set the expression with WithExpr or build the request with
	// NewExprRequest; the top-level States/Times/Region are unused.
	PredicateExpr
)

func (p Predicate) String() string {
	switch p {
	case PredicateExists:
		return "exists"
	case PredicateForAll:
		return "forall"
	case PredicateKTimes:
		return "ktimes"
	case PredicateEventually:
		return "eventually"
	case PredicateExpr:
		return "expr"
	default:
		return fmt.Sprintf("Predicate(%d)", int(p))
	}
}

// Request is a complete query: what to ask (predicate + window) and how
// to run it (strategy, ranking, budgets). Build one with NewRequest and
// functional options; the zero value is an exists-query with an empty
// window. Requests are values — copy and re-use them freely; options
// never mutate shared state.
type Request struct {
	// Predicate selects the query semantics.
	Predicate Predicate
	// States is the spatial predicate S□ as raw state identifiers.
	// It is merged with the states resolved from Region, if any.
	States []int
	// Times is the temporal predicate T□ as absolute timestamps.
	Times []int
	// Region is an optional geometric spatial predicate. It is resolved
	// into state ids through Resolver at evaluation time and unioned
	// with States.
	Region spatial.Region
	// Resolver maps Region to state ids (an *spatial.RTree over the
	// state space, or a Grid/LineSpace directly). Required when Region
	// is set.
	Resolver spatial.Resolver

	// expr is the compound expression of a PredicateExpr request, set
	// via WithExpr / NewExprRequest.
	expr *Expr

	// agg turns the request into a database-level aggregate (count
	// distribution or occupancy profile) over the predicate, set via
	// WithAggregate / NewAggRequest.
	agg *AggSpec

	// Execution hints, set via options. nil/zero means "engine default".
	strategy    *Strategy
	autoPlan    bool
	threshold   *float64
	topK        int
	parallelism int
	mcSamples   int
	mcSeed      *int64
	maxSteps    int
	tol         float64
	useCache    *bool
	useFilter   *bool
}

// RequestOption customizes one Request.
type RequestOption func(*Request)

// NewRequest builds a Request for the given predicate.
func NewRequest(p Predicate, opts ...RequestOption) Request {
	r := Request{Predicate: p}
	for _, opt := range opts {
		opt(&r)
	}
	return r
}

// With returns a copy of the request with the extra options applied.
func (r Request) With(opts ...RequestOption) Request {
	for _, opt := range opts {
		opt(&r)
	}
	return r
}

// WithWindow sets the spatio-temporal window from a legacy Query value.
func WithWindow(q Query) RequestOption {
	return func(r *Request) {
		r.States = q.States
		r.Times = q.Times
	}
}

// WithStates sets the spatial predicate as raw state identifiers.
func WithStates(states []int) RequestOption {
	return func(r *Request) { r.States = states }
}

// WithTimes sets the temporal predicate as absolute timestamps.
func WithTimes(times []int) RequestOption {
	return func(r *Request) { r.Times = times }
}

// WithTimeRange sets the temporal predicate to the contiguous window
// {lo..hi}.
func WithTimeRange(lo, hi int) RequestOption {
	return func(r *Request) { r.Times = Interval(lo, hi) }
}

// WithRegion sets a geometric spatial predicate, resolved to state ids
// through the resolver (an R-tree over the state space, or a raster
// space directly) when the request is evaluated. Resolved ids are
// unioned with any raw ids set via WithStates.
func WithRegion(region spatial.Region, resolver spatial.Resolver) RequestOption {
	return func(r *Request) {
		r.Region = region
		r.Resolver = resolver
	}
}

// WithExpr turns the request into a compound-expression query: the
// predicate becomes PredicateExpr and x replaces the request's own
// window (each atom carries its own). Build expressions with
// ExistsAtom/ForAllAtom and And/Or/Not/Then.
func WithExpr(x Expr) RequestOption {
	return func(r *Request) {
		r.Predicate = PredicateExpr
		r.expr = &x
	}
}

// NewExprRequest builds a compound-expression request: NewRequest
// (PredicateExpr, WithExpr(x), opts...). Ranking, strategy, caching and
// filter–refine options apply exactly as for atomic requests.
func NewExprRequest(x Expr, opts ...RequestOption) Request {
	return NewRequest(PredicateExpr, append([]RequestOption{WithExpr(x)}, opts...)...)
}

// WithAggregate turns the request into a database-level aggregate: the
// answer is no longer one Result per object but the exact distribution
// of how many objects satisfy the predicate (or, for PSTkQ, of the
// total visit count), reported on Response.Agg. The per-object
// probabilities come from the same exact kernels the plain request
// would run — strategy, auto-planning, caching and parallelism options
// apply unchanged — so the aggregate is consistent with the per-object
// answers to the ulp. Ranking options (WithTopK / WithThreshold) do not
// combine with aggregates.
func WithAggregate(spec AggSpec) RequestOption {
	return func(r *Request) { r.agg = &spec }
}

// NewAggRequest builds an aggregate request over the given predicate:
// NewRequest(p, WithAggregate(spec), opts...).
func NewAggRequest(p Predicate, spec AggSpec, opts ...RequestOption) Request {
	return NewRequest(p, append([]RequestOption{WithAggregate(spec)}, opts...)...)
}

// WithStrategy forces the evaluation strategy for this request,
// overriding the engine default and WithAutoPlan.
func WithStrategy(s Strategy) RequestOption {
	return func(r *Request) {
		r.strategy = &s
		r.autoPlan = false
	}
}

// WithAutoPlan lets the cost planner pick the cheaper exact strategy
// per request (Section V-C). The chosen strategy and the cost estimates
// are reported in the Response.
func WithAutoPlan() RequestOption {
	return func(r *Request) {
		r.autoPlan = true
		r.strategy = nil
	}
}

// WithThreshold keeps only objects whose probability is ≥ tau. Results
// stay in database order (rank them with WithTopK when needed).
func WithThreshold(tau float64) RequestOption {
	return func(r *Request) { r.threshold = &tau }
}

// WithTopK keeps the k highest-probability objects, sorted descending
// (ties break toward smaller object id). Memory stays O(k) regardless
// of database size.
func WithTopK(k int) RequestOption {
	return func(r *Request) { r.topK = k }
}

// WithParallelism fans per-object work out over the given number of
// goroutines. workers ≤ 0 is stored as the hint −1, which ResolveWorkers
// turns into GOMAXPROCS at evaluation time; a request that never calls
// WithParallelism carries the hint 0 and runs serially (ResolveWorkers(0)
// == 1), as does WithParallelism(1). Only the object-based and
// Monte-Carlo strategies parallelize; the query-based strategy's
// per-object work is already a dot product.
func WithParallelism(workers int) RequestOption {
	return func(r *Request) {
		if workers <= 0 {
			workers = -1 // resolved to GOMAXPROCS at evaluation time
		}
		r.parallelism = workers
	}
}

// WithMonteCarloBudget overrides the per-object sample budget (and
// seed) for the Monte-Carlo strategy on this request.
func WithMonteCarloBudget(samples int, seed int64) RequestOption {
	return func(r *Request) {
		r.mcSamples = samples
		r.mcSeed = &seed
	}
}

// WithHittingLimits tunes the fixed-point iteration of
// PredicateEventually: maxSteps bounds the backward sweeps, tol is the
// sup-norm convergence tolerance. ≤ 0 selects the defaults.
func WithHittingLimits(maxSteps int, tol float64) RequestOption {
	return func(r *Request) {
		r.maxSteps = maxSteps
		r.tol = tol
	}
}

// WithCache toggles the engine's shared score cache for this request.
// Caching is on by default (when the engine has a cache); WithCache
// (false) forces fresh sweeps — useful for benchmarking and for one-off
// windows not worth the cache residency. Results are identical either
// way.
func WithCache(enabled bool) RequestOption {
	return func(r *Request) { r.useCache = &enabled }
}

// WithFilterRefine is the object-based strategy's toggle, for its gate
// and its clip alike. Gate: for WithThreshold / WithTopK requests and
// exists/forall counts, cheap reachability-envelope bounds prune objects
// that provably cannot qualify, or answer them outright, before any
// forward pass runs; Response.Filter reports the funnel. Clip: every
// forward pass, ranked or not, drops the frontier mass that has left the
// window's reach cone (the envelope the gate bounds with, kept for every
// timestamp). On by default; off, the strategy is the paper's algorithm
// as written — one full pass per object. Object-based exists/forall
// answers agree to the bit while the unclipped frontier stays sparse and
// within 1e-12 otherwise, PSTkQ distributions within 1e-12.
//
// Under the query-based strategy, whose per-object answer is one dot
// product, and under Monte-Carlo sampling the toggle changes nothing:
// not an answer, not the funnel (always zero), not the work done.
func WithFilterRefine(enabled bool) RequestOption {
	return func(r *Request) { r.useFilter = &enabled }
}

// --- hint accessors -------------------------------------------------------
//
// The execution hints are unexported (only the With… options set them),
// but serialization layers — the wire codec behind the network API —
// need to read a Request back out field by field. These accessors expose
// exactly the information the options can set, so encode(decode(x)) can
// reproduce a Request precisely.

// StrategyHint returns the forced strategy, if WithStrategy set one.
func (r Request) StrategyHint() (Strategy, bool) {
	if r.strategy == nil {
		return 0, false
	}
	return *r.strategy, true
}

// AutoPlanHint reports whether WithAutoPlan was requested.
func (r Request) AutoPlanHint() bool { return r.autoPlan }

// ThresholdHint returns the threshold, if WithThreshold set one.
func (r Request) ThresholdHint() (float64, bool) {
	if r.threshold == nil {
		return 0, false
	}
	return *r.threshold, true
}

// TopKHint returns k (0 when WithTopK was not used).
func (r Request) TopKHint() int { return r.topK }

// ParallelismHint returns the requested worker count: 0 when unset, -1
// for "GOMAXPROCS", a positive count otherwise.
func (r Request) ParallelismHint() int { return r.parallelism }

// MonteCarloHint returns the per-request sample budget and seed, if
// WithMonteCarloBudget set them.
func (r Request) MonteCarloHint() (samples int, seed int64, ok bool) {
	if r.mcSeed == nil {
		return 0, 0, false
	}
	return r.mcSamples, *r.mcSeed, true
}

// HittingHint returns the fixed-point limits set by WithHittingLimits
// (zero values when unset; the evaluator resolves ≤ 0 to defaults
// either way).
func (r Request) HittingHint() (maxSteps int, tol float64) { return r.maxSteps, r.tol }

// CacheHint returns the per-request cache toggle, if WithCache set one.
func (r Request) CacheHint() (enabled, ok bool) {
	if r.useCache == nil {
		return false, false
	}
	return *r.useCache, true
}

// AggregateHint returns the aggregate spec, if WithAggregate set one.
func (r Request) AggregateHint() (AggSpec, bool) {
	if r.agg == nil {
		return AggSpec{}, false
	}
	return *r.agg, true
}

// ExprHint returns the compound expression, if WithExpr set one.
func (r Request) ExprHint() (Expr, bool) {
	if r.expr == nil {
		return Expr{}, false
	}
	return *r.expr, true
}

// NeedsResolver reports whether the request carries a geometric region
// — top-level or inside an expression atom — with no resolver attached
// to ground it. The serving layer uses this to attach its dataset's
// spatial index to wire-decoded requests.
func (r Request) NeedsResolver() bool {
	if r.Region != nil && r.Resolver == nil {
		return true
	}
	return r.expr != nil && r.expr.needsResolver()
}

// AttachResolver returns a copy of the request with res attached to
// every region that lacks a resolver, including expression atoms.
func (r Request) AttachResolver(res spatial.Resolver) Request {
	if r.Region != nil && r.Resolver == nil {
		r.Resolver = res
	}
	if r.expr != nil && r.expr.needsResolver() {
		attached := r.expr.attachResolver(res)
		r.expr = &attached
	}
	return r
}

// FilterRefineHint returns the per-request filter–refine toggle, if
// WithFilterRefine set one.
func (r Request) FilterRefineHint() (enabled, ok bool) {
	if r.useFilter == nil {
		return false, false
	}
	return *r.useFilter, true
}

// Window resolves the request's spatio-temporal window into a legacy
// Query value: the union of the raw state ids and the region resolved
// against the state space. It is the inverse of WithWindow.
func (r Request) Window() (Query, error) {
	states := r.States
	if r.Region != nil {
		if r.Resolver == nil {
			return Query{}, fmt.Errorf("core: request has a region but no resolver (use WithRegion)")
		}
		resolved := r.Resolver.StatesIn(r.Region)
		if len(r.States) > 0 {
			merged := make([]int, 0, len(r.States)+len(resolved))
			merged = append(merged, r.States...)
			merged = append(merged, resolved...)
			states = merged
		} else {
			states = resolved
		}
	}
	return NewQuery(states, r.Times), nil
}

// resolveStrategy returns the strategy this request should run with
// under the given engine defaults. Auto-planning is handled by the
// caller (it needs the resolved window).
func (r Request) resolveStrategy(def Strategy) Strategy {
	if r.strategy != nil {
		return *r.strategy
	}
	return def
}

// validate rejects nonsensical hint combinations early.
func (r Request) validate() error {
	switch r.Predicate {
	case PredicateExists, PredicateForAll, PredicateKTimes, PredicateEventually:
		if r.expr != nil {
			return fmt.Errorf("core: WithExpr requires PredicateExpr, got %v", r.Predicate)
		}
	case PredicateExpr:
		if r.expr == nil {
			return fmt.Errorf("core: expression request without an expression (use WithExpr or NewExprRequest)")
		}
		if err := r.expr.validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown predicate %v", r.Predicate)
	}
	if r.topK < 0 {
		return fmt.Errorf("core: top-k needs k ≥ 1, got %d", r.topK)
	}
	// Written as a positive range test so NaN (which fails every
	// comparison) is rejected instead of silently admitting every object.
	if r.threshold != nil && !(*r.threshold >= 0 && *r.threshold <= 1) {
		return fmt.Errorf("core: threshold %g outside [0, 1]", *r.threshold)
	}
	if math.IsNaN(r.tol) {
		return fmt.Errorf("core: hitting tolerance is NaN")
	}
	if r.mcSamples < 0 {
		return fmt.Errorf("core: Monte-Carlo needs a positive sample count, got %d", r.mcSamples)
	}
	if r.Predicate == PredicateEventually {
		if r.strategy != nil && *r.strategy == StrategyMonteCarlo {
			return fmt.Errorf("core: eventually-queries have no Monte-Carlo strategy")
		}
	}
	if r.agg != nil {
		if err := r.agg.validate(); err != nil {
			return err
		}
		if r.topK > 0 || r.threshold != nil {
			return fmt.Errorf("core: aggregates answer the whole database; WithTopK/WithThreshold do not apply")
		}
		if r.agg.Kind == AggOccupancy {
			if r.Predicate != PredicateExists {
				return fmt.Errorf("core: occupancy profiles require PredicateExists, got %v", r.Predicate)
			}
			if r.strategy != nil && *r.strategy == StrategyMonteCarlo {
				return fmt.Errorf("core: occupancy profiles have no Monte-Carlo strategy")
			}
		}
	}
	return nil
}
