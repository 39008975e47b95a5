// Package ust is a library for querying uncertain spatio-temporal data,
// reproducing Emrich, Kriegel, Mamoulis, Renz & Züfle, "Querying
// Uncertain Spatio-Temporal Data", ICDE 2012.
//
// Uncertain moving objects — icebergs drifting with the current,
// vehicles on a road network, customers in a mall — are modeled as
// discrete-time Markov chains over a finite state space. The library
// answers three probabilistic spatio-temporal queries under possible-
// worlds semantics, exactly:
//
//   - Exists (PST∃Q): probability the object is inside a spatial region
//     at *some* timestamp of a time window.
//   - ForAll (PST∀Q): probability the object stays inside the region at
//     *every* timestamp of the window.
//   - KTimes (PSTkQ): the full distribution over *how many* window
//     timestamps the object spends inside the region.
//
// Quick start:
//
//	chain, _ := ust.ChainFromDense([][]float64{
//		{0, 0, 1},
//		{0.6, 0, 0.4},
//		{0, 0.8, 0.2},
//	})
//	db := ust.NewDatabase(chain)
//	db.AddSimple(1, ust.PointDistribution(3, 1)) // observed at state s2
//	engine := ust.NewEngine(db, ust.Options{})
//	resp, _ := engine.Evaluate(ctx, ust.NewRequest(ust.PredicateExists,
//		ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3})))
//	// resp.Results[0].Prob == 0.864 — the paper's running example
//
// Evaluate answers every predicate (exists / forall / ktimes /
// eventually) with every strategy and ranking through a single Request
// value; EvaluateSeq streams the same results one object at a time for
// scans too large to materialize. That is the whole query surface of an
// Engine: ranking is WithThreshold / WithTopK, the expected count is the
// mean of an AggCount request, "at least k visits" is the tail of a
// ktimes Result.Dist, and a standing query is Service.Subscribe. Two
// things sit beside it on purpose: Engine.Marginal (the per-timestamp
// posterior of one object) and Engine.BuildClusterIndex +
// ExistsThresholdClustered (interval-envelope pruning for databases
// where every object has its own chain, which Evaluate does not cover).
//
// Objects may carry multiple observations; queries between (or after)
// observations are answered by conditioning on all of them (Bayesian
// interpolation, Section VI of the paper). Databases may mix objects
// with different motion models.
//
// The implementation reduces every query to sparse vector-matrix
// products over the chain with an absorbing "hit" state folded in
// implicitly; see DESIGN.md for the architecture, and internal/exp
// (driven by `ustbench -list` / `ustbench -fig …`) for the reproduction
// of the paper's evaluation.
package ust

import (
	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/shard"
	"ust/internal/sparse"
	"ust/query"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Chain is a homogeneous first-order Markov chain: the motion model
	// of an uncertain object.
	Chain = markov.Chain
	// Distribution is a probability distribution over the state space.
	Distribution = markov.Distribution
	// Database holds uncertain objects sharing a default motion model.
	Database = core.Database
	// Object is an uncertain spatio-temporal object: a motion model
	// plus one or more observations.
	Object = core.Object
	// Observation is a (possibly uncertain) sighting: a pdf over states
	// at a timestamp.
	Observation = core.Observation
	// Engine evaluates probabilistic spatio-temporal queries.
	Engine = core.Engine
	// Options tune an Engine.
	Options = core.Options
	// Query is a spatio-temporal window: states × timestamps.
	Query = core.Query
	// Request is a complete query: predicate × window × execution
	// hints. Build one with NewRequest and the With… options.
	Request = core.Request
	// RequestOption customizes one Request.
	RequestOption = core.RequestOption
	// Response is the batch answer to a Request.
	Response = core.Response
	// Predicate identifies the query predicate of a Request.
	Predicate = core.Predicate
	// Result is a per-object probability (plus the visit-count
	// distribution for ktimes-requests).
	Result = core.Result
	// Strategy selects the evaluation plan.
	Strategy = core.Strategy
	// WorldStats is the exact brute-force aggregate over possible
	// worlds (validation tool; exponential).
	WorldStats = core.WorldStats
	// IntervalChain is an envelope over a set of similar chains, used
	// for cluster-level pruning.
	IntervalChain = core.IntervalChain
	// Vec is the sparse/dense hybrid vector backing distributions.
	Vec = sparse.Vec
	// Matrix is a compressed-sparse-row matrix.
	Matrix = sparse.CSR
	// Sampler draws chain transitions in O(1) via alias tables; use it
	// for heavy Monte-Carlo budgets.
	Sampler = markov.Sampler
	// CostEstimate is a planner prediction for one strategy.
	CostEstimate = core.CostEstimate
	// CacheStats is a snapshot of the engine-wide score cache counters
	// (Engine.CacheStats).
	CacheStats = core.CacheStats
	// CacheReport is one evaluation's score-cache traffic
	// (Response.Cache).
	CacheReport = core.CacheReport
	// FilterReport is one evaluation's filter–refine funnel
	// (Response.Filter).
	FilterReport = core.FilterReport
	// Expr is a composable predicate expression: exists/forall atoms,
	// each with its own window, combined with And/Or/Not/Then and
	// evaluated exactly (correlations included) via NewExprRequest.
	Expr = core.Expr
	// ExprAtom is the leaf payload of an Expr.
	ExprAtom = core.ExprAtom
	// ExprOp identifies an Expr node kind.
	ExprOp = core.ExprOp
	// BatchItem is one request's outcome within Engine.EvaluateBatch /
	// EvaluateBatchSeq.
	BatchItem = core.BatchItem
	// Evaluator is the query surface every engine implementation
	// serves: Engine and ShardedEngine both satisfy it, and the
	// conformance machinery pins implementations to byte-identical
	// results through it.
	Evaluator = core.Evaluator
	// ShardedEngine partitions a database's objects across N shard
	// engines by consistent hashing and serves the same Evaluate/
	// EvaluateSeq/EvaluateBatch surface with byte-identical results;
	// see NewShardedEngine.
	ShardedEngine = shard.Router
	// SharedCache is a score cache shared across engines (the shard
	// fleet's, or any group of engines the caller wires together); see
	// NewSharedCache and Options.Cache.
	SharedCache = core.SharedCache
	// AggSpec asks for a probabilistic aggregate over the whole result
	// set: the exact count distribution (AggCount) or a per-timestep
	// occupancy profile (AggOccupancy); see NewAggRequest.
	AggSpec = core.AggSpec
	// AggKind selects the aggregate form of an AggSpec.
	AggKind = core.AggKind
	// AggResult is the answer to an aggregate request (Response.Agg):
	// the count PMF with its moments and iceberg tail, or the occupancy
	// profile.
	AggResult = core.AggResult
	// AggPoint is one timestep of an occupancy profile.
	AggPoint = core.AggPoint
	// FactorSet is an aggregate's factor decomposition — what
	// distributed deployments ship between workers and coordinator
	// before the canonical-order fold (see Engine.AggregateFactors).
	FactorSet = core.FactorSet
	// SweepTier extends the score cache's per-key single-flight across
	// process boundaries (Options.Sweeps).
	SweepTier = core.SweepTier
)

// DefaultCacheBytes is the default byte budget of the engine's shared
// score cache; tune with Options.CacheBytes.
const DefaultCacheBytes = core.DefaultCacheBytes

// Evaluation strategies.
const (
	// StrategyQueryBased: one backward sweep per chain, one dot product
	// per object. The default.
	StrategyQueryBased = core.StrategyQueryBased
	// StrategyObjectBased: one forward pass per object.
	StrategyObjectBased = core.StrategyObjectBased
	// StrategyMonteCarlo: the sampling baseline. Approximate.
	StrategyMonteCarlo = core.StrategyMonteCarlo
)

// Query predicates.
const (
	// PredicateExists: PST∃Q — inside the region at SOME window time.
	PredicateExists = core.PredicateExists
	// PredicateForAll: PST∀Q — inside the region at EVERY window time.
	PredicateForAll = core.PredicateForAll
	// PredicateKTimes: PSTkQ — distribution over the visit count.
	PredicateKTimes = core.PredicateKTimes
	// PredicateEventually: unbounded-horizon hitting probability.
	PredicateEventually = core.PredicateEventually
)

// Aggregate kinds.
const (
	// AggCount: the exact distribution of HOW MANY objects satisfy the
	// predicate, computed via generating functions (∏ᵢ(1−pᵢ+pᵢx)).
	AggCount = core.AggCount
	// AggOccupancy: per-timestep mean/variance (and iceberg tail) of the
	// number of objects inside the region at each window timestamp.
	AggOccupancy = core.AggOccupancy
)

// ErrAggregateStream is returned by the streaming entry points for
// aggregate requests: the answer is one distribution, not a per-object
// result stream — use Evaluate (or client.Query) instead.
var ErrAggregateStream = core.ErrAggregateStream

// NewAggRequest builds an aggregate request: evaluate the predicate
// over every object, then aggregate the per-object satisfaction
// probabilities into the spec's distribution. The count PMF in
// Response.Agg is exact and byte-identical across engine, sharded and
// remote evaluation:
//
//	resp, _ := engine.Evaluate(ctx, ust.NewAggRequest(ust.PredicateExists,
//		ust.AggSpec{Kind: ust.AggCount, MinCount: 10},
//		ust.WithStates([]int{100, 101}), ust.WithTimeRange(20, 25)))
//	// resp.Agg.PMF[k] = P(exactly k objects inside), resp.Agg.Tail = P(≥ 10)
func NewAggRequest(p Predicate, spec AggSpec, opts ...RequestOption) Request {
	return core.NewAggRequest(p, spec, opts...)
}

// WithAggregate turns any request (including compound-expression ones)
// into an aggregate request; see NewAggRequest.
func WithAggregate(spec AggSpec) RequestOption { return core.WithAggregate(spec) }

// NewRequest builds a Request for the given predicate; see the With…
// options for windows, strategies, ranking and budgets. Evaluate it
// with engine.Evaluate (batch) or engine.EvaluateSeq (streaming).
func NewRequest(p Predicate, opts ...RequestOption) Request { return core.NewRequest(p, opts...) }

// WithWindow sets the request's window from a Query value.
func WithWindow(q Query) RequestOption { return core.WithWindow(q) }

// WithStates sets the spatial predicate as raw state identifiers.
func WithStates(states []int) RequestOption { return core.WithStates(states) }

// WithTimes sets the temporal predicate as absolute timestamps.
func WithTimes(times []int) RequestOption { return core.WithTimes(times) }

// WithTimeRange sets the temporal predicate to {lo..hi}.
func WithTimeRange(lo, hi int) RequestOption { return core.WithTimeRange(lo, hi) }

// WithRegion sets a geometric spatial predicate, resolved to state ids
// through the resolver (an R-tree over the state space, or a raster
// space directly) at evaluation time.
func WithRegion(region Region, resolver RegionResolver) RequestOption {
	return core.WithRegion(region, resolver)
}

// WithStrategy forces the evaluation strategy for this request.
func WithStrategy(s Strategy) RequestOption { return core.WithStrategy(s) }

// WithAutoPlan lets the cost planner pick the cheaper exact strategy.
func WithAutoPlan() RequestOption { return core.WithAutoPlan() }

// WithThreshold keeps only objects with probability ≥ tau.
func WithThreshold(tau float64) RequestOption { return core.WithThreshold(tau) }

// WithTopK keeps the k highest-probability objects, ranked.
func WithTopK(k int) RequestOption { return core.WithTopK(k) }

// WithParallelism fans per-object work out over workers goroutines
// (≤ 0 selects GOMAXPROCS; a request without the option runs serially).
func WithParallelism(workers int) RequestOption { return core.WithParallelism(workers) }

// WithMonteCarloBudget overrides the Monte-Carlo sample budget and seed
// for this request.
func WithMonteCarloBudget(samples int, seed int64) RequestOption {
	return core.WithMonteCarloBudget(samples, seed)
}

// WithHittingLimits tunes the fixed-point iteration of
// PredicateEventually requests.
func WithHittingLimits(maxSteps int, tol float64) RequestOption {
	return core.WithHittingLimits(maxSteps, tol)
}

// WithCache toggles the engine's shared score cache for this request
// (on by default when the engine has one). Repeated and standing
// queries share backward sweeps through it; Response.Cache reports the
// traffic. Results are identical either way.
func WithCache(enabled bool) RequestOption { return core.WithCache(enabled) }

// WithFilterRefine is the object-based strategy's toggle (on by
// default), for its filter–refine stage and its clip alike: cheap
// reachability bounds prune threshold/top-k candidates before any
// forward pass, Response.Filter reports the funnel, and every forward
// pass is clipped to the window's reach cone; off, it is the paper's
// full pass per object. Object-based answers agree to 1e-12 either way
// (to the bit while the unclipped frontier stays sparse). Under the
// query-based and Monte-Carlo strategies it changes nothing: same
// answers, same (zero) funnel.
func WithFilterRefine(enabled bool) RequestOption { return core.WithFilterRefine(enabled) }

// --- compound expressions -------------------------------------------------
//
// The predicate algebra: atoms are exists/forall predicates with their
// own windows; And/Or/Not/Then combine them. A compound request is
// evaluated EXACTLY — the atoms share one trajectory distribution, so
// their correlations are handled by flag-bit state-space augmentation
// rather than naive probability arithmetic. Express one as a Request
// with NewExprRequest (all ranking/strategy/caching options apply), or
// parse it from the text query language with ParseQuery.

// ExistsAtom is a PST∃Q leaf for compound expressions: inside the
// region at SOME window timestamp. Use the window options (WithStates,
// WithTimes, WithTimeRange, WithRegion) to define it.
func ExistsAtom(opts ...RequestOption) Expr { return core.ExistsAtom(opts...) }

// ForAllAtom is a PST∀Q leaf for compound expressions: inside the
// region at EVERY window timestamp.
func ForAllAtom(opts ...RequestOption) Expr { return core.ForAllAtom(opts...) }

// And is the conjunction of expressions.
func And(operands ...Expr) Expr { return core.And(operands...) }

// Or is the disjunction of expressions.
func Or(operands ...Expr) Expr { return core.Or(operands...) }

// Not negates an expression.
func Not(operand Expr) Expr { return core.Not(operand) }

// Then is temporal sequencing: every operand must hold, and each
// operand's window must end strictly before the next one's begins.
func Then(operands ...Expr) Expr { return core.Then(operands...) }

// NewExprRequest builds a compound-expression request; evaluate it with
// Engine.Evaluate like any other (threshold/top-k ranking, strategy
// overrides, caching and filter–refine pruning all apply).
func NewExprRequest(x Expr, opts ...RequestOption) Request {
	return core.NewExprRequest(x, opts...)
}

// WithExpr turns a request into a compound-expression query.
func WithExpr(x Expr) RequestOption { return core.WithExpr(x) }

// MaxExprAtoms bounds the atoms of one expression (augmented evaluation
// cost doubles per atom).
const MaxExprAtoms = core.MaxExprAtoms

// PredicateExpr marks a compound-expression Request (set via WithExpr /
// NewExprRequest).
const PredicateExpr = core.PredicateExpr

// BruteForceExpr evaluates a compound expression for one object by
// exhaustive possible-worlds enumeration (exponential; validation and
// tiny instances only).
func BruteForceExpr(chain *Chain, o *Object, x Expr) (float64, error) {
	return core.BruteForceExpr(chain, o, x)
}

// ParseQuery compiles a text-language query (package ust/query) into a
// Request:
//
//	req, err := ust.ParseQuery(
//		"exists(states(100-120) @ [20,25]) and not forall(states(7) @ [5,9]) where tau=0.3")
//
// The same strings are accepted by ustquery -q, the HTTP API's "query"
// envelope field and the Go client's QueryText; parsed requests work
// everywhere a Request does, including Service.Subscribe. Errors are
// *query.ParseError values carrying the offending column.
func ParseQuery(text string) (Request, error) { return query.Parse(text) }

// FormatQuery renders a Request in the text query language's canonical
// form (the inverse of ParseQuery, for every request the language can
// express).
func FormatQuery(req Request) (string, error) { return query.Format(req) }

// NewChain validates m as row-stochastic and wraps it as a motion model.
func NewChain(m *Matrix) (*Chain, error) { return markov.NewChain(m) }

// ChainFromDense builds a chain from a dense transition matrix.
func ChainFromDense(rows [][]float64) (*Chain, error) { return markov.FromDense(rows) }

// NewDatabase creates a database with the given default motion model.
func NewDatabase(defaultChain *Chain) *Database { return core.NewDatabase(defaultChain) }

// NewObject builds an object from observations (sorted by time). chain
// may be nil to use the database default.
func NewObject(id int, chain *Chain, obs ...Observation) (*Object, error) {
	return core.NewObject(id, chain, obs...)
}

// NewEngine builds a query engine over db.
func NewEngine(db *Database, opts Options) *Engine { return core.NewEngine(db, opts) }

// NewShardedEngine builds a sharded engine over db: objects partition
// across `shards` engines by consistent hashing on object id, requests
// fan out concurrently (bounded by WithParallelism, cancellation
// propagating to every shard), and result streams merge back into
// byte-identical single-engine output — ordered merge for scans, k-way
// heap merge with the exact tie-break order for top-k. All shards share
// one score cache, so each distinct backward sweep is computed once
// fleet-wide. The one documented divergence: the Monte-Carlo strategy
// always uses per-object seeding (the behaviour of WithParallelism(≥2)
// on a single engine). Ingest goes through the router's Add /
// ReplaceObject / Observe.
func NewShardedEngine(db *Database, shards int, opts Options) (*ShardedEngine, error) {
	return shard.New(db, shards, opts)
}

// NewSharedCache builds a score cache that several engines can share
// via Options.Cache (0 selects DefaultCacheBytes). NewShardedEngine
// wires one up automatically; explicit construction is for callers
// composing their own fleets.
func NewSharedCache(capacityBytes int) *SharedCache { return core.NewSharedCache(capacityBytes) }

// NewQuery builds a query window from state ids and timestamps (each
// copied, sorted, deduped).
func NewQuery(states, times []int) Query { return core.NewQuery(states, times) }

// Interval returns the contiguous id range {lo..hi}; a convenience for
// interval-shaped query regions and time windows.
func Interval(lo, hi int) []int { return core.Interval(lo, hi) }

// PointDistribution is a precise observation: all mass on one state.
func PointDistribution(numStates, state int) *Distribution {
	return markov.PointDistribution(numStates, state)
}

// UniformOver is an imprecise observation: uniform mass over the states.
func UniformOver(numStates int, states []int) *Distribution {
	return markov.UniformOver(numStates, states)
}

// WeightedOver builds a normalized distribution from state/weight pairs.
func WeightedOver(numStates int, states []int, weights []float64) (*Distribution, error) {
	return markov.WeightedOver(numStates, states, weights)
}

// NewMatrixFromDense builds a sparse matrix from dense rows (zeros are
// dropped).
func NewMatrixFromDense(rows [][]float64) *Matrix { return sparse.FromDense(rows) }

// NewIntervalChain builds the envelope of a set of similar chains for
// cluster-level pruning.
func NewIntervalChain(chains []*Chain) (*IntervalChain, error) {
	return core.NewIntervalChain(chains)
}

// BruteForce enumerates all possible worlds of an object (exponential;
// validation and tiny instances only).
func BruteForce(chain *Chain, o *Object, q Query) (*WorldStats, error) {
	return core.BruteForce(chain, o, q)
}

// PosteriorAt returns the state distribution of an object at time t
// conditioned on all its observations (interpolation/smoothing).
func PosteriorAt(chain *Chain, obs []Observation, t int) (*Distribution, error) {
	return core.PosteriorAt(chain, obs, t)
}

// NewSampler precomputes alias tables over the chain for O(1)
// transition sampling.
func NewSampler(c *Chain) *Sampler { return markov.NewSampler(c) }

// Stationary approximates the chain's stationary distribution by power
// iteration. Pass maxIter/tol ≤ 0 for defaults.
func Stationary(c *Chain, maxIter int, tol float64) (*Distribution, int, error) {
	return markov.Stationary(c, maxIter, tol)
}

// MixingTime estimates the steps needed for a point mass at start to
// come within tol (L1) of the stationary distribution pi.
func MixingTime(c *Chain, start int, pi *Distribution, maxSteps int, tol float64) (int, error) {
	return markov.MixingTime(c, start, pi, maxSteps, tol)
}
