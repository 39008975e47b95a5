package core

import "fmt"

// Strategy selects the evaluation plan for database-wide queries.
type Strategy int

const (
	// StrategyQueryBased runs one backward sweep per chain group and a
	// dot product per object (Section V-B). The default: typically
	// orders of magnitude faster on large databases.
	StrategyQueryBased Strategy = iota
	// StrategyObjectBased runs a forward pass per object (Section V-A).
	StrategyObjectBased
	// StrategyMonteCarlo samples trajectories per object — the paper's
	// baseline competitor. Approximate.
	StrategyMonteCarlo
)

func (s Strategy) String() string {
	switch s {
	case StrategyQueryBased:
		return "query-based"
	case StrategyObjectBased:
		return "object-based"
	case StrategyMonteCarlo:
		return "monte-carlo"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// DefaultCacheBytes is the default byte budget of the engine's shared
// score cache: enough for ~80 dense sweeps over a 100k-state space.
const DefaultCacheBytes = 64 << 20

// Options tune an Engine. Every option can be overridden per request
// (WithStrategy, WithMonteCarloBudget, …).
type Options struct {
	// Strategy picks the default plan for Evaluate. Default:
	// query-based.
	Strategy Strategy
	// MonteCarloSamples is the per-object path budget for the
	// Monte-Carlo strategy. Default 100 (the paper's setting).
	MonteCarloSamples int
	// MonteCarloSeed seeds the sampler. The default (0) is a fixed seed:
	// results are reproducible unless the caller randomizes.
	MonteCarloSeed int64
	// CacheBytes bounds the engine-wide score cache that shares backward
	// sweeps across requests, subscriptions and the CLIs (approximate
	// payload bytes, LRU beyond it). 0 selects DefaultCacheBytes; negative
	// disables engine-side caching entirely. Individual requests can opt
	// out with WithCache(false).
	CacheBytes int
	// Cache, when set, replaces the engine's private score cache with a
	// shared one (NewSharedCache) so several engines — the shards of a
	// router, or independent engines over related databases — compute
	// each distinct sweep once between them. Overrides CacheBytes.
	Cache *SharedCache
	// Sweeps, when set, extends the score cache's per-key lease across
	// process boundaries: wireable sweep kinds consult the tier
	// after a local miss, adopting a peer's payload or computing under a
	// fleet-wide lease (sweeptier.go). Requires caching to be enabled;
	// with the cache disabled the tier is ignored.
	Sweeps SweepTier
}

func (o Options) withDefaults() Options {
	if o.MonteCarloSamples <= 0 {
		o.MonteCarloSamples = 100
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = DefaultCacheBytes
	}
	return o
}

// Engine evaluates probabilistic spatio-temporal queries over a
// database. Evaluate, EvaluateSeq and their batch forms are the query
// surface: every predicate, strategy and ranking is a Request.
type Engine struct {
	db   *Database
	opts Options
	// cache shares backward-sweep results engine-wide (nil when
	// disabled).
	cache *SharedCache
}

// NewEngine builds an engine over db with the given options.
func NewEngine(db *Database, opts Options) *Engine {
	if db == nil {
		panic("core: nil database")
	}
	e := &Engine{db: db, opts: opts.withDefaults()}
	switch {
	case e.opts.Cache != nil:
		e.cache = e.opts.Cache
	case e.opts.CacheBytes > 0:
		e.cache = NewSharedCache(e.opts.CacheBytes)
	}
	return e
}

// Database returns the engine's database.
func (e *Engine) Database() *Database { return e.db }

// CacheStats snapshots the engine's score-cache counters. The zero value
// is returned when caching is disabled.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.Stats()
}

// InvalidateCache drops every cached sweep immediately. No mutation
// through the Database needs it — cache keys cannot go stale
// (scorecache.go); this is the manual override for callers mutating
// state the keys cannot see.
func (e *Engine) InvalidateCache() {
	if e.cache != nil {
		e.cache.Invalidate()
	}
}

// Result is a per-object query answer. Prob is the predicate
// probability; for ktimes-requests Dist additionally carries the full
// visit-count distribution (Dist[k] = P(inside at exactly k query
// timestamps)) and Prob is the probability of at least one visit.
type Result struct {
	ObjectID int
	Prob     float64
	Dist     []float64 `json:",omitempty"`
}
