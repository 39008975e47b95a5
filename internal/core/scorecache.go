package core

import (
	"sync/atomic"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The engine-wide score cache. A backward sweep's result — the scoring
// vector(s) for one (chain, compiled window, observation time) — depends
// on nothing else: not on the object being answered, not on the rest of
// the database. That makes it the natural unit of sharing across
// repeated Evaluate calls, subscription refreshes, the experiment
// harness and ustquery sessions against one engine, and across the
// engines of a shard router. The cache is a Board (board.go) over those
// sweep results plus the boolean reachability envelopes the object-based
// filter and forward passes derive from the same keys: size-bounded LRU,
// and a per-key lease so that concurrent misses on one key compute it
// once.
//
// Nothing invalidates an entry, because no key can go stale: the sweep
// and envelope kinds are pure functions of the immutable chain, the
// window and the observation time, and the per-object kinds
// (multi-observation results and checks, posteriors) key themselves on the object's
// construction serial, which ingest replaces — a superseded object's
// entries are never asked for again and age out of the LRU. That keeps
// standing queries and ingest loops (Observe/Add, then Evaluate) fully
// cached for everything that did not change. Engine.InvalidateCache is
// the manual override.

// scoreKind discriminates what a cache entry holds. The values travel
// over the sweep tier (SweepKey.Kind), so a retired kind leaves its
// number unused rather than handing it to another kind.
type scoreKind uint8

const (
	// kindExists: one scoring column from the PST∃Q backward sweep.
	kindExists scoreKind = iota
	// kindKTimes: the |T□|+1 backward columns of the PSTkQ sweep.
	kindKTimes
	// kindHitting: the fixed-point hitting-probability column
	// (PredicateEventually); t0 is unused, sig folds in maxSteps/tol.
	kindHitting
	_
	// kindCertain: the "hits with certainty" envelope (kern.envelope),
	// the object-based filter's lower bound.
	kindCertain
	// kindExpr: the 2^m augmented backward family of a compound
	// expression (plan.go); sig is the expression signature.
	kindExpr
	// kindMultiObs: one multi-observation P∃ scalar. The key sig folds
	// the OBJECT SERIAL together with the window signature, so the entry
	// is content-addressed: replacing the object mints a new serial (and
	// thus a new key) and the old entry simply ages out of the LRU.
	kindMultiObs
	// kindPosterior: one cached per-object posterior distribution
	// (multiobs.go); sig is serial-based like kindMultiObs, t0 is the
	// query time.
	kindPosterior
	// kindCone: the reach cone of a window — its possible-envelope at
	// every time from t0 to the horizon (kern.coneFor), which the
	// object-based forward passes clip their frontier against and whose
	// first entry is the object-based filter's upper bound. Local only:
	// it never travels over the sweep tier.
	kindCone
	// kindPossible: the possible envelope at t0 alone (kern.envelope),
	// kindCone's first entry without the rest of the cone: the
	// multi-observation gate's test. Local only, like kindCone.
	kindPossible
	// kindFeasible: one multi-observation object's gate check
	// (kern.feasible), an empty value: only its error matters. sig is
	// serial-based like kindMultiObs, with no window folded in: one entry
	// per version serves every window.
	kindFeasible
)

// scoreKey identifies one cached sweep. The chain pointer is identity:
// chains are immutable after construction, so pointer equality is value
// equality for our purposes.
type scoreKey struct {
	chain *markov.Chain
	kind  scoreKind
	sig   uint64 // window signature (or hashed hitting parameters)
	t0    int    // observation time the sweep descends to
}

// scoreValue is the payload of one entry: score columns of |S| values
// for exact sweeps, a bitset for an envelope, a reach cone (its first
// set whole, its later ones as word spans or marked words), a packed
// distribution for a posterior, bare scalars for per-object results.
// Cached payloads are shared and must be treated as immutable by every
// reader.
type scoreValue struct {
	cols    [][]float64
	bits    *sparse.Bitset
	cone    *reachCone
	post    *markov.Distribution
	scalars []float64
}

// bytes approximates the resident size of the payload. A posterior is
// charged its packed columns (markov.Distribution.Bytes).
func (v scoreValue) bytes() int {
	b := 8 * len(v.scalars)
	for _, col := range v.cols {
		b += 8 * len(col)
	}
	if v.post != nil {
		b += v.post.Bytes()
	}
	if v.bits != nil {
		b += 8 * v.bits.Words()
	}
	if v.cone != nil {
		b += v.cone.bytes()
	}
	return b
}

// CacheStats is a snapshot of the engine score cache's lifetime
// counters, exposed through Engine.CacheStats.
type CacheStats struct {
	// Hits and Misses count lookups. A hit means a backward sweep (or
	// envelope) was served without recomputation.
	Hits, Misses uint64
	// Evictions counts entries dropped to respect the size bound.
	Evictions uint64
	// Expired counts entries dropped by InvalidateCache /
	// SharedCache.Invalidate.
	Expired uint64
	// Entries and Bytes describe the current residency.
	Entries int
	Bytes   int
}

// CacheReport is the per-request slice of cache traffic, reported on
// Response.Cache. Hits+Misses is the number of sweeps the request
// needed; Hits of them were served from the shared cache.
type CacheReport struct {
	Hits, Misses int
}

// cacheTally is one request's CacheReport while the request runs. Every
// kern of the request — and, under the parallel object-based fan-out,
// every worker sharing a kern — writes it, hence the atomics.
type cacheTally struct {
	hits, misses atomic.Int64
}

func (t *cacheTally) hit() {
	if t != nil {
		t.hits.Add(1)
	}
}

func (t *cacheTally) miss() {
	if t != nil {
		t.misses.Add(1)
	}
}

// adopted re-classifies the caller's just-counted miss as a hit.
func (t *cacheTally) adopted() {
	if t != nil {
		t.misses.Add(-1)
		t.hits.Add(1)
	}
}

func (t *cacheTally) report() CacheReport {
	return CacheReport{Hits: int(t.hits.Load()), Misses: int(t.misses.Load())}
}

// SharedCache is a score cache that several engines may share — the
// handle a shard router passes to its per-shard engines (Options.Cache)
// so that backward sweeps, which depend only on (chain, window,
// observation time) and never on which objects a shard holds, are
// computed once per distinct key across the whole fleet. An engine
// built without Options.Cache owns a private one. The board's per-key
// lease makes "once" literal even under concurrent shard fan-out: the
// first engine to need a sweep computes it while the others block on the
// key and then adopt it.
type SharedCache struct {
	board *Board[scoreKey, scoreValue]
	// adopted counts leases settled with a peer's payload from the
	// networked sweep tier instead of a computation; expired counts
	// entries dropped by Invalidate.
	adopted, expired atomic.Uint64
}

// NewSharedCache builds a cache bounded to roughly capacityBytes of
// payload (0 selects DefaultCacheBytes). Pass it to every engine that
// should share sweeps via Options.Cache.
func NewSharedCache(capacityBytes int) *SharedCache {
	if capacityBytes <= 0 {
		capacityBytes = DefaultCacheBytes
	}
	return &SharedCache{board: NewBoard[scoreKey](capacityBytes, 0, scoreValue.bytes)}
}

// Stats snapshots the cache's lifetime counters. A lookup served from a
// published value is a hit and a granted lease a miss — except a lease
// settled by adoption: "another process computed it" is service, not
// computation, which keeps the fleet-wide invariant that each distinct
// sweep costs exactly one miss, counted by the lease holder that
// actually computed it (what the conformance suite pins against the
// single-engine miss count).
func (s *SharedCache) Stats() CacheStats {
	adopted := s.adopted.Load() // before the board: never ahead of its Leases
	st := s.board.Stats()
	return CacheStats{
		Hits:      st.Served + adopted,
		Misses:    st.Leases - adopted,
		Evictions: st.Evictions,
		Expired:   s.expired.Load(),
		Entries:   st.Entries,
		Bytes:     st.Bytes,
	}
}

// Invalidate drops every cached sweep immediately — the manual override
// for callers mutating state the cache keys cannot see.
func (s *SharedCache) Invalidate() { s.expired.Add(uint64(s.board.Clear())) }
