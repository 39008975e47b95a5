package core

import (
	"container/list"
	"context"
	"sync"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The engine-wide score cache. A backward sweep's result — the scoring
// vector(s) for one (chain, compiled window, observation time) — depends
// on nothing else: not on the object being answered, not on the rest of
// the database. That makes it the natural unit of sharing across
// repeated Evaluate calls, subscription refreshes, the experiment
// harness and ustquery sessions against one engine. The cache is a concurrency-safe,
// size-bounded LRU over those sweep results plus the boolean
// reachability envelopes the filter stage derives from the same keys.
//
// Invalidation is generation-based: every entry records the database
// generation (Database.Version) current when it was computed; lookups
// compare against the live generation and lazily expire mismatched
// entries of generation-SENSITIVE kinds — payloads whose inputs include
// mutable state their keys cannot see. The sweep/envelope kinds are
// pure functions of the immutable chain, the window and the observation
// time, so mutations can never make them wrong; the per-object kinds
// (multi-observation results, posteriors) depend on observations but
// key themselves on the object's construction serial, which ingest
// replaces — so both families are revalidated in place instead of
// recomputed, which keeps standing queries and ingest loops
// (Observe/Add, then Evaluate) fully cached for everything that did not
// change. The generation machinery remains the correctness rail for
// future kinds whose keys DO have a blind spot; Engine.InvalidateCache
// remains the manual override.

// scoreKind discriminates what a cache entry holds.
type scoreKind uint8

const (
	// kindExists: one scoring vector from the PST∃Q backward sweep.
	kindExists scoreKind = iota
	// kindKTimes: the |T□|+1 backward vectors of the PSTkQ sweep.
	kindKTimes
	// kindHitting: the fixed-point hitting-probability vector
	// (PredicateEventually); t0 is unused, sig folds in maxSteps/tol.
	kindHitting
	// kindPossible: the "can possibly hit" reachability envelope.
	kindPossible
	// kindCertain: the "hits with certainty" envelope.
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
)

// genSensitive reports whether entries of this kind depend on mutable
// database state THROUGH THEIR KEY's blind spot and must therefore
// expire when the database generation advances. Sweeps and envelopes
// depend only on the immutable chain + window + time; the per-object
// kinds (kindMultiObs, kindPosterior) DO depend on observations, but
// their keys fold in the object's construction serial, which changes on
// every ingest — the key itself is the invalidation, so generation
// expiry would only throw away entries for objects that did not change
// (precisely the recomputation ingest-during-query workloads must
// avoid). Unknown kinds default to sensitive so a future cache user is
// safe by default.
func (k scoreKind) genSensitive() bool {
	switch k {
	case kindExists, kindKTimes, kindHitting, kindPossible, kindCertain, kindExpr,
		kindMultiObs, kindPosterior:
		return false
	}
	return true
}

// scoreKey identifies one cached sweep. The chain pointer is identity:
// chains are immutable after construction, so pointer equality is value
// equality for our purposes.
type scoreKey struct {
	chain *markov.Chain
	kind  scoreKind
	sig   uint64 // window signature (or hashed hitting parameters)
	t0    int    // observation time the sweep descends to
}

// scoreValue is the payload of one entry: float vectors for exact
// sweeps, bitsets for envelopes, bare scalars for per-object results.
// Cached payloads are shared and must be treated as immutable by every
// reader.
type scoreValue struct {
	vecs    []*sparse.Vec
	bits    *sparse.Bitset
	scalars []float64
}

// bytes approximates the resident size of the payload.
func (v scoreValue) bytes() int {
	b := 8 * len(v.scalars)
	for _, vec := range v.vecs {
		b += 8 * vec.Len()
	}
	if v.bits != nil {
		b += 8 * v.bits.Words()
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
	// Expired counts entries dropped by generation invalidation after
	// database mutations.
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

func (r *CacheReport) hit() {
	if r != nil {
		r.Hits++
	}
}

func (r *CacheReport) miss() {
	if r != nil {
		r.Misses++
	}
}

// scoreCache is the LRU proper. The zero value is not usable; construct
// with newScoreCache.
type scoreCache struct {
	mu       sync.Mutex
	capacity int // byte budget; entries are evicted LRU-first beyond it
	bytes    int
	ll       *list.List // front = most recently used
	items    map[scoreKey]*list.Element
	gen      func() uint64 // live generation source (Database.Version)
	stats    CacheStats
	// locks single-flights sweep computation per key: concurrent
	// evaluations (shards of one router, parallel requests on one
	// engine) that miss on the same key serialize, so exactly one
	// computes and the rest hit. Entries are reference-counted and
	// removed when the last holder releases.
	locks map[scoreKey]*keyLock
}

// keyLock is a context-aware mutex: the 1-buffered channel is the lock
// token, so a waiter can abandon the acquisition when its own context
// expires instead of stalling behind another caller's slow sweep.
type keyLock struct {
	ch   chan struct{}
	refs int
}

// lock acquires the per-key computation lock and returns its release
// function, or ctx.Err() if the caller's context ends while waiting.
// Callers hold it across the lookup-compute-insert sequence of one
// sweep; holders of DIFFERENT keys never contend (beyond the map access
// itself).
func (c *scoreCache) lock(ctx context.Context, key scoreKey) (unlock func(), err error) {
	c.mu.Lock()
	kl := c.locks[key]
	if kl == nil {
		kl = &keyLock{ch: make(chan struct{}, 1)}
		c.locks[key] = kl
	}
	kl.refs++
	c.mu.Unlock()
	release := func() {
		c.mu.Lock()
		kl.refs--
		if kl.refs == 0 {
			delete(c.locks, key)
		}
		c.mu.Unlock()
	}
	select {
	case kl.ch <- struct{}{}:
	case <-ctx.Done():
		release()
		return nil, ctx.Err()
	}
	return func() {
		<-kl.ch
		release()
	}, nil
}

type scoreEntry struct {
	key scoreKey
	val scoreValue
	gen uint64
}

// newScoreCache builds a cache bounded to roughly capacity bytes of
// payload. gen supplies the live database generation.
func newScoreCache(capacity int, gen func() uint64) *scoreCache {
	return &scoreCache{
		capacity: capacity,
		ll:       list.New(),
		items:    map[scoreKey]*list.Element{},
		gen:      gen,
		locks:    map[scoreKey]*keyLock{},
	}
}

// tryGet is the optimistic, lock-free-of-keyLock read: a hit counts
// (and refreshes LRU) exactly like get, but a miss counts NOTHING —
// the caller is about to retry under the per-key single-flight lock,
// and that locked get is the one that records the outcome. This keeps
// warm-path readers of the same key fully concurrent (no keyLock
// acquisition) without double-counting cold lookups.
func (c *scoreCache) tryGet(key scoreKey, rep *CacheReport) (scoreValue, bool) {
	return c.lookup(key, rep, false)
}

// get returns the cached payload for key if present and current.
func (c *scoreCache) get(key scoreKey, rep *CacheReport) (scoreValue, bool) {
	return c.lookup(key, rep, true)
}

func (c *scoreCache) lookup(key scoreKey, rep *CacheReport, countMiss bool) (scoreValue, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		ent := el.Value.(*scoreEntry)
		if gen := c.gen(); ent.gen != gen {
			if ent.key.kind.genSensitive() {
				// The database changed since this payload was computed
				// and the payload depends on what changed: expire and
				// fall through to a miss.
				c.removeLocked(el)
				c.stats.Expired++
				if countMiss {
					c.stats.Misses++
					rep.miss()
				}
				return scoreValue{}, false
			}
			// Generation-independent payload: provably still valid,
			// revalidate in place.
			ent.gen = gen
		}
		c.ll.MoveToFront(el)
		c.stats.Hits++
		rep.hit()
		return ent.val, true
	}
	if countMiss {
		c.stats.Misses++
		rep.miss()
	}
	return scoreValue{}, false
}

// put inserts (or replaces) the payload for key, then evicts LRU entries
// beyond the byte budget. The newest entry always survives its own
// insert, even when it alone exceeds the budget — refusing it would turn
// a hot oversized sweep into a permanent miss.
func (c *scoreCache) put(key scoreKey, val scoreValue) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// Duplicate compute under concurrency: keep the existing entry
		// (readers may already share it) and drop the newcomer.
		c.ll.MoveToFront(el)
		return
	}
	ent := &scoreEntry{key: key, val: val, gen: c.gen()}
	el := c.ll.PushFront(ent)
	c.items[key] = el
	c.bytes += val.bytes()
	for c.bytes > c.capacity && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back())
		c.stats.Evictions++
	}
}

// adopt inserts a payload served by a peer over the networked sweep
// tier and re-classifies the caller's just-counted miss as a hit: the
// locked get that preceded the tier round-trip recorded a miss before
// the outcome was known, and "another process computed it" is service,
// not computation. Adoption keeps the fleet-wide invariant that each
// distinct sweep costs exactly one miss — counted by the lease holder
// that actually computed it — which is what the conformance suite pins
// against the single-engine miss count. Like put, an entry already
// present wins over the newcomer.
func (c *scoreCache) adopt(key scoreKey, val scoreValue, rep *CacheReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.Misses > 0 {
		c.stats.Misses--
		c.stats.Hits++
	}
	if rep != nil && rep.Misses > 0 {
		rep.Misses--
		rep.Hits++
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	ent := &scoreEntry{key: key, val: val, gen: c.gen()}
	el := c.ll.PushFront(ent)
	c.items[key] = el
	c.bytes += val.bytes()
	for c.bytes > c.capacity && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back())
		c.stats.Evictions++
	}
}

// contains reports whether key is present and current, without touching
// LRU order or the hit/miss counters — the batch optimizer's peek for
// "does this sweep still need computing".
func (c *scoreCache) contains(key scoreKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	if key.kind.genSensitive() && el.Value.(*scoreEntry).gen != c.gen() {
		return false
	}
	return true
}

// invalidate drops every entry immediately.
func (c *scoreCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
		c.stats.Expired++
	}
}

func (c *scoreCache) removeLocked(el *list.Element) {
	ent := el.Value.(*scoreEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.val.bytes()
}

// snapshot returns the lifetime counters plus current residency.
func (c *scoreCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}
