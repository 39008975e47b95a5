package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// cacheTestDB builds a small random database over one chain.
func cacheTestDB(t testing.TB, n, objects int, seed int64) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(3)
		for d := 0; d < deg; d++ {
			b.Add(i, rng.Intn(n), 0.2+rng.Float64())
		}
	}
	chain := markov.MustChain(b.Build().NormalizeRows())
	db := NewDatabase(chain)
	for id := 0; id < objects; id++ {
		if err := db.AddSimple(id, markov.PointDistribution(n, rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sameResult compares two Results bit-exactly (including Dist).
func sameResult(a, b Result) bool {
	if a.ObjectID != b.ObjectID || a.Prob != b.Prob || len(a.Dist) != len(b.Dist) {
		return false
	}
	for k := range a.Dist {
		if a.Dist[k] != b.Dist[k] {
			return false
		}
	}
	return true
}

func TestRepeatedEvaluateHitsScoreCache(t *testing.T) {
	db := cacheTestDB(t, 40, 20, 1)
	e := NewEngine(db, Options{})
	req := NewRequest(PredicateExists, WithStates([]int{3, 4, 5}), WithTimes(Interval(2, 6)))

	resp1, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// All objects share observation time 0: the request needs exactly one
	// distinct sweep, computed fresh. (Cache traffic counts distinct
	// sweep fetches — repeat per-object touches are absorbed by the
	// request-local memo and never reach the shared cache.)
	if resp1.Cache.Misses != 1 {
		t.Fatalf("first evaluate: Misses = %d, want 1", resp1.Cache.Misses)
	}
	if resp1.Cache.Hits != 0 {
		t.Fatalf("first evaluate: Hits = %d, want 0", resp1.Cache.Hits)
	}

	resp2, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cache.Misses != 0 {
		t.Fatalf("repeated evaluate: Misses = %d, want 0 (sweep should be cached)", resp2.Cache.Misses)
	}
	if resp2.Cache.Hits != 1 {
		t.Fatalf("repeated evaluate: Hits = %d, want 1 (one distinct sweep)", resp2.Cache.Hits)
	}
	for i := range resp1.Results {
		if !sameResult(resp1.Results[i], resp2.Results[i]) {
			t.Fatalf("cached result differs at %d: %+v vs %+v", i, resp1.Results[i], resp2.Results[i])
		}
	}

	stats := e.CacheStats()
	if stats.Entries == 0 || stats.Bytes == 0 {
		t.Fatalf("engine stats report empty cache: %+v", stats)
	}
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("engine stats missing traffic: %+v", stats)
	}
}

func TestCachedResultsIdenticalAcrossPredicates(t *testing.T) {
	db := cacheTestDB(t, 30, 12, 2)
	e := NewEngine(db, Options{})
	reqs := []Request{
		NewRequest(PredicateExists, WithStates(Interval(5, 9)), WithTimes(Interval(1, 5))),
		NewRequest(PredicateForAll, WithStates(Interval(0, 20)), WithTimes(Interval(1, 4))),
		NewRequest(PredicateKTimes, WithStates(Interval(5, 9)), WithTimes(Interval(1, 4))),
		NewRequest(PredicateEventually, WithStates(Interval(5, 9)), WithHittingLimits(200, 1e-10)),
	}
	for ri, req := range reqs {
		uncached, err := e.Evaluate(context.Background(), req.With(WithCache(false)))
		if err != nil {
			t.Fatalf("req %d uncached: %v", ri, err)
		}
		if uncached.Cache != (CacheReport{}) {
			t.Fatalf("req %d: WithCache(false) still reported traffic %+v", ri, uncached.Cache)
		}
		warm, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d warm: %v", ri, err)
		}
		hot, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d hot: %v", ri, err)
		}
		if hot.Cache.Misses != 0 || hot.Cache.Hits == 0 {
			t.Fatalf("req %d hot: cache report %+v, want pure hits", ri, hot.Cache)
		}
		for i := range uncached.Results {
			a, b, c := uncached.Results[i], warm.Results[i], hot.Results[i]
			if a.ObjectID != b.ObjectID || a.Prob != b.Prob || a.ObjectID != c.ObjectID || a.Prob != c.Prob {
				t.Fatalf("req %d: results diverge at %d: %+v / %+v / %+v", ri, i, a, b, c)
			}
			for k := range a.Dist {
				if a.Dist[k] != b.Dist[k] || a.Dist[k] != c.Dist[k] {
					t.Fatalf("req %d: dist diverges at %d", ri, i)
				}
			}
		}
	}
}

// TestScoreCacheGenerationInvalidation: a database mutation expires
// nothing (no cache key can go stale — TestCacheSurvivesObservationUpdate
// pins the end-to-end half), and Invalidate, the manual override, drops
// everything and counts it as Expired.
func TestScoreCacheGenerationInvalidation(t *testing.T) {
	db := cacheTestDB(t, 4, 1, 1)
	c := NewSharedCache(1 << 20)
	e := NewEngine(db, Options{Cache: c})
	chain := db.DefaultChain()
	vec := sparse.NewVec(4)
	ctx := context.Background()

	sweepKey := scoreKey{chain: chain, kind: kindExists, sig: 1, t0: 0}
	maskKey := scoreKey{chain: chain, kind: kindCertain, sig: 1, t0: 0}
	c.board.Put(sweepKey, scoreValue{vecs: []*sparse.Vec{vec}})
	c.board.Put(maskKey, scoreValue{bits: sparse.NewBitset(4)})

	if err := db.AddSimple(99, markov.PointDistribution(4, 0)); err != nil { // a database mutation
		t.Fatal(err)
	}
	if _, lease, _ := c.board.Acquire(ctx, sweepKey); lease != 0 {
		t.Fatalf("sweep expired on mutation")
	}
	if s := c.Stats(); s.Expired != 0 || s.Entries != 2 {
		t.Fatalf("mutation touched the cache: %+v", s)
	}

	e.InvalidateCache()
	if c.board.Contains(sweepKey) || c.board.Contains(maskKey) {
		t.Fatalf("manual invalidate left entries behind")
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 || s.Expired != 2 {
		t.Fatalf("after invalidate: %+v, want no residency and Expired = 2", s)
	}
}

// TestCacheSurvivesObservationUpdate: sweeps depend only on the
// immutable chain + window + time, so observation updates must NOT cost
// recomputation — and results must still match a cold engine exactly.
func TestCacheSurvivesObservationUpdate(t *testing.T) {
	db := cacheTestDB(t, 30, 10, 3)
	e := NewEngine(db, Options{})
	req := NewRequest(PredicateExists, WithStates(Interval(2, 6)), WithTimes(Interval(1, 5)))

	if _, err := e.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	genBefore := db.Version()

	// Update object 0's observation set through the database.
	o := db.Get(0)
	updated, err := NewObject(0, o.Chain, append(append([]Observation(nil), o.Observations...),
		Observation{Time: 3, PDF: markov.UniformOver(30, Interval(0, 29))})...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ReplaceObject(updated); err != nil {
		t.Fatal(err)
	}
	if db.Version() == genBefore {
		t.Fatalf("ReplaceObject did not advance the generation")
	}

	resp, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep must survive the update untouched; the single allowed
	// miss is object 0's first multi-observation evaluation, cached
	// per-object under its new construction serial.
	if resp.Cache.Misses > 1 {
		t.Fatalf("observation update needlessly expired observation-independent sweeps: %+v", resp.Cache)
	}
	if resp.Cache.Hits == 0 {
		t.Fatalf("sweep was not served from cache after the update: %+v", resp.Cache)
	}

	// A repeat evaluation is fully cached: the updated object's
	// multi-observation scalar now lives under its serial.
	again, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache.Misses != 0 {
		t.Fatalf("repeat after update not fully cached: %+v", again.Cache)
	}

	// Ground truth from a cold engine over the same database.
	cold := NewEngine(db, Options{CacheBytes: -1})
	want, err := cold.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != len(resp.Results) {
		t.Fatalf("result count mismatch")
	}
	for i := range want.Results {
		if !sameResult(want.Results[i], resp.Results[i]) {
			t.Fatalf("post-update result %d: %+v, want %+v", i, resp.Results[i], want.Results[i])
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	db := cacheTestDB(t, 50, 4, 4)
	// Budget fits roughly one 50-state sweep (8*50 = 400 bytes): two
	// distinct windows must evict each other.
	e := NewEngine(db, Options{CacheBytes: 500})
	reqA := NewRequest(PredicateExists, WithStates(Interval(0, 4)), WithTimes(Interval(1, 4)))
	reqB := NewRequest(PredicateExists, WithStates(Interval(10, 14)), WithTimes(Interval(1, 4)))
	for i := 0; i < 3; i++ {
		if _, err := e.Evaluate(context.Background(), reqA); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Evaluate(context.Background(), reqB); err != nil {
			t.Fatal(err)
		}
	}
	stats := e.CacheStats()
	if stats.Evictions == 0 {
		t.Fatalf("tiny cache never evicted: %+v", stats)
	}
	if stats.Bytes > 1000 {
		t.Fatalf("cache grew past its budget: %+v", stats)
	}
}

// TestConcurrentEvaluateSharedCache hammers one engine from many
// goroutines (run under -race via make race) and verifies every result
// matches the serial reference.
func TestConcurrentEvaluateSharedCache(t *testing.T) {
	db := cacheTestDB(t, 60, 30, 5)
	e := NewEngine(db, Options{})
	reqs := []Request{
		NewRequest(PredicateExists, WithStates(Interval(3, 9)), WithTimes(Interval(2, 7))),
		NewRequest(PredicateForAll, WithStates(Interval(0, 40)), WithTimes(Interval(1, 4))),
		NewRequest(PredicateKTimes, WithStates(Interval(3, 9)), WithTimes(Interval(2, 5))),
		NewRequest(PredicateExists, WithStates(Interval(3, 9)), WithTimes(Interval(2, 7)), WithThreshold(0.1)),
		NewRequest(PredicateExists, WithStates(Interval(3, 9)), WithTimes(Interval(2, 7)), WithTopK(5)),
	}
	want := make([]*Response, len(reqs))
	ref := NewEngine(db, Options{CacheBytes: -1})
	for i, req := range reqs {
		var err error
		want[i], err = ref.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		for i := range reqs {
			wg.Add(1)
			go func(g, i int) {
				defer wg.Done()
				resp, err := e.Evaluate(context.Background(), reqs[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d req %d: %v", g, i, err)
					return
				}
				if len(resp.Results) != len(want[i].Results) {
					errs <- fmt.Errorf("req %d: %d results, want %d", i, len(resp.Results), len(want[i].Results))
					return
				}
				for j := range resp.Results {
					if resp.Results[j].ObjectID != want[i].Results[j].ObjectID ||
						resp.Results[j].Prob != want[i].Results[j].Prob {
						errs <- fmt.Errorf("req %d result %d: %+v, want %+v", i, j, resp.Results[j], want[i].Results[j])
						return
					}
				}
			}(g, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMonitorSharedCacheIdentical pins the monitoring workload — one
// standing window re-read after every observation update — to fresh
// uncached evaluations across a stream of updates: sweeps stay in the
// shared cache over database generations, updated objects are re-keyed by
// construction serial, and not a single bit may differ.
func TestMonitorSharedCacheIdentical(t *testing.T) {
	db := cacheTestDB(t, 40, 15, 6)
	e := NewEngine(db, Options{})
	q := NewQuery(Interval(4, 9), Interval(3, 8))

	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 5; round++ {
		got := mustAsk(t, e, PredicateExists, q)
		// Fresh engine over the same database = ground truth.
		want := mustAsk(t, NewEngine(db, Options{CacheBytes: -1}), PredicateExists, q)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d results, want %d", round, len(got), len(want))
		}
		for i := range want {
			if !sameResult(got[i], want[i]) {
				t.Fatalf("round %d: result %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
		// Feed a new observation to a random object. A broad (uniform)
		// sighting stays consistent with any motion model; a random
		// point sighting could be impossible.
		o := db.Get(rng.Intn(db.Len()))
		updated, err := o.WithObservation(Observation{Time: o.Last().Time + 1 + rng.Intn(2), PDF: markov.UniformOver(40, Interval(0, 39))})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ReplaceObject(updated); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMonitorObserveUpdatesOnlyThatObject is the Section VI scenario as
// one monitoring round: a second observation at t=3 collapses object 1's
// probability from 0.8 to 0, and re-reading the standing window through
// the warm cache changes — and recomputes — that object alone.
func TestMonitorObserveUpdatesOnlyThatObject(t *testing.T) {
	db := NewDatabase(paperChainVI(t))
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 0)}))
	db.MustAdd(MustObject(2, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 0)}))
	e := NewEngine(db, Options{})
	q := NewQuery([]int{0, 1}, []int{1, 2})
	before := probs(t, e, PredicateExists, q)
	if math.Abs(before[1]-0.8) > tol {
		t.Fatalf("initial P = %g, want 0.8", before[1])
	}

	updated, err := db.Get(1).WithObservation(Observation{Time: 3, PDF: markov.PointDistribution(3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ReplaceObject(updated); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Evaluate(context.Background(), NewRequest(PredicateExists, WithWindow(q)))
	if err != nil {
		t.Fatal(err)
	}
	after := map[int]float64{}
	for _, r := range resp.Results {
		after[r.ObjectID] = r.Prob
	}
	if after[1] != 0 {
		t.Errorf("object 1 after second observation: P = %g, want 0", after[1])
	}
	if after[2] != before[2] {
		t.Errorf("object 2 changed: P = %g, was %g", after[2], before[2])
	}
	if resp.Cache.Misses > 1 || resp.Cache.Hits == 0 {
		t.Errorf("re-read should miss on object 1's evaluation alone: %+v", resp.Cache)
	}
	if got := len(db.Get(1).Observations); got != 2 {
		t.Errorf("object 1 has %d observations, want 2", got)
	}
}

// TestMonitorTrack: an object added between two reads of a standing
// window shows up in the second read; duplicate ids are refused.
func TestMonitorTrack(t *testing.T) {
	db, _ := paperDB(t)
	e := NewEngine(db, Options{})
	q := paperQueryV()
	mustAsk(t, e, PredicateExists, q)
	newObj := MustObject(42, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)})
	if err := db.Add(newObj); err != nil {
		t.Fatalf("Add: %v", err)
	}
	res := mustAsk(t, e, PredicateExists, q)
	if len(res) != 2 {
		t.Fatalf("%d results after Add, want 2", len(res))
	}
	if math.Abs(res[1].Prob-0.864) > tol {
		t.Errorf("tracked object P = %g, want 0.864", res[1].Prob)
	}
	if err := db.Add(newObj); err == nil {
		t.Error("duplicate Add accepted")
	}
}
