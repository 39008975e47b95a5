package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ust/internal/markov"
)

// Batch evaluation must be byte-identical to sequential Evaluate calls
// — the fused sweeps replay the serial addition order exactly — across
// every predicate × strategy × ranking combination, on cold and warm
// caches alike.

// batchTestEngine builds a database with mixed observation times so the
// optimizer sees several sweep units per window. (Single-observation
// objects throughout: the workload mixes in PSTkQ and eventually-
// requests, which reject multi-observation objects.)
func batchTestEngine(rng *rand.Rand, cacheBytes int) *Engine {
	n := 40
	chain := randomChainN(rng, n, 4)
	db := NewDatabase(chain)
	for id := 1; id <= 60; id++ {
		t0 := rng.Intn(3)
		db.MustAdd(MustObject(id, nil, Observation{Time: t0, PDF: markov.PointDistribution(n, rng.Intn(n))}))
	}
	return NewEngine(db, Options{CacheBytes: cacheBytes})
}

// overlappingRequests builds a dashboard-style workload: sliding
// windows over a handful of regions, mixing predicates, strategies and
// rankings.
func overlappingRequests(rng *rand.Rand, n int) []Request {
	var reqs []Request
	for i := 0; i < n; i++ {
		states := []int{(i * 3) % 35, (i*3)%35 + 1, (i*3)%35 + 2}
		lo := 2 + i%6
		opts := []RequestOption{WithStates(states), WithTimeRange(lo, lo+8)}
		pred := PredicateExists
		switch i % 4 {
		case 1:
			pred = PredicateForAll
		case 2:
			opts = append(opts, WithThreshold(0.2))
		case 3:
			opts = append(opts, WithTopK(5))
		}
		if i%7 == 3 {
			opts = append(opts, WithStrategy(StrategyObjectBased))
		}
		if i%9 == 4 {
			pred = PredicateKTimes
			opts = opts[:2]
		}
		reqs = append(reqs, NewRequest(pred, opts...))
	}
	return reqs
}

func sameResults(t *testing.T, tag string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].ObjectID != want[i].ObjectID || got[i].Prob != want[i].Prob ||
			!slices.Equal(got[i].Dist, want[i].Dist) {
			t.Fatalf("%s: result %d differs:\n got %+v\nwant %+v", tag, i, got[i], want[i])
		}
	}
}

func TestEvaluateBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctx := context.Background()
	reqs := overlappingRequests(rng, 24)
	reqs = append(reqs,
		NewRequest(PredicateEventually, WithStates([]int{7, 8})),
		NewRequest(PredicateExists, WithStates([]int{1, 2}), WithTimeRange(2, 9),
			WithStrategy(StrategyMonteCarlo), WithMonteCarloBudget(200, 5)),
		NewExprRequest(And(
			ExistsAtom(WithStates([]int{3, 4}), WithTimeRange(2, 6)),
			Not(ForAllAtom(WithStates([]int{10, 11}), WithTimeRange(3, 5))),
		)),
	)

	// Sequential reference on a fresh engine (cold cache).
	seqEngine := batchTestEngine(rand.New(rand.NewSource(5)), 0)
	var want []*Response
	for _, req := range reqs {
		resp, err := seqEngine.Evaluate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, resp)
	}

	// Batch on an identically-built fresh engine.
	batchEngine := batchTestEngine(rand.New(rand.NewSource(5)), 0)
	got, err := batchEngine.EvaluateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		sameResults(t, reqs[i].Predicate.String(), got[i].Results, want[i].Results)
		if got[i].Strategy != want[i].Strategy {
			t.Errorf("request %d: strategy %v != %v", i, got[i].Strategy, want[i].Strategy)
		}
	}

	// Re-running the batch on the warm engine must not change anything.
	again, err := batchEngine.EvaluateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		sameResults(t, "warm", again[i].Results, want[i].Results)
	}

	// Batch with the cache disabled engine-wide still matches.
	noCache := batchTestEngine(rand.New(rand.NewSource(5)), -1)
	plain, err := noCache.EvaluateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		sameResults(t, "nocache", plain[i].Results, want[i].Results)
	}
}

// TestFusedSweepBitIdentical pins the fused block kernel against the
// serial hitScores sweep, vector by vector, bit by bit.
func TestFusedSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	chain := randomChainN(rng, 30, 4)
	e := NewEngine(NewDatabase(chain), Options{})
	ctx := context.Background()

	var units []sweepUnit
	var wants []struct {
		w  *window
		t0 int
	}
	for i := 0; i < 9; i++ {
		var states []int
		for s := 0; s < 30; s++ {
			if rng.Float64() < 0.2 {
				states = append(states, s)
			}
		}
		if states == nil {
			states = []int{i}
		}
		lo := rng.Intn(5)
		w, err := compile(NewQuery(states, Interval(lo+2, lo+4+rng.Intn(6))), 30)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			w = w.complemented()
		}
		t0 := rng.Intn(3)
		units = append(units, sweepUnit{
			key: scoreKey{chain: chain, kind: kindExists, sig: w.signature(), t0: t0},
			w:   w, t0: t0,
		})
		wants = append(wants, struct {
			w  *window
			t0 int
		}{w, t0})
	}
	// The fused kernel's contract: units arrive sorted by descending
	// horizon (warmBatch's schedule).
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return units[b].w.horizon - units[a].w.horizon })
	sorted := make([]sweepUnit, len(units))
	for i, idx := range order {
		sorted[i] = units[idx]
	}
	if err := e.fusedExistsSweeps(ctx, chain, sorted); err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		v, lease, err := e.cache.board.Acquire(ctx, u.key)
		if err != nil || lease != 0 {
			t.Fatalf("unit %d not cached (lease %d, err %v)", i, lease, err)
		}
		want, err := hitScores(ctx, chain, wants[i].w, wants[i].t0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 30; s++ {
			if got, exp := v.vecs[0].At(s), want.At(s); got != exp {
				t.Fatalf("unit %d state %d: fused %v != serial %v", i, s, got, exp)
			}
		}
	}
}

func TestEvaluateBatchSeqPerItemErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := batchTestEngine(rng, 0)
	ctx := context.Background()
	reqs := []Request{
		NewRequest(PredicateExists, WithStates([]int{1}), WithTimeRange(1, 4)),
		NewRequest(PredicateExists, WithStates([]int{999}), WithTimeRange(1, 4)), // out of range
		NewRequest(PredicateForAll, WithStates([]int{2}), WithTimeRange(1, 4)),
	}
	var items []BatchItem
	for item := range e.EvaluateBatchSeq(ctx, reqs) {
		items = append(items, item)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("valid requests errored: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("out-of-range request did not error")
	}
	if items[0].Index != 0 || items[1].Index != 1 || items[2].Index != 2 {
		t.Fatal("items out of order")
	}

	// The strict entry point aborts on the first error.
	if _, err := e.EvaluateBatch(ctx, reqs); err == nil {
		t.Fatal("EvaluateBatch swallowed the per-request error")
	}
}

func TestEvaluateBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := batchTestEngine(rng, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.EvaluateBatch(ctx, overlappingRequests(rng, 8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v", err)
	}
}

func TestEvaluateBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := batchTestEngine(rng, 0)
	out, err := e.EvaluateBatch(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d responses", err, len(out))
	}
}
