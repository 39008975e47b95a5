package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
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
		// Regions on both sides of half the 40 states, so that the swept
		// lanes are held against both far values, and expressions whose
		// far value flips at a large fire region's last event.
		NewRequest(PredicateForAll, WithStates(Interval(0, 29)), WithTimeRange(1, 6)),
		NewRequest(PredicateForAll, WithStates([]int{5}), WithTimeRange(3, 8), WithTopK(4)),
		NewRequest(PredicateKTimes, WithStates(Interval(5, 30)), WithTimeRange(2, 7)),
		NewRequest(PredicateKTimes, WithStates([]int{6, 7}), WithTimes([]int{2, 4, 7}), WithThreshold(0.1)),
		NewExprRequest(Or(
			ForAllAtom(WithStates(Interval(0, 24)), WithTimeRange(2, 4)),
			ExistsAtom(WithStates(Interval(10, 35)), WithTimeRange(4, 8)),
		), WithTopK(6)),
		NewExprRequest(Not(And(
			ForAllAtom(WithStates([]int{12, 13, 14}), WithTimes([]int{2, 5})),
			ExistsAtom(WithStates([]int{20}), WithTimeRange(3, 6)),
			ForAllAtom(WithStates(Interval(1, 38)), WithTimeRange(5, 7)),
		))),
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

// TestEvaluateBatchMatchesSequentialWide runs the byte-identity check on
// the benchmark's T1 shape — |S| = 10⁴, five successors within ±20 ids,
// random weights — where lanes stay sparse for many steps: plain exists
// lanes over small regions, forall lanes and an exists region covering
// most of S, held against the far value 1, and a ktimes and an
// expression request beside them.
func TestEvaluateBatchMatchesSequentialWide(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(31))
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		seen := map[int]bool{}
		var idx []int
		var vals []float64
		for len(idx) < 5 {
			if j := i - 20 + rng.Intn(41); j >= 0 && j < n && !seen[j] {
				seen[j] = true
				idx = append(idx, j)
				vals = append(vals, 0.1+rng.Float64())
			}
		}
		s := 0.0
		for _, v := range vals {
			s += v
		}
		for k := range vals {
			vals[k] /= s
		}
		return idx, vals
	}))
	build := func() *Engine {
		orng := rand.New(rand.NewSource(7))
		db := NewDatabase(chain)
		for id := 0; id < 40; id++ {
			a := 4800 + orng.Intn(400)
			db.MustAdd(MustObject(id, nil, Observation{Time: id % 3, PDF: markov.UniformOver(n, Interval(a, a+4))}))
		}
		return NewEngine(db, Options{})
	}
	var reqs []Request
	for i := 0; i < 4; i++ {
		region := WithStates(Interval(5000+10*i, 5099+10*i))
		reqs = append(reqs,
			NewRequest(PredicateForAll, region, WithTimeRange(10+2*i, 25)),
			NewRequest(PredicateForAll, region, WithTimes([]int{12, 15 + i, 21, 25}), WithTopK(5)),
			NewRequest(PredicateExists, WithStates(Interval(100*i, 7000+100*i)), WithTimeRange(8, 20+i)),
			NewRequest(PredicateExists, region, WithTimeRange(10+2*i, 25)),
			NewRequest(PredicateExists, region, WithTimes([]int{14, 18 + i, 25}), WithTopK(5)),
		)
	}
	reqs = append(reqs,
		NewRequest(PredicateKTimes, WithStates(Interval(5000, 5099)), WithTimeRange(21, 25)),
		NewExprRequest(And(ExistsAtom(WithStates(Interval(5000, 5099)), WithTimeRange(15, 25)),
			Not(ForAllAtom(WithStates(Interval(5040, 5139)), WithTimeRange(18, 22))))),
	)
	ctx := context.Background()
	seqEngine := build()
	var want []*Response
	for _, req := range reqs {
		resp, err := seqEngine.Evaluate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, resp)
	}
	got, err := build().EvaluateBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		sameResults(t, reqs[i].Predicate.String(), got[i].Results, want[i].Results)
	}
}

// TestFusedSweepBitIdentical pins a multi-unit block — leaders, forked
// followers and aliases, near and far lanes — against width-1 blocks of
// the same units and against hitScores, vector by vector, bit by bit,
// support order and storage mode included.
func TestFusedSweepBitIdentical(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(23))
	chain := randomChainN(rng, n, 4)
	ctx := context.Background()
	unit := func(states, times []int, invert bool, t0 int) sweepUnit {
		w, err := compile(NewQuery(states, times), n)
		if err != nil {
			t.Fatal(err)
		}
		if invert {
			w = w.complemented()
		}
		return sweepUnit{key: scoreKey{chain: chain, kind: kindExists, sig: w.signature(), t0: t0}, w: w, t0: t0}
	}
	var units []sweepUnit
	for i := 0; i < 12; i++ {
		// Every third unit is complemented, and every fourth region covers
		// most of the states: lanes held against both far values.
		fill := 0.2
		if i%4 == 3 {
			fill = 0.8
		}
		var states []int
		for s := 0; s < n; s++ {
			if rng.Float64() < fill {
				states = append(states, s)
			}
		}
		if states == nil {
			states = []int{i}
		}
		lo := rng.Intn(5)
		times := Interval(lo+2, lo+6+rng.Intn(6))
		units = append(units, unit(states, times, i%3 == 1, rng.Intn(3)))
		if i%2 == 0 {
			// A suffix of the window: observed before its first time it
			// forks off the leader, observed inside it an alias.
			suffix := times[2:]
			units = append(units, unit(states, suffix, i%3 == 1, rng.Intn(2)), unit(states, suffix, i%3 == 1, suffix[0]+rng.Intn(2)))
		}
	}
	lanes, aliases, _ := planFusedLanes(units, maxFusedColumns)
	followers := 0
	for _, l := range lanes {
		if l.leader >= 0 {
			followers++
		}
	}
	if followers == 0 || len(aliases) == 0 {
		t.Fatalf("schedule has %d followers and %d aliases: the block shares nothing", followers, len(aliases))
	}

	e := NewEngine(NewDatabase(chain), Options{})
	if err := e.fusedExistsSweeps(ctx, chain, units); err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		got := cachedScore(t, e, u.key)
		single := NewEngine(NewDatabase(chain), Options{})
		if err := single.fusedExistsSweeps(ctx, chain, []sweepUnit{u}); err != nil {
			t.Fatal(err)
		}
		serial, err := hitScores(ctx, chain, u.w, u.t0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []*sparse.Vec{cachedScore(t, single, u.key), serial} {
			if !identicalVec(got, want) {
				t.Fatalf("unit %d: block %v != width-1 %v", i, got, want)
			}
		}
	}

}

// cachedScore reads a published scoring vector off the engine's board.
func cachedScore(t *testing.T, e *Engine, key scoreKey) *sparse.Vec {
	t.Helper()
	v, lease, err := e.cache.board.Acquire(context.Background(), key)
	if err != nil || lease != 0 {
		t.Fatalf("key %+v not cached (lease %d, err %v)", key, lease, err)
	}
	return v.vecs[0]
}

// identicalVec reports whether two vectors hold the same bits in the
// same storage mode and support order.
func identicalVec(a, b *sparse.Vec) bool {
	if a.Len() != b.Len() || a.Dense() != b.Dense() {
		return false
	}
	for s := 0; s < a.Len(); s++ {
		if math.Float64bits(a.At(s)) != math.Float64bits(b.At(s)) {
			return false
		}
	}
	var sa, sb []int
	a.Range(func(i int, _ float64) { sa = append(sa, i) })
	b.Range(func(i int, _ float64) { sb = append(sb, i) })
	return slices.Equal(sa, sb)
}

// FuzzEvaluateBatch holds EvaluateBatch to sequential Evaluate calls on
// newClipCase's island chains: a random batch of exists, forall, ktimes
// and expression requests over the case's window, its suffixes (which
// the fused block forks or aliases) and overlapping random windows, on
// objects observed at mixed times. The results must be deeply equal.
func FuzzEvaluateBatch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		c := newClipCase(rng)
		n := c.db.chain.NumStates()
		base := sortedSet(c.times)
		// Every window ends at or after the case's horizon, which no object
		// is observed after.
		window := func() []int {
			if rng.Intn(2) == 0 {
				return base[rng.Intn(len(base)):]
			}
			lo := rng.Intn(base[len(base)-1] + 1)
			return Interval(lo, base[len(base)-1]+rng.Intn(3))
		}
		region := func() []int {
			switch rng.Intn(3) {
			case 0:
				return c.states
			case 1:
				lo := rng.Intn(n)
				return Interval(lo, min(n-1, lo+rng.Intn(4)))
			default:
				lo := rng.Intn(n / 3)
				return Interval(lo, min(n-1, lo+n/2+rng.Intn(n/2))) // most of S
			}
		}
		var reqs []Request
		for i := 2 + rng.Intn(10); i > 0; i-- {
			opts := []RequestOption{WithStates(region()), WithTimes(window())}
			switch rng.Intn(3) {
			case 1:
				opts = append(opts, WithTopK(1+rng.Intn(4)))
			case 2:
				opts = append(opts, WithThreshold(rng.Float64()))
			}
			switch rng.Intn(5) {
			case 0:
				reqs = append(reqs, NewRequest(PredicateForAll, opts...))
			case 1:
				reqs = append(reqs, NewRequest(PredicateKTimes, opts[:2]...))
			case 2:
				other := ExistsAtom(WithStates(region()), WithTimes(window()))
				if rng.Intn(2) == 0 {
					other = Not(ForAllAtom(WithStates(region()), WithTimes(window())))
				}
				reqs = append(reqs, NewExprRequest(Or(ExistsAtom(opts[:2]...), other), opts[2:]...))
			default:
				reqs = append(reqs, NewRequest(PredicateExists, opts...))
			}
		}
		ctx := context.Background()
		seq := NewEngine(c.db, Options{})
		want := make([][]Result, len(reqs))
		for i, req := range reqs {
			resp, err := seq.Evaluate(ctx, req)
			if err != nil {
				t.Fatalf("request %d (%v): %v", i, req, err)
			}
			want[i] = resp.Results
		}
		got, err := NewEngine(c.db, Options{}).EvaluateBatch(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if !reflect.DeepEqual(got[i].Results, want[i]) {
				t.Fatalf("request %d (%v): batch %+v, sequential %+v", i, reqs[i], got[i].Results, want[i])
			}
		}
	})
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
