package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ust/internal/gen"
	"ust/internal/markov"
	"ust/internal/spatial"
)

// evalTestDB builds a medium synthetic database for evaluation tests.
func evalTestDB(t testing.TB, numObjects, numStates int) *Database {
	t.Helper()
	p := gen.Params{NumObjects: numObjects, NumStates: numStates, ObjectSpread: 4, StateSpread: 4, MaxStep: 30, Seed: 11}
	ds := gen.MustGenerate(p)
	db := NewDatabase(ds.Chain)
	for i, o := range ds.Objects {
		db.MustAdd(MustObject(i, nil, Observation{Time: 0, PDF: o}))
	}
	return db
}

func collectSeq(t *testing.T, e *Engine, ctx context.Context, req Request) []Result {
	t.Helper()
	var out []Result
	for r, err := range e.EvaluateSeq(ctx, req) {
		if err != nil {
			t.Fatalf("EvaluateSeq: %v", err)
		}
		out = append(out, r)
	}
	return out
}

// TestStreamingMatchesBatch: EvaluateSeq must yield exactly the batch
// Evaluate results, for every predicate × strategy combination and with
// ranking options.
func TestStreamingMatchesBatch(t *testing.T) {
	db := evalTestDB(t, 80, 600)
	e := NewEngine(db, Options{})
	ctx := context.Background()
	win := []RequestOption{WithStates(Interval(100, 140)), WithTimes(Interval(5, 9))}

	cases := []struct {
		name string
		req  Request
	}{
		{"exists/qb", NewRequest(PredicateExists, append(win, WithStrategy(StrategyQueryBased))...)},
		{"exists/ob", NewRequest(PredicateExists, append(win, WithStrategy(StrategyObjectBased))...)},
		{"exists/ob-parallel", NewRequest(PredicateExists, append(win, WithStrategy(StrategyObjectBased), WithParallelism(4))...)},
		{"exists/mc", NewRequest(PredicateExists, append(win, WithStrategy(StrategyMonteCarlo), WithMonteCarloBudget(40, 7))...)},
		{"forall/qb", NewRequest(PredicateForAll, append(win, WithStrategy(StrategyQueryBased))...)},
		{"forall/ob", NewRequest(PredicateForAll, append(win, WithStrategy(StrategyObjectBased))...)},
		{"ktimes/qb", NewRequest(PredicateKTimes, append(win, WithStrategy(StrategyQueryBased))...)},
		{"ktimes/ob", NewRequest(PredicateKTimes, append(win, WithStrategy(StrategyObjectBased))...)},
		{"eventually", NewRequest(PredicateEventually, WithStates(Interval(100, 140)), WithHittingLimits(500, 1e-9))},
		{"exists/threshold", NewRequest(PredicateExists, append(win, WithThreshold(0.2))...)},
		{"exists/topk", NewRequest(PredicateExists, append(win, WithTopK(7))...)},
		{"auto", NewRequest(PredicateExists, append(win, WithAutoPlan())...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := e.Evaluate(ctx, c.req)
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			streamed := collectSeq(t, e, ctx, c.req)
			if len(streamed) != len(resp.Results) {
				t.Fatalf("stream yielded %d results, batch %d", len(streamed), len(resp.Results))
			}
			for i := range streamed {
				if !reflect.DeepEqual(streamed[i], resp.Results[i]) {
					t.Fatalf("result %d differs: stream %+v, batch %+v", i, streamed[i], resp.Results[i])
				}
			}
		})
	}
}

// TestRequestStrategyOverride: a per-request strategy must beat the
// engine default, and the response must report the strategy actually
// used.
func TestRequestStrategyOverride(t *testing.T) {
	db := evalTestDB(t, 30, 400)
	// Engine default: Monte-Carlo with a 1-sample budget — results are
	// coarse {0,1} estimates.
	e := NewEngine(db, Options{Strategy: StrategyMonteCarlo, MonteCarloSamples: 1})
	exact := NewEngine(db, Options{Strategy: StrategyQueryBased})
	q := NewQuery(Interval(50, 90), Interval(4, 8))

	resp, err := e.Evaluate(context.Background(), NewRequest(PredicateExists,
		WithWindow(q), WithStrategy(StrategyQueryBased)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyQueryBased {
		t.Fatalf("response strategy = %v, want query-based", resp.Strategy)
	}
	want := mustAsk(t, exact, PredicateExists, q)
	for i := range want {
		if !reflect.DeepEqual(resp.Results[i], want[i]) {
			t.Fatalf("override result %d = %+v, want exact %+v", i, resp.Results[i], want[i])
		}
	}

	// Default path (no override) must actually use the engine default.
	resp, err = e.Evaluate(context.Background(), NewRequest(PredicateExists, WithWindow(q)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyMonteCarlo {
		t.Fatalf("default strategy = %v, want monte-carlo", resp.Strategy)
	}
}

// TestEvaluateCancellation: cancelling the context mid-scan must stop
// the evaluation within one work item and surface ctx.Err().
func TestEvaluateCancellation(t *testing.T) {
	db := evalTestDB(t, 10000, 300)
	e := NewEngine(db, Options{})
	win := []RequestOption{WithStates(Interval(50, 80)), WithTimes(Interval(10, 14))}

	strategies := []struct {
		name string
		opts []RequestOption
	}{
		{"qb", []RequestOption{WithStrategy(StrategyQueryBased)}},
		{"ob", []RequestOption{WithStrategy(StrategyObjectBased)}},
		{"mc", []RequestOption{WithStrategy(StrategyMonteCarlo), WithMonteCarloBudget(5, 1)}},
	}
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := NewRequest(PredicateExists, append(win, s.opts...)...)
			seen := 0
			var gotErr error
			for _, err := range e.EvaluateSeq(ctx, req) {
				if err != nil {
					gotErr = err
					break
				}
				seen++
				if seen == 3 {
					cancel()
				}
			}
			if !errors.Is(gotErr, context.Canceled) {
				t.Fatalf("stream error = %v, want context.Canceled", gotErr)
			}
			// Serial paths stop on the very next object.
			if seen > 4 {
				t.Fatalf("stream yielded %d results after cancellation at 3", seen)
			}
		})
	}

	// Parallel path: already-buffered results may still drain, but the
	// stream must stop within the pipeline depth and report ctx.Err().
	t.Run("ob-parallel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req := NewRequest(PredicateExists, append(win,
			WithStrategy(StrategyObjectBased), WithParallelism(4))...)
		seen := 0
		var gotErr error
		for _, err := range e.EvaluateSeq(ctx, req) {
			if err != nil {
				gotErr = err
				break
			}
			seen++
			if seen == 3 {
				cancel()
			}
		}
		if !errors.Is(gotErr, context.Canceled) {
			t.Fatalf("stream error = %v, want context.Canceled", gotErr)
		}
		if seen > 3+2*4+1 {
			t.Fatalf("stream yielded %d results after cancellation at 3 (pipeline depth 8)", seen)
		}
	})

	// Batch path with a pre-cancelled context returns immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Evaluate(ctx, NewRequest(PredicateExists, win...)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Evaluate on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestParallelErrorDeterministic: with several failing objects, the
// parallel path must always report the failure at the lowest evaluation
// index, and a failure must cancel the remaining work.
func TestParallelErrorDeterministic(t *testing.T) {
	db := evalTestDB(t, 200, 300)
	// Objects observed after the horizon fail; plant two at different
	// indices (the query horizon below is 8).
	db.MustAdd(MustObject(500, nil, Observation{Time: 50, PDF: markov.PointDistribution(300, 0)}))
	db.MustAdd(MustObject(501, nil, Observation{Time: 60, PDF: markov.PointDistribution(300, 1)}))
	e := NewEngine(db, Options{})
	q := NewQuery(Interval(50, 80), Interval(4, 8))

	var first string
	for run := 0; run < 8; run++ {
		_, err := ask(e, PredicateExists, q, ob, WithParallelism(4))
		if err == nil {
			t.Fatal("parallel evaluation ignored failing objects")
		}
		if first == "" {
			first = err.Error()
			// The lowest-index failing object is 500.
			if want := "object 500"; !strings.Contains(first, want) {
				t.Fatalf("error %q does not name the first failing object", first)
			}
			continue
		}
		if err.Error() != first {
			t.Fatalf("error not deterministic: %q vs %q", err.Error(), first)
		}
	}
}

// TestParallelFirstObjectError: a failure at the very FIRST evaluation
// index must be returned (not deadlock) — the feeder is still blocked
// on the pipeline when the consumer bails out, so shutdown must cancel
// before it waits.
func TestParallelFirstObjectError(t *testing.T) {
	db := NewDatabase(evalTestDB(t, 1, 300).DefaultChain())
	db.MustAdd(MustObject(0, nil, Observation{Time: 99, PDF: markov.PointDistribution(300, 0)}))
	for i := 1; i < 400; i++ {
		db.MustAdd(MustObject(i, nil, Observation{Time: 0, PDF: markov.PointDistribution(300, i%300)}))
	}
	e := NewEngine(db, Options{})
	q := NewQuery(Interval(50, 80), Interval(4, 8))

	done := make(chan error, 1)
	go func() {
		_, err := ask(e, PredicateExists, q, ob, WithParallelism(4))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "object 0") {
			t.Fatalf("error = %v, want failure naming object 0", err)
		}
	case <-timeAfter(t):
		t.Fatal("parallel evaluation deadlocked on first-object failure")
	}
}

// TestParallelStreamEarlyBreak: a consumer that stops iterating a
// parallel stream mid-way must not leak or deadlock the pipeline.
func TestParallelStreamEarlyBreak(t *testing.T) {
	db := evalTestDB(t, 500, 300)
	e := NewEngine(db, Options{})
	req := NewRequest(PredicateExists, WithStates(Interval(50, 80)),
		WithTimes(Interval(4, 8)), WithStrategy(StrategyObjectBased), WithParallelism(4))

	done := make(chan int, 1)
	go func() {
		n := 0
		for _, err := range e.EvaluateSeq(context.Background(), req) {
			if err != nil {
				break
			}
			n++
			if n == 3 {
				break
			}
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n != 3 {
			t.Fatalf("consumer saw %d results, want 3", n)
		}
	case <-timeAfter(t):
		t.Fatal("early break deadlocked the parallel stream")
	}
}

// timeAfter returns a generous deadline channel: these paths complete
// in milliseconds unless they deadlock.
func timeAfter(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(10 * time.Second)
}

// TestMonteCarloLegacyOrderMixedChains: the serial Monte-Carlo path
// shares one rng and must consume objects in DATABASE order even when
// chain overrides interleave — the rng sequence is observable output.
func TestMonteCarloLegacyOrderMixedChains(t *testing.T) {
	chA := paperChainV(t)
	chB := paperChainVI(t)
	db := NewDatabase(chA)
	// Interleave chains so group order differs from insertion order.
	db.MustAdd(MustObject(0, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	db.MustAdd(MustObject(1, chB, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	db.MustAdd(MustObject(2, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 2)}))
	e := NewEngine(db, Options{Strategy: StrategyMonteCarlo, MonteCarloSamples: 50, MonteCarloSeed: 4})
	q := paperQueryV()

	res := mustAsk(t, e, PredicateExists, q)
	for i, r := range res {
		if r.ObjectID != i {
			t.Fatalf("result %d is object %d; serial MC must run in database order", i, r.ObjectID)
		}
	}
	// The shared-rng sequence is deterministic: a second run matches.
	if again := mustAsk(t, e, PredicateExists, q); !reflect.DeepEqual(res, again) {
		t.Fatal("serial Monte-Carlo is not reproducible at a fixed seed")
	}
}

// TestRegionRequest: a request carrying geometry must resolve to the
// same results as the equivalent raw-state request.
func TestRegionRequest(t *testing.T) {
	grid := spatial.NewGrid(20, 15)
	n := grid.NumStates()
	p := gen.Params{NumObjects: 1, NumStates: n, ObjectSpread: 1, StateSpread: 3, MaxStep: 8, Seed: 3}
	ds := gen.MustGenerate(p)
	db := NewDatabase(ds.Chain)
	for i := 0; i < 40; i++ {
		db.MustAdd(MustObject(i, nil, Observation{Time: 0, PDF: markov.PointDistribution(n, (i*7)%n)}))
	}
	e := NewEngine(db, Options{})
	ctx := context.Background()

	rect := spatial.NewRect(4, 4, 11, 9)
	times := Interval(2, 5)

	// Resolve through the grid directly and through an R-tree index;
	// both must match the raw-state request.
	raw, err := e.Evaluate(ctx, NewRequest(PredicateExists,
		WithStates(grid.StatesIn(rect)), WithTimes(times)))
	if err != nil {
		t.Fatal(err)
	}
	viaGrid, err := e.Evaluate(ctx, NewRequest(PredicateExists,
		WithRegion(rect, grid), WithTimes(times)))
	if err != nil {
		t.Fatal(err)
	}
	viaRTree, err := e.Evaluate(ctx, NewRequest(PredicateExists,
		WithRegion(rect, spatial.IndexSpace(grid, 0)), WithTimes(times)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw.Results, viaGrid.Results) {
		t.Error("grid-resolved region differs from raw states")
	}
	if !reflect.DeepEqual(raw.Results, viaRTree.Results) {
		t.Error("rtree-resolved region differs from raw states")
	}

	// A region without a resolver is an error.
	if _, err := e.Evaluate(ctx, NewRequest(PredicateExists,
		WithRegion(rect, nil), WithTimes(times))); err == nil {
		t.Error("region without resolver accepted")
	}
}

// TestEventuallyGrouped: the grouped eventually-evaluation must match
// a per-object fixed point computed directly from the kernel.
func TestEventuallyGrouped(t *testing.T) {
	db := evalTestDB(t, 25, 200)
	e := NewEngine(db, Options{})
	region := Interval(40, 60)
	resp, err := e.Evaluate(context.Background(), NewRequest(PredicateEventually,
		WithStates(region), WithHittingLimits(2000, 1e-10)))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != db.Len() {
		t.Fatalf("%d results for %d objects", len(resp.Results), db.Len())
	}
	for _, r := range resp.Results {
		want, err := eventuallyOne(db, db.Get(r.ObjectID), region, 2000, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Prob-want) > 1e-9 {
			t.Fatalf("object %d: grouped %g, per-object %g", r.ObjectID, r.Prob, want)
		}
	}
}

// TestKTimesResultProb: the unified ktimes Result carries the full
// distribution plus P(at least one visit) in Prob.
func TestKTimesResultProb(t *testing.T) {
	db := evalTestDB(t, 10, 200)
	e := NewEngine(db, Options{})
	q := NewQuery(Interval(40, 80), Interval(3, 6))
	resp, err := e.Evaluate(context.Background(), NewRequest(PredicateKTimes, WithWindow(q)))
	if err != nil {
		t.Fatal(err)
	}
	exists := mustAsk(t, e, PredicateExists, q)
	for i, r := range resp.Results {
		if len(r.Dist) != len(q.Times)+1 {
			t.Fatalf("object %d: dist has %d entries, want %d", r.ObjectID, len(r.Dist), len(q.Times)+1)
		}
		if math.Abs(r.Prob-(1-r.Dist[0])) > 1e-12 {
			t.Fatalf("object %d: Prob %g != 1-Dist[0] %g", r.ObjectID, r.Prob, 1-r.Dist[0])
		}
		if math.Abs(r.Prob-exists[i].Prob) > 1e-9 {
			t.Fatalf("object %d: ktimes Prob %g != exists %g", r.ObjectID, r.Prob, exists[i].Prob)
		}
	}
}

// TestRequestValidation rejects malformed hint combinations.
func TestRequestValidation(t *testing.T) {
	db := evalTestDB(t, 3, 100)
	e := NewEngine(db, Options{})
	ctx := context.Background()
	bad := []Request{
		NewRequest(Predicate(99), WithStates([]int{1}), WithTimes([]int{1})),
		NewRequest(PredicateExists, WithStates([]int{1}), WithTimes([]int{1}), WithThreshold(1.5)),
		NewRequest(PredicateExists, WithStates([]int{1}), WithTimes([]int{1}), WithThreshold(math.NaN())),
		NewRequest(PredicateExists, WithStates([]int{1}), WithTimes([]int{1}), WithThreshold(math.NaN()), ob),
		NewRequest(PredicateEventually, WithStates([]int{1}), WithHittingLimits(0, math.NaN())),
		NewRequest(PredicateEventually, WithStates([]int{1}), WithStrategy(StrategyMonteCarlo)),
	}
	for i, req := range bad {
		if _, err := e.Evaluate(ctx, req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}

	// Parallelism hints: a request without WithParallelism (hint 0) and
	// WithParallelism(1) run serially; WithParallelism(≤ 0) stores −1,
	// which resolves to GOMAXPROCS.
	if got := ResolveWorkers(0); got != 1 {
		t.Errorf("ResolveWorkers(0) = %d, want 1 (serial)", got)
	}
	if got := ResolveWorkers(3); got != 3 {
		t.Errorf("ResolveWorkers(3) = %d, want 3", got)
	}
	if hint := NewRequest(PredicateExists, WithParallelism(0)).ParallelismHint(); hint != -1 || ResolveWorkers(hint) != runtime.GOMAXPROCS(0) {
		t.Errorf("WithParallelism(0) stored hint %d resolving to %d workers, want −1 and GOMAXPROCS", hint, ResolveWorkers(hint))
	}
}
