package core

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// lineWalkDB builds a database over a 1-D random-walk chain of n states
// (±1 steps with a small stay probability) with objects observed at
// points spread over the line. Reachability is limited by the horizon,
// so a window near one end is provably unreachable for most objects —
// the shape that makes filter pruning effective and testable.
func lineWalkDB(t testing.TB, n, objects int, seed int64) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		switch i {
		case 0:
			return []int{0, 1}, []float64{0.5, 0.5}
		case n - 1:
			return []int{n - 2, n - 1}, []float64{0.5, 0.5}
		default:
			return []int{i - 1, i, i + 1}, []float64{0.45, 0.1, 0.45}
		}
	}))
	db := NewDatabase(chain)
	for id := 0; id < objects; id++ {
		if err := db.AddSimple(id, markov.PointDistribution(n, rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// responsesEqual requires bit-identical result streams.
func responsesEqual(t *testing.T, label string, got, want *Response) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if !sameResult(got.Results[i], want.Results[i]) {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got.Results[i], want.Results[i])
		}
	}
}

// ranked applies a request's threshold (tau < 0: none) and top-k (k = 0:
// none) to a plain scan's results, the way the engine does.
func ranked(results []Result, tau float64, k int) *Response {
	var out []Result
	for _, r := range results {
		if r.Prob >= tau {
			out = append(out, r)
		}
	}
	if k > 0 {
		sort.SliceStable(out, func(i, j int) bool { return better(out[i], out[j]) })
		out = out[:min(k, len(out))]
	}
	return &Response{Results: out}
}

// TestFilterRefineMatchesExact is the randomized cross-validation of the
// acceptance criteria: for every predicate × strategy × ranking shape,
// the filter–refine path must return results byte-identical to the
// unpruned exact path. Under the object-based strategy the unpruned
// path of the same pass is the plain scan ranked afterwards —
// WithFilterRefine(false) there also switches the forward pass to its
// paper-literal, unclipped form, which TestClippedMatchesUnclipped holds
// the clipped one against.
func TestFilterRefineMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	predicates := []Predicate{PredicateExists, PredicateForAll, PredicateKTimes}
	strategies := []Strategy{StrategyQueryBased, StrategyObjectBased, StrategyMonteCarlo}
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(40)
		db := lineWalkDB(t, n, 20+rng.Intn(30), int64(trial))
		e := NewEngine(db, Options{})
		lo := rng.Intn(n - 8)
		states := Interval(lo, lo+3+rng.Intn(5))
		t0 := 1 + rng.Intn(4)
		times := Interval(t0, t0+2+rng.Intn(6))
		tau := rng.Float64() * 0.5
		k := 1 + rng.Intn(8)

		for _, pred := range predicates {
			for _, strat := range strategies {
				if pred == PredicateKTimes && strat == StrategyMonteCarlo {
					// MC ktimes exists but is approximate and unfiltered;
					// skip the heavy sampling in this loop.
					continue
				}
				rankings := [][]RequestOption{
					{WithThreshold(tau)},
					{WithTopK(k)},
					{WithThreshold(tau), WithTopK(k)},
				}
				for ri, rank := range rankings {
					opts := append([]RequestOption{
						WithStates(states), WithTimes(times), WithStrategy(strat),
					}, rank...)
					req := NewRequest(pred, opts...)
					filtered, err := e.Evaluate(context.Background(), req)
					if err != nil {
						t.Fatalf("trial %d %v/%v/rank%d filtered: %v", trial, pred, strat, ri, err)
					}
					exact, err := e.Evaluate(context.Background(), req.With(WithFilterRefine(false)))
					if err != nil {
						t.Fatalf("trial %d %v/%v/rank%d exact: %v", trial, pred, strat, ri, err)
					}
					if exact.Filter != (FilterReport{}) {
						t.Fatalf("WithFilterRefine(false) still reported a funnel: %+v", exact.Filter)
					}
					label := pred.String() + "/" + strat.String()
					if strat == StrategyObjectBased {
						plain, err := e.Evaluate(context.Background(), NewRequest(pred,
							WithStates(states), WithTimes(times), WithStrategy(strat)))
						if err != nil {
							t.Fatalf("trial %d %v/%v plain: %v", trial, pred, strat, err)
						}
						exact = ranked(plain.Results, []float64{tau, -1, tau}[ri], []int{0, k, k}[ri])
					}
					responsesEqual(t, label, filtered, exact)
				}
			}
		}
	}
}

// TestFilterEventuallyAndParallelUnaffected pins the non-eligible shapes
// (eventually predicate; parallel OB) to the plain path: same results,
// empty funnel.
func TestFilterIneligibleShapes(t *testing.T) {
	db := lineWalkDB(t, 40, 20, 7)
	e := NewEngine(db, Options{})

	ev := NewRequest(PredicateEventually, WithStates(Interval(0, 3)), WithThreshold(0.2), WithHittingLimits(300, 1e-10))
	resp, err := e.Evaluate(context.Background(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Filter != (FilterReport{}) {
		t.Fatalf("eventually-request reported a filter funnel: %+v", resp.Filter)
	}

	par := NewRequest(PredicateExists, WithStates(Interval(0, 5)), WithTimes(Interval(2, 6)),
		WithStrategy(StrategyObjectBased), WithParallelism(4), WithThreshold(0.1))
	respPar, err := e.Evaluate(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if respPar.Filter != (FilterReport{}) {
		t.Fatalf("parallel OB request reported a filter funnel: %+v", respPar.Filter)
	}
	want, err := e.Evaluate(context.Background(), par.With(WithParallelism(1), WithFilterRefine(false)))
	if err != nil {
		t.Fatal(err)
	}
	responsesEqual(t, "parallel-ob-threshold", respPar, want)
}

// TestFilterPrunesUnreachableObjects checks the funnel itself: on the
// line-walk database a window at the far end is unreachable within the
// horizon for most objects, which the object-based gate must prune
// without exact evaluation — at least 2× fewer refinements than
// candidates. The query-based strategy never engages the gate: it
// reports a zero funnel and the filter-off response.
func TestFilterPrunesUnreachableObjects(t *testing.T) {
	db := lineWalkDB(t, 200, 100, 11)
	e := NewEngine(db, Options{})

	for _, tc := range []struct {
		name string
		opts []RequestOption
	}{
		{"threshold/qb", []RequestOption{WithThreshold(0.05)}},
		{"threshold/ob", []RequestOption{WithThreshold(0.05), WithStrategy(StrategyObjectBased)}},
		{"topk/qb", []RequestOption{WithTopK(10)}},
		{"topk/ob", []RequestOption{WithTopK(10), WithStrategy(StrategyObjectBased)}},
	} {
		opts := append([]RequestOption{WithStates(Interval(0, 9)), WithTimes(Interval(3, 8))}, tc.opts...)
		req := NewRequest(PredicateExists, opts...)
		resp, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		exact, err := e.Evaluate(context.Background(), req.With(WithFilterRefine(false)))
		if err != nil {
			t.Fatalf("%s exact: %v", tc.name, err)
		}
		responsesEqual(t, tc.name, resp, exact)
		f := resp.Filter
		if strings.HasSuffix(tc.name, "/qb") {
			if f != (FilterReport{}) {
				t.Fatalf("%s: the query-based gate engaged: %+v", tc.name, f)
			}
			continue
		}
		if f.Candidates != db.Len() {
			t.Fatalf("%s: Candidates = %d, want %d", tc.name, f.Candidates, db.Len())
		}
		if f.Pruned+f.Refined != f.Candidates {
			t.Fatalf("%s: funnel does not add up: %+v", tc.name, f)
		}
		if f.Refined*2 > f.Candidates {
			t.Fatalf("%s: refined %d of %d candidates, want ≥2× pruning", tc.name, f.Refined, f.Candidates)
		}
	}
}

// TestFilterBoundsAreConservative cross-checks the envelope bounds
// against exact per-object probabilities on random instances: lo ≤ p ≤
// hi must hold for every object, window and observation time.
func TestFilterBoundsAreConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(30)
		db := cacheTestDB(t, n, 15, int64(trial+100))
		e := NewEngine(db, Options{})
		lo := rng.Intn(n - 6)
		q := NewQuery(Interval(lo, lo+2+rng.Intn(4)), Interval(1+rng.Intn(3), 4+rng.Intn(6)))
		w, err := compile(q, n)
		if err != nil {
			t.Fatal(err)
		}
		k := e.kernel(db.DefaultChain(), w, nil)
		exact := probs(t, e, PredicateExists, q, ob)
		for _, o := range db.Objects() {
			hi, okU, err := k.existsUpper(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			low, okL, err := k.existsLower(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if !okU || !okL {
				continue
			}
			if p := exact[o.ID]; p > hi || p < low {
				t.Fatalf("trial %d object %d: p=%g outside bounds [%g, %g]", trial, o.ID, p, low, hi)
			}
		}
	}
}
