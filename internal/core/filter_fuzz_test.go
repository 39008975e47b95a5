package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzFilterRefine holds scan's filter gate to the ungated scan on random
// island chains (newClipCase): for every predicate the gate serves and
// each of its consumers — a threshold, a top-k (with or without a
// threshold) and the count aggregate — under both exact strategies.
// The query-based strategy never engages the gate, so its responses
// equal WithFilterRefine(false)'s whole, answers and funnel, bit for
// bit. Under the object-based strategy an exists or forall threshold or
// top-k response equals the ungated one whole but for the funnel and the
// cache traffic (the clipped pass is bit-exact, so no object can cross
// the cut); ktimes and expression answers agree within 1e-12 (parked
// mass joins a ktimes sum in another order), where an object may cross
// the cut only on a tie within 1e-12, and count PMFs within 1e-9;
// whenever the gate engaged it saw every object once: Candidates =
// Pruned + Refined = |D|.
func FuzzFilterRefine(f *testing.F) {
	for seed := int64(0); seed < 256; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkFilterRefine(t, rand.New(rand.NewSource(seed)))
	})
}

func checkFilterRefine(t *testing.T, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	c := newClipCase(rng)
	n := c.db.DefaultChain().NumStates()
	win := []RequestOption{WithStates(c.states), WithTimes(c.times)}
	var req Request
	pred := []Predicate{PredicateExists, PredicateForAll, PredicateKTimes, PredicateExpr}[rng.Intn(4)]
	var opts []RequestOption
	k, tau := 0, -1.0
	switch consumer := rng.Intn(3); {
	case consumer == 2:
		opts = append(opts, WithAggregate(AggSpec{Kind: AggCount}))
	case consumer == 1:
		k = 1 + rng.Intn(8)
		opts = append(opts, WithTopK(k))
		if rng.Intn(2) == 0 {
			break
		}
		fallthrough
	default:
		tau = []float64{0, 0.05, 0.2, 0.5, 0.8, rng.Float64()}[rng.Intn(6)]
		opts = append(opts, WithThreshold(tau))
	}
	if pred == PredicateExpr {
		req = NewExprRequest(randomFilterExpr(rng, n), opts...)
	} else {
		req = NewRequest(pred, append(win, opts...)...)
	}
	_, count := req.AggregateHint()

	for _, strat := range []Strategy{StrategyQueryBased, StrategyObjectBased} {
		// Each side on a cold engine of its own, so cache traffic compares.
		sreq := req.With(WithStrategy(strat))
		got, err := NewEngine(c.db, Options{}).Evaluate(ctx, sreq)
		if err != nil {
			t.Fatalf("%v %v filtered: %v", pred, strat, err)
		}
		want, err := NewEngine(c.db, Options{}).Evaluate(ctx, sreq.With(WithFilterRefine(false)))
		if err != nil {
			t.Fatalf("%v %v unfiltered: %v", pred, strat, err)
		}

		if strat == StrategyQueryBased {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v qb k=%d τ=%v: filter on %+v, filter off %+v", pred, k, tau, got, want)
			}
			continue
		}
		engaged := !count || pred == PredicateExists || pred == PredicateForAll
		f := got.Filter
		if engaged && (f.Candidates != c.db.Len() || f.Pruned+f.Refined != f.Candidates) ||
			!engaged && f != (FilterReport{}) || want.Filter != (FilterReport{}) {
			t.Fatalf("%v %v: funnel %+v (filter off %+v), engaged %v over %d objects", pred, strat, f, want.Filter, engaged, c.db.Len())
		}

		if count {
			if len(got.Agg.PMF) != len(want.Agg.PMF) {
				t.Fatalf("%v %v: count PMF has %d entries, unfiltered %d", pred, strat, len(got.Agg.PMF), len(want.Agg.PMF))
			}
			for i, p := range got.Agg.PMF {
				if math.Abs(p-want.Agg.PMF[i]) > 1e-9 {
					t.Fatalf("%v %v: count PMF[%d] %v, unfiltered %v", pred, strat, i, p, want.Agg.PMF[i])
				}
			}
			continue
		}
		if pred == PredicateExists || pred == PredicateForAll {
			g, w := *got, *want
			g.Filter, g.Cache, w.Filter, w.Cache = FilterReport{}, CacheReport{}, FilterReport{}, CacheReport{}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%v ob k=%d τ=%v: filter on %+v, filter off %+v", pred, k, tau, got, want)
			}
			continue
		}
		sameUpToCut(t, pred, got.Results, want.Results, k, tau)
		sameUpToCut(t, pred, want.Results, got.Results, k, tau)
	}
}

// sameUpToCut checks a's results against b's within 1e-12: an object in
// both carries the same probability and distribution to 1e-12, and an
// object a holds that b does not is a tie at the cut — within 1e-12 of
// the threshold, or of b's k-th value when b is a full top-k.
func sameUpToCut(t *testing.T, pred Predicate, a, b []Result, k int, tau float64) {
	t.Helper()
	byID := map[int]Result{}
	for _, r := range b {
		byID[r.ObjectID] = r
	}
	for _, r := range a {
		o, ok := byID[r.ObjectID]
		if !ok {
			tie := math.Abs(r.Prob-tau) <= 1e-12 || k > 0 && len(b) == k && r.Prob <= b[k-1].Prob+1e-12
			if !tie {
				t.Fatalf("%v ob k=%d τ=%v: object %d (p=%v) is in one answer only, and not on the cut", pred, k, tau, r.ObjectID, r.Prob)
			}
			continue
		}
		if math.Abs(r.Prob-o.Prob) > 1e-12 || len(r.Dist) != len(o.Dist) {
			t.Fatalf("%v ob: object %d is %+v one way, %+v the other", pred, r.ObjectID, r, o)
		}
		for i, p := range r.Dist {
			if math.Abs(p-o.Dist[i]) > 1e-12 {
				t.Fatalf("%v ob: object %d dist[%d] %v one way, %v the other", pred, r.ObjectID, i, p, o.Dist[i])
			}
		}
	}
}

// randomFilterExpr is a two-atom expression over windows of the case's
// state space: a conjunction with a negation, or a disjunction.
func randomFilterExpr(rng *rand.Rand, n int) Expr {
	atom := func() Expr {
		lo := rng.Intn(n - 2)
		states := WithStates(Interval(lo, min(lo+rng.Intn(4), n-1)))
		t0 := rng.Intn(6)
		times := WithTimes(Interval(t0, t0+rng.Intn(5)))
		if rng.Intn(3) == 0 {
			return ForAllAtom(states, times)
		}
		return ExistsAtom(states, times)
	}
	if rng.Intn(2) == 0 {
		return And(atom(), Not(atom()))
	}
	return Or(atom(), atom())
}
