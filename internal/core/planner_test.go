package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"ust/internal/gen"
	"ust/internal/markov"
)

func TestPlanExistsPrefersQBOnLargeDB(t *testing.T) {
	p := gen.Params{NumObjects: 500, NumStates: 2000, ObjectSpread: 5, StateSpread: 5, MaxStep: 40, Seed: 1}
	ds := gen.MustGenerate(p)
	db := NewDatabase(ds.Chain)
	for i, o := range ds.Objects {
		db.MustAdd(MustObject(i, nil, Observation{Time: 0, PDF: o}))
	}
	e := NewEngine(db, Options{})
	q := NewQuery(Interval(100, 120), Interval(20, 25))
	chosen, plans, err := e.PlanRequest(NewRequest(PredicateExists, WithWindow(q), WithAutoPlan()))
	if err != nil {
		t.Fatalf("PlanRequest: %v", err)
	}
	if plans[0].Strategy != StrategyQueryBased || chosen != StrategyQueryBased {
		t.Errorf("large DB plan = %v, want query-based", plans[0].Strategy)
	}
	if plans[0].Ops >= plans[1].Ops {
		t.Error("plans not ordered best-first")
	}
	if plans[0].Sweeps <= 0 {
		t.Error("QB plan should have at least one sweep")
	}
}

func TestPlanExistsPrefersOBOnSingleObjectShortHorizon(t *testing.T) {
	p := gen.Params{NumObjects: 1, NumStates: 5000, ObjectSpread: 1, StateSpread: 5, MaxStep: 40, Seed: 1}
	ds := gen.MustGenerate(p)
	db := NewDatabase(ds.Chain)
	db.MustAdd(MustObject(0, nil, Observation{Time: 0, PDF: ds.Objects[0]}))
	e := NewEngine(db, Options{})
	// One object, two-step horizon: the forward pass touches a handful
	// of entries while the backward sweep touches the whole matrix.
	q := NewQuery(Interval(100, 120), []int{2})
	chosen, plans, err := e.PlanRequest(NewRequest(PredicateExists, WithWindow(q), WithAutoPlan()))
	if err != nil {
		t.Fatalf("PlanRequest: %v", err)
	}
	if plans[0].Strategy != StrategyObjectBased || chosen != StrategyObjectBased {
		t.Errorf("single-object plan = %v, want object-based", plans[0].Strategy)
	}
}

func TestExistsAutoMatchesExact(t *testing.T) {
	db, o := paperDB(t)
	e := NewEngine(db, Options{})
	q := paperQueryV()
	resp, err := e.Evaluate(context.Background(), NewRequest(PredicateExists, WithWindow(q), WithAutoPlan()))
	if err != nil {
		t.Fatalf("auto-planned exists: %v", err)
	}
	if resp.Strategy != StrategyQueryBased && resp.Strategy != StrategyObjectBased {
		t.Errorf("auto chose %v", resp.Strategy)
	}
	if len(resp.Plans) != 2 || resp.Plans[0].Strategy != resp.Strategy {
		t.Errorf("plans %+v do not lead with the chosen strategy %v", resp.Plans, resp.Strategy)
	}
	exact, err := obProb(e, o, PredicateExists, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Results[0].Prob-exact) > tol {
		t.Errorf("auto result %g != exact %g", resp.Results[0].Prob, exact)
	}
}

func TestExpectedCount(t *testing.T) {
	db := NewDatabase(paperChainV(t))
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)})) // 0.864
	db.MustAdd(MustObject(2, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)})) // 0.864
	e := NewEngine(db, Options{})
	// The paper's "how many cars will be in the congested segment"
	// aggregate, Σ_o P∃(o), is the mean of the count distribution.
	resp, err := e.Evaluate(context.Background(), NewAggRequest(PredicateExists,
		AggSpec{Kind: AggCount}, WithWindow(paperQueryV())))
	if err != nil {
		t.Fatalf("count aggregate: %v", err)
	}
	if got := resp.Agg.Mean; math.Abs(got-2*0.864) > tol {
		t.Errorf("expected count = %g, want %g", got, 2*0.864)
	}
}

func TestAtLeastKTimes(t *testing.T) {
	// "Inside at k or more query timestamps" is the tail sum of the
	// PSTkQ distribution: k = 0 is certain, k = 1 coincides with PST∃Q,
	// k = |T□| with PST∀Q, anything beyond is impossible.
	db, o := paperDB(t)
	e := NewEngine(db, Options{})
	q := paperQueryV()
	dist, err := obDist(e, o, q)
	if err != nil {
		t.Fatal(err)
	}
	atLeast := func(k int) float64 {
		tail := 0.0
		for _, p := range dist[min(k, len(dist)):] {
			tail += p
		}
		return tail
	}
	if p := atLeast(0); math.Abs(p-1) > tol {
		t.Errorf("at least 0 visits = %g, want 1", p)
	}
	exists, err := obProb(e, o, PredicateExists, q)
	if err != nil {
		t.Fatal(err)
	}
	if p := atLeast(1); math.Abs(p-0.864) > tol || math.Abs(p-exists) > tol {
		t.Errorf("at least 1 visit = %g, want 0.864 (P∃ = %g)", p, exists)
	}
	forAll, err := obProb(e, o, PredicateForAll, q)
	if err != nil {
		t.Fatal(err)
	}
	if p := atLeast(2); math.Abs(p-0.192) > tol || math.Abs(p-forAll) > tol {
		t.Errorf("at least 2 visits = %g, want 0.192 (P∀ = %g)", p, forAll)
	}
	if p := atLeast(3); p != 0 {
		t.Errorf("at least 3 visits = %g, want 0", p)
	}
}

func TestExistsOBParallelMatchesSequential(t *testing.T) {
	p := gen.Params{NumObjects: 200, NumStates: 1500, ObjectSpread: 5, StateSpread: 4, MaxStep: 30, Seed: 5}
	ds := gen.MustGenerate(p)
	db := NewDatabase(ds.Chain)
	for i, o := range ds.Objects {
		db.MustAdd(MustObject(i, nil, Observation{Time: 0, PDF: o}))
	}
	e := NewEngine(db, Options{})
	q := NewQuery(Interval(100, 140), Interval(10, 15))

	seqResp, err := e.Evaluate(context.Background(), NewRequest(PredicateExists,
		WithWindow(q), WithStrategy(StrategyObjectBased)))
	if err != nil {
		t.Fatal(err)
	}
	seq := seqResp.Results
	for _, workers := range []int{1, 4, 0} {
		par, err := ask(e, PredicateExists, q, ob, WithParallelism(workers))
		if err != nil {
			t.Fatalf("parallel(%d): %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("parallel(%d): %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].ObjectID != seq[i].ObjectID {
				t.Fatalf("parallel(%d): order differs at %d", workers, i)
			}
			if math.Abs(par[i].Prob-seq[i].Prob) > 1e-12 {
				t.Fatalf("parallel(%d): object %d: %g != %g", workers, par[i].ObjectID, par[i].Prob, seq[i].Prob)
			}
		}
	}
}

func TestExistsOBParallelPropagatesError(t *testing.T) {
	db := NewDatabase(paperChainV(t))
	db.MustAdd(MustObject(1, nil, Observation{Time: 10, PDF: markov.PointDistribution(3, 0)}))
	e := NewEngine(db, Options{})
	if _, err := ask(e, PredicateExists, NewQuery([]int{0}, []int{2}), ob, WithParallelism(4)); err == nil {
		t.Error("late observation not reported by parallel evaluation")
	}
}

func TestExistsOBParallelMixedChains(t *testing.T) {
	db := NewDatabase(paperChainV(t))
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	db.MustAdd(MustObject(2, paperChainVI(t), Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	e := NewEngine(db, Options{})
	q := paperQueryV()
	serial := probs(t, e, PredicateExists, q, ob)
	for _, r := range mustAsk(t, e, PredicateExists, q, ob, WithParallelism(2)) {
		if want := serial[r.ObjectID]; math.Abs(r.Prob-want) > tol {
			t.Errorf("object %d: parallel %g != exact %g", r.ObjectID, r.Prob, want)
		}
	}
}

func TestConcurrentReadOnlyQueries(t *testing.T) {
	// Engines over a shared database must support concurrent read-only
	// querying once the transposes are warmed (parallel OB evaluation
	// warms them; plain QB readers arriving concurrently afterwards are
	// safe). Run under -race in CI.
	p := gen.Params{NumObjects: 60, NumStates: 800, ObjectSpread: 3, StateSpread: 4, MaxStep: 20, Seed: 13}
	ds := gen.MustGenerate(p)
	db := NewDatabase(ds.Chain)
	for i, o := range ds.Objects {
		db.MustAdd(MustObject(i, nil, Observation{Time: 0, PDF: o}))
	}
	e := NewEngine(db, Options{})
	ds.Chain.Transposed() // warm before sharing

	q := NewQuery(Interval(100, 140), Interval(5, 9))
	want := mustAsk(t, e, PredicateExists, q, qb)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ask(e, PredicateExists, q, qb)
			if err != nil {
				errs <- err
				return
			}
			for i := range want {
				if math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
					errs <- fmt.Errorf("object %d: %g != %g", want[i].ObjectID, got[i].Prob, want[i].Prob)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
