package ust_test

import (
	"context"
	"math"
	"testing"

	"ust"
)

// The public-API tests exercise the facade exactly as README consumers
// would, including the paper's running example end to end.

func paperSetup(t testing.TB) (*ust.Database, *ust.Engine) {
	t.Helper()
	chain, err := ust.ChainFromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatalf("ChainFromDense: %v", err)
	}
	db := ust.NewDatabase(chain)
	if err := db.AddSimple(1, ust.PointDistribution(3, 1)); err != nil {
		t.Fatalf("AddSimple: %v", err)
	}
	return db, ust.NewEngine(db, ust.Options{})
}

// ask answers pred over window q for every object through
// Engine.Evaluate, the way README consumers do.
func ask(t testing.TB, engine *ust.Engine, pred ust.Predicate, q ust.Query, opts ...ust.RequestOption) []ust.Result {
	t.Helper()
	resp, err := engine.Evaluate(context.Background(),
		ust.NewRequest(pred, append([]ust.RequestOption{ust.WithWindow(q)}, opts...)...))
	if err != nil {
		t.Fatalf("%v: %v", pred, err)
	}
	return resp.Results
}

func TestQuickstartExample(t *testing.T) {
	_, engine := paperSetup(t)
	res := ask(t, engine, ust.PredicateExists, ust.NewQuery([]int{0, 1}, []int{2, 3}))
	if math.Abs(res[0].Prob-0.864) > 1e-12 {
		t.Errorf("quickstart P∃ = %v, want 0.864", res[0].Prob)
	}
}

func TestPublicAPIAllPredicates(t *testing.T) {
	db, engine := paperSetup(t)
	q := ust.NewQuery(ust.Interval(0, 1), ust.Interval(2, 3))

	exists := ask(t, engine, ust.PredicateExists, q)
	forAll := ask(t, engine, ust.PredicateForAll, q)
	kTimes := ask(t, engine, ust.PredicateKTimes, q)
	// Consistency among the three predicates.
	if math.Abs((1-kTimes[0].Dist[0])-exists[0].Prob) > 1e-12 {
		t.Error("Exists != 1 - P(0 visits)")
	}
	last := kTimes[0].Dist[len(kTimes[0].Dist)-1]
	if math.Abs(last-forAll[0].Prob) > 1e-12 {
		t.Error("ForAll != P(all visits)")
	}
	// Brute force agrees through the public facade too.
	o := db.Objects()[0]
	bf, err := ust.BruteForce(db.DefaultChain(), o, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bf.PExists-exists[0].Prob) > 1e-12 {
		t.Error("BruteForce disagrees with engine")
	}
}

func TestPublicAPIStrategiesAgree(t *testing.T) {
	db, _ := paperSetup(t)
	q := ust.NewQuery([]int{0, 1}, []int{2, 3})
	var probs []float64
	for _, s := range []ust.Strategy{ust.StrategyQueryBased, ust.StrategyObjectBased} {
		engine := ust.NewEngine(db, ust.Options{Strategy: s})
		probs = append(probs, ask(t, engine, ust.PredicateExists, q)[0].Prob)
	}
	if math.Abs(probs[0]-probs[1]) > 1e-12 {
		t.Errorf("strategies disagree: %v", probs)
	}
}

func TestPublicAPIMultiObservation(t *testing.T) {
	chain, err := ust.ChainFromDense([][]float64{
		{0, 0, 1},
		{0.5, 0, 0.5},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := ust.NewDatabase(chain)
	o, err := ust.NewObject(1, nil,
		ust.Observation{Time: 0, PDF: ust.PointDistribution(3, 0)},
		ust.Observation{Time: 3, PDF: ust.PointDistribution(3, 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add(o); err != nil {
		t.Fatal(err)
	}
	engine := ust.NewEngine(db, ust.Options{})
	res := ask(t, engine, ust.PredicateExists, ust.NewQuery([]int{0, 1}, []int{1, 2}))
	if res[0].Prob != 0 {
		t.Errorf("multi-obs P∃ = %v, want 0 (paper Section VI)", res[0].Prob)
	}
	post, err := ust.PosteriorAt(chain, o.Observations, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := post.Validate(1e-9); err != nil {
		t.Errorf("posterior invalid: %v", err)
	}
}

func TestPublicAPIWeightedObservation(t *testing.T) {
	d, err := ust.WeightedOver(5, []int{1, 3}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(1)-0.75) > 1e-12 {
		t.Errorf("P(1) = %v", d.P(1))
	}
	if _, err := ust.WeightedOver(5, []int{9}, []float64{1}); err == nil {
		t.Error("out-of-range state accepted")
	}
}

func TestPublicAPIIntervalChain(t *testing.T) {
	a, _ := ust.ChainFromDense([][]float64{{0.5, 0.5}, {0.4, 0.6}})
	b, _ := ust.ChainFromDense([][]float64{{0.6, 0.4}, {0.5, 0.5}})
	env, err := ust.NewIntervalChain([]*ust.Chain{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !env.Contains(a) || !env.Contains(b) {
		t.Error("envelope must contain its members")
	}
	init := ust.PointDistribution(2, 0)
	lo, hi, err := env.ExistsBoundsCluster(init.Vec(), 0, ust.NewQuery([]int{1}, []int{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi || lo < 0 || hi > 1 {
		t.Errorf("bounds [%v, %v] invalid", lo, hi)
	}
}

func TestPublicAPIMatrixConstruction(t *testing.T) {
	m := ust.NewMatrixFromDense([][]float64{{0, 1}, {1, 0}})
	chain, err := ust.NewChain(m)
	if err != nil {
		t.Fatal(err)
	}
	if chain.NumStates() != 2 {
		t.Error("NumStates wrong")
	}
	if _, err := ust.NewChain(ust.NewMatrixFromDense([][]float64{{2}})); err == nil {
		t.Error("non-stochastic matrix accepted")
	}
}

func TestPublicAPIWorkloadGeneration(t *testing.T) {
	p := ust.DefaultSyntheticParams(3)
	p.NumObjects, p.NumStates = 20, 500
	db, err := ust.GenerateSyntheticDatabase(p)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 20 || db.DefaultChain().NumStates() != 500 {
		t.Errorf("generated db: %d objects, %d states", db.Len(), db.DefaultChain().NumStates())
	}
	engine := ust.NewEngine(db, ust.Options{})
	ask(t, engine, ust.PredicateExists, ust.NewQuery(ust.Interval(100, 120), ust.Interval(5, 8)))

	trs, err := ust.GenerateTrajectories(db.DefaultChain(), 3, ust.TrajectoryParams{
		Horizon:          6,
		ObservationTimes: []int{0, 6},
		Noise:            1,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := ust.ObjectFromTrajectory(100, nil, trs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add(o); err != nil {
		t.Fatal(err)
	}
	ask(t, engine, ust.PredicateExists, ust.NewQuery(ust.Interval(100, 120), ust.Interval(2, 5)))
}

func TestPublicAPIStructuralAnalysis(t *testing.T) {
	chain, err := ust.ChainFromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ust.Irreducible(chain) || !ust.Aperiodic(chain) {
		t.Error("paper chain should be irreducible and aperiodic")
	}
	if comps := ust.SCCs(chain); len(comps) != 1 {
		t.Errorf("SCCs = %v", comps)
	}
	pi, iters, err := ust.Stationary(chain, 0, 0)
	if err != nil {
		t.Fatalf("Stationary: %v", err)
	}
	if iters == 0 || pi.Mass() < 0.99 {
		t.Errorf("stationary: %d iters, mass %g", iters, pi.Mass())
	}
	if _, err := ust.MixingTime(chain, 0, pi, 0, 0); err != nil {
		t.Errorf("MixingTime: %v", err)
	}
}

func TestPublicAPIPolygonRegion(t *testing.T) {
	grid := ust.NewGrid(10, 10)
	tri, err := ust.NewPolygon([]ust.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}})
	if err != nil {
		t.Fatal(err)
	}
	idx := ust.IndexSpace(grid, 0)
	states := idx.Search(tri)
	if len(states) == 0 {
		t.Fatal("triangle resolved to no states")
	}
	knn := idx.KNearest(ust.Point{X: 5, Y: 5}, 4)
	if len(knn) != 4 {
		t.Errorf("KNearest returned %d", len(knn))
	}
}

func TestPublicAPIMonitorAndTopK(t *testing.T) {
	// The monitoring trio of the paper's applications through the public
	// API: a standing query (Service.Subscribe), the most likely object
	// (WithTopK) and the expected count (the mean of a count aggregate).
	db, engine := paperSetup(t)
	q := ust.NewQuery([]int{0, 1}, []int{2, 3})
	svc := ust.NewService(ust.ServiceConfig{})
	defer svc.Close()
	if err := svc.Create("paper", db, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Subscribe(context.Background(), "paper", ust.NewRequest(ust.PredicateExists, ust.WithWindow(q)))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if snap := <-sub.Updates(); !snap.Full || len(snap.Results) != 1 || math.Abs(snap.Results[0].Prob-0.864) > 1e-12 {
		t.Errorf("standing query snapshot = %+v", snap)
	}
	top := ask(t, engine, ust.PredicateExists, q, ust.WithTopK(1))
	if len(top) != 1 || math.Abs(top[0].Prob-0.864) > 1e-12 {
		t.Errorf("TopK = %v", top)
	}
	resp, err := engine.Evaluate(context.Background(), ust.NewAggRequest(ust.PredicateExists,
		ust.AggSpec{Kind: ust.AggCount}, ust.WithWindow(q)))
	if err != nil || math.Abs(resp.Agg.Mean-0.864) > 1e-12 {
		t.Errorf("expected count = (%+v, %v)", resp, err)
	}
}
