package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ust/internal/markov"
)

func TestEngineStrategies(t *testing.T) {
	db, _ := paperDB(t)
	q := paperQueryV()
	for _, s := range []Strategy{StrategyQueryBased, StrategyObjectBased} {
		e := NewEngine(db, Options{Strategy: s})
		res := mustAsk(t, e, PredicateExists, q)
		if math.Abs(res[0].Prob-0.864) > tol {
			t.Errorf("%v P∃ = %g, want 0.864", s, res[0].Prob)
		}
	}
	// Monte-Carlo: approximate but in the ballpark with enough samples.
	e := NewEngine(db, Options{Strategy: StrategyMonteCarlo, MonteCarloSamples: 100000})
	res := mustAsk(t, e, PredicateExists, q)
	if math.Abs(res[0].Prob-0.864) > 0.01 {
		t.Errorf("MC P∃ = %g, want ≈ 0.864", res[0].Prob)
	}
}

// TestEngineSurface pins the exported method set of *Engine: queries go
// through Evaluate and its stream/batch forms, so a new way to ask the
// same question fails here with its name.
func TestEngineSurface(t *testing.T) {
	want := []string{
		"AggregateFactors", "BuildClusterIndex", "CacheStats", "Database",
		"Evaluate", "EvaluateBatch", "EvaluateBatchSeq", "EvaluateSeq",
		"ExistsThresholdClustered", "InvalidateCache", "Marginal",
		"PlanRequest", "WarmBatch",
	}
	typ := reflect.TypeOf(&Engine{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name) // exported only, sorted by name
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("*Engine exports %d methods %v, want the %d on the allow-list %v", len(got), got, len(want), want)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyQueryBased.String() != "query-based" ||
		StrategyObjectBased.String() != "object-based" ||
		StrategyMonteCarlo.String() != "monte-carlo" {
		t.Error("Strategy.String labels wrong")
	}
	if Strategy(42).String() != "Strategy(42)" {
		t.Error("unknown strategy label wrong")
	}
}

func TestEngineForAllStrategiesAgree(t *testing.T) {
	db, _ := paperDB(t)
	q := paperQueryV()
	viaQB := mustAsk(t, NewEngine(db, Options{Strategy: StrategyQueryBased}), PredicateForAll, q)
	viaOB := mustAsk(t, NewEngine(db, Options{Strategy: StrategyObjectBased}), PredicateForAll, q)
	if math.Abs(viaQB[0].Prob-viaOB[0].Prob) > tol {
		t.Errorf("QB ForAll %g != OB ForAll %g", viaQB[0].Prob, viaOB[0].Prob)
	}
}

func TestEngineKTimesStrategiesAgree(t *testing.T) {
	db, _ := paperDB(t)
	q := paperQueryV()
	viaQB := mustAsk(t, NewEngine(db, Options{Strategy: StrategyQueryBased}), PredicateKTimes, q)
	viaOB := mustAsk(t, NewEngine(db, Options{Strategy: StrategyObjectBased}), PredicateKTimes, q)
	for k := range viaQB[0].Dist {
		if math.Abs(viaQB[0].Dist[k]-viaOB[0].Dist[k]) > tol {
			t.Errorf("k=%d: QB %g != OB %g", k, viaQB[0].Dist[k], viaOB[0].Dist[k])
		}
	}
	mc := mustAsk(t, NewEngine(db, Options{Strategy: StrategyMonteCarlo, MonteCarloSamples: 100000}), PredicateKTimes, q)
	for k := range viaQB[0].Dist {
		if math.Abs(mc[0].Dist[k]-viaQB[0].Dist[k]) > 0.01 {
			t.Errorf("k=%d: MC %g too far from exact %g", k, mc[0].Dist[k], viaQB[0].Dist[k])
		}
	}
}

func TestEmptyQuerySides(t *testing.T) {
	db, o := paperDB(t)
	e := NewEngine(db, Options{})

	// Empty time set.
	qNoTimes := NewQuery([]int{0, 1}, nil)
	if r, err := askOne(e, o.ID, PredicateExists, qNoTimes, ob); err != nil || r.Prob != 0 {
		t.Errorf("P∃ with empty T = (%g, %v), want (0, nil)", r.Prob, err)
	}
	if r, err := askOne(e, o.ID, PredicateForAll, qNoTimes, ob); err != nil || r.Prob != 1 {
		t.Errorf("P∀ with empty T = (%g, %v), want (1, nil)", r.Prob, err)
	}
	if r, err := askOne(e, o.ID, PredicateKTimes, qNoTimes, ob); err != nil || len(r.Dist) != 1 || r.Dist[0] != 1 {
		t.Errorf("k-dist with empty T = (%v, %v), want ([1], nil)", r.Dist, err)
	}
	res, err := ask(e, PredicateExists, qNoTimes)
	if err != nil || res[0].Prob != 0 {
		t.Errorf("engine Exists with empty T = %v, %v", res, err)
	}
	resFA, err := ask(e, PredicateForAll, qNoTimes)
	if err != nil || resFA[0].Prob != 1 {
		t.Errorf("engine ForAll with empty T = %v, %v", resFA, err)
	}

	// Empty state set: can never be inside.
	qNoStates := NewQuery(nil, []int{1, 2})
	if r, err := askOne(e, o.ID, PredicateExists, qNoStates, ob); err != nil || r.Prob != 0 {
		t.Errorf("P∃ with empty S = (%g, %v), want (0, nil)", r.Prob, err)
	}
	if r, err := askOne(e, o.ID, PredicateForAll, qNoStates, ob); err != nil || r.Prob != 0 {
		t.Errorf("P∀ with empty S = (%g, %v), want (0, nil)", r.Prob, err)
	}
}

func TestQueryValidation(t *testing.T) {
	db, _ := paperDB(t)
	e := NewEngine(db, Options{})
	if _, err := ask(e, PredicateExists, NewQuery([]int{99}, []int{1}), ob); err == nil {
		t.Error("out-of-range query state accepted")
	}
	if _, err := ask(e, PredicateExists, Query{States: []int{0}, Times: []int{-1}}, ob); err == nil {
		t.Error("negative query time accepted")
	}
	if _, err := ask(e, PredicateExists, NewQuery([]int{99}, []int{1}), qb); err == nil {
		t.Error("QB accepted out-of-range state")
	}
}

func TestObservedAfterHorizonErrors(t *testing.T) {
	db := NewDatabase(paperChainV(t))
	late := MustObject(7, nil, Observation{Time: 10, PDF: markov.PointDistribution(3, 0)})
	db.MustAdd(late)
	e := NewEngine(db, Options{})
	q := NewQuery([]int{0}, []int{2, 3})
	if _, err := ask(e, PredicateExists, q, ob); err == nil {
		t.Error("OB accepted observation after horizon")
	}
	if _, err := ask(e, PredicateExists, q, qb); err == nil {
		t.Error("QB accepted observation after horizon")
	}
	if _, err := ask(e, PredicateKTimes, q, ob); err == nil {
		t.Error("KTimes accepted observation after horizon")
	}
}

func TestNewQuerySortsAndDedupes(t *testing.T) {
	q := NewQuery([]int{5, 1, 5, 3}, []int{9, 2, 2})
	if len(q.States) != 3 || q.States[0] != 1 || q.States[2] != 5 {
		t.Errorf("States = %v", q.States)
	}
	if len(q.Times) != 2 || q.Times[0] != 2 || q.Times[1] != 9 {
		t.Errorf("Times = %v", q.Times)
	}
	if q.Horizon() != 9 {
		t.Errorf("Horizon = %d", q.Horizon())
	}
	if (Query{}).Horizon() != -1 {
		t.Error("empty query Horizon should be -1")
	}
}

func TestInterval(t *testing.T) {
	got := Interval(3, 6)
	if len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Errorf("Interval = %v", got)
	}
	if Interval(5, 4) != nil {
		t.Error("inverted Interval should be nil")
	}
}

func TestMixedChainGroups(t *testing.T) {
	// Two objects on the default chain, one on its own chain: QB must
	// evaluate both groups correctly (Section V-C heterogeneous case).
	defaultChain := paperChainV(t)
	otherChain := paperChainVI(t)
	db := NewDatabase(defaultChain)
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	db.MustAdd(MustObject(2, otherChain, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	db.MustAdd(MustObject(3, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 2)}))
	e := NewEngine(db, Options{})
	q := paperQueryV()

	byID := probs(t, e, PredicateExists, q, qb)
	if len(byID) != 3 {
		t.Fatalf("got %d results, want 3", len(byID))
	}
	// Cross-check each against OB.
	for id, want := range probs(t, e, PredicateExists, q, ob) {
		if math.Abs(want-byID[id]) > tol {
			t.Errorf("object %d: QB %g != OB %g", id, byID[id], want)
		}
	}
	// Objects 1 and 2 start identically but follow different chains:
	// their probabilities must differ.
	if math.Abs(byID[1]-byID[2]) < 1e-9 {
		t.Error("different chains produced identical probabilities")
	}
}

func TestObserveAtDifferentTimes(t *testing.T) {
	// Objects observed at different timestamps share the QB machinery
	// via per-time scoring vectors.
	db := NewDatabase(paperChainV(t))
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	db.MustAdd(MustObject(2, nil, Observation{Time: 1, PDF: markov.PointDistribution(3, 1)}))
	db.MustAdd(MustObject(3, nil, Observation{Time: 2, PDF: markov.PointDistribution(3, 1)}))
	e := NewEngine(db, Options{})
	q := paperQueryV()
	res := mustAsk(t, e, PredicateExists, q, qb)
	viaOB := probs(t, e, PredicateExists, q, ob)
	for _, r := range res {
		if math.Abs(viaOB[r.ObjectID]-r.Prob) > tol {
			t.Errorf("object %d: QB %g != OB %g", r.ObjectID, r.Prob, viaOB[r.ObjectID])
		}
	}
	// An object observed at t=2 standing at s2 ∈ S□: immediate hit.
	if byID := res[2]; byID.ObjectID == 3 && byID.Prob != 1 {
		t.Errorf("object observed inside window at query time: P = %g, want 1", byID.Prob)
	}
}

func TestExistsThreshold(t *testing.T) {
	db := NewDatabase(paperChainV(t))
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)})) // 0.864
	db.MustAdd(MustObject(2, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 0)}))
	db.MustAdd(MustObject(3, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 2)}))
	e := NewEngine(db, Options{})
	// A threshold alone keeps evaluation order; with WithTopK the
	// qualifying objects come back ranked.
	res := mustAsk(t, e, PredicateExists, paperQueryV(), WithThreshold(0.5), WithTopK(db.Len()))
	if len(res) == 0 {
		t.Fatal("no objects above threshold")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Prob > res[i-1].Prob {
			t.Error("results not sorted descending")
		}
	}
	if unranked := mustAsk(t, e, PredicateExists, paperQueryV(), WithThreshold(0.5)); len(unranked) != len(res) {
		t.Errorf("threshold alone kept %d objects, ranked %d", len(unranked), len(res))
	}
	for _, r := range res {
		if r.Prob < 0.5 {
			t.Errorf("object %d below threshold: %g", r.ObjectID, r.Prob)
		}
	}
}

// TestExistsOBBoundsBracket pins the bracketing forward pass behind
// threshold and top-k refinement (existsOBRefine): hit mass is a lower
// bound, hit plus free mass an upper bound, so a pass either proves the
// answer outside the band and stops, or finishes with the exact value.
func TestExistsOBBoundsBracket(t *testing.T) {
	db, o := paperDB(t)
	chain := db.ChainOf(o)
	w, err := compile(paperQueryV(), chain.NumStates())
	if err != nil {
		t.Fatal(err)
	}
	const exact = 0.864
	refine := func(mass, rejectBelow, rejectAbove float64) (float64, bool) {
		t.Helper()
		init := o.First().PDF.Vec().Clone()
		init.Scale(mass)
		p, qualified, rerr := existsOBRefine(context.Background(), chain, forwardSeed{pdf: init, mass: 1}, w, rejectBelow, rejectAbove, nil)
		if rerr != nil {
			t.Fatalf("refine: %v", rerr)
		}
		return p, qualified
	}

	// τ well below the true value: nothing to refute, the pass completes
	// with the exact probability.
	if p, ok := refine(1, 0.2, 2); !ok || math.Abs(p-exact) > tol {
		t.Errorf("τ=0.2: (%g, %v), want (%g, true)", p, ok, exact)
	}
	// A rejection bar above the hit mass already absorbed at t=2 (0.32):
	// refuted by the lower bound before the last step.
	if _, ok := refine(1, -1, 0.3); ok {
		t.Error("rejectAbove=0.3 should be refuted by the lower bound")
	}
	// Hit plus free mass can never exceed the mass that entered the
	// pass: half the mass cannot reach τ=0.9, refuted by the upper bound.
	if _, ok := refine(0.5, 0.9, 2); ok {
		t.Error("τ=0.9 on half the mass should be refuted by the upper bound")
	}
	// τ just above the true value cannot be refuted while free mass
	// remains: the pass completes and the caller compares the exact value.
	if p, ok := refine(1, 0.87, 2); !ok || math.Abs(p-exact) > tol {
		t.Errorf("τ=0.87: (%g, %v), want (%g, true)", p, ok, exact)
	}
}

func TestDatabaseValidation(t *testing.T) {
	db := NewDatabase(paperChainV(t))
	if err := db.AddSimple(1, markov.PointDistribution(3, 0)); err != nil {
		t.Fatalf("AddSimple: %v", err)
	}
	if err := db.AddSimple(1, markov.PointDistribution(3, 1)); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := db.AddSimple(2, markov.PointDistribution(5, 0)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
	if db.Get(1) == nil || db.Get(42) != nil {
		t.Error("Get wrong")
	}
}

func TestObjectValidation(t *testing.T) {
	if _, err := NewObject(1, nil); err == nil {
		t.Error("object without observations accepted")
	}
	pdf := markov.PointDistribution(3, 0)
	if _, err := NewObject(1, nil, Observation{Time: -1, PDF: pdf}); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := NewObject(1, nil, Observation{Time: 0, PDF: nil}); err == nil {
		t.Error("nil pdf accepted")
	}
	if _, err := NewObject(1, nil,
		Observation{Time: 0, PDF: pdf},
		Observation{Time: 0, PDF: pdf},
	); err == nil {
		t.Error("duplicate observation times accepted")
	}
	// Observations arrive unsorted; constructor must sort them.
	o, err := NewObject(1, nil,
		Observation{Time: 5, PDF: pdf},
		Observation{Time: 2, PDF: pdf},
	)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	if o.First().Time != 2 || o.Last().Time != 5 {
		t.Error("observations not sorted")
	}
}

func TestIndependenceModelOverestimates(t *testing.T) {
	// Figure 9(d): on a chain with temporal correlation, the
	// independence model is biased and the bias grows with the window
	// length.
	//
	// The paper's Figure 1 argument needs a *lingering* object: a world
	// inside the region at time t tends to still be inside at t+1
	// (positive correlation). The independence model then multiplies
	// miss probabilities that are not independent, driving its P∃
	// estimate toward 1 while the true value stays bounded.
	n := 40
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		switch {
		case i+2 < n:
			rows[i][i] = 0.5 // uncertain speed, may stand still
			rows[i][i+1] = 0.3
			rows[i][i+2] = 0.2
		case i+1 < n:
			rows[i][i] = 0.5
			rows[i][i+1] = 0.5
		default:
			rows[i][i] = 1
		}
	}
	chain, err := markov.FromDense(rows)
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	db := NewDatabase(chain)
	o := MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(n, 0)})
	db.MustAdd(o)
	e := NewEngine(db, Options{})

	// The independence model from per-timestamp marginals:
	// 1 − Π_{t ∈ T□} (1 − P(o(t) ∈ S□)).
	region := Interval(8, 12)
	indepExists := func(times []int) float64 {
		missAll := 1.0
		for _, tt := range times {
			m, merr := e.Marginal(o, tt)
			if merr != nil {
				t.Fatalf("marginal at %d: %v", tt, merr)
			}
			in := 0.0
			for _, s := range region {
				in += m.P(s)
			}
			missAll *= 1 - in
		}
		return 1 - missAll
	}
	firstBias, lastBias := math.NaN(), 0.0
	for _, winLen := range []int{2, 4, 6, 8} {
		times := Interval(6, 6+winLen-1)
		exact := probs(t, e, PredicateExists, NewQuery(region, times), ob)[o.ID]
		bias := indepExists(times) - exact
		if bias < -1e-12 {
			t.Errorf("window %d: independence model underestimated (bias %g)", winLen, bias)
		}
		if math.IsNaN(firstBias) {
			firstBias = bias
		}
		lastBias = bias
	}
	if lastBias <= firstBias {
		t.Errorf("bias did not grow with the window: first %g, last %g", firstBias, lastBias)
	}
}

func TestForAllIndependent(t *testing.T) {
	// For a single-timestamp window the independence model and the
	// Markov model coincide: P∀, P∃ and the marginal mass inside the
	// region at that timestamp are one number.
	db, o := paperDB(t)
	e := NewEngine(db, Options{})
	q := NewQuery([]int{0, 1}, []int{2})
	forAll := probs(t, e, PredicateForAll, q, ob)[o.ID]
	exists := probs(t, e, PredicateExists, q, ob)[o.ID]
	m, err := e.Marginal(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	indep := m.P(0) + m.P(1)
	if math.Abs(forAll-indep) > tol || math.Abs(exists-indep) > tol {
		t.Errorf("single-timestamp: forall %g, exists %g, marginal mass %g", forAll, exists, indep)
	}
}
