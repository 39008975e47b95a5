package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ust/internal/agg"
	"ust/internal/markov"
)

// randomAggInstance builds a tiny random database with several objects
// on one chain plus a random query, sized for the world-enumeration
// oracle.
func randomAggInstance(rng *rand.Rand) (*Engine, Query) {
	n := 3 + rng.Intn(4)       // 3-6 states
	horizon := 2 + rng.Intn(4) // query horizon 2-5
	chain := randomChainN(rng, n, 2+rng.Intn(2))
	db := NewDatabase(chain)
	for id := 1; id <= 2+rng.Intn(3); id++ {
		spread := 1 + rng.Intn(2)
		states := rng.Perm(n)[:spread]
		weights := make([]float64, spread)
		for i := range weights {
			weights[i] = rng.Float64() + 0.1
		}
		pdf, err := markov.WeightedOver(n, states, weights)
		if err != nil {
			panic(err)
		}
		db.MustAdd(MustObject(id, nil, Observation{Time: 0, PDF: pdf}))
	}
	var qStates []int
	for s := 0; s < n; s++ {
		if rng.Float64() < 0.4 {
			qStates = append(qStates, s)
		}
	}
	if len(qStates) == 0 {
		qStates = []int{rng.Intn(n)}
	}
	var qTimes []int
	for t := 1; t <= horizon; t++ {
		if rng.Float64() < 0.5 {
			qTimes = append(qTimes, t)
		}
	}
	if len(qTimes) == 0 {
		qTimes = []int{horizon}
	}
	return NewEngine(db, Options{}), NewQuery(qStates, qTimes)
}

// TestAggCountMatchesBruteForceQuick pins the aggregate subsystem
// end-to-end against the world-enumeration oracle, for every exactly-
// evaluable predicate × strategy on randomized small instances.
func TestAggCountMatchesBruteForceQuick(t *testing.T) {
	preds := []Predicate{PredicateExists, PredicateForAll, PredicateKTimes}
	strats := []Strategy{StrategyQueryBased, StrategyObjectBased}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, q := randomAggInstance(rng)
		for _, pred := range preds {
			want, err := BruteForceCountPMF(e.db, pred, q, Expr{})
			if err != nil {
				return false
			}
			for _, s := range strats {
				resp, err := e.Evaluate(context.Background(), NewAggRequest(pred,
					AggSpec{Kind: AggCount, MinCount: 1},
					WithWindow(q), WithStrategy(s)))
				if err != nil {
					return false
				}
				a := resp.Agg
				if a == nil || a.Kind != AggCount || len(a.PMF) != len(want) {
					return false
				}
				for k := range want {
					if math.Abs(a.PMF[k]-want[k]) > 1e-9 {
						return false
					}
				}
				if math.Abs(a.Tail-agg.TailGE(want, 1)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAggExprMatchesBruteForce pins compound-expression aggregates
// against the oracle on both exact strategies.
func TestAggExprMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 25; trial++ {
		e, q := randomAggInstance(rng)
		n := e.db.DefaultChain().NumStates()
		x := Or(
			ExistsAtom(WithWindow(q)),
			And(
				ExistsAtom(WithWindow(NewQuery([]int{rng.Intn(n)}, []int{1}))),
				Not(ForAllAtom(WithWindow(q))),
			),
		)
		want, err := BruteForceCountPMF(e.db, PredicateExpr, Query{}, x)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		for _, s := range []Strategy{StrategyQueryBased, StrategyObjectBased} {
			resp, err := e.Evaluate(context.Background(), NewAggRequest(PredicateExpr,
				AggSpec{Kind: AggCount}, WithExpr(x), WithStrategy(s)))
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, s, err)
			}
			if len(resp.Agg.PMF) != len(want) {
				t.Fatalf("trial %d %v: PMF length %d, oracle %d", trial, s, len(resp.Agg.PMF), len(want))
			}
			for k := range want {
				if math.Abs(resp.Agg.PMF[k]-want[k]) > 1e-9 {
					t.Fatalf("trial %d %v: PMF[%d] = %g, oracle %g", trial, s, k, resp.Agg.PMF[k], want[k])
				}
			}
		}
	}
}

// TestAggPMFPropertiesQuick: the PMF is a distribution whose mean is
// Σpᵢ over the per-object stream and whose variance is Σpᵢ(1−pᵢ).
func TestAggPMFPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, q := randomAggInstance(rng)
		var sumP, sumVar float64
		for r, err := range e.EvaluateSeq(context.Background(), NewRequest(PredicateExists, WithWindow(q))) {
			if err != nil {
				return false
			}
			sumP += r.Prob
			sumVar += r.Prob * (1 - r.Prob)
		}
		resp, err := e.Evaluate(context.Background(), NewAggRequest(PredicateExists,
			AggSpec{Kind: AggCount}, WithWindow(q)))
		if err != nil {
			return false
		}
		a := resp.Agg
		mass := 0.0
		for _, p := range a.PMF {
			if p < -1e-15 || p > 1+1e-12 {
				return false
			}
			mass += p
		}
		if math.Abs(mass-1) > 1e-10 {
			return false
		}
		cdf := a.CDF()
		if math.Abs(cdf[len(cdf)-1]-mass) > 1e-12 {
			return false
		}
		if a.ModeCount < 0 || a.ModeCount >= len(a.PMF) {
			return false
		}
		return math.Abs(a.Mean-sumP) < 1e-9 && math.Abs(a.Variance-sumVar) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExpectedCountAggPin: the expected count Σ_o P∃(o) is the mean of
// the count aggregate. Each object's Bernoulli factor carries the same
// bit-exact P∃ the per-object stream emits, so the plain sum over
// factors in emission order reproduces the sum of streamed probabilities
// bit for bit, and Agg.Mean agrees with it to float tolerance. The named
// seeds come first: each is an instance where a query-based count once
// answered an object from an exact-zero certificate (0) while the stream
// dotted a score a few ulps above it.
func TestExpectedCountAggPin(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, q := randomAggInstance(rng)
		streamed := 0.0
		for r, err := range e.EvaluateSeq(ctx, NewRequest(PredicateExists, WithWindow(q))) {
			if err != nil {
				return false
			}
			streamed += r.Prob
		}
		count := NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, WithWindow(q))
		fs, err := e.AggregateFactors(ctx, count)
		if err != nil {
			return false
		}
		factors := 0.0
		for _, f := range fs.Factors {
			factors += f.Coeffs[1]
		}
		resp, err := e.Evaluate(ctx, count)
		if err != nil {
			return false
		}
		return factors == streamed && math.Abs(resp.Agg.Mean-streamed) <= 1e-12*(1+streamed)
	}
	for _, seed := range []int64{6816999787278074552, 2208572406728789279, 904121217909182691, -3199309500688501926} {
		if !f(seed) {
			t.Errorf("seed %d: factors and stream disagree", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// disconnectedPairDB builds a chain with two disconnected 2-cycles
// ({0,1} and {2,3}) and one object in each component — the canonical
// setup where the reachability envelope certifies objects exactly.
func disconnectedPairDB(t *testing.T) *Database {
	t.Helper()
	chain, err := markov.FromDense([][]float64{
		{0, 1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(chain)
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(4, 0)}))
	db.MustAdd(MustObject(2, nil, Observation{Time: 0, PDF: markov.PointDistribution(4, 2)}))
	return db
}

// TestAggCertificatesPruneAndStayExact: under the object-based strategy,
// the one that filters, envelope certificates answer certain objects in
// O(1) — visible in the filter report — without changing a single PMF
// bit relative to the filter-disabled evaluation.
func TestAggCertificatesPruneAndStayExact(t *testing.T) {
	e := NewEngine(disconnectedPairDB(t), Options{})
	ctx := context.Background()
	ob := WithStrategy(StrategyObjectBased)

	// Exists over {2,3}: object 1 is certified impossible (p = 0).
	q := NewQuery([]int{2, 3}, []int{1, 2})
	on, err := e.Evaluate(ctx, NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, WithWindow(q), ob))
	if err != nil {
		t.Fatal(err)
	}
	off, err := e.Evaluate(ctx, NewAggRequest(PredicateExists, AggSpec{Kind: AggCount},
		WithWindow(q), ob, WithFilterRefine(false)))
	if err != nil {
		t.Fatal(err)
	}
	if on.Filter.Pruned == 0 {
		t.Errorf("expected certificate pruning, filter report %+v", on.Filter)
	}
	if off.Filter.Pruned != 0 || off.Filter.Candidates != 0 {
		t.Errorf("filter engaged while disabled: %+v", off.Filter)
	}
	for k := range on.Agg.PMF {
		if on.Agg.PMF[k] != off.Agg.PMF[k] {
			t.Fatalf("PMF[%d] differs bitwise with filter toggle: %v vs %v", k, on.Agg.PMF[k], off.Agg.PMF[k])
		}
	}
	// Object 2 reaches state 2 at t=2 with certainty, object 1 never:
	// count is exactly 1.
	if want := []float64{0, 1, 0}; len(on.Agg.PMF) != 3 || on.Agg.PMF[0] != want[0] ||
		on.Agg.PMF[1] != want[1] || on.Agg.PMF[2] != want[2] {
		t.Fatalf("PMF %v, want %v", on.Agg.PMF, want)
	}

	// ForAll over {2,3}: object 2 never leaves its component, so the
	// complement envelope certifies p = 1 exactly; object 1 certifies
	// p = 0 — wait, for-all of an object outside the region is 0 but
	// that is NOT a complement-envelope certificate; it refines.
	fa, err := e.Evaluate(ctx, NewAggRequest(PredicateForAll, AggSpec{Kind: AggCount}, WithWindow(q), ob))
	if err != nil {
		t.Fatal(err)
	}
	faOff, err := e.Evaluate(ctx, NewAggRequest(PredicateForAll, AggSpec{Kind: AggCount},
		WithWindow(q), ob, WithFilterRefine(false)))
	if err != nil {
		t.Fatal(err)
	}
	if fa.Filter.Pruned == 0 {
		t.Errorf("expected for-all certificate pruning, filter report %+v", fa.Filter)
	}
	for k := range fa.Agg.PMF {
		if fa.Agg.PMF[k] != faOff.Agg.PMF[k] {
			t.Fatalf("for-all PMF[%d] differs bitwise with filter toggle", k)
		}
	}
	if fa.Agg.PMF[1] != 1 {
		t.Fatalf("for-all PMF %v, want point mass at 1", fa.Agg.PMF)
	}
}

// TestAggTopologyInvariance: parallelism and strategy toggles must not
// move a bit (exact strategies) or a tolerance (QB vs OB).
func TestAggTopologyInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	for trial := 0; trial < 15; trial++ {
		e, q := randomAggInstance(rng)
		pmf := func(opts ...RequestOption) []float64 {
			t.Helper()
			resp, err := e.Evaluate(ctx, NewAggRequest(PredicateExists,
				AggSpec{Kind: AggCount}, append([]RequestOption{WithWindow(q)}, opts...)...))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return resp.Agg.PMF
		}
		qb := pmf(WithStrategy(StrategyQueryBased))
		qbPar := pmf(WithStrategy(StrategyQueryBased), WithParallelism(4))
		ob := pmf(WithStrategy(StrategyObjectBased))
		obPar := pmf(WithStrategy(StrategyObjectBased), WithParallelism(4))
		for k := range qb {
			if qb[k] != qbPar[k] || ob[k] != obPar[k] {
				t.Fatalf("trial %d: parallelism moved PMF[%d]", trial, k)
			}
			if math.Abs(qb[k]-ob[k]) > 1e-9 {
				t.Fatalf("trial %d: QB %g vs OB %g at %d", trial, qb[k], ob[k], k)
			}
		}
	}
}

// TestAggMonteCarlo: the MC aggregate rides the plain MC stream — the
// factor probabilities are the stream's, bit for bit — and with a large
// budget the PMF mean approaches the exact answer.
func TestAggMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, q := randomAggInstance(rng)
	ctx := context.Background()

	var factors []agg.Factor
	for r, err := range e.EvaluateSeq(ctx, NewRequest(PredicateExists, WithWindow(q),
		WithStrategy(StrategyMonteCarlo), WithMonteCarloBudget(4000, 99))) {
		if err != nil {
			t.Fatal(err)
		}
		factors = append(factors, agg.Bernoulli(r.ObjectID, r.Prob))
	}
	want, err := agg.CountPMF(factors)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Evaluate(ctx, NewAggRequest(PredicateExists, AggSpec{Kind: AggCount},
		WithWindow(q), WithStrategy(StrategyMonteCarlo), WithMonteCarloBudget(4000, 99)))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Agg.PMF) != len(want) {
		t.Fatalf("PMF length %d, want %d", len(resp.Agg.PMF), len(want))
	}
	for k := range want {
		if resp.Agg.PMF[k] != want[k] {
			t.Fatalf("MC aggregate drifts from MC stream at %d: %v vs %v", k, resp.Agg.PMF[k], want[k])
		}
	}

	exact, err := e.Evaluate(ctx, NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, WithWindow(q)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Agg.Mean-exact.Agg.Mean) > 0.15 {
		t.Errorf("MC mean %g too far from exact %g", resp.Agg.Mean, exact.Agg.Mean)
	}
}

// TestAggOccupancy: the profile's per-timestep moments equal the
// singleton-window exists answers, and the iceberg tail matches the
// per-timestep Poisson binomial.
func TestAggOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		e, q := randomAggInstance(rng)
		resp, err := e.Evaluate(ctx, NewAggRequest(PredicateExists,
			AggSpec{Kind: AggOccupancy, MinCount: 1}, WithWindow(q)))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prof := resp.Agg.Profile
		if len(prof) != len(q.Times) {
			t.Fatalf("trial %d: %d profile points for %d timesteps", trial, len(prof), len(q.Times))
		}
		for ti, tt := range sortedSet(q.Times) {
			if prof[ti].Time != tt {
				t.Fatalf("trial %d: point %d at time %d, want %d", trial, ti, prof[ti].Time, tt)
			}
			single, err := e.Evaluate(ctx, NewRequest(PredicateExists,
				WithWindow(NewQuery(q.States, []int{tt}))))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			var factors []agg.Factor
			var mean, variance float64
			for _, r := range single.Results {
				mean += r.Prob
				variance += r.Prob * (1 - r.Prob)
				factors = append(factors, agg.Bernoulli(r.ObjectID, r.Prob))
			}
			if math.Abs(prof[ti].Mean-mean) > 1e-12 || math.Abs(prof[ti].Variance-variance) > 1e-12 {
				t.Fatalf("trial %d t=%d: profile (%g, %g), direct (%g, %g)",
					trial, tt, prof[ti].Mean, prof[ti].Variance, mean, variance)
			}
			pmf, err := agg.CountPMF(factors)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(prof[ti].Tail-agg.TailGE(pmf, 1)) > 1e-12 {
				t.Fatalf("trial %d t=%d: tail %g, want %g", trial, tt, prof[ti].Tail, agg.TailGE(pmf, 1))
			}
		}
	}
}

// TestAggBatchAndEventually: aggregates ride the batch path next to
// plain requests, and the eventually predicate aggregates through the
// generic factor route.
func TestAggBatchAndEventually(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	e, q := randomAggInstance(rng)
	ctx := context.Background()
	resps, err := e.EvaluateBatch(ctx, []Request{
		NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, WithWindow(q)),
		NewRequest(PredicateExists, WithWindow(q)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Agg == nil || len(resps[0].Results) != 0 {
		t.Fatalf("batch aggregate response: %+v", resps[0])
	}
	if resps[1].Agg != nil || len(resps[1].Results) == 0 {
		t.Fatalf("batch plain response: %+v", resps[1])
	}
	single, err := e.Evaluate(ctx, NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, WithWindow(q)))
	if err != nil {
		t.Fatal(err)
	}
	for k := range single.Agg.PMF {
		if resps[0].Agg.PMF[k] != single.Agg.PMF[k] {
			t.Fatalf("batch aggregate differs from single at %d", k)
		}
	}

	ev, err := e.Evaluate(ctx, NewAggRequest(PredicateEventually, AggSpec{Kind: AggCount},
		WithWindow(NewQuery(q.States, nil))))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for r, err := range e.EvaluateSeq(ctx, NewRequest(PredicateEventually, WithWindow(NewQuery(q.States, nil)))) {
		if err != nil {
			t.Fatal(err)
		}
		sum += r.Prob
	}
	if math.Abs(ev.Agg.Mean-sum) > 1e-9 {
		t.Fatalf("eventually aggregate mean %g, stream sum %g", ev.Agg.Mean, sum)
	}
}

// TestAggRequestErrors: invalid combinations fail loudly, and the
// streaming surface refuses aggregates with the shared sentinel.
func TestAggRequestErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	e, q := randomAggInstance(rng)
	ctx := context.Background()

	for r, err := range e.EvaluateSeq(ctx, NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, WithWindow(q))) {
		if !errors.Is(err, ErrAggregateStream) {
			t.Fatalf("EvaluateSeq yielded (%+v, %v), want ErrAggregateStream", r, err)
		}
	}

	bad := []Request{
		NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, WithWindow(q), WithTopK(2)),
		NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, WithWindow(q), WithThreshold(0.5)),
		NewAggRequest(PredicateExists, AggSpec{Kind: AggCount, MinCount: -1}, WithWindow(q)),
		NewAggRequest(PredicateExists, AggSpec{Kind: AggKind(99)}, WithWindow(q)),
		NewAggRequest(PredicateKTimes, AggSpec{Kind: AggOccupancy}, WithWindow(q)),
		NewAggRequest(PredicateExists, AggSpec{Kind: AggOccupancy}, WithWindow(q), WithStrategy(StrategyMonteCarlo)),
	}
	for i, req := range bad {
		if _, err := e.Evaluate(ctx, req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}
