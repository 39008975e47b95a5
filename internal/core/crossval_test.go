package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ust/internal/gen"
	"ust/internal/markov"
	"ust/internal/sparse"
)

// Cross-validation: the independent implementations (object-based,
// query-based, materialized-augmented, brute-force possible worlds,
// Monte-Carlo) must agree on randomized instances.

// randomChainN builds a random chain over n states with ≤ maxOut
// successors per state.
func randomChainN(rng *rand.Rand, n, maxOut int) *markov.Chain {
	m := sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		k := 1 + rng.Intn(maxOut)
		seen := map[int]bool{}
		var idx []int
		for len(idx) < k {
			j := rng.Intn(n)
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		vals := make([]float64, len(idx))
		s := 0.0
		for p := range vals {
			vals[p] = rng.Float64() + 1e-3
			s += vals[p]
		}
		for p := range vals {
			vals[p] /= s
		}
		return idx, vals
	})
	return markov.MustChain(m)
}

// randomInstance builds a tiny random database with one object plus a
// random query, sized for brute-force enumeration.
func randomInstance(rng *rand.Rand) (*Engine, *Object, Query) {
	n := 3 + rng.Intn(4)       // 3-6 states
	maxOut := 2 + rng.Intn(2)  // 2-3 successors
	horizon := 2 + rng.Intn(5) // query horizon 2-6
	chain := randomChainN(rng, n, maxOut)
	db := NewDatabase(chain)

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
	o := MustObject(1, nil, Observation{Time: 0, PDF: pdf})
	db.MustAdd(o)

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
	for t := 0; t <= horizon; t++ {
		if rng.Float64() < 0.5 {
			qTimes = append(qTimes, t)
		}
	}
	if len(qTimes) == 0 {
		qTimes = []int{horizon}
	}
	return NewEngine(db, Options{}), o, NewQuery(qStates, qTimes)
}

func TestExistsOBMatchesBruteForceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		exact, err := obProb(e, o, PredicateExists, q)
		if err != nil {
			return false
		}
		bf, err := BruteForce(e.db.ChainOf(o), o, q)
		if err != nil {
			return false
		}
		return math.Abs(exact-bf.PExists) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestExistsQBMatchesOBQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		viaOB, err := obProb(e, o, PredicateExists, q)
		if err != nil {
			return false
		}
		res, err := ask(e, PredicateExists, q, qb)
		if err != nil {
			return false
		}
		return math.Abs(viaOB-res[0].Prob) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestAugmentedMatchesImplicitQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		implicit, err := obProb(e, o, PredicateExists, q)
		if err != nil {
			return false
		}
		init := o.First().PDF.Vec().Clone()
		init.Normalize()
		aug, err := ExistsOBAugmented(e.db.ChainOf(o), q.States, q.Times, init, 0)
		if err != nil {
			return false
		}
		augQB, err := ExistsQBAugmented(e.db.ChainOf(o), q.States, q.Times, init, 0)
		if err != nil {
			return false
		}
		return math.Abs(implicit-aug) < 1e-9 && math.Abs(implicit-augQB) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestForAllComplementIdentityQuick(t *testing.T) {
	// P∀(S□) must equal brute force's for-all mass, and the complement
	// identity must hold: P∀(S□) = 1 − P∃(S \ S□).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		fa, err := obProb(e, o, PredicateForAll, q)
		if err != nil {
			return false
		}
		bf, err := BruteForce(e.db.ChainOf(o), o, q)
		if err != nil {
			return false
		}
		if math.Abs(fa-bf.PForAll) > 1e-9 {
			return false
		}
		// Explicit complement query.
		n := e.db.ChainOf(o).NumStates()
		inQ := map[int]bool{}
		for _, s := range q.States {
			inQ[s] = true
		}
		var comp []int
		for s := 0; s < n; s++ {
			if !inQ[s] {
				comp = append(comp, s)
			}
		}
		escape, err := obProb(e, o, PredicateExists, NewQuery(comp, q.Times))
		if err != nil {
			return false
		}
		return math.Abs(fa-(1-escape)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKTimesInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		dist, err := obDist(e, o, q)
		if err != nil {
			return false
		}
		// Σ_k P(k) = 1.
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// P∃ = Σ_{k≥1} P(k).
		exists, err := obProb(e, o, PredicateExists, q)
		if err != nil {
			return false
		}
		atLeastOnce := 0.0
		for _, p := range dist[1:] {
			atLeastOnce += p
		}
		if math.Abs(exists-atLeastOnce) > 1e-9 {
			return false
		}
		// P∀ = P(k = |T□|).
		fa, err := obProb(e, o, PredicateForAll, q)
		if err != nil {
			return false
		}
		if math.Abs(fa-dist[len(dist)-1]) > 1e-9 {
			return false
		}
		// Exact match with brute force.
		bf, err := BruteForce(e.db.ChainOf(o), o, q)
		if err != nil {
			return false
		}
		for k := range dist {
			if math.Abs(dist[k]-bf.KDist[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKTimesQBMatchesOBQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		viaOB, err := obDist(e, o, q)
		if err != nil {
			return false
		}
		viaQB, err := ask(e, PredicateKTimes, q, qb)
		if err != nil {
			return false
		}
		for k := range viaOB {
			if math.Abs(viaOB[k]-viaQB[0].Dist[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMultiObsMatchesBruteForceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		chain := randomChainN(rng, n, 2+rng.Intn(2))
		db := NewDatabase(chain)

		horizon := 3 + rng.Intn(3)
		// First observation at t=0; second somewhere in (0, horizon+1].
		obs2Time := 1 + rng.Intn(horizon+1)
		obs := []Observation{
			{Time: 0, PDF: markov.PointDistribution(n, rng.Intn(n))},
			{Time: obs2Time, PDF: markov.UniformOver(n, rng.Perm(n)[:1+rng.Intn(n-1)])},
		}
		o, err := NewObject(1, nil, obs...)
		if err != nil {
			return false
		}
		db.MustAdd(o)
		e := NewEngine(db, Options{})

		q := NewQuery([]int{rng.Intn(n)}, []int{1 + rng.Intn(horizon)})
		got, err := obProb(e, o, PredicateExists, q)
		if err != nil {
			// Inconsistent observations are possible in random setups;
			// brute force must then fail too.
			_, bfErr := BruteForce(chain, o, q)
			return bfErr != nil
		}
		bf, err := BruteForce(chain, o, q)
		if err != nil {
			return false
		}
		return math.Abs(got-bf.PExists) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestThreeObservationsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 4
		chain := randomChainN(rng, n, 3)
		db := NewDatabase(chain)
		obs := []Observation{
			{Time: 0, PDF: markov.UniformOver(n, []int{0, 1})},
			{Time: 2, PDF: markov.UniformOver(n, []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)})},
			{Time: 4, PDF: markov.UniformOver(n, []int{rng.Intn(n), rng.Intn(n)})},
		}
		o, err := NewObject(1, nil, obs...)
		if err != nil {
			t.Fatalf("NewObject: %v", err)
		}
		db.MustAdd(o)
		e := NewEngine(db, Options{})
		q := NewQuery([]int{1, 2}, []int{1, 3})
		got, gotErr := obProb(e, o, PredicateExists, q)
		bf, bfErr := BruteForce(chain, o, q)
		if (gotErr == nil) != (bfErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, gotErr, bfErr)
		}
		if gotErr != nil {
			continue
		}
		if math.Abs(got-bf.PExists) > 1e-9 {
			t.Fatalf("trial %d: multi-obs P∃ = %g, brute force %g", trial, got, bf.PExists)
		}
	}
}

func TestObservationAfterWindowStillReweights(t *testing.T) {
	// An observation *after* the query window changes the answer: the
	// paper's Section VI argues later observations exclude worlds.
	chain := paperChainVI(t)
	db := NewDatabase(chain)
	single := MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 0)})
	db.MustAdd(single)
	e := NewEngine(db, Options{})
	q := NewQuery([]int{0, 1}, []int{1, 2})
	pSingle, err := obProb(e, single, PredicateExists, q)
	if err != nil {
		t.Fatalf("single obs: %v", err)
	}
	multi := MustObject(2, nil,
		Observation{Time: 0, PDF: markov.PointDistribution(3, 0)},
		Observation{Time: 3, PDF: markov.PointDistribution(3, 1)},
	)
	pMulti, err := existsMultiObsForTest(e, multi, q)
	if err != nil {
		t.Fatalf("multi obs: %v", err)
	}
	if math.Abs(pSingle-pMulti) < 1e-12 {
		t.Error("posterior observation did not change the query probability")
	}
}

func existsMultiObsForTest(e *Engine, o *Object, q Query) (float64, error) {
	ch := e.db.DefaultChain()
	w, err := compile(q, ch.NumStates())
	if err != nil {
		return 0, err
	}
	return existsMultiObs(context.Background(), ch, o.Observations, w)
}

func TestMonteCarloConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	chain := randomChainN(rng, 6, 3)
	db := NewDatabase(chain)
	o := MustObject(1, nil, Observation{Time: 0, PDF: markov.UniformOver(6, []int{0, 1})})
	db.MustAdd(o)
	e := NewEngine(db, Options{})
	q := NewQuery([]int{2, 3}, []int{2, 3, 4})

	exact, err := obProb(e, o, PredicateExists, q)
	if err != nil {
		t.Fatalf("exists OB: %v", err)
	}
	est, err := MonteCarloExists(chain, o, q, 200000, rng)
	if err != nil {
		t.Fatalf("MonteCarloExists: %v", err)
	}
	// 200k samples: σ ≤ 0.5/sqrt(200000) ≈ 0.0011; allow 5σ.
	if math.Abs(est-exact) > 0.006 {
		t.Errorf("MC estimate %g vs exact %g", est, exact)
	}

	exactFA, err := obProb(e, o, PredicateForAll, q)
	if err != nil {
		t.Fatalf("forall OB: %v", err)
	}
	estFA, err := MonteCarloForAll(chain, o, q, 200000, rng)
	if err != nil {
		t.Fatalf("MonteCarloForAll: %v", err)
	}
	if math.Abs(estFA-exactFA) > 0.006 {
		t.Errorf("MC for-all estimate %g vs exact %g", estFA, exactFA)
	}

	exactK, err := obDist(e, o, q)
	if err != nil {
		t.Fatalf("ktimes OB: %v", err)
	}
	estK, err := MonteCarloKTimes(chain, o, q, 200000, rng)
	if err != nil {
		t.Fatalf("MonteCarloKTimes: %v", err)
	}
	for k := range exactK {
		if math.Abs(estK[k]-exactK[k]) > 0.006 {
			t.Errorf("MC k=%d estimate %g vs exact %g", k, estK[k], exactK[k])
		}
	}
}

func TestMonteCarloMultiObsWeighting(t *testing.T) {
	// The weighted MC estimator must agree with the exact multi-obs
	// result within sampling error.
	chain := paperChainVI(t)
	db := NewDatabase(chain)
	o := MustObject(1, nil,
		Observation{Time: 0, PDF: markov.UniformOver(3, []int{0, 1})},
		Observation{Time: 3, PDF: markov.UniformOver(3, []int{1, 2})},
	)
	db.MustAdd(o)
	e := NewEngine(db, Options{})
	q := NewQuery([]int{0, 1}, []int{1, 2})
	exact, err := obProb(e, o, PredicateExists, q)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	est, err := MonteCarloExists(chain, o, q, 300000, rng)
	if err != nil {
		t.Fatalf("MC: %v", err)
	}
	if math.Abs(est-exact) > 0.01 {
		t.Errorf("weighted MC %g vs exact %g", est, exact)
	}
}

func TestMarginalMassPreservedQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, _ := randomInstance(rng)
		for _, tt := range []int{0, 1, 3} {
			m, err := e.Marginal(o, tt)
			if err != nil {
				return false
			}
			if err := m.Validate(1e-9); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTrajectoryObservationsConsistent bridges the gen trajectory
// workload with the query engine: observation sequences emitted from a
// hidden true path are always satisfiable (Equation 1's denominator is
// positive), and the smoothed posterior keeps mass on the truth.
func TestTrajectoryObservationsConsistent(t *testing.T) {
	p := gen.Params{NumObjects: 1, NumStates: 120, ObjectSpread: 1, StateSpread: 4, MaxStep: 12, Seed: 2}
	rng := rand.New(rand.NewSource(2))
	chain, err := gen.GenerateChain(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := gen.GenerateTrajectories(chain, 20, gen.TrajectoryParams{
		Horizon:          10,
		ObservationTimes: []int{0, 5, 10},
		Noise:            1,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(chain)
	for id, tr := range trs {
		obs := make([]Observation, len(tr.Sightings))
		for k, s := range tr.Sightings {
			obs[k] = Observation{Time: s.Time, PDF: s.PDF}
		}
		o, err := NewObject(id, nil, obs...)
		if err != nil {
			t.Fatal(err)
		}
		db.MustAdd(o)
	}
	e := NewEngine(db, Options{})
	q := NewQuery(Interval(40, 80), Interval(3, 7))
	if _, err := ask(e, PredicateExists, q, ob); err != nil {
		t.Fatalf("observations reported inconsistent: %v", err)
	}
	for id, tr := range trs {
		o := db.Get(id)
		for _, tt := range []int{2, 7} {
			post, err := PosteriorAt(chain, o.Observations, tt)
			if err != nil {
				t.Fatalf("object %d posterior at %d: %v", id, tt, err)
			}
			if post.P(tr.Path[tt]) <= 0 {
				t.Fatalf("object %d: posterior at t=%d excludes the true state", id, tt)
			}
		}
	}
}
