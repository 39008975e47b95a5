package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ust/internal/markov"
)

// gamblersRuin builds the random walk on {0..n} with absorbing
// boundaries and P(right) = p.
func gamblersRuin(t testing.TB, n int, p float64) *markov.Chain {
	t.Helper()
	rows := make([][]float64, n+1)
	for i := range rows {
		rows[i] = make([]float64, n+1)
		switch {
		case i == 0 || i == n:
			rows[i][i] = 1
		default:
			rows[i][i+1] = p
			rows[i][i-1] = 1 - p
		}
	}
	c, err := markov.FromDense(rows)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// eventuallyOne is the per-object oracle for PredicateEventually: the
// hitting fixed point dotted with the object's normalized observation.
func eventuallyOne(db *Database, o *Object, region []int, maxSteps int, tol float64) (float64, error) {
	scores, _, err := hittingScores(context.Background(), db.ChainOf(o), region, maxSteps, tol)
	if err != nil {
		return 0, err
	}
	init, _ := o.First().PDF.Normalized()
	return math.Min(init.Dot(scores.RawData()), 1), nil
}

func TestHittingScoresGamblersRuinFair(t *testing.T) {
	// Fair walk: P(hit n before 0 | start i) = i/n.
	const n = 10
	chain := gamblersRuin(t, n, 0.5)
	scores, steps, err := hittingScores(context.Background(), chain, []int{n}, 100000, 1e-12)
	if err != nil {
		t.Fatalf("hittingScores: %v", err)
	}
	if steps == 0 {
		t.Fatal("no iterations")
	}
	for i := 0; i <= n; i++ {
		want := float64(i) / n
		if math.Abs(scores.At(i)-want) > 1e-6 {
			t.Errorf("h(%d) = %g, want %g", i, scores.At(i), want)
		}
	}
}

func TestHittingScoresGamblersRuinBiased(t *testing.T) {
	// Biased walk: h(i) = (1−r^i)/(1−r^n), r = q/p.
	const n = 8
	p := 0.6
	r := (1 - p) / p
	chain := gamblersRuin(t, n, p)
	scores, _, err := hittingScores(context.Background(), chain, []int{n}, 100000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		want := (1 - math.Pow(r, float64(i))) / (1 - math.Pow(r, float64(n)))
		if math.Abs(scores.At(i)-want) > 1e-6 {
			t.Errorf("h(%d) = %g, want %g", i, scores.At(i), want)
		}
	}
}

func TestExistsEventually(t *testing.T) {
	const n = 10
	chain := gamblersRuin(t, n, 0.5)
	db := NewDatabase(chain)
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(n+1, 3)}))
	// Starting inside the region: certain.
	db.MustAdd(MustObject(2, nil, Observation{Time: 0, PDF: markov.PointDistribution(n+1, n)}))
	e := NewEngine(db, Options{})
	goal := NewQuery([]int{n}, nil)
	got := probs(t, e, PredicateEventually, goal, WithHittingLimits(100000, 1e-13))
	if math.Abs(got[1]-0.3) > 1e-6 {
		t.Errorf("P(eventually) = %g, want 0.3", got[1])
	}
	if p := probs(t, e, PredicateEventually, goal)[2]; p != 1 {
		t.Errorf("from inside region: %g, want 1", p)
	}
}

func TestExistsEventuallyDominatesFiniteWindowQuick(t *testing.T) {
	// The unbounded probability upper-bounds every finite window's P∃
	// and the finite-window values converge up to it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		if len(q.States) == 0 {
			return true
		}
		ever, err := askOne(e, o.ID, PredicateEventually, NewQuery(q.States, nil), WithHittingLimits(2000, 1e-12))
		if err != nil {
			return false
		}
		finite, err := obProb(e, o, PredicateExists, NewQuery(q.States, Interval(0, 12)))
		if err != nil {
			return false
		}
		return finite <= ever.Prob+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExistsEventuallyRejectsMultiObs(t *testing.T) {
	chain := paperChainVI(t)
	db := NewDatabase(chain)
	o := MustObject(1, nil,
		Observation{Time: 0, PDF: markov.PointDistribution(3, 0)},
		Observation{Time: 3, PDF: markov.PointDistribution(3, 1)},
	)
	db.MustAdd(o)
	e := NewEngine(db, Options{})
	if _, err := ask(e, PredicateEventually, NewQuery([]int{0}, nil)); err == nil {
		t.Error("multi-observation object accepted")
	}
}

func TestHittingScoresValidation(t *testing.T) {
	chain := paperChainV(t)
	if _, _, err := hittingScores(context.Background(), chain, []int{5}, 0, 0); err == nil {
		t.Error("out-of-range region state accepted")
	}
	// Irreducible chain: every state eventually reaches the region.
	scores, _, err := hittingScores(context.Background(), chain, []int{0}, 10000, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if math.Abs(scores.At(s)-1) > 1e-9 {
			t.Errorf("irreducible chain: h(%d) = %g, want 1", s, scores.At(s))
		}
	}
}
