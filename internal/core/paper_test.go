package core

import (
	"context"
	"math"
	"testing"

	"ust/internal/markov"
)

// The tests in this file pin the exact numbers worked in the paper's
// running examples (Sections V-A, V-B, VI, VII).

// paperChain is the example chain of Section V:
//
//	      s1   s2   s3
//	s1 (   0,   0,   1 )
//	s2 ( 0.6,   0, 0.4 )
//	s3 (   0, 0.8, 0.2 )
func paperChainV(t testing.TB) *markov.Chain {
	t.Helper()
	c, err := markov.FromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatalf("paper chain invalid: %v", err)
	}
	return c
}

// paperQueryV is the window S□ = {s1, s2}, T□ = {2, 3}.
func paperQueryV() Query {
	return NewQuery([]int{0, 1}, []int{2, 3})
}

// paperDB builds a database holding the single object observed at s2 at
// time 0.
func paperDB(t testing.TB) (*Database, *Object) {
	t.Helper()
	db := NewDatabase(paperChainV(t))
	o := MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)})
	db.MustAdd(o)
	return db, o
}

const tol = 1e-12

func TestPaperRunningExampleOB(t *testing.T) {
	db, o := paperDB(t)
	e := NewEngine(db, Options{})
	got, err := obProb(e, o, PredicateExists, paperQueryV())
	if err != nil {
		t.Fatalf("exists OB: %v", err)
	}
	if math.Abs(got-0.864) > tol {
		t.Errorf("P∃ via OB = %.12f, want 0.864", got)
	}
}

func TestPaperRunningExampleQB(t *testing.T) {
	db, _ := paperDB(t)
	e := NewEngine(db, Options{})
	res := mustAsk(t, e, PredicateExists, paperQueryV(), qb)
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if math.Abs(res[0].Prob-0.864) > tol {
		t.Errorf("P∃ via QB = %.12f, want 0.864", res[0].Prob)
	}
}

func TestPaperBackwardScoresExample2(t *testing.T) {
	// Section V-B works the backward vectors explicitly:
	// P(t=0) = (0.96, 0.864, 0.928, 1).
	chain := paperChainV(t)
	w, err := compile(paperQueryV(), chain.NumStates())
	if err != nil {
		t.Fatal(err)
	}
	scores, err := hitScores(context.Background(), chain, w, 0, nil)
	if err != nil {
		t.Fatalf("hitScores: %v", err)
	}
	want := []float64{0.96, 0.864, 0.928}
	for s, w := range want {
		if math.Abs(scores[s]-w) > tol {
			t.Errorf("score[s%d] = %.12f, want %g", s+1, scores[s], w)
		}
	}
}

func TestPaperAugmentedMatricesExample1(t *testing.T) {
	// Example 1 materializes M− and M+ for S□ = {s1, s2}:
	//
	//	M− = | 0   0   1   0 |    M+ = | 0  0  1   0  |
	//	     | 0.6 0   0.4 0 |         | 0  0  0.4 0.6|
	//	     | 0   0.8 0.2 0 |         | 0  0  0.2 0.8|
	//	     | 0   0   0   1 |         | 0  0  0   1  |
	aug := NewAugmentedChain(paperChainV(t), []int{0, 1})
	wantMinus := [][]float64{
		{0, 0, 1, 0},
		{0.6, 0, 0.4, 0},
		{0, 0.8, 0.2, 0},
		{0, 0, 0, 1},
	}
	wantPlus := [][]float64{
		{0, 0, 1, 0},
		{0, 0, 0.4, 0.6},
		{0, 0, 0.2, 0.8},
		{0, 0, 0, 1},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got := aug.Minus().At(i, j); math.Abs(got-wantMinus[i][j]) > tol {
				t.Errorf("M−[%d][%d] = %g, want %g", i, j, got, wantMinus[i][j])
			}
			if got := aug.Plus().At(i, j); math.Abs(got-wantPlus[i][j]) > tol {
				t.Errorf("M+[%d][%d] = %g, want %g", i, j, got, wantPlus[i][j])
			}
		}
	}
}

func TestPaperAugmentedEvaluationMatchesImplicit(t *testing.T) {
	chain := paperChainV(t)
	init := markov.PointDistribution(3, 1)
	got, err := ExistsOBAugmented(chain, []int{0, 1}, []int{2, 3}, init.Vec(), 0)
	if err != nil {
		t.Fatalf("ExistsOBAugmented: %v", err)
	}
	if math.Abs(got-0.864) > tol {
		t.Errorf("augmented OB = %.12f, want 0.864", got)
	}
	gotQB, err := ExistsQBAugmented(chain, []int{0, 1}, []int{2, 3}, init.Vec(), 0)
	if err != nil {
		t.Fatalf("ExistsQBAugmented: %v", err)
	}
	if math.Abs(gotQB-0.864) > tol {
		t.Errorf("augmented QB = %.12f, want 0.864", gotQB)
	}
}

func TestPaperKTimesExample(t *testing.T) {
	// Section VII works the k-times distribution for the same window:
	// P(0 visits) = 0.136, P(1) = 0.672, P(2) = 0.192.
	db, o := paperDB(t)
	e := NewEngine(db, Options{})
	dist, err := obDist(e, o, paperQueryV())
	if err != nil {
		t.Fatalf("ktimes OB: %v", err)
	}
	want := []float64{0.136, 0.672, 0.192}
	if len(dist) != len(want) {
		t.Fatalf("k-distribution has %d entries, want %d", len(dist), len(want))
	}
	for k, w := range want {
		if math.Abs(dist[k]-w) > tol {
			t.Errorf("P(%d visits) = %.12f, want %g", k, dist[k], w)
		}
	}
	// The QB variant must agree.
	kres := mustAsk(t, e, PredicateKTimes, paperQueryV(), qb)
	for k, w := range want {
		if math.Abs(kres[0].Dist[k]-w) > tol {
			t.Errorf("QB P(%d visits) = %.12f, want %g", k, kres[0].Dist[k], w)
		}
	}
}

// paperChainVI is the chain of the multi-observation example
// (Section VI): s2's row changes to (0.5, 0, 0.5).
func paperChainVI(t testing.TB) *markov.Chain {
	t.Helper()
	c, err := markov.FromDense([][]float64{
		{0, 0, 1},
		{0.5, 0, 0.5},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	return c
}

func TestPaperMultiObsExample(t *testing.T) {
	// Figure 7 / Section VI: object observed at s1 at t=0 and at s2 at
	// t=3; window S□ = {s1, s2}, T□ = {1, 2}. The only possible path
	// s1→s3→s3→s2 misses the window, so P∃ = 0.
	chain := paperChainVI(t)
	db := NewDatabase(chain)
	o := MustObject(1, nil,
		Observation{Time: 0, PDF: markov.PointDistribution(3, 0)},
		Observation{Time: 3, PDF: markov.PointDistribution(3, 1)},
	)
	db.MustAdd(o)
	e := NewEngine(db, Options{})
	q := NewQuery([]int{0, 1}, []int{1, 2})
	got, err := obProb(e, o, PredicateExists, q)
	if err != nil {
		t.Fatalf("exists OB: %v", err)
	}
	if got != 0 {
		t.Errorf("P∃ = %g, want exactly 0", got)
	}
	// The posterior at t=3 must collapse to s2, not-hit — i.e. the
	// normalized distribution the paper derives: (0, 1, 0, 0, 0, 0).
	post, err := PosteriorAt(chain, o.Observations, 3)
	if err != nil {
		t.Fatalf("PosteriorAt: %v", err)
	}
	if math.Abs(post.P(1)-1) > tol {
		t.Errorf("posterior at t=3 = %v, want point mass on s2", post)
	}
}

func TestPaperMultiObsIntermediateVectors(t *testing.T) {
	// The paper's trace before the second observation:
	// P(o,2) = (0, 0, 0.2 | 0, 0.8, 0) and
	// P(o,3) = (0, 0.16, 0.04 | 0.4, 0, 0.4).
	// With the two-vector representation this means at t=3:
	// pNot = (0, 0.16, 0.04), pHit = (0.4, 0, 0.4), total exists
	// probability before fusing obs2 would be 0.8.
	chain := paperChainVI(t)
	db := NewDatabase(chain)
	// Without the second observation the same pass gives P(B) directly.
	oSingle := MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 0)})
	db.MustAdd(oSingle)
	e := NewEngine(db, Options{})
	q := NewQuery([]int{0, 1}, []int{1, 2})
	got, err := obProb(e, oSingle, PredicateExists, q)
	if err != nil {
		t.Fatalf("exists OB: %v", err)
	}
	if math.Abs(got-0.8) > tol {
		t.Errorf("P∃ without obs2 = %.12f, want 0.8 (= 0.4 + 0.4)", got)
	}
}

func TestPaperFootnote2StartInsideWindow(t *testing.T) {
	// Footnote 2: when t=0 ∈ T□, initial mass inside S□ is an immediate
	// hit. Object starts at s2 ∈ S□.
	db, o := paperDB(t)
	e := NewEngine(db, Options{})
	q := NewQuery([]int{0, 1}, []int{0})
	got, err := obProb(e, o, PredicateExists, q)
	if err != nil {
		t.Fatalf("exists OB: %v", err)
	}
	if got != 1 {
		t.Errorf("P∃ with t0 in window = %g, want 1", got)
	}
	// QB path must agree (score pinning at t0).
	res := mustAsk(t, e, PredicateExists, q, qb)
	if res[0].Prob != 1 {
		t.Errorf("QB P∃ with t0 in window = %g, want 1", res[0].Prob)
	}
	// And the k-times footnote 3: the distribution starts at k=1.
	dist, err := obDist(e, o, q)
	if err != nil {
		t.Fatalf("ktimes OB: %v", err)
	}
	if math.Abs(dist[1]-1) > tol || dist[0] != 0 {
		t.Errorf("k-dist with t0 in window = %v, want [0 1]", dist)
	}
}
