package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ust/internal/markov"
)

// FuzzOBPasses holds every object-based forward pass to the possible
// worlds on random island chains (newClipCase): exists, forall and ktimes
// against the materialized augmented chains (ExistsOBAugmented,
// KTimesOBAugmented) and, where an object has few enough worlds to
// enumerate, BruteForce; the forall survival pass also against the
// complement pass it replaced (forallComplementRef); an expression
// against BruteForceExpr; a multi-observation exists against the row pass
// existsMultiObsRow and its posterior against posteriorAtRow — all within
// 1e-12. Every exists/forall scan clipped to the reach cone must equal
// the unclipped scan bit for bit, an object out of reach of S□'s cone
// must answer exists and forall exactly 0, and one with no mass on the
// complement's possible-envelope forall exactly 1; and the
// multi-observation passes over a pdf whose index column is descending
// must equal those over the same pdf ascending, bit for bit.
func FuzzOBPasses(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkOBPasses(t, rand.New(rand.NewSource(seed)))
	})
}

func checkOBPasses(t *testing.T, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	c := newClipCase(rng)
	chain := c.db.DefaultChain()
	n := chain.NumStates()
	e := NewEngine(c.db, Options{})
	q := NewQuery(c.states, c.times)
	w, err := compile(q, n)
	if err != nil {
		t.Fatal(err)
	}
	near := func(tag string, id int, got, want float64) {
		t.Helper()
		if d := math.Abs(got - want); d > 1e-12 || math.IsNaN(d) {
			t.Fatalf("%s object %d: %v, reference %v", tag, id, got, want)
		}
	}

	answers := map[Predicate]map[int]Result{}
	for _, pred := range []Predicate{PredicateExists, PredicateForAll, PredicateKTimes} {
		req := NewRequest(pred, WithStates(c.states), WithTimes(c.times), WithStrategy(StrategyObjectBased))
		clipped, err := e.Evaluate(ctx, req)
		if err != nil {
			t.Fatalf("%v clipped: %v", pred, err)
		}
		literal, err := e.Evaluate(ctx, req.With(WithFilterRefine(false)))
		if err != nil {
			t.Fatalf("%v unclipped: %v", pred, err)
		}
		if pred != PredicateKTimes && !reflect.DeepEqual(clipped.Results, literal.Results) {
			t.Fatalf("%v: clipped %+v, unclipped %+v", pred, clipped.Results, literal.Results)
		}
		answers[pred] = map[int]Result{}
		for _, r := range clipped.Results {
			answers[pred][r.ObjectID] = r
		}
	}
	inside := map[int]bool{}
	for _, s := range c.states {
		inside[s] = true
	}
	var outside []int
	for s := range n {
		if !inside[s] {
			outside = append(outside, s)
		}
	}
	for _, o := range c.db.Objects() {
		first := o.First()
		init := first.PDF.Vec().Clone()
		init.Normalize()
		pe, err := ExistsOBAugmented(chain, c.states, c.times, init, first.Time)
		if err != nil {
			t.Fatal(err)
		}
		pOut, err := ExistsOBAugmented(chain, outside, c.times, init, first.Time)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := KTimesOBAugmented(chain, c.states, c.times, init, first.Time)
		if err != nil {
			t.Fatal(err)
		}
		got := answers[PredicateKTimes][o.ID].Dist
		if len(got) != len(dist) {
			t.Fatalf("ktimes object %d: %d counts, reference %d", o.ID, len(got), len(dist))
		}
		pAll := answers[PredicateForAll][o.ID].Prob
		near("exists", o.ID, answers[PredicateExists][o.ID].Prob, pe)
		near("forall", o.ID, pAll, 1-pOut)
		ref, err := forallComplementRef(ctx, chain, forwardSeed{pdf: first.PDF, mass: first.PDF.Mass(), t0: first.Time}, w)
		if err != nil {
			t.Fatal(err)
		}
		near("forall vs complement pass", o.ID, pAll, ref)
		for _, tc := range []struct {
			w    *window
			want float64
		}{{w, 0}, {w.complemented(), 1}} {
			env, err := supportEnvelope(ctx, chain, tc.w, first.Time, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if first.PDF.MassOn(env) != 0 {
				continue
			}
			if pAll != tc.want || tc.want == 0 && answers[PredicateExists][o.ID].Prob != 0 {
				t.Fatalf("object %d: exists %v, forall %v, want forall exactly %v", o.ID, answers[PredicateExists][o.ID].Prob, pAll, tc.want)
			}
		}
		for k, p := range dist {
			near("ktimes", o.ID, got[k], p)
		}
		if fewWorlds(chain, o, q.Horizon()) {
			bf, err := BruteForce(chain, o, q)
			if err != nil {
				t.Fatal(err)
			}
			near("exists vs worlds", o.ID, pe, bf.PExists)
			for k, p := range bf.KDist {
				near("ktimes vs worlds", o.ID, dist[k], p)
			}
			// A world's forall counts visits against |T□|, so it asks
			// for the query times the pass processes: distinct, from the
			// observation on.
			var later []int
			for tq := first.Time; tq <= q.Horizon(); tq++ {
				if slices.Contains(c.times, tq) {
					later = append(later, tq)
				}
			}
			bf, err = BruteForce(chain, o, NewQuery(c.states, later))
			if err != nil {
				t.Fatal(err)
			}
			near("forall vs worlds", o.ID, pAll, bf.PForAll)
		}
	}

	x := randomFilterExpr(rng, n)
	resp, err := e.Evaluate(ctx, NewExprRequest(x, WithStrategy(StrategyObjectBased)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		o := c.db.Get(r.ObjectID)
		if !fewWorlds(chain, o, 10) { // randomFilterExpr's horizon is at most 10
			continue
		}
		want, err := BruteForceExpr(chain, o, x)
		if err != nil {
			t.Fatal(err)
		}
		near("expr", o.ID, r.Prob, want)
	}

	// A second fix on states the first can reach, so the observations
	// are possible together.
	for _, o := range c.db.Objects() {
		first := o.First()
		steps := 1 + rng.Intn(4)
		reach := chain.Advance(first.PDF.Vec().Clone(), steps).Support()
		states := reach[:1+rng.Intn(len(reach))]
		// Integer weights sum exactly in any order, so a pdf built over
		// the states in reverse holds the same values.
		weights := make([]float64, len(states))
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(4))
		}
		pdf, err := markov.WeightedOver(n, states, weights)
		if err != nil {
			t.Fatal(err)
		}
		obs := []Observation{first, {Time: first.Time + steps, PDF: pdf}}
		got, err := existsMultiObsBlock(ctx, chain, obs, w, nil, &lanes)
		if err != nil {
			t.Fatal(err)
		}
		want, err := existsMultiObsRow(ctx, chain, obs, w)
		if err != nil {
			t.Fatal(err)
		}
		near("multi-observation exists", o.ID, got, want)
		at := first.Time + rng.Intn(steps+2)
		post, err := posteriorAtBlock(chain, obs, at, &lanes)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := posteriorAtRow(chain, obs, at)
		if err != nil {
			t.Fatal(err)
		}
		for s := range n {
			near("posterior", o.ID, post.P(s), ref.Vec().At(s))
		}

		// The later pdf rebuilt from its states listed descending: it is
		// built ascending all the same, so not a bit may move.
		desc, err := markov.WeightedOver(n, reversed(states), reversed(weights))
		if err != nil {
			t.Fatal(err)
		}
		rev := []Observation{first, {Time: obs[1].Time, PDF: desc}}
		gotDesc, err := existsMultiObsBlock(ctx, chain, rev, w, nil, &lanes)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotDesc) != math.Float64bits(got) {
			t.Fatalf("object %d: exists %v over a descending pdf, %v over the ascending one", o.ID, gotDesc, got)
		}
		postDesc, err := posteriorAtBlock(chain, rev, at, &lanes)
		if err != nil {
			t.Fatal(err)
		}
		for s := range n {
			if math.Float64bits(postDesc.P(s)) != math.Float64bits(post.P(s)) {
				t.Fatalf("object %d: posterior state %d %v over a descending pdf, %v over the ascending one",
					o.ID, s, postDesc.P(s), post.P(s))
			}
		}
	}
}

// reversed returns a reversed copy of xs.
func reversed[T any](xs []T) []T {
	out := slices.Clone(xs)
	slices.Reverse(out)
	return out
}

// fewWorlds reports whether enumerating o's worlds up to horizon stays
// small: the pdf's support times the widest row to the power of the
// steps bounds the trajectories BruteForce walks.
func fewWorlds(chain *markov.Chain, o *Object, horizon int) bool {
	deg := 0
	for i := range chain.NumStates() {
		cols, _ := chain.Matrix().RowSlices(i)
		deg = max(deg, len(cols))
	}
	worlds := float64(len(o.First().PDF.Support()))
	for t := o.First().Time; t < horizon; t++ {
		worlds *= float64(deg)
	}
	return worlds <= 20000
}
