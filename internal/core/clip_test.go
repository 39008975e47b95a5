package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The object-based forward passes clip their frontier against the reach
// cone of S□ — PST∀Q's survival pass included — unless the request says
// WithFilterRefine(false), which runs the unclipped pass. These tests
// hold the clipped pass to that oracle under the exactness contract
// DESIGN.md states: exists/forall bit-identical, ktimes within 1e-12 and
// summing to one, objects out of the cone's reach exactly 0 (exists and
// forall alike), and forall objects no world of which can leave S□
// exactly 1.

// islandChain builds a chain over two islands, [0, cut) and [cut, n),
// with no transition between them: a window on one island is out of
// reach for every object on the other. Moves are local (±3) so reach
// also depends on the horizon.
func islandChain(rng *rand.Rand, n, cut int) *markov.Chain {
	return markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		lo, hi := 0, cut
		if i >= cut {
			lo, hi = cut, n
		}
		seen := map[int]bool{}
		var idx []int
		var vals []float64
		for k := 1 + rng.Intn(3); len(idx) < k; {
			j := min(max(i-3+rng.Intn(7), lo), hi-1)
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
				vals = append(vals, 0.1+rng.Float64())
			}
			if len(seen) == hi-lo {
				break
			}
		}
		s := 0.0
		for _, v := range vals {
			s += v
		}
		for k := range vals {
			vals[k] /= s
		}
		return idx, vals
	}))
}

// clipCase is one random database and window.
type clipCase struct {
	db     *Database
	states []int
	times  []int
}

func newClipCase(rng *rand.Rand) clipCase {
	n := 8 + rng.Intn(53) // small enough for frontiers to flip dense
	cut := 3 + rng.Intn(n-6)
	db := NewDatabase(islandChain(rng, n, cut))
	maxT0 := 0
	for id := 0; id < 12; id++ {
		states := rng.Perm(n)[:1+rng.Intn(4)]
		weights := make([]float64, len(states))
		for i := range weights {
			weights[i] = 0.25 + 3*rng.Float64() // unnormalized: the pass scales by 1/mass
		}
		v := sparse.NewVec(n)
		for i, s := range states {
			v.Set(s, weights[i])
		}
		pdf := markov.FromArray(v.RawData())
		t0 := rng.Intn(4)
		maxT0 = max(maxT0, t0)
		db.MustAdd(MustObject(id, nil, Observation{Time: t0, PDF: pdf}))
	}
	// A window on one island, with gaps in T□, one timestamp on an
	// observation time, and a horizon no object is observed after.
	lo := rng.Intn(n - 2)
	c := clipCase{db: db, states: Interval(lo, min(lo+rng.Intn(4), n-1)), times: []int{rng.Intn(4)}}
	for t := maxT0; t < maxT0+2+rng.Intn(9); t++ {
		if t == maxT0 || rng.Intn(3) > 0 {
			c.times = append(c.times, t)
		}
	}
	return c
}

// clipDrops reports whether the clipped exists pass over w (forall:
// the survival pass) drops a live row of seed's frontier at some step:
// the case where clipped ≡ unclipped says more than that the clip did
// nothing. It replays existsOBRefine's (forallOBRefine's) loop with no
// bar.
func clipDrops(chain *markov.Chain, seed forwardSeed, w *window, forall bool) bool {
	b := seed.open(nil, 1)
	settle := func() {
		if forall {
			confine(b, w)
		} else {
			absorb(b, w)
		}
	}
	if w.atTime(seed.t0) {
		settle()
	}
	for t := seed.t0; t < w.horizon; t++ {
		keep := coneSet(seed.cone, t-seed.t0).Words64()
		for wi, word := range b.live.Words64() {
			if word&^keep[wi] != 0 {
				return true
			}
		}
		b.step(chain.Matrix(), 1)
		if w.atTime(t + 1) {
			settle()
		}
	}
	return false
}

// coneSet expands a reach cone's envelope at t0+i into a whole set.
func coneSet(c *reachCone, i int) *sparse.Bitset {
	out := sparse.NewBitset(c.first.Len())
	r := c.at(i)
	for wi := range out.Words64() {
		out.Words64()[wi] = r.word(wi)
	}
	return out
}

// forallComplementRef is the PST∀Q pass the survival pass replaced:
// 1 − P∃ over the complement S \ S□ (Section V), unclipped. The survival
// pass agrees with it within 1e-12, not to the bit.
func forallComplementRef(ctx context.Context, chain *markov.Chain, seed forwardSeed, w *window) (float64, error) {
	seed.cone = nil
	p, err := existsForward(ctx, chain, seed, w.complemented(), nil)
	return 1 - p, err
}

// forallKernel is the kern a PST∀Q scan builds (groupKernel): the
// complemented window, the query's own one as forAll.
func forallKernel(e *Engine, chain *markov.Chain, w *window, plan *evalPlan) *kern {
	k := e.kernel(chain, w.complemented(), plan)
	k.forAll = w
	return k
}

func TestClippedMatchesUnclipped(t *testing.T) {
	ctx := context.Background()
	var sawDropped, sawUnreachable, sawCertain int
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newClipCase(rng)
		chain := c.db.DefaultChain()
		e := NewEngine(c.db, Options{})
		win := []RequestOption{WithStates(c.states), WithTimes(c.times), WithStrategy(StrategyObjectBased)}
		w, err := compile(NewQuery(c.states, c.times), chain.NumStates())
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range []Predicate{PredicateExists, PredicateForAll, PredicateKTimes} {
			req := NewRequest(pred, win...)
			clipped, err := e.Evaluate(ctx, req)
			if err != nil {
				t.Fatalf("seed %d %v clipped: %v", seed, pred, err)
			}
			literal, err := e.Evaluate(ctx, req.With(WithFilterRefine(false)))
			if err != nil {
				t.Fatalf("seed %d %v unclipped: %v", seed, pred, err)
			}
			parallel, err := e.Evaluate(ctx, req.With(WithParallelism(4)))
			if err != nil || !reflect.DeepEqual(parallel.Results, clipped.Results) {
				t.Fatalf("seed %d %v: parallel clipped scan (err %v) is not bit-identical to the serial one", seed, pred, err)
			}
			// The kern the scan used, for the cone it clipped to: S□'s,
			// for forall too.
			forall := pred == PredicateForAll
			k := e.kernel(chain, w, &evalPlan{useFilter: true})
			if forall {
				k = forallKernel(e, chain, w, &evalPlan{useFilter: true})
			}
			for i, got := range clipped.Results {
				want := literal.Results[i]
				o := c.db.Get(got.ObjectID)
				if got.ObjectID != want.ObjectID || len(got.Dist) != len(want.Dist) {
					t.Fatalf("seed %d %v: result %d is %+v, unclipped %+v", seed, pred, i, got, want)
				}
				if math.Abs(got.Prob-want.Prob) > 1e-12 {
					t.Fatalf("seed %d %v object %d: clipped %v, unclipped %v", seed, pred, o.ID, got.Prob, want.Prob)
				}
				if pred == PredicateKTimes {
					sum := 0.0
					for j, p := range got.Dist {
						sum += p
						if math.Abs(p-want.Dist[j]) > 1e-12 {
							t.Fatalf("seed %d ktimes object %d: dist[%d] clipped %v, unclipped %v", seed, o.ID, j, p, want.Dist[j])
						}
					}
					if math.Abs(sum-1) > 1e-12 {
						t.Fatalf("seed %d ktimes object %d: clipped distribution sums to %v", seed, o.ID, sum)
					}
					continue
				}
				if got.Prob != want.Prob {
					t.Fatalf("seed %d %v object %d: clipped %v != unclipped %v", seed, pred, o.ID, got.Prob, want.Prob)
				}
				from, err := k.seedFor(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				if clipDrops(chain, from, w, forall) {
					sawDropped++
				}
				// Out of reach of S□'s cone: no world is ever inside S□ at
				// a query time, so exists and forall are exactly 0.
				if o.First().PDF.MassOn(from.cone.first) == 0 {
					sawUnreachable++
					if got.Prob != 0 {
						t.Fatalf("seed %d %v object %d: out of reach, answered %v", seed, pred, o.ID, got.Prob)
					}
				}
				if !forall {
					continue
				}
				// No mass on the complement's possible envelope: no world
				// can leave S□ at a query time, so forall is exactly 1.
				out, err := supportEnvelope(ctx, chain, w.complemented(), o.First().Time, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				if o.First().PDF.MassOn(out) == 0 {
					sawCertain++
					if got.Prob != 1 {
						t.Fatalf("seed %d forall object %d: no world can leave S□, answered %v", seed, o.ID, got.Prob)
					}
				}
			}
		}
	}
	t.Logf("%d clipped passes dropped live rows, %d unreachable objects, %d certain forall objects", sawDropped, sawUnreachable, sawCertain)
	if sawDropped == 0 || sawUnreachable == 0 || sawCertain == 0 {
		t.Fatalf("cases do not cover the contract: %d clipped passes dropped live rows, %d unreachable objects, %d certain forall objects",
			sawDropped, sawUnreachable, sawCertain)
	}
}

// TestReachConeMarkedSteps runs the cone and the clipped passes on a
// chain without id locality: a banded chain whose states are shuffled,
// so a cone's later envelopes are a few states in each of many words and
// are kept as their marked non-zero words. Each expands to
// supportEnvelope's set, and the clipped exists and forall scans are the
// unclipped ones bit for bit.
func TestReachConeMarkedSteps(t *testing.T) {
	const n = 16384
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(n) // perm[p]: the state at band position p
	pos := make([]int, n)
	for p, s := range perm {
		pos[s] = p
	}
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		var idx []int
		var vals []float64
		for p := max(pos[i]-2, 0); p <= min(pos[i]+2, n-1); p++ {
			idx = append(idx, perm[p])
			vals = append(vals, 1)
		}
		for k := range vals {
			vals[k] /= float64(len(vals))
		}
		return idx, vals
	}))
	db := NewDatabase(chain)
	for id := 0; id < 40; id++ {
		p := 1960 + rng.Intn(100)
		db.MustAdd(MustObject(id, nil, Observation{Time: 0, PDF: markov.UniformOver(n, perm[p:p+3])}))
	}
	region := slices.Sorted(slices.Values(perm[2000:2040]))
	times := Interval(6, 9)
	w, err := compile(NewQuery(region, times), n)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e := NewEngine(db, Options{})
	cone, err := e.kernel(chain, w, &evalPlan{useFilter: true}).coneFrom(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for i := 0; i <= w.horizon; i++ {
		want, err := supportEnvelope(ctx, chain, w, i, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !coneSet(cone, i).Equal(want) {
			t.Fatalf("cone at t=%d differs from supportEnvelope", i)
		}
		if i > 0 && cone.at(i).mark != nil {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no step of the cone is kept as marked words")
	}
	for _, pred := range []Predicate{PredicateExists, PredicateForAll} {
		req := NewRequest(pred, WithStates(region), WithTimes(times), WithStrategy(StrategyObjectBased))
		clipped, err := e.Evaluate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		literal, err := e.Evaluate(ctx, req.With(WithFilterRefine(false)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clipped.Results, literal.Results) {
			t.Fatalf("%v: clipped %+v, unclipped %+v", pred, clipped.Results, literal.Results)
		}
		if !slices.ContainsFunc(clipped.Results, func(r Result) bool { return r.Prob > 0 && r.Prob < 1 }) {
			t.Fatalf("%v: no answer strictly between 0 and 1", pred)
		}
	}
}

// TestReachConeIsTheEnvelopeFamily pins the cone to the possible-
// envelope family: its set at t, expanded from its step, is
// supportEnvelope's possible-envelope at t, bit for bit, at every t up to
// the horizon, for plain and complemented windows; past the horizon, and
// for an empty window (an expression atom's fire window can be either),
// coneFor is the one set supportEnvelope answers.
func TestReachConeIsTheEnvelopeFamily(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newClipCase(rng)
		chain := c.db.DefaultChain()
		e := NewEngine(c.db, Options{})
		w, err := compile(NewQuery(c.states, c.times), chain.NumStates())
		if err != nil {
			t.Fatal(err)
		}
		for _, kw := range []*window{w, w.complemented()} {
			k := e.kernel(chain, kw, &evalPlan{useFilter: true})
			for t0 := 0; t0 <= kw.horizon; t0++ {
				cone, err := k.coneFrom(ctx, t0)
				if err != nil {
					t.Fatal(err)
				}
				if len(cone.steps)+1 != kw.horizon-t0+1 {
					t.Fatalf("seed %d: cone from %d has %d envelopes, want %d", seed, t0, len(cone.steps)+1, kw.horizon-t0+1)
				}
				for tt := t0; tt <= kw.horizon; tt++ {
					pm, err := supportEnvelope(ctx, chain, kw, tt, false, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !coneSet(cone, tt-t0).Equal(pm) || tt == t0 && !cone.first.Equal(pm) {
						t.Fatalf("seed %d invert=%v: cone from %d at t=%d differs from supportEnvelope", seed, kw.invert, t0, tt)
					}
				}
			}
			if cone, err := e.kernel(chain, kw, &evalPlan{}).coneFrom(ctx, 0); cone != nil || err != nil {
				t.Fatalf("a kern without the filter toggle clips: cone %v, err %v", cone, err)
			}
		}
		empty, err := compile(NewQuery(c.states, nil), chain.NumStates())
		if err != nil {
			t.Fatal(err)
		}
		k := e.kernel(chain, w, nil)
		for _, tc := range []struct {
			w  *window
			t0 int
		}{{w, w.horizon + 1}, {empty, 0}, {empty.complemented(), 2}} {
			cone, err := k.coneFor(ctx, tc.w, tc.t0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := supportEnvelope(ctx, chain, tc.w, tc.t0, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(cone.steps) != 0 || !cone.first.Equal(want) {
				t.Fatalf("seed %d: cone of k=%d window from %d has %d steps and first set %v, want none and %v", seed, tc.w.k, tc.t0, len(cone.steps), cone.first, want)
			}
		}
	}
}

// TestRefineQualifiedIsForward: when a bracketed pass runs to
// completion its answer is the plain pass's, to the bit, with and
// without a cone, and a pass it rejects has an exact value below the
// bar — for exists (existsOBRefine) and for the forall survival pass
// (forallOBRefine), called directly and through the kern's refine step,
// whose exact-1 certificate must match too; and every pass rejects the
// same malformed objects with the shared errors.
func TestRefineQualifiedIsForward(t *testing.T) {
	ctx := context.Background()
	var sawRejected [2]int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newClipCase(rng)
		chain := c.db.DefaultChain()
		e := NewEngine(c.db, Options{})
		w, err := compile(NewQuery(c.states, c.times), chain.NumStates())
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*evalPlan{{useFilter: true}, {}} {
			k := e.kernel(chain, w, plan)
			fk := forallKernel(e, chain, w, plan)
			for _, o := range c.db.Objects() {
				for fi, pass := range []func(context.Context, *markov.Chain, forwardSeed, *window, float64, *blockPool) (float64, bool, error){existsOBRefine, forallOBRefine} {
					kk := k
					if fi == 1 {
						kk = fk
					}
					from, err := kk.seedFor(ctx, o)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := pass(ctx, chain, from, w, -1, &lanes)
					if err != nil {
						t.Fatal(err)
					}
					exact, err := kk.obExistsExact(ctx, o)
					if err != nil {
						t.Fatal(err)
					}
					bar := rng.Float64()
					p, qualified, err := pass(ctx, chain, from, w, bar, &lanes)
					if err != nil {
						t.Fatal(err)
					}
					if qualified && p != want {
						t.Fatalf("seed %d pass %d object %d bar %g: refine %v, plain %v", seed, fi, o.ID, bar, p, want)
					}
					if !qualified {
						sawRejected[fi]++
						if want >= bar {
							t.Fatalf("seed %d pass %d object %d: %v is not below the bar %g but the pass rejected it", seed, fi, o.ID, want, bar)
						}
					}
					r, qualified, err := kk.obExistsRefine(ctx, o, bar)
					if err != nil {
						t.Fatal(err)
					}
					if qualified && math.Float64bits(r.Prob) != math.Float64bits(exact.Prob) {
						t.Fatalf("seed %d pass %d object %d bar %g: kern refine %v, exact %v", seed, fi, o.ID, bar, r.Prob, exact.Prob)
					}
					if !qualified && exact.Prob >= bar {
						t.Fatalf("seed %d pass %d object %d: %v is not below the bar %g but the kern rejected it", seed, fi, o.ID, exact.Prob, bar)
					}
					if fi == 1 && exact.Prob != 1 && exact.Prob != want {
						t.Fatalf("seed %d forall object %d: kern %v, survival pass %v", seed, o.ID, exact.Prob, want)
					}
				}
			}
			n := chain.NumStates()
			late := &Object{ID: 900, Observations: []Observation{{Time: w.horizon + 1, PDF: markov.PointDistribution(n, 0)}}}
			empty := &Object{ID: 901, Observations: []Observation{{Time: 0, PDF: markov.NewDistribution(n)}}}
			for _, bad := range []struct {
				o    *Object
				want error
			}{{late, errObservedAfterHorizon(900, w.horizon+1, w.horizon)}, {empty, errZeroMass(901)}} {
				_, existsErr := k.obExists(ctx, bad.o)
				_, _, forallErr := fk.obExistsRefine(ctx, bad.o, 0.5)
				_, ktimesErr := k.ktimesOBExact(ctx, bad.o)
				for _, err := range []error{existsErr, forallErr, ktimesErr} {
					if err == nil || err.Error() != bad.want.Error() {
						t.Fatalf("object %d: exists %v, forall %v, ktimes %v, want %v", bad.o.ID, existsErr, forallErr, ktimesErr, bad.want)
					}
				}
			}
		}
	}
	if sawRejected[0] == 0 || sawRejected[1] == 0 {
		t.Fatalf("cases reject no object: exists %d, forall %d", sawRejected[0], sawRejected[1])
	}
}

// TestRefineBracketsRowGrowth holds the bounds and brackets to a chain
// whose rows sum to 1 + δ, which NewChain accepts for δ up to
// markov.DefaultTolerance: every step grows the live mass by 1 + δ, so
// an object whose exact answer sits at the bar has less mass than the
// bar until the horizon. The gate's bound and both passes must keep it:
// the pass qualifies it with its plain answer, and a request thresholded
// at that answer returns it, with the filter on and off.
func TestRefineBracketsRowGrowth(t *testing.T) {
	const n, horizon, delta = 4, 30, 0.9 * markov.DefaultTolerance
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		return []int{i}, []float64{1 + delta}
	}))
	db := NewDatabase(chain)
	db.MustAdd(MustObject(0, nil, Observation{Time: 0, PDF: markov.UniformOver(n, []int{0, 1})}))
	o := db.Get(0)
	ctx := context.Background()
	e := NewEngine(db, Options{})
	for _, c := range []struct {
		pred  Predicate
		times []int
	}{{PredicateExists, []int{horizon}}, {PredicateForAll, Interval(0, horizon)}} {
		w, err := compile(NewQuery([]int{0}, c.times), n)
		if err != nil {
			t.Fatal(err)
		}
		plan := &evalPlan{useFilter: true}
		k, pass := e.kernel(chain, w, plan), existsOBRefine
		if c.pred == PredicateForAll {
			k, pass = forallKernel(e, chain, w, plan), forallOBRefine
		}
		seed, err := k.seedFor(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := pass(ctx, chain, seed, w, -1, &lanes)
		if err != nil {
			t.Fatal(err)
		}
		if want-0.5 < 10*boundSlack {
			t.Fatalf("%v: answer %v does not outgrow the starting mass 0.5 by more than boundSlack", c.pred, want)
		}
		p, qualified, err := pass(ctx, chain, seed, w, want, &lanes)
		if err != nil || !qualified || p != want {
			t.Fatalf("%v: a bar at the answer %v: qualified %v, %v, err %v", c.pred, want, qualified, p, err)
		}
		ranked := &evalPlan{req: NewRequest(c.pred, WithThreshold(want))}
		if ub, ok, err := ranked.upperBound()(k, ctx, o); err != nil || !ok || ub < want {
			t.Fatalf("%v: gate bound %v (ok %v, err %v) below the answer %v", c.pred, ub, ok, err, want)
		}
		for _, filter := range []bool{true, false} {
			resp, err := e.Evaluate(ctx, NewRequest(c.pred, WithStates([]int{0}), WithTimes(c.times),
				WithStrategy(StrategyObjectBased), WithThreshold(want), WithFilterRefine(filter)))
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != 1 || resp.Results[0].Prob != want {
				t.Fatalf("%v filter %v: thresholded at the answer %v, got %+v", c.pred, filter, want, resp.Results)
			}
		}
	}
}

// TestForAllStrategiesOnShortRows pins the cross-strategy contract for
// PST∀Q on a chain whose rows sum to 1 − δ, which NewChain accepts. The
// object-based survival pass answers the mass of the worlds that stay in
// S□; the query-based sweep answers 1 − P∃ over the complement, which
// also counts the mass the short rows lose as surviving. So the QB
// answer exceeds the OB one by at most (horizon − t0)·δ, and by more than
// rounding on some object.
func TestForAllStrategiesOnShortRows(t *testing.T) {
	const n, delta = 24, 0.9 * markov.DefaultTolerance
	rng := rand.New(rand.NewSource(11))
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		idx := []int{i, (i + 1) % n, (i + 5) % n}
		vals := []float64{0.5, 0.3, 0.2}
		for k := range vals {
			vals[k] *= 1 - delta
		}
		return idx, vals
	}))
	db := NewDatabase(chain)
	for id := 0; id < 30; id++ {
		db.MustAdd(MustObject(id, nil, Observation{Time: rng.Intn(3), PDF: markov.UniformOver(n, rng.Perm(n)[:1+rng.Intn(3)])}))
	}
	e := NewEngine(db, Options{})
	ctx := context.Background()
	widest := 0.0
	for c := 0; c < 20; c++ {
		a := rng.Intn(n - 12)
		times := Interval(3, 3+rng.Intn(6))
		var answers [2][]Result
		for i, s := range []Strategy{StrategyObjectBased, StrategyQueryBased} {
			resp, err := e.Evaluate(ctx, NewRequest(PredicateForAll, WithStates(Interval(a, a+11)), WithTimes(times), WithStrategy(s)))
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = resp.Results
		}
		for j, ob := range answers[0] {
			qb := answers[1][j]
			bound := float64(times[len(times)-1]-db.Get(ob.ObjectID).First().Time)*delta + 1e-12
			if gap := qb.Prob - ob.Prob; ob.ObjectID != qb.ObjectID || gap < -1e-12 || gap > bound {
				t.Fatalf("case %d object %d: OB %v, QB (object %d) %v, want QB − OB in [−1e-12, %v]", c, ob.ObjectID, ob.Prob, qb.ObjectID, qb.Prob, bound)
			}
			widest = max(widest, qb.Prob-ob.Prob)
		}
	}
	if widest <= 1e-12 {
		t.Fatalf("QB and OB forall never differ by more than rounding (widest %v)", widest)
	}
}

// scanOBDB is the benchmark's scan_ob shape: a banded chain of five
// successors a state, objects on five consecutive states observed at 0.
func scanOBDB(tb testing.TB, objects, n int) *Database {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		seen := map[int]bool{}
		var idx []int
		for len(idx) < 5 {
			if j := i - 20 + rng.Intn(41); j >= 0 && j < n && !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		return idx, []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	}))
	db := NewDatabase(chain)
	for id := 0; id < objects; id++ {
		a := rng.Intn(n - 5)
		db.MustAdd(MustObject(id, nil, Observation{Time: 0, PDF: markov.UniformOver(n, Interval(a, a+4))}))
	}
	return db
}

// scanOBRequest is a plain object-based scan over a 100-state region.
func scanOBRequest(pred Predicate, opts ...RequestOption) Request {
	return NewRequest(pred, append([]RequestOption{WithStates(Interval(5000, 5099)),
		WithTimes(Interval(20, 25)), WithStrategy(StrategyObjectBased)}, opts...)...)
}

// TestScanOBAllocation is the allocation guard of the object-based scan:
// at |D|=200, |S|=10⁴ with the cache off, one exists scan and one forall
// scan each allocate less than 256 KiB in all — results, the reach cone
// and the per-pass bookkeeping. Before the pooled seed a scan cloned a
// dense |S|-vector per object: 16 MB.
func TestScanOBAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	e := NewEngine(scanOBDB(t, 200, 10000), Options{CacheBytes: -1})
	ctx := context.Background()
	for _, pred := range []Predicate{PredicateExists, PredicateForAll} {
		req := scanOBRequest(pred)
		if _, err := e.Evaluate(ctx, req); err != nil { // warm: transpose, pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := e.Evaluate(ctx, req)
		runtime.ReadMemStats(&after)
		if err != nil || len(resp.Results) != 200 {
			t.Fatalf("%v scan: %d results, err %v", pred, len(resp.Results), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
			t.Fatalf("one object-based %v scan allocated %d KiB, want < 256", pred, got>>10)
		}
	}
}

// BenchmarkScanOB times the plain object-based scan per predicate,
// clipped (the default) against the paper-literal pass.
func BenchmarkScanOB(b *testing.B) {
	e := NewEngine(scanOBDB(b, 200, 10000), Options{CacheBytes: -1})
	ctx := context.Background()
	for _, pred := range []Predicate{PredicateExists, PredicateForAll, PredicateKTimes} {
		for _, mode := range []struct {
			name string
			opts []RequestOption
		}{{"clipped", nil}, {"unclipped", []RequestOption{WithFilterRefine(false)}}} {
			req := scanOBRequest(pred, mode.opts...)
			b.Run(pred.String()+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.Evaluate(ctx, req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
