package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// FuzzMultiObs holds the engine's multi-observation answers to the
// two-lane pass and to the possible worlds on random island chains
// (newClipCase), every object given one or two later fixes: most on
// states the previous fix can reach, some anywhere, so that some pairs
// are mutually impossible. It asks two windows, newClipCase's and one
// that ends at t = 1, before some first fixes. Under the query-based and
// the object-based strategy, with the cache on and off, every exists and
// forall answer must equal existsMultiObsBlock called directly bit for
// bit, whether the envelope gate answered it or the pass ran, and lie
// within 1e-12 of BruteForce where the worlds are few enough to walk; an
// object must fail with errImpossibleObs exactly where BruteForce finds
// no evidence. posteriorAtBlock is held to posteriorWorlds within 1e-12.
func FuzzMultiObs(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkMultiObs(t, rand.New(rand.NewSource(seed)))
	})
}

func checkMultiObs(t *testing.T, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	c := newClipCase(rng)
	chain := c.db.DefaultChain()
	n := chain.NumStates()
	near := func(tag string, id int, got, want float64) {
		t.Helper()
		if d := math.Abs(got - want); d > 1e-12 || math.IsNaN(d) {
			t.Fatalf("%s object %d: %v, reference %v", tag, id, got, want)
		}
	}

	var objs []*Object
	for _, o := range c.db.Objects() {
		objs = append(objs, withLaterFixes(t, rng, chain, o))
	}
	for _, times := range [][]int{c.times, {0, 1}} {
		q := NewQuery(c.states, times)
		w, err := compile(q, n)
		if err != nil {
			t.Fatal(err)
		}
		// The direct passes: P∃ over w, and P∀ as 1 − P∃ over w's
		// complement, as the engine answers forall.
		want := map[Predicate]map[int]float64{PredicateExists: {}, PredicateForAll: {}}
		possible := NewDatabase(chain)
		var impossible []*Object
		for _, o := range objs {
			pe, errE := existsMultiObsBlock(ctx, chain, o.Observations, w, nil, nil)
			pa, errA := existsMultiObsBlock(ctx, chain, o.Observations, w.complemented(), nil, nil)
			if (errE == nil) != (errA == nil) || (errE != nil && !errors.Is(errE, errImpossibleObs)) {
				t.Fatalf("object %d: exists pass %v, complemented pass %v", o.ID, errE, errA)
			}
			if errE != nil {
				impossible = append(impossible, o)
			} else {
				possible.MustAdd(o)
				want[PredicateExists][o.ID] = pe
				want[PredicateForAll][o.ID] = 1 - pa
			}
			end := max(w.horizon, o.Last().Time)
			if o.First().Time > w.horizon || !fewWorlds(chain, o, end) {
				continue
			}
			bf, err := BruteForce(chain, o, q)
			if (err != nil) != (errE != nil) || (err != nil && !strings.Contains(err.Error(), "mutually impossible")) {
				t.Fatalf("object %d: worlds %v, pass %v", o.ID, err, errE)
			}
			if err != nil {
				continue
			}
			near("exists vs worlds", o.ID, pe, bf.PExists)
			// A world's forall counts visits against |T□|: ask for the
			// timestamps the pass sees, from the first fix on.
			var later []int
			for _, tq := range times {
				if tq >= o.First().Time && !slices.Contains(later, tq) {
					later = append(later, tq)
				}
			}
			if len(later) > 0 {
				bf, err = BruteForce(chain, o, NewQuery(c.states, later))
				if err != nil {
					t.Fatal(err)
				}
				near("forall vs worlds", o.ID, 1-pa, bf.PForAll)
			}
		}

		for _, pred := range []Predicate{PredicateExists, PredicateForAll} {
			cached := NewEngine(possible, Options{})
			for _, strat := range []Strategy{StrategyQueryBased, StrategyObjectBased} {
				for _, cache := range []bool{true, false} {
					req := NewRequest(pred, WithWindow(q), WithStrategy(strat), WithCache(cache))
					resp, err := cached.Evaluate(ctx, req)
					if err != nil {
						t.Fatalf("%v %v cache %v: %v", pred, strat, cache, err)
					}
					if len(resp.Results) != possible.Len() {
						t.Fatalf("%v %v: %d results, want %d", pred, strat, len(resp.Results), possible.Len())
					}
					for _, r := range resp.Results {
						if math.Float64bits(r.Prob) != math.Float64bits(want[pred][r.ObjectID]) {
							t.Fatalf("%v %v cache %v object %d: %v, pass %v", pred, strat, cache, r.ObjectID, r.Prob, want[pred][r.ObjectID])
						}
					}
				}
			}
			for _, o := range impossible {
				alone := NewDatabase(chain)
				alone.MustAdd(o)
				e := NewEngine(alone, Options{})
				for _, strat := range []Strategy{StrategyQueryBased, StrategyObjectBased} {
					_, err := e.Evaluate(ctx, NewRequest(pred, WithWindow(q), WithStrategy(strat)))
					if !errors.Is(err, errImpossibleObs) {
						t.Fatalf("%v %v object %d: %v, want errImpossibleObs", pred, strat, o.ID, err)
					}
				}
			}
		}
	}

	for _, o := range objs {
		end := o.Last().Time + 1
		if !fewWorlds(chain, o, end) {
			continue
		}
		at := o.First().Time + rng.Intn(end-o.First().Time+1)
		want, werr := posteriorWorlds(chain, o.Observations, at)
		got, err := posteriorAtBlock(chain, o.Observations, at, &lanes)
		if (err != nil) != (werr != nil) {
			t.Fatalf("object %d posterior at %d: %v, worlds %v", o.ID, at, err, werr)
		}
		if err != nil {
			continue
		}
		for s := range n {
			near("posterior vs worlds", o.ID, got.P(s), want[s])
		}
	}
}

// withLaterFixes gives o one or two later fixes, each one to three steps
// after the one before: four times in five on states the previous fix can
// reach (so they stay possible together), otherwise on any states. The
// weights are small integers.
func withLaterFixes(t *testing.T, rng *rand.Rand, chain *markov.Chain, o *Object) *Object {
	t.Helper()
	n := chain.NumStates()
	obs := []Observation{o.First()}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		last := obs[len(obs)-1]
		steps := 1 + rng.Intn(3)
		var states []int
		if rng.Intn(5) == 0 {
			states = rng.Perm(n)[:1+rng.Intn(3)]
		} else {
			states = chain.Advance(last.PDF.Vec().Clone(), steps).Support()
			rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
			states = states[:1+rng.Intn(len(states))]
		}
		weights := make([]float64, len(states))
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(4))
		}
		pdf, err := markov.WeightedOver(n, states, weights)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, Observation{Time: last.Time + steps, PDF: pdf})
	}
	m, err := NewObject(o.ID, nil, obs...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// posteriorWorlds is the possible-worlds posterior: every trajectory from
// the first fix to max(at, last fix) weighs its path probability times
// each later fix's pdf at that fix's time, and the weights, summed by the
// trajectory's state at `at` and normalized, are P(o(at) | every fix).
// No evidence at all is errImpossibleObs.
func posteriorWorlds(chain *markov.Chain, obs []Observation, at int) ([]float64, error) {
	later := map[int]*markov.Distribution{}
	for _, ob := range obs[1:] {
		later[ob.Time] = ob.PDF
	}
	end := max(at, obs[len(obs)-1].Time)
	post := make([]float64, chain.NumStates())
	total := 0.0
	var walk func(t, s, sAt int, p float64)
	walk = func(t, s, sAt int, p float64) {
		if pdf, ok := later[t]; ok {
			if p *= pdf.P(s); p == 0 {
				return
			}
		}
		if t == at {
			sAt = s
		}
		if t == end {
			post[sAt] += p
			total += p
			return
		}
		chain.Successors(s, func(next int, q float64) { walk(t+1, next, sAt, p*q) })
	}
	init, _ := obs[0].PDF.Normalized()
	init.Range(func(s int, p float64) { walk(obs[0].Time, s, -1, p) })
	if total == 0 {
		return nil, errImpossibleObs
	}
	for s := range post {
		post[s] /= total
	}
	return post, nil
}

// TestMultiObsGatePassCount pins the work of the multi-observation gate
// on a database whose every object is observed twice, first far from the
// window's region: each answers exactly 0, at the cost of one possible
// envelope per (window, first-fix time) and one check per object
// version, and no two-lane pass runs. An impossible pair whose first fix
// misses the window still fails as the pass would, and a re-read after
// a write misses on the written object's new version alone.
func TestMultiObsGatePassCount(t *testing.T) {
	const n = 200
	// A lazy walk: one state left, stay, or one right.
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		var idx []int
		for j := max(i-1, 0); j <= min(i+1, n-1); j++ {
			idx = append(idx, j)
		}
		vals := make([]float64, len(idx))
		for k := range vals {
			vals[k] = 1 / float64(len(idx))
		}
		return idx, vals
	}))
	fix := func(id, t0, at, t1 int) *Object {
		return MustObject(id, nil,
			Observation{Time: t0, PDF: markov.UniformOver(n, Interval(at, at+4))},
			Observation{Time: t1, PDF: markov.UniformOver(n, Interval(0, n-1))})
	}
	db := NewDatabase(chain)
	for id := range 6 {
		db.MustAdd(fix(id, id%2, 10+10*id, 8)) // first fixes at t = 0 and 1
	}
	e := NewEngine(db, Options{})
	ctx := context.Background()
	q := NewQuery(Interval(150, 160), Interval(2, 4))
	w, err := compile(q, n)
	if err != nil {
		t.Fatal(err)
	}
	read := func(strat Strategy) CacheReport {
		t.Helper()
		resp, err := e.Evaluate(ctx, NewRequest(PredicateExists, WithWindow(q), WithStrategy(strat)))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Results {
			if math.Float64bits(r.Prob) != 0 {
				t.Fatalf("%v object %d: %v, want exactly 0", strat, r.ObjectID, r.Prob)
			}
			o := db.Get(r.ObjectID)
			if p, err := existsMultiObsBlock(ctx, chain, o.Observations, w, nil, nil); err != nil || math.Float64bits(p) != 0 {
				t.Fatalf("object %d: pass %v, %v, want exactly 0", o.ID, p, err)
			}
		}
		return resp.Cache
	}
	// Two envelopes (t0 = 0 and 1) and six checks; the object-based
	// read after it is served all eight from the cache.
	if got := read(StrategyQueryBased); got != (CacheReport{Misses: 8}) {
		t.Fatalf("first read: %+v, want 8 misses", got)
	}
	if got := read(StrategyObjectBased); got != (CacheReport{Hits: 8}) {
		t.Fatalf("second read: %+v, want 8 hits", got)
	}
	board := e.cache.board
	for _, o := range db.Objects() {
		if board.Contains(scoreKey{chain: chain, kind: kindMultiObs, sig: fnvMix(w.signature(), o.serial)}) {
			t.Fatalf("object %d ran its two-lane pass", o.ID)
		}
		if !board.Contains(scoreKey{chain: chain, kind: kindFeasible, sig: fnvMix(fnvOffset, o.serial)}) {
			t.Fatalf("object %d has no cached check", o.ID)
		}
	}
	for _, t0 := range []int{0, 1} {
		if !board.Contains(scoreKey{chain: chain, kind: kindPossible, sig: w.signature(), t0: t0}) {
			t.Fatalf("no possible envelope cached at t0 = %d", t0)
		}
	}

	// A write: object 3 gets a new second fix. Only its check is new.
	if err := db.ReplaceObject(fix(3, 1, 40, 9)); err != nil {
		t.Fatal(err)
	}
	if got := read(StrategyQueryBased); got != (CacheReport{Hits: 7, Misses: 1}) {
		t.Fatalf("re-read after a write: %+v, want 7 hits and 1 miss", got)
	}

	// A second fix 100 states from the first, one step later: the pair
	// is impossible, and the gate fails where the pass does.
	bad := MustObject(9, nil,
		Observation{Time: 0, PDF: markov.UniformOver(n, Interval(10, 14))},
		Observation{Time: 1, PDF: markov.PointDistribution(n, 110)})
	if _, err := existsMultiObsBlock(ctx, chain, bad.Observations, w, nil, nil); !errors.Is(err, errImpossibleObs) {
		t.Fatalf("pass on the impossible pair: %v", err)
	}
	if err := db.Add(bad); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyQueryBased, StrategyObjectBased} {
		if _, err := e.Evaluate(ctx, NewRequest(PredicateExists, WithWindow(q), WithStrategy(strat))); !errors.Is(err, errImpossibleObs) {
			t.Fatalf("%v over the impossible pair: %v, want errImpossibleObs", strat, err)
		}
	}
}

// TestMultiObsGateDeclinesOnOverflow: when a fusion's total is so small
// that its inverse overflows, the pass's rescale turns its +0 hit lane
// into NaN, so the gate must not answer 0 for it: the check reports the
// overflow, the pass runs, and the engine's answer keeps the pass's
// bits. The second fix weighs the only state the first can reach at
// 1e-320 against 1 elsewhere.
func TestMultiObsGateDeclinesOnOverflow(t *testing.T) {
	const n = 200
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		return []int{i}, []float64{1}
	}))
	tiny, err := markov.WeightedOver(n, []int{10, 100}, []float64{1e-320, 1})
	if err != nil {
		t.Fatal(err)
	}
	o := MustObject(0, nil,
		Observation{Time: 0, PDF: markov.PointDistribution(n, 10)},
		Observation{Time: 6, PDF: tiny})
	db := NewDatabase(chain)
	db.MustAdd(o)
	q := NewQuery(Interval(150, 160), Interval(2, 4))
	w, err := compile(q, n)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	exact, err := multiObsFeasible(ctx, chain, o.Observations, nil)
	if err != nil || exact {
		t.Fatalf("check: exact %v, err %v; want an overflowing rescale reported", exact, err)
	}
	want, err := existsMultiObsBlock(ctx, chain, o.Observations, w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := askOne(NewEngine(db, Options{}), 0, PredicateExists, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Prob) != math.Float64bits(want) {
		t.Fatalf("engine %v, pass %v", got.Prob, want)
	}
}
