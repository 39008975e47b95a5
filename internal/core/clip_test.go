package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The object-based forward passes clip their frontier against the
// window's reach cone unless the request says WithFilterRefine(false),
// which runs the paper-literal pass. These tests hold the clipped pass to
// that oracle under the exactness contract DESIGN.md states:
// exists/forall bit-identical, ktimes within 1e-12 and summing to one,
// unreachable objects exactly 0 (forall exactly 1).

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

// clipDrops reports whether the clipped exists pass over w drops a live
// row of seed's frontier at some step: the case where clipped ≡
// unclipped says more than that the clip did nothing. It replays
// existsOBRefine's loop with no band.
func clipDrops(chain *markov.Chain, seed forwardSeed, w *window) bool {
	b := seed.open(nil, 1)
	if w.atTime(seed.t0) {
		absorb(b, w)
	}
	for t := seed.t0; t < w.horizon; t++ {
		keep := seed.cone[t-seed.t0].Words64()
		for wi, word := range b.live.Words64() {
			if word&^keep[wi] != 0 {
				return true
			}
		}
		b.step(chain.Matrix(), 1)
		if w.atTime(t + 1) {
			absorb(b, w)
		}
	}
	return false
}

func TestClippedMatchesUnclipped(t *testing.T) {
	ctx := context.Background()
	var sawDropped, sawUnreachable int
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
			// The window the scan used, for the envelope it clipped against.
			kw := w
			if pred == PredicateForAll {
				kw = w.complemented()
			}
			k := e.kernel(chain, kw, &evalPlan{useFilter: true})
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
				if clipDrops(chain, from, kw) {
					sawDropped++
				}
				pm, err := supportEnvelope(ctx, chain, kw, o.First().Time, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				if o.First().PDF.MassOn(pm) == 0 {
					sawUnreachable++
					if p := got.Prob; (pred == PredicateExists && p != 0) || (pred == PredicateForAll && p != 1) {
						t.Fatalf("seed %d %v object %d: out of reach, answered %v", seed, pred, o.ID, p)
					}
				}
			}
		}
	}
	t.Logf("%d clipped passes dropped live rows, %d unreachable objects", sawDropped, sawUnreachable)
	if sawDropped == 0 || sawUnreachable == 0 {
		t.Fatalf("cases do not cover the contract: %d clipped passes dropped live rows, %d unreachable objects",
			sawDropped, sawUnreachable)
	}
}

// TestReachConeIsTheEnvelopeFamily pins the cone to the possible-
// envelope family: cone[t−t0] is supportEnvelope's possible-envelope at
// t, bit for bit, at every t up to the horizon, for plain and
// complemented windows; past the horizon, and for an empty window (an
// expression atom's fire window can be either), coneFor is the one
// entry supportEnvelope answers.
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
				if len(cone) != kw.horizon-t0+1 {
					t.Fatalf("seed %d: cone from %d has %d envelopes, want %d", seed, t0, len(cone), kw.horizon-t0+1)
				}
				for tt := t0; tt <= kw.horizon; tt++ {
					pm, err := supportEnvelope(ctx, chain, kw, tt, false, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !cone[tt-t0].Equal(pm) {
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
			if len(cone) != 1 || !cone[0].Equal(want) {
				t.Fatalf("seed %d: cone of k=%d window from %d is %v, want [%v]", seed, tc.w.k, tc.t0, cone, want)
			}
		}
	}
}

// TestRefineQualifiedIsForward: when the bracketed pass runs to
// completion its answer is the plain pass's, to the bit, with and
// without a cone; and both reject the same malformed objects with the
// shared errors.
func TestRefineQualifiedIsForward(t *testing.T) {
	ctx := context.Background()
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
			for _, o := range c.db.Objects() {
				from, err := k.seedFor(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				want, err := existsForward(ctx, chain, from, w, &lanes)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := rng.Float64(), 1+rng.Float64()
				if rng.Intn(2) == 0 {
					lo, hi = -1, rng.Float64()
				}
				p, qualified, err := existsOBRefine(ctx, chain, from, w, lo, hi, &lanes)
				if err != nil {
					t.Fatal(err)
				}
				if qualified && p != want {
					t.Fatalf("seed %d object %d band [%g,%g]: refine %v, forward %v", seed, o.ID, lo, hi, p, want)
				}
				if !qualified && want >= lo && want <= hi {
					t.Fatalf("seed %d object %d: %v lies inside [%g,%g] but the pass rejected it", seed, o.ID, want, lo, hi)
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
				_, ktimesErr := k.ktimesOBExact(ctx, bad.o)
				if existsErr == nil || ktimesErr == nil || existsErr.Error() != bad.want.Error() || ktimesErr.Error() != bad.want.Error() {
					t.Fatalf("object %d: exists %v, ktimes %v, want %v", bad.o.ID, existsErr, ktimesErr, bad.want)
				}
			}
		}
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
// at |D|=200, |S|=10⁴ with the cache off, one exists scan allocates less
// than 256 KiB in all — results, the reach cone and the per-pass
// bookkeeping. Before the pooled seed it cloned a dense |S|-vector per
// object: 16 MB.
func TestScanOBAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	e := NewEngine(scanOBDB(t, 200, 10000), Options{CacheBytes: -1})
	ctx := context.Background()
	req := scanOBRequest(PredicateExists)
	if _, err := e.Evaluate(ctx, req); err != nil { // warm: transpose, pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := e.Evaluate(ctx, req)
	runtime.ReadMemStats(&after)
	if err != nil || len(resp.Results) != 200 {
		t.Fatalf("scan: %d results, err %v", len(resp.Results), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("one object-based exists scan allocated %d KiB, want < 256", got>>10)
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
