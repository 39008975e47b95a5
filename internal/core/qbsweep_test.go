package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The query-based sweeps run their lanes as one block, each held against
// its far value (querybased.go). The passes below are the historical
// dense sweeps: the complement region pinned to 1 state by state, B_0
// swept from all ones, accepted flag words started as all-ones lanes,
// and every backward step a row-major MatVec. They are the references
// the block sweeps are held to: every vector entry within 1e-12, every
// answer within 1e-9 of possible-worlds enumeration.

// hitScoresRef is the dense PST∃Q sweep: the region's states are pinned
// to 1 whatever its size.
func hitScoresRef(chain *markov.Chain, w *window, t0 int) *sparse.Vec {
	n := chain.NumStates()
	score := sparse.NewVec(n)
	if w.k == 0 || w.horizon < t0 {
		return score
	}
	next := sparse.NewVec(n)
	for t := w.horizon; t > t0; t-- {
		if w.atTime(t) {
			w.eachRegionState(func(s int) { score.Set(s, 1) })
		}
		chain.StepBack(next, score)
		score, next = next, score
	}
	if w.atTime(t0) {
		w.eachRegionState(func(s int) { score.Set(s, 1) })
	}
	return score
}

// kTimesBackwardRef sweeps all |T□|+1 vectors, B_0 from all ones.
func kTimesBackwardRef(chain *markov.Chain, w *window, t0 int) []*sparse.Vec {
	n := chain.NumStates()
	backs := make([]*sparse.Vec, w.k+1)
	for k := range backs {
		backs[k] = sparse.NewVec(n)
	}
	for s := 0; s < n; s++ {
		backs[0].Set(s, 1)
	}
	consume := func() {
		for k := len(backs) - 1; k >= 1; k-- {
			dst, src := backs[k], backs[k-1]
			w.eachRegionState(func(s int) { dst.Set(s, src.At(s)) })
		}
		w.eachRegionState(func(s int) { backs[0].Set(s, 0) })
		backs[0].Compact()
	}
	buf := sparse.NewVec(n)
	for t := w.horizon; t > t0; t-- {
		if w.atTime(t) {
			consume()
		}
		for k := range backs {
			sparse.MatVec(buf, chain.Matrix(), backs[k])
			backs[k], buf = buf, backs[k]
		}
	}
	if w.atTime(t0) {
		consume()
	}
	return backs
}

// exprBackwardRef is the augmented sweep over 2^m dense lanes, gathering
// every event over all of S.
func exprBackwardRef(chain *markov.Chain, prog *exprProg, t0 int) []*sparse.Vec {
	n := chain.NumStates()
	nb := 1 << prog.m
	cur := make([]*sparse.Vec, nb)
	next := make([]*sparse.Vec, nb)
	for b := range cur {
		cur[b], next[b] = sparse.NewVec(n), sparse.NewVec(n)
		if prog.accept[b] {
			for s := 0; s < n; s++ {
				cur[b].Set(s, 1)
			}
		}
	}
	gather := sparse.NewVec(n)
	for t := prog.horizon; t > t0; t-- {
		d := prog.deltas[t]
		for b := 0; b < nb; b++ {
			src := cur[b]
			if d != nil {
				gather.CopyFrom(src)
				for s, ds := range d {
					if ds != 0 && b|int(ds) != b {
						gather.Set(s, cur[b|int(ds)].At(s))
					}
				}
				src = gather
			}
			sparse.MatVec(next[b], chain.Matrix(), src)
		}
		cur, next = next, cur
	}
	return cur
}

// qbCase is one random chain, a window over it and an expression mixing
// small and complement fire sets.
type qbCase struct {
	chain *markov.Chain
	q     Query
	x     Expr
}

// randomRegion draws a region of one state, of fewer than half the
// states, or of more than half.
func randomRegion(rng *rand.Rand, n int) []int {
	switch rng.Intn(3) {
	case 0:
		return []int{rng.Intn(n)}
	case 1:
		return rng.Perm(n)[:1+rng.Intn(max(1, (n-1)/2))]
	default:
		return rng.Perm(n)[:n/2+1+rng.Intn(n-n/2)]
	}
}

// gappedTimes draws a window [lo, hi] with holes in it; both ends stay.
func gappedTimes(rng *rand.Rand) []int {
	lo := rng.Intn(4)
	hi := lo + rng.Intn(5)
	times := []int{lo}
	for t := lo + 1; t < hi; t++ {
		if rng.Intn(3) > 0 {
			times = append(times, t)
		}
	}
	if hi > lo {
		times = append(times, hi)
	}
	return times
}

func newQBCase(rng *rand.Rand) qbCase {
	var chain *markov.Chain
	if rng.Intn(2) == 0 {
		n := 3 + rng.Intn(10)
		chain = randomChainN(rng, n, 2+rng.Intn(2))
	} else {
		n := 8 + rng.Intn(25)
		chain = islandChain(rng, n, 3+rng.Intn(n-6))
	}
	n := chain.NumStates()
	c := qbCase{chain: chain, q: NewQuery(randomRegion(rng, n), gappedTimes(rng))}
	var atoms []Expr
	for i := 1 + rng.Intn(4); i > 0; i-- {
		opts := []RequestOption{WithStates(randomRegion(rng, n)), WithTimes(gappedTimes(rng))}
		if rng.Intn(2) == 0 {
			atoms = append(atoms, ForAllAtom(opts...))
		} else {
			atoms = append(atoms, ExistsAtom(opts...))
		}
	}
	for len(atoms) > 1 {
		a, b := atoms[0], atoms[1]
		if rng.Intn(3) == 0 {
			b = Not(b)
		}
		if rng.Intn(2) == 0 {
			atoms = append([]Expr{And(a, b)}, atoms[2:]...)
		} else {
			atoms = append([]Expr{Or(a, b)}, atoms[2:]...)
		}
	}
	c.x = atoms[0]
	if rng.Intn(4) == 0 {
		c.x = Not(c.x)
	}
	return c
}

// sameVec fails unless the column got is within tol of want entry by
// entry.
func sameVec(tb testing.TB, tag string, got []float64, want *sparse.Vec, tol float64) {
	tb.Helper()
	if len(got) != want.Len() {
		tb.Fatalf("%s: column over %d states, reference %d", tag, len(got), want.Len())
	}
	for s := 0; s < want.Len(); s++ {
		if d := math.Abs(got[s] - want.At(s)); d > tol || math.IsNaN(d) {
			tb.Fatalf("%s state %d: %v, reference %v", tag, s, got[s], want.At(s))
		}
	}
}

// inUnit fails unless every entry of a materialized lane is a
// probability: at least 0, and above 1 by rounding only. A lane held
// against the far value 1 settles to 1 − offset, so an entry well above
// 1 is a negative stored offset.
func inUnit(tb testing.TB, tag string, lanes ...[]float64) {
	tb.Helper()
	for i, col := range lanes {
		for s, x := range col {
			if x < 0 || x > 1+1e-12 || math.IsNaN(x) {
				tb.Fatalf("%s lane %d state %d: %v is not a probability", tag, i, s, x)
			}
		}
	}
}

// checkQBCase holds the block sweeps of one case to the references at
// every observation time up to the horizon (before, inside and at the
// end of the window), for the window and its complement, and every
// query-based answer to possible-worlds enumeration.
func checkQBCase(tb testing.TB, rng *rand.Rand, c qbCase) {
	tb.Helper()
	ctx := context.Background()
	n := c.chain.NumStates()
	w, err := compile(c.q, n)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := compileExpr(c.x, n)
	if err != nil {
		tb.Fatal(err)
	}
	pool := &blockPool{}
	for _, kw := range []*window{w, w.complemented()} {
		for t0 := 0; t0 <= kw.horizon; t0++ {
			score, err := hitScores(ctx, c.chain, kw, t0, pool)
			if err != nil {
				tb.Fatal(err)
			}
			inUnit(tb, "exists", score)
			sameVec(tb, "exists", score, hitScoresRef(c.chain, kw, t0), 1e-12)

			backs, err := kTimesBackward(ctx, c.chain, kw, t0, pool)
			if err != nil {
				tb.Fatal(err)
			}
			inUnit(tb, "ktimes", backs...)
			for k, ref := range kTimesBackwardRef(c.chain, kw, t0) {
				sameVec(tb, "ktimes", backs[k], ref, 1e-12)
			}
		}
	}
	for t0 := 0; t0 <= prog.horizon; t0++ {
		family, err := exprBackward(ctx, c.chain, prog, t0, pool)
		if err != nil {
			tb.Fatal(err)
		}
		inUnit(tb, "expr", family...)
		for b, ref := range exprBackwardRef(c.chain, prog, t0) {
			sameVec(tb, "expr", family[b], ref, 1e-12)
		}
	}

	// Answers: one object per observation time up to the horizon, on
	// one or two states.
	objects := func(horizon int) *Database {
		db := NewDatabase(c.chain)
		for id := 0; id <= horizon; id++ {
			v := sparse.NewVec(n)
			for _, s := range rng.Perm(n)[:1+rng.Intn(min(2, n))] {
				v.Set(s, 0.25+rng.Float64())
			}
			db.MustAdd(MustObject(id, nil, Observation{Time: id, PDF: markov.FromArray(v.RawData())}))
		}
		return db
	}
	db := objects(w.horizon)
	e := NewEngine(db, Options{})
	for _, pred := range []Predicate{PredicateExists, PredicateForAll, PredicateKTimes} {
		resp, err := e.Evaluate(ctx, NewRequest(pred, WithWindow(c.q), qb))
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range resp.Results {
			bf, err := BruteForce(c.chain, db.Get(r.ObjectID), c.q)
			if err != nil {
				tb.Fatal(err)
			}
			want := map[Predicate]float64{PredicateExists: bf.PExists, PredicateForAll: bf.PForAll, PredicateKTimes: 1 - bf.KDist[0]}[pred]
			if pred == PredicateForAll {
				// The engine reads query times before the observation as
				// vacuous; enumeration counts them as misses.
				t0 := db.Get(r.ObjectID).First().Time
				var later []int
				for _, t := range c.q.Times {
					if t >= t0 {
						later = append(later, t)
					}
				}
				if bf, err = BruteForce(c.chain, db.Get(r.ObjectID), NewQuery(c.q.States, later)); err != nil {
					tb.Fatal(err)
				}
				want = bf.PForAll
			}
			if math.Abs(r.Prob-want) > 1e-9 || r.Prob < 0 || r.Prob > 1 {
				tb.Fatalf("%v object %d: %v, possible worlds %v", pred, r.ObjectID, r.Prob, want)
			}
			for k, p := range r.Dist {
				if math.Abs(p-bf.KDist[k]) > 1e-9 || p < 0 || p > 1 {
					tb.Fatalf("ktimes object %d: dist[%d] = %v, possible worlds %v", r.ObjectID, k, p, bf.KDist[k])
				}
			}
		}
	}
	db = objects(prog.horizon)
	resp, err := NewEngine(db, Options{}).Evaluate(ctx, NewExprRequest(c.x, qb))
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range resp.Results {
		want, err := BruteForceExpr(c.chain, db.Get(r.ObjectID), c.x)
		if err != nil {
			tb.Fatal(err)
		}
		if math.Abs(r.Prob-want) > 1e-9 || r.Prob < 0 || r.Prob > 1 {
			tb.Fatalf("%v object %d: %v, possible worlds %v", c.x, r.ObjectID, r.Prob, want)
		}
	}
}

func TestQBSweepsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		checkQBCase(t, rand.New(rand.NewSource(seed)), newQBCase(rand.New(rand.NewSource(seed))))
	}
}

// FuzzQBSweeps runs checkQBCase over seeded tiny chains, windows and
// expressions.
func FuzzQBSweeps(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkQBCase(t, rand.New(rand.NewSource(seed)), newQBCase(rand.New(rand.NewSource(seed))))
	})
}

// TestQBSweepsRowDeviationBound pins the documented cost of assuming a
// row-stochastic chain: on a chain whose rows sum to 1 − δ, every far-value
// lane is within (horizon − t0)·δ of the dense reference, and the bound is
// not vacuous (some lane moves by more than δ/2).
func TestQBSweepsRowDeviationBound(t *testing.T) {
	const delta = 1e-10
	rng := rand.New(rand.NewSource(7))
	n := 24
	chain := markov.MustChain(sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		idx := []int{i, (i + 1) % n, (i + 5) % n}
		vals := []float64{0.5, 0.3, 0.2}
		for k := range vals {
			vals[k] *= 1 - delta
		}
		return idx, vals
	}))
	ctx := context.Background()
	worst := 0.0
	for c := 0; c < 20; c++ {
		w, err := compile(NewQuery(rng.Perm(n)[:1+rng.Intn(4)], gappedTimes(rng)), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, kw := range []*window{w, w.complemented()} {
			for t0 := 0; t0 <= kw.horizon; t0++ {
				bound := float64(kw.horizon-t0)*delta + 1e-12
				got, err := hitScores(ctx, chain, kw, t0, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref := hitScoresRef(chain, kw, t0)
				sameVec(t, "exists", got, ref, bound)
				backs, err := kTimesBackward(ctx, chain, kw, t0, nil)
				if err != nil {
					t.Fatal(err)
				}
				refs := kTimesBackwardRef(chain, kw, t0)
				for k := range backs {
					sameVec(t, "ktimes", backs[k], refs[k], bound)
				}
				for s := 0; s < n; s++ {
					worst = max(worst, math.Abs(got[s]-ref.At(s))/delta, math.Abs(backs[0][s]-refs[0].At(s))/delta)
				}
			}
		}
		prog, err := compileExpr(And(
			ExistsAtom(WithStates(rng.Perm(n)[:1+rng.Intn(4)]), WithTimes(gappedTimes(rng))),
			Not(ForAllAtom(WithStates(rng.Perm(n)[:1+rng.Intn(4)]), WithTimes(gappedTimes(rng))))), n)
		if err != nil {
			t.Fatal(err)
		}
		for t0 := 0; t0 <= prog.horizon; t0++ {
			family, err := exprBackward(ctx, chain, prog, t0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for b, ref := range exprBackwardRef(chain, prog, t0) {
				sameVec(t, "expr", family[b], ref, float64(prog.horizon-t0)*delta+1e-12)
			}
		}
	}
	if worst < 0.5 {
		t.Fatalf("largest deviation %g·δ: the chain does not exercise the bound", worst)
	}
}

// TestBlockPoolConcurrentFirstUse hammers the block pool from many
// goroutines over a handful of shapes, first uses included: every get
// must return an empty block of the asked shape — both buffers zero over
// their whole capacity, both live sets empty, every lane near — although
// put clears only the rows its live sets hold, and a block comes back
// with the lane count of whichever pass used it last. Run under -race
// (make race does).
func TestBlockPoolConcurrentFirstUse(t *testing.T) {
	var pool blockPool
	shapes := [][2]int{{3, 1}, {17, 2}, {64, 1}, {64, 5}, {300, 3}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 400; it++ {
				sh := shapes[rng.Intn(len(shapes))]
				b := pool.get(sh[0], sh[1])
				if b.n != sh[0] || b.k != sh[1] || b.live.Any() || b.spareLive.Any() ||
					slices.ContainsFunc(b.cur[:cap(b.cur)], func(x float64) bool { return x != 0 }) ||
					slices.ContainsFunc(b.spare[:cap(b.spare)], func(x float64) bool { return x != 0 }) ||
					slices.Contains(b.far[:cap(b.far)], true) {
					t.Errorf("get(%d, %d): a dirty block", sh[0], sh[1])
					return
				}
				for range 2 { // dirty both buffers
					for s := rng.Intn(3); s < b.n; s += 1 + rng.Intn(5) {
						b.row(s)[rng.Intn(b.k)] = 1
					}
					b.swap()
				}
				b.far[rng.Intn(b.k)] = true
				pool.put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestBlockPoolIdleBytesBounded holds the pool's byte bound to the
// memory its idle blocks hold — both buffers, both live sets and the far
// flags, counted here from their capacities — not to the buffers alone:
// blocks of 2^18 states whose buffers fill maxIdleBytes eight times over
// exactly must not all be kept, because their live sets take more.
func TestBlockPoolIdleBytesBounded(t *testing.T) {
	held := func(b *laneBlock) int {
		return 8*(cap(b.cur)+cap(b.spare)+len(b.live.Words64())+len(b.spareLive.Words64())) + cap(b.far)
	}
	const n = 1 << 18
	var pool blockPool
	var out []*laneBlock
	for range 9 {
		out = append(out, pool.get(n, 1))
	}
	for _, b := range out {
		pool.put(b)
		idle := 0
		for _, ib := range pool.idle[n] {
			idle += held(ib)
		}
		if idle > maxIdleBytes || pool.bytes != idle {
			t.Fatalf("%d idle blocks hold %d bytes, the pool counts %d, bound %d", len(pool.idle[n]), idle, pool.bytes, maxIdleBytes)
		}
	}
	if kept := len(pool.idle[n]); kept == 0 || kept >= 8 {
		t.Fatalf("the pool kept %d blocks of %d bytes, want 1 to 7", kept, held(out[0]))
	}
	for range len(pool.idle[n]) {
		pool.get(n, 1)
	}
	if pool.bytes != 0 {
		t.Fatalf("an empty pool counts %d bytes", pool.bytes)
	}
}

// BenchmarkQBSweep times one query-based sweep per predicate on the
// benchmark's T1 shape: |S| = 10⁴, five successors within ±20 ids, a
// 100-state region, the window [21, 25] and one object observed at 0.
// The cache is off, so every iteration sweeps afresh; B/op is the
// cached vectors the sweep hands out (alloc-gate holds it there).
func BenchmarkQBSweep(b *testing.B) {
	e := NewEngine(scanOBDB(b, 1, 10000), Options{})
	ctx := context.Background()
	region, window := WithStates(Interval(5000, 5099)), WithTimes(Interval(21, 25))
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"exists", NewRequest(PredicateExists, region, window)},
		{"forall", NewRequest(PredicateForAll, region, window)},
		{"ktimes", NewRequest(PredicateKTimes, region, window)},
		{"expr", NewExprRequest(And(ExistsAtom(region, window),
			Not(ForAllAtom(WithStates(Interval(5040, 5139)), window))))},
	} {
		req := c.req.With(qb, WithCache(false))
		if _, err := e.Evaluate(ctx, req); err != nil { // warm: transpose, pool
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Evaluate(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
