package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ust/internal/gen"
	"ust/internal/markov"
)

func topkDB(t testing.TB, n int) *Database {
	t.Helper()
	p := gen.Params{NumObjects: n, NumStates: 800, ObjectSpread: 3, StateSpread: 4, MaxStep: 30, Seed: 11}
	ds := gen.MustGenerate(p)
	db := NewDatabase(ds.Chain)
	for i, o := range ds.Objects {
		db.MustAdd(MustObject(i, nil, Observation{Time: 0, PDF: o}))
	}
	return db
}

func TestTopKExistsMatchesFullSort(t *testing.T) {
	db := topkDB(t, 120)
	e := NewEngine(db, Options{})
	q := NewQuery(Interval(100, 160), Interval(8, 12))

	// The reference ranking: every object, fully sorted.
	ranked := mustAsk(t, e, PredicateExists, q)
	sort.Slice(ranked, func(a, b int) bool { return better(ranked[a], ranked[b]) })
	for _, k := range []int{1, 5, 37, 120, 500} {
		top := mustAsk(t, e, PredicateExists, q, WithTopK(k))
		want := k
		if want > len(ranked) {
			want = len(ranked)
		}
		if len(top) != want {
			t.Fatalf("top-%d returned %d results", k, len(top))
		}
		for i := range top {
			if top[i].ObjectID != ranked[i].ObjectID || math.Abs(top[i].Prob-ranked[i].Prob) > 1e-12 {
				t.Fatalf("k=%d: rank %d: %+v vs %+v", k, i, top[i], ranked[i])
			}
		}
	}
}

func TestTopKExistsInvalidK(t *testing.T) {
	db, _ := paperDB(t)
	e := NewEngine(db, Options{})
	if _, err := ask(e, PredicateExists, paperQueryV(), WithTopK(-1)); err == nil {
		t.Error("k=-1 accepted")
	}
}

func TestTopKOrderingTieBreak(t *testing.T) {
	// Several objects with identical probability: order by id.
	db := NewDatabase(paperChainV(t))
	for id := 5; id >= 1; id-- {
		db.MustAdd(MustObject(id, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	}
	e := NewEngine(db, Options{})
	top := mustAsk(t, e, PredicateExists, paperQueryV(), WithTopK(3))
	if top[0].ObjectID != 1 || top[1].ObjectID != 2 || top[2].ObjectID != 3 {
		t.Errorf("tie-break order wrong: %v", top)
	}
}

// Property: P∃ is monotone in both query dimensions — growing the
// region or the time window can only increase the probability.
func TestExistsMonotoneInWindowQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		if len(q.States) == 0 || len(q.Times) == 0 {
			return true
		}
		base, err := obProb(e, o, PredicateExists, q)
		if err != nil {
			return false
		}
		n := e.db.ChainOf(o).NumStates()
		// Grow the region by one state (if possible).
		inQ := map[int]bool{}
		for _, s := range q.States {
			inQ[s] = true
		}
		for s := 0; s < n; s++ {
			if !inQ[s] {
				bigger, err := obProb(e, o, PredicateExists, NewQuery(append(append([]int(nil), q.States...), s), q.Times))
				if err != nil || bigger < base-1e-12 {
					return false
				}
				break
			}
		}
		// Grow the time window by one timestamp.
		extended := append(append([]int(nil), q.Times...), q.Horizon()+1)
		bigger, err := obProb(e, o, PredicateExists, NewQuery(q.States, extended))
		if err != nil {
			return false
		}
		return bigger >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: P∀ is antitone in the time window — demanding more
// timestamps inside can only decrease the probability — and monotone in
// the region.
func TestForAllMonotoneQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		base, err := obProb(e, o, PredicateForAll, q)
		if err != nil {
			return false
		}
		extended := append(append([]int(nil), q.Times...), q.Horizon()+1)
		smaller, err := obProb(e, o, PredicateForAll, NewQuery(q.States, extended))
		if err != nil {
			return false
		}
		if smaller > base+1e-12 {
			return false
		}
		n := e.db.ChainOf(o).NumStates()
		inQ := map[int]bool{}
		for _, s := range q.States {
			inQ[s] = true
		}
		for s := 0; s < n; s++ {
			if !inQ[s] {
				bigger, err := obProb(e, o, PredicateForAll, NewQuery(append(append([]int(nil), q.States...), s), q.Times))
				if err != nil || bigger < base-1e-12 {
					return false
				}
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
