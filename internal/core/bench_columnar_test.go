package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// ingestDB builds a database of multi-observation objects for the
// ingest benchmarks.
func ingestDB(b *testing.B, chain *markov.Chain, nObjects, nObs int) *Database {
	b.Helper()
	n := chain.NumStates()
	db := NewDatabase(chain)
	for id := 0; id < nObjects; id++ {
		obs := make([]Observation, 0, nObs)
		for k := 0; k < nObs; k++ {
			obs = append(obs, Observation{Time: 3 * k, PDF: markov.PointDistribution(n, (id+7*k)%n)})
		}
		o, err := NewObjectSorted(id, nil, obs)
		if err != nil {
			b.Fatal(err)
		}
		db.MustAdd(o)
	}
	return db
}

// BenchmarkIngest measures one observation append (build the updated
// object, swap it into the database, refresh the column plane).
// "columnar" is the current single-copy WithObservation path with
// column reuse; "row-baseline" re-runs the historical sequence — copy,
// append, full re-sort and re-validation through NewObject — against
// the same database. The allocation gap between the two is pinned by
// the CI alloc gate.
func BenchmarkIngest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	chain := randomChainN(rng, 500, 4)

	b.Run("columnar", func(b *testing.B) {
		db := ingestDB(b, chain, 100, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := i % 100
			o := db.Get(id)
			upd, err := o.WithObservation(Observation{
				Time: 100 + i/100,
				PDF:  markov.PointDistribution(500, i%500),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := db.ReplaceObject(upd); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("row-baseline", func(b *testing.B) {
		db := ingestDB(b, chain, 100, 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := i % 100
			o := db.Get(id)
			merged := append(append([]Observation(nil), o.Observations...), Observation{
				Time: 100 + i/100,
				PDF:  markov.PointDistribution(500, i%500),
			})
			upd, err := NewObject(id, o.Chain, merged...)
			if err != nil {
				b.Fatal(err)
			}
			if err := db.ReplaceObject(upd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// posteriorFixture builds one object whose observations follow a sampled
// trajectory (so the joint mass is never zero) plus its column segment.
func posteriorFixture(b *testing.B, n, nObs int) (*markov.Chain, []Observation, ObsSeg) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	chain := randomChainN(rng, n, 4)
	obs := []Observation{{Time: 0, PDF: markov.PointDistribution(n, 0)}}
	cur := markov.PointDistribution(n, 0).Vec().Clone()
	for k := 1; k < nObs; k++ {
		cur = chain.Evolve(cur, 3)
		// Observe the two most likely states.
		supp := cur.Support()
		sort.Slice(supp, func(a, c int) bool { return cur.At(supp[a]) > cur.At(supp[c]) })
		if len(supp) > 2 {
			supp = supp[:2]
		}
		sort.Ints(supp)
		pdf := markov.UniformOver(n, supp)
		obs = append(obs, Observation{Time: 3 * k, PDF: pdf})
		cur = pdf.Vec().Clone()
		cur.Normalize()
	}
	return chain, obs, segFromObservations(obs)
}

// BenchmarkMultiObsPosterior compares the retained row-oriented
// posterior kernel against the vectorized columnar one (both cold), and
// the serial-keyed cache hit (warm).
func BenchmarkMultiObsPosterior(b *testing.B) {
	const n, nObs, at = 1000, 6, 7
	chain, obs, seg := posteriorFixture(b, n, nObs)

	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := posteriorAtRow(chain, obs, at); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("columnar", func(b *testing.B) {
		fpool := &sparse.FloatPool{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := posteriorAtSeg(chain, seg, at, fpool); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		db := NewDatabase(chain)
		o, err := NewObjectSorted(0, nil, obs)
		if err != nil {
			b.Fatal(err)
		}
		db.MustAdd(o)
		e := NewEngine(db, Options{})
		if _, err := e.Marginal(o, at); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Marginal(o, at); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiObsExists compares the doubled-space P∃ pass row vs
// columnar (cold) and the cached scalar (warm).
func BenchmarkMultiObsExists(b *testing.B) {
	const n, nObs = 1000, 6
	chain, obs, seg := posteriorFixture(b, n, nObs)
	w, err := compile(NewQuery([]int{1, 2, 3}, []int{4, 5, 6}), n)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := existsMultiObsRow(context.Background(), chain, obs, w); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("columnar", func(b *testing.B) {
		fpool := &sparse.FloatPool{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := existsMultiObsSeg(context.Background(), chain, seg, w, nil, fpool); err != nil {
				b.Fatal(err)
			}
		}
	})
}
