package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"ust/internal/markov"
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
// object, swap it into the database). "columnar" is the current
// single-copy WithObservation path; "row-baseline" re-runs the
// historical sequence — copy, append, full re-sort and re-validation
// through NewObject — against the same database. The CI alloc gate pins
// both on allocs/op and "columnar" on B/op, where a copy of the object's
// observations per write would show.
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
// trajectory (so the joint mass is never zero).
func posteriorFixture(b *testing.B, n, nObs int) (*markov.Chain, []Observation) {
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
	return chain, obs
}

// BenchmarkMultiObsPosterior compares the retained row-oriented
// posterior kernel against the lane-block one, "columnar" (both cold),
// and the serial-keyed cache hit (warm).
func BenchmarkMultiObsPosterior(b *testing.B) {
	const n, nObs, at = 1000, 6, 7
	chain, obs := posteriorFixture(b, n, nObs)

	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := posteriorAtRow(chain, obs, at); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("columnar", func(b *testing.B) {
		pool := &blockPool{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := posteriorAtBlock(chain, obs, at, pool); err != nil {
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
	chain, obs := posteriorFixture(b, n, nObs)
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
		pool := &blockPool{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := existsMultiObsBlock(context.Background(), chain, obs, w, nil, pool); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiObsEvaluate times the engine on the shape of the
// repository benchmark's fleet_mixed engines: scanOBDB's banded chain
// (|S| = 10⁴, five successors within ±20 ids) and 1 000 objects on five
// consecutive states at t = 0. An op gives 50 of them a new second fix, a
// full-support sighting past the horizon, then evaluates 8 exists windows
// (100-state regions, five timestamps inside [1, 30]) with the cache on:
// the sweeps are warm, and each written object is a new version that
// every window answers afresh. alloc-gate holds its allocs/op.
func BenchmarkMultiObsEvaluate(b *testing.B) {
	const n, objects, written, horizon = 10000, 1000, 50, 30
	db := scanOBDB(b, objects, n)
	rng := rand.New(rand.NewSource(9))
	// Sightings weigh one state 2¹⁴ − 9 999 times the others; the pool
	// is shared across writes, so an op builds no pdf.
	sightings := make([]*markov.Distribution, written)
	ids, weights := Interval(0, n-1), make([]float64, n)
	for i := range sightings {
		for s := range weights {
			weights[s] = 1
		}
		weights[rng.Intn(n)] = 1<<14 - (n - 1)
		pdf, err := markov.WeightedOver(n, ids, weights)
		if err != nil {
			b.Fatal(err)
		}
		sightings[i] = pdf
	}
	reqs := make([]Request, 8)
	for j := range reqs {
		lo := rng.Intn(n - 100)
		tlo := 1 + (2*j+1)*(horizon-4)/(2*len(reqs))
		reqs[j] = NewRequest(PredicateExists, WithStates(Interval(lo, lo+99)), WithTimeRange(tlo, tlo+4))
	}
	e := NewEngine(db, Options{})
	ctx := context.Background()
	op := func(i int) {
		for j := 0; j < written; j++ {
			id := j * (objects / written)
			o, err := NewObject(id, nil, db.Get(id).First(), Observation{Time: horizon + 1, PDF: sightings[(i+j)%written]})
			if err != nil {
				b.Fatal(err)
			}
			if err := db.ReplaceObject(o); err != nil {
				b.Fatal(err)
			}
		}
		for _, req := range reqs {
			if _, err := e.Evaluate(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	op(0) // warm: transpose, sweeps, pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i + 1)
	}
}
