package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ust/internal/markov"
)

// segEqual compares two column segments element-wise.
func segEqual(a, b ObsSeg) bool {
	if len(a.Times) != len(b.Times) || len(a.Off) != len(b.Off) ||
		len(a.IDs) != len(b.IDs) || len(a.Probs) != len(b.Probs) {
		return false
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			return false
		}
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			return false
		}
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || a.Probs[i] != b.Probs[i] {
			return false
		}
	}
	return true
}

// TestObsColumnsTracksMutations pins the plane invariant: after any
// Add/ReplaceObject sequence, segmentOf(o) succeeds for every live
// object and matches a fresh row→column conversion bit-exactly.
func TestObsColumnsTracksMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 12
	chain := randomChainN(rng, n, 3)
	db := NewDatabase(chain)

	for id := 0; id < 6; id++ {
		obs := []Observation{{Time: 0, PDF: markov.PointDistribution(n, rng.Intn(n))}}
		for k := 0; k < rng.Intn(3); k++ {
			obs = append(obs, Observation{
				Time: 1 + 2*k,
				PDF:  markov.UniformOver(n, rng.Perm(n)[:1+rng.Intn(3)]),
			})
		}
		o, err := NewObject(id, nil, obs...)
		if err != nil {
			t.Fatal(err)
		}
		db.MustAdd(o)
	}
	checkPlane := func(stage string) {
		t.Helper()
		if db.Columns().Len() != db.Len() {
			t.Fatalf("%s: plane has %d segments for %d objects", stage, db.Columns().Len(), db.Len())
		}
		for _, o := range db.Objects() {
			seg, ok := db.Columns().segmentOf(o)
			if !ok {
				t.Fatalf("%s: no segment for live object %d", stage, o.ID)
			}
			if !segEqual(seg, segFromObservations(o.Observations)) {
				t.Fatalf("%s: object %d segment diverged from its observations", stage, o.ID)
			}
		}
	}
	checkPlane("after add")

	// Observation updates: the updated object's segment must follow it,
	// and the superseded object must no longer resolve.
	for round := 0; round < 8; round++ {
		id := rng.Intn(db.Len())
		old := db.Get(id)
		updated, err := old.WithObservation(Observation{
			Time: 20 + round,
			PDF:  markov.UniformOver(n, rng.Perm(n)[:1+rng.Intn(4)]),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ReplaceObject(updated); err != nil {
			t.Fatal(err)
		}
		if _, ok := db.Columns().segmentOf(old); ok {
			t.Fatalf("round %d: superseded object %d still resolves a segment", round, id)
		}
	}
	checkPlane("after replace")
}

// TestPreSeededColumnsClaimed pins the bulk-load contract: a segment
// published with AppendSeg before the matching Add is adopted (claimed
// by serial) rather than re-derived, and mismatched pre-seeds are
// discarded in favour of a fresh conversion.
func TestPreSeededColumnsClaimed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 8
	chain := randomChainN(rng, n, 3)

	o := MustObject(7, nil,
		Observation{Time: 0, PDF: markov.PointDistribution(n, 2)},
		Observation{Time: 3, PDF: markov.UniformOver(n, []int{1, 4, 5})})
	seg := segFromObservations(o.Observations)

	cols := NewObsColumns()
	cols.AppendSeg(7, seg)
	db := NewDatabaseWithColumns(chain, cols)
	db.MustAdd(o)

	got, ok := db.Columns().segmentOf(o)
	if !ok {
		t.Fatal("pre-seeded segment not claimed by Add")
	}
	if &got.Probs[0] != &seg.Probs[0] {
		t.Fatal("Add re-derived columns instead of adopting the pre-seeded segment")
	}

	// A stale pre-seed (wrong observation count) must be replaced, not
	// adopted.
	cols2 := NewObsColumns()
	cols2.AppendSeg(7, segFromObservations(o.Observations[:1]))
	db2 := NewDatabaseWithColumns(chain, cols2)
	db2.MustAdd(o)
	got2, ok := db2.Columns().segmentOf(o)
	if !ok || !segEqual(got2, seg) {
		t.Fatal("mismatched pre-seed was not replaced by a fresh conversion")
	}
}

// TestWithObservationSingleCopy pins the ingest fast path: appending a
// sighting copies the observation slice exactly once (2 allocations:
// the merged slice and the Object), keeps time order for out-of-order
// arrivals, and reports the same validation errors as NewObject.
func TestWithObservationSingleCopy(t *testing.T) {
	n := 6
	o := MustObject(1, nil,
		Observation{Time: 0, PDF: markov.PointDistribution(n, 0)},
		Observation{Time: 4, PDF: markov.PointDistribution(n, 3)})
	late := Observation{Time: 2, PDF: markov.PointDistribution(n, 1)}

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.WithObservation(late); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("WithObservation allocates %.0f times per append, want <= 2 (single copy)", allocs)
	}

	got, err := o.WithObservation(late)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewObject(1, nil, append(append([]Observation(nil), o.Observations...), late)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Observations) != len(want.Observations) {
		t.Fatalf("merged %d observations, want %d", len(got.Observations), len(want.Observations))
	}
	for i := range got.Observations {
		if got.Observations[i] != want.Observations[i] {
			t.Fatalf("observation %d: %+v, want %+v", i, got.Observations[i], want.Observations[i])
		}
	}
	if got.serial == o.serial {
		t.Fatal("WithObservation did not mint a new serial")
	}

	// Error parity with NewObject for every rejected input.
	bad := []struct {
		obs  Observation
		want string
	}{
		{Observation{Time: -1, PDF: markov.PointDistribution(n, 0)}, "negative observation time"},
		{Observation{Time: 9, PDF: nil}, "nil pdf"},
		{Observation{Time: 9, PDF: markov.NewDistribution(n)}, "carries no mass"},
		{Observation{Time: 4, PDF: markov.PointDistribution(n, 0)}, "duplicate observation time 4"},
	}
	for _, tc := range bad {
		_, err := o.WithObservation(tc.obs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("WithObservation(%+v): err = %v, want substring %q", tc.obs, err, tc.want)
		}
	}
}

// TestColumnarKernelsMatchRow cross-checks the vectorized column
// kernels against the retained row-oriented baselines on random
// multi-observation instances.
func TestColumnarKernelsMatchRow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(5)
		chain := randomChainN(rng, n, 2+rng.Intn(2))
		obs := []Observation{{Time: 0, PDF: markov.UniformOver(n, rng.Perm(n)[:1+rng.Intn(2)])}}
		for k := 0; k < 1+rng.Intn(3); k++ {
			obs = append(obs, Observation{
				Time: obs[len(obs)-1].Time + 1 + rng.Intn(2),
				PDF:  markov.UniformOver(n, rng.Perm(n)[:1+rng.Intn(n-1)]),
			})
		}
		horizon := obs[len(obs)-1].Time + 1
		q := NewQuery(rng.Perm(n)[:1+rng.Intn(2)], []int{1 + rng.Intn(horizon)})
		w, err := compile(q, n)
		if err != nil {
			t.Fatal(err)
		}

		col, colErr := existsMultiObs(context.Background(), chain, obs, w)
		row, rowErr := existsMultiObsRow(context.Background(), chain, obs, w)
		if (colErr == nil) != (rowErr == nil) {
			t.Fatalf("trial %d: exists error mismatch: %v vs %v", trial, colErr, rowErr)
		}
		if colErr == nil && math.Abs(col-row) > 1e-12 {
			t.Fatalf("trial %d: columnar P∃ = %g, row %g", trial, col, row)
		}

		tq := rng.Intn(horizon + 1)
		cd, cdErr := posteriorAtSeg(chain, segFromObservations(obs), tq, nil)
		rd, rdErr := posteriorAtRow(chain, obs, tq)
		if (cdErr == nil) != (rdErr == nil) {
			t.Fatalf("trial %d: posterior error mismatch: %v vs %v", trial, cdErr, rdErr)
		}
		if cdErr != nil {
			continue
		}
		for s := 0; s < n; s++ {
			if math.Abs(cd.At(s)-rd.P(s)) > 1e-12 {
				t.Fatalf("trial %d: posterior(t=%d) state %d: columnar %g, row %g",
					trial, tq, s, cd.At(s), rd.P(s))
			}
		}
	}
}

// TestPerObjectCacheAcrossIngest pins the serial-keyed caching: repeat
// posterior and multi-observation evaluations of an UNCHANGED object
// stay cached across ingest of other objects (generation advances), and
// only the changed object recomputes.
func TestPerObjectCacheAcrossIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 10
	chain := randomChainN(rng, n, 3)
	db := NewDatabase(chain)
	o := MustObject(0, nil,
		Observation{Time: 0, PDF: markov.PointDistribution(n, 1)},
		Observation{Time: 4, PDF: markov.UniformOver(n, []int{2, 3, 5, 7})})
	db.MustAdd(o)
	e := NewEngine(db, Options{})

	if _, err := e.Marginal(o, 2); err != nil {
		t.Fatal(err)
	}
	base := e.CacheStats()
	if _, err := e.Marginal(o, 2); err != nil {
		t.Fatal(err)
	}
	s := e.CacheStats()
	if s.Misses != base.Misses || s.Hits != base.Hits+1 {
		t.Fatalf("repeat Marginal not cached: before %+v after %+v", base, s)
	}

	// Ingest a different object: the generation advances, but the
	// serial-keyed posterior of the unchanged object must stay warm.
	if err := db.AddSimple(99, markov.PointDistribution(n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Marginal(o, 2); err != nil {
		t.Fatal(err)
	}
	s2 := e.CacheStats()
	if s2.Misses != s.Misses {
		t.Fatalf("ingest of object 99 expired object 0's cached posterior: %+v -> %+v", s, s2)
	}

	// Same contract for the multi-observation P∃ scalar through Evaluate.
	req := NewRequest(PredicateExists, WithStates(Interval(2, 5)), WithTimes(Interval(1, 5)))
	if _, err := e.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	r2, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache.Misses != 0 {
		t.Fatalf("repeat multi-obs Evaluate not fully cached: %+v", r2.Cache)
	}
}
