package ust_test

// Acceptance tests for the shared sweep-kernel layer on the paper's
// Table I synthetic workload: repeated identical requests must be served
// from the score cache, and the object-based filter–refine path must
// answer ranked / thresholded queries with at least 2× fewer exact
// per-object evaluations than the unpruned path — byte-identically.
// The query-based strategy does not filter: its answers and its (zero)
// funnel are the unpruned path's.

import (
	"context"
	"strings"
	"testing"

	"ust"
	"ust/internal/gen"
)

// tableIDB builds a scaled-down Table I database (same generator, same
// shape, smaller sizes so the test stays fast).
func tableIDB(t testing.TB, objects, states int) *ust.Database {
	t.Helper()
	p := gen.Defaults(7)
	p.NumObjects = objects
	p.NumStates = states
	ds, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	db := ust.NewDatabase(ds.Chain)
	for i, o := range ds.Objects {
		if err := db.AddSimple(i, o); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func tableIWindow() (states, times []int) {
	w := gen.DefaultWindow()
	return w.States(1 << 30), w.Times()
}

func sameResults(t *testing.T, label string, got, want []ust.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ObjectID != want[i].ObjectID || got[i].Prob != want[i].Prob {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
		if len(got[i].Dist) != len(want[i].Dist) {
			t.Fatalf("%s: result %d dist length differs", label, i)
		}
		for k := range want[i].Dist {
			if got[i].Dist[k] != want[i].Dist[k] {
				t.Fatalf("%s: result %d dist[%d] differs", label, i, k)
			}
		}
	}
}

func TestTableIRepeatedEvaluateServedFromCache(t *testing.T) {
	db := tableIDB(t, 300, 4000)
	e := ust.NewEngine(db, ust.Options{})
	states, times := tableIWindow()
	req := ust.NewRequest(ust.PredicateExists, ust.WithStates(states), ust.WithTimes(times))

	cold, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Misses == 0 {
		t.Fatalf("cold evaluate reported no sweep computation: %+v", cold.Cache)
	}
	hot, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Cache.Misses != 0 || hot.Cache.Hits == 0 {
		t.Fatalf("repeated evaluate not served from cache: %+v", hot.Cache)
	}
	sameResults(t, "cached repeat", hot.Results, cold.Results)

	if stats := e.CacheStats(); stats.Hits == 0 || stats.Entries == 0 {
		t.Fatalf("engine cache stats empty after traffic: %+v", stats)
	}
}

func TestTableIFilterRefinePrunesAtLeastTwoFold(t *testing.T) {
	db := tableIDB(t, 400, 4000)
	e := ust.NewEngine(db, ust.Options{})
	states, times := tableIWindow()

	cases := []struct {
		name string
		opts []ust.RequestOption
	}{
		{"topk-qb", []ust.RequestOption{ust.WithTopK(20)}},
		{"topk-ob", []ust.RequestOption{ust.WithTopK(20), ust.WithStrategy(ust.StrategyObjectBased)}},
		{"threshold-qb", []ust.RequestOption{ust.WithThreshold(0.05)}},
		{"threshold-ob", []ust.RequestOption{ust.WithThreshold(0.05), ust.WithStrategy(ust.StrategyObjectBased)}},
	}
	for _, tc := range cases {
		opts := append([]ust.RequestOption{ust.WithStates(states), ust.WithTimes(times)}, tc.opts...)
		req := ust.NewRequest(ust.PredicateExists, opts...)
		pruned, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		exact, err := e.Evaluate(context.Background(), req.With(ust.WithFilterRefine(false)))
		if err != nil {
			t.Fatalf("%s exact: %v", tc.name, err)
		}
		sameResults(t, tc.name, pruned.Results, exact.Results)

		f := pruned.Filter
		if strings.HasSuffix(tc.name, "-qb") {
			if f != (ust.FilterReport{}) {
				t.Fatalf("%s: the query-based gate engaged: %+v", tc.name, f)
			}
			continue
		}
		if f.Candidates != db.Len() {
			t.Fatalf("%s: Candidates = %d, want %d", tc.name, f.Candidates, db.Len())
		}
		if f.Refined*2 > f.Candidates {
			t.Fatalf("%s: %d of %d candidates needed exact evaluation; want ≥2× pruning",
				tc.name, f.Refined, f.Candidates)
		}
	}
}
