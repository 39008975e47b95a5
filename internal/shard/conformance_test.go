package shard

import (
	"context"
	"fmt"
	"testing"

	"ust/internal/conformance"
	"ust/internal/core"
)

// TestShardedConformance pins the router, at every shard count the PR
// cares about, to byte-identical results against a single engine over
// the same database — the whole point of the merge layer. Serial
// Monte-Carlo is exempt by documented design (per-object seeding); the
// seeded MC cases cover sampling. The unordered dataset, whose pdfs are
// built from states listed out of order, is held to the same bits.
func TestShardedConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		for _, unordered := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d", shards)
			if unordered {
				name = "unordered/" + name
			}
			t.Run(name, func(t *testing.T) {
				db, res := conformance.NewDataset()
				if unordered {
					db = conformance.NewUnorderedDataset()
				}
				ref := core.NewEngine(db, core.Options{})
				router, err := New(db, shards, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				conformance.Verify(t, res, ref, router, conformance.Options{SkipSerialMC: true})
			})
		}
	}
}

// TestShardedMultiObsConformance runs the multi-observation table — all
// objects carry ≥3 sightings, so the interpolating kernels answer every
// case — against the router at each shard count, including the
// ingest-during-query pass: observations appended through
// Router.Observe must reach every shard replica before the table
// replays.
func TestShardedMultiObsConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, res := conformance.NewMultiObsDataset()
			ref := core.NewEngine(db, core.Options{})
			router, err := New(db, shards, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			conformance.VerifyMultiObs(t, db, res, ref, router, router.Observe,
				conformance.Options{SkipSerialMC: true})
		})
	}
}

// TestShardedCounterAggregation pins the Response bookkeeping across
// shards: Filter funnel counters and the planner estimates must equal
// the single-engine run's exactly, and — because the shared cache's
// per-key single-flight computes each distinct sweep once fleet-wide —
// the summed cache Misses must too (the summed Hits additionally count
// each other shard's lookup of the same sweep).
func TestShardedCounterAggregation(t *testing.T) {
	db, res := conformance.NewDataset()
	ctx := context.Background()
	cases := []struct {
		name string
		req  core.Request
		// exactFilter: the filter funnel is a per-object decision
		// (threshold against fixed τ), so shard sums must equal the
		// single run exactly. Top-k pruning races an evolving bar and
		// is only candidate-count comparable.
		exactFilter bool
		// exactMisses: every sweep the single engine computes is
		// computed exactly once fleet-wide (scan and threshold paths;
		// top-k refinement sets depend on the bar).
		exactMisses bool
	}{
		{"scan-qb", core.NewRequest(core.PredicateExists,
			core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8))),
			true, true},
		{"threshold-filtered", core.NewRequest(core.PredicateExists,
			core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)),
			core.WithThreshold(0.25)),
			true, true},
		{"topk-auto", core.NewRequest(core.PredicateExists,
			core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)),
			core.WithAutoPlan(), core.WithTopK(7)),
			false, false},
	}
	_ = res
	for _, tc := range cases {
		req := tc.req
		t.Run(tc.name, func(t *testing.T) {
			single := core.NewEngine(db, core.Options{})
			router, err := New(db, 8, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := single.Evaluate(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := router.Evaluate(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if tc.exactMisses && got.Cache.Misses != want.Cache.Misses {
				t.Errorf("summed cache misses %d, single engine %d (sweeps must compute once fleet-wide)",
					got.Cache.Misses, want.Cache.Misses)
			}
			if got.Cache.Hits+got.Cache.Misses < want.Cache.Hits+want.Cache.Misses {
				t.Errorf("sharded cache traffic %d+%d lost lookups vs single %d+%d",
					got.Cache.Hits, got.Cache.Misses, want.Cache.Hits, want.Cache.Misses)
			}
			if tc.exactFilter {
				if got.Filter != want.Filter {
					t.Errorf("summed filter funnel %+v, single engine %+v", got.Filter, want.Filter)
				}
			} else if got.Filter.Candidates != want.Filter.Candidates {
				t.Errorf("summed filter candidates %d, single engine %d",
					got.Filter.Candidates, want.Filter.Candidates)
			}
			if len(got.Plans) != len(want.Plans) {
				t.Errorf("plans length %d vs %d", len(got.Plans), len(want.Plans))
			}
			for i := range got.Plans {
				if got.Plans[i] != want.Plans[i] {
					t.Errorf("plan %d: sharded %+v, single %+v", i, got.Plans[i], want.Plans[i])
				}
			}
		})
	}
}
