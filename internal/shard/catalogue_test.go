package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/markov"
)

// backendIDs lists, per copy of a member's slice, the ids its database
// holds in insertion order: one list for a LocalBackend, one per replica
// for a Replicated over LocalBackends.
func backendIDs(t *testing.T, b Backend) [][]int {
	t.Helper()
	if rb, ok := b.(*Replicated); ok {
		var out [][]int
		for _, r := range rb.replicas {
			out = append(out, backendIDs(t, r)...)
		}
		return out
	}
	lb, ok := b.(*LocalBackend)
	if !ok {
		t.Fatalf("backend %T holds no local database", b)
	}
	var ids []int
	for _, o := range lb.engine.Database().Objects() {
		ids = append(ids, o.ID)
	}
	return [][]int{ids}
}

// TestCatalogueMatchesBackends runs seeded sequences of writes and
// rebalances over plain LocalBackends and over Replicated (k = 2)
// copies of them. After every step each member's catalogue must list
// exactly the ids its backend's database holds, in its order, and the
// multi-observation table must equal a single engine over the full
// database.
func TestCatalogueMatchesBackends(t *testing.T) {
	factories := map[string]BackendFactory{
		"local": LocalFactory(core.Options{}),
		"replicated": func(label int, def *markov.Chain) (Backend, error) {
			a, _ := LocalFactory(core.Options{})(label, def)
			b, _ := LocalFactory(core.Options{})(label, def)
			return NewReplicated([]Backend{a, b}, nil), nil
		},
	}
	for name, factory := range factories {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				db, res := conformance.NewMultiObsDataset()
				router, err := NewWithBackends(db, 2, core.Options{}, factory)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { router.Close() })
				rng := rand.New(rand.NewPCG(seed, 0))
				pick := func() *core.Object { objs := db.Objects(); return objs[rng.IntN(len(objs))] }
				nextID := 1000
				steps := []struct {
					name string
					do   func() error
				}{
					{"observe", func() error {
						o := pick()
						return router.Observe(o.ID, conformance.NextObservation(db, o))
					}},
					{"add", func() error {
						// A twin of an existing object: a consistent track.
						o := pick()
						nextID++
						return router.Add(core.MustObject(nextID, o.Chain, o.Observations...))
					}},
					{"replace", func() error {
						o := pick()
						keep := max(1, len(o.Observations)-1)
						return router.ReplaceObject(core.MustObject(o.ID, o.Chain, o.Observations[:keep]...))
					}},
					{"grow", func() error { _, err := router.Grow(nil); return err }},
					{"shrink", func() error {
						labels := router.Labels()
						if len(labels) == 1 {
							return nil
						}
						return router.Shrink(labels[rng.IntN(len(labels))])
					}},
				}
				for i := 0; i < 10; i++ {
					step := steps[rng.IntN(len(steps))]
					if err := step.do(); err != nil {
						t.Fatalf("step %d (%s): %v", i, step.name, err)
					}
					for _, m := range router.members {
						for j, ids := range backendIDs(t, m.backend) {
							if !slices.Equal(m.ids, ids) {
								t.Fatalf("step %d (%s): shard %d copy %d holds %v, catalogue %v", i, step.name, m.label, j, ids, m.ids)
							}
						}
					}
					t.Run(fmt.Sprintf("step=%d-%s", i, step.name), func(t *testing.T) {
						conformance.VerifyMultiObs(t, db, res, core.NewEngine(db, core.Options{}), router, nil,
							conformance.Options{SkipSerialMC: true})
					})
				}
			})
		}
	}
}

// TestMutationBehindRouterFails pins the router's single-writer
// contract: once its database changes behind it, every read and write
// fails with one error naming both versions, instead of resyncing.
func TestMutationBehindRouterFails(t *testing.T) {
	db, _ := conformance.NewDataset()
	router, err := New(db, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	wrote := db.Version()
	db.MustAdd(core.MustObject(9001, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(64, 7)}))
	want := fmt.Sprintf("version %d, router wrote %d", db.Version(), wrote)

	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)))
	ctx := context.Background()
	var first string
	check := func(call string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s after a mutation behind the router: %v, want an error naming %q", call, err, want)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("%s: %v, want the same error as before: %s", call, err, first)
		}
	}
	_, err = router.Evaluate(ctx, req)
	check("evaluate", err)
	for _, err := range router.EvaluateSeq(ctx, req) {
		check("stream", err)
		break
	}
	_, err = router.EvaluateBatch(ctx, []core.Request{req})
	check("batch", err)
	o := db.Objects()[0]
	check("observe", router.Observe(o.ID, core.Observation{Time: 9, PDF: markov.PointDistribution(64, 7)}))
	check("add", router.Add(core.MustObject(9002, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(64, 7)})))
	check("replace", router.ReplaceObject(o))
	_, err = router.Grow(nil)
	check("grow", err)
	check("shrink", router.Shrink(0))
}

// TestTopKBeyondResults asks for more ranked results than the database
// holds — up to math.MaxInt — and gets exactly the single engine's
// answer: the merge sizes its output from the results present.
func TestTopKBeyondResults(t *testing.T) {
	db, _ := conformance.NewDataset()
	router, err := New(db, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	single := core.NewEngine(db, core.Options{})
	for _, k := range []int{db.Len() + 1, math.MaxInt} {
		req := core.NewRequest(core.PredicateExists,
			core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)), core.WithTopK(k))
		want, err := single.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("top-%d: %v", k, err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("top-%d: sharded %d results, single engine %d", k, len(got.Results), len(want.Results))
		}
	}
}

// TestLocalBackendEvictAllOrNone pins LocalBackend's Evict to a
// worker's: a batch naming an unknown or repeated id refuses before
// removing anything, and a valid batch removes its ids, keeping the
// survivors' order.
func TestLocalBackendEvictAllOrNone(t *testing.T) {
	db, _ := conformance.NewDataset()
	b, _ := LocalFactory(core.Options{})(0, db.DefaultChain())
	if err := b.Import(context.Background(), 1, db.Objects()[:4]); err != nil {
		t.Fatal(err)
	}
	ids := backendIDs(t, b)[0]
	for _, bad := range [][]int{{ids[0], -1}, {ids[1], ids[1]}} {
		if err := b.Evict(context.Background(), 2, bad); err == nil {
			t.Fatalf("evict %v accepted", bad)
		}
		if got := backendIDs(t, b)[0]; !slices.Equal(got, ids) {
			t.Fatalf("refused evict %v left %v, want %v", bad, got, ids)
		}
	}
	if err := b.Evict(context.Background(), 3, []int{ids[2], ids[0]}); err != nil {
		t.Fatal(err)
	}
	if got, want := backendIDs(t, b)[0], []int{ids[1], ids[3]}; !slices.Equal(got, want) {
		t.Fatalf("after evict: %v, want %v", got, want)
	}
}
