package shard

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/markov"
)

// TestFailedWriteChangesNothing pins the write path's failure contract
// against a shard that refuses one Import: the write returns the error,
// the next query equals the pre-write oracle (the coordinator neither
// plans nor orders over an object its worker never received), the
// failure is counted against the shard, and the same write retried
// succeeds and equals the post-write oracle.
func TestFailedWriteChangesNothing(t *testing.T) {
	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)))
	same := func(t *testing.T, stage string, router *Router, oracleDB *core.Database) {
		t.Helper()
		want, err := core.NewEngine(oracleDB, core.Options{}).Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: router diverged from the oracle (%d vs %d results)", stage, len(got.Results), len(want.Results))
		}
	}

	target := 0 // set per subtest, before the router exists
	writes := map[string]struct {
		write  func(r *Router) error
		oracle func(db *core.Database)
	}{
		"observe": {
			write: func(r *Router) error {
				return r.Observe(target, core.Observation{Time: 10, PDF: markov.PointDistribution(64, 45)})
			},
			oracle: func(db *core.Database) {
				upd, err := db.Get(target).WithObservation(core.Observation{Time: 10, PDF: markov.PointDistribution(64, 45)})
				if err != nil {
					panic(err)
				}
				if err := db.ReplaceObject(upd); err != nil {
					panic(err)
				}
			},
		},
		"add": {
			write: func(r *Router) error {
				return r.Add(core.MustObject(9001, nil, core.Observation{Time: 4, PDF: markov.PointDistribution(64, 45)}))
			},
			oracle: func(db *core.Database) {
				db.MustAdd(core.MustObject(9001, nil, core.Observation{Time: 4, PDF: markov.PointDistribution(64, 45)}))
			},
		},
		"replace": {
			write: func(r *Router) error {
				return r.ReplaceObject(core.MustObject(target, nil, core.Observation{Time: 4, PDF: markov.PointDistribution(64, 45)}))
			},
			oracle: func(db *core.Database) {
				if err := db.ReplaceObject(core.MustObject(target, nil, core.Observation{Time: 4, PDF: markov.PointDistribution(64, 45)})); err != nil {
					panic(err)
				}
			},
		},
	}
	for name, w := range writes {
		t.Run(name, func(t *testing.T) {
			db, _ := conformance.NewDataset()
			oracleDB, _ := conformance.NewDataset()
			target = db.Objects()[2].ID // default chain, observed at t=2
			fail := 0
			router, err := NewWithBackends(db, 2, core.Options{}, func(label int, def *markov.Chain) (Backend, error) {
				f := newFaulty(def, label, 0)
				f.failImports = &fail
				return f, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			same(t, "before the write", router, oracleDB)
			objects := db.Len()

			fail = 1
			if err := w.write(router); !errors.Is(err, errImportDown) {
				t.Fatalf("write against a refusing shard: %v, want the import error", err)
			}
			if db.Len() != objects {
				t.Fatalf("failed write left %d objects in the full database, want %d", db.Len(), objects)
			}
			same(t, "after the failed write", router, oracleDB)
			failed := uint64(0)
			for _, st := range router.ImportFailures() {
				failed += st.Failures
			}
			if failed != 1 || len(router.ImportFailures()) != 2 {
				t.Fatalf("import failures %v, want one failure over two shards", router.ImportFailures())
			}

			if err := w.write(router); err != nil {
				t.Fatalf("retried write: %v", err)
			}
			w.oracle(oracleDB)
			same(t, "after the retried write", router, oracleDB)
		})
	}
}

// TestFailedRebalanceFailsLoudly pins the rebalance failure contract
// over shards that hold their own slices. grow: a source shard refuses
// its Evict after the joining shard took the moving objects, so the
// catalogues and the shards may disagree — Grow, and every later write and read, return one error
// naming the step and wrapping the refusal. grow-joining-import: the
// joining shard refuses the moving objects before any serving shard was
// touched — Grow fails, the router answers as before, and the next Grow
// succeeds. Either way the joining backend is closed.
func TestFailedRebalanceFailsLoudly(t *testing.T) {
	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)))
	build := func(t *testing.T) (*Router, *core.Database, *[]*faulty, *int, *int) {
		t.Helper()
		db, _ := conformance.NewDataset()
		var built []*faulty
		failImports, failEvicts := new(int), new(int)
		router, err := NewWithBackends(db, 2, core.Options{}, func(label int, def *markov.Chain) (Backend, error) {
			f := newFaulty(def, label, 0)
			f.failImports, f.failEvicts = failImports, failEvicts
			built = append(built, f)
			return f, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { router.Close() })
		return router, db, &built, failImports, failEvicts
	}
	oracle := func(t *testing.T, db *core.Database) []core.Result {
		t.Helper()
		want, err := core.NewEngine(db, core.Options{}).Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return want.Results
	}

	t.Run("grow", func(t *testing.T) {
		router, db, built, _, failEvicts := build(t)
		*failEvicts = 1
		_, growErr := router.Grow(nil)
		if !errors.Is(growErr, errEvictDown) || *failEvicts != 0 {
			t.Fatalf("grow against a refusing source: %v, want the evict error", growErr)
		}
		if joining := (*built)[len(*built)-1]; !joining.closed {
			t.Fatal("the joining backend was left open")
		}
		loud := func(stage string, err error) {
			t.Helper()
			if err == nil || err.Error() != growErr.Error() {
				t.Fatalf("%s after the failed grow: %v, want %v", stage, err, growErr)
			}
		}
		loud("observe", router.Observe(db.Objects()[3].ID, core.Observation{Time: 10, PDF: markov.PointDistribution(64, 45)}))
		loud("add", router.Add(core.MustObject(9001, nil, core.Observation{Time: 4, PDF: markov.PointDistribution(64, 45)})))
		_, err := router.Evaluate(context.Background(), req)
		loud("evaluate", err)
		for _, err := range router.EvaluateSeq(context.Background(), req) {
			loud("stream", err)
			break
		}
		_, err = router.Grow(nil)
		loud("grow", err)
	})

	t.Run("grow-joining-import", func(t *testing.T) {
		router, db, built, failImports, _ := build(t)
		*failImports = 1
		if _, err := router.Grow(nil); !errors.Is(err, errImportDown) {
			t.Fatalf("grow against a refusing joiner: %v, want the import error", err)
		}
		if joining := (*built)[len(*built)-1]; !joining.closed {
			t.Fatal("the joining backend was left open")
		}
		got, err := router.Evaluate(context.Background(), req)
		if err != nil || !reflect.DeepEqual(got.Results, oracle(t, db)) {
			t.Fatalf("router after a harmless failed grow: err %v, results diverged", err)
		}
		if _, err := router.Grow(nil); err != nil {
			t.Fatalf("retried grow: %v", err)
		}
		if got, err = router.Evaluate(context.Background(), req); err != nil || !reflect.DeepEqual(got.Results, oracle(t, db)) {
			t.Fatalf("router after the retried grow: err %v, results diverged", err)
		}
	})
}
