package shard

import (
	"context"
	"errors"
	"iter"
	"reflect"
	"testing"

	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/markov"
)

// copyBackend is a shard that keeps its own copy of the slice, as a
// remote worker does: it holds only what Import gave it, so a write the
// router believes in but never delivered shows up as a wrong answer.
// While failImports > 0 an Import fails without applying anything.
type copyBackend struct {
	db          *core.Database
	engine      *core.Engine
	failImports *int
}

var errImportDown = errors.New("import refused")

func (b *copyBackend) Evaluate(ctx context.Context, req core.Request) (*core.Response, error) {
	return b.engine.Evaluate(ctx, req)
}

func (b *copyBackend) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return b.engine.EvaluateSeq(ctx, req)
}

func (b *copyBackend) AggregateFactors(ctx context.Context, req core.Request) (*core.FactorSet, error) {
	return b.engine.AggregateFactors(ctx, req)
}

func (b *copyBackend) Import(_ context.Context, _ uint64, objs []*core.Object) error {
	if *b.failImports > 0 {
		*b.failImports--
		return errImportDown
	}
	for _, o := range objs {
		var err error
		if b.db.Get(o.ID) == nil {
			err = b.db.Add(o)
		} else {
			err = b.db.ReplaceObject(o)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *copyBackend) Evict(_ context.Context, _ uint64, ids []int) error {
	for _, id := range ids {
		if err := b.db.Remove(id); err != nil {
			return err
		}
	}
	return nil
}

func (b *copyBackend) Close() error { return nil }

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
			router, err := NewWithBackends(db, 2, core.Options{}, func(_ int, shadow *core.Database) (Backend, error) {
				own := core.NewDatabase(shadow.DefaultChain())
				return &copyBackend{db: own, engine: core.NewEngine(own, core.Options{}), failImports: &fail}, nil
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
			for _, n := range router.ImportFailures() {
				failed += n
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
