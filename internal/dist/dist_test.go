package dist_test

// End-to-end tests of the distributed deployment: a coordinator-side
// shard.Router whose every shard is a remote ustserve worker — real
// service.Service instances behind real localhost HTTP servers, wire
// codec and all — plus the networked sweep lease tier between them.
// The central invariant is unchanged from the in-process router:
// byte-identical results to a single engine over the same database, at
// every worker count, including aggregates, batch and streaming.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ust/client"
	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/dist"
	"ust/internal/service"
	"ust/internal/shard"
	"ust/internal/spatial"
)

// fleet is one distributed deployment under test: N worker services
// (each behind its own HTTP server) and a coordinator-side router over
// them, with the sweep lease tier served by a coordinator service.
type fleet struct {
	router  *shard.Router
	workers []*service.Service
	clients []*client.Client
	coord   *service.Service
}

// newFleet builds a deployment with one worker process per shard. Worker
// datasets are pre-created empty (same default chain, same resolver —
// the deployment-side move that lets region queries ground remotely);
// the router's construction then populates them through the migration
// protocol. Workers join the coordinator's sweep tier over HTTP.
func newFleet(t *testing.T, db *core.Database, res spatial.Resolver, shards int, workerOpts core.Options) *fleet {
	t.Helper()
	return newFleetVia(t, db, res, shards, workerOpts, nil)
}

// newFleetVia is newFleet with every worker client's transport wrapped
// by via (nil: unwrapped) — how tests see what the coordinator sends.
func newFleetVia(t *testing.T, db *core.Database, res spatial.Resolver, shards int, workerOpts core.Options, via func(http.RoundTripper) http.RoundTripper) *fleet {
	t.Helper()
	coord := service.New(service.Config{Role: "coordinator"})
	coordTS := httptest.NewServer(service.NewHandler(coord))
	t.Cleanup(func() { coord.Close(); coordTS.Close() })
	if workerOpts.Sweeps == nil {
		workerOpts.Sweeps = dist.NewSweepClient(coordTS.URL, nil)
	}

	f := &fleet{coord: coord}
	for i := 0; i < shards; i++ {
		wsvc := service.New(service.Config{Options: workerOpts, Role: "worker"})
		if err := wsvc.Create(fmt.Sprintf("conf.shard%d", i), core.NewDatabase(db.DefaultChain()), res); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(service.NewHandler(wsvc))
		t.Cleanup(func() { wsvc.Close(); ts.Close() })
		f.workers = append(f.workers, wsvc)
		hc := ts.Client()
		if via != nil {
			hc.Transport = via(hc.Transport)
		}
		f.clients = append(f.clients, client.NewWithConfig(ts.URL, client.Config{HTTPClient: hc}))
	}
	router, err := dist.NewRouter(db, shards, core.Options{}, "conf", f.clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	f.router = router
	return f
}

// TestDistributedConformance runs the shared conformance table against
// a live multi-process-shaped deployment at every worker count the PR
// cares about: requests fan out to worker HTTP servers, results travel
// back through the wire codec, aggregates come home as factors and fold
// coordinator-side — all byte-identical to a single engine.
func TestDistributedConformance(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", shards), func(t *testing.T) {
			db, res := conformance.NewDataset()
			f := newFleet(t, db, res, shards, core.Options{})
			ref := core.NewEngine(db, core.Options{})
			conformance.Verify(t, res, ref, f.router, conformance.Options{SkipSerialMC: true})
		})
	}
}

// TestDistributedMultiObsConformance runs the multi-observation table,
// including the ingest-during-query pass: observations appended through
// the coordinator's router must migrate to the owning worker before the
// table replays.
func TestDistributedMultiObsConformance(t *testing.T) {
	db, res := conformance.NewMultiObsDataset()
	f := newFleet(t, db, res, 2, core.Options{})
	ref := core.NewEngine(db, core.Options{})
	conformance.VerifyMultiObs(t, db, res, ref, f.router, f.router.Observe,
		conformance.Options{SkipSerialMC: true})
}

// TestSweepLeaseMissEquality pins the acceptance criterion of the
// networked sweep tier: for a repeated-query workload, the SUMMED
// worker cache misses equal a single engine's miss count — each
// distinct backward sweep is computed exactly once fleet-wide (the
// lease holder's miss), every other worker adopts the payload as a hit.
func TestSweepLeaseMissEquality(t *testing.T) {
	reqs := []core.Request{
		core.NewRequest(core.PredicateExists,
			core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8))),
		core.NewRequest(core.PredicateForAll,
			core.WithStates(core.Interval(10, 30)), core.WithTimes(core.Interval(2, 6))),
	}
	workload := func(t *testing.T, eval func(core.Request) error) {
		t.Helper()
		for round := 0; round < 3; round++ {
			for _, req := range reqs {
				if err := eval(req); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Reference: a fresh single engine, no tier.
	refDB, _ := conformance.NewDataset()
	single := core.NewEngine(refDB, core.Options{})
	workload(t, func(req core.Request) error {
		_, err := single.Evaluate(context.Background(), req)
		return err
	})
	want := single.CacheStats().Misses

	db, res := conformance.NewDataset()
	f := newFleet(t, db, res, 3, core.Options{})
	workload(t, func(req core.Request) error {
		_, err := f.router.Evaluate(context.Background(), req)
		return err
	})
	var got uint64
	for _, w := range f.workers {
		got += w.CacheStats().Misses
	}
	if got != want {
		t.Fatalf("summed worker misses %d, single engine %d (each sweep must be computed once fleet-wide)", got, want)
	}
	if st := f.coord.Sweeps().Stats(); st.Fills == 0 {
		t.Fatalf("lease tier saw no fills; stats %+v", st)
	}
}

// TestSweepTierDegradesWithoutCoordinator pins the tier's failure
// contract: a worker whose sweep tier points at a dead coordinator
// still answers every query correctly — the tier is an optimization,
// every error path falls back to local compute.
func TestSweepTierDegradesWithoutCoordinator(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	db, res := conformance.NewDataset()
	f := newFleet(t, db, res, 2, core.Options{Sweeps: dist.NewSweepClient(deadURL, nil)})
	ref := core.NewEngine(db, core.Options{})
	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)))
	want, err := ref.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.router.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("degraded fleet returned %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
			t.Fatalf("result %d diverged under dead tier: %+v vs %+v", i, got.Results[i], want.Results[i])
		}
	}
	_ = res
}

// TestDistributedRebalance drives the live-rebalance path over real
// HTTP workers: grow the ring by a worker, verify byte-identical
// results, shrink a worker away, verify again. Every migration travels
// as generation-fenced Import/Evict batches.
func TestDistributedRebalance(t *testing.T) {
	db, res := conformance.NewDataset()
	f := newFleet(t, db, res, 2, core.Options{})

	// The grown shard lands on a fresh worker process. Its dataset is
	// pre-created with the resolver (the deployment-side move that lets
	// region queries ground remotely); the grown label on a 2-shard ring
	// is max+1 = 2, so Factory will adopt "conf.shard2" via 409.
	wsvc := service.New(service.Config{Role: "worker"})
	if err := wsvc.Create("conf.shard2", core.NewDatabase(db.DefaultChain()), res); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(wsvc))
	t.Cleanup(func() { wsvc.Close(); ts.Close() })
	grownClient := client.NewWithConfig(ts.URL, client.Config{HTTPClient: ts.Client()})
	label, err := f.router.Grow(dist.Factory("conf", []*client.Client{grownClient}, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewEngine(db, core.Options{})
	conformance.Verify(t, res, ref, f.router, conformance.Options{SkipSerialMC: true})

	if err := f.router.Shrink(label); err != nil {
		t.Fatal(err)
	}
	conformance.Verify(t, res, ref, f.router, conformance.Options{SkipSerialMC: true})
}

// TestStaleGenerationRejected pins the migration fence end to end: a
// replayed Import (same generation) against a live worker is rejected
// with HTTP 409 and changes nothing.
func TestStaleGenerationRejected(t *testing.T) {
	db, res := conformance.NewDataset()
	f := newFleet(t, db, res, 2, core.Options{})
	_ = res

	// Find a worker dataset and its current object count.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	infos, err := f.clients[0].Datasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("worker datasets: %+v", infos)
	}
	name := infos[0].Name

	// Replay generation 1 (the bootstrap sync already used it).
	err = f.clients[0].EvictObjects(ctx, name, 1, []int{db.Objects()[0].ID})
	var ae *client.APIError
	if err == nil || !errors.As(err, &ae) || ae.Status != 409 {
		t.Fatalf("stale-generation evict: %v", err)
	}
	after, err := f.clients[0].Dataset(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if after.Objects != infos[0].Objects {
		t.Fatalf("stale evict mutated the worker: %d -> %d objects", infos[0].Objects, after.Objects)
	}
}
