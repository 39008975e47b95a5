// Distributed: a multi-process-shaped deployment, in one process.
//
// The same fleet of uncertain objects, now served by a coordinator and
// two workers connected over real localhost HTTP — the exact topology
// `ustserve -coordinator -worker URL…` deploys across machines. The
// walkthrough stands up:
//
//	client ──HTTP──▶ coordinator (shard.Router over remote backends)
//	        ┌──────────┴──────────┐
//	      worker0             worker1     (one dataset slice each)
//	        └──────────┬──────────┘
//	          /v1/sweeps lease tier
//
// and then shows the four properties the deployment is built around:
//
//  1. Byte-identical answers: the distributed fleet returns the same
//     float64 bits as a single in-process engine.
//  2. One backward sweep fleet-wide: workers share sweeps through the
//     coordinator's lease tier, so each distinct sweep is computed once
//     (the lease holder's miss) and adopted everywhere else.
//  3. Live rebalance: the ring grows a third worker and shrinks it away
//     while staying correct — objects migrate through generation-fenced
//     Import/Evict batches.
//  4. Graceful degradation: a dead lease holder stalls waiters only
//     until the lease TTL, then one of them takes over and computes.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"reflect"
	"time"

	"ust"
	"ust/client"
	"ust/internal/core"
	"ust/internal/dist"
	"ust/internal/service"
)

func main() {
	ctx := context.Background()

	// A synthetic Table-I-style fleet: 300 objects over 1500 states.
	p := ust.DefaultSyntheticParams(42)
	p.NumObjects, p.NumStates = 300, 1500
	db, err := ust.GenerateSyntheticDatabase(p)
	if err != nil {
		log.Fatal(err)
	}

	// The coordinator process: hosts the sweep lease tier at /v1/sweeps
	// and (in a real deployment) the router serving client queries.
	coord := service.New(service.Config{Role: "coordinator"})
	coordSrv := httptest.NewServer(service.NewHandler(coord))
	defer func() { coord.Close(); coordSrv.Close() }()

	// Two worker processes. Each joins the coordinator's sweep tier —
	// the exact wiring `ustserve -sweep-tier <coordinator URL>` does.
	newWorker := func() (*service.Service, *client.Client) {
		w := service.New(service.Config{
			Role:    "worker",
			Options: core.Options{Sweeps: dist.NewSweepClient(coordSrv.URL, nil)},
		})
		srv := httptest.NewServer(service.NewHandler(w))
		return w, client.NewWithConfig(srv.URL, client.Config{
			HTTPClient: srv.Client(),
			MaxRetries: 3, // idempotent requests survive transient 5xx
		})
	}
	w0, c0 := newWorker()
	w1, c1 := newWorker()
	defer func() { w0.Close(); w1.Close() }()

	// The coordinator-side router: every shard a remote worker dataset
	// ("demo.shard0" on worker0, "demo.shard1" on worker1), populated
	// through the migration protocol during construction.
	router, err := dist.NewRouter(db, 2, core.Options{}, "demo", []*client.Client{c0, c1})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()
	fmt.Printf("deployment: %d objects over %d states, 2 remote workers\n",
		db.Len(), p.NumStates)

	// 1. Byte-identical answers across the process boundary.
	single := ust.NewEngine(db, ust.Options{})
	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(100, 160)),
		core.WithTimes(core.Interval(12, 17)),
		core.WithTopK(5))
	want, err := single.Evaluate(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	got, err := router.Evaluate(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-5 identical across the wire: %v\n",
		reflect.DeepEqual(want.Results, got.Results))
	for _, r := range got.Results {
		fmt.Printf("  object %4d  P∃ = %.6f\n", r.ObjectID, r.Prob)
	}

	// 2. One backward sweep fleet-wide: re-running the query hits the
	// workers' caches; the lease tier's counters show each distinct
	// sweep was filled once and served to everyone else.
	if _, err := router.Evaluate(ctx, req); err != nil {
		log.Fatal(err)
	}
	st := coord.Sweeps().Stats()
	fmt.Printf("sweep lease tier: %d leases granted, %d payloads filled, %d served from the board\n",
		st.Leases, st.Fills, st.Served)

	// 3. Live rebalance: grow a third worker into the ring (a slice of
	// every existing shard migrates to it, generation-fenced), verify
	// the answer is still byte-identical, then shrink it back out.
	w2, c2 := newWorker()
	defer w2.Close()
	label, err := router.Grow(dist.Factory("demo", []*client.Client{c2}, 1, nil))
	if err != nil {
		log.Fatal(err)
	}
	grown, err := router.Evaluate(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grew worker %d: still identical: %v\n",
		label, reflect.DeepEqual(want.Results, grown.Results))
	if err := router.Shrink(label); err != nil {
		log.Fatal(err)
	}
	shrunk, err := router.Evaluate(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shrank worker %d away: still identical: %v\n",
		label, reflect.DeepEqual(want.Results, shrunk.Results))

	// 4. Lease takeover: the liveness story when a worker dies holding a
	// computation lease. The board grants the right to compute to one
	// caller; if it never fills (crashed mid-sweep), the next caller
	// waits at most the TTL and then takes the lease over. Demonstrated
	// on a short-TTL board — the same component the coordinator hosts.
	board := service.NewSweepBoard(300*time.Millisecond, 0)
	key := core.SweepKey{Chain: 1, Kind: 1, Sig: 0xdead, T0: 17}
	_, lease, err := board.Acquire(ctx, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worker A holds lease %s … and crashes mid-sweep\n", lease)
	start := time.Now()
	_, takeover, err := board.Acquire(ctx, key) // blocks until the TTL expires
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worker B takes over with lease %s after %v (TTL-bounded stall)\n",
		takeover, time.Since(start).Round(10*time.Millisecond))
	if err := board.Fill(ctx, key, lease, []byte("late")); err != nil {
		fmt.Printf("worker A's late fill rejected: %v\n", err)
	}
}
