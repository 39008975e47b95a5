// Command ustserve serves uncertain-spatio-temporal query evaluation
// over HTTP: the network face of the library's Service layer. It loads
// named datasets from the binary store format (see ustgen), then
// answers batch queries (JSON), streaming scans (NDJSON) and standing
// subscriptions (NDJSON push), with per-request deadlines, admission
// control, and single-flight coalescing of identical concurrent
// requests — observable at /metrics.
//
// Usage:
//
//	ustserve -addr :8080 -dataset fleet=fleet.ust -dataset bergs=bergs.ust
//	         [-max-concurrent N] [-timeout 30s] [-cache-bytes N] [-shards N]
//	         [-coordinator -worker URL ...] [-sweep-tier URL]
//
// -shards N backs every dataset with the consistent-hash shard router:
// objects partition across N shard engines sharing one score cache,
// queries fan out and merge with byte-identical results — single-process
// scale-out over the same wire contract a multi-process deployment
// speaks.
//
// -coordinator turns the process into the front of a multi-process
// deployment: every dataset is served by a ring of remote ustserve
// workers (each -worker URL is one), populated through the migration
// protocol and queried over the wire contract, still byte-identical to
// a single engine. The coordinator also hosts the sweep lease tier at
// /v1/sweeps; point each worker's -sweep-tier at the coordinator so the
// fleet computes each distinct backward sweep exactly once.
//
// -replicas k (coordinator mode) places replica j of shard l on worker
// (l+j) mod W: writes mirror to all replicas under the generation
// fence, and reads go to the primary with automatic
// failover to the next live replica on connection failure or
// probe-declared death — byte-identical results either way, so a
// killed worker costs availability of nothing. The coordinator probes
// every worker's /readyz on -probe-interval (consecutive-failure
// thresholds, no flapping) and exposes ust_worker_healthy{worker} at
// /metrics.
//
// Endpoints:
//
//	GET  /healthz                    liveness
//	GET  /metrics                    Prometheus text format
//	GET  /v1/datasets                list datasets
//	PUT  /v1/datasets/{name}         upload a dataset (binary store bytes)
//	POST /v1/datasets/{name}/observe ingest an observation (JSON, or a
//	                                 binary observation frame as the Go
//	                                 client sends)
//	POST /v1/datasets/{name}/objects track a new object (likewise)
//	POST /v1/query                   batch query
//	POST /v1/query/stream            streaming query (NDJSON)
//	POST /v1/subscribe               standing query (NDJSON push)
//
// The three query endpoints take either a structured request or the
// text query language in the same envelope — {"dataset":d,"query":
// "exists(states(1-9) @ [5,15]) and not forall(...) where tau=0.3"} —
// parsed server-side (see ust/query/README.md). Compound expressions,
// ranking and strategy hints all travel either way.
//
// SIGINT/SIGTERM triggers a graceful shutdown: listeners close, active
// subscriptions terminate, in-flight requests get a drain window.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ust/client"
	"ust/internal/core"
	"ust/internal/dist"
	"ust/internal/service"
	"ust/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", service.DefaultMaxConcurrent, "admission limit on concurrently running evaluations")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline (0 = none)")
	cacheBytes := flag.Int("cache-bytes", 0, "score-cache budget per dataset (0 = default, negative = disabled)")
	shards := flag.Int("shards", 1, "shard engines per dataset (>1 = consistent-hash scale-out, byte-identical results)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	coordinator := flag.Bool("coordinator", false, "serve datasets through a ring of remote workers (-worker URLs)")
	replicas := flag.Int("replicas", 1, "replicas per shard in -coordinator mode (>1 = health-probed read failover)")
	probeEvery := flag.Duration("probe-interval", time.Second, "worker health-probe period in -coordinator mode")
	sweepTier := flag.String("sweep-tier", "", "coordinator URL whose /v1/sweeps lease tier this worker joins")
	var workers []string
	flag.Func("worker", "worker base URL for -coordinator mode (repeatable)", func(v string) error {
		workers = append(workers, v)
		return nil
	})
	var datasets []string
	flag.Func("dataset", "name=path dataset to load at startup (repeatable)", func(v string) error {
		datasets = append(datasets, v)
		return nil
	})
	flag.Parse()

	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be ≥ 1, got %d", *shards))
	}
	opts := core.Options{CacheBytes: *cacheBytes}
	role := "server"
	if *sweepTier != "" {
		opts.Sweeps = dist.NewSweepClient(*sweepTier, nil)
		role = "worker"
	}
	cfg := service.Config{
		Options:        opts,
		MaxConcurrent:  *maxConcurrent,
		DefaultTimeout: *timeout,
		Shards:         *shards,
	}
	if *replicas < 1 {
		fatal(fmt.Errorf("-replicas must be ≥ 1, got %d", *replicas))
	}
	if *replicas > 1 && !*coordinator {
		fatal(fmt.Errorf("-replicas only applies to -coordinator mode"))
	}
	ringMembers := *shards
	var prober *dist.Prober
	if *coordinator {
		if len(workers) == 0 {
			fatal(fmt.Errorf("-coordinator needs at least one -worker URL"))
		}
		role = "coordinator"
		clients := make([]*client.Client, len(workers))
		for i, w := range workers {
			clients[i] = client.NewWithConfig(w, client.Config{MaxRetries: 3})
		}
		n := *shards
		if n < len(workers) {
			n = len(workers)
		}
		ringMembers = n
		if *replicas > 1 {
			// Replica j of shard l lives on worker (l+j) mod W; reads fail
			// over in that order, gated by the active health prober.
			prober = dist.NewProber(clients, workers, dist.ProberConfig{Interval: *probeEvery})
			cfg.WorkerHealth = func() []service.WorkerHealth {
				snap := prober.Snapshot()
				out := make([]service.WorkerHealth, len(snap))
				for i, wh := range snap {
					out[i] = service.WorkerHealth{Worker: wh.Worker, Healthy: wh.Healthy}
				}
				return out
			}
		}
		cfg.Engines = func(name string, db *core.Database) (service.Evaluator, service.Ingester, error) {
			router, err := shard.NewWithBackends(db, n, core.Options{CacheBytes: *cacheBytes}, dist.Factory(name, clients, *replicas, prober))
			if err != nil {
				return nil, nil, err
			}
			return router, router, nil
		}
	}
	cfg.Role = role
	svc := service.New(cfg)
	// Not ready until every -dataset finished loading (and, for a
	// coordinator, its worker rings are populated); /healthz answers the
	// moment the listener is up, /readyz only after this block.
	svc.SetReady(false)
	svc.SetRingMembers(ringMembers)
	for _, spec := range datasets {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fatal(fmt.Errorf("bad -dataset %q (want name=path)", spec))
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = svc.Load(name, f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("loading dataset %q: %w", name, err))
		}
		info, err := svc.Info(name)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ustserve: dataset %q: %d objects over %d states\n",
			info.Name, info.Objects, info.States)
	}
	svc.SetReady(true)
	if prober != nil {
		prober.Start()
		defer prober.Stop()
	}

	// No WriteTimeout: streaming and subscription responses are
	// long-lived by design; the handlers bound each individual write
	// instead, so a stalled reader is cut without capping stream length.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "ustserve: listening on %s\n", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "ustserve: shutting down")
	svc.SetReady(false) // flip /readyz before the drain window
	svc.Close()         // terminate subscriptions so streaming handlers drain
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "ustserve: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ustserve:", err)
	os.Exit(1)
}
