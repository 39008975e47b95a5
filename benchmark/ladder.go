package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"ust/client"
	"ust/internal/core"
	"ust/internal/dist"
	"ust/internal/service"
	"ust/internal/shard"
)

// The ladder runs the workload's own round — the same ops in the same
// order, writes included, on a dataset freshly loaded from the image —
// against the program at five depths:
//
//	engine   core.Engine.Evaluate
//	service  service.Service.Evaluate, in process
//	client   client.Client.Query, over loopback HTTP to such a service
//	shard    shard.Router.Evaluate over two in-process shards
//	dist     the dist router's Evaluate over two worker services on loopback
//
// and, where it is none of these, against the workload's own deployment
// (fleet_mixed: client → coordinator → dist router → workers). A rung's
// self time is its time minus the time of the rung it is built on:
// service − engine, client − service, shard − engine, dist − shard,
// fleet − dist. With one client nothing queues, so that self time is
// the most a faster layer can save on an op of this workload.
//
// One rung is alive at a time, as one deployment is in the workload:
// five datasets side by side make the collector run a fifth as often,
// and every rung a quarter faster than the workload it is meant to
// explain.

// rung is one depth of the ladder.
type rung struct {
	name, base string
	build      func(*inputs, *tracer) (deployment, error)
	st         *runStats
	opUs       float64 // per op, at the reference sensor reading
	stats      service.Stats
	leases     service.SweepBoardStats
}

type ladder struct {
	rungs  []*rung
	own    *rung // the rung that is the workload's own deployment
	passes int
}

func (l *ladder) rung(name string) *rung {
	for _, r := range l.rungs {
		if r.name == name {
			return r
		}
	}
	panic("benchmark: no rung " + name)
}

// withCleanup is a target with more to tear down than itself.
type withCleanup struct {
	target
	cleanup []func() // run in reverse order after the target's own close
}

func (t withCleanup) close() {
	t.target.close()
	undo(t.cleanup)
}

// undo runs clean-up steps in the reverse of the order they were noted.
func undo(steps []func()) {
	for i := len(steps) - 1; i >= 0; i-- {
		steps[i]()
	}
}

func serviceDeployment(in *inputs, opts core.Options) (deployment, error) {
	db, err := in.load()
	if err != nil {
		return deployment{}, err
	}
	svc := service.New(service.Config{Options: opts})
	if err := svc.Create(datasetName, db, in.resolver()); err != nil {
		svc.Close()
		return deployment{}, err
	}
	return deployment{target: serviceTarget{svc}, service: svc, cacheStats: svc.CacheStats}, nil
}

func clientDeployment(in *inputs, opts core.Options, tr *tracer) (deployment, error) {
	db, err := in.load()
	if err != nil {
		return deployment{}, err
	}
	t, svc, err := newServerTarget(db, in.resolver(), opts, tr)
	if err != nil {
		return deployment{}, err
	}
	return deployment{target: t, service: svc, cacheStats: svc.CacheStats, version: func() (uint64, error) {
		info, err := svc.Info(datasetName)
		return info.Version, err
	}}, nil
}

func shardDeployment(in *inputs, opts core.Options) (deployment, error) {
	db, err := in.load()
	if err != nil {
		return deployment{}, err
	}
	local, err := shard.New(db, fleetWorkers, opts)
	if err != nil {
		return deployment{}, err
	}
	return deployment{target: &evalTarget{ev: local, res: in.resolver(), observe: local.Observe}}, nil
}

// distDeployment is the dist router called directly: two worker
// services on loopback, which lease sweeps from a coordinator that
// serves nothing else.
func distDeployment(in *inputs, opts core.Options) (d deployment, err error) {
	var cleanup []func()
	defer func() {
		if err != nil {
			undo(cleanup)
		}
	}()
	db, err := in.load()
	if err != nil {
		return deployment{}, err
	}
	res := in.resolver()
	coord := service.New(service.Config{Role: "coordinator"})
	ln, coordURL, err := listen()
	if err != nil {
		return deployment{}, err
	}
	srv := serveOn(ln, coordURL, service.NewHandler(coord))
	hc := newHTTPClient()
	cleanup = append(cleanup, hc.CloseIdleConnections, coord.Close, srv.stop)
	var workers []*client.Client
	for i := 0; i < fleetWorkers; i++ {
		wopts := opts
		wopts.Sweeps = dist.NewSweepClient(coordURL, hc)
		w := service.New(service.Config{Role: "worker", Options: wopts})
		cleanup = append(cleanup, w.Close)
		// Created ahead of the router, which adopts it: a worker dataset
		// needs the resolver to ground a region op.
		if err := w.Create(fmt.Sprintf("%s.shard%d", datasetName, i), core.NewDatabase(db.DefaultChain()), res); err != nil {
			return deployment{}, err
		}
		wln, wurl, err := listen()
		if err != nil {
			return deployment{}, err
		}
		cleanup = append(cleanup, serveOn(wln, wurl, service.NewHandler(w)).stop)
		workers = append(workers, client.New(wurl, hc))
	}
	router, err := dist.NewRouter(db, fleetWorkers, opts, datasetName, workers)
	if err != nil {
		return deployment{}, err
	}
	t := &evalTarget{ev: router, res: res, observe: router.Observe}
	return deployment{target: withCleanup{t, cleanup}, board: coord.Sweeps()}, nil
}

func newLadder(p *plan) *ladder {
	opts := p.w.options
	l := &ladder{rungs: []*rung{
		{name: "engine", build: func(in *inputs, _ *tracer) (deployment, error) {
			return engineDeployment(in, opts, in.resolver(), nil)
		}},
		{name: "service", base: "engine", build: func(in *inputs, _ *tracer) (deployment, error) { return serviceDeployment(in, opts) }},
		{name: "client", base: "service", build: func(in *inputs, _ *tracer) (deployment, error) { return clientDeployment(in, opts, nil) }},
		{name: "shard", base: "engine", build: func(in *inputs, _ *tracer) (deployment, error) { return shardDeployment(in, opts) }},
		{name: "dist", base: "shard", build: func(in *inputs, _ *tracer) (deployment, error) { return distDeployment(in, opts) }},
	}}
	switch p.w.name {
	case "serve_hot":
		l.own = l.rung("client")
	case "sweep_cold", "scan_ob":
		l.own = l.rung("engine")
	default:
		l.own = &rung{name: p.w.name, base: "dist", build: p.w.setup}
		l.rungs = append(l.rungs, l.own)
	}
	for _, r := range l.rungs {
		r.st = newRunStats()
	}
	return l
}

// climb runs passes for about the given time, and at least two. A pass
// visits every rung in turn, so that a slow spell of the machine hits
// all rungs alike: one set-up, the warm-up, and the round's distinct
// slices. Every answer is held to the same digests as in the workload.
func (l *ladder) climb(ctx context.Context, p *plan, seconds float64) error {
	start := time.Now()
	for {
		for _, r := range l.rungs {
			d, err := r.st.setUp(ctx, p, r.build, nil)
			if err != nil {
				return fmt.Errorf("benchmark: ladder rung %s: %w", r.name, err)
			}
			err = r.st.timeSlices(ctx, p, d, l.passes, p.distinct, nil)
			if d.service != nil {
				r.stats = d.service.Stats()
			}
			if d.board != nil {
				r.leases = d.board.Stats()
			}
			d.close()
			if err != nil {
				return fmt.Errorf("benchmark: ladder rung %s: %w", r.name, err)
			}
		}
		l.passes++
		elapsed := time.Since(start).Seconds()
		if l.passes >= 2 && elapsed+elapsed/float64(l.passes)/2 > seconds {
			break
		}
	}
	ops := 0
	for _, slice := range p.round[:p.distinct] {
		ops += len(slice)
	}
	for _, r := range l.rungs {
		r.opUs = 1e6 * estimateOf(r.st.samples, p.w.exponent).passSeconds / float64(ops)
	}
	return nil
}

// self is a rung's time over the rung it is built on.
func (l *ladder) self(name string) float64 {
	r := l.rung(name)
	return r.opUs - l.rung(r.base).opUs
}

func (l *ladder) print(w io.Writer) {
	fmt.Fprintf(w, "ladder: the round's distinct slices, %d passes per rung, per op\n", l.passes)
	for _, r := range l.rungs {
		line := fmt.Sprintf("  %-12s %10.1f us   set-up %8.1f ms", r.name, r.opUs, 1e3*r.st.setupSeconds())
		if r.base != "" {
			line += fmt.Sprintf("   self %+10.1f us over %s", l.self(r.name), r.base)
		}
		fmt.Fprintln(w, line)
	}
}
