package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"net"
	"net/http"
	"time"

	"ust/client"
	"ust/internal/core"
	"ust/internal/dist"
	"ust/internal/service"
	"ust/internal/spatial"
	"ust/query"
)

// answer is what the harness keeps of one op's reply: a digest of the
// exact result bits, and the counts the per-layer ratios are made of.
type answer struct {
	digest  uint64
	results int
	cache   core.CacheReport
	filter  core.FilterReport
}

// digester folds result bits into 64 bits, a word at a time: cheap
// enough to sit inside the timed loop, and any changed bit of any
// probability changes it.
type digester uint64

func (d *digester) word(v uint64) {
	h := (uint64(*d) ^ v) * 0x9E3779B97F4A7C15
	*d = digester(h ^ h>>29)
}

func (d *digester) floats(vs []float64) {
	d.word(uint64(len(vs)))
	for _, v := range vs {
		d.word(math.Float64bits(v))
	}
}

func (d *digester) result(r core.Result) {
	d.word(uint64(r.ObjectID))
	d.word(math.Float64bits(r.Prob))
	if r.Dist != nil {
		d.floats(r.Dist)
	}
}

func answerOf(resp *core.Response) answer {
	var d digester
	for _, r := range resp.Results {
		d.result(r)
	}
	if a := resp.Agg; a != nil {
		d.floats(a.PMF)
		d.floats([]float64{a.Mean, a.Variance, a.Tail})
		d.word(uint64(a.ModeCount))
	}
	return answer{digest: uint64(d), results: len(resp.Results), cache: resp.Cache, filter: resp.Filter}
}

// target is one deployment of the program, as a closed-loop client
// sees it.
type target interface {
	do(ctx context.Context, o *op) (answer, error)
	close()
}

// --- engine -----------------------------------------------------------------

// evalTarget calls an engine's Evaluate directly, with no service and
// no wire in between: the two engine workloads, the oracle of the
// serving workloads, and the engine and router rungs of the ladder.
type evalTarget struct {
	ev      service.Evaluator
	res     spatial.Resolver
	observe func(obj int, obs core.Observation) error
	tr      *tracer // when set, every evaluation is a "core.evaluate" span
}

func newEngineTarget(db *core.Database, res spatial.Resolver, opts core.Options) *evalTarget {
	return &evalTarget{ev: core.NewEngine(db, opts), res: res, observe: func(obj int, obs core.Observation) error {
		cur := db.Get(obj)
		if cur == nil {
			return fmt.Errorf("benchmark: unknown object %d", obj)
		}
		updated, err := cur.WithObservation(obs)
		if err != nil {
			return err
		}
		return db.ReplaceObject(updated)
	}}
}

func (t *evalTarget) close() {
	if c, ok := t.ev.(io.Closer); ok {
		_ = c.Close() // a router's Close only releases its backends
	}
}

func (t *evalTarget) do(ctx context.Context, o *op) (answer, error) {
	if o.kind == kindObserve {
		return answer{}, t.observe(o.obj, o.obs)
	}
	req := o.req
	if o.kind == kindText {
		parsed, err := query.Parse(o.text)
		if err != nil {
			return answer{}, err
		}
		req = parsed
	}
	if req.NeedsResolver() {
		req = req.AttachResolver(t.res)
	}
	if t.tr != nil {
		defer t.tr.end(t.tr.start("core.evaluate", "op", ""))
	}
	if o.kind == kindStream {
		return drain(t.ev.EvaluateSeq(ctx, req))
	}
	resp, err := t.ev.Evaluate(ctx, req)
	if err != nil {
		return answer{}, err
	}
	return answerOf(resp), nil
}

// drain digests a result stream.
func drain(seq iter.Seq2[core.Result, error]) (answer, error) {
	var d digester
	n := 0
	for r, err := range seq {
		if err != nil {
			return answer{}, err
		}
		d.result(r)
		n++
	}
	return answer{digest: uint64(d), results: n}, nil
}

// serviceTarget calls a service in process: admission, single-flight
// and region grounding, but no wire and no HTTP.
type serviceTarget struct{ svc *service.Service }

func (t serviceTarget) close() { t.svc.Close() }

func (t serviceTarget) do(ctx context.Context, o *op) (answer, error) {
	req := o.req
	switch o.kind {
	case kindObserve:
		return answer{}, t.svc.Observe(datasetName, o.obj, o.obs)
	case kindText:
		parsed, err := query.Parse(o.text)
		if err != nil {
			return answer{}, err
		}
		req = parsed
	case kindStream:
		return drain(t.svc.Stream(ctx, datasetName, req))
	}
	resp, err := t.svc.Evaluate(ctx, datasetName, req)
	if err != nil {
		return answer{}, err
	}
	return answerOf(resp), nil
}

// --- loopback HTTP ----------------------------------------------------------

// server is an http.Server on a loopback port of this process.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("benchmark: loopback listener: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serveOn(ln net.Listener, url string, h http.Handler) *server {
	s := &server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, url: url, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed from stop
	}()
	return s
}

// stop closes the listener and every connection, and waits for the
// accept loop to end.
func (s *server) stop() {
	_ = s.srv.Close()
	<-s.done
}

// newHTTPClient returns a client with a connection pool of its own, so
// that closing it leaves nothing behind for the next round.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}}
}

// clientTarget drives a service over HTTP through client.Client: a
// single server for serve_hot, the coordinator of a fleet for
// fleet_mixed.
type clientTarget struct {
	c       *client.Client
	dataset string
	cleanup []func() // run in reverse order by close
}

func (t *clientTarget) close() { undo(t.cleanup) }

func (t *clientTarget) do(ctx context.Context, o *op) (answer, error) {
	switch o.kind {
	case kindObserve:
		return answer{}, t.c.Observe(ctx, t.dataset, o.obj, o.obs)
	case kindStream:
		var d digester
		n := 0
		err := t.c.QueryStream(ctx, t.dataset, o.req, func(r core.Result) error {
			d.result(r)
			n++
			return nil
		})
		return answer{digest: uint64(d), results: n}, err
	case kindText:
		resp, err := t.c.QueryText(ctx, t.dataset, o.text)
		if err != nil {
			return answer{}, err
		}
		return answerOf(resp), nil
	}
	resp, err := t.c.Query(ctx, t.dataset, o.req)
	if err != nil {
		return answer{}, err
	}
	return answerOf(resp), nil
}

const datasetName = "bench"

// newServerTarget is the serve_hot deployment: one service with a
// single engine behind service.NewHandler, and a client.Client.
func newServerTarget(db *core.Database, res spatial.Resolver, opts core.Options, tr *tracer) (*clientTarget, *service.Service, error) {
	svc := service.New(service.Config{Options: opts, Engines: traceEngines(nil, opts, tr, "core.evaluate", "server.http")})
	if err := svc.Create(datasetName, db, res); err != nil {
		return nil, nil, err
	}
	ln, url, err := listen()
	if err != nil {
		return nil, nil, err
	}
	srv := serveOn(ln, url, tracedHandler(service.NewHandler(svc), tr, "server.http", "op"))
	hc := newHTTPClient()
	t := &clientTarget{c: client.New(url, hc), dataset: datasetName}
	t.cleanup = []func(){srv.stop, svc.Close, hc.CloseIdleConnections}
	return t, svc, nil
}

// fleet is the fleet_mixed deployment: a coordinator service whose
// dataset is a dist router over two worker services, every one of them
// an HTTP server on loopback in this process, with the sweep-lease tier
// of the coordinator switched on in the workers.
type fleet struct {
	*clientTarget
	coord   *service.Service
	workers []*service.Service
}

const fleetWorkers = 2

func newFleet(db *core.Database, res spatial.Resolver, tr *tracer) (f *fleet, err error) {
	f = &fleet{clientTarget: &clientTarget{dataset: datasetName}}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	coordLn, coordURL, err := listen()
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	f.cleanup = append(f.cleanup, hc.CloseIdleConnections)

	var workers []*client.Client
	for i := 0; i < fleetWorkers; i++ {
		w := service.New(service.Config{
			Role:    "worker",
			Options: core.Options{Sweeps: dist.NewSweepClient(coordURL, hc)},
		})
		ln, url, lerr := listen()
		if lerr != nil {
			coordLn.Close()
			return nil, lerr
		}
		srv := serveOn(ln, url, tracedHandler(service.NewHandler(w), tr, "worker.http", "dist.router"))
		f.cleanup = append(f.cleanup, w.Close, srv.stop)
		f.workers = append(f.workers, w)
		workers = append(workers, client.New(url, hc))
	}

	f.coord = service.New(service.Config{
		Role: "coordinator",
		Engines: traceEngines(func(name string, db *core.Database) (service.Evaluator, service.Ingester, error) {
			router, rerr := dist.NewRouter(db, fleetWorkers, core.Options{}, name, workers)
			if rerr != nil {
				return nil, nil, rerr
			}
			return router, router, nil
		}, core.Options{}, tr, "dist.router", "coordinator.http"),
	})
	srv := serveOn(coordLn, coordURL, tracedHandler(service.NewHandler(f.coord), tr, "coordinator.http", "op"))
	f.cleanup = append(f.cleanup, f.coord.Close, srv.stop)
	// Creating the dataset builds the router, which ships every object to
	// its worker through the import path.
	if err := f.coord.Create(datasetName, db, res); err != nil {
		return nil, err
	}
	f.c = client.New(coordURL, hc)
	return f, nil
}

// failed reports whether an op's outcome counts against the run: an
// error (a refused request is one) or an answer that is not the
// oracle's.
func failed(got answer, err error, o *op, want uint64) error {
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) {
			return fmt.Errorf("%s: HTTP %d: %w", o.class, ae.Status, err)
		}
		return fmt.Errorf("%s: %w", o.class, err)
	}
	if !o.write() && got.digest != want {
		return fmt.Errorf("%s: answer digest %016x, oracle %016x", o.class, got.digest, want)
	}
	return nil
}
