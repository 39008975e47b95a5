package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ust/internal/core"
	"ust/internal/service"
)

// Tracing from outside. The program has no tracing of its own yet, so
// the benchmark records a span around every call it can reach from its
// own files: the client call of an op, the HTTP handler of every
// in-process server (wrapped), and the engine or router a service
// evaluates through (wrapped through service.Config.Engines). Spans
// stay in memory and are written out when the run ends.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Op     int    `json:"op"`     // the op the call served
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // set on op spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. With one closed-loop client there is one op in
// flight, so a span's parent is the latest open span of the layer that
// calls it; no identifier has to cross the wire.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
	open  map[string][]int // layer name → ids of its open spans
	op    int
}

// enable switches recording on or off; calls made while it is off (a
// round's set-up, its warm-up) leave no span.
func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: map[string][]int{}} }

// start opens a span named name under the latest open span of the
// parent layer ("" for a root, which begins a new op).
func (t *tracer) start(name, parent, class string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Name: name, Class: class, Start: now}
	if parent == "" {
		t.op++
	} else if ids := t.open[parent]; len(ids) > 0 {
		s.Parent = ids[len(ids)-1]
	}
	s.Op = t.op
	t.spans = append(t.spans, s)
	t.open[name] = append(t.open[name], s.ID)
	return s.ID
}

func (t *tracer) end(id int) { t.endEarly(id, 0) }

// endEarly closes a span as if it had ended the given time ago.
func (t *tracer) endEarly(id int, ago time.Duration) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0) - ago)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	ids := t.open[s.Name]
	for i, open := range ids {
		if open == id {
			t.open[s.Name] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
}

// selfTimes returns every span's self time: its duration minus the part
// of that interval its child spans cover (children may overlap one
// another, as two workers answering in parallel do).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerTable sums self time by span name, per op.
func layerTable(spans []span) (names []string, perOpUs map[string]float64, ops int) {
	self := selfTimes(spans)
	perOpUs = map[string]float64{}
	for _, s := range spans {
		perOpUs[s.Name] += float64(self[s.ID]) / 1e3
		ops = max(ops, s.Op)
	}
	for name := range perOpUs {
		perOpUs[name] /= float64(max(ops, 1))
		names = append(names, name)
	}
	sort.Strings(names)
	return names, perOpUs, ops
}

// write stores the spans under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// --- wrappers that record spans ---------------------------------------------

// tracedTarget records the root span of every op.
type tracedTarget struct {
	target
	tr *tracer
}

func (t tracedTarget) do(ctx context.Context, o *op) (answer, error) {
	id := t.tr.start("op", "", o.class)
	defer t.tr.end(id)
	return t.target.do(ctx, o)
}

// tracedHandler records a span around an HTTP handler. Sweep-lease
// calls, which workers make to the coordinator while they answer, get a
// name of their own under the worker's span.
func tracedHandler(h http.Handler, tr *tracer, name, parent string) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, p := name, parent
		if strings.HasPrefix(r.URL.Path, "/v1/sweeps/") {
			n, p = "coordinator.sweeps", "worker.http"
		}
		id := tr.start(n, p, "")
		defer tr.end(id)
		h.ServeHTTP(w, r)
	})
}

// tracedEngine records a span around the engine (or router) a service
// evaluates and ingests through.
type tracedEngine struct {
	service.Evaluator
	ing          service.Ingester
	tr           *tracer
	name, parent string
}

func (e *tracedEngine) Evaluate(ctx context.Context, req core.Request) (*core.Response, error) {
	id := e.tr.start(e.name, e.parent, "")
	defer e.tr.end(id)
	return e.Evaluator.Evaluate(ctx, req)
}

// EvaluateSeq records the time the engine spends producing results: a
// pulled sequence runs its consumer (the handler writing each line)
// inside the producer's loop, so the time spent in yield is taken off
// the span's end.
func (e *tracedEngine) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		id := e.tr.start(e.name, e.parent, "")
		var consumer time.Duration
		e.Evaluator.EvaluateSeq(ctx, req)(func(r core.Result, err error) bool {
			start := time.Now()
			defer func() { consumer += time.Since(start) }()
			return yield(r, err)
		})
		e.tr.endEarly(id, consumer)
	}
}

func (e *tracedEngine) Add(o *core.Object) error { return e.ing.Add(o) }

func (e *tracedEngine) ReplaceObject(o *core.Object) error {
	id := e.tr.start(e.name, e.parent, "")
	defer e.tr.end(id)
	return e.ing.ReplaceObject(o)
}

func (e *tracedEngine) Close() error {
	if c, ok := e.Evaluator.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// traceEngines wraps an engine factory's product in spans; with no
// tracer it returns the factory unchanged (nil stays nil, so the
// service builds its default engine).
func traceEngines(f service.EngineFactory, opts core.Options, tr *tracer, name, parent string) service.EngineFactory {
	if tr == nil {
		return f
	}
	if f == nil {
		f = func(_ string, db *core.Database) (service.Evaluator, service.Ingester, error) {
			return core.NewEngine(db, opts), db, nil
		}
	}
	return func(dataset string, db *core.Database) (service.Evaluator, service.Ingester, error) {
		ev, ing, err := f(dataset, db)
		if err != nil {
			return nil, nil, err
		}
		te := &tracedEngine{Evaluator: ev, ing: ing, tr: tr, name: name, parent: parent}
		return te, te, nil
	}
}

func printLayerTable(w io.Writer, spans []span) {
	names, perOp, ops := layerTable(spans)
	fmt.Fprintf(w, "span self time per op, stacked (%d ops, %d spans)\n", ops, len(spans))
	total := 0.0
	for _, name := range names {
		total += perOp[name]
	}
	for _, name := range names {
		fmt.Fprintf(w, "  %-22s %12.1f us  %5.1f %%\n", name, perOp[name], 100*perOp[name]/total)
	}
	fmt.Fprintf(w, "  %-22s %12.1f us\n", "sum", total)
}
