package ust_test

// One benchmark per table/figure of the paper's evaluation (Section
// VIII), plus ablation benchmarks for the design decisions called out in
// DESIGN.md. The figures' full parameter sweeps live in cmd/ustbench
// (and internal/exp); the benchmarks here measure one representative
// point per curve so `go test -bench=.` stays tractable while still
// exposing every shape (who wins, by roughly what factor).
//
// Mapping:
//
//	BenchmarkFig8a*  — Fig 8(a): MC vs OB vs QB, small DB
//	BenchmarkFig8b*  — Fig 8(b): OB vs QB, larger DB and state space
//	BenchmarkFig9a*  — Fig 9(a): query start time sweep, synthetic
//	BenchmarkFig9b*  — Fig 9(b): Munich-like road network
//	BenchmarkFig9c*  — Fig 9(c): North-America-like road network
//	BenchmarkFig9d   — Fig 9(d): accuracy experiment (exact vs indep)
//	BenchmarkFig10a* — Fig 10(a): ∃/∀/k predicates, object-based
//	BenchmarkFig10b* — Fig 10(b): ∃/∀/k predicates, query-based
//	BenchmarkFig11a* — Fig 11(a): max_step sweep
//	BenchmarkFig11b* — Fig 11(b): state_spread sweep
//	BenchmarkTableI  — Table I: synthetic generator at defaults
//	BenchmarkAblation* — augmented-matrix materialization vs implicit

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"ust"
	"ust/client"
	"ust/internal/agg"
	"ust/internal/core"
	"ust/internal/dist"
	"ust/internal/gen"
	"ust/internal/markov"
	"ust/internal/network"
	"ust/internal/service"
	"ust/internal/shard"
)

// benchDB builds a synthetic database of Table I shape.
func benchDB(b *testing.B, numObjects, numStates int) *ust.Database {
	b.Helper()
	p := gen.Defaults(42)
	p.NumObjects = numObjects
	p.NumStates = numStates
	ds, err := gen.Generate(p)
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	db := ust.NewDatabase(ds.Chain)
	for i, o := range ds.Objects {
		if err := db.AddSimple(i, o); err != nil {
			b.Fatalf("add: %v", err)
		}
	}
	return db
}

func benchQuery(numStates int) ust.Query {
	w := gen.DefaultWindow()
	return ust.NewQuery(w.States(numStates), w.Times())
}

// paperPass makes the figure series time the paper's algorithms: for
// the object-based strategy one full forward pass per object, without
// the reach-cone clipping the engine applies by default — which would
// make the OB/QB ratios incomparable with the paper's. It changes nothing
// under the query-based and Monte-Carlo strategies.
var paperPass = ust.WithFilterRefine(false)

func runExists(b *testing.B, db *ust.Database, q ust.Query, s ust.Strategy, mcSamples int) {
	b.Helper()
	e := ust.NewEngine(db, ust.Options{Strategy: s, MonteCarloSamples: mcSamples})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(b, e, ust.PredicateExists, q, paperPass)
	}
}

// --- Figure 8(a): small database, all three algorithms. -----------------

func BenchmarkFig8aSmallStateSpace(b *testing.B) {
	for _, nStates := range []int{2000, 10000} {
		db := benchDB(b, 100, nStates)
		q := benchQuery(nStates)
		b.Run(fmt.Sprintf("states=%d/MC", nStates), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyMonteCarlo, 100)
		})
		b.Run(fmt.Sprintf("states=%d/OB", nStates), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyObjectBased, 0)
		})
		b.Run(fmt.Sprintf("states=%d/QB", nStates), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyQueryBased, 0)
		})
	}
}

// --- Figure 8(b): larger database and state space, OB vs QB. ------------

func BenchmarkFig8bLargeStateSpace(b *testing.B) {
	for _, nStates := range []int{10000, 50000} {
		db := benchDB(b, 1000, nStates)
		q := benchQuery(nStates)
		b.Run(fmt.Sprintf("states=%d/OB", nStates), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyObjectBased, 0)
		})
		b.Run(fmt.Sprintf("states=%d/QB", nStates), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyQueryBased, 0)
		})
	}
}

// --- Figure 9(a): query start time, synthetic. ---------------------------

func BenchmarkFig9aQueryStartSynthetic(b *testing.B) {
	db := benchDB(b, 200, 10000)
	w := gen.DefaultWindow()
	for _, h := range []int{10, 30, 50} {
		q := ust.NewQuery(w.States(10000), ust.Interval(h, h+5))
		b.Run(fmt.Sprintf("start=%d/OB", h), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyObjectBased, 0)
		})
		b.Run(fmt.Sprintf("start=%d/QB", h), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyQueryBased, 0)
		})
	}
}

// --- Figures 9(b)/9(c): road networks. -----------------------------------

func benchNetworkDB(b *testing.B, spec network.RoadNetworkSpec, numObjects int) (*ust.Database, []int) {
	b.Helper()
	g, err := network.Generate(spec)
	if err != nil {
		b.Fatalf("network: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	chain, err := markov.NewChain(g.TransitionMatrix(rng))
	if err != nil {
		b.Fatalf("chain: %v", err)
	}
	db := ust.NewDatabase(chain)
	for id := 0; id < numObjects; id++ {
		anchor := rng.Intn(g.NumNodes())
		if err := db.AddSimple(id, ust.PointDistribution(g.NumNodes(), anchor)); err != nil {
			b.Fatalf("add: %v", err)
		}
	}
	// Query region: BFS neighborhood of a node.
	region := []int{0}
	seen := map[int]bool{0: true}
	frontier := []int{0}
	for len(region) < 21 && len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			g.Successors(u, func(v int) {
				if !seen[v] && len(region) < 21 {
					seen[v] = true
					region = append(region, v)
					next = append(next, v)
				}
			})
		}
		frontier = next
	}
	return db, region
}

func benchNetworkFigure(b *testing.B, spec network.RoadNetworkSpec) {
	db, region := benchNetworkDB(b, spec, 200)
	for _, h := range []int{10, 30} {
		q := ust.NewQuery(region, ust.Interval(h, h+5))
		b.Run(fmt.Sprintf("start=%d/OB", h), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyObjectBased, 0)
		})
		b.Run(fmt.Sprintf("start=%d/QB", h), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyQueryBased, 0)
		})
	}
}

func BenchmarkFig9bQueryStartMunich(b *testing.B) {
	benchNetworkFigure(b, network.MunichSpec(3).Scaled(10))
}

func BenchmarkFig9cQueryStartNA(b *testing.B) {
	benchNetworkFigure(b, network.NorthAmericaSpec(3).Scaled(10))
}

// --- Figure 9(d): accuracy (not a runtime plot; measures both models). ---

func BenchmarkFig9dAccuracy(b *testing.B) {
	db := benchDB(b, 100, 10000)
	e := core.NewEngine(db, core.Options{})
	w := gen.DefaultWindow()
	region := w.States(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The Markov model: one exact pass over the whole window. The
		// independence model: 1 − Π_t (1 − P∃(o, S□, {t})) from one
		// single-timestamp request per window timestamp (uncached, so
		// every iteration pays for its sweeps).
		ask(b, e, ust.PredicateExists, ust.NewQuery(region, ust.Interval(20, 29)),
			ust.WithStrategy(ust.StrategyObjectBased))
		missAll := map[int]float64{}
		for _, o := range db.Objects() {
			missAll[o.ID] = 1
		}
		for t := 20; t <= 29; t++ {
			for _, r := range ask(b, e, ust.PredicateExists, ust.NewQuery(region, []int{t}), ust.WithCache(false)) {
				missAll[r.ObjectID] *= 1 - r.Prob
			}
		}
	}
}

// --- Figure 10: predicates under OB and QB. -------------------------------

// benchPredicates times one evaluation per predicate and window length.
// The score cache is off, so that every QB iteration pays for its sweep
// (the engine is shared across b.N) instead of timing dot products.
func benchPredicates(b *testing.B, strategy ust.Strategy) {
	db := benchDB(b, 100, 10000)
	w := gen.DefaultWindow()
	uncached := ust.WithCache(false)
	for _, winLen := range []int{2, 6, 10} {
		q := ust.NewQuery(w.States(10000), ust.Interval(20, 20+winLen-1))
		e := ust.NewEngine(db, ust.Options{Strategy: strategy})
		b.Run(fmt.Sprintf("win=%d/exists", winLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ask(b, e, ust.PredicateExists, q, paperPass, uncached)
			}
		})
		b.Run(fmt.Sprintf("win=%d/forall", winLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ask(b, e, ust.PredicateForAll, q, paperPass, uncached)
			}
		})
		b.Run(fmt.Sprintf("win=%d/ktimes", winLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ask(b, e, ust.PredicateKTimes, q, paperPass, uncached)
			}
		})
	}
}

func BenchmarkFig10aPredicatesOB(b *testing.B) {
	benchPredicates(b, ust.StrategyObjectBased)
}

func BenchmarkFig10bPredicatesQB(b *testing.B) {
	benchPredicates(b, ust.StrategyQueryBased)
}

// --- Figure 11: locality parameter sweeps. --------------------------------

func BenchmarkFig11aMaxStep(b *testing.B) {
	for _, maxStep := range []int{10, 40, 100} {
		p := gen.Defaults(42)
		p.NumObjects, p.NumStates, p.MaxStep = 100, 10000, maxStep
		ds, err := gen.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		db := ust.NewDatabase(ds.Chain)
		for i, o := range ds.Objects {
			db.AddSimple(i, o)
		}
		q := benchQuery(p.NumStates)
		b.Run(fmt.Sprintf("max_step=%d/OB", maxStep), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyObjectBased, 0)
		})
		b.Run(fmt.Sprintf("max_step=%d/QB", maxStep), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyQueryBased, 0)
		})
	}
}

func BenchmarkFig11bStateSpread(b *testing.B) {
	for _, spread := range []int{2, 10, 20} {
		p := gen.Defaults(42)
		p.NumObjects, p.NumStates, p.StateSpread = 100, 10000, spread
		ds, err := gen.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		db := ust.NewDatabase(ds.Chain)
		for i, o := range ds.Objects {
			db.AddSimple(i, o)
		}
		q := benchQuery(p.NumStates)
		b.Run(fmt.Sprintf("spread=%d/OB", spread), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyObjectBased, 0)
		})
		b.Run(fmt.Sprintf("spread=%d/QB", spread), func(b *testing.B) {
			runExists(b, db, q, ust.StrategyQueryBased, 0)
		})
	}
}

// --- Table I: the synthetic generator itself. ------------------------------

func BenchmarkTableIGenerator(b *testing.B) {
	p := gen.Defaults(42)
	p.NumObjects, p.NumStates = 1000, 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)
		if _, err := gen.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations. ------------------------------------------------------------

// BenchmarkAblationAugmented quantifies DESIGN.md decision #2: applying
// the absorbing-state operator implicitly vs materializing the paper's
// M−/M+ matrices per query.
func BenchmarkAblationAugmented(b *testing.B) {
	p := gen.Defaults(42)
	p.NumObjects, p.NumStates = 1, 5000
	ds, err := gen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	db := ust.NewDatabase(ds.Chain)
	db.AddSimple(0, ds.Objects[0])
	e := core.NewEngine(db, core.Options{})
	q := benchQuery(p.NumStates)
	init := ds.Objects[0].Vec().Clone()
	init.Normalize()

	b.Run("implicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ask(b, e, ust.PredicateExists, q, ust.WithStrategy(ust.StrategyObjectBased))
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ExistsOBAugmented(ds.Chain, q.States, q.Times, init, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKTimesAugmented measures the paper's blown-up
// (|T□|+1)·|S| matrices for PSTkQ against the memory-efficient C(t)
// algorithm of Section VII.
func BenchmarkAblationKTimesAugmented(b *testing.B) {
	p := gen.Defaults(42)
	p.NumObjects, p.NumStates = 1, 2000
	ds, err := gen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	db := ust.NewDatabase(ds.Chain)
	db.AddSimple(0, ds.Objects[0])
	e := core.NewEngine(db, core.Options{})
	q := benchQuery(p.NumStates)
	init := ds.Objects[0].Vec().Clone()
	init.Normalize()

	b.Run("efficient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ask(b, e, ust.PredicateKTimes, q, ust.WithStrategy(ust.StrategyObjectBased))
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.KTimesOBAugmented(ds.Chain, q.States, q.Times, init, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAliasSampler compares the O(out-degree) linear-scan
// transition sampler against the O(1) alias-table sampler across row
// weights. The crossover matters: Table I rows are light (spread 5-20)
// and favor the cache-friendly linear scan; heavy rows favor the alias
// table.
func BenchmarkAblationAliasSampler(b *testing.B) {
	const steps = 50
	for _, cfg := range []struct{ spread, maxStep int }{
		{20, 40},
		{200, 400},
	} {
		p := gen.Defaults(42)
		p.NumObjects, p.NumStates = 1, 5000
		p.StateSpread, p.MaxStep = cfg.spread, cfg.maxStep
		ds, err := gen.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		init := ds.Objects[0]
		b.Run(fmt.Sprintf("spread=%d/linear", cfg.spread), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				ds.Chain.SamplePath(init, steps, rng)
			}
		})
		b.Run(fmt.Sprintf("spread=%d/alias", cfg.spread), func(b *testing.B) {
			s := markov.NewSampler(ds.Chain)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SamplePath(init, steps, rng)
			}
		})
	}
}

// BenchmarkAblationParallelOB measures the goroutine fan-out of the
// object-based strategy.
func BenchmarkAblationParallelOB(b *testing.B) {
	db := benchDB(b, 500, 10000)
	e := core.NewEngine(db, core.Options{})
	q := benchQuery(10000)
	for _, workers := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ask(b, e, ust.PredicateExists, q,
					ust.WithStrategy(ust.StrategyObjectBased), ust.WithParallelism(workers))
			}
		})
	}
}

// --- Kernel layer: score cache and filter–refine (this repo's ---------
// --- engine-wide additions beyond the paper). -------------------------

// BenchmarkScoreCacheRepeatedEvaluate measures a repeated identical
// PST∃Q: cold computes the backward sweep, cached serves it from the
// engine-wide score cache, uncached recomputes per request
// (WithCache(false)). The cached/uncached gap is the sweep cost the
// cache amortizes across repeated and standing queries.
func BenchmarkScoreCacheRepeatedEvaluate(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	q := benchQuery(10000)
	req := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q))
	ctx := context.Background()

	b.Run("uncached", func(b *testing.B) {
		e := ust.NewEngine(db, ust.Options{})
		r := req.With(ust.WithCache(false))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Evaluate(ctx, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		e := ust.NewEngine(db, ust.Options{})
		if _, err := e.Evaluate(ctx, req); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Evaluate(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFilterRefineTopK measures object-based ranked retrieval with
// and without the filter stage on a Table I workload. The filter prunes
// objects whose reachability envelope cannot touch the window; the
// reported refined/total metric is the forward-pass funnel. The
// query-based strategy does not filter, so it has no pair here.
func BenchmarkFilterRefineTopK(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	q := benchQuery(10000)
	ctx := context.Background()
	for _, filtered := range []bool{false, true} {
		b.Run(fmt.Sprintf("object-based/filter=%v", filtered), func(b *testing.B) {
			e := ust.NewEngine(db, ust.Options{})
			req := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q),
				ust.WithTopK(20), ust.WithStrategy(ust.StrategyObjectBased), ust.WithFilterRefine(filtered))
			var refined, candidates int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := e.Evaluate(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				refined, candidates = resp.Filter.Refined, resp.Filter.Candidates
			}
			b.StopTimer()
			if filtered && candidates > 0 {
				b.ReportMetric(float64(refined), "refined/op")
				b.ReportMetric(float64(candidates), "candidates/op")
			}
		})
	}
}

// BenchmarkFilterRefineThreshold is the thresholded companion: retrieve
// every object with P∃ ≥ τ, pruned vs unpruned.
func BenchmarkFilterRefineThreshold(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	q := benchQuery(10000)
	ctx := context.Background()
	for _, filtered := range []bool{false, true} {
		b.Run(fmt.Sprintf("filter=%v", filtered), func(b *testing.B) {
			e := ust.NewEngine(db, ust.Options{})
			req := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q),
				ust.WithThreshold(0.1), ust.WithStrategy(ust.StrategyObjectBased),
				ust.WithFilterRefine(filtered))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Evaluate(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeHTTPQuery measures the HTTP round-trip overhead of the
// serving stack: client → wire encode → ustserve handler → service
// (admission + single-flight) → engine → wire decode, against the
// in-process Evaluate baseline on the same engine. The delta is the
// cost of going over the wire.
func BenchmarkServeHTTPQuery(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	q := benchQuery(10000)
	ctx := context.Background()
	req := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q), ust.WithTopK(20))

	b.Run("inprocess", func(b *testing.B) {
		e := ust.NewEngine(db, ust.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Evaluate(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	// http is a top-20 answer; http-scan answers every object (1000
	// results), so the response codec carries the cost.
	for _, tc := range []struct {
		name string
		req  ust.Request
	}{
		{"http", req},
		{"http-scan", ust.NewRequest(ust.PredicateExists, ust.WithWindow(q))},
	} {
		b.Run(tc.name, func(b *testing.B) {
			svc := ust.NewService(ust.ServiceConfig{})
			defer svc.Close()
			if err := svc.Create("bench", db, nil); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(ust.NewServiceHandler(svc))
			defer ts.Close()
			c := client.New(ts.URL, ts.Client())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Query(ctx, "bench", tc.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("http-stream", func(b *testing.B) {
		svc := ust.NewService(ust.ServiceConfig{})
		defer svc.Close()
		if err := svc.Create("bench", db, nil); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(ust.NewServiceHandler(svc))
		defer ts.Close()
		c := client.New(ts.URL, ts.Client())
		streamReq := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			err := c.QueryStream(ctx, "bench", streamReq, func(r ust.Result) error {
				n++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != db.Len() {
				b.Fatalf("streamed %d of %d", n, db.Len())
			}
		}
	})
}

// BenchmarkSingleFlightDedup measures what coalescing buys: C identical
// concurrent requests against a cold-ish engine, with the single-flight
// layer folding them into one evaluation versus each running its own.
// The dedup ratio is visible in the reported evaluations/op metric.
// --- Batch evaluation: the multi-query optimizer. -----------------------
//
// A dashboard-style workload: 32 requests over sliding, heavily
// overlapping windows of the same region (plus forall/threshold/top-k
// variants). "sequential" answers them with one Evaluate call each on a
// cold engine; "batched" hands the same slice to EvaluateBatch, whose
// optimizer deduplicates shared sweeps and runs the rest through the
// fused block kernel — one transition-matrix traversal per time step
// for all requests together. Results are byte-identical; the ratio of
// the two numbers in BENCH.json is the optimizer's win.

func batchWorkload(numStates int) []ust.Request {
	var reqs []ust.Request
	region := benchQuery(numStates).States
	for i := 0; i < 32; i++ {
		lo := 5 + i
		opts := []ust.RequestOption{ust.WithStates(region), ust.WithTimeRange(lo, 64)}
		pred := ust.PredicateExists
		switch i % 4 {
		case 1:
			pred = ust.PredicateForAll
		case 2:
			opts = append(opts, ust.WithThreshold(0.3))
		case 3:
			opts = append(opts, ust.WithTopK(10))
		}
		reqs = append(reqs, ust.NewRequest(pred, opts...))
	}
	return reqs
}

func BenchmarkEvaluateBatch(b *testing.B) {
	db := benchDB(b, 500, 10000)
	reqs := batchWorkload(10000)
	ctx := context.Background()

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ust.NewEngine(db, ust.Options{})
			for _, req := range reqs {
				if _, err := e.Evaluate(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ust.NewEngine(db, ust.Options{})
			if _, err := e.EvaluateBatch(ctx, reqs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExprEvaluate measures the augmented compound-expression
// sweep against the naive (and incorrect) alternative a client would
// otherwise run: one request per atom. The compound evaluation pays
// 2^m vectors per sweep but answers correlations exactly.
func BenchmarkExprEvaluate(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	region := benchQuery(10000).States
	atomA := ust.ExistsAtom(ust.WithStates(region), ust.WithTimeRange(10, 15))
	atomB := ust.ForAllAtom(ust.WithStates(region[:len(region)/2]), ust.WithTimeRange(18, 22))
	expr := ust.And(atomA, ust.Not(atomB))
	ctx := context.Background()

	b.Run("compound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ust.NewEngine(db, ust.Options{})
			if _, err := e.Evaluate(ctx, ust.NewExprRequest(expr)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-atom-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ust.NewEngine(db, ust.Options{})
			for _, x := range []ust.Expr{atomA, atomB} {
				if _, err := e.Evaluate(ctx, ust.NewExprRequest(x)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkSingleFlightDedup(b *testing.B) {
	// The shared request is deliberately expensive (uncached, unfiltered
	// object-based scan): evaluations must outlive the scheduler's
	// preemption quantum so concurrent callers genuinely overlap — that
	// is what single-flight deduplicates.
	db := benchDB(b, 500, 5000)
	q := benchQuery(5000)
	ctx := context.Background()
	req := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q),
		ust.WithStrategy(ust.StrategyObjectBased),
		ust.WithCache(false), ust.WithFilterRefine(false))
	const clients = 16

	b.Run("coalesced", func(b *testing.B) {
		svc := ust.NewService(ust.ServiceConfig{})
		defer svc.Close()
		if err := svc.Create("bench", db, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for cidx := 0; cidx < clients; cidx++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := svc.Evaluate(ctx, "bench", req); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
		b.StopTimer()
		st := svc.Stats()
		if b.N > 0 {
			b.ReportMetric(float64(st.Evaluations)/float64(b.N), "evaluations/op")
			b.ReportMetric(float64(st.Coalesced)/float64(b.N), "coalesced/op")
		}
	})
	b.Run("independent", func(b *testing.B) {
		e := ust.NewEngine(db, ust.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for cidx := 0; cidx < clients; cidx++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := e.Evaluate(ctx, req); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(clients), "evaluations/op")
	})
}

// BenchmarkShardedEvaluate is the scale-out headline: the |D|=1000,
// |S|=10000 scan answered by one engine vs the 8-shard router over the
// same database. The object-based scan is the parallel workload — per-
// object forward passes fan out across shards, so wall clock approaches
// single/min(shards, GOMAXPROCS) on multi-core hardware (on a 1-CPU
// runner the concurrency cannot help and the two are expected to tie).
// The query-based pair measures the router's overhead floor: one sweep
// computed once fleet-wide through the shared cache plus the merge, so
// sharded QB must stay within noise of the single engine.
func BenchmarkShardedEvaluate(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	q := benchQuery(10000)
	ctx := context.Background()
	scanOB := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q),
		ust.WithStrategy(ust.StrategyObjectBased))
	scanQB := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q),
		ust.WithStrategy(ust.StrategyQueryBased))

	run := func(b *testing.B, eval ust.Evaluator, req ust.Request) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := eval.Evaluate(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Results) != 1000 {
				b.Fatalf("scan returned %d results", len(resp.Results))
			}
		}
	}
	b.Run("ob/single", func(b *testing.B) {
		run(b, ust.NewEngine(db, ust.Options{}), scanOB)
	})
	b.Run("ob/shards=8", func(b *testing.B) {
		r, err := ust.NewShardedEngine(db, 8, ust.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, r, scanOB)
	})
	b.Run("qb/single", func(b *testing.B) {
		run(b, ust.NewEngine(db, ust.Options{}), scanQB)
	})
	b.Run("qb/shards=8", func(b *testing.B) {
		r, err := ust.NewShardedEngine(db, 8, ust.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, r, scanQB)
	})
}

// BenchmarkAggregateCount is the aggregate-subsystem headline at the
// |D|=1000, |S|=10000 scale of Fig 8(b): the count-distribution query
// count(exists(...)) answered four ways. "naive" folds the per-object
// factors left to right with no certificate pruning — the O(|D|²)
// textbook construction of the Poisson-binomial PMF. "engine" is the
// shipped path: filter–refine certificates bound each factor before the
// exact kernel runs, and the balanced divide-and-conquer fold keeps the
// convolution near O(|D| log²|D|). The sharded pair pins the router's
// merge cost: factors are pooled across shards and re-folded through
// the identical canonical tree, so shards=8 must match single up to the
// fan-out overhead (and beat it on multi-core hardware).
func BenchmarkAggregateCount(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	q := benchQuery(10000)
	ctx := context.Background()
	req := ust.NewAggRequest(ust.PredicateExists,
		ust.AggSpec{Kind: ust.AggCount}, ust.WithWindow(q))

	b.Run("naive-loop", func(b *testing.B) {
		e := core.NewEngine(db, core.Options{})
		raw := core.NewAggRequest(core.PredicateExists,
			core.AggSpec{Kind: core.AggCount},
			core.WithWindow(q), core.WithFilterRefine(false))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs, err := e.AggregateFactors(ctx, raw)
			if err != nil {
				b.Fatal(err)
			}
			pmf := agg.NaiveCountPMF(fs.Factors)
			if len(pmf) != 1001 {
				b.Fatalf("pmf has %d entries", len(pmf))
			}
		}
	})
	run := func(b *testing.B, eval ust.Evaluator) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := eval.Evaluate(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Agg == nil || len(resp.Agg.PMF) != 1001 {
				b.Fatalf("bad aggregate: %+v", resp.Agg)
			}
		}
	}
	b.Run("engine", func(b *testing.B) {
		run(b, ust.NewEngine(db, ust.Options{}))
	})
	b.Run("shards=1", func(b *testing.B) {
		r, err := ust.NewShardedEngine(db, 1, ust.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, r)
	})
	b.Run("shards=8", func(b *testing.B) {
		r, err := ust.NewShardedEngine(db, 8, ust.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, r)
	})
}

// BenchmarkDistributedEvaluate prices the process boundary: the
// |D|=1000, |S|=10000 scan answered by the in-process 2-shard router vs
// a 2-worker distributed deployment (real worker services behind
// localhost HTTP, coordinator-side dist router, results through the
// wire codec). The delta over inproc is pure deployment overhead —
// JSON encode/decode plus localhost round-trips — since both rings run
// the identical shard evaluation underneath; the query-based pair
// additionally rides the networked sweep lease tier, so its floor
// includes one /v1/sweeps round-trip per distinct sweep.
func BenchmarkDistributedEvaluate(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	q := benchQuery(10000)
	ctx := context.Background()
	scanOB := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q),
		ust.WithStrategy(ust.StrategyObjectBased))
	scanQB := ust.NewRequest(ust.PredicateExists, ust.WithWindow(q),
		ust.WithStrategy(ust.StrategyQueryBased))

	newDistRouter := func(b *testing.B) *shard.Router { return benchDistRouter(b, db, nil) }
	run := func(b *testing.B, eval ust.Evaluator, req ust.Request) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := eval.Evaluate(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Results) != 1000 {
				b.Fatalf("scan returned %d results", len(resp.Results))
			}
		}
	}
	b.Run("ob/inproc=2", func(b *testing.B) {
		r, err := ust.NewShardedEngine(db, 2, ust.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, r, scanOB)
	})
	b.Run("ob/workers=2", func(b *testing.B) {
		run(b, newDistRouter(b), scanOB)
	})
	b.Run("qb/inproc=2", func(b *testing.B) {
		r, err := ust.NewShardedEngine(db, 2, ust.Options{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, r, scanQB)
	})
	b.Run("qb/workers=2", func(b *testing.B) {
		run(b, newDistRouter(b), scanQB)
	})
}

// benchDistRouter stands up the 2-worker loopback deployment the
// distributed benchmarks measure: real worker services behind localhost
// HTTP, a coordinator-side sweep board, and a dist router over db. wrap,
// when not nil, is put around each worker client's transport.
func benchDistRouter(b *testing.B, db *ust.Database, wrap func(http.RoundTripper) http.RoundTripper) *shard.Router {
	b.Helper()
	coord := service.New(service.Config{Role: "coordinator"})
	coordTS := httptest.NewServer(service.NewHandler(coord))
	b.Cleanup(func() { coord.Close(); coordTS.Close() })
	clients := make([]*client.Client, 2)
	for i := range clients {
		w := service.New(service.Config{
			Role:    "worker",
			Options: core.Options{Sweeps: dist.NewSweepClient(coordTS.URL, nil)},
		})
		ts := httptest.NewServer(service.NewHandler(w))
		b.Cleanup(func() { w.Close(); ts.Close() })
		hc := ts.Client()
		if wrap != nil {
			hc.Transport = wrap(hc.Transport)
		}
		clients[i] = client.NewWithConfig(ts.URL, client.Config{HTTPClient: hc})
	}
	r, err := dist.NewRouter(db, 2, core.Options{}, "bench", clients)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// countingTransport adds up the request body bytes sent through it.
type countingTransport struct {
	next  http.RoundTripper
	bytes *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.bytes.Add(max(req.ContentLength, 0))
	return t.next.RoundTrip(req)
}

// BenchmarkDistributedObserve prices one fleet write: an observation
// appended through the dist router to the worker that owns the object
// (|D|=1000, |S|=10000, 2 workers over loopback). wireB/op is what the
// coordinator sends per write — the import frame — which is the number
// that says whether a write costs O(object) or O(chain): the Table I
// chain alone encodes to ~880 KB.
func BenchmarkDistributedObserve(b *testing.B) {
	db := benchDB(b, 1000, 10000)
	var sent atomic.Int64
	r := benchDistRouter(b, db, func(next http.RoundTripper) http.RoundTripper {
		return countingTransport{next: next, bytes: &sent}
	})
	sent.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := ust.Observation{Time: 1 + i/1000, PDF: markov.PointDistribution(10000, (7*i)%10000)}
		if err := r.Observe(i%1000, obs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sent.Load())/float64(b.N), "wireB/op")
}
