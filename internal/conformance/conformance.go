// Package conformance pins every engine implementation — the
// in-process core.Engine, the shard router, the remote client — to
// byte-identical query results. It provides a canonical dataset, a
// table of (predicate × strategy × ranking × window/region × expr)
// cases, and a Verify runner that answers each case through a
// reference and a candidate Evaluator and requires the same float64
// bits in the same order, through both the batch and the streaming
// entry points (and EvaluateBatch when available).
//
// Implementations instantiate it in their own tests: the engine against
// itself (a smoke check of the table), the shard router at 1, 2 and 8
// shards against a single engine, and the HTTP stack against a local
// twin through httptest.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"testing"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/sparse"
	"ust/internal/spatial"
)

// Evaluator is the surface a candidate must serve — the two primary
// entry points of core.Evaluator. Implementations that also serve
// EvaluateBatch get it verified when both sides support it.
type Evaluator interface {
	Evaluate(ctx context.Context, req core.Request) (*core.Response, error)
	EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error]
}

// BatchEvaluator is the optional batch surface.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, reqs []core.Request) ([]*core.Response, error)
}

// Options tailor a Verify run to a candidate's documented semantics.
type Options struct {
	// SkipSerialMC skips the serial Monte-Carlo case: its shared rng
	// stream is consumed in whole-database order, which a sharded
	// engine cannot reproduce (the router documents per-object seeding
	// instead; the seeded MC cases cover it).
	SkipSerialMC bool
}

// Case is one conformance query.
type Case struct {
	Name string
	Req  core.Request
	// SerialMC marks the case as depending on the serial shared-rng
	// Monte-Carlo stream (see Options.SkipSerialMC).
	SerialMC bool
}

// NewDataset builds the canonical conformance dataset: a 8×8 grid state
// space, two motion models (a lazy 4-neighbour random walk as the
// database default, a right-drifting walk for every third object)
// interleaved so that chain-group emission order differs between the
// whole database and typical shard slices, scattered object ids (the
// hash ring must not see a contiguous range), observation times spread
// over 0..3, and a mix of precise and imprecise observations. The
// returned resolver grounds the table's geometric region cases.
func NewDataset() (*core.Database, spatial.Resolver) {
	grid := spatial.NewGrid(8, 8)
	walk := gridChain(grid, false)
	drift := gridChain(grid, true)
	db := core.NewDatabase(walk)
	for i := 0; i < 24; i++ {
		id := (i*37 + 5) % 211
		var chain *markov.Chain
		if i%3 == 1 {
			chain = drift
		}
		t0 := i % 4
		s := (i * 13) % 64
		var pdf *markov.Distribution
		if i%5 == 0 {
			pdf = markov.UniformOver(64, []int{s, (s + 9) % 64, (s + 27) % 64})
		} else {
			pdf = markov.PointDistribution(64, s)
		}
		db.MustAdd(core.MustObject(id, chain, core.Observation{Time: t0, PDF: pdf}))
	}
	return db, grid
}

// NewUnorderedDataset is the canonical dataset's chain mix and ids with
// weighted pdfs whose states are listed out of order — four (a sparse
// pdf), twenty and forty (past half of the 64 states: stored as a full
// column) — and whose observation times spread over 0..3. A pdf is
// built ascending whatever order its states are listed in, so every
// deployment shape, and a store or frame round trip, must answer this
// dataset with the same bits as the canonical build. The canonical
// table's resolver (NewDataset's) grounds its geometric cases.
func NewUnorderedDataset() *core.Database {
	grid := spatial.NewGrid(8, 8)
	walk, drift := gridChain(grid, false), gridChain(grid, true)
	db := core.NewDatabase(walk)
	for i := 0; i < 24; i++ {
		var chain *markov.Chain
		if i%3 == 1 {
			chain = drift
		}
		width := []int{4, 4, 20, 1, 40}[i%5]
		states := make([]int, width)
		weights := make([]float64, width)
		for k := range states {
			states[k] = (i*13 + k*37) % 64 // 37 is coprime to 64: distinct, unordered
			weights[k] = float64(1 + (i+k*k)%7)
		}
		pdf, err := markov.WeightedOver(64, states, weights)
		if err != nil {
			panic(err)
		}
		db.MustAdd(core.MustObject((i*37+5)%211, chain, core.Observation{Time: i % 4, PDF: pdf}))
	}
	return db
}

// NewMultiObsDataset builds the multi-observation variant of the
// canonical dataset: the same grid, chain mix, scattered ids and
// initial pdfs, but every object carries three or four observations.
// Each later observation is drawn from the states the motion model can
// actually reach from the previous one (evolve, then keep a spread of
// the reachable support), so the joint mass is never zero and the
// interpolating multi-observation kernels — not the extrapolating
// single-observation sweeps — answer every query.
func NewMultiObsDataset() (*core.Database, spatial.Resolver) {
	grid := spatial.NewGrid(8, 8)
	walk := gridChain(grid, false)
	drift := gridChain(grid, true)
	db := core.NewDatabase(walk)
	for i := 0; i < 24; i++ {
		id := (i*37 + 5) % 211
		chain := walk
		var own *markov.Chain
		if i%3 == 1 {
			own = drift
			chain = drift
		}
		t0 := i % 4
		s := (i * 13) % 64
		var pdf *markov.Distribution
		if i%5 == 0 {
			pdf = markov.UniformOver(64, []int{s, (s + 9) % 64, (s + 27) % 64})
		} else {
			pdf = markov.PointDistribution(64, s)
		}
		obs := []core.Observation{{Time: t0, PDF: pdf}}
		cur := sparse.NewVec(64)
		pdf.CopyTo(cur)
		cur.Normalize()
		t := t0
		for k := 1; k < 3+i%2; k++ {
			dt := 2 + (i+k)%2
			cur = chain.Evolve(cur, dt)
			t += dt
			// Keep half to three-quarters of the reachable support:
			// narrow enough that fusion genuinely reshapes the
			// posterior, wide enough that Monte-Carlo rejection
			// sampling keeps a workable acceptance rate.
			supp := cur.Support()
			next := reachableSpread(supp, max(2, len(supp)*(2+(i+k)%2)/4))
			opdf := markov.UniformOver(64, next)
			obs = append(obs, core.Observation{Time: t, PDF: opdf})
			cur = sparse.NewVec(64)
			opdf.CopyTo(cur)
			cur.Normalize()
		}
		db.MustAdd(core.MustObject(id, own, obs...))
	}
	return db, grid
}

// reachableSpread deterministically picks up to want states spread
// across a reachable support (ascending, as UniformOver expects).
func reachableSpread(supp []int, want int) []int {
	if want < 1 {
		want = 1
	}
	if want > len(supp) {
		want = len(supp)
	}
	picked := make([]int, 0, want)
	for k := 0; k < want; k++ {
		picked = append(picked, supp[k*(len(supp)-1)/max(want-1, 1)])
	}
	out := picked[:1]
	for _, s := range picked[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// NextObservation derives a fresh, motion-model-consistent sighting for
// an object: two steps past its last observation, over a spread of the
// states reachable from it. The ingest-during-query conformance pass
// feeds these through each implementation's ingest surface.
func NextObservation(db *core.Database, o *core.Object) core.Observation {
	ch := db.ChainOf(o)
	cur := sparse.NewVec(ch.NumStates())
	o.Last().PDF.CopyTo(cur)
	cur.Normalize()
	const dt = 2
	evolved := ch.Evolve(cur, dt)
	supp := evolved.Support()
	// Half the reachable support, like the dataset's own observations:
	// narrower picks (the support's extremes are the least likely
	// states) would starve Monte-Carlo rejection sampling.
	return core.Observation{
		Time: o.Last().Time + dt,
		PDF:  markov.UniformOver(ch.NumStates(), reachableSpread(supp, max(2, len(supp)/2))),
	}
}

// gridChain builds a row-stochastic motion model over the grid: a lazy
// random walk (equal mass on self and the 4-neighbourhood), or a
// right-drifting variant that weights the +x neighbour triple.
func gridChain(grid *spatial.Grid, drift bool) *markov.Chain {
	n := grid.NumStates()
	rows := make([][]float64, n)
	for s := 0; s < n; s++ {
		row := make([]float64, n)
		x, _ := grid.Cell(s)
		row[s] += 2
		for _, nb := range grid.Neighbors4(s) {
			nx, _ := grid.Cell(nb)
			w := 1.0
			if drift && nx == x+1 {
				w = 4
			}
			row[nb] += w
		}
		total := 0.0
		for _, v := range row {
			total += v
		}
		for j := range row {
			row[j] /= total
		}
		rows[s] = row
	}
	chain, err := markov.FromDense(rows)
	if err != nil {
		panic(fmt.Sprintf("conformance: grid chain: %v", err))
	}
	return chain
}

// Cases returns the conformance table. res grounds the geometric
// cases; pass the resolver NewDataset returned.
func Cases(res spatial.Resolver) []Case {
	region := core.Interval(40, 55) // rows 5-6 of the grid
	small := core.Interval(58, 61)  // part of the top row
	window := core.WithTimes(core.Interval(5, 8))
	late := core.WithTimes(core.Interval(9, 11))
	inRegion := core.WithStates(region)

	var cases []Case
	add := func(name string, req core.Request) {
		cases = append(cases, Case{Name: name, Req: req})
	}

	// Predicate × strategy over the shared window.
	for _, p := range []struct {
		name string
		pred core.Predicate
	}{
		{"exists", core.PredicateExists},
		{"forall", core.PredicateForAll},
		{"ktimes", core.PredicateKTimes},
	} {
		add(p.name+"/qb", core.NewRequest(p.pred, inRegion, window,
			core.WithStrategy(core.StrategyQueryBased)))
		add(p.name+"/ob", core.NewRequest(p.pred, inRegion, window,
			core.WithStrategy(core.StrategyObjectBased)))
		add(p.name+"/mc", core.NewRequest(p.pred, inRegion, window,
			core.WithStrategy(core.StrategyMonteCarlo),
			core.WithMonteCarloBudget(48, 11), core.WithParallelism(2)))
	}
	cases = append(cases, Case{
		Name: "exists/mc-serial",
		Req: core.NewRequest(core.PredicateExists, inRegion, window,
			core.WithStrategy(core.StrategyMonteCarlo), core.WithMonteCarloBudget(48, 11)),
		SerialMC: true,
	})

	// Unbounded horizon, default and custom fixed-point limits.
	add("eventually/default", core.NewRequest(core.PredicateEventually, core.WithStates(small)))
	add("eventually/limits", core.NewRequest(core.PredicateEventually, core.WithStates(small),
		core.WithHittingLimits(40, 1e-7)))

	// Planner-chosen strategy.
	add("exists/auto", core.NewRequest(core.PredicateExists, inRegion, window, core.WithAutoPlan()))
	add("exists/auto-topk", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithAutoPlan(), core.WithTopK(7)))

	// Ranking: threshold (evaluation order), top-k (ranked order), both.
	add("exists/threshold", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithThreshold(0.25)))
	add("exists/threshold-ob", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithThreshold(0.25), core.WithStrategy(core.StrategyObjectBased)))
	add("exists/topk", core.NewRequest(core.PredicateExists, inRegion, window, core.WithTopK(5)))
	add("forall/topk", core.NewRequest(core.PredicateForAll, inRegion, window, core.WithTopK(9)))
	add("exists/topk-threshold", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithTopK(6), core.WithThreshold(0.1)))
	add("ktimes/threshold", core.NewRequest(core.PredicateKTimes, inRegion, window,
		core.WithThreshold(0.2)))

	// Cache and filter toggles must not change results.
	add("exists/no-cache", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithCache(false)))
	add("exists/topk-no-filter", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithTopK(5), core.WithFilterRefine(false)))

	// Parallel object-based fan-out.
	add("exists/ob-parallel", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithStrategy(core.StrategyObjectBased), core.WithParallelism(3)))

	// Geometric region, resolved through the spatial index.
	add("exists/region", core.NewRequest(core.PredicateExists,
		core.WithRegion(spatial.NewRect(4.5, 1.5, 7.5, 5.5), res), window))
	add("ktimes/region", core.NewRequest(core.PredicateKTimes,
		core.WithRegion(spatial.NewRect(0.5, 4.5, 3.5, 7.5), res), late))

	// Compound expressions: every combinator, with ranking and both
	// exact strategies.
	atomA := core.ExistsAtom(core.WithStates(region), core.WithTimes(core.Interval(4, 6)))
	atomB := core.ForAllAtom(core.WithStates(core.Interval(16, 47)), core.WithTimes(core.Interval(8, 9)))
	atomEarly := core.ExistsAtom(core.WithStates(small), core.WithTimes(core.Interval(4, 5)))
	atomLate := core.ExistsAtom(core.WithStates(region), core.WithTimes(core.Interval(7, 9)))
	add("expr/and-not", core.NewExprRequest(core.And(atomA, core.Not(atomB))))
	add("expr/or-ob", core.NewExprRequest(core.Or(atomA, atomB),
		core.WithStrategy(core.StrategyObjectBased)))
	add("expr/then", core.NewExprRequest(core.Then(atomEarly, atomLate)))
	add("expr/threshold", core.NewExprRequest(core.And(atomA, core.Not(atomB)),
		core.WithThreshold(0.15)))
	add("expr/topk", core.NewExprRequest(core.Or(atomA, atomB), core.WithTopK(8)))
	add("expr/region", core.NewExprRequest(core.And(
		core.ExistsAtom(core.WithRegion(spatial.NewRect(4.5, 1.5, 7.5, 5.5), res),
			core.WithTimes(core.Interval(4, 6))),
		core.Not(atomB))))
	add("expr/mc", core.NewExprRequest(core.Or(atomA, atomB),
		core.WithStrategy(core.StrategyMonteCarlo),
		core.WithMonteCarloBudget(32, 23), core.WithParallelism(2)))

	// Probabilistic aggregates: the count distribution IS the answer, so
	// these cases compare Response.Agg bit for bit — the PMF must come
	// out byte-identical whether the factors were folded by one engine,
	// pooled across shards, or carried over the wire.
	count := core.AggSpec{Kind: core.AggCount}
	add("agg/count-qb", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithStrategy(core.StrategyQueryBased)))
	add("agg/count-ob", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithStrategy(core.StrategyObjectBased)))
	add("agg/count-forall", core.NewAggRequest(core.PredicateForAll, count, inRegion, window))
	add("agg/count-ktimes", core.NewAggRequest(core.PredicateKTimes, count, inRegion, window))
	add("agg/count-min", core.NewAggRequest(core.PredicateExists,
		core.AggSpec{Kind: core.AggCount, MinCount: 4}, inRegion, window))
	add("agg/count-auto", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithAutoPlan()))
	add("agg/count-no-filter", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithFilterRefine(false)))
	add("agg/count-mc", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithStrategy(core.StrategyMonteCarlo),
		core.WithMonteCarloBudget(48, 11), core.WithParallelism(2)))
	add("agg/count-expr", core.NewExprRequest(core.And(atomA, core.Not(atomB)),
		core.WithAggregate(count)))
	add("agg/count-eventually", core.NewAggRequest(core.PredicateEventually, count,
		core.WithStates(small)))
	add("agg/count-region", core.NewAggRequest(core.PredicateExists, count,
		core.WithRegion(spatial.NewRect(4.5, 1.5, 7.5, 5.5), res), window))
	add("agg/occupancy", core.NewAggRequest(core.PredicateExists,
		core.AggSpec{Kind: core.AggOccupancy, MinCount: 2}, inRegion, window))

	return cases
}

// MultiObsCases returns the conformance table for the multi-observation
// dataset. It spans the same dimensions as Cases — predicate × strategy,
// ranking, planner, cache/filter toggles, geometric regions, count
// aggregates — minus the surfaces that document single-observation-only
// semantics (ktimes, eventually, compound expressions) and so error on
// every object of a multi-observation database.
func MultiObsCases(res spatial.Resolver) []Case {
	region := core.Interval(40, 55)
	window := core.WithTimes(core.Interval(5, 8))
	inRegion := core.WithStates(region)

	var cases []Case
	add := func(name string, req core.Request) {
		cases = append(cases, Case{Name: name, Req: req})
	}

	for _, p := range []struct {
		name string
		pred core.Predicate
	}{
		{"exists", core.PredicateExists},
		{"forall", core.PredicateForAll},
	} {
		add(p.name+"/qb", core.NewRequest(p.pred, inRegion, window,
			core.WithStrategy(core.StrategyQueryBased)))
		add(p.name+"/ob", core.NewRequest(p.pred, inRegion, window,
			core.WithStrategy(core.StrategyObjectBased)))
		add(p.name+"/mc", core.NewRequest(p.pred, inRegion, window,
			core.WithStrategy(core.StrategyMonteCarlo),
			core.WithMonteCarloBudget(192, 11), core.WithParallelism(2)))
	}
	cases = append(cases, Case{
		Name: "exists/mc-serial",
		Req: core.NewRequest(core.PredicateExists, inRegion, window,
			core.WithStrategy(core.StrategyMonteCarlo), core.WithMonteCarloBudget(192, 11)),
		SerialMC: true,
	})

	add("exists/auto", core.NewRequest(core.PredicateExists, inRegion, window, core.WithAutoPlan()))
	add("exists/auto-topk", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithAutoPlan(), core.WithTopK(7)))

	add("exists/threshold", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithThreshold(0.25)))
	add("exists/threshold-ob", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithThreshold(0.25), core.WithStrategy(core.StrategyObjectBased)))
	add("exists/topk", core.NewRequest(core.PredicateExists, inRegion, window, core.WithTopK(5)))
	add("forall/topk", core.NewRequest(core.PredicateForAll, inRegion, window, core.WithTopK(9)))

	add("exists/no-cache", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithCache(false)))
	add("exists/topk-no-filter", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithTopK(5), core.WithFilterRefine(false)))
	add("exists/ob-parallel", core.NewRequest(core.PredicateExists, inRegion, window,
		core.WithStrategy(core.StrategyObjectBased), core.WithParallelism(3)))

	add("exists/region", core.NewRequest(core.PredicateExists,
		core.WithRegion(spatial.NewRect(4.5, 1.5, 7.5, 5.5), res), window))

	count := core.AggSpec{Kind: core.AggCount}
	add("agg/count-qb", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithStrategy(core.StrategyQueryBased)))
	add("agg/count-ob", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithStrategy(core.StrategyObjectBased)))
	add("agg/count-forall", core.NewAggRequest(core.PredicateForAll, count, inRegion, window))
	add("agg/count-min", core.NewAggRequest(core.PredicateExists,
		core.AggSpec{Kind: core.AggCount, MinCount: 4}, inRegion, window))
	add("agg/count-auto", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithAutoPlan()))
	add("agg/count-no-filter", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithFilterRefine(false)))
	add("agg/count-mc", core.NewAggRequest(core.PredicateExists, count, inRegion, window,
		core.WithStrategy(core.StrategyMonteCarlo),
		core.WithMonteCarloBudget(192, 11), core.WithParallelism(2)))
	add("agg/count-region", core.NewAggRequest(core.PredicateExists, count,
		core.WithRegion(spatial.NewRect(4.5, 1.5, 7.5, 5.5), res), window))
	add("agg/occupancy", core.NewAggRequest(core.PredicateExists,
		core.AggSpec{Kind: core.AggOccupancy, MinCount: 2}, inRegion, window))

	return cases
}

// Verify answers every case through ref and got and requires
// byte-identical Results (and the same resolved Strategy and planner
// estimates) from Evaluate, the same sequence from EvaluateSeq, and —
// when both sides implement BatchEvaluator — the same per-item results
// from one EvaluateBatch over the whole table.
func Verify(t *testing.T, res spatial.Resolver, ref, got Evaluator, opts Options) {
	t.Helper()
	verifyCases(t, Cases(res), ref, got, opts)
}

// VerifyMultiObs runs the multi-observation table, then — when an
// ingest hook is supplied — appends a fresh consistent sighting to
// several objects through the candidate's own ingest surface and
// replays the table. db must be the database both evaluators serve;
// ingest routes an observation the way the implementation's callers
// would (ReplaceObject on the engine, Router.Observe across shards,
// Client.Observe over HTTP).
func VerifyMultiObs(t *testing.T, db *core.Database, res spatial.Resolver, ref, got Evaluator,
	ingest func(objectID int, obs core.Observation) error, opts Options) {
	t.Helper()
	cases := MultiObsCases(res)
	t.Run("initial", func(t *testing.T) {
		verifyCases(t, cases, ref, got, opts)
	})
	if ingest == nil {
		return
	}
	t.Run("ingest-during-query", func(t *testing.T) {
		objs := db.Objects()
		for i := 0; i < len(objs); i += 7 {
			o := objs[i]
			if err := ingest(o.ID, NextObservation(db, o)); err != nil {
				t.Fatalf("ingest for object %d: %v", o.ID, err)
			}
			if cur := db.Get(o.ID); len(cur.Observations) != len(o.Observations)+1 {
				t.Fatalf("ingest for object %d did not reach the shared database", o.ID)
			}
		}
		verifyCases(t, cases, ref, got, opts)
	})
}

func verifyCases(t *testing.T, cases []Case, ref, got Evaluator, opts Options) {
	t.Helper()
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if c.SerialMC && opts.SkipSerialMC {
				t.Skip("serial Monte-Carlo stream is not shardable (per-object seeding applies)")
			}
			want, err := ref.Evaluate(ctx, c.Req)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			have, err := got.Evaluate(ctx, c.Req)
			if err != nil {
				t.Fatalf("candidate: %v", err)
			}
			if !reflect.DeepEqual(normalize(have.Results), normalize(want.Results)) {
				t.Fatalf("results diverge:\n  candidate %+v\n  reference %+v", have.Results, want.Results)
			}
			// Aggregate answers compare bit for bit — DeepEqual over the
			// PMF/profile float64s is the byte-identity pin.
			if !reflect.DeepEqual(have.Agg, want.Agg) {
				t.Fatalf("aggregate diverges:\n  candidate %+v\n  reference %+v", have.Agg, want.Agg)
			}
			if have.Strategy != want.Strategy {
				t.Fatalf("strategy: candidate %v, reference %v", have.Strategy, want.Strategy)
			}
			if !reflect.DeepEqual(have.Plans, want.Plans) {
				t.Fatalf("plans: candidate %+v, reference %+v", have.Plans, want.Plans)
			}

			if _, isAgg := c.Req.AggregateHint(); isAgg {
				// Streaming an aggregate must refuse with the sentinel on
				// every implementation, not hang or fabricate rows.
				sawSentinel := false
				for _, serr := range got.EvaluateSeq(ctx, c.Req) {
					if serr == nil {
						t.Fatal("candidate streamed a result for an aggregate request")
					}
					if !errors.Is(serr, core.ErrAggregateStream) {
						t.Fatalf("candidate stream error %v, want ErrAggregateStream", serr)
					}
					sawSentinel = true
					break
				}
				if !sawSentinel {
					t.Fatal("candidate stream for an aggregate request yielded nothing")
				}
				return
			}
			var streamed []core.Result
			for r, serr := range got.EvaluateSeq(ctx, c.Req) {
				if serr != nil {
					t.Fatalf("candidate stream: %v", serr)
				}
				streamed = append(streamed, r)
			}
			if !reflect.DeepEqual(normalize(streamed), normalize(want.Results)) {
				t.Fatalf("streamed results diverge:\n  candidate %+v\n  reference %+v", streamed, want.Results)
			}
		})
	}

	refBatch, refOK := ref.(BatchEvaluator)
	gotBatch, gotOK := got.(BatchEvaluator)
	if !refOK || !gotOK {
		return
	}
	t.Run("batch", func(t *testing.T) {
		var reqs []core.Request
		var names []string
		for _, c := range cases {
			if c.SerialMC && opts.SkipSerialMC {
				continue
			}
			reqs = append(reqs, c.Req)
			names = append(names, c.Name)
		}
		want, err := refBatch.EvaluateBatch(ctx, reqs)
		if err != nil {
			t.Fatalf("reference batch: %v", err)
		}
		have, err := gotBatch.EvaluateBatch(ctx, reqs)
		if err != nil {
			t.Fatalf("candidate batch: %v", err)
		}
		for i := range reqs {
			if !reflect.DeepEqual(normalize(have[i].Results), normalize(want[i].Results)) {
				t.Errorf("%s: batch results diverge:\n  candidate %+v\n  reference %+v",
					names[i], have[i].Results, want[i].Results)
			}
			if !reflect.DeepEqual(have[i].Agg, want[i].Agg) {
				t.Errorf("%s: batch aggregate diverges:\n  candidate %+v\n  reference %+v",
					names[i], have[i].Agg, want[i].Agg)
			}
		}
	})
}

// normalize maps empty result slices to nil so batch (non-nil empty)
// and streamed (nil) shapes compare equal.
func normalize(rs []core.Result) []core.Result {
	if len(rs) == 0 {
		return nil
	}
	return rs
}
