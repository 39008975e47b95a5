package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The two scan drivers (evaluate.go) replaced ten per-variant stream
// cores. These tests pin what the ten copies agreed on, once per driver.

// scanTestDB interleaves two chain groups over the same state space, so
// evaluation order (chain-group order) differs from insertion order.
func scanTestDB(t *testing.T) *Database {
	t.Helper()
	const n = 60
	base := evalTestDB(t, 40, n)
	rng := rand.New(rand.NewSource(7))
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, (i+1)%n, 0.5+rng.Float64())
		b.Add(i, rng.Intn(n), 0.5)
	}
	own := markov.MustChain(b.Build().NormalizeRows())
	db := NewDatabase(base.DefaultChain())
	for i, o := range base.Objects() {
		var chain *markov.Chain
		if i%3 == 1 {
			chain = own
		}
		db.MustAdd(MustObject(i, chain, o.Observations...))
	}
	return db
}

// scanRequests is one request per predicate the drivers serve.
func scanRequests(opts ...RequestOption) map[string]Request {
	states, times := WithStates(Interval(10, 25)), WithTimes(Interval(2, 6))
	with := func(o ...RequestOption) []RequestOption { return append(o, opts...) }
	return map[string]Request{
		"exists": NewRequest(PredicateExists, with(states, times)...),
		"forall": NewRequest(PredicateForAll, with(WithStates(Interval(0, 50)), WithTimes(Interval(1, 2)))...),
		"ktimes": NewRequest(PredicateKTimes, with(states, times)...),
		"expr": NewExprRequest(And(ExistsAtom(states, times),
			Not(ExistsAtom(WithStates(Interval(30, 40)), WithTimes(Interval(4, 8))))), opts...),
	}
}

// drain runs EvaluateSeq to its end and returns what it delivered.
func drain(e *Engine, req Request) ([]Result, error) {
	var out []Result
	for r, err := range e.EvaluateSeq(context.Background(), req) {
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// exactModes are the (strategy, workers) shapes scan runs in.
var exactModes = map[string][]RequestOption{
	"qb":          {WithStrategy(StrategyQueryBased)},
	"qb-hint4":    {WithStrategy(StrategyQueryBased), WithParallelism(4)},
	"ob-serial":   {WithStrategy(StrategyObjectBased)},
	"ob-parallel": {WithStrategy(StrategyObjectBased), WithParallelism(4)},
}

// TestScanExact pins the exact driver: chain-group order, the parallel
// object-based fan-out bit-identical to the serial loop, the query-based
// strategy indifferent to the parallelism hint, and Evaluate ==
// EvaluateSeq throughout.
func TestScanExact(t *testing.T) {
	db := scanTestDB(t)
	e := NewEngine(db, Options{})
	ctx := context.Background()
	for name := range scanRequests() {
		got := map[string][]Result{}
		for mode, opts := range exactModes {
			req := scanRequests(opts...)[name]
			resp, err := e.Evaluate(ctx, req)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			streamed, err := drain(e, req)
			if err != nil || !reflect.DeepEqual(streamed, resp.Results) {
				t.Fatalf("%s/%s: EvaluateSeq (err %v) differs from Evaluate", name, mode, err)
			}
			got[mode] = resp.Results
		}
		if len(got["qb"]) != db.Len() {
			t.Fatalf("%s: %d results for %d objects", name, len(got["qb"]), db.Len())
		}
		// Evaluation order is chain-group order: the default-chain group
		// (first seen) before the own-chain group.
		groups := db.groupByChain()
		for i, r := range got["qb"] {
			want := groups[0].objects
			if i >= len(want) {
				want, i = groups[1].objects, i-len(want)
			}
			if r.ObjectID != want[i].ID {
				t.Fatalf("%s: result order is not chain-group order", name)
			}
		}
		if !reflect.DeepEqual(got["qb"], got["qb-hint4"]) {
			t.Errorf("%s: WithParallelism changed a query-based answer", name)
		}
		if !reflect.DeepEqual(got["ob-serial"], got["ob-parallel"]) {
			t.Errorf("%s: parallel object-based results are not bit-identical to serial", name)
		}
	}
	// Eventually is the same driver with the hitting vector hoisted per
	// group, serial under every strategy and hint.
	ev := NewRequest(PredicateEventually, WithStates(Interval(10, 25)), WithHittingLimits(300, 1e-10))
	want, err := e.Evaluate(ctx, ev)
	if err != nil {
		t.Fatal(err)
	}
	for mode, opts := range exactModes {
		resp, err := e.Evaluate(ctx, ev.With(opts...))
		if err != nil || !reflect.DeepEqual(resp.Results, want.Results) {
			t.Errorf("eventually/%s: err %v, results differ from the default run", mode, err)
		}
	}
}

// TestGroupByChainInterleaved pins the chain groups of a database whose
// chains interleave: first-seen group order, insertion order within a
// group, and groups that share a backing array at their exact sizes, so
// appending to one cannot overwrite the next.
func TestGroupByChainInterleaved(t *testing.T) {
	chainA := markov.MustChain(sparse.FromDense([][]float64{{1, 0}, {0, 1}}))
	chainB := markov.MustChain(sparse.FromDense([][]float64{{0, 1}, {1, 0}}))
	chainC := markov.MustChain(sparse.FromDense([][]float64{{0.5, 0.5}, {0.5, 0.5}}))
	db := NewDatabase(chainA)
	for id, ch := range []*markov.Chain{nil, chainB, chainB, nil, chainC, chainB, nil, chainA} {
		db.MustAdd(MustObject(id, ch, Observation{Time: 0, PDF: markov.PointDistribution(2, 0)}))
	}
	groups := db.groupByChain()
	want := []struct {
		chain *markov.Chain
		ids   []int
	}{{chainA, []int{0, 3, 6, 7}}, {chainB, []int{1, 2, 5}}, {chainC, []int{4}}}
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(groups), len(want))
	}
	for gi, g := range groups {
		var ids []int
		for _, o := range g.objects {
			ids = append(ids, o.ID)
		}
		if g.chain != want[gi].chain || !reflect.DeepEqual(ids, want[gi].ids) || cap(g.objects) != len(g.objects) {
			t.Fatalf("group %d: ids %v cap %d, want ids %v", gi, ids, cap(g.objects), want[gi].ids)
		}
	}
	_ = append(groups[0].objects, nil)
	if groups[1].objects[0].ID != 1 {
		t.Fatal("appending to one group overwrote the next")
	}
	if got := NewDatabase(chainA).groupByChain(); len(got) != 0 {
		t.Fatalf("an empty database has %d groups", len(got))
	}
}

// TestScanErrors pins where a scan stops. A poisoned object (observed
// after the horizon) at evaluation index i surfaces the same error from
// Evaluate and EvaluateSeq, with exactly the i results before it
// delivered. And the one rule for kernels: a group's kernel is built
// when the scan reaches the group, so a window that does not compile
// against a later group's smaller state space fails after the earlier
// groups' results — for the query-based strategy, the serial
// object-based loop and the parallel fan-out alike (at the parent the
// object-based cores compiled every group before the first result).
// Every consumer of the loop stops on the same error: a threshold stream
// delivers exactly the qualifying results before it, top-k none, and the
// count aggregate fails with it from Evaluate and AggregateFactors.
func TestScanErrors(t *testing.T) {
	ctx := context.Background()
	states, times := WithStates(Interval(10, 25)), WithTimes(Interval(2, 6))
	const tau = 0.65 // about half of the first group qualifies

	clean := NewEngine(scanTestDB(t), Options{})
	poisonedDB := scanTestDB(t)
	const poisonedAt = 17 // evaluation index inside the first chain group
	victim := poisonedDB.groupByChain()[0].objects[poisonedAt]
	poisonedDB.MustAdd(MustObject(1000, nil, Observation{Time: 0, PDF: markov.PointDistribution(60, 0)}))
	if err := poisonedDB.ReplaceObject(MustObject(victim.ID, nil,
		Observation{Time: 99, PDF: markov.PointDistribution(60, 0)})); err != nil {
		t.Fatal(err)
	}
	poisoned := NewEngine(poisonedDB, Options{})

	smallDB := scanTestDB(t)
	firstGroups := smallDB.Len()
	smallDB.MustAdd(MustObject(2000, paperChainV(t), Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	small := NewEngine(smallDB, Options{})

	qualifying := func(rs []Result) []Result {
		var out []Result
		for _, r := range rs {
			if r.Prob >= tau {
				out = append(out, r)
			}
		}
		return out
	}
	for mode, opts := range exactModes {
		req := NewRequest(PredicateExists, append([]RequestOption{states, times}, opts...)...)
		want, err := clean.Evaluate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		threshold, topK := req.With(WithThreshold(tau)), req.With(WithTopK(5))
		count := NewAggRequest(PredicateExists, AggSpec{Kind: AggCount}, append([]RequestOption{states, times}, opts...)...)

		for _, c := range []struct {
			name   string
			e      *Engine
			before []Result // the plain stream's results before the error
		}{
			{"poisoned object", poisoned, want.Results[:poisonedAt]},
			{"uncompilable group", small, want.Results[:firstGroups]},
		} {
			_, evalErr := c.e.Evaluate(ctx, req)
			got, seqErr := drain(c.e, req)
			if evalErr == nil || seqErr == nil || evalErr.Error() != seqErr.Error() {
				t.Fatalf("%s: %s: Evaluate %v, EvaluateSeq %v, want the same error", mode, c.name, evalErr, seqErr)
			}
			if !reflect.DeepEqual(got, c.before) {
				t.Errorf("%s: %s: %d results before the error, want exactly the %d before it", mode, c.name, len(got), len(c.before))
			}
			same := func(consumer string, err error) {
				t.Helper()
				if err == nil || err.Error() != evalErr.Error() {
					t.Errorf("%s: %s: %s failed with %v, want the plain stream's %v", mode, c.name, consumer, err, evalErr)
				}
			}

			_, err := c.e.Evaluate(ctx, threshold)
			same("threshold Evaluate", err)
			got, err = drain(c.e, threshold)
			same("threshold EvaluateSeq", err)
			if wantT := qualifying(c.before); !reflect.DeepEqual(got, wantT) {
				t.Errorf("%s: %s: threshold stream delivered %d results before the error, want the %d qualifying ones", mode, c.name, len(got), len(wantT))
			}

			_, err = c.e.Evaluate(ctx, topK)
			same("top-k Evaluate", err)
			got, err = drain(c.e, topK)
			same("top-k EvaluateSeq", err)
			if len(got) != 0 {
				t.Errorf("%s: %s: top-k stream delivered %d results before the error, want none", mode, c.name, len(got))
			}

			_, err = c.e.Evaluate(ctx, count)
			same("count Evaluate", err)
			_, err = c.e.AggregateFactors(ctx, count)
			same("count AggregateFactors", err)
		}
	}
}

// TestScanMC pins the sampling driver: insertion order, a shared rng
// when serial (reproducible at a fixed seed), per-object seeds when
// parallel (so the answer depends on the seed and the object id alone —
// not on the worker count, the scheduling, or what else is in the
// database), every sampler compiled before the first sample, and the
// same poisoned-object rule as the exact driver.
func TestScanMC(t *testing.T) {
	ctx := context.Background()
	db := scanTestDB(t)
	e := NewEngine(db, Options{})
	mc := []RequestOption{WithStrategy(StrategyMonteCarlo), WithMonteCarloBudget(40, 9)}

	for name, req := range scanRequests(mc...) {
		serial, err := e.Evaluate(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, r := range serial.Results {
			if r.ObjectID != db.Objects()[i].ID {
				t.Fatalf("%s: serial Monte-Carlo is not in insertion order", name)
			}
		}
		if again, _ := e.Evaluate(ctx, req); !reflect.DeepEqual(again.Results, serial.Results) {
			t.Errorf("%s: serial Monte-Carlo is not reproducible at a fixed seed", name)
		}
		par4, err := e.Evaluate(ctx, req.With(WithParallelism(4)))
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		par2, err := drain(e, req.With(WithParallelism(2)))
		if err != nil || !reflect.DeepEqual(par2, par4.Results) {
			t.Errorf("%s: per-object-seeded results depend on the worker count (err %v)", name, err)
		}
		// Per-object seeding: object i's answer is that of a one-object
		// database holding it alone, evaluated in parallel mode.
		probe := db.Objects()[5]
		alone := NewDatabase(db.DefaultChain())
		alone.MustAdd(probe)
		one, err := NewEngine(alone, Options{}).Evaluate(ctx, req.With(WithParallelism(2)))
		if err != nil || !reflect.DeepEqual(one.Results[0], par4.Results[5]) {
			t.Errorf("%s: parallel result of object %d is not a function of (seed, id) alone (err %v)", name, probe.ID, err)
		}
	}

	exists := scanRequests(mc...)["exists"]
	want, err := e.Evaluate(ctx, exists)
	if err != nil {
		t.Fatal(err)
	}
	poisonedDB := scanTestDB(t)
	const poisonedAt = 11
	if err := poisonedDB.ReplaceObject(MustObject(poisonedDB.Objects()[poisonedAt].ID, nil,
		Observation{Time: 99, PDF: markov.PointDistribution(60, 0)})); err != nil {
		t.Fatal(err)
	}
	poisoned := NewEngine(poisonedDB, Options{})
	_, evalErr := poisoned.Evaluate(ctx, exists)
	got, seqErr := drain(poisoned, exists)
	if evalErr == nil || seqErr == nil || evalErr.Error() != seqErr.Error() {
		t.Fatalf("poisoned object: Evaluate %v, EvaluateSeq %v, want the same error", evalErr, seqErr)
	}
	if !reflect.DeepEqual(got, want.Results[:poisonedAt]) {
		t.Errorf("%d results before the poisoned object, want exactly the first %d (shared rng, same order)", len(got), poisonedAt)
	}

	// Samplers compile up front: an uncompilable chain anywhere fails
	// the scan before its first result, serial and parallel alike.
	smallDB := scanTestDB(t)
	smallDB.MustAdd(MustObject(2000, paperChainV(t), Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	small := NewEngine(smallDB, Options{})
	for _, req := range []Request{exists, exists.With(WithParallelism(4))} {
		_, evalErr := small.Evaluate(ctx, req)
		got, seqErr := drain(small, req)
		if evalErr == nil || seqErr == nil || evalErr.Error() != seqErr.Error() || len(got) != 0 {
			t.Errorf("uncompilable chain: Evaluate %v, EvaluateSeq %v after %d results, want the same error before any", evalErr, seqErr, len(got))
		}
	}
}
