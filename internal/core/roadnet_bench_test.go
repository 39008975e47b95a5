package core

import (
	"context"
	"math/rand"
	"testing"

	"ust/internal/markov"
	"ust/internal/network"
)

// bfsStates returns start and its breadth-first neighbourhood on g, size
// states in all (fewer when the component is smaller).
func bfsStates(g *network.Graph, start, size int) []int {
	seen := map[int]bool{start: true}
	states, frontier := []int{start}, []int{start}
	for len(states) < size && len(frontier) > 0 {
		var next []int
		for _, u := range frontier {
			g.Successors(u, func(v int) {
				if !seen[v] && len(states) < size {
					seen[v] = true
					states = append(states, v)
					next = append(next, v)
				}
			})
		}
		frontier = next
	}
	return states
}

// munichLanesDB builds the road-network fixture of BenchmarkMunichLanes:
// the Munich-like network (network.MunichSpec(1), 73 120 states, 2.57
// successors per state, ids without locality), its random row-stochastic
// chain, objects observed at t = 0 with a uniform pdf over a 5-state BFS
// neighbourhood, and a 100-state BFS region.
func munichLanesDB(tb testing.TB, objects int) (*Database, []int) {
	tb.Helper()
	g, err := network.Generate(network.MunichSpec(1))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	chain, err := markov.NewChain(g.TransitionMatrix(rng))
	if err != nil {
		tb.Fatal(err)
	}
	n := g.NumNodes()
	region := bfsStates(g, rng.Intn(n), 100)
	db := NewDatabase(chain)
	for id := 0; id < objects; id++ {
		db.MustAdd(MustObject(id, nil, Observation{Time: 0, PDF: markov.UniformOver(n, bfsStates(g, rng.Intn(n), 5))}))
	}
	return db, region
}

// BenchmarkMunichLanes times the lane kernel on a chain without id
// locality: an object-based exists and forall scan over 64 objects
// (clipped, the default) and one query-based exists sweep, cache off, on
// the Munich-like road network, window [10, 15]. On this chain a row's
// successors fall in as many 64-state words as they are many, where the
// synthetic T1 chain of BenchmarkScanOB packs five into about one and a
// half. The reach cone, computed once per request, is a fixed share of
// each scan. alloc-gate holds its allocs/op.
func BenchmarkMunichLanes(b *testing.B) {
	db, region := munichLanesDB(b, 64)
	e := NewEngine(db, Options{CacheBytes: -1})
	ctx := context.Background()
	where, window := WithStates(region), WithTimes(Interval(10, 15))
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"ob/exists", NewRequest(PredicateExists, where, window, WithStrategy(StrategyObjectBased))},
		{"ob/forall", NewRequest(PredicateForAll, where, window, WithStrategy(StrategyObjectBased))},
		{"qb/exists", NewRequest(PredicateExists, where, window, qb)},
	} {
		if _, err := e.Evaluate(ctx, c.req); err != nil { // warm: transpose, pool
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Evaluate(ctx, c.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
