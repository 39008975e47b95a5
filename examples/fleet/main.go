// Heterogeneous fleet — the Section V-C discussion made concrete.
//
// A delivery fleet mixes vehicle classes (bikes, vans, trucks) whose
// motion models differ: bikes cut through the grid in any direction,
// vans follow the main-road drift, trucks are slow and inert. Every
// vehicle additionally gets a slightly perturbed personal chain
// (driver behaviour), so no two objects share a matrix — the worst
// case for query-based processing.
//
// The example demonstrates the paper's suggested remedies:
//
//  1. cluster vehicles by class and bound each cluster with an
//     interval chain (ExistsThresholdClustered) — most vehicles are decided
//     against the threshold without touching their individual chains;
//  2. let the cost planner pick a strategy per query (WithAutoPlan);
//  3. compare against exact per-object evaluation to show the pruned
//     result is identical.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"ust"
)

const (
	gridW, gridH = 25, 25
	perClass     = 60
)

func main() {
	grid := ust.NewGrid(gridW, gridH)
	rng := rand.New(rand.NewSource(17))

	// Class base models.
	classes := []struct {
		name string
		base func() (*ust.Chain, error)
	}{
		{"bike", func() (*ust.Chain, error) { return walkChain(grid, 0.2, 1.0) }},
		{"van", func() (*ust.Chain, error) { return walkChain(grid, 0.4, 0.3) }},
		{"truck", func() (*ust.Chain, error) { return walkChain(grid, 0.7, 0.1) }},
	}

	// The database: every vehicle gets a personal perturbation of its
	// class chain.
	first, err := classes[0].base()
	if err != nil {
		log.Fatal(err)
	}
	db := ust.NewDatabase(first)
	var clusterOf []int
	id := 0
	for ci, class := range classes {
		base, err := class.base()
		if err != nil {
			log.Fatal(err)
		}
		for v := 0; v < perClass; v++ {
			personal, err := perturb(base, 0.05, rng)
			if err != nil {
				log.Fatal(err)
			}
			depot := grid.ID(rng.Intn(gridW), rng.Intn(gridH))
			obj, err := ust.NewObject(id, personal,
				ust.Observation{Time: 0, PDF: ust.PointDistribution(grid.NumStates(), depot)})
			if err != nil {
				log.Fatal(err)
			}
			if err := db.Add(obj); err != nil {
				log.Fatal(err)
			}
			clusterOf = append(clusterOf, ci)
			id++
		}
	}
	fmt.Printf("fleet: %d vehicles in %d classes, %d distinct chains\n",
		db.Len(), len(classes), db.Len())

	// The query: which vehicles reach the city-centre pickup zone in
	// minutes 4..8 with probability ≥ 30%? The region goes into the
	// request as geometry; the R-tree resolves it at evaluation time.
	index := ust.IndexSpace(grid, 0)
	zone := index.Search(ust.NewRect(10, 10, 14, 14))
	query := ust.NewQuery(zone, ust.Interval(4, 8))
	engine := ust.NewEngine(db, ust.Options{})
	ctx := context.Background()
	const tau = 0.3

	// 1. Cluster-pruned evaluation. The envelope index is built once
	// (an offline cost amortized over every future query).
	t0 := time.Now()
	clusterIdx, err := engine.BuildClusterIndex(clusterOf)
	if err != nil {
		log.Fatal(err)
	}
	tBuild := time.Since(t0)

	t0 = time.Now()
	pruned, decided, err := engine.ExistsThresholdClustered(query, tau, clusterIdx)
	if err != nil {
		log.Fatal(err)
	}
	tPruned := time.Since(t0)
	fmt.Printf("\ncluster index built in %s (once, reused across queries)\n", tBuild.Round(time.Microsecond))
	fmt.Printf("cluster-pruned: %d qualifying, %d/%d vehicles decided by cluster bounds alone (%.0f%%), %s\n",
		len(pruned), decided, db.Len(), 100*float64(decided)/float64(db.Len()), tPruned.Round(time.Microsecond))

	// 2. Exact per-object evaluation for comparison, through the
	// unified entry point: region + window + threshold + ranking in one
	// request.
	t0 = time.Now()
	exactResp, err := engine.Evaluate(ctx, ust.NewRequest(ust.PredicateExists,
		ust.WithRegion(ust.NewRect(10, 10, 14, 14), index),
		ust.WithTimeRange(4, 8),
		ust.WithThreshold(tau),
		ust.WithTopK(db.Len())))
	if err != nil {
		log.Fatal(err)
	}
	exact := exactResp.Results
	tExact := time.Since(t0)
	fmt.Printf("exact:          %d qualifying, %s\n", len(exact), tExact.Round(time.Microsecond))
	if len(exact) != len(pruned) {
		log.Fatalf("PRUNING BUG: %d vs %d qualifying", len(pruned), len(exact))
	}
	for _, r := range exact[:min(3, len(exact))] {
		fmt.Printf("  vehicle %3d (%s): P = %.3f\n", r.ObjectID, classes[clusterOf[r.ObjectID]].name, r.Prob)
	}

	// 3. The cost planner's view of this query: WithAutoPlan picks the
	// cheaper strategy per request and reports the estimates.
	autoResp, err := engine.Evaluate(ctx, ust.NewRequest(ust.PredicateExists,
		ust.WithWindow(query), ust.WithAutoPlan()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplanner estimates:")
	for _, p := range autoResp.Plans {
		fmt.Printf("  %-13s sweeps=%3d  ops≈%.2g\n", p.Strategy, p.Sweeps, p.Ops)
	}
	fmt.Printf("auto-selected strategy: %s (%d results)\n", autoResp.Strategy, len(autoResp.Results))
}

// walkChain builds a lazy random walk with the given stay probability;
// diagonal mobility scales the 8-neighborhood weights.
func walkChain(g *ust.Grid, stay, diagonal float64) (*ust.Chain, error) {
	n := g.NumStates()
	rows := make([][]float64, n)
	for id := 0; id < n; id++ {
		rows[id] = make([]float64, n)
		rows[id][id] = stay
		x, y := g.Cell(id)
		total := 0.0
		type nb struct {
			id int
			w  float64
		}
		var nbs []nb
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := x+dx, y+dy
				if nx < 0 || nx >= g.W || ny < 0 || ny >= g.H {
					continue
				}
				w := 1.0
				if dx != 0 && dy != 0 {
					w = diagonal
				}
				if w == 0 {
					continue
				}
				nbs = append(nbs, nb{g.ID(nx, ny), w})
				total += w
			}
		}
		for _, v := range nbs {
			rows[id][v.id] = (1 - stay) * v.w / total
		}
	}
	return ust.ChainFromDense(rows)
}

// perturb jitters each row's weights by ±eps and renormalizes,
// modelling per-driver behaviour within a class.
func perturb(base *ust.Chain, eps float64, rng *rand.Rand) (*ust.Chain, error) {
	n := base.NumStates()
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]float64, n)
		sum := 0.0
		base.Successors(i, func(j int, p float64) {
			v := p * (1 + eps*(2*rng.Float64()-1))
			rows[i][j] = v
			sum += v
		})
		for j := range rows[i] {
			rows[i][j] /= sum
		}
	}
	return ust.ChainFromDense(rows)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
