// Traffic prediction on a road network — the paper's second application
// domain ("predict the number of cars that will be in a congested road
// segment after 10-15 minutes").
//
// We generate a Munich-shaped road network (scaled down), derive the
// motion model from its adjacency as the paper does, place vehicles at
// intersections, and ask for the *expected number of vehicles* inside a
// congestion zone during the 10-15 minute window: the sum of the
// per-vehicle PST∃Q probabilities. The query-based strategy answers
// this for every vehicle with a single backward sweep.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ust"
)

const (
	numVehicles = 2000
	networkDiv  = 50 // scale factor applied to the Munich-sized network
)

func main() {
	// 1. Road network shaped like the paper's Munich dataset.
	spec := ust.MunichSpec(7).Scaled(networkDiv)
	roads, err := ust.NewRoadNetwork(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d intersections, %d directed segments\n",
		roads.NumNodes(), roads.NumEdges())

	rng := rand.New(rand.NewSource(7))
	chain, err := ust.ChainFromGraph(roads, rng)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Vehicles: each last seen at an intersection; a GPS fix may snap
	// to any adjacent intersection, so the pdf covers the neighborhood.
	db := ust.NewDatabase(chain)
	n := roads.NumNodes()
	for id := 0; id < numVehicles; id++ {
		anchor := rng.Intn(n)
		states := []int{anchor}
		roads.Successors(anchor, func(v int) {
			if len(states) < 4 {
				states = append(states, v)
			}
		})
		if err := db.AddSimple(id, ust.UniformOver(n, states)); err != nil {
			log.Fatal(err)
		}
	}

	// 3. The congestion zone: an intersection plus its two-hop
	// neighborhood (a blocked junction backs traffic up its feeders).
	zone := neighborhood(roads, n/2, 2)
	fmt.Printf("congestion zone: %d intersections around node %d\n", len(zone), n/2)

	// One timestamp = one minute. The window of interest: 10-15 minutes
	// from now.
	window := []ust.RequestOption{
		ust.WithStates(zone),
		ust.WithTimeRange(10, 15),
	}
	engine := ust.NewEngine(db, ust.Options{}) // query-based by default
	ctx := context.Background()

	// The aggregate runs over the streaming path: per-vehicle results
	// are folded into the sum as they are produced, so a city-scale
	// fleet never materializes a result slice.
	expected := 0.0
	for r, err := range engine.EvaluateSeq(ctx, ust.NewRequest(ust.PredicateExists, window...)) {
		if err != nil {
			log.Fatal(err)
		}
		expected += r.Prob
	}
	fmt.Printf("\nexpected vehicles touching the zone in minutes 10-15: %.1f of %d\n",
		expected, numVehicles)

	// Ranked retrieval: the five most likely arrivals, directly from the
	// request (a k-sized heap, not a full sort).
	topResp, err := engine.Evaluate(ctx, ust.NewRequest(ust.PredicateExists,
		append(window, ust.WithTopK(5))...))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("most likely arrivals:")
	for _, r := range topResp.Results {
		fmt.Printf("  vehicle %4d: P = %.4f\n", r.ObjectID, r.Prob)
	}

	// 4. Dwell analysis (PSTkQ): of the top vehicle, how many of the six
	// window minutes will it spend inside the zone? One ktimes request
	// answers the fleet; the top vehicle's distribution is its
	// Result.Dist.
	top := topResp.Results[0].ObjectID
	dwell, err := engine.Evaluate(ctx, ust.NewRequest(ust.PredicateKTimes, window...))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range dwell.Results {
		if r.ObjectID != top {
			continue
		}
		fmt.Printf("\ndwell distribution for vehicle %d (minutes inside the zone):\n", top)
		for k, p := range r.Dist {
			if p > 0.001 {
				fmt.Printf("  %d min: %.4f\n", k, p)
			}
		}
	}
}

// neighborhood returns the BFS ball of the given radius around a node.
func neighborhood(g *ust.Graph, center, radius int) []int {
	seen := map[int]bool{center: true}
	frontier := []int{center}
	out := []int{center}
	for d := 0; d < radius; d++ {
		var next []int
		for _, u := range frontier {
			g.Successors(u, func(v int) {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
					next = append(next, v)
				}
			})
		}
		frontier = next
	}
	return out
}
