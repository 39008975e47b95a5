// Location-based services — the paper's PST∀Q/PSTkQ motivation: "a
// service provider could be interested in customers that remain at a
// certain region for a while, such that they can receive advertisements
// relevant to the location."
//
// A shopping district is modeled as a grid; customers wander with a
// stay-prone random walk. The campaign rule: push a coupon only to
// customers who will *stay* inside the food court for the whole
// 5-minute push window (PST∀Q ≥ 60%), and report how many minutes each
// candidate is expected to spend there (PSTkQ). The example also
// demonstrates threshold retrieval and the early-termination bounds.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ust"
)

func main() {
	mall := ust.NewGrid(20, 20)
	chain, err := wanderChain(mall, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	db := ust.NewDatabase(chain)

	// Customers last seen by wifi triangulation: pdf over a small disk.
	rng := rand.New(rand.NewSource(99))
	index := ust.IndexSpace(mall, 0)
	for id := 0; id < 500; id++ {
		cx := rng.Float64() * 20
		cy := rng.Float64() * 20
		cells := index.Search(ust.Circle{Center: ust.Point{X: cx, Y: cy}, Radius: 1.5})
		if len(cells) == 0 {
			continue
		}
		if err := db.AddSimple(id, ust.UniformOver(mall.NumStates(), cells)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("customers tracked: %d\n", db.Len())

	// The food court occupies the mall's north-east quadrant corner.
	// The request carries the geometry; minutes 3..7 from now.
	foodCourt := ust.NewRect(13, 13, 18, 18)
	window := []ust.RequestOption{
		ust.WithRegion(foodCourt, index),
		ust.WithTimeRange(3, 7),
	}
	engine := ust.NewEngine(db, ust.Options{})
	ctx := context.Background()

	// --- Campaign targeting: PST∀Q with threshold. ---
	stay, err := engine.Evaluate(ctx, ust.NewRequest(ust.PredicateForAll,
		append(window, ust.WithThreshold(0.6))...))
	if err != nil {
		log.Fatal(err)
	}
	targets := stay.Results
	fmt.Printf("coupon targets (P(stay all 5 min) ≥ 0.6): %d customers\n", len(targets))
	for i, r := range targets {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  customer %3d: P = %.3f\n", r.ObjectID, r.Prob)
	}

	// --- Reach estimate: anyone touching the food court (PST∃Q ≥ 0.2). ---
	// The streaming path counts qualifying customers without
	// materializing a result slice — the shape of a million-user scan.
	reach := 0
	for r, err := range engine.EvaluateSeq(ctx, ust.NewRequest(ust.PredicateExists,
		append(window, ust.WithThreshold(0.2))...)) {
		if err != nil {
			log.Fatal(err)
		}
		_ = r
		reach++
	}
	fmt.Printf("\nfootfall reach (P(visit) ≥ 0.2): %d customers\n", reach)

	// --- Dwell profile of the best target (PSTkQ). ---
	// One ktimes request answers every customer; the best target's
	// visit-count distribution is its Result.Dist.
	if len(targets) > 0 {
		best := targets[0].ObjectID
		dwell, err := engine.Evaluate(ctx, ust.NewRequest(ust.PredicateKTimes, window...))
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range dwell.Results {
			if r.ObjectID != best {
				continue
			}
			fmt.Printf("\ndwell profile of customer %d (minutes in food court during window):\n", best)
			expected := 0.0
			for k, p := range r.Dist {
				expected += float64(k) * p
				if p > 0.001 {
					fmt.Printf("  %d min: %.3f\n", k, p)
				}
			}
			fmt.Printf("  expected dwell: %.2f of 5 minutes\n", expected)
		}
	}

	// --- Threshold test with filter–refine (Section V-C pruning). ---
	// "Who has P∃ ≥ 0.5?" Cheap reachability bounds decide most
	// customers without an exact evaluation; Response.Filter reports
	// the funnel.
	likely, err := engine.Evaluate(ctx, ust.NewRequest(ust.PredicateExists,
		append(window, ust.WithThreshold(0.5))...))
	if err != nil {
		log.Fatal(err)
	}
	f := likely.Filter
	fmt.Printf("\nthreshold test (P(visit) ≥ 0.5): %d customers qualify; of %d candidates, %d decided by bounds alone, %d evaluated exactly\n",
		len(likely.Results), f.Candidates, f.Pruned, f.Refined)
}

// wanderChain builds a lazy random walk: with probability stay the
// customer remains in place, otherwise moves to a uniformly random
// 4-neighbor. Staying makes dwell behaviour realistic (and is exactly
// the temporal correlation the paper's model captures and the
// independence model of prior work gets wrong).
func wanderChain(g *ust.Grid, stay float64) (*ust.Chain, error) {
	n := g.NumStates()
	rows := make([][]float64, n)
	for id := 0; id < n; id++ {
		rows[id] = make([]float64, n)
		rows[id][id] = stay
		nbrs := g.Neighbors4(id)
		for _, nb := range nbrs {
			rows[id][nb] = (1 - stay) / float64(len(nbrs))
		}
	}
	return ust.ChainFromDense(rows)
}
