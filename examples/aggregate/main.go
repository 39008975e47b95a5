// Probabilistic aggregates — asking "how many?" instead of "which?".
//
// A ferry terminal has one waiting area and a fleet of shuttles whose
// positions are only known probabilistically (each shuttle reports a
// noisy location fix, then drifts through the road grid). The operator
// does not care *which* shuttles end up at the terminal — only *how
// many*, because staffing and berth allocation depend on the count:
//
//  1. count(...): the full probability distribution of the number of
//     shuttles that reach the terminal during the evening window, its
//     mean/variance/mode, and the iceberg tail P(count ≥ 4) that
//     triggers calling in a second crew.
//  2. occupancy(...): the expected head-count per timestep — the
//     load curve the operator actually plots on the wall.
//
// Both answers are exact: the engine multiplies one generating-function
// factor (1 − pᵢ + pᵢ·x) per shuttle, so "two of the counted shuttles
// can't be the same shuttle" holds by construction — no Monte Carlo,
// no independence approximation across counts.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ust"
)

const (
	gridW, gridH = 12, 8
	horizon      = 20 // timestamps in the evening window
	fleet        = 9  // shuttles
)

func main() {
	town := ust.NewGrid(gridW, gridH)
	chain, err := commuteChain(town)
	if err != nil {
		log.Fatal(err)
	}
	db := ust.NewDatabase(chain)

	// Each shuttle's last fix: a point for GPS, a small blur for the
	// ones reporting over the legacy radio channel.
	rng := rand.New(rand.NewSource(7))
	for id := 0; id < fleet; id++ {
		x, y := rng.Intn(gridW), rng.Intn(gridH)
		pdf := fixPDF(town, x, y, id%3 == 0)
		if err := db.AddSimple(id, pdf); err != nil {
			log.Fatal(err)
		}
	}

	engine := ust.NewEngine(db, ust.Options{})
	ctx := context.Background()

	// The terminal: the grid cells around the dock, over the whole
	// evening window.
	terminal := []int{
		town.ID(10, 3), town.ID(11, 3),
		town.ID(10, 4), town.ID(11, 4),
	}
	window := ust.Query{States: terminal, Times: timesUpTo(horizon)}

	// --- Query 1: the count distribution with an iceberg tail. ---
	// "How many shuttles reach the terminal tonight, and how likely is
	// it that at least 4 do?" One request, one exact PMF.
	resp, err := engine.Evaluate(ctx, ust.NewAggRequest(
		ust.PredicateExists,
		ust.AggSpec{Kind: ust.AggCount, MinCount: 4},
		ust.WithWindow(window),
	))
	if err != nil {
		log.Fatal(err)
	}
	a := resp.Agg
	fmt.Printf("count(exists(terminal @ evening)):\n")
	fmt.Printf("  E[count] = %.3f   Var = %.3f   mode = %d\n",
		a.Mean, a.Variance, a.ModeCount)
	fmt.Printf("  P(count >= %d) = %.4f  (second crew threshold)\n",
		a.MinCount, a.Tail)
	for k, p := range a.PMF {
		if p < 1e-4 {
			continue
		}
		fmt.Printf("  P(count = %d) = %.4f  %s\n", k, p, bar(p))
	}

	// --- Query 2: the occupancy curve. ---
	// The same window, but summarized per timestep: expected head-count
	// and the per-timestep P(count ≥ 2) that decides when the second
	// berth opens.
	resp, err = engine.Evaluate(ctx, ust.NewAggRequest(
		ust.PredicateExists,
		ust.AggSpec{Kind: ust.AggOccupancy, MinCount: 2},
		ust.WithWindow(window),
	))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noccupancy(terminal @ evening):\n")
	for _, pt := range resp.Agg.Profile {
		fmt.Printf("  t=%2d  E=%.3f  P(>=2)=%.4f  %s\n",
			pt.Time, pt.Mean, pt.Tail, bar(pt.Mean/3))
	}
}

// commuteChain drifts traffic toward the dock in the east: moves that
// reduce the distance to the terminal get the bulk of the mass.
func commuteChain(g *ust.Grid) (*ust.Chain, error) {
	n := g.NumStates()
	rows := make([][]float64, n)
	dockX, dockY := 10, 4
	for c := 0; c < n; c++ {
		x, y := g.Cell(c)
		row := make([]float64, n)
		add := func(nx, ny int, w float64) {
			if nx < 0 || nx >= gridW || ny < 0 || ny >= gridH {
				row[c] += w // bounce off the shore
				return
			}
			row[g.ID(nx, ny)] += w
		}
		toward := func(nx, ny int) float64 {
			if abs(nx-dockX)+abs(ny-dockY) < abs(x-dockX)+abs(y-dockY) {
				return 0.35
			}
			return 0.05
		}
		add(x+1, y, toward(x+1, y))
		add(x-1, y, toward(x-1, y))
		add(x, y+1, toward(x, y+1))
		add(x, y-1, toward(x, y-1))
		sum := 0.0
		for _, w := range row {
			sum += w
		}
		row[c] += 1 - sum // the rest stays put
		rows[c] = row
	}
	return ust.ChainFromDense(rows)
}

// fixPDF is a location fix: a point for GPS, a 3×3 blur for radio.
func fixPDF(g *ust.Grid, x, y int, blur bool) *ust.Distribution {
	if !blur {
		return ust.PointDistribution(g.NumStates(), g.ID(x, y))
	}
	var states []int
	var weights []float64
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			nx, ny := x+dx, y+dy
			if nx < 0 || nx >= gridW || ny < 0 || ny >= gridH {
				continue
			}
			w := 1.0
			if dx != 0 || dy != 0 {
				w = 0.5
			}
			states = append(states, g.ID(nx, ny))
			weights = append(weights, w)
		}
	}
	d, err := ust.WeightedOver(g.NumStates(), states, weights)
	if err != nil {
		log.Fatal(err)
	}
	return d
}

func timesUpTo(n int) []int {
	ts := make([]int, n)
	for i := range ts {
		ts[i] = i + 1
	}
	return ts
}

func bar(p float64) string {
	n := int(p*40 + 0.5)
	if n > 40 {
		n = 40
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
