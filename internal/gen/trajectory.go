package gen

import (
	"fmt"
	"math/rand"

	"ust/internal/markov"
)

// Ground-truth trajectory workloads. The synthetic generator of Table I
// produces initial pdfs only; multi-observation scenarios additionally
// need *consistent* observation sequences — pdfs that some true
// trajectory could actually have produced. TrajectoryParams draws a
// hidden true path from the chain, then emits noisy observations of it,
// guaranteeing the observation set is satisfiable under the motion
// model (class B/C worlds exist; Section VI's Equation 1 denominator is
// positive).
type TrajectoryParams struct {
	// Horizon is the last timestamp of the hidden path (path covers
	// t = 0 … Horizon).
	Horizon int
	// ObservationTimes lists when the object is sighted. Must be within
	// [0, Horizon] and include 0.
	ObservationTimes []int
	// Noise spreads each observation over the true state's chain
	// neighborhood: 0 emits point observations; k > 0 includes states
	// reachable within k transitions of the true state, weighted toward
	// the truth.
	Noise int
}

// Validate rejects inconsistent parameters.
func (p TrajectoryParams) Validate() error {
	if p.Horizon < 0 {
		return fmt.Errorf("gen: negative horizon %d", p.Horizon)
	}
	if len(p.ObservationTimes) == 0 {
		return fmt.Errorf("gen: no observation times")
	}
	seen := map[int]bool{}
	hasZero := false
	for _, t := range p.ObservationTimes {
		if t < 0 || t > p.Horizon {
			return fmt.Errorf("gen: observation time %d outside [0, %d]", t, p.Horizon)
		}
		if seen[t] {
			return fmt.Errorf("gen: duplicate observation time %d", t)
		}
		seen[t] = true
		if t == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		return fmt.Errorf("gen: observation times must include 0")
	}
	if p.Noise < 0 {
		return fmt.Errorf("gen: negative noise %d", p.Noise)
	}
	return nil
}

// Sighting is one emitted observation: a pdf over states at a
// timestamp. It mirrors core.Observation without importing the query
// engine (gen sits below core in the layering).
type Sighting struct {
	Time int
	PDF  *markov.Distribution
}

// Trajectory is a hidden true path plus the noisy sightings emitted
// from it.
type Trajectory struct {
	// Path[t] is the true state at time t.
	Path []int
	// Sightings are consistent with Path by construction.
	Sightings []Sighting
}

// GenerateTrajectory draws one hidden path from the chain (uniform
// start) and emits observations per the parameters.
func GenerateTrajectory(chain *markov.Chain, p TrajectoryParams, rng *rand.Rand) (*Trajectory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := chain.NumStates()
	start := markov.PointDistribution(n, rng.Intn(n))
	path := chain.SamplePath(start, p.Horizon, rng)

	tr := &Trajectory{Path: path}
	for _, t := range p.ObservationTimes {
		truth := path[t]
		pdf, err := noisyObservation(chain, truth, p.Noise, rng)
		if err != nil {
			return nil, err
		}
		tr.Sightings = append(tr.Sightings, Sighting{Time: t, PDF: pdf})
	}
	return tr, nil
}

// noisyObservation spreads mass over the states reachable within noise
// transitions of the true state (in either direction of the transition
// graph), keeping half the mass on the truth.
func noisyObservation(chain *markov.Chain, truth, noise int, rng *rand.Rand) (*markov.Distribution, error) {
	n := chain.NumStates()
	if noise == 0 {
		return markov.PointDistribution(n, truth), nil
	}
	// Collect the forward neighborhood of the truth.
	seen := map[int]bool{truth: true}
	frontier := []int{truth}
	for hop := 0; hop < noise; hop++ {
		var next []int
		for _, u := range frontier {
			chain.Successors(u, func(v int, _ float64) {
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
				}
			})
		}
		frontier = next
	}
	states := make([]int, 0, len(seen))
	weights := make([]float64, 0, len(seen))
	for s := range seen {
		states = append(states, s)
		w := 0.5 * (0.5 + rng.Float64()) / float64(len(seen))
		if s == truth {
			w = 0.5
		}
		weights = append(weights, w)
	}
	return markov.WeightedOver(n, states, weights)
}

// GenerateTrajectories draws numObjects independent hidden paths and
// sighting sequences over the chain, deterministically for a seed.
func GenerateTrajectories(chain *markov.Chain, numObjects int, p TrajectoryParams, seed int64) ([]*Trajectory, error) {
	if numObjects < 1 {
		return nil, fmt.Errorf("gen: need at least one object, got %d", numObjects)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Trajectory, numObjects)
	for id := 0; id < numObjects; id++ {
		tr, err := GenerateTrajectory(chain, p, rng)
		if err != nil {
			return nil, err
		}
		out[id] = tr
	}
	return out, nil
}
