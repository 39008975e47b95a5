package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"ust/internal/markov"
)

// Monte-Carlo baseline (Section VIII-A): sample trajectories per object
// and report the fraction satisfying the predicate. Approximate; the
// paper notes the standard deviation of the estimate is
// sqrt(p(1−p)/n) — at n = 100 samples that is up to 5 percentage points.

type predicate int

const (
	predicateExists predicate = iota
	predicateForAll
)

// MonteCarloExists estimates P∃ for one object with n sampled paths.
func MonteCarloExists(chain *markov.Chain, o *Object, q Query, n int, rng *rand.Rand) (float64, error) {
	return monteCarloEval(chain, o, q, n, rng, predicateExists)
}

// MonteCarloForAll estimates P∀ for one object with n sampled paths.
func MonteCarloForAll(chain *markov.Chain, o *Object, q Query, n int, rng *rand.Rand) (float64, error) {
	return monteCarloEval(chain, o, q, n, rng, predicateForAll)
}

func monteCarloEval(chain *markov.Chain, o *Object, q Query, n int, rng *rand.Rand, pred predicate) (float64, error) {
	w, err := compile(q, chain.NumStates())
	if err != nil {
		return 0, err
	}
	return monteCarloRun(context.Background(), chain, o, w, n, rng, pred)
}

// monteCarloRun is the sampling kernel over a compiled window. It
// checks ctx once per sampled path and aborts with ctx.Err().
func monteCarloRun(ctx context.Context, chain *markov.Chain, o *Object, w *window, n int, rng *rand.Rand, pred predicate) (float64, error) {
	if w.k == 0 {
		if pred == predicateForAll {
			return 1, nil
		}
		return 0, nil
	}
	first := o.First()
	if first.Time > w.horizon {
		return 0, errObservedAfterHorizon(o.ID, first.Time, w.horizon)
	}
	if n <= 0 {
		return 0, fmt.Errorf("core: Monte-Carlo needs a positive sample count, got %d", n)
	}
	multi := len(o.Observations) > 1
	steps := w.horizon - first.Time
	if multi {
		if last := o.Last().Time; last > w.horizon {
			steps = last - first.Time
		}
	}
	var hitWeight, totalWeight float64
	for s := 0; s < n; s++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		path := chain.SamplePath(first.PDF, steps, rng)
		weight := 1.0
		if multi {
			// Importance weight: likelihood of the later observations
			// given the sampled path. Worlds inconsistent with an
			// observation get weight 0 (class A of Section VI).
			for _, ob := range o.Observations[1:] {
				idx := ob.Time - first.Time
				if idx < 0 || idx >= len(path) {
					continue
				}
				weight *= ob.PDF.P(path[idx])
				if weight == 0 {
					break
				}
			}
		}
		if weight == 0 {
			continue
		}
		totalWeight += weight
		if pathSatisfies(path, first.Time, w, pred) {
			hitWeight += weight
		}
	}
	if totalWeight == 0 {
		return 0, fmt.Errorf("core: all %d sampled worlds contradict the observations", n)
	}
	return hitWeight / totalWeight, nil
}

func pathSatisfies(path []int, t0 int, w *window, pred predicate) bool {
	for t, s := range path {
		if !w.atTime(t0 + t) {
			continue
		}
		in := w.inRegion(s)
		if pred == predicateExists && in {
			return true
		}
		if pred == predicateForAll && !in {
			return false
		}
	}
	return pred == predicateForAll
}

// MonteCarloKTimes estimates the PSTkQ distribution for one object.
func MonteCarloKTimes(chain *markov.Chain, o *Object, q Query, n int, rng *rand.Rand) ([]float64, error) {
	w, err := compile(q, chain.NumStates())
	if err != nil {
		return nil, err
	}
	return monteCarloKTimesRun(context.Background(), chain, o, w, n, rng)
}

// monteCarloKTimesRun is the PSTkQ sampling kernel over a compiled
// window, checking ctx once per sampled path.
func monteCarloKTimesRun(ctx context.Context, chain *markov.Chain, o *Object, w *window, n int, rng *rand.Rand) ([]float64, error) {
	if w.k == 0 {
		return []float64{1}, nil
	}
	first := o.First()
	if first.Time > w.horizon {
		return nil, errObservedAfterHorizon(o.ID, first.Time, w.horizon)
	}
	if len(o.Observations) > 1 {
		return nil, errKTimesMultiObs(o)
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: Monte-Carlo needs a positive sample count, got %d", n)
	}
	steps := w.horizon - first.Time
	counts := make([]float64, w.k+1)
	for s := 0; s < n; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path := chain.SamplePath(first.PDF, steps, rng)
		visits := 0
		for t, st := range path {
			if w.atTime(first.Time+t) && w.inRegion(st) {
				visits++
			}
		}
		counts[visits]++
	}
	for k := range counts {
		counts[k] /= float64(n)
	}
	return counts, nil
}

// MonteCarloStdDev returns the paper's error formula sqrt(p(1−p)/n) for
// an estimated probability p from n samples.
func MonteCarloStdDev(p float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(p * (1 - p) / float64(n))
}
