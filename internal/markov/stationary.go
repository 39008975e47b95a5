package markov

import (
	"fmt"
	"math"

	"ust/internal/sparse"
)

// Long-run diagnostics: stationary distribution and mixing estimates.
// These support capacity planning on top of the query engine ("which
// road segments will be congested in the steady state?") and sanity
// checks on generated models.

// Stationary approximates the stationary distribution π (π = π·M) by
// power iteration from the uniform distribution. It returns the
// distribution and the number of iterations used.
//
// Convergence requires the chain to be irreducible and aperiodic on the
// reachable component; maxIter bounds the work and tol is the L1
// convergence threshold. An error is returned when the iteration fails
// to converge (e.g. a periodic chain).
func Stationary(c *Chain, maxIter int, tol float64) (*Distribution, int, error) {
	if maxIter <= 0 {
		maxIter = 1000
	}
	if tol <= 0 {
		tol = 1e-10
	}
	n := c.NumStates()
	cur := sparse.NewVec(n)
	for i := 0; i < n; i++ {
		cur.Set(i, 1/float64(n))
	}
	next := sparse.NewVec(n)
	for iter := 1; iter <= maxIter; iter++ {
		c.Step(next, cur)
		if l1Dist(cur, next) < tol {
			next.Normalize()
			return FromArray(next.RawData()), iter, nil
		}
		cur, next = next, cur
	}
	return nil, maxIter, fmt.Errorf("markov: power iteration did not converge in %d iterations", maxIter)
}

// MixingTime estimates how many steps a point mass at the given state
// needs before its distribution is within tol (L1) of the stationary
// distribution. Returns an error if the bound maxSteps is hit first.
func MixingTime(c *Chain, start int, pi *Distribution, maxSteps int, tol float64) (int, error) {
	if maxSteps <= 0 {
		maxSteps = 1000
	}
	if tol <= 0 {
		tol = 1e-3
	}
	n := c.NumStates()
	cur, next, target := sparse.NewVec(n), sparse.NewVec(n), sparse.NewVec(n)
	PointDistribution(n, start).CopyTo(cur)
	pi.CopyTo(target)
	for step := 1; step <= maxSteps; step++ {
		c.Step(next, cur)
		cur, next = next, cur
		if l1Dist(cur, target) < tol {
			return step, nil
		}
	}
	return 0, fmt.Errorf("markov: chain did not mix from state %d within %d steps", start, maxSteps)
}

func l1Dist(a, b *sparse.Vec) float64 {
	d := 0.0
	ad, bd := a.RawData(), b.RawData()
	for i := range ad {
		d += math.Abs(ad[i] - bd[i])
	}
	return d
}
