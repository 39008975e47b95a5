package core

import (
	"context"
	"fmt"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// Unbounded-horizon queries: the probability that the object *ever*
// enters the region, with no time limit. This is the limit of PST∃Q as
// T□ → {t0+1, t0+2, …} and equals the chain-theoretic hitting
// probability of the region. The paper's framework covers finite
// windows; this extension reuses the same backward operator iterated to
// a fixed point:
//
//	h[s] = 1                       s ∈ S□
//	h[s] = Σ_j M[s,j] · h[j]       otherwise
//
// which converges monotonically from h ≡ 0 (it is exactly the
// query-based sweep with the region pinned every step).

// hittingScores returns, for every state s, the probability that a
// world starting at s ever reaches the region within maxSteps
// transitions; with maxSteps large enough this converges to the true
// hitting probability (convergence is checked against tol and reported
// via the returned step count; steps == maxSteps with err == nil means
// tolerance was not reached — the scores are then a lower bound). It
// checks ctx once per backward sweep.
func hittingScores(ctx context.Context, chain *markov.Chain, regionStates []int, maxSteps int, tol float64) (*sparse.Vec, int, error) {
	n := chain.NumStates()
	maxSteps, tol = hittingLimits(n, maxSteps, tol)
	mask := make([]bool, n)
	for _, s := range regionStates {
		if s < 0 || s >= n {
			return nil, 0, fmt.Errorf("core: region state %d outside space of %d", s, n)
		}
		mask[s] = true
	}
	score := sparse.NewVec(n)
	next := sparse.NewVec(n)
	pin := func(v *sparse.Vec) {
		for _, s := range regionStates {
			v.Set(s, 1)
		}
	}
	pin(score)
	for step := 1; step <= maxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		chain.StepBack(next, score)
		pin(next)
		// Monotone convergence: sup-norm of the increment.
		maxDelta := 0.0
		nd, sd := next.RawData(), score.RawData()
		for i := range nd {
			if d := nd[i] - sd[i]; d > maxDelta {
				maxDelta = d
			}
		}
		score, next = next, score
		if maxDelta < tol {
			return score, step, nil
		}
	}
	return score, maxSteps, nil
}

// hittingLimits resolves the fixed-point iteration limits: callers pass
// ≤ 0 for defaults. Slow-mixing chains (e.g. long random walks) converge
// in O(n²·log(1/tol)) iterations; the default favors correctness over
// speed for moderate spaces and callers tune it down. Centralized so the
// score cache can key on the resolved values and explicit-vs-defaulted
// requests share entries.
func hittingLimits(n, maxSteps int, tol float64) (int, float64) {
	if maxSteps <= 0 {
		maxSteps = 20 * n
		if maxSteps < 5000 {
			maxSteps = 5000
		}
	}
	if tol <= 0 {
		tol = 1e-12
	}
	return maxSteps, tol
}
