// Package markov implements the stochastic-process model of Section IV of
// the paper: homogeneous first-order Markov chains over a discrete state
// space, state distributions, and Chapman-Kolmogorov multi-step
// transitions. An uncertain object trajectory is a realization of such a
// chain seeded with the object's observation pdf.
package markov

import (
	"fmt"
	"math/rand"
	"sync"

	"ust/internal/sparse"
)

// DefaultTolerance is the row-sum tolerance accepted when validating
// transition matrices. Generators normalize with float64 arithmetic, so
// exact sums of 1 cannot be demanded.
const DefaultTolerance = 1e-9

// Chain is a homogeneous first-order Markov chain: a finite state space
// {0, …, n−1} together with a row-stochastic single-step transition
// matrix M, where M[i][j] = P(o(t+1) = j | o(t) = i) for all t
// (Definition 5/6 of the paper).
//
// Chains are immutable after construction and safe for concurrent use.
type Chain struct {
	m     *sparse.CSR
	mt    *sparse.CSR // lazily built transpose, guarded by tOnce
	tOnce sync.Once
	// fp is the lazily computed content fingerprint (fingerprint.go),
	// guarded by fpOnce. Immutability makes the memoization sound.
	fp     uint64
	fpOnce sync.Once
}

// NewChain validates m as a row-stochastic square matrix and wraps it.
func NewChain(m *sparse.CSR) (*Chain, error) {
	if err := m.CheckStochastic(DefaultTolerance); err != nil {
		return nil, fmt.Errorf("markov: invalid transition matrix: %w", err)
	}
	return &Chain{m: m}, nil
}

// MustChain is NewChain that panics on error; for tests and literals.
func MustChain(m *sparse.CSR) *Chain {
	c, err := NewChain(m)
	if err != nil {
		panic(err)
	}
	return c
}

// FromDense builds a chain from a dense transition matrix. For worked
// examples and tests.
func FromDense(rows [][]float64) (*Chain, error) {
	return NewChain(sparse.FromDense(rows))
}

// NumStates returns |S|.
func (c *Chain) NumStates() int { return c.m.Rows() }

// Matrix returns the underlying transition matrix. Callers must not
// mutate it.
func (c *Chain) Matrix() *sparse.CSR { return c.m }

// Transposed returns Mᵀ, building and caching it on first use. The
// query-based evaluation walks the chain backward through the transpose.
// Safe for concurrent use, including the first call: shard fan-out runs
// concurrent sweeps over shared chains with no warm-up point, so the
// lazy build is once-guarded rather than a caller convention. (The
// engine's parallel paths still pre-warm to keep the build off the
// per-object critical path.)
func (c *Chain) Transposed() *sparse.CSR {
	c.tOnce.Do(func() { c.mt = c.m.Transpose() })
	return c.mt
}

// TransitionProb returns P(o(t+1)=j | o(t)=i).
func (c *Chain) TransitionProb(i, j int) float64 { return c.m.At(i, j) }

// Successors calls fn for each state j reachable from i in one step with
// its transition probability.
func (c *Chain) Successors(i int, fn func(j int, p float64)) { c.m.Row(i, fn) }

// OutDegree returns the number of one-step successors of state i.
func (c *Chain) OutDegree(i int) int { return c.m.RowNNZ(i) }

// NNZ returns the number of non-zero transition probabilities.
func (c *Chain) NNZ() int { return c.m.NNZ() }

// Step advances the distribution one timestamp: dst = x · M
// (Corollary 1 of the paper). dst must not alias x.
func (c *Chain) Step(dst, x *sparse.Vec) { sparse.VecMat(dst, x, c.m) }

// StepBack applies one transposed step: dst = x · Mᵀ. Used by the
// query-based backward sweep.
func (c *Chain) StepBack(dst, x *sparse.Vec) { sparse.VecMat(dst, x, c.Transposed()) }

// MStep returns the m-step transition matrix Mᵐ (Chapman-Kolmogorov,
// Corollary 2). The result is materialized; prefer repeated Step calls
// for one-off distribution evolution on large spaces.
func (c *Chain) MStep(m int) *sparse.CSR { return sparse.MatPow(c.m, m) }

// Evolve returns the distribution after steps transitions from init:
// P(o, t+steps) = P(o,t)·Mˢ. init is left untouched.
func (c *Chain) Evolve(init *sparse.Vec, steps int) *sparse.Vec {
	return c.Advance(init.Clone(), steps)
}

// Advance is Evolve on a vector the caller hands over: cur is stepped
// in place of a private copy and must not be used afterwards. One more
// scratch vector is allocated when steps > 0.
func (c *Chain) Advance(cur *sparse.Vec, steps int) *sparse.Vec {
	if steps == 0 {
		return cur
	}
	next := sparse.NewVec(c.NumStates())
	for s := 0; s < steps; s++ {
		c.Step(next, cur)
		cur, next = next, cur
	}
	cur.Trim()
	return cur
}

// Reachable returns the set of states reachable from the support of init
// within maxSteps transitions (the paper's S_reach). Used for pruning
// and for sizing OB cost estimates.
func (c *Chain) Reachable(init *sparse.Vec, maxSteps int) []int {
	n := c.NumStates()
	seen := make([]bool, n)
	frontier := init.Support()
	for _, s := range frontier {
		seen[s] = true
	}
	all := append([]int(nil), frontier...)
	for step := 0; step < maxSteps && len(frontier) > 0; step++ {
		var next []int
		for _, i := range frontier {
			c.m.Row(i, func(j int, _ float64) {
				if !seen[j] {
					seen[j] = true
					next = append(next, j)
				}
			})
		}
		all = append(all, next...)
		frontier = next
	}
	return all
}

// SampleStep draws the successor state of i using rng. It walks the row's
// cumulative mass; rows are short (state spread) so a linear walk wins
// over alias tables built per row.
func (c *Chain) SampleStep(i int, rng *rand.Rand) int {
	cols, vals := c.m.RowSlices(i)
	if len(cols) == 0 {
		// A state with no outgoing transitions self-loops; generators
		// never produce one, but sampling must not fail on user data.
		return i
	}
	u := rng.Float64()
	acc := 0.0
	for k, v := range vals {
		acc += v
		if u < acc {
			return cols[k]
		}
	}
	return cols[len(cols)-1]
}

// SamplePath draws a trajectory of length steps+1 starting from a state
// drawn from init. The returned slice holds the state at t = 0…steps.
func (c *Chain) SamplePath(init *Distribution, steps int, rng *rand.Rand) []int {
	path := make([]int, steps+1)
	path[0] = SampleFrom(init, rng)
	for t := 0; t < steps; t++ {
		path[t+1] = c.SampleStep(path[t], rng)
	}
	return path
}

// SampleFrom draws a state index from the distribution d. It must have
// positive mass; it need not be normalized.
func SampleFrom(d *Distribution, rng *rand.Rand) int {
	total := d.Mass()
	if total <= 0 {
		panic("markov: SampleFrom on zero-mass distribution")
	}
	u := rng.Float64() * total
	acc := 0.0
	chosen := -1
	d.Range(func(i int, x float64) {
		if chosen >= 0 {
			return
		}
		acc += x
		if u < acc {
			chosen = i
		}
	})
	if chosen < 0 {
		// Floating-point slack: fall back to the last non-zero state.
		d.Range(func(i int, x float64) { chosen = i })
	}
	return chosen
}
