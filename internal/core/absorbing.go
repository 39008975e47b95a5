package core

import (
	"fmt"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// AugmentedChain materializes the paper's absorbing-state matrices for a
// query region (Section V-A):
//
//	M− = | M    0 |        M+ = | M′  sum(S□) |
//	     | 0ᵀ   1 |             | 0ᵀ      1   |
//
// over the extended state space S ∪ {◆}, where ◆ (index |S|) is the
// absorbing "true hit" state, M′ zeroes the columns of S□, and sum(S□)
// carries the per-row mass removed that way.
//
// The production engine applies the same operator implicitly; this type
// exists to (a) stay faithful to the paper's formulation, (b) cross-
// validate the implicit path, and (c) measure the cost of materializing
// (BenchmarkAblationAugmented).
type AugmentedChain struct {
	base   *markov.Chain
	minus  *sparse.CSR // (|S|+1)², used stepping into non-query times
	plus   *sparse.CSR // (|S|+1)², used stepping into query times
	minusT *sparse.CSR
	plusT  *sparse.CSR
}

// HitState returns the index of the absorbing ◆ state.
func (a *AugmentedChain) HitState() int { return a.base.NumStates() }

// Minus returns the materialized M− matrix.
func (a *AugmentedChain) Minus() *sparse.CSR { return a.minus }

// Plus returns the materialized M+ matrix.
func (a *AugmentedChain) Plus() *sparse.CSR { return a.plus }

// NewAugmentedChain builds M− and M+ for the spatial predicate of the
// compiled window. Transposes are built lazily.
func NewAugmentedChain(chain *markov.Chain, regionStates []int) *AugmentedChain {
	n := chain.NumStates()
	mask := make([]bool, n)
	for _, s := range regionStates {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("core: region state %d outside space of %d", s, n))
		}
		mask[s] = true
	}
	m := chain.Matrix()

	minus := sparse.FromRows(n+1, n+1, func(i int) ([]int, []float64) {
		if i == n {
			return []int{n}, []float64{1}
		}
		cols, vals := m.RowSlices(i)
		return cols, vals
	})

	plus := sparse.FromRows(n+1, n+1, func(i int) ([]int, []float64) {
		if i == n {
			return []int{n}, []float64{1}
		}
		cols, vals := m.RowSlices(i)
		var idx []int
		var out []float64
		redirected := 0.0
		for k, j := range cols {
			if mask[j] {
				redirected += vals[k]
			} else {
				idx = append(idx, j)
				out = append(out, vals[k])
			}
		}
		if redirected > 0 {
			idx = append(idx, n)
			out = append(out, redirected)
		}
		return idx, out
	})

	return &AugmentedChain{base: chain, minus: minus, plus: plus}
}

// ExistsOBAugmented evaluates P∃ exactly as Section V-A writes it: the
// extended distribution vector is multiplied with the materialized M−
// or M+ at every step, and the answer is the final mass of ◆. The
// product is the lane kernel's (querybased.go) over S ∪ {◆}.
func ExistsOBAugmented(chain *markov.Chain, regionStates []int, times []int, init *sparse.Vec, t0 int) (float64, error) {
	q := NewQuery(regionStates, times)
	w, err := compile(q, chain.NumStates())
	if err != nil {
		return 0, err
	}
	if w.k == 0 {
		return 0, nil
	}
	if t0 > w.horizon {
		return 0, fmt.Errorf("core: start time %d after query horizon %d", t0, w.horizon)
	}
	aug := NewAugmentedChain(chain, q.States)
	cur := newLaneBlock(aug.HitState()+1, 1)
	init.Range(func(i int, x float64) {
		// Footnote 2: if t0 itself is a query time, mass inside S□
		// moves to ◆ before any transition.
		if w.atTime(t0) && w.inRegion(i) {
			i = aug.HitState()
		}
		cur.row(i)[0] += x
	})
	for t := t0; t < w.horizon; t++ {
		if w.atTime(t + 1) {
			cur.step(aug.plus, 1)
		} else {
			cur.step(aug.minus, 1)
		}
	}
	return cur.cur[aug.HitState()], nil
}

// ExistsQBAugmented evaluates P∃ with the transposed materialized
// matrices, exactly as Section V-B writes it: backward from the hit
// vector (0,…,0,1) at the horizon, then one dot product with the
// extended initial distribution.
func ExistsQBAugmented(chain *markov.Chain, regionStates []int, times []int, init *sparse.Vec, t0 int) (float64, error) {
	q := NewQuery(regionStates, times)
	w, err := compile(q, chain.NumStates())
	if err != nil {
		return 0, err
	}
	if w.k == 0 {
		return 0, nil
	}
	if t0 > w.horizon {
		return 0, fmt.Errorf("core: start time %d after query horizon %d", t0, w.horizon)
	}
	aug := NewAugmentedChain(chain, q.States)
	if aug.minusT == nil {
		aug.minusT = aug.minus.Transpose()
		aug.plusT = aug.plus.Transpose()
	}
	score := newLaneBlock(aug.HitState()+1, 1)
	score.row(aug.HitState())[0] = 1
	for t := w.horizon; t > t0; t-- {
		if w.atTime(t) {
			score.step(aug.plusT, 1)
		} else {
			score.step(aug.minusT, 1)
		}
	}
	p := 0.0
	init.Range(func(s int, x float64) {
		// Footnote 2 again: worlds starting inside the window at t0 are
		// immediate hits regardless of the backward scores.
		if w.atTime(t0) && w.inRegion(s) {
			p += x
		} else {
			p += x * score.cur[s]
		}
	})
	return p, nil
}
