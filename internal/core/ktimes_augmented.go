package core

import (
	"fmt"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// Materialized PSTkQ matrices (Section VII). Before presenting the
// memory-efficient C(t) algorithm, the paper defines the direct
// construction over the blown-up state space S′ = S × {0, …, |T□|}:
//
//	M− = diag(M, M, …, M)
//
//	M+ = | M−M′  M′            |
//	     |       M−M′  M′      |
//	     |             …       |
//	     |             M−M′ M′ |
//
// where M′ keeps only the columns inside S□. A world in block k sits at
// its current state having visited the window k times; stepping into a
// query timestamp moves in-window arrivals one block up. The paper
// notes this "blows up the memory requirement by a factor of |T□|" —
// this implementation exists to validate the efficient algorithm and to
// measure that cost (BenchmarkAblationKTimesAugmented).

// KTimesAugmented holds the blown-up matrices for one query region and
// window size.
type KTimesAugmented struct {
	base   *markov.Chain
	k      int // |T□|
	minus  *sparse.CSR
	plus   *sparse.CSR
	states int // |S|
}

// NewKTimesAugmented materializes the blown-up M− and M+.
func NewKTimesAugmented(chain *markov.Chain, regionStates []int, numQueryTimes int) *KTimesAugmented {
	if numQueryTimes < 1 {
		panic(fmt.Sprintf("core: k-times augmentation needs ≥ 1 query time, got %d", numQueryTimes))
	}
	n := chain.NumStates()
	mask := make([]bool, n)
	for _, s := range regionStates {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("core: region state %d outside space of %d", s, n))
		}
		mask[s] = true
	}
	blocks := numQueryTimes + 1
	m := chain.Matrix()
	big := n * blocks

	minus := sparse.FromRows(big, big, func(row int) ([]int, []float64) {
		block, i := row/n, row%n
		cols, vals := m.RowSlices(i)
		idx := make([]int, len(cols))
		for p, j := range cols {
			idx[p] = block*n + j
		}
		return idx, vals
	})

	plus := sparse.FromRows(big, big, func(row int) ([]int, []float64) {
		block, i := row/n, row%n
		cols, vals := m.RowSlices(i)
		idx := make([]int, 0, len(cols))
		out := make([]float64, 0, len(cols))
		for p, j := range cols {
			target := block
			if mask[j] {
				// Arrival inside the window: bump the visit count,
				// saturating at the top block (which cannot occur for
				// valid windows — there are only |T□| chances).
				if target < blocks-1 {
					target++
				}
			}
			idx = append(idx, target*n+j)
			out = append(out, vals[p])
		}
		return idx, out
	})

	return &KTimesAugmented{base: chain, k: numQueryTimes, minus: minus, plus: plus, states: n}
}

// Minus returns the blown-up M− matrix.
func (a *KTimesAugmented) Minus() *sparse.CSR { return a.minus }

// Plus returns the blown-up M+ matrix.
func (a *KTimesAugmented) Plus() *sparse.CSR { return a.plus }

// KTimesOBAugmented evaluates the PSTkQ with the materialized blown-up
// matrices, returning the same |T□|+1 distribution as Engine.KTimesOB.
func KTimesOBAugmented(chain *markov.Chain, regionStates []int, times []int, init *sparse.Vec, t0 int) ([]float64, error) {
	q := NewQuery(regionStates, times)
	w, err := compile(q, chain.NumStates())
	if err != nil {
		return nil, err
	}
	if w.k == 0 {
		return []float64{1}, nil
	}
	if t0 > w.horizon {
		return nil, fmt.Errorf("core: start time %d after query horizon %d", t0, w.horizon)
	}
	aug := NewKTimesAugmented(chain, q.States, w.k)
	n := chain.NumStates()
	big := n * (w.k + 1)

	// Footnote 3: if t0 ∈ T□, worlds starting inside the window begin in
	// block 1.
	cur := newLaneBlock(big, 1)
	init.Range(func(s int, p float64) {
		block := 0
		if w.atTime(t0) && w.inRegion(s) {
			block = 1
		}
		cur.row(block*n + s)[0] += p
	})
	for t := t0; t < w.horizon; t++ {
		if w.atTime(t + 1) {
			cur.step(aug.plus, 1)
		} else {
			cur.step(aug.minus, 1)
		}
	}
	out := make([]float64, w.k+1)
	cur.live.Range(func(idx int) {
		out[idx/n] += cur.cur[idx]
	})
	return out, nil
}
