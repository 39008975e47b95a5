package markov

import (
	"math/rand"
)

// Walker-alias sampling. Chain.SampleStep walks the row's cumulative
// mass, which is O(out-degree) per draw — perfect for the sparse rows
// of Table I datasets, wasteful when rows are heavy or the sampler is
// hot (large Monte-Carlo budgets). A Sampler precomputes one alias
// table per row and draws successors in O(1).

// Sampler draws chain transitions in O(1) per step using precomputed
// alias tables (Walker 1977, Vose 1991). Construction is O(nnz);
// memory is two numbers per transition. Safe for concurrent use with
// independent rand sources.
type Sampler struct {
	chain *Chain
	rows  []aliasTable
}

type aliasTable struct {
	// prob[i] is the probability of keeping slot i's primary column;
	// alias[i] is the fallback column.
	cols  []int32
	alias []int32
	prob  []float64
}

// NewSampler builds alias tables for every row of the chain.
func NewSampler(c *Chain) *Sampler {
	n := c.NumStates()
	s := &Sampler{chain: c, rows: make([]aliasTable, n)}
	for i := 0; i < n; i++ {
		cols, vals := c.Matrix().RowSlices(i)
		s.rows[i] = buildAlias(cols, vals)
	}
	return s
}

// buildAlias constructs the alias table for one probability row using
// Vose's stable two-worklist construction.
func buildAlias(cols []int, vals []float64) aliasTable {
	k := len(cols)
	t := aliasTable{
		cols:  make([]int32, k),
		alias: make([]int32, k),
		prob:  make([]float64, k),
	}
	if k == 0 {
		return t
	}
	for i, c := range cols {
		t.cols[i] = int32(c)
	}
	// Scale to mean 1.
	scaled := make([]float64, k)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	var small, large []int
	for i, v := range vals {
		scaled[i] = v * float64(k) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = t.cols[l]
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = t.cols[i]
	}
	for _, i := range small {
		// Numerical leftovers: treat as probability one.
		t.prob[i] = 1
		t.alias[i] = t.cols[i]
	}
	return t
}

// SampleStep draws the successor of state i in O(1).
func (s *Sampler) SampleStep(i int, rng *rand.Rand) int {
	t := &s.rows[i]
	k := len(t.cols)
	if k == 0 {
		return i // dangling state self-loops, matching Chain.SampleStep
	}
	slot := rng.Intn(k)
	if rng.Float64() < t.prob[slot] {
		return int(t.cols[slot])
	}
	return int(t.alias[slot])
}

// SamplePath draws a trajectory of steps+1 states starting from a state
// drawn from init.
func (s *Sampler) SamplePath(init *Distribution, steps int, rng *rand.Rand) []int {
	path := make([]int, steps+1)
	path[0] = SampleFrom(init, rng)
	for t := 0; t < steps; t++ {
		path[t+1] = s.SampleStep(path[t], rng)
	}
	return path
}
