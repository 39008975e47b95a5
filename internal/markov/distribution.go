package markov

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"ust/internal/sparse"
)

// Distribution is a probability distribution over the state space: the
// paper's P(o, t) vector. It holds only what it stores — its support as
// an index column and a value column (sparse.Packed), or all n values
// once more than half of them are non-zero — so an observation over a
// large state space costs its support, not |S|. A distribution is
// immutable — a stored pdf is the only copy of its observation, read by
// the engine's passes, the store's writer and the cache entries keyed by
// its object — and it has one order: every operation visits its states
// ascending, whatever order they were listed in when it was built. A pdf
// therefore gives the same bits in process, after a store round trip,
// on a worker and through either ingest encoding.
type Distribution struct {
	p sparse.Packed
	// vec is Vec's materialization, built on first use.
	vec atomic.Pointer[sparse.Vec]
}

// NewDistribution returns the zero distribution over n states: no mass.
func NewDistribution(n int) *Distribution {
	if n < 0 {
		panic("markov: negative distribution dimension")
	}
	return &Distribution{p: sparse.AdoptSupport(n, nil, nil)}
}

// PointDistribution puts all mass on a single state: a precise
// observation.
func PointDistribution(n, state int) *Distribution {
	if state < 0 || state >= n {
		panic(fmt.Sprintf("markov: state %d out of range [0,%d)", state, n))
	}
	return &Distribution{p: sparse.Pack(n, []int32{int32(state)}, []float64{1})}
}

// UniformOver spreads mass uniformly over the given states: an imprecise
// observation with no interior preference (the shape used by the paper's
// object spread parameter). Each state listed gets 1/len(states); a
// state listed twice gets it once.
func UniformOver(n int, states []int) *Distribution {
	if len(states) == 0 {
		panic("markov: UniformOver with no states")
	}
	idx := make([]int32, len(states))
	for k, s := range states {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("markov: state %d out of range [0,%d)", s, n))
		}
		idx[k] = int32(s)
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	val := make([]float64, len(idx))
	p := 1 / float64(len(states))
	for k := range val {
		val[k] = p
	}
	return &Distribution{p: sparse.Pack(n, idx, val)}
}

// WeightedOver builds a distribution from parallel state/weight slices,
// listed in any order, normalizing the weights to sum to one. A state
// listed twice gets the sum of its weights.
func WeightedOver(n int, states []int, weights []float64) (*Distribution, error) {
	if len(states) != len(weights) {
		return nil, fmt.Errorf("markov: %d states but %d weights", len(states), len(weights))
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("markov: empty distribution")
	}
	for k, s := range states {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("markov: state %d out of range [0,%d)", s, n)
		}
		if weights[k] < 0 {
			return nil, fmt.Errorf("markov: negative weight %g for state %d", weights[k], s)
		}
	}
	idx, val := sparse.Merge(states, weights)
	return WeightedSorted(n, idx, val)
}

// WeightedSorted is WeightedOver for columns that are already strictly
// ascending states inside [0, n) with non-negative weights — an
// observation frame's, as its decoder validated them. It adopts both
// slices and normalizes the weights in place, summed in ascending state
// order as every other read of the pdf is. Each weight is multiplied by
// the sum's inverse, or divided by a subnormal sum, whose inverse
// overflows; a sum that overflows leaves the pdf empty, as scaling a Vec
// by zero does.
func WeightedSorted(n int, states []int32, weights []float64) (*Distribution, error) {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("markov: all weights zero")
	}
	switch inv := 1 / sum; {
	case inv == 0:
		states, weights = nil, nil
	case inv > math.MaxFloat64:
		for k := range weights {
			weights[k] /= sum
		}
	case sum > 0:
		for k := range weights {
			weights[k] *= inv
		}
	}
	return &Distribution{p: sparse.Pack(n, states, weights)}, nil
}

// FromArray returns the distribution with mass p[i] on state i, adopting
// p — no copy — when more than half of it is non-zero: the constructor
// for a bulk-computed array (a smoothed posterior, a marginal, a
// stationary distribution). The caller must not write p afterwards.
func FromArray(p []float64) *Distribution { return &Distribution{p: sparse.PackDense(p)} }

// FromColumns wraps a support column and its mass column as a
// distribution over n states. Strictly ascending columns are adopted as
// they are, no copy: the store's decoder makes each loaded pdf such a
// view over its slice of the image's state and probability columns, and
// the caller must never write either slice afterwards. Columns listed in
// any other order are merged into fresh ones (sparse.Merge), a repeated
// state's masses summed.
func FromColumns(n int, states []int32, probs []float64) *Distribution {
	for k := 1; k < len(states); k++ {
		if states[k] <= states[k-1] {
			idx, val := sparse.Merge(states, probs)
			return &Distribution{p: sparse.Pack(n, idx, val)}
		}
	}
	return &Distribution{p: sparse.AdoptSupport(n, states, probs)}
}

// Vec returns the distribution as a sparse.Vec, materialized on first
// use and kept: an accessor for callers outside the engine, which reads
// the Distribution itself. The vector is shared and read-only.
func (d *Distribution) Vec() *sparse.Vec {
	if v := d.vec.Load(); v != nil {
		return v
	}
	d.vec.CompareAndSwap(nil, d.p.Vec())
	return d.vec.Load()
}

// NumStates returns the dimension of the state space.
func (d *Distribution) NumStates() int { return d.p.Len() }

// Bytes is the memory the packed pdf holds (sparse.Packed.Bytes); a
// vector Vec has materialized is not counted.
func (d *Distribution) Bytes() int { return d.p.Bytes() }

// NNZ returns the number of stored support entries (sparse.Packed.NNZ).
func (d *Distribution) NNZ() int { return d.p.NNZ() }

// P returns the probability mass on state i.
func (d *Distribution) P(i int) float64 { return d.p.At(i) }

// Mass returns the total probability mass (1 for a proper distribution,
// less after conditioning on impossible observations).
func (d *Distribution) Mass() float64 { return d.p.Sum() }

// Support returns the states carrying mass, ascending.
func (d *Distribution) Support() []int { return d.p.Support() }

// Range calls fn for every state carrying mass, ascending.
func (d *Distribution) Range(fn func(state int, p float64)) { d.p.Range(fn) }

// Dot returns the inner product with a score column of NumStates()
// values, summed in ascending state order.
func (d *Distribution) Dot(w []float64) float64 { return d.p.Dot(w) }

// MassOn returns the mass on the member states of b, summed in ascending
// state order.
func (d *Distribution) MassOn(b *sparse.Bitset) float64 { return d.p.MassOn(b) }

// CopyTo overwrites v — a working vector of the same dimension — with
// the distribution, leaving it as filling it in ascending order would
// (sparse.Packed.CopyTo).
func (d *Distribution) CopyTo(v *sparse.Vec) { d.p.CopyTo(v) }

// Normalized returns the distribution scaled to unit mass (Vec.Normalize's
// bits on the same entries) and the mass before scaling. A zero
// distribution comes back unchanged with mass 0.
func (d *Distribution) Normalized() (*Distribution, float64) {
	s := d.p.Sum()
	if s <= 0 {
		return d, s
	}
	return &Distribution{p: d.p.Scaled(1 / s)}, s
}

// Validate checks that the distribution is a proper pdf: non-negative
// (by construction) with total mass 1 within tol.
func (d *Distribution) Validate(tol float64) error {
	m := d.Mass()
	if m < 1-tol || m > 1+tol {
		return fmt.Errorf("markov: distribution mass %g is not 1", m)
	}
	return nil
}

// Clone returns an independent copy. Stored columns are never written,
// so the copy shares them.
func (d *Distribution) Clone() *Distribution { return &Distribution{p: d.p} }

// Entropy returns the Shannon entropy in nats; a convenience for
// diagnostics and examples (0 for a point observation).
func (d *Distribution) Entropy() float64 {
	h := 0.0
	d.p.Range(func(_ int, p float64) {
		if p > 0 {
			h -= p * math.Log(p)
		}
	})
	return h
}

// Mode returns the state with the largest mass and that mass. Ties break
// toward the smallest state index: the first one the ascending walk meets.
func (d *Distribution) Mode() (state int, p float64) {
	state = -1
	d.p.Range(func(i int, x float64) {
		if x > p {
			state, p = i, x
		}
	})
	return state, p
}

// String renders the distribution compactly, ascending by state.
func (d *Distribution) String() string {
	out := "["
	d.p.Range(func(i int, p float64) {
		if len(out) > 1 {
			out += " "
		}
		out += fmt.Sprintf("%d:%.6g", i, p)
	})
	return out + "]"
}
