package markov

import (
	"fmt"
	"math"
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
// its object — and every operation visits its entries in the order the
// equivalent sparse.Vec would, so answers computed from it carry the
// same bits.
type Distribution struct {
	p sparse.Packed
	// vec is Vec's materialization, built on first use.
	vec atomic.Pointer[sparse.Vec]
}

// scratch lends the constructors a dense working vector per dimension:
// they accumulate exactly as a sparse.Vec does and pack the result.
var scratch sparse.VecPool

// build fills a pooled vector and packs it. fill reports the error that
// aborts the construction, if any.
func build(n int, fill func(v *sparse.Vec) error) (*Distribution, error) {
	v := scratch.Get(n)
	defer scratch.Put(v)
	if err := fill(v); err != nil {
		return nil, err
	}
	return &Distribution{p: v.Pack()}, nil
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
	d, _ := build(n, func(v *sparse.Vec) error { v.Set(state, 1); return nil })
	return d
}

// UniformOver spreads mass uniformly over the given states: an imprecise
// observation with no interior preference (the shape used by the paper's
// object spread parameter).
func UniformOver(n int, states []int) *Distribution {
	if len(states) == 0 {
		panic("markov: UniformOver with no states")
	}
	for _, s := range states {
		if s < 0 || s >= n {
			panic(fmt.Sprintf("markov: state %d out of range [0,%d)", s, n))
		}
	}
	p := 1 / float64(len(states))
	d, _ := build(n, func(v *sparse.Vec) error {
		for _, s := range states {
			v.Set(s, p)
		}
		return nil
	})
	return d
}

// WeightedOver builds a distribution from parallel state/weight slices,
// normalizing the weights to sum to one.
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
	return build(n, func(v *sparse.Vec) error {
		for k, s := range states {
			v.Add(s, weights[k])
		}
		if v.Normalize() == 0 {
			return fmt.Errorf("markov: all weights zero")
		}
		return nil
	})
}

// FromVec returns a distribution with v's entries, packed in v's mode
// (see sparse.Vec.Pack). It copies: v is not retained.
func FromVec(v *sparse.Vec) *Distribution { return &Distribution{p: v.Pack()} }

// FromColumns wraps a support column and its mass column as a
// distribution over n states — adopting both slices, no copy — that
// visits the entries in the given order. The caller warrants distinct
// states inside [0, n) and must never write either slice afterwards; the
// store's decoder makes each loaded pdf such a view over its slice of
// the image's state and probability columns.
func FromColumns(n int, states []int32, probs []float64) *Distribution {
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

// NNZ returns the number of stored support entries (Vec.NNZ's count).
func (d *Distribution) NNZ() int { return d.p.NNZ() }

// P returns the probability mass on state i.
func (d *Distribution) P(i int) float64 { return d.p.At(i) }

// Mass returns the total probability mass (1 for a proper distribution,
// less after conditioning on impossible observations).
func (d *Distribution) Mass() float64 { return d.p.Sum() }

// Support returns the states carrying mass, ascending.
func (d *Distribution) Support() []int { return d.p.Support() }

// Range calls fn for every state carrying mass, in the distribution's
// iteration order.
func (d *Distribution) Range(fn func(state int, p float64)) { d.p.Range(fn) }

// Dot returns the inner product with a score column of NumStates()
// values, summed in the distribution's iteration order.
func (d *Distribution) Dot(w []float64) float64 { return d.p.Dot(w) }

// MassOn returns the mass on the member states of b.
func (d *Distribution) MassOn(b *sparse.Bitset) float64 { return d.p.MassOn(b) }

// CopyTo overwrites v — a working vector of the same dimension — with
// the distribution, in the mode and order its Vec would have.
func (d *Distribution) CopyTo(v *sparse.Vec) { d.p.CopyTo(v) }

// RangeAscending calls fn for every state carrying mass in ascending
// state order, whatever the distribution's iteration order: the order
// the store writes a pdf in. Only a sparse pdf whose support is not
// ascending pays for a sorted copy.
func (d *Distribution) RangeAscending(fn func(state int, p float64)) { d.p.RangeSorted(fn) }

// Normalized returns the distribution scaled to unit mass (Vec.Normalize's
// bits) and the mass before scaling. A zero distribution comes back
// unchanged with mass 0.
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
// toward the smallest state index for determinism.
func (d *Distribution) Mode() (state int, p float64) {
	state = -1
	d.p.Range(func(i int, x float64) {
		if x > p || (x == p && i < state) {
			state, p = i, x
		}
	})
	return state, p
}

// String renders the distribution compactly, ascending by state.
func (d *Distribution) String() string {
	out := "["
	d.RangeAscending(func(i int, p float64) {
		if len(out) > 1 {
			out += " "
		}
		out += fmt.Sprintf("%d:%.6g", i, p)
	})
	return out + "]"
}
