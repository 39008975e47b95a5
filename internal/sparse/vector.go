// Package sparse provides the sparse linear-algebra substrate used by the
// uncertain spatio-temporal query engine: compressed sparse row (CSR)
// matrices, hybrid sparse/dense vectors, and the vector-matrix kernels the
// paper reduces all queries to.
//
// The package replaces the Matlab matrix engine used by the original ICDE
// 2012 implementation. All kernels are written for the access pattern that
// dominates query evaluation: repeated row-major vector-matrix products
// with non-negative data (probability mass).
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// DenseThreshold is the support fill ratio above which a Vec stops
// maintaining its support list and iterates densely. Beyond roughly a
// quarter of the dimension, walking the dense backing array is cheaper
// than maintaining the index list.
const DenseThreshold = 0.25

// Vec is a hybrid sparse/dense vector of non-negative float64 values.
//
// A Vec always owns a dense backing array of length Len(). While the
// number of non-zero entries is small it additionally tracks the support
// (indices of non-zero entries) so that consumers can iterate in O(nnz).
// Once the support grows past DenseThreshold*Len() the vector flips to
// dense mode and the support list is abandoned, its storage kept for the
// next refill of a recycled vector (see Trim).
//
// The zero value is not usable; construct with NewVec.
type Vec struct {
	data  []float64
	supp  []int
	dense bool
}

// NewVec returns a zero vector of dimension n.
func NewVec(n int) *Vec {
	if n < 0 {
		panic("sparse: negative vector dimension")
	}
	return &Vec{data: make([]float64, n)}
}

// AdoptDense wraps data — taking ownership, no copy — as a dense-mode
// vector: the O(1) constructor for a bulk-computed array (the smoothed
// posterior packs one). The caller must not touch data afterwards.
func AdoptDense(data []float64) *Vec {
	return &Vec{data: data, dense: true}
}

// NewVecFrom returns a vector with a copy of the given dense data.
func NewVecFrom(data []float64) *Vec {
	v := NewVec(len(data))
	for i, x := range data {
		if x != 0 {
			v.Set(i, x)
		}
	}
	return v
}

// Len returns the dimension of the vector.
func (v *Vec) Len() int { return len(v.data) }

// NNZ returns the number of structurally tracked non-zero entries. In
// dense mode it is computed by a scan.
func (v *Vec) NNZ() int {
	if v.dense {
		n := 0
		for _, x := range v.data {
			if x != 0 {
				n++
			}
		}
		return n
	}
	return len(v.supp)
}

// Dense reports whether the vector has abandoned support tracking.
func (v *Vec) Dense() bool { return v.dense }

// At returns the value at index i.
func (v *Vec) At(i int) float64 { return v.data[i] }

// Set assigns value x at index i, maintaining the support list.
// Setting an entry to zero is permitted but does not shrink the support;
// a subsequent Compact removes stale indices.
func (v *Vec) Set(i int, x float64) {
	if x != 0 && v.data[i] == 0 && !v.dense {
		v.supp = append(v.supp, i)
		v.maybeDensify()
	}
	v.data[i] = x
}

// Add accumulates x into index i, maintaining the support list.
func (v *Vec) Add(i int, x float64) {
	if x == 0 {
		return
	}
	if v.data[i] == 0 && !v.dense {
		v.supp = append(v.supp, i)
		v.maybeDensify()
	}
	v.data[i] += x
}

func (v *Vec) maybeDensify() {
	if !v.dense && len(v.supp) > v.denseLimit() {
		v.dense = true
		v.supp = v.supp[:0]
	}
}

// denseLimit is the largest support size a sparse-mode vector keeps:
// one more entry flips it dense.
func (v *Vec) denseLimit() int { return int(DenseThreshold * float64(len(v.data))) }

// Reset zeroes the vector and restores sparse mode, reusing storage.
func (v *Vec) Reset() {
	if v.dense {
		for i := range v.data {
			v.data[i] = 0
		}
	} else {
		for _, i := range v.supp {
			v.data[i] = 0
		}
	}
	v.supp = v.supp[:0]
	v.dense = false
}

// Trim releases storage a vector keeps only for reuse as scratch: a
// vector that turns dense keeps its support list's capacity, so that the
// next Reset-and-refill of a pooled vector grows nothing. Call it
// on a vector that is retained instead of recycled (Chain.Advance's result).
func (v *Vec) Trim() {
	if v.dense {
		v.supp = nil
	}
}

// Clone returns a deep copy of v.
func (v *Vec) Clone() *Vec {
	w := &Vec{
		data:  append([]float64(nil), v.data...),
		dense: v.dense,
	}
	if !v.dense {
		w.supp = append([]int(nil), v.supp...)
	}
	return w
}

// CopyFrom overwrites v with the contents of w. The vectors must have the
// same dimension.
func (v *Vec) CopyFrom(w *Vec) {
	if v.Len() != w.Len() {
		panic(fmt.Sprintf("sparse: CopyFrom dimension mismatch %d != %d", v.Len(), w.Len()))
	}
	v.Reset()
	if w.dense {
		copy(v.data, w.data)
		v.dense = true
		return
	}
	// A sparse source is zero off its support list: copy that, not |S|.
	for _, i := range w.supp {
		v.data[i] = w.data[i]
	}
	v.supp = append(v.supp, w.supp...)
}

// Range calls fn for every non-zero entry. Order is unspecified in sparse
// mode and ascending in dense mode. The one mutation fn may perform on v
// is zeroing entries it has been handed (Set(i, 0)): zero-writes never
// touch the support list, and both iteration modes tolerate them — the
// test references' mass-moving steps rely on exactly this. Any other
// mutation from fn is forbidden.
func (v *Vec) Range(fn func(i int, x float64)) {
	if v.dense {
		for i, x := range v.data {
			if x != 0 {
				fn(i, x)
			}
		}
		return
	}
	for _, i := range v.supp {
		if x := v.data[i]; x != 0 {
			fn(i, x)
		}
	}
}

// Support returns the indices of non-zero entries in ascending order.
// The returned slice is freshly allocated.
func (v *Vec) Support() []int {
	var out []int
	v.Range(func(i int, _ float64) { out = append(out, i) })
	sort.Ints(out)
	return out
}

// DenseData returns a copy of the dense backing array.
func (v *Vec) DenseData() []float64 {
	return append([]float64(nil), v.data...)
}

// RawData exposes the dense backing array without copying. Callers must
// treat it as read-only; mutating it desynchronizes the support list.
func (v *Vec) RawData() []float64 { return v.data }

// Sum returns the total mass Σ v[i].
func (v *Vec) Sum() float64 {
	s := 0.0
	if v.dense {
		for _, x := range v.data {
			s += x
		}
		return s
	}
	for _, i := range v.supp {
		s += v.data[i]
	}
	return s
}

// Max returns the largest entry value, or 0 for an all-zero vector.
func (v *Vec) Max() float64 {
	m := 0.0
	v.Range(func(_ int, x float64) {
		if x > m {
			m = x
		}
	})
	return m
}

// Dot returns the inner product of v and w. The cheaper side drives the
// iteration.
func (v *Vec) Dot(w *Vec) float64 {
	if v.Len() != w.Len() {
		panic(fmt.Sprintf("sparse: Dot dimension mismatch %d != %d", v.Len(), w.Len()))
	}
	a, b := v, w
	if a.dense && !b.dense {
		a, b = b, a
	}
	s := 0.0
	a.Range(func(i int, x float64) {
		s += x * b.data[i]
	})
	return s
}

// Scale multiplies every entry by c. Scaling by zero resets the vector;
// negative factors are rejected because Vec is documented non-negative.
func (v *Vec) Scale(c float64) {
	if c < 0 {
		panic("sparse: Scale by negative factor on non-negative vector")
	}
	if c == 0 {
		v.Reset()
		return
	}
	if v.dense {
		for i := range v.data {
			v.data[i] *= c
		}
		return
	}
	for _, i := range v.supp {
		v.data[i] *= c
	}
}

// Normalize scales v so that its entries sum to one and returns the
// pre-normalization mass. A zero vector is left unchanged and 0 returned.
func (v *Vec) Normalize() float64 {
	s := v.Sum()
	if s > 0 {
		v.Scale(1 / s)
	}
	return s
}

// Hadamard replaces v by the elementwise product v ⊙ w.
func (v *Vec) Hadamard(w *Vec) {
	if v.Len() != w.Len() {
		panic(fmt.Sprintf("sparse: Hadamard dimension mismatch %d != %d", v.Len(), w.Len()))
	}
	if v.dense {
		for i := range v.data {
			v.data[i] *= w.data[i]
		}
		return
	}
	for _, i := range v.supp {
		v.data[i] *= w.data[i]
	}
	v.Compact()
}

// AddVec accumulates c*w into v.
func (v *Vec) AddVec(c float64, w *Vec) {
	if v.Len() != w.Len() {
		panic(fmt.Sprintf("sparse: AddVec dimension mismatch %d != %d", v.Len(), w.Len()))
	}
	w.Range(func(i int, x float64) { v.Add(i, c*x) })
}

// Compact removes stale zero entries from the support list.
func (v *Vec) Compact() {
	if v.dense {
		return
	}
	out := v.supp[:0]
	for _, i := range v.supp {
		if v.data[i] != 0 {
			out = append(out, i)
		}
	}
	v.supp = out
}

// Equal reports whether v and w have identical dimension and entries
// within tolerance tol.
func (v *Vec) Equal(w *Vec, tol float64) bool {
	if v.Len() != w.Len() {
		return false
	}
	for i := range v.data {
		if math.Abs(v.data[i]-w.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact human-readable form, for debugging and tests.
func (v *Vec) String() string {
	idx := v.Support()
	out := "["
	for k, i := range idx {
		if k > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d:%.6g", i, v.data[i])
	}
	return out + "]"
}
