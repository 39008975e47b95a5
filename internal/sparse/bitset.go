package sparse

import (
	"fmt"
	"math/bits"
)

// Bitset is a fixed-size set of state ids, packed 64 per word. It is the
// boolean companion of Vec: where a Vec carries probability mass per
// state, a Bitset carries only *support* — "can any mass be here at
// all?". The filter stage of filter–refine query evaluation propagates
// supports instead of mass, which costs one bit-op where the exact sweep
// costs a multiply-add, and prunes objects before any exact work runs.
//
// The zero value is not usable; construct with NewBitset.
type Bitset struct {
	n     int
	words []uint64
}

// NewBitset returns an empty set over the universe {0, …, n−1}.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("sparse: negative bitset dimension")
	}
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the universe size n.
func (b *Bitset) Len() int { return b.n }

// Words returns the number of backing 64-bit words (for cost models).
func (b *Bitset) Words() int { return len(b.words) }

// Set adds i to the set. It inlines, so kernels may call it per edge.
func (b *Bitset) Set(i int) {
	if uint(i) >= uint(b.n) {
		b.outOfRange(i)
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	if uint(i) >= uint(b.n) {
		b.outOfRange(i)
	}
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// outOfRange panics for Set and Clear, kept out of line so they inline.
//
//go:noinline
func (b *Bitset) outOfRange(i int) {
	panic(fmt.Sprintf("sparse: Bitset index %d out of range [0,%d)", i, b.n))
}

// Has reports whether i is in the set.
func (b *Bitset) Has(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Reset empties the set, reusing storage.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += popcount(w)
	}
	return c
}

// Any reports whether the set is non-empty.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{n: b.n, words: append([]uint64(nil), b.words...)}
}

// CopyFrom overwrites b with the contents of o (same universe required).
func (b *Bitset) CopyFrom(o *Bitset) {
	b.check(o)
	copy(b.words, o.words)
}

// Or unions o into b.
func (b *Bitset) Or(o *Bitset) {
	b.check(o)
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// And intersects b with o.
func (b *Bitset) And(o *Bitset) {
	b.check(o)
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// Equal reports whether b and o hold the same set.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range o.words {
		if b.words[i] != w {
			return false
		}
	}
	return true
}

// Range calls fn for every member in ascending order.
func (b *Bitset) Range(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			bit := trailingZeros(w)
			fn(base + bit)
			w &= w - 1
		}
	}
}

func (b *Bitset) check(o *Bitset) {
	if b.n != o.n {
		panic(fmt.Sprintf("sparse: bitset dimension mismatch %d != %d", b.n, o.n))
	}
}

// MassOn returns the total mass of v on the member states: Σ_{i ∈ b} v[i].
// It drives the filter stage's bound computation: the mass of an initial
// distribution on a reachability envelope is an upper bound on the query
// probability.
func (b *Bitset) MassOn(v *Vec) float64 {
	if v.Len() != b.n {
		panic(fmt.Sprintf("sparse: MassOn dimension mismatch %d != %d", v.Len(), b.n))
	}
	s := 0.0
	v.Range(func(i int, x float64) {
		if b.Has(i) {
			s += x
		}
	})
	return s
}

// BoolVecMat computes the boolean row-vector product dst = x · M over the
// (∨, ∧) semiring: dst[j] is set iff some i ∈ x has M[i,j] ≠ 0. It is the
// support shadow of VecMat and costs one branch-free bit-set per touched
// non-zero. dst is reset first and must not alias x.
func BoolVecMat(dst, x *Bitset, m *CSR) {
	if x.Len() != m.Rows() {
		panic(fmt.Sprintf("sparse: BoolVecMat dimension mismatch: set %d, matrix %dx%d", x.Len(), m.Rows(), m.Cols()))
	}
	if dst.Len() != m.Cols() {
		panic(fmt.Sprintf("sparse: BoolVecMat destination length %d != %d columns", dst.Len(), m.Cols()))
	}
	if dst == x {
		panic("sparse: BoolVecMat dst must not alias x")
	}
	dst.Reset()
	x.Range(func(i int) {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := m.colIdx[k]
			dst.words[j>>6] |= 1 << (uint(j) & 63)
		}
	})
}

// BoolMatVecAll computes dst[i] = 1 iff row i of M is non-empty and every
// column j with M[i,j] ≠ 0 has x[j] set — the universal (all-successors)
// companion of BoolVecMat, used to propagate "every trajectory from here
// hits the region" certainty backward. Empty rows (dangling states) are
// conservatively excluded. dst is reset first and must not alias x.
func BoolMatVecAll(dst, x *Bitset, m *CSR) {
	if x.Len() != m.Cols() {
		panic(fmt.Sprintf("sparse: BoolMatVecAll dimension mismatch: set %d, matrix %dx%d", x.Len(), m.Rows(), m.Cols()))
	}
	if dst.Len() != m.Rows() {
		panic(fmt.Sprintf("sparse: BoolMatVecAll destination length %d != %d rows", dst.Len(), m.Rows()))
	}
	if dst == x {
		panic("sparse: BoolMatVecAll dst must not alias x")
	}
	dst.Reset()
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		if lo == hi {
			continue
		}
		all := true
		for k := lo; k < hi; k++ {
			if !x.Has(m.colIdx[k]) {
				all = false
				break
			}
		}
		if all {
			dst.Set(i)
		}
	}
}

func popcount(w uint64) int      { return bits.OnesCount64(w) }
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
