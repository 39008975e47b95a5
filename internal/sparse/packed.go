package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Packed is a read-only vector stored as its support: an index column and
// a value column, with no backing array of length Len(). It is the shape
// of a stored probability distribution — an observation pdf over a large
// state space usually has a handful of non-zeros — and its operations
// reproduce, bit for bit, what a Vec holding the same entries in the same
// mode would compute.
//
// A Packed remembers the mode of the Vec it stands for. A sparse-mode one
// iterates its index column in order (a Vec's support-list order); a
// dense-mode one iterates ascending, and above half of Len() non-zeros it
// stores all Len() values and no index column, so a full-support pdf does
// not cost more than the dense array it replaces.
//
// The zero value is an empty vector of dimension 0. Slices handed to
// AdoptSupport, and those a Packed allocates, are never written after
// construction, so copies of a Packed share them safely.
type Packed struct {
	n   int
	idx []int32   // support in iteration order; nil when full
	val []float64 // values parallel to idx, or all n values when full
	// dense: iterates ascending, as a dense-mode Vec does.
	dense bool
	// full: val holds all n values.
	full bool
	// sorted: idx is ascending (At binary-searches it).
	sorted bool
}

// AdoptSupport wraps an index column and its value column — taking
// ownership, no copy — as a sparse-mode packed vector of dimension n that
// iterates the entries in the given order. The caller warrants that the
// indices are distinct and inside [0, n) and must not write either slice
// afterwards; the store's columnar decoder hands over slices of an
// image's state and probability columns this way.
func AdoptSupport(n int, idx []int32, val []float64) Packed {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("sparse: AdoptSupport with %d indices and %d values", len(idx), len(val)))
	}
	return Packed{n: n, idx: idx, val: val, sorted: slices.IsSorted(idx)}
}

// Pack returns a copy of v's entries as a Packed in v's mode: a
// sparse-mode v keeps its support-list order (stale zero entries
// included, as NNZ counts them), a dense-mode one is stored ascending —
// as all Len() values when more than half of them are non-zero, as its
// non-zeros otherwise. v is not retained.
func (v *Vec) Pack() Packed {
	n := len(v.data)
	if !v.dense {
		p := Packed{n: n, idx: make([]int32, len(v.supp)), val: make([]float64, len(v.supp))}
		for k, i := range v.supp {
			p.idx[k], p.val[k] = int32(i), v.data[i]
		}
		p.sorted = slices.IsSorted(p.idx)
		return p
	}
	nnz := v.NNZ()
	if 2*nnz > n {
		return Packed{n: n, val: append([]float64(nil), v.data...), dense: true, full: true, sorted: true}
	}
	p := Packed{n: n, idx: make([]int32, 0, nnz), val: make([]float64, 0, nnz), dense: true, sorted: true}
	for i, x := range v.data {
		if x != 0 {
			p.idx = append(p.idx, int32(i))
			p.val = append(p.val, x)
		}
	}
	return p
}

// Len returns the dimension of the vector.
func (p Packed) Len() int { return p.n }

// Bytes is the memory p's columns hold: 8 bytes a value when full, 12
// an entry (a 4-byte index and an 8-byte value) otherwise.
func (p Packed) Bytes() int {
	if p.full {
		return 8 * len(p.val)
	}
	return 12 * len(p.idx)
}

// NNZ returns what Vec.NNZ returns for the same vector: the index
// column's length, or a count of the non-zero values when full.
func (p Packed) NNZ() int {
	if !p.full {
		return len(p.idx)
	}
	n := 0
	for _, x := range p.val {
		if x != 0 {
			n++
		}
	}
	return n
}

// At returns the value at index i: O(1) when full, O(log nnz) over an
// ascending index column, O(nnz) otherwise.
func (p Packed) At(i int) float64 {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, p.n))
	}
	if p.full {
		return p.val[i]
	}
	if p.sorted {
		if k, ok := slices.BinarySearch(p.idx, int32(i)); ok {
			return p.val[k]
		}
		return 0
	}
	for k, j := range p.idx {
		if int(j) == i {
			return p.val[k]
		}
	}
	return 0
}

// Range calls fn for every non-zero entry, in the order Vec.Range visits
// the same vector: index-column order in sparse mode, ascending in dense
// mode.
func (p Packed) Range(fn func(i int, x float64)) {
	if p.full {
		for i, x := range p.val {
			if x != 0 {
				fn(i, x)
			}
		}
		return
	}
	for k, i := range p.idx {
		if x := p.val[k]; x != 0 {
			fn(int(i), x)
		}
	}
}

// Sum returns the total mass, summed in iteration order.
func (p Packed) Sum() float64 {
	s := 0.0
	for _, x := range p.val {
		s += x
	}
	return s
}

// Dot returns the inner product with a column of Len() values, summed in
// p's iteration order: p drives, whatever the column holds. A dense-mode p
// walks ascending, so against a column it sums the same non-zero products
// in the same order as an ascending walk of the column's non-zeros would.
func (p Packed) Dot(w []float64) float64 {
	if p.n != len(w) {
		panic(fmt.Sprintf("sparse: Dot dimension mismatch %d != %d", p.n, len(w)))
	}
	s := 0.0
	p.Range(func(i int, x float64) { s += x * w[i] })
	return s
}

// MassOn returns the mass of p on the member states of b, summed in
// iteration order.
func (p Packed) MassOn(b *Bitset) float64 {
	if p.n != b.n {
		panic(fmt.Sprintf("sparse: MassOn dimension mismatch %d != %d", p.n, b.n))
	}
	s := 0.0
	p.Range(func(i int, x float64) {
		if b.Has(i) {
			s += x
		}
	})
	return s
}

// CopyTo overwrites v with p's entries, leaving v in the state
// v.CopyFrom would leave it in from the Vec p stands for: the same mode
// and, in sparse mode, the same support-list order.
func (p Packed) CopyTo(v *Vec) {
	if v.Len() != p.n {
		panic(fmt.Sprintf("sparse: CopyTo dimension mismatch %d != %d", v.Len(), p.n))
	}
	v.Reset()
	if p.full {
		copy(v.data, p.val)
		v.dense = true
		return
	}
	for k, i := range p.idx {
		v.data[i] = p.val[k]
	}
	if p.dense {
		v.dense = true
		return
	}
	for _, i := range p.idx {
		v.supp = append(v.supp, int(i))
	}
}

// Scaled returns p with every value multiplied by c, in p's mode and
// order (Vec.Scale's products); the index column is shared. c must not be
// negative; scaling by zero gives the empty vector, as Scale resets.
func (p Packed) Scaled(c float64) Packed {
	if c < 0 {
		panic("sparse: Scaled by negative factor on non-negative vector")
	}
	if c == 0 {
		return Packed{n: p.n, sorted: true}
	}
	q := p
	q.val = make([]float64, len(p.val))
	for k, x := range p.val {
		q.val[k] = x * c
	}
	return q
}

// Vec returns a new Vec holding p's entries in p's mode — except that a
// full p hands out its value column as the Vec's backing array, which
// the caller must therefore treat as read-only.
func (p Packed) Vec() *Vec {
	if p.full {
		return &Vec{data: p.val, dense: true}
	}
	v := NewVec(p.n)
	p.CopyTo(v)
	return v
}

// Support returns the indices of the non-zero entries in ascending order.
// The returned slice is freshly allocated.
func (p Packed) Support() []int {
	var out []int
	p.Range(func(i int, _ float64) { out = append(out, i) })
	if !p.sorted {
		sort.Ints(out)
	}
	return out
}

// RangeSorted calls fn for every non-zero entry in ascending index
// order: Range's own order, except for a sparse-mode vector whose index
// column is not ascending, which it first sorts into a copy.
func (p Packed) RangeSorted(fn func(i int, x float64)) {
	if p.sorted {
		p.Range(fn)
		return
	}
	b := byIndex{slices.Clone(p.idx), slices.Clone(p.val)}
	sort.Sort(b)
	for k, i := range b.idx {
		if x := b.val[k]; x != 0 {
			fn(int(i), x)
		}
	}
}

// byIndex sorts an index column and its value column together.
type byIndex struct {
	idx []int32
	val []float64
}

func (b byIndex) Len() int           { return len(b.idx) }
func (b byIndex) Less(i, j int) bool { return b.idx[i] < b.idx[j] }
func (b byIndex) Swap(i, j int) {
	b.idx[i], b.idx[j] = b.idx[j], b.idx[i]
	b.val[i], b.val[j] = b.val[j], b.val[i]
}
