package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// Packed is a read-only vector stored as its support: an index column and
// a value column, with no backing array of length Len(). It is the shape
// of a stored probability distribution — an observation pdf over a large
// state space usually has a handful of non-zeros.
//
// A Packed has one order: its index column is strictly ascending, and
// every operation visits, sums and copies its entries in ascending index
// order. Two Packed holding the same entries therefore give the same bits
// from every operation, however their entries were listed when they were
// built. Pack and PackDense store all Len() values and no index column
// once more than half of them are non-zero, so a full-support pdf does
// not cost more than the dense array it replaces; AdoptSupport keeps the
// columns it is handed. Both forms visit the same entries in the same
// order.
//
// The zero value is an empty vector of dimension 0. Slices handed to
// AdoptSupport and Pack, and those a Packed allocates, are never written
// after construction, so copies of a Packed share them safely.
type Packed struct {
	n   int
	idx []int32   // ascending support; nil when full
	val []float64 // values parallel to idx, or all n values when full
}

// full reports whether val holds all n values: only then do the two
// columns differ in length.
func (p Packed) full() bool { return len(p.idx) != len(p.val) }

// AdoptSupport wraps an index column and its value column — taking
// ownership, no copy — as a packed vector of dimension n. The indices
// must be strictly ascending and inside [0, n); the caller must not write
// either slice afterwards. The store's columnar decoder hands over slices
// of an image's state and probability columns this way.
func AdoptSupport(n int, idx []int32, val []float64) Packed {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("sparse: AdoptSupport with %d indices and %d values", len(idx), len(val)))
	}
	for k, i := range idx {
		if i < 0 || int(i) >= n || (k > 0 && i <= idx[k-1]) {
			panic(fmt.Sprintf("sparse: support index %d at %d is not strictly ascending inside [0,%d)", i, k, n))
		}
	}
	return Packed{n: n, idx: idx, val: val}
}

// Pack is AdoptSupport for a builder's own fresh columns: it drops the
// zero entries, and stores all n values instead when more than half of
// them are non-zero. Both slices may be reused for the result.
func Pack(n int, idx []int32, val []float64) Packed {
	k := 0
	for j, x := range val {
		if x != 0 {
			idx[k], val[k] = idx[j], x
			k++
		}
	}
	p := AdoptSupport(n, idx[:k], val[:k])
	if 2*k <= n {
		return p
	}
	if k == n { // every index present: val is the full column already
		return Packed{n: n, val: p.val}
	}
	full := make([]float64, n)
	for j, i := range p.idx {
		full[i] = p.val[j]
	}
	return Packed{n: n, val: full}
}

// PackDense returns the non-zero entries of data as a packed vector of
// dimension len(data), adopting data itself as the full column when more
// than half of it is non-zero. The caller must not write data afterwards.
func PackDense(data []float64) Packed {
	nnz := 0
	for _, x := range data {
		if x != 0 {
			nnz++
		}
	}
	if 2*nnz > len(data) {
		return Packed{n: len(data), val: data}
	}
	p := Packed{n: len(data), idx: make([]int32, 0, nnz), val: make([]float64, 0, nnz)}
	for i, x := range data {
		if x != 0 {
			p.idx = append(p.idx, int32(i))
			p.val = append(p.val, x)
		}
	}
	return p
}

// Merge sorts entries listed in any order, with repeats, into fresh
// strictly ascending columns for Pack: a repeated index's values are
// summed in the order given. Entries listed ascending are merged as they
// are, without a sorted copy. The indices must be inside int32's range;
// idx and val are not retained.
func Merge[I int | int32](idx []I, val []float64) ([]int32, []float64) {
	outIdx, outVal := make([]int32, 0, len(idx)), make([]float64, 0, len(idx))
	add := func(i int32, x float64) {
		if k := len(outIdx) - 1; k >= 0 && outIdx[k] == i {
			outVal[k] += x
			return
		}
		outIdx, outVal = append(outIdx, i), append(outVal, x)
	}
	if slices.IsSorted(idx) {
		for k, i := range idx {
			add(int32(i), val[k])
		}
		return outIdx, outVal
	}
	type entry struct {
		i int32
		x float64
	}
	es := make([]entry, len(idx))
	for k, i := range idx {
		es[k] = entry{int32(i), val[k]}
	}
	slices.SortStableFunc(es, func(a, b entry) int { return cmp.Compare(a.i, b.i) })
	for _, e := range es {
		add(e.i, e.x)
	}
	return outIdx, outVal
}

// Len returns the dimension of the vector.
func (p Packed) Len() int { return p.n }

// Bytes is the memory p's columns hold: 8 bytes a value when full, 12
// an entry (a 4-byte index and an 8-byte value) otherwise.
func (p Packed) Bytes() int { return 4*len(p.idx) + 8*len(p.val) }

// NNZ returns the number of stored entries: the index column's length,
// or a count of the non-zero values when full.
func (p Packed) NNZ() int {
	if !p.full() {
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

// At returns the value at index i: O(1) when full, O(log nnz) otherwise.
func (p Packed) At(i int) float64 {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("sparse: index %d out of range [0,%d)", i, p.n))
	}
	if p.full() {
		return p.val[i]
	}
	if k, ok := slices.BinarySearch(p.idx, int32(i)); ok {
		return p.val[k]
	}
	return 0
}

// Range calls fn for every non-zero entry in ascending index order.
func (p Packed) Range(fn func(i int, x float64)) {
	if p.full() {
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

// Sum returns the total mass, summed in ascending index order.
func (p Packed) Sum() float64 {
	s := 0.0
	for _, x := range p.val {
		s += x
	}
	return s
}

// Dot returns the inner product with a column of Len() values, summed in
// ascending index order over p's non-zeros: p drives, whatever the column
// holds, so the sum is also the ascending sum over the column's non-zero
// products.
func (p Packed) Dot(w []float64) float64 {
	if p.n != len(w) {
		panic(fmt.Sprintf("sparse: Dot dimension mismatch %d != %d", p.n, len(w)))
	}
	s := 0.0
	p.Range(func(i int, x float64) { s += x * w[i] })
	return s
}

// MassOn returns the mass of p on the member states of b, summed in
// ascending index order.
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

// CopyTo overwrites v with p's entries, leaving v as filling it with them
// in ascending order would: dense past DenseThreshold·Len() non-zeros,
// its ascending support list otherwise.
func (p Packed) CopyTo(v *Vec) {
	if v.Len() != p.n {
		panic(fmt.Sprintf("sparse: CopyTo dimension mismatch %d != %d", v.Len(), p.n))
	}
	v.Reset()
	if p.full() {
		copy(v.data, p.val)
		v.dense = true
		return
	}
	for k, i := range p.idx {
		v.Set(int(i), p.val[k])
	}
}

// Scaled returns p with every value multiplied by c (Vec.Scale's
// products); the index column is shared. c must not be negative; scaling
// by zero gives the empty vector, as Scale resets.
func (p Packed) Scaled(c float64) Packed {
	if c < 0 {
		panic("sparse: Scaled by negative factor on non-negative vector")
	}
	if c == 0 {
		return Packed{n: p.n}
	}
	q := p
	q.val = make([]float64, len(p.val))
	for k, x := range p.val {
		q.val[k] = x * c
	}
	return q
}

// Vec returns a new Vec holding p's entries as CopyTo leaves them —
// except that a full p hands out its value column as the Vec's backing
// array, which the caller must therefore treat as read-only.
func (p Packed) Vec() *Vec {
	if p.full() {
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
	return out
}
