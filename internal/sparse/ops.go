package sparse

import "fmt"

// VecMat computes dst = x · M (row vector times matrix) using Gustavson's
// row-scatter scheme: for each non-zero x[i], row i of M is scaled by x[i]
// and scattered into dst. The cost is O(Σ_{i ∈ supp(x)} nnz(row i)),
// independent of the matrix dimension, which is what makes the paper's
// object-based evaluation tractable on 100k-state spaces.
//
// dst is reset first and must be distinct from x. x must be non-negative;
// support tracking relies on products never cancelling.
func VecMat(dst, x *Vec, m *CSR) {
	if x.Len() != m.Rows() {
		panic(fmt.Sprintf("sparse: VecMat dimension mismatch: vec %d, matrix %dx%d", x.Len(), m.Rows(), m.Cols()))
	}
	if dst.Len() != m.Cols() {
		panic(fmt.Sprintf("sparse: VecMat destination length %d != %d columns", dst.Len(), m.Cols()))
	}
	if dst == x {
		panic("sparse: VecMat dst must not alias x")
	}
	dst.Reset()
	// Raw loops with Add's semantics entry by entry, in Range's order: a
	// zero product never enters dst's support list, and the entry that
	// takes the list past the limit flips dst dense — keeping the list's
	// storage for the next refill (Trim). The row loop is written out for
	// each source mode: the compiler does not inline a shared row helper,
	// and a call per row of five entries costs this kernel 15 %.
	limit := dst.denseLimit()
	if x.dense {
		for i, xi := range x.data {
			if xi == 0 {
				continue
			}
			for k, hi := m.rowPtr[i], m.rowPtr[i+1]; k < hi; k++ {
				p := xi * m.vals[k]
				if p == 0 {
					continue
				}
				j := m.colIdx[k]
				if dst.data[j] == 0 && !dst.dense {
					dst.supp = append(dst.supp, j)
					if len(dst.supp) > limit {
						dst.dense, dst.supp = true, dst.supp[:0]
					}
				}
				dst.data[j] += p
			}
		}
		return
	}
	for _, i := range x.supp {
		xi := x.data[i]
		if xi == 0 {
			continue
		}
		for k, hi := m.rowPtr[i], m.rowPtr[i+1]; k < hi; k++ {
			p := xi * m.vals[k]
			if p == 0 {
				continue
			}
			j := m.colIdx[k]
			if dst.data[j] == 0 && !dst.dense {
				dst.supp = append(dst.supp, j)
				if len(dst.supp) > limit {
					dst.dense, dst.supp = true, dst.supp[:0]
				}
			}
			dst.data[j] += p
		}
	}
}

// MatVec computes dst = M · x (matrix times column vector). It iterates
// rows of M densely and is therefore O(nnz(M)); use it when x is dense or
// when the transposed matrix is unavailable.
//
// dst is reset first and must be distinct from x.
func MatVec(dst *Vec, m *CSR, x *Vec) {
	if x.Len() != m.Cols() {
		panic(fmt.Sprintf("sparse: MatVec dimension mismatch: matrix %dx%d, vec %d", m.Rows(), m.Cols(), x.Len()))
	}
	if dst.Len() != m.Rows() {
		panic(fmt.Sprintf("sparse: MatVec destination length %d != %d rows", dst.Len(), m.Rows()))
	}
	if dst == x {
		panic("sparse: MatVec dst must not alias x")
	}
	dst.Reset()
	// Rows are written straight into the backing array (a freshly reset
	// entry plus s is s), and the support list is built here, in row
	// order, as Add would build it: no second pass over |S|.
	xd, data := x.data, dst.data
	limit := dst.denseLimit()
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k, hi := m.rowPtr[i], m.rowPtr[i+1]; k < hi; k++ {
			s += m.vals[k] * xd[m.colIdx[k]]
		}
		if s == 0 {
			continue
		}
		data[i] = s
		if !dst.dense {
			dst.supp = append(dst.supp, i)
			if len(dst.supp) > limit {
				dst.dense, dst.supp = true, dst.supp[:0]
			}
		}
	}
}

// MatMul returns the product a·b as a new CSR matrix, computed row by row
// with a dense workspace (Gustavson's algorithm). Intended for building
// m-step transition matrices on moderate state spaces and for tests; the
// query engine itself never multiplies two matrices.
func MatMul(a, b *CSR) *CSR {
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("sparse: MatMul dimension mismatch: %dx%d times %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	out := &CSR{rows: a.rows, cols: b.cols, rowPtr: make([]int, a.rows+1)}
	work := make([]float64, b.cols)
	var touched []int
	for i := 0; i < a.rows; i++ {
		touched = touched[:0]
		for ka := a.rowPtr[i]; ka < a.rowPtr[i+1]; ka++ {
			j := a.colIdx[ka]
			av := a.vals[ka]
			for kb := b.rowPtr[j]; kb < b.rowPtr[j+1]; kb++ {
				c := b.colIdx[kb]
				if work[c] == 0 {
					touched = append(touched, c)
				}
				work[c] += av * b.vals[kb]
			}
		}
		// Gather in ascending column order.
		insertionSort(touched)
		for _, c := range touched {
			if work[c] != 0 {
				out.colIdx = append(out.colIdx, c)
				out.vals = append(out.vals, work[c])
			}
			work[c] = 0
		}
		out.rowPtr[i+1] = len(out.vals)
	}
	return out
}

// MatPow returns mᵏ for k ≥ 0 via binary exponentiation. k = 0 yields the
// identity. Used to realize the Chapman-Kolmogorov m-step matrices.
func MatPow(m *CSR, k int) *CSR {
	if m.Rows() != m.Cols() {
		panic("sparse: MatPow requires a square matrix")
	}
	if k < 0 {
		panic("sparse: MatPow negative exponent")
	}
	result := Identity(m.Rows())
	base := m
	for k > 0 {
		if k&1 == 1 {
			result = MatMul(result, base)
		}
		k >>= 1
		if k > 0 {
			base = MatMul(base, base)
		}
	}
	return result
}

// insertionSort sorts small integer slices in place. Rows touched during
// a MatMul gather are short, making insertion sort faster than sort.Ints.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
