package sparse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates coordinate-format (COO) entries and assembles them
// into a CSR matrix. Duplicate coordinates are summed, which makes the
// builder convenient for graph-derived matrices where parallel edges can
// occur.
type Builder struct {
	rows, cols int
	entries    []cooEntry
}

type cooEntry struct {
	i, j int
	x    float64
}

// NewBuilder returns a builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic("sparse: negative matrix dimension")
	}
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates x at coordinate (i, j). Zero values are dropped.
func (b *Builder) Add(i, j int, x float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of bounds for %dx%d builder", i, j, b.rows, b.cols))
	}
	if x == 0 {
		return
	}
	b.entries = append(b.entries, cooEntry{i, j, x})
}

// NNZ returns the number of accumulated (possibly duplicate) entries.
func (b *Builder) NNZ() int { return len(b.entries) }

// Build assembles the CSR matrix. The builder can be reused afterwards;
// its accumulated entries are retained.
func (b *Builder) Build() *CSR {
	sort.Slice(b.entries, func(p, q int) bool {
		if b.entries[p].i != b.entries[q].i {
			return b.entries[p].i < b.entries[q].i
		}
		return b.entries[p].j < b.entries[q].j
	})
	m := &CSR{rows: b.rows, cols: b.cols, rowPtr: make([]int, b.rows+1)}
	lastRow := -1
	for _, e := range b.entries {
		if n := len(m.vals); n > 0 && lastRow == e.i && m.colIdx[n-1] == e.j {
			// Duplicate coordinate (adjacent after sort): fold together.
			m.vals[n-1] += e.x
			continue
		}
		m.colIdx = append(m.colIdx, e.j)
		m.vals = append(m.vals, e.x)
		m.rowPtr[e.i+1]++
		lastRow = e.i
	}
	// Convert per-row counts into prefix sums.
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// FromRows builds a CSR directly from per-row (column, value) pairs. Each
// row's columns must be unique; they need not be sorted. This is the fast
// path used by the dataset generators, avoiding the COO sort.
func FromRows(rows, cols int, row func(i int) (idx []int, vals []float64)) *CSR {
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	type pair struct {
		j int
		x float64
	}
	byCol := func(a, b pair) int { return cmp.Compare(a.j, b.j) }
	var scratch []pair
	for i := 0; i < rows; i++ {
		idx, vals := row(i)
		if len(idx) != len(vals) {
			panic(fmt.Sprintf("sparse: FromRows row %d has %d indices but %d values", i, len(idx), len(vals)))
		}
		scratch = scratch[:0]
		for k, j := range idx {
			if j < 0 || j >= cols {
				panic(fmt.Sprintf("sparse: FromRows row %d column %d out of bounds", i, j))
			}
			if vals[k] == 0 {
				continue
			}
			scratch = append(scratch, pair{j, vals[k]})
		}
		// Rows usually arrive sorted (every decoded chain does); checking
		// first, and sorting without reflection, keeps a row allocation-free.
		if !slices.IsSortedFunc(scratch, byCol) {
			slices.SortFunc(scratch, byCol)
		}
		for k := 1; k < len(scratch); k++ {
			if scratch[k].j == scratch[k-1].j {
				panic(fmt.Sprintf("sparse: FromRows row %d has duplicate column %d", i, scratch[k].j))
			}
		}
		for _, p := range scratch {
			m.colIdx = append(m.colIdx, p.j)
			m.vals = append(m.vals, p.x)
		}
		m.rowPtr[i+1] = len(m.vals)
	}
	return m
}

// FromDense builds a CSR from a dense row-major matrix; zeros are dropped.
// Intended for tests and the paper's worked examples.
func FromDense(d [][]float64) *CSR {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	for i, r := range d {
		if len(r) != cols {
			panic(fmt.Sprintf("sparse: FromDense ragged row %d (%d != %d)", i, len(r), cols))
		}
	}
	return FromRows(rows, cols, func(i int) ([]int, []float64) {
		var idx []int
		var vals []float64
		for j, x := range d[i] {
			if x != 0 {
				idx = append(idx, j)
				vals = append(vals, x)
			}
		}
		return idx, vals
	})
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	return FromRows(n, n, func(i int) ([]int, []float64) {
		return []int{i}, []float64{1}
	})
}
