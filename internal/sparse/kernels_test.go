package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The raw-slice kernels (VecMat, MatVec, CopyFrom) are pinned
// to naive references written with the public entry-by-entry API — the
// form the kernels had before they were unrolled. "Same" means the same
// representation: value bits, support order and dense flag, because every
// dot product downstream iterates in that order.

func refVecMat(dst, x *Vec, m *CSR) {
	dst.Reset()
	x.Range(func(i int, xi float64) {
		m.Row(i, func(j int, v float64) { dst.Add(j, xi*v) })
	})
}

func refMatVec(dst *Vec, m *CSR, x *Vec) {
	dst.Reset()
	for i := 0; i < m.Rows(); i++ {
		s := 0.0
		m.Row(i, func(j int, v float64) { s += v * x.At(j) })
		if s != 0 {
			dst.Add(i, s)
		}
	}
}

func refCopyFrom(dst, w *Vec) {
	dst.Reset()
	copy(dst.data, w.data)
	dst.dense = w.dense
	if !w.dense {
		dst.supp = append(dst.supp[:0], w.supp...)
	}
}

// sameRepr compares two vectors' internal representations. A dense
// vector's support list carries no information (a kernel destination
// keeps its storage, empty), so only its length is held to zero.
func sameRepr(t *testing.T, label string, got, want *Vec) {
	t.Helper()
	gd, gs, gdense := got.data, got.supp, got.dense
	wd, ws, wdense := want.data, want.supp, want.dense
	if gdense != wdense {
		t.Fatalf("%s: dense = %v, want %v", label, gdense, wdense)
	}
	if !slices.EqualFunc(gd, wd, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: values differ:\n got %v\nwant %v", label, gd, wd)
	}
	if !slices.Equal(gs, ws) {
		t.Fatalf("%s: support order %v, want %v", label, gs, ws)
	}
}

// kernelCase derives a matrix and an input vector from a seed: small
// dimensions so the 25 % threshold flips both the input and the outputs,
// explicit zeros in the vector's support list (a stale entry), and a
// dirty destination whose previous contents must not leak.
func kernelCase(rng *rand.Rand) (m *CSR, x, dirty *Vec) {
	rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
	m = randomCSR(rng, rows, cols, 0.05+0.4*rng.Float64())
	x = NewVec(rows)
	for k, fill := 0, rng.Intn(rows+1); k < fill; k++ {
		x.Set(rng.Intn(rows), float64(1+rng.Intn(8))/8)
	}
	if !x.Dense() && x.NNZ() > 0 && rng.Intn(2) == 0 {
		x.Set(x.supp[rng.Intn(len(x.supp))], 0) // stale support entry
	}
	dirty = NewVec(cols)
	for k, fill := 0, rng.Intn(cols+1); k < fill; k++ {
		dirty.Set(rng.Intn(cols), rng.Float64())
	}
	return m, x, dirty
}

func checkKernels(t *testing.T, m *CSR, x, dirty *Vec) {
	t.Helper()
	got, want := dirty.Clone(), dirty.Clone()
	VecMat(got, x, m)
	refVecMat(want, x, m)
	sameRepr(t, "VecMat", got, want)

	// A second product into the same destination: the kept support
	// storage of a flipped vector must be invisible.
	VecMat(got, x, m)
	sameRepr(t, "VecMat again", got, want)

	// MatVec multiplies from the other side: x as a column needs Cols.
	mt := m.Transpose()
	got, want = dirty.Clone(), dirty.Clone()
	MatVec(got, mt, x)
	refMatVec(want, mt, x)
	sameRepr(t, "MatVec", got, want)

	cgot, cwant := NewVec(x.Len()), NewVec(x.Len())
	for i := 0; i < x.Len(); i += 2 {
		cgot.Set(i, 0.5)
		cwant.Set(i, 0.5)
	}
	cgot.CopyFrom(x)
	refCopyFrom(cwant, x)
	sameRepr(t, "CopyFrom", cgot, cwant)
}

func TestKernelsMatchNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		m, x, dirty := kernelCase(rand.New(rand.NewSource(seed)))
		checkKernels(t, m, x, dirty)
	}
}

// FuzzVecMat drives the same comparison from arbitrary bytes: the
// matrix, the vector (sparse or dense by how much of it is filled) and
// the destination's previous contents all come from the input.
func FuzzVecMat(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 9, 1, 2, 7, 2, 0, 5, 0xff, 0, 4, 2, 8})
	f.Add([]byte{12, 2, 0xff, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{1, 1, 0, 0, 1, 0xff, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := 1+int(data[0])%24, 1+int(data[1])%24
		data = data[2:]
		b := NewBuilder(rows, cols)
		for len(data) >= 3 && data[0] != 0xff {
			b.Add(int(data[0])%rows, int(data[1])%cols, float64(data[2])/16)
			data = data[3:]
		}
		if len(data) > 0 {
			data = data[1:] // the 0xff separator
		}
		x, dirty := NewVec(rows), NewVec(cols)
		for len(data) >= 2 {
			x.Set(int(data[0])%rows, float64(data[1])/32) // a zero value leaves a stale entry behind
			dirty.Set(int(data[0])%cols, float64(data[1]))
			data = data[2:]
		}
		checkKernels(t, b.Build(), x, dirty)
	})
}

func TestTrimKeepsValue(t *testing.T) {
	m := randomStochastic(rand.New(rand.NewSource(1)), 16, 6)
	x, dst := NewVec(16), NewVec(16)
	for i := 0; i < 16; i++ {
		x.Set(i, 1)
	}
	VecMat(dst, x, m)
	if !dst.Dense() {
		t.Fatal("a full input should have flipped the product dense")
	}
	want := dst.Clone()
	dst.Trim()
	if dst.supp != nil {
		t.Fatalf("Trim left a support list of capacity %d on a dense vector", cap(dst.supp))
	}
	sameRepr(t, "Trim", dst, want)
}

// TestPoolsConcurrentFirstUse hammers the vector pool from many
// goroutines over a handful of dimensions, first uses included: every Get
// must return a zeroed vector of the asked dimension whoever created the
// dimension's pool. Run under -race (make race does).
func TestPoolsConcurrentFirstUse(t *testing.T) {
	var vp VecPool
	dims := []int{3, 17, 64, 300, 1024}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 400; it++ {
				n := dims[rng.Intn(len(dims))]
				v := vp.Get(n)
				if v.Len() != n || v.NNZ() != 0 || v.Dense() || v.Sum() != 0 {
					t.Errorf("VecPool.Get(%d): len %d, nnz %d, dense %v", n, v.Len(), v.NNZ(), v.Dense())
					return
				}
				for k := 0; k < n; k += 1 + rng.Intn(3) {
					v.Set(k, 1)
				}
				vp.Put(v)
			}
		}(g)
	}
	wg.Wait()
}
