package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewVecZero(t *testing.T) {
	v := NewVec(10)
	if v.Len() != 10 {
		t.Fatalf("Len = %d, want 10", v.Len())
	}
	if v.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", v.NNZ())
	}
	if v.Sum() != 0 {
		t.Fatalf("Sum = %g, want 0", v.Sum())
	}
	if v.Dense() {
		t.Fatal("fresh vector should be sparse")
	}
}

func TestNewVecNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVec(-1) did not panic")
		}
	}()
	NewVec(-1)
}

func TestVecSetAddAt(t *testing.T) {
	v := NewVec(8)
	v.Set(3, 0.5)
	v.Add(3, 0.25)
	v.Add(7, 1.0)
	if got := v.At(3); got != 0.75 {
		t.Errorf("At(3) = %g, want 0.75", got)
	}
	if got := v.At(7); got != 1.0 {
		t.Errorf("At(7) = %g, want 1", got)
	}
	if got := v.At(0); got != 0 {
		t.Errorf("At(0) = %g, want 0", got)
	}
	if got := v.NNZ(); got != 2 {
		t.Errorf("NNZ = %d, want 2", got)
	}
	if got := v.Sum(); math.Abs(got-1.75) > 1e-15 {
		t.Errorf("Sum = %g, want 1.75", got)
	}
}

func TestVecAddZeroIsNoop(t *testing.T) {
	v := NewVec(4)
	v.Add(1, 0)
	if v.NNZ() != 0 {
		t.Fatalf("Add(i, 0) extended support: NNZ = %d", v.NNZ())
	}
}

func TestVecDensify(t *testing.T) {
	n := 100
	v := NewVec(n)
	for i := 0; i < n/2; i++ {
		v.Set(i, 1)
	}
	if !v.Dense() {
		t.Fatalf("vector with %d/%d non-zeros should have densified", n/2, n)
	}
	// Semantics must be unchanged after the flip.
	if got := v.Sum(); got != float64(n/2) {
		t.Errorf("Sum = %g, want %d", got, n/2)
	}
	if got := v.NNZ(); got != n/2 {
		t.Errorf("NNZ = %d, want %d", got, n/2)
	}
}

// TestVecRefillAfterDensifyAllocatesNothing pins that a vector which
// turned dense keeps its support list's capacity: a recycled scratch
// vector (Reset) refilled with a full-support pdf grows
// nothing, where a support list dropped at every densify regrew by
// append doubling on every refill.
func TestVecRefillAfterDensifyAllocatesNothing(t *testing.T) {
	const n = 10000
	v := NewVec(n)
	refill := func() {
		v.Reset()
		for i := range n {
			v.Add(i, 1)
		}
	}
	refill()
	if !v.Dense() {
		t.Fatal("a full-support fill should have densified")
	}
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Fatalf("Reset and full refill allocated %v times per run, want 0", allocs)
	}
	v.Trim()
	if v.supp != nil {
		t.Fatalf("Trim kept a support list of capacity %d on a dense vector", cap(v.supp))
	}
}

func TestVecResetRestoresSparse(t *testing.T) {
	v := NewVec(16)
	for i := 0; i < 16; i++ {
		v.Set(i, float64(i+1))
	}
	if !v.Dense() {
		t.Fatal("expected dense after full fill")
	}
	v.Reset()
	if v.Dense() {
		t.Error("Reset should restore sparse mode")
	}
	if v.NNZ() != 0 || v.Sum() != 0 {
		t.Errorf("Reset left NNZ=%d Sum=%g", v.NNZ(), v.Sum())
	}
	v.Set(5, 2)
	if v.At(5) != 2 || v.NNZ() != 1 {
		t.Error("vector unusable after Reset")
	}
}

func TestVecCloneIndependence(t *testing.T) {
	v := NewVec(5)
	v.Set(2, 0.5)
	w := v.Clone()
	w.Set(2, 0.9)
	w.Set(4, 0.1)
	if v.At(2) != 0.5 || v.At(4) != 0 {
		t.Error("Clone is not independent of the original")
	}
}

func TestVecCopyFrom(t *testing.T) {
	v := NewVec(6)
	v.Set(0, 9)
	w := NewVec(6)
	w.Set(3, 0.25)
	w.Set(5, 0.75)
	v.CopyFrom(w)
	if !v.Equal(w, 0) {
		t.Errorf("CopyFrom mismatch: %v vs %v", v, w)
	}
	if v.At(0) != 0 {
		t.Error("CopyFrom did not clear previous contents")
	}
}

func TestVecCopyFromDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with mismatched dims did not panic")
		}
	}()
	NewVec(3).CopyFrom(NewVec(4))
}

func TestVecSupportSorted(t *testing.T) {
	v := NewVec(10)
	for _, i := range []int{7, 2, 9, 0} {
		v.Set(i, 1)
	}
	got := v.Support()
	want := []int{0, 2, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestVecDot(t *testing.T) {
	v := NewVec(4)
	v.Set(0, 0.5)
	v.Set(2, 0.5)
	w := NewVec(4)
	w.Set(2, 2)
	w.Set(3, 7)
	if got := v.Dot(w); got != 1.0 {
		t.Errorf("Dot = %g, want 1", got)
	}
	if got := w.Dot(v); got != 1.0 {
		t.Errorf("Dot not symmetric: %g", got)
	}
}

func TestVecDotMixedModes(t *testing.T) {
	n := 40
	dense := NewVec(n)
	for i := 0; i < n; i++ {
		dense.Set(i, 1)
	}
	sparseV := NewVec(n)
	sparseV.Set(11, 0.5)
	if !dense.Dense() || sparseV.Dense() {
		t.Fatal("test setup: expected one dense and one sparse vector")
	}
	if got := dense.Dot(sparseV); got != 0.5 {
		t.Errorf("dense·sparse = %g, want 0.5", got)
	}
	if got := sparseV.Dot(dense); got != 0.5 {
		t.Errorf("sparse·dense = %g, want 0.5", got)
	}
}

func TestVecScaleAndNormalize(t *testing.T) {
	v := NewVec(3)
	v.Set(0, 1)
	v.Set(1, 3)
	v.Scale(0.5)
	if v.At(0) != 0.5 || v.At(1) != 1.5 {
		t.Errorf("Scale result wrong: %v", v)
	}
	mass := v.Normalize()
	if math.Abs(mass-2.0) > 1e-15 {
		t.Errorf("Normalize returned %g, want 2", mass)
	}
	if math.Abs(v.Sum()-1) > 1e-15 {
		t.Errorf("normalized Sum = %g, want 1", v.Sum())
	}
}

func TestVecNormalizeZeroVector(t *testing.T) {
	v := NewVec(3)
	if got := v.Normalize(); got != 0 {
		t.Errorf("Normalize of zero vector returned %g, want 0", got)
	}
}

func TestVecScaleByZeroResets(t *testing.T) {
	v := NewVec(3)
	v.Set(1, 5)
	v.Scale(0)
	if v.NNZ() != 0 || v.Sum() != 0 {
		t.Errorf("Scale(0) left NNZ=%d Sum=%g", v.NNZ(), v.Sum())
	}
}

func TestVecScaleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(-1) did not panic")
		}
	}()
	v := NewVec(2)
	v.Set(0, 1)
	v.Scale(-1)
}

func TestVecHadamard(t *testing.T) {
	v := NewVec(4)
	v.Set(0, 0.5)
	v.Set(1, 0.5)
	w := NewVec(4)
	w.Set(1, 0.2)
	w.Set(2, 0.8)
	v.Hadamard(w)
	if v.At(0) != 0 || math.Abs(v.At(1)-0.1) > 1e-15 || v.At(2) != 0 {
		t.Errorf("Hadamard result wrong: %v", v)
	}
	if v.NNZ() != 1 {
		t.Errorf("Hadamard left stale support, NNZ = %d", v.NNZ())
	}
}

func TestVecAddVec(t *testing.T) {
	v := NewVec(3)
	v.Set(0, 1)
	w := NewVec(3)
	w.Set(0, 1)
	w.Set(2, 2)
	v.AddVec(0.5, w)
	if v.At(0) != 1.5 || v.At(2) != 1 {
		t.Errorf("AddVec result wrong: %v", v)
	}
}

func TestVecMaxAndString(t *testing.T) {
	v := NewVec(4)
	if v.Max() != 0 {
		t.Errorf("Max of zero vector = %g", v.Max())
	}
	v.Set(1, 0.3)
	v.Set(2, 0.7)
	if v.Max() != 0.7 {
		t.Errorf("Max = %g, want 0.7", v.Max())
	}
	if s := v.String(); s != "[1:0.3 2:0.7]" {
		t.Errorf("String = %q", s)
	}
}

// Property: for any sequence of Set/Add operations with non-negative
// values, the hybrid vector agrees with a reference dense slice.
func TestVecMatchesDenseReferenceQuick(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const n = 64
		rng := rand.New(rand.NewSource(seed))
		v := NewVec(n)
		ref := make([]float64, n)
		for _, op := range ops {
			i := int(op) % n
			x := rng.Float64()
			if op%3 == 0 {
				v.Set(i, x)
				ref[i] = x
			} else {
				v.Add(i, x)
				ref[i] += x
			}
		}
		for i := 0; i < n; i++ {
			if math.Abs(v.At(i)-ref[i]) > 1e-12 {
				return false
			}
		}
		refSum := 0.0
		for _, x := range ref {
			refSum += x
		}
		return math.Abs(v.Sum()-refSum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: support tracking never misses or duplicates an index.
func TestVecSupportSoundQuick(t *testing.T) {
	f := func(idx []uint16) bool {
		const n = 97
		v := NewVec(n)
		want := map[int]bool{}
		for _, u := range idx {
			i := int(u) % n
			v.Set(i, 1+float64(i))
			want[i] = true
		}
		got := v.Support()
		if len(got) != len(want) {
			return false
		}
		for _, i := range got {
			if !want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewVecFrom(t *testing.T) {
	v := NewVecFrom([]float64{0, 1.5, 0, 2.5})
	if v.Len() != 4 || v.NNZ() != 2 {
		t.Fatalf("NewVecFrom: Len=%d NNZ=%d", v.Len(), v.NNZ())
	}
	if v.At(1) != 1.5 || v.At(3) != 2.5 {
		t.Error("NewVecFrom values wrong")
	}
	got := v.DenseData()
	if len(got) != 4 || got[1] != 1.5 {
		t.Errorf("DenseData = %v", got)
	}
	// DenseData must be a copy.
	got[1] = 99
	if v.At(1) != 1.5 {
		t.Error("DenseData aliases internal storage")
	}
}

func TestVecCompactRemovesStaleSupport(t *testing.T) {
	v := NewVec(10)
	v.Set(1, 1)
	v.Set(2, 1)
	v.Set(1, 0) // stale support entry
	v.Compact()
	sup := v.Support()
	if len(sup) != 1 || sup[0] != 2 {
		t.Errorf("Support after Compact = %v", sup)
	}
	// Compact on a dense vector is a no-op.
	d := NewVec(4)
	for i := 0; i < 4; i++ {
		d.Set(i, 1)
	}
	d.Compact()
	if d.NNZ() != 4 {
		t.Error("Compact broke dense vector")
	}
}

func TestVecHadamardDenseReceiver(t *testing.T) {
	n := 12
	v := NewVec(n)
	for i := 0; i < n; i++ {
		v.Set(i, 2)
	}
	if !v.Dense() {
		t.Fatal("setup: expected dense")
	}
	w := NewVec(n)
	w.Set(3, 0.5)
	v.Hadamard(w)
	if v.At(3) != 1 || v.Sum() != 1 {
		t.Errorf("dense Hadamard wrong: %v", v)
	}
}

func TestVecHadamardDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hadamard dim mismatch did not panic")
		}
	}()
	NewVec(2).Hadamard(NewVec(3))
}

func TestVecEqualDimensionMismatch(t *testing.T) {
	if NewVec(2).Equal(NewVec(3), 1) {
		t.Error("different dimensions reported Equal")
	}
}

func TestVecDotDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot dim mismatch did not panic")
		}
	}()
	NewVec(2).Dot(NewVec(3))
}

func TestVecAddVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddVec dim mismatch did not panic")
		}
	}()
	NewVec(2).AddVec(1, NewVec(3))
}
