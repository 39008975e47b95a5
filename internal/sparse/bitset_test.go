package sparse

import (
	"math/rand"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Any() || b.Count() != 0 {
		t.Fatalf("new bitset not empty")
	}
	for _, i := range []int{0, 63, 64, 65, 129} {
		b.Set(i)
	}
	if got := b.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if !b.Has(64) || b.Has(1) {
		t.Fatalf("membership wrong")
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 4 {
		t.Fatalf("Clear failed")
	}
	var got []int
	b.Range(func(i int) { got = append(got, i) })
	want := []int{0, 63, 65, 129}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
	c := b.Clone()
	if !c.Equal(b) {
		t.Fatalf("Clone not equal")
	}
	c.Set(1)
	if c.Equal(b) {
		t.Fatalf("Equal ignored a differing bit")
	}
	b.Reset()
	if b.Any() {
		t.Fatalf("Reset left bits behind")
	}
}

func TestBitsetSetOps(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	u := a.Clone()
	u.Or(b)
	x := a.Clone()
	x.And(b)
	for i := 0; i < 100; i++ {
		if u.Has(i) != (i%2 == 0 || i%3 == 0) {
			t.Fatalf("Or wrong at %d", i)
		}
		if x.Has(i) != (i%6 == 0) {
			t.Fatalf("And wrong at %d", i)
		}
	}
}

// TestBoolVecMatMatchesVecMat pins the boolean product to the support of
// the float product on random sparse matrices.
func TestBoolVecMatMatchesVecMat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		bld := NewBuilder(n, n)
		for i := 0; i < n; i++ {
			deg := 1 + rng.Intn(4)
			for d := 0; d < deg; d++ {
				bld.Add(i, rng.Intn(n), 0.1+rng.Float64())
			}
		}
		m := bld.Build()

		x := NewVec(n)
		bx := NewBitset(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.3 {
				x.Set(i, rng.Float64()+0.1)
				bx.Set(i)
			}
		}
		want := NewVec(n)
		VecMat(want, x, m)
		got := NewBitset(n)
		BoolVecMat(got, bx, m)
		for i := 0; i < n; i++ {
			if got.Has(i) != (want.At(i) != 0) {
				t.Fatalf("trial %d: BoolVecMat[%d] = %v, float product %g", trial, i, got.Has(i), want.At(i))
			}
		}
	}
}

func TestBoolMatVecAll(t *testing.T) {
	// Row 0 → {1,2}, row 1 → {2}, row 2 → {} (dangling).
	m := FromDense([][]float64{
		{0, 0.5, 0.5},
		{0, 0, 1},
		{0, 0, 0},
	})
	x := NewBitset(3)
	x.Set(2)
	dst := NewBitset(3)
	BoolMatVecAll(dst, x, m)
	// Row 1's only successor is 2 ∈ x; row 0 also needs 1 ∉ x; row 2 is
	// dangling and conservatively excluded.
	if dst.Has(0) || !dst.Has(1) || dst.Has(2) {
		t.Fatalf("BoolMatVecAll = {0:%v 1:%v 2:%v}, want {false true false}",
			dst.Has(0), dst.Has(1), dst.Has(2))
	}
	x.Set(1)
	BoolMatVecAll(dst, x, m)
	if !dst.Has(0) || !dst.Has(1) || dst.Has(2) {
		t.Fatalf("after adding 1: got {0:%v 1:%v 2:%v}, want {true true false}",
			dst.Has(0), dst.Has(1), dst.Has(2))
	}
}
