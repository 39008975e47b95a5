package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// entries lists a vector's Range visits in order, values as bits.
func entries(each func(func(int, float64))) [][2]uint64 {
	var out [][2]uint64
	each(func(i int, x float64) { out = append(out, [2]uint64{uint64(i), math.Float64bits(x)}) })
	return out
}

func sameBits(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v, want %v (bits differ)", label, got, want)
	}
}

// randomVec fills a vector of dimension n at a random density, so both
// modes and the flip between them occur, sometimes with a stale zero in
// its support list.
func randomVec(rng *rand.Rand, n int) *Vec {
	v := NewVec(n)
	for k, fill := 0, rng.Intn(n+1); k < fill; k++ {
		v.Set(rng.Intn(n), float64(1+rng.Intn(1000))/997)
	}
	if !v.Dense() && v.NNZ() > 0 && rng.Intn(3) == 0 {
		v.Set(v.supp[rng.Intn(len(v.supp))], 0)
	}
	return v
}

// randomColumn draws a score column: non-negative, about half zeros.
func randomColumn(rng *rand.Rand, n int) []float64 {
	col := make([]float64, n)
	for i := range col {
		if rng.Intn(2) == 0 {
			col[i] = rng.Float64()
		}
	}
	return col
}

// TestPackedMatchesVec holds every Packed operation to the bits the Vec
// it was packed from produces: iteration order, sums, masses on a mask
// and the state CopyTo leaves a working vector in. Dot against a score
// column sums in the pdf's iteration order, whatever the mode — sparse
// in insertion order, sparse ascending, dense, full — and for a
// dense-mode pdf that is also the ascending sum over the column's
// non-zeros, the order in which a sparse score vector drove the dot.
func TestPackedMatchesVec(t *testing.T) {
	modes := map[string]bool{}
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		v := randomVec(rng, n)
		p := v.Pack()

		if p.Len() != n || p.NNZ() != v.NNZ() || p.dense != v.Dense() {
			t.Fatalf("seed %d: len/nnz/dense %d/%d/%v, want %d/%d/%v",
				seed, p.Len(), p.NNZ(), p.dense, n, v.NNZ(), v.Dense())
		}
		if want := v.Dense() && 2*v.NNZ() > n; p.full != want {
			t.Fatalf("seed %d: full = %v, want %v", seed, p.full, want)
		}
		if got, want := entries(p.Range), entries(v.Range); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Range visits %v, want %v", seed, got, want)
		}
		sameBits(t, "Sum", p.Sum(), v.Sum())
		for i := 0; i < n; i++ {
			sameBits(t, "At", p.At(i), v.At(i))
		}
		if got, want := p.Support(), v.Support(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Support %v, want %v", seed, got, want)
		}
		switch {
		case p.full:
			modes["full"] = true
		case p.dense:
			modes["dense"] = true
		case slices.IsSorted(p.idx):
			modes["sparse ascending"] = true
		default:
			modes["sparse insertion order"] = true
		}
		for trial := 0; trial < 4; trial++ {
			col := randomColumn(rng, n)
			inOrder := 0.0
			v.Range(func(i int, x float64) { inOrder += x * col[i] })
			sameBits(t, "Dot", p.Dot(col), inOrder)
			if p.dense {
				byColumn := 0.0
				for i, c := range col {
					if c != 0 {
						byColumn += c * v.At(i)
					}
				}
				sameBits(t, "Dot by column", p.Dot(col), byColumn)
			}
			mask := NewBitset(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					mask.Set(i)
				}
			}
			onMask := 0.0
			v.Range(func(i int, x float64) {
				if mask.Has(i) {
					onMask += x
				}
			})
			sameBits(t, "MassOn", p.MassOn(mask), onMask)
		}

		got, want := randomVec(rng, n), NewVec(n)
		want.CopyFrom(got) // the same dirty destination on both sides
		p.CopyTo(got)
		want.CopyFrom(v)
		sameRepr(t, "CopyTo", got, want)
		sameRepr(t, "Vec", p.Vec(), want)

		c := float64(1+rng.Intn(9)) / 7
		scaled := v.Clone()
		scaled.Scale(c)
		if got, want := entries(p.Scaled(c).Range), entries(scaled.Range); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Scaled visits %v, want %v", seed, got, want)
		}

		var ascending [][2]uint64
		for _, i := range v.Support() {
			ascending = append(ascending, [2]uint64{uint64(i), math.Float64bits(v.At(i))})
		}
		if got := entries(p.RangeSorted); !slices.Equal(got, ascending) {
			t.Fatalf("seed %d: RangeSorted visits %v, want %v", seed, got, ascending)
		}
	}
	if len(modes) != 4 {
		t.Fatalf("the draws cover only the modes %v", modes)
	}
}

// TestAdoptSupportKeepsOrder pins the view constructor: the entries are
// visited in the order given, ascending or not, and a Vec built from
// them the same way (sparse mode, that support list) agrees bit for bit.
func TestAdoptSupportKeepsOrder(t *testing.T) {
	idx := []int32{7, 2, 9}
	val := []float64{0.1, 0.3, 0.6}
	p := AdoptSupport(10, idx, val)
	ref := &Vec{data: make([]float64, 10), supp: []int{7, 2, 9}}
	for k, i := range idx {
		ref.data[i] = val[k]
	}
	if got, want := entries(p.Range), entries(ref.Range); !slices.Equal(got, want) {
		t.Fatalf("Range visits %v, want %v", got, want)
	}
	w := NewVecFrom([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	sameBits(t, "Dot", p.Dot(w.RawData()), ref.Dot(w))
	if p.At(2) != 0.3 || p.At(3) != 0 {
		t.Fatalf("At(2), At(3) = %v, %v", p.At(2), p.At(3))
	}
	if got := p.Support(); !slices.Equal(got, []int{2, 7, 9}) {
		t.Fatalf("Support = %v", got)
	}
}
