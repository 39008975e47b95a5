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

// ascendingTwin is the Vec a pdf with v's entries is read as: the same
// non-zero values, set in ascending index order (dense past
// DenseThreshold, its ascending support list otherwise).
func ascendingTwin(v *Vec) *Vec {
	w := NewVec(v.Len())
	for i, x := range v.data {
		if x != 0 {
			w.Set(i, x)
		}
	}
	return w
}

// TestPackedMatchesVec holds every Packed operation to the bits of a Vec
// filled with the same entries in ascending order, whatever order the
// entries were listed in: iteration order, sums, masses on a mask, the
// state CopyTo leaves a working vector in, and the one form every
// builder gives (full past half non-zero, the ascending support
// otherwise). Dot against a score column sums in ascending order over
// p's non-zeros, which is also the ascending sum over the column's
// non-zero products.
func TestPackedMatchesVec(t *testing.T) {
	forms := map[string]bool{}
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		v := randomVec(rng, n)
		asc := ascendingTwin(v)
		p := PackDense(v.DenseData())

		// The same entries listed in v's insertion order, one of them
		// split in two and a zero weight added, merge to the same pdf.
		var idx []int
		var val []float64
		v.Range(func(i int, x float64) { idx, val = append(idx, i), append(val, x) })
		if len(idx) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(idx))
			half := val[k] / 2
			if half+half == val[k] {
				val[k] = half
				idx, val = append(idx, idx[k]), append(val, half)
			}
		}
		idx, val = append(idx, rng.Intn(n)), append(val, 0)
		mi, mv := Merge(idx, val)
		if q := Pack(n, mi, mv); !slices.Equal(entries(q.Range), entries(p.Range)) || q.full() != p.full() {
			t.Fatalf("seed %d: Pack(Merge) visits %v (full %v), PackDense %v (full %v)",
				seed, entries(q.Range), q.full(), entries(p.Range), p.full())
		}

		if p.Len() != n || p.NNZ() != asc.NNZ() {
			t.Fatalf("seed %d: len/nnz %d/%d, want %d/%d", seed, p.Len(), p.NNZ(), n, asc.NNZ())
		}
		if want := 2*asc.NNZ() > n; p.full() != want {
			t.Fatalf("seed %d: full = %v, want %v", seed, p.full(), want)
		}
		if got, want := entries(p.Range), entries(asc.Range); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Range visits %v, want %v", seed, got, want)
		}
		sameBits(t, "Sum", p.Sum(), asc.Sum())
		for i := 0; i < n; i++ {
			sameBits(t, "At", p.At(i), asc.At(i))
		}
		if got, want := p.Support(), v.Support(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Support %v, want %v", seed, got, want)
		}
		switch {
		case p.full():
			forms["full"] = true
		case asc.Dense():
			forms["support, copied dense"] = true
		default:
			forms["support, copied sparse"] = true
		}
		for trial := 0; trial < 4; trial++ {
			col := randomColumn(rng, n)
			inOrder := 0.0
			asc.Range(func(i int, x float64) { inOrder += x * col[i] })
			sameBits(t, "Dot", p.Dot(col), inOrder)
			byColumn := 0.0
			for i, c := range col {
				if c != 0 {
					byColumn += c * v.At(i)
				}
			}
			sameBits(t, "Dot by column", p.Dot(col), byColumn)
			mask := NewBitset(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					mask.Set(i)
				}
			}
			onMask := 0.0
			asc.Range(func(i int, x float64) {
				if mask.Has(i) {
					onMask += x
				}
			})
			sameBits(t, "MassOn", p.MassOn(mask), onMask)
		}

		got := randomVec(rng, n) // a dirty destination
		p.CopyTo(got)
		sameRepr(t, "CopyTo", got, asc)
		sameRepr(t, "Vec", p.Vec(), asc)

		c := float64(1+rng.Intn(9)) / 7
		scaled := asc.Clone()
		scaled.Scale(c)
		if got, want := entries(p.Scaled(c).Range), entries(scaled.Range); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Scaled visits %v, want %v", seed, got, want)
		}
	}
	if len(forms) != 3 {
		t.Fatalf("the draws cover only the forms %v", forms)
	}
}

// TestAdoptSupportKeepsOrder pins the view constructor: strictly
// ascending columns are adopted as they are, no copy and no dense
// column even past half non-zero, and visited in that order; columns in
// any other order, or outside [0, n), are refused.
func TestAdoptSupportKeepsOrder(t *testing.T) {
	idx := []int32{2, 7, 8, 9}
	val := []float64{0.3, 0.1, 0, 0.6}
	p := AdoptSupport(10, idx, val)
	if &p.idx[0] != &idx[0] || &p.val[0] != &val[0] || p.full() {
		t.Fatal("AdoptSupport copied its columns")
	}
	want := [][2]uint64{{2, math.Float64bits(0.3)}, {7, math.Float64bits(0.1)}, {9, math.Float64bits(0.6)}}
	if got := entries(p.Range); !slices.Equal(got, want) {
		t.Fatalf("Range visits %v, want %v", got, want)
	}
	if p.At(2) != 0.3 || p.At(3) != 0 || p.NNZ() != 4 {
		t.Fatalf("At(2), At(3), NNZ = %v, %v, %d", p.At(2), p.At(3), p.NNZ())
	}
	if got := AdoptSupport(4, []int32{0, 1, 2}, []float64{1, 1, 1}); got.full() || got.Bytes() != 36 {
		t.Fatalf("a view past half non-zero: full %v, %d bytes", got.full(), got.Bytes())
	}
	for name, bad := range map[string][]int32{"descending": {7, 2}, "repeated": {2, 2}, "outside": {2, 10}, "negative": {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s support %v adopted", name, bad)
				}
			}()
			AdoptSupport(10, bad, []float64{0.5, 0.5})
		}()
	}
}
