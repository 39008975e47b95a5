package core

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"ust/internal/sparse"
)

// sameSweepValue compares two payloads representation for
// representation: dense flag, support order and raw float bits per
// vector, words and universe of the bitset, bits of the scalars — the
// things a peer must reproduce for its dot products to stay
// bit-identical.
func sameSweepValue(a, b scoreValue) bool {
	bitsEqual := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	if len(a.vecs) != len(b.vecs) || (a.bits == nil) != (b.bits == nil) || !bitsEqual(a.scalars, b.scalars) {
		return false
	}
	for i := range a.vecs {
		ad, as, adense := a.vecs[i].Repr()
		bd, bs, bdense := b.vecs[i].Repr()
		if adense != bdense || !slices.Equal(as, bs) || !bitsEqual(ad, bd) {
			return false
		}
	}
	return a.bits == nil || (a.bits.Len() == b.bits.Len() && slices.Equal(a.bits.Words64(), b.bits.Words64()))
}

// FuzzDecodeSweepValue drives the sweep-tier payload decoder — the one
// parser in core that reads bytes a peer supplied. Arbitrary bytes must
// decode to an error or a value, never a panic; an accepted value must
// survive encode∘decode unchanged, representation included; and decoding
// must not allocate beyond what the bytes present admit (a header that
// declares 2³² elements over a 20-byte payload buys nothing).
func FuzzDecodeSweepValue(f *testing.F) {
	const n = 8
	mask := sparse.NewBitset(n)
	mask.Set(1)
	mask.Set(6)
	sparseData := make([]float64, n)
	sparseData[5], sparseData[2] = 0.25, math.Copysign(0, -1)
	for _, v := range []scoreValue{
		{vecs: []*sparse.Vec{sparse.AdoptDense([]float64{0, 0.5, 1, 0.125, 0, 0, 1e-300, 1})}},
		{vecs: []*sparse.Vec{sparse.AdoptSparse(sparseData, []int{5, 2}), sparse.NewVec(n)}},
		{bits: mask},
		{scalars: []float64{0.864, math.Inf(1)}},
		{},
	} {
		enc := encodeSweepValue(v)
		got, err := decodeSweepValue(enc, n)
		if err != nil || !sameSweepValue(got, v) {
			f.Fatalf("seed does not round-trip: %v", err)
		}
		f.Add(enc, uint8(n))
	}
	f.Fuzz(func(t *testing.T, b []byte, states uint8) {
		numStates := int(states)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := decodeSweepValue(b, numStates)
		runtime.ReadMemStats(&after)
		// Every element the decoder sizes an allocation from costs at
		// least one payload byte, and a vector (≥ 5 bytes of header) at
		// most one numStates-wide backing array: a generous linear bound
		// in the bytes present, where a count trusted from the header
		// would be off by orders of magnitude.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+len(b)*(128+8*numStates)); grew > limit {
			t.Fatalf("decoding %d bytes over %d states allocated %d bytes, limit %d", len(b), numStates, grew, limit)
		}
		if err != nil {
			return
		}
		enc := encodeSweepValue(v)
		again, err := decodeSweepValue(enc, numStates)
		if err != nil {
			t.Fatalf("re-decoding an accepted payload: %v", err)
		}
		if !sameSweepValue(again, v) {
			t.Fatalf("encode∘decode changed an accepted payload")
		}
		if !bytes.Equal(encodeSweepValue(again), enc) {
			t.Fatalf("encoding is not canonical on decoded values")
		}
	})
}
