package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"ust/internal/sparse"
)

// sameSweepValue compares two payloads bit for bit: the raw float bits
// of every column, words and universe of the bitset, bits of the
// scalars — what a peer must reproduce for its dot products to stay
// bit-identical.
func sameSweepValue(a, b scoreValue) bool {
	bitsEqual := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	if !slices.EqualFunc(a.cols, b.cols, bitsEqual) || (a.bits == nil) != (b.bits == nil) || !bitsEqual(a.scalars, b.scalars) {
		return false
	}
	return a.bits == nil || (a.bits.Len() == b.bits.Len() && slices.Equal(a.bits.Words64(), b.bits.Words64()))
}

// sparseColumnPayload hand-encodes a one-column payload in the sparse
// form, pairs in the order given — what encodeSweepValue never writes
// when the order is not ascending.
func sparseColumnPayload(n int, idx []uint32, val []float64) []byte {
	out := []byte{sweepMagic, sweepVersion}
	out = binary.LittleEndian.AppendUint32(out, 1)
	out = append(out, colSparse)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(idx)))
	for k, i := range idx {
		out = binary.LittleEndian.AppendUint32(out, i)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(val[k]))
	}
	out = append(out, 0)                            // no bitset
	return binary.LittleEndian.AppendUint32(out, 0) // no scalars
}

// FuzzDecodeSweepValue drives the sweep-tier payload decoder — the one
// parser in core that reads bytes a peer supplied. Arbitrary bytes must
// decode to an error or a value, never a panic; every accepted column
// holds finite non-negative scores; an accepted value must survive
// encode∘decode bit for bit; and decoding must not allocate beyond what
// the bytes present admit (a header that declares 2³² elements over a
// 20-byte payload buys nothing). The seeds cover both column forms, and
// the rejected ones a descending support and each score a column must
// not hold.
func FuzzDecodeSweepValue(f *testing.F) {
	const n = 8
	mask := sparse.NewBitset(n)
	mask.Set(1)
	mask.Set(6)
	sparseCol := make([]float64, n)
	sparseCol[2], sparseCol[5] = 0.5, 0.25
	for _, v := range []scoreValue{
		{cols: [][]float64{{0, 0.5, 1, 0.125, 0.75, 0, 1e-300, 1}}}, // all n values
		{cols: [][]float64{sparseCol, make([]float64, n)}},          // the non-zeros
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
	rejected := [][]byte{sparseColumnPayload(n, []uint32{5, 2}, []float64{0.25, 0.5})}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, math.Copysign(0, -1)} {
		dense := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, bad}
		rejected = append(rejected,
			encodeSweepValue(scoreValue{cols: [][]float64{dense}}),
			sparseColumnPayload(n, []uint32{3}, []float64{bad}))
	}
	for _, enc := range rejected {
		if _, err := decodeSweepValue(enc, n); err == nil {
			f.Fatalf("payload %x decodes", enc)
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
		// least one payload byte, and a column (≥ 5 bytes of header) at
		// most one numStates-wide array: a generous linear bound in the
		// bytes present, where a count trusted from the header would be
		// off by orders of magnitude.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+len(b)*(128+8*numStates)); grew > limit {
			t.Fatalf("decoding %d bytes over %d states allocated %d bytes, limit %d", len(b), numStates, grew, limit)
		}
		if err != nil {
			return
		}
		for c, col := range v.cols {
			for s, x := range col {
				if math.Signbit(x) || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted column %d holds %v at state %d", c, x, s)
				}
			}
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
