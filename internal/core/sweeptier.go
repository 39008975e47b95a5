package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"ust/internal/sparse"
)

// The networked sweep tier. Within one process the score cache already
// guarantees each distinct backward sweep is computed at most once —
// the board's per-key lease serializes concurrent missers and the LRU
// serves everyone after. Across processes that guarantee evaporates:
// N workers answering slices of the same query each run the same sweep.
// SweepTier is the same lease granted fleet-wide: a coordinator-granted
// LEASE on (chain fingerprint, kind, signature, t0) so exactly one
// worker computes, plus a payload channel so the rest adopt the bytes
// instead of recomputing (the coordinator's side is a second Board —
// service.SweepBoard). The tier is strictly an
// optimization layer — every error path degrades to local compute, so a
// dead coordinator slows the fleet down but never wedges or corrupts it.
//
// Only kinds that are pure functions of (chain, window, t0) travel:
// the per-object kinds (kindMultiObs, kindFeasible, kindPosterior) key
// on process-unique object serials that mean nothing to a peer.

// SweepKey names one sweep in process-independent terms. It is the wire
// twin of scoreKey: the chain pointer becomes the chain's content
// fingerprint (markov.Chain.Fingerprint), everything else carries over.
type SweepKey struct {
	Chain uint64 `json:"chain"`
	Kind  uint8  `json:"kind"`
	Sig   uint64 `json:"sig"`
	T0    int64  `json:"t0"`
}

// String renders the key in the form the lease endpoints use as a map
// key and in log lines.
func (k SweepKey) String() string {
	return fmt.Sprintf("%016x.%d.%016x.%d", k.Chain, k.Kind, k.Sig, k.T0)
}

// SweepTier coordinates sweep computation across engines that do not
// share an address space. Implementations must be safe for concurrent
// use.
type SweepTier interface {
	// Acquire asks the tier for key. Exactly one of payload and lease is
	// meaningful on success: a non-nil payload means a peer already
	// computed the sweep (adopt it); a non-empty lease token means this
	// caller holds the fleet-wide computation right and must either Fill
	// or Release it. Acquire may block (long-poll) while another process
	// holds the lease; it returns early with the caller's ctx error.
	Acquire(ctx context.Context, key SweepKey) (payload []byte, lease string, err error)
	// Fill publishes the computed payload under a held lease.
	Fill(ctx context.Context, key SweepKey, lease string, payload []byte) error
	// Release abandons a held lease without filling it (the local
	// compute failed), so a waiting peer can take over immediately
	// instead of waiting out the lease TTL.
	Release(ctx context.Context, key SweepKey, lease string)
}

// wireable reports whether entries of this kind may travel over the
// sweep tier: true exactly for the kinds whose key fully determines the
// payload in any process. The serial-keyed per-object kinds stay local.
func (k scoreKind) wireable() bool {
	switch k {
	case kindExists, kindKTimes, kindHitting, kindCertain, kindExpr:
		return true
	}
	return false
}

// --- payload codec --------------------------------------------------------
//
// The payload carries a scoreValue's columns as their float64 bits: every
// dot product downstream is driven by the object's pdf, so a column's
// values alone fix the bits of every answer, and a payload decoded on a
// peer answers bit-identically to the original — which is what lets
// remote-shard results stay pinned byte-identical to a single engine.
// Each column travels in the smaller of two forms: its non-zeros as
// (u32 index, f64 bits) pairs in ascending index order, or all n values.

const (
	sweepMagic   byte = 0x75 // 'u'
	sweepVersion byte = 2
)

// Column forms on the wire.
const (
	colSparse byte = 0 // u32 nnz, then nnz (u32 index, f64 bits) pairs
	colDense  byte = 1 // all n values
)

// nonZeros counts a column's non-zero values.
func nonZeros(col []float64) int {
	nnz := 0
	for _, x := range col {
		if x != 0 {
			nnz++
		}
	}
	return nnz
}

func encodeSweepValue(v scoreValue) []byte {
	size := 2 + 4 + 1 + 4 + 8*len(v.scalars)
	for _, col := range v.cols {
		size += 1 + 4 + min(4+12*nonZeros(col), 8*len(col))
	}
	if v.bits != nil {
		size += 8 + 8*len(v.bits.Words64())
	}

	out := make([]byte, 0, size)
	out = append(out, sweepMagic, sweepVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(v.cols)))
	for _, col := range v.cols {
		if nnz := nonZeros(col); 4+12*nnz < 8*len(col) {
			out = append(out, colSparse)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(col)))
			out = binary.LittleEndian.AppendUint32(out, uint32(nnz))
			for i, x := range col {
				if x != 0 {
					out = binary.LittleEndian.AppendUint32(out, uint32(i))
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
				}
			}
			continue
		}
		out = append(out, colDense)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(col)))
		for _, x := range col {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	if v.bits != nil {
		out = append(out, 1)
		out = binary.LittleEndian.AppendUint32(out, uint32(v.bits.Len()))
		words := v.bits.Words64()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(words)))
		for _, w := range words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
	} else {
		out = append(out, 0)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(v.scalars)))
	for _, x := range v.scalars {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// sweepDecoder is a bounds-checked little-endian reader. The payload
// comes from a peer over the network; every read validates remaining
// length so a truncated or hostile payload decodes to an error, never a
// panic. The first failure sticks: every later read returns zero.
type sweepDecoder struct {
	b   []byte
	off int
	err error
}

func (d *sweepDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: sweep payload "+format, args...)
	}
}

// take returns the next k bytes, or nil past the end or a failure.
func (d *sweepDecoder) take(k int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+k > len(d.b) {
		d.fail("truncated at byte %d", d.off)
		return nil
	}
	d.off += k
	return d.b[d.off-k : d.off]
}

func (d *sweepDecoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *sweepDecoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *sweepDecoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// fits validates a declared element count against the bytes that
// remain, so a hostile header cannot drive a huge allocation: 0 once
// anything failed.
func (d *sweepDecoder) fits(n uint32, elemBytes int) int {
	if d.err == nil && int64(n)*int64(elemBytes) > int64(len(d.b)-d.off) {
		d.fail("declares %d elements past its end", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// dim reads a declared dimension, which must be the chain's.
func (d *sweepDecoder) dim(what string, numStates int) {
	if n := d.u32(); d.err == nil && int64(n) != int64(numStates) {
		d.fail("%s over %d states, chain has %d", what, n, numStates)
	}
}

// score reads one column value: a finite score with a clear sign bit (a
// sweep never writes −0). A column is a probability per state, and a NaN
// from a corrupt peer would reach every answer dotted with it.
func (d *sweepDecoder) score() float64 {
	x := math.Float64frombits(d.u64())
	if math.Signbit(x) || math.IsNaN(x) || math.IsInf(x, 1) {
		d.fail("score %v is not a finite non-negative value", x)
		return 0
	}
	return x
}

// column reads one score column over numStates states, in either form;
// a sparse form must list its indices strictly ascending.
func (d *sweepDecoder) column(numStates int) []float64 {
	form := d.u8()
	d.dim("column", numStates)
	if d.err != nil {
		return nil
	}
	switch form {
	case colDense:
		col := make([]float64, d.fits(uint32(numStates), 8))
		for i := range col {
			col[i] = d.score()
		}
		return col
	case colSparse:
		nnz := d.fits(d.u32(), 12)
		if d.err != nil {
			return nil
		}
		col := make([]float64, numStates)
		for k, prev := 0, -1; k < nnz && d.err == nil; k++ {
			i := int(d.u32())
			if d.err == nil && (i >= numStates || i <= prev) {
				d.fail("support index %d after %d, outside (%d, %d)", i, prev, prev, numStates)
				break
			}
			col[i], prev = d.score(), i
		}
		return col
	}
	d.fail("column form %d unknown", form)
	return nil
}

// decodeSweepValue parses an encoded payload, validating every declared
// dimension against numStates — a payload computed over a different
// chain (fingerprint collision, version skew) fails here and the caller
// falls back to local compute.
func decodeSweepValue(b []byte, numStates int) (scoreValue, error) {
	d := &sweepDecoder{b: b}
	if magic, ver := d.u8(), d.u8(); d.err == nil && (magic != sweepMagic || ver != sweepVersion) {
		d.fail("magic/version %#x/%d not %#x/%d", magic, ver, sweepMagic, sweepVersion)
	}
	var v scoreValue
	for range d.fits(d.u32(), 5) {
		v.cols = append(v.cols, d.column(numStates))
	}
	if d.u8() == 1 {
		d.dim("bitset", numStates)
		words := make([]uint64, d.fits(d.u32(), 8))
		for i := range words {
			words[i] = d.u64()
		}
		if d.err == nil {
			v.bits, d.err = sparse.BitsetFromWords(numStates, words)
		}
	}
	for range d.fits(d.u32(), 8) {
		v.scalars = append(v.scalars, math.Float64frombits(d.u64()))
	}
	if d.err == nil && d.off != len(b) {
		d.fail("has %d trailing bytes", len(b)-d.off)
	}
	if d.err != nil {
		return scoreValue{}, d.err
	}
	return v, nil
}
