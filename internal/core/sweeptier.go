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
// the per-object kinds (kindMultiObs, kindPosterior) key on process-
// unique object serials that mean nothing to a peer.

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
	case kindExists, kindKTimes, kindHitting, kindPossible, kindCertain, kindExpr:
		return true
	}
	return false
}

// --- payload codec --------------------------------------------------------
//
// The payload is the exact internal representation of a scoreValue, not
// just its abstract value: Vec iteration (and therefore every dot
// product downstream) follows the support list in insertion order, so
// the codec round-trips the dense flag, the support order and the raw
// float64 bits. A payload decoded on a peer behaves bit-identically to
// the original — which is what lets remote-shard results stay pinned
// byte-identical to a single engine.

const (
	sweepMagic   byte = 0x75 // 'u'
	sweepVersion byte = 1
)

func encodeSweepValue(v scoreValue) []byte {
	size := 2 + 4
	for _, vec := range v.vecs {
		data, supp, dense := vec.Repr()
		size += 1 + 4
		if dense {
			size += 8 * len(data)
		} else {
			size += 4 + 12*len(supp)
		}
	}
	size++
	if v.bits != nil {
		size += 8 + 8*len(v.bits.Words64())
	}
	size += 4 + 8*len(v.scalars)

	out := make([]byte, 0, size)
	out = append(out, sweepMagic, sweepVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(v.vecs)))
	for _, vec := range v.vecs {
		data, supp, dense := vec.Repr()
		if dense {
			out = append(out, 1)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
			for _, x := range data {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
			}
			continue
		}
		out = append(out, 0)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(supp)))
		for _, i := range supp {
			out = binary.LittleEndian.AppendUint32(out, uint32(i))
		}
		for _, i := range supp {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(data[i]))
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
// panic.
type sweepDecoder struct {
	b   []byte
	off int
}

func (d *sweepDecoder) u8() (byte, error) {
	if d.off+1 > len(d.b) {
		return 0, fmt.Errorf("core: sweep payload truncated at byte %d", d.off)
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *sweepDecoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, fmt.Errorf("core: sweep payload truncated at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *sweepDecoder) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, fmt.Errorf("core: sweep payload truncated at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// count validates a declared element count against the bytes that
// remain, so a hostile header cannot drive a huge allocation.
func (d *sweepDecoder) count(n uint32, elemBytes int) (int, error) {
	if int64(n)*int64(elemBytes) > int64(len(d.b)-d.off) {
		return 0, fmt.Errorf("core: sweep payload declares %d elements past its end", n)
	}
	return int(n), nil
}

// decodeSweepValue parses an encoded payload, validating every declared
// dimension against numStates — a payload computed over a different
// chain (fingerprint collision, version skew) fails here and the caller
// falls back to local compute.
func decodeSweepValue(b []byte, numStates int) (scoreValue, error) {
	d := &sweepDecoder{b: b}
	magic, err := d.u8()
	if err != nil {
		return scoreValue{}, err
	}
	ver, err := d.u8()
	if err != nil {
		return scoreValue{}, err
	}
	if magic != sweepMagic || ver != sweepVersion {
		return scoreValue{}, fmt.Errorf("core: sweep payload magic/version %#x/%d not %#x/%d", magic, ver, sweepMagic, sweepVersion)
	}
	nvecs32, err := d.u32()
	if err != nil {
		return scoreValue{}, err
	}
	nvecs, err := d.count(nvecs32, 5)
	if err != nil {
		return scoreValue{}, err
	}
	var v scoreValue
	for range nvecs {
		dense, derr := d.u8()
		if derr != nil {
			return scoreValue{}, derr
		}
		n32, derr := d.u32()
		if derr != nil {
			return scoreValue{}, derr
		}
		if int(n32) != numStates {
			return scoreValue{}, fmt.Errorf("core: sweep payload vector over %d states, chain has %d", n32, numStates)
		}
		if dense == 1 {
			cnt, cerr := d.count(n32, 8)
			if cerr != nil {
				return scoreValue{}, cerr
			}
			data := make([]float64, cnt)
			for i := range data {
				bits, berr := d.u64()
				if berr != nil {
					return scoreValue{}, berr
				}
				data[i] = math.Float64frombits(bits)
			}
			v.vecs = append(v.vecs, sparse.AdoptDense(data))
			continue
		}
		nnz32, derr := d.u32()
		if derr != nil {
			return scoreValue{}, derr
		}
		nnz, derr := d.count(nnz32, 12)
		if derr != nil {
			return scoreValue{}, derr
		}
		supp := make([]int, nnz)
		seen := make(map[int]bool, nnz)
		for i := range supp {
			si, serr := d.u32()
			if serr != nil {
				return scoreValue{}, serr
			}
			if int(si) >= numStates {
				return scoreValue{}, fmt.Errorf("core: sweep payload support index %d out of range [0,%d)", si, numStates)
			}
			if seen[int(si)] {
				return scoreValue{}, fmt.Errorf("core: sweep payload duplicate support index %d", si)
			}
			seen[int(si)] = true
			supp[i] = int(si)
		}
		data := make([]float64, numStates)
		for _, i := range supp {
			bits, berr := d.u64()
			if berr != nil {
				return scoreValue{}, berr
			}
			data[i] = math.Float64frombits(bits)
		}
		v.vecs = append(v.vecs, sparse.AdoptSparse(data, supp))
	}
	hasBits, err := d.u8()
	if err != nil {
		return scoreValue{}, err
	}
	if hasBits == 1 {
		n32, berr := d.u32()
		if berr != nil {
			return scoreValue{}, berr
		}
		if int(n32) != numStates {
			return scoreValue{}, fmt.Errorf("core: sweep payload bitset over %d states, chain has %d", n32, numStates)
		}
		nw32, berr := d.u32()
		if berr != nil {
			return scoreValue{}, berr
		}
		nw, berr := d.count(nw32, 8)
		if berr != nil {
			return scoreValue{}, berr
		}
		words := make([]uint64, nw)
		for i := range words {
			if words[i], berr = d.u64(); berr != nil {
				return scoreValue{}, berr
			}
		}
		bits, berr := sparse.BitsetFromWords(numStates, words)
		if berr != nil {
			return scoreValue{}, berr
		}
		v.bits = bits
	}
	ns32, err := d.u32()
	if err != nil {
		return scoreValue{}, err
	}
	ns, err := d.count(ns32, 8)
	if err != nil {
		return scoreValue{}, err
	}
	for range ns {
		bits, serr := d.u64()
		if serr != nil {
			return scoreValue{}, serr
		}
		v.scalars = append(v.scalars, math.Float64frombits(bits))
	}
	if d.off != len(b) {
		return scoreValue{}, fmt.Errorf("core: sweep payload has %d trailing bytes", len(b)-d.off)
	}
	return v, nil
}
