package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"ust/internal/core"
)

// The observation frame: one object's sightings as a client sends them
// to be ingested. A version-2 image with a single OBS0 section:
//
//	zigzag varint  object id
//	uvarint        observation count (>=1)
//	per observation:
//	  uvarint      time
//	  uvarint      support length (>=1)
//	  uvarints     support state ids, first absolute, then deltas
//	probs          one raw little-endian float64 per support entry, in
//	               observation order, each pdf's in ascending state order
//
// The pdf layout is OBC0's: delta-varint ascending state ids, then one
// probability column. The frame carries the values, not a built pdf:
// the receiver grounds them against its own state space, exactly as it
// grounds the JSON form of the same observations.

// ObservationFrame is what an observation frame carries: an object id
// and its observations.
type ObservationFrame struct {
	Object       int
	Observations []FrameObservation
}

// FrameObservation is one observation of a frame: a time, the support
// state ids strictly ascending inside the receiver's state space, and
// the probability on each — finite and non-negative, unnormalized.
type FrameObservation struct {
	Time   int
	States []int32
	Probs  []float64
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// EncodeObservationFrame returns obs as the observation frame of object
// id. Each pdf is walked once, in its one ascending order.
func EncodeObservationFrame(id int, obs []core.Observation) ([]byte, error) {
	size := 4 + 2*binary.MaxVarintLen64 // tag, id, count
	entries := 0
	for _, ob := range obs {
		if ob.PDF == nil {
			return nil, fmt.Errorf("store: observation at t=%d has no pdf", ob.Time)
		}
		if ob.Time < 0 {
			return nil, fmt.Errorf("store: observation time %d is negative", ob.Time)
		}
		// NNZ bounds the entries the walk visits; no delta reaches |S|.
		nnz := ob.PDF.NNZ()
		size += 2*binary.MaxVarintLen64 + nnz*uvarintLen(uint64(ob.PDF.NumStates()))
		entries += nnz
	}
	size += 8 * entries
	out := newWriter(size, formatVersion2, 1)
	out.raw(tagObservations[:])
	out.svarint(int64(id))
	out.uvarint(uint64(len(obs)))
	// The probability column is written during the same walk into the
	// buffer's tail, past anything the state ids can reach, and moved
	// down behind them once they are all written.
	col := cap(out.buf) - footerLen - 8*entries
	n := 0
	for _, ob := range obs {
		l := 0
		ob.PDF.Range(func(int, float64) { l++ })
		if l == 0 {
			return nil, fmt.Errorf("store: observation at t=%d has an empty pdf", ob.Time)
		}
		out.uvarint(uint64(ob.Time))
		out.uvarint(uint64(l))
		prev := 0
		ob.PDF.Range(func(s int, p float64) {
			out.uvarint(uint64(s - prev))
			prev = s
			binary.LittleEndian.PutUint64(out.buf[col+8*n:col+8*n+8], math.Float64bits(p))
			n++
		})
	}
	end := len(out.buf)
	out.buf = out.buf[:end+8*n]
	copy(out.buf[end:], out.buf[col:col+8*n])
	return out.finish()
}

// DecodeObservationFrame decodes an observation frame for a receiver
// over numStates states. It rejects with ErrCorrupt what no pdf over
// that space can carry — an empty support, a state outside [0,
// numStates) or repeated, a probability that is NaN, infinite or
// negative — and any image that is not exactly one well-formed OBS0
// section. Every allocation is sized from the bytes present.
func DecodeObservationFrame(data []byte, numStates int) (ObservationFrame, error) {
	var f ObservationFrame
	version, sections, c, err := envelope(data)
	if err != nil {
		return f, err
	}
	if version != formatVersion2 || sections != 1 {
		return f, corrupt("observation frame: version %d with %d sections", version, sections)
	}
	if tag := c.tag(); c.err == nil && tag != tagObservations {
		c.fail("unexpected section %q", tag)
	}
	f.Object = int(c.svarint())
	// An observation takes at least eleven bytes: time, length, one state
	// id and its 8-byte probability.
	count := c.uvarint()
	if c.err == nil && (count == 0 || count > uint64(c.left()/11)) {
		c.fail("%d observations in %d bytes", count, c.left())
	}
	if c.err != nil {
		return f, c.err
	}
	f.Observations = make([]FrameObservation, count)
	total := 0
	for k := range f.Observations {
		t := c.uvarint()
		l := c.uvarint()
		switch {
		case c.err != nil:
		case t > math.MaxInt:
			c.fail("observation time %d", t)
		case l == 0:
			c.fail("observation at t=%d has an empty pdf", t)
		case l > uint64(max(c.left()-8*total, 0)/9):
			// Each entry takes a state id byte and 8 probability bytes,
			// past the probabilities of the observations before it.
			c.fail("%d support entries in %d bytes", l, c.left())
		}
		if c.err != nil {
			return ObservationFrame{}, c.err
		}
		states := make([]int32, l)
		s := uint64(0)
		for j := range states {
			d := c.uvarint()
			switch {
			case c.err != nil:
			case j > 0 && d == 0:
				c.fail("duplicate support state %d", s)
			case numStates <= 0 || d >= uint64(numStates)-s:
				c.fail("state %d + %d outside %d", s, d, numStates)
			}
			s += d
			states[j] = int32(s)
		}
		f.Observations[k] = FrameObservation{Time: int(t), States: states}
		total += int(l)
	}
	raw := c.take(8 * total)
	if c.end(); c.err != nil {
		return ObservationFrame{}, c.err
	}
	probs := make([]float64, total)
	for i := range probs {
		p := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if !(p >= 0) || math.IsInf(p, 1) {
			return ObservationFrame{}, corrupt("observation probability %g", p)
		}
		probs[i] = p
	}
	for k := range f.Observations {
		o := &f.Observations[k]
		o.Probs, probs = probs[:len(o.States):len(o.States)], probs[len(o.States):]
	}
	return f, nil
}
