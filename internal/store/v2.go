package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"ust/internal/core"
	"ust/internal/markov"
)

// The version-2 columnar object section (tag OBC0). Layout:
//
//	u64 objectCount
//	7 blocks, each u64 byte length + payload:
//	  ids      objectCount zigzag varints: delta-encoded object ids
//	  counts   objectCount uvarints: observations per object (>=1)
//	  times    per object: first time absolute, then deltas (uvarints)
//	  lens     per observation: support size (uvarint, >=1)
//	  states   per observation: first state id absolute, then deltas
//	  chains   u64 count, then per own-chain object:
//	           uvarint object index, u64 byte length, then either the
//	           CSR payload or — when the length is exactly chainRefLen —
//	           a chain reference (u64 fingerprint, u64 |S|), the same
//	           payload as a CHR0 section. A CSR payload is never that
//	           short (its header alone is 40 bytes). Only object frames
//	           (FrameEncoder) write references.
//	  probs    u8 padLen, padLen zero bytes, then one raw little-endian
//	           float64 per support entry. padLen is chosen at write time
//	           so the float column starts at a file offset that is a
//	           multiple of 8 — the precondition for the zero-copy adopt
//	           in LoadDatabaseMapped.
//
// Every integer block is delta-encoded against a sorted or ascending
// base (observation times and support ids are strictly ascending, so
// deltas are positive and varints stay short); object ids use zigzag
// because insertion order need not be id order.

// hostLittleEndian reports whether float64 bit patterns in memory match
// the file's little-endian layout, the second precondition for adopting
// the probability column without decoding.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// LoadDatabaseMapped decodes a complete, self-contained in-memory store
// image (any version). For version-2 images the probability column is
// adopted zero-copy when its file offset is 8-aligned in data: the
// returned database's observation pdfs alias data, so the caller must not
// modify the buffer for the lifetime of the database. Misaligned or
// big-endian loads transparently fall back to copying.
func LoadDatabaseMapped(data []byte) (*core.Database, error) {
	return DecodeObjectFrame(data, nil)
}

// FrameEncoder encodes the object frames sent to one receiver: version-2
// images whose chains travel by reference — fingerprint and |S| — once
// the receiver holds them, so a frame is O(objects) where a full image
// is O(chain). The default chain always travels by reference (a CHR0
// section); the receiver was created over it. An object's own chain
// travels inline in the first frame that needs it and by reference from
// then on, within that frame included. Not safe for concurrent use.
type FrameEncoder struct {
	def  *markov.Chain
	held map[uint64]bool // fingerprints the receiver is taken to hold
}

// NewFrameEncoder returns an encoder for a receiver that holds def, the
// default chain of the database the objects belong to.
func NewFrameEncoder(def *markov.Chain) *FrameEncoder {
	e := &FrameEncoder{def: def}
	e.Reset()
	return e
}

// Reset forgets every own chain sent so far, so the next frames carry
// them inline again — for when a frame may not have arrived. A receiver
// that already holds a chain canonicalizes the repeat by fingerprint.
func (e *FrameEncoder) Reset() { e.held = map[uint64]bool{e.def.Fingerprint(): true} }

// Encode returns objs as one frame, in slice order. The objects need no
// database: the frame is written from their pdfs.
func (e *FrameEncoder) Encode(objs []*core.Object) ([]byte, error) {
	out := newWriter(4+chainRefLen+columnarLen(objs), formatVersion2, 2)
	out.raw(tagChainRef[:])
	out.chainRef(e.def)
	writeColumnarSection(out, objs, func(fp uint64) bool {
		known := e.held[fp]
		e.held[fp] = true
		return known
	})
	frame, err := out.finish()
	if err != nil {
		e.Reset() // held may name chains of a frame that never existed
		return nil, err
	}
	return frame, nil
}

// DecodeObjectFrame decodes a store image whose chains may travel by
// reference: every CHR0 section and own-chain reference is looked up
// through resolve (then among the chains the image itself carries
// inline) and must name a chain of the stated |S|. A fingerprint nobody
// holds fails with ErrUnknownChain (ErrCorrupt when resolve is nil: a
// self-contained image may not point outside itself). A full image —
// every chain inline — decodes identically with any resolver, including
// nil; that is LoadDatabaseMapped, whose aliasing contract applies here
// too.
func DecodeObjectFrame(data []byte, resolve func(fingerprint uint64) *markov.Chain) (*core.Database, error) {
	chains := &chainLookup{resolve: resolve}
	version, s, err := readImage(data, chains)
	switch {
	case err != nil:
		return nil, err
	case s.chain == nil:
		return nil, corrupt("no chain section")
	case version == formatVersion:
		db := core.NewDatabase(s.chain)
		if s.rows != nil {
			if err := s.rows(db); err != nil {
				return nil, err
			}
		}
		return db, nil
	case s.cols == nil:
		return nil, corrupt("no object section")
	}
	return decodeColumnar(s.cols, s.chain, chains)
}

// chainRefLen is the byte length of a chain reference: u64 fingerprint,
// u64 |S|.
const chainRefLen = 16

// chainLookup resolves chain references for one image: the caller's
// resolver first (its chains are the receiver's canonical pointers),
// then the chains the image carried inline so far.
type chainLookup struct {
	resolve func(uint64) *markov.Chain
	inline  []*markov.Chain
}

// deref reads a chain reference at c and returns the chain it names.
func (l *chainLookup) deref(c *cursor) *markov.Chain {
	fp, states := c.u64(), c.u64()
	if c.err != nil {
		return nil
	}
	var ch *markov.Chain
	if l.resolve != nil {
		ch = l.resolve(fp)
	}
	for i := 0; ch == nil && i < len(l.inline); i++ {
		if l.inline[i].Fingerprint() == fp {
			ch = l.inline[i]
		}
	}
	switch {
	case ch == nil && l.resolve == nil:
		c.fail("self-contained image references chain %#x", fp)
	case ch == nil:
		c.err = fmt.Errorf("%w %#x", ErrUnknownChain, fp)
	case uint64(ch.NumStates()) != states:
		c.fail("chain %#x referenced over %d states, held over %d", fp, states, ch.NumStates())
	default:
		return ch
	}
	return nil
}

// columnarLen bounds the length of the OBC0 section writeColumnarSection
// emits for objs: fixed-width fields exactly, every varint at its widest
// and every own chain inline.
func columnarLen(objs []*core.Object) int {
	n := 4 + 8 + 7*8 + 8 + 1 + 7 // tag, count, block lengths, chain count, pad
	for _, o := range objs {
		supp := 0
		for _, ob := range o.Observations {
			supp += ob.PDF.NNZ()
		}
		n += binary.MaxVarintLen64*(2+2*len(o.Observations)+supp) + 8*supp
		if o.Chain != nil {
			n += binary.MaxVarintLen64 + 8 + max(csrLen(o.Chain.Matrix()), chainRefLen)
		}
	}
	return n
}

// writeColumnarSection emits the OBC0 section for objs, each pdf's
// states carrying mass in ascending order. With known nil every own
// chain is written inline (a self-contained image); otherwise a chain
// whose fingerprint known reports as held by the receiver is written as
// a reference.
func writeColumnarSection(out *writer, objs []*core.Object, known func(uint64) bool) {
	out.raw(tagColumnar[:])
	out.u64(uint64(len(objs)))

	// ids
	out.block(func() {
		prev := int64(0)
		for _, o := range objs {
			out.svarint(int64(o.ID) - prev)
			prev = int64(o.ID)
		}
	})
	// counts
	out.block(func() {
		for _, o := range objs {
			out.uvarint(uint64(len(o.Observations)))
		}
	})
	// times
	out.block(func() {
		for _, o := range objs {
			prev := 0
			for _, ob := range o.Observations {
				if ob.Time > math.MaxInt32 {
					out.err = fmt.Errorf("store: object %d observation time %d overflows the v2 format", o.ID, ob.Time)
					return
				}
				out.uvarint(uint64(ob.Time - prev))
				prev = ob.Time
			}
		}
	})
	// lens
	total := 0
	out.block(func() {
		for _, o := range objs {
			for _, ob := range o.Observations {
				l := 0
				ob.PDF.Range(func(int, float64) { l++ })
				out.uvarint(uint64(l))
				total += l
			}
		}
	})
	// states
	out.block(func() {
		for _, o := range objs {
			for _, ob := range o.Observations {
				prev := 0
				ob.PDF.Range(func(s int, _ float64) {
					out.uvarint(uint64(s - prev))
					prev = s
				})
			}
		}
	})
	// chains
	out.block(func() {
		count := 0
		for _, o := range objs {
			if o.Chain != nil {
				count++
			}
		}
		out.u64(uint64(count))
		for i, o := range objs {
			if o.Chain == nil {
				continue
			}
			out.uvarint(uint64(i))
			out.block(func() {
				if known != nil && known(o.Chain.Fingerprint()) {
					out.chainRef(o.Chain)
				} else {
					writeCSR(out, o.Chain.Matrix())
				}
			})
		}
	})
	// probs: padded so the float column lands on an 8-aligned file
	// offset — everything before this block has variable (varint) length.
	padLen := (8 - (len(out.buf)+8+1)%8) % 8 // after the length prefix and padLen byte
	out.u64(uint64(1 + padLen + 8*total))
	out.raw([]byte{byte(padLen)})
	out.raw(make([]byte, padLen))
	for _, o := range objs {
		for _, ob := range o.Observations {
			ob.PDF.Range(func(_ int, p float64) { out.f64(p) })
		}
	}
}

// columnarBlocks is the skimmed (not yet decoded) OBC0 section: a
// cursor over each block.
type columnarBlocks struct {
	count                                           uint64
	ids, counts, times, lens, states, chains, probs cursor
}

// skimColumnar slices the OBC0 blocks out of the section without
// interpreting them — decoding waits until the chain section is known.
func skimColumnar(c *cursor) *columnarBlocks {
	cb := &columnarBlocks{count: c.u64()}
	if c.err == nil && cb.count > maxSliceLen {
		c.fail("object count %d", cb.count)
	}
	for _, b := range []*cursor{&cb.ids, &cb.counts, &cb.times, &cb.lens, &cb.states, &cb.chains, &cb.probs} {
		*b = c.block()
	}
	return cb
}

// decodeColumnar materializes the database from skimmed blocks: shared
// arenas for every per-observation slice and the probability column
// adopted zero-copy when aligned. Each observation pdf is a view over its
// slice of the state and probability columns, so the image is the only
// copy of a loaded observation. Every element an arena is sized for
// costs at least one byte of its block, and the counts are checked
// against the block lengths before anything is allocated: what a corrupt
// image can make the decoder allocate is linear in its length.
func decodeColumnar(cb *columnarBlocks, chain *markov.Chain, chains *chainLookup) (*core.Database, error) {
	if cb.count > uint64(cb.ids.left()) || cb.count > uint64(cb.counts.left()) {
		return nil, corrupt("%d objects in %d id bytes", cb.count, cb.ids.left())
	}
	n := int(cb.count)

	// Object ids.
	ids := make([]int, n)
	c := &cb.ids
	prev := int64(0)
	for i := range ids {
		prev += c.svarint()
		ids[i] = int(prev)
	}
	if c.end(); c.err != nil {
		return nil, c.err
	}

	// Observation counts.
	counts := make([]int, n)
	totalObs := 0
	c = &cb.counts
	for i := range counts {
		v := c.uvarint()
		if c.err == nil && (v == 0 || v > maxSliceLen) {
			c.fail("object %d has %d observations", ids[i], v)
		}
		counts[i] = int(v)
		totalObs += int(v)
	}
	if c.end(); c.err != nil {
		return nil, c.err
	}
	if totalObs > cb.times.left() || totalObs > cb.lens.left() {
		return nil, corrupt("%d observations in %d time bytes", totalObs, cb.times.left())
	}

	// Own chains (decoded before state ids: they set the per-object
	// state-space bound).
	ownChains := map[int]*markov.Chain{}
	c = &cb.chains
	nChains := c.u64()
	if c.err == nil && nChains > cb.count {
		c.fail("%d own chains for %d objects", nChains, cb.count)
	}
	for k := uint64(0); k < nChains && c.err == nil; k++ {
		idx := c.uvarint()
		if c.err == nil && idx >= cb.count {
			c.fail("chain for object index %d of %d", idx, cb.count)
		}
		payload := c.block()
		var ch *markov.Chain
		if payload.left() == chainRefLen {
			ch = chains.deref(&payload)
		} else if ch = readChain(&payload); ch != nil {
			chains.inline = append(chains.inline, ch)
		}
		if payload.end(); payload.err != nil {
			return nil, payload.err
		}
		ownChains[int(idx)] = ch
	}
	if c.end(); c.err != nil {
		return nil, c.err
	}

	// Observation times, delta-decoded into one arena.
	timesArena := make([]int32, totalObs)
	c = &cb.times
	pos := 0
	for i := 0; i < n; i++ {
		t := uint64(0)
		for k := 0; k < counts[i]; k++ {
			d := c.uvarint()
			if c.err == nil && d > math.MaxInt32-t {
				c.fail("observation time %d past %d", d, math.MaxInt32-t)
			}
			t += d
			timesArena[pos] = int32(t)
			pos++
		}
	}
	if c.end(); c.err != nil {
		return nil, c.err
	}

	// Support lengths.
	lens := make([]int32, totalObs)
	totalSupp := 0
	c = &cb.lens
	for i := range lens {
		v := c.uvarint()
		if c.err == nil && (v == 0 || v > maxSliceLen) {
			c.fail("observation support %d", v)
		}
		lens[i] = int32(v)
		totalSupp += int(v)
	}
	if c.end(); c.err != nil {
		return nil, c.err
	}
	if totalSupp > cb.states.left() || 8*totalSupp >= cb.probs.left() {
		return nil, corrupt("%d support entries in %d state bytes", totalSupp, cb.states.left())
	}

	// Support state ids, delta-decoded and range-checked against each
	// object's effective state space.
	idArena := make([]int32, totalSupp)
	c = &cb.states
	pos = 0
	obsIdx := 0
	for i := 0; i < n; i++ {
		states := chain.NumStates()
		if ch, ok := ownChains[i]; ok {
			states = ch.NumStates()
		}
		for k := 0; k < counts[i]; k++ {
			s := uint64(0)
			for j := int32(0); j < lens[obsIdx]; j++ {
				d := c.uvarint()
				switch {
				case c.err != nil:
				case j > 0 && d == 0:
					c.fail("duplicate support state")
				case d >= uint64(states)-s:
					c.fail("state %d + %d outside %d", s, d, states)
				}
				s += d
				idArena[pos] = int32(s)
				pos++
			}
			obsIdx++
		}
	}
	if c.end(); c.err != nil {
		return nil, c.err
	}

	// The probability column: pad, then raw little-endian float64s.
	// Adopt the file bytes zero-copy when the column is 8-aligned in
	// memory and the host is little-endian; decode-copy otherwise.
	c = &cb.probs
	var raw []byte
	if pad := c.take(1); pad != nil {
		c.take(int(pad[0]))
		raw = c.take(8 * totalSupp)
	}
	if c.end(); c.err != nil {
		return nil, c.err
	}
	var probs []float64
	if totalSupp == 0 {
		probs = nil
	} else if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		probs = unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), totalSupp)
	} else {
		probs = make([]float64, totalSupp)
		for i := range probs {
			probs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	for _, p := range probs {
		if !(p > 0) || math.IsInf(p, 0) {
			return nil, corrupt("non-positive observation probability %g", p)
		}
	}

	// Materialize. One arena per slice kind; per observation, one small
	// Distribution that views its slice of the id and prob columns.
	obsArena := make([]core.Observation, totalObs)

	type objRec struct {
		id    int
		chain *markov.Chain
		obs   []core.Observation
	}
	recs := make([]objRec, n)
	obsIdx, suppIdx := 0, 0
	for i := 0; i < n; i++ {
		states := chain.NumStates()
		ownChain := ownChains[i]
		if ownChain != nil {
			states = ownChain.NumStates()
		}
		obsStart := obsIdx
		for k := 0; k < counts[i]; k++ {
			end := suppIdx + int(lens[obsIdx])
			obsArena[obsIdx] = core.Observation{
				Time: int(timesArena[obsIdx]),
				PDF:  markov.FromColumns(states, idArena[suppIdx:end:end], probs[suppIdx:end:end]),
			}
			suppIdx = end
			obsIdx++
		}
		recs[i] = objRec{id: ids[i], chain: ownChain, obs: obsArena[obsStart:obsIdx]}
	}

	db := core.NewDatabase(chain)
	for _, rec := range recs {
		o, err := core.NewObjectSorted(rec.id, rec.chain, rec.obs)
		if err != nil {
			return nil, corrupt("%v", err)
		}
		if err := db.Add(o); err != nil {
			return nil, corrupt("%v", err)
		}
	}
	return db, nil
}
