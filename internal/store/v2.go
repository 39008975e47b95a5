package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/sparse"
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
// returned database's observation pdfs and columnar segments alias data,
// so the caller must not modify the buffer for the lifetime of the
// database. Misaligned or big-endian loads transparently fall back to
// copying.
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
// database: their column segments are derived from the boxed pdfs, bit
// for bit.
func (e *FrameEncoder) Encode(objs []*core.Object) ([]byte, error) {
	var buf bytes.Buffer
	out := newWriter(&buf)
	out.write(magic[:])
	out.u32(formatVersion2)
	out.u32(2)
	out.write(tagChainRef[:])
	out.write(chainRef(e.def))
	segs := make([]core.ObsSeg, len(objs))
	for i, o := range objs {
		segs[i] = extractSeg(o)
	}
	writeColumnarSection(out, objs, segs, func(fp uint64) bool {
		known := e.held[fp]
		e.held[fp] = true
		return known
	})
	if err := out.finish(); err != nil {
		e.Reset() // held may name chains of a frame that never existed
		return nil, err
	}
	return buf.Bytes(), nil
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
	version, sections, body, err := envelope(data)
	if err != nil {
		return nil, err
	}
	switch version {
	case formatVersion:
		return loadV1(newReader(bytes.NewReader(body[12:])), sections)
	case formatVersion2:
		return loadV2(body, sections, resolve)
	default:
		return nil, fmt.Errorf("store: unsupported version %d (supported: %d, %d)",
			version, formatVersion, formatVersion2)
	}
}

// chainRefLen is the byte length of a chain reference: u64 fingerprint,
// u64 |S|.
const chainRefLen = 16

func chainRef(c *markov.Chain) []byte {
	ref := make([]byte, chainRefLen)
	binary.LittleEndian.PutUint64(ref, c.Fingerprint())
	binary.LittleEndian.PutUint64(ref[8:], uint64(c.NumStates()))
	return ref
}

// chainLookup resolves chain references for one image: the caller's
// resolver first (its chains are the receiver's canonical pointers),
// then the chains the image carried inline so far.
type chainLookup struct {
	resolve func(uint64) *markov.Chain
	inline  []*markov.Chain
}

func (l *chainLookup) deref(ref []byte) (*markov.Chain, error) {
	fp := binary.LittleEndian.Uint64(ref)
	states := binary.LittleEndian.Uint64(ref[8:])
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
		return nil, fmt.Errorf("%w: self-contained image references chain %#x", ErrCorrupt, fp)
	case ch == nil:
		return nil, fmt.Errorf("%w %#x", ErrUnknownChain, fp)
	}
	if uint64(ch.NumStates()) != states {
		return nil, fmt.Errorf("%w: chain %#x referenced over %d states, held over %d",
			ErrCorrupt, fp, states, ch.NumStates())
	}
	return ch, nil
}

// writeColumnarSection emits the OBC0 section for objs, whose column
// segments are segs. With known nil every own chain is written inline
// (a self-contained image); otherwise a chain whose fingerprint known
// reports as held by the receiver is written as a reference.
func writeColumnarSection(out *writer, objs []*core.Object, segs []core.ObsSeg, known func(uint64) bool) {
	out.write(tagColumnar[:])
	out.u64(uint64(len(objs)))

	// ids
	out.block(func(b *writer) {
		prev := int64(0)
		for _, o := range objs {
			b.svarint(int64(o.ID) - prev)
			prev = int64(o.ID)
		}
	})
	// counts
	out.block(func(b *writer) {
		for _, o := range objs {
			b.uvarint(uint64(len(o.Observations)))
		}
	})
	// times
	out.block(func(b *writer) {
		for _, o := range objs {
			prev := int64(0)
			for k, ob := range o.Observations {
				if ob.Time > math.MaxInt32 {
					b.err = fmt.Errorf("store: object %d observation time %d overflows the v2 format", o.ID, ob.Time)
					return
				}
				if k == 0 {
					b.uvarint(uint64(ob.Time))
				} else {
					b.uvarint(uint64(int64(ob.Time) - prev))
				}
				prev = int64(ob.Time)
			}
		}
	})
	// lens
	out.block(func(b *writer) {
		for _, seg := range segs {
			for k := 0; k < seg.Len(); k++ {
				b.uvarint(uint64(seg.Off[k+1] - seg.Off[k]))
			}
		}
	})
	// states
	out.block(func(b *writer) {
		for _, seg := range segs {
			for k := 0; k < seg.Len(); k++ {
				ids, _ := seg.Supp(k)
				prev := int64(0)
				for j, s := range ids {
					if j == 0 {
						b.uvarint(uint64(s))
					} else {
						b.uvarint(uint64(int64(s) - prev))
					}
					prev = int64(s)
				}
			}
		}
	})
	// chains
	out.block(func(b *writer) {
		count := 0
		for _, o := range objs {
			if o.Chain != nil {
				count++
			}
		}
		b.u64(uint64(count))
		for i, o := range objs {
			if o.Chain == nil {
				continue
			}
			var payload []byte
			if known != nil && known(o.Chain.Fingerprint()) {
				payload = chainRef(o.Chain)
			} else if payload, b.err = csrBytes(o.Chain.Matrix()); b.err != nil {
				return
			}
			b.uvarint(uint64(i))
			b.u64(uint64(len(payload)))
			b.write(payload)
		}
	})
	// probs: padded so the float column lands on an 8-aligned file
	// offset. The pad is computed against the writer's running offset —
	// everything before this block has variable (varint) length.
	total := 0
	for _, seg := range segs {
		total += len(seg.Probs)
	}
	padStart := out.offset() + 8 + 1 // length prefix + padLen byte
	padLen := int((8 - padStart%8) % 8)
	out.u64(uint64(1 + padLen + 8*total))
	out.u8(byte(padLen))
	if padLen > 0 {
		out.write(make([]byte, padLen))
	}
	var scratch [8]byte
	for _, seg := range segs {
		for _, p := range seg.Probs {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(p))
			out.write(scratch[:])
		}
	}
}

// segments returns the column segment of every object of db, preferring
// the database's maintained column plane (bit-faithful to the boxed
// pdfs) and falling back to extraction for objects without a current
// segment.
func segments(db *core.Database) []core.ObsSeg {
	objs := db.Objects()
	segs := make([]core.ObsSeg, len(objs))
	for i, o := range objs {
		if seg, ok := db.Columns().Segment(o.ID); ok && seg.Len() == len(o.Observations) {
			segs[i] = seg
			continue
		}
		segs[i] = extractSeg(o)
	}
	return segs
}

// extractSeg derives a column segment from an object's boxed pdfs — the
// writer's path for objects without a current plane entry (every object
// of a frame: frames are encoded without a database).
func extractSeg(o *core.Object) core.ObsSeg {
	seg := core.ObsSeg{
		Times: make([]int32, len(o.Observations)),
		Off:   make([]int32, len(o.Observations)+1),
	}
	for k, ob := range o.Observations {
		seg.Times[k] = int32(ob.Time)
		sup := ob.PDF.Support()
		seg.IDs = slices.Grow(seg.IDs, len(sup))
		seg.Probs = slices.Grow(seg.Probs, len(sup))
		for _, s := range sup {
			seg.IDs = append(seg.IDs, int32(s))
			seg.Probs = append(seg.Probs, ob.PDF.P(s))
		}
		seg.Off[k+1] = int32(len(seg.IDs))
	}
	return seg
}

// csrBytes encodes a CSR matrix standalone (for the per-object chain
// entries, which need a byte-length prefix).
func csrBytes(m *sparse.CSR) ([]byte, error) {
	var buf bytes.Buffer
	sub := newWriter(&buf)
	writeCSR(sub, m)
	if sub.err != nil {
		return nil, sub.err
	}
	if err := sub.w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// byteCursor walks one decoded block.
type byteCursor struct {
	b   []byte
	pos int
}

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	c.pos += n
	return v, nil
}

func (c *byteCursor) svarint() (int64, error) {
	v, n := binary.Varint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	c.pos += n
	return v, nil
}

func (c *byteCursor) u64() (uint64, error) {
	if len(c.b)-c.pos < 8 {
		return 0, fmt.Errorf("%w: truncated block", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint64(c.b[c.pos:])
	c.pos += 8
	return v, nil
}

func (c *byteCursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.b)-c.pos < n {
		return nil, fmt.Errorf("%w: truncated block", ErrCorrupt)
	}
	out := c.b[c.pos : c.pos+n]
	c.pos += n
	return out, nil
}

func (c *byteCursor) mustEnd() error {
	if c.pos != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes in block", ErrCorrupt, len(c.b)-c.pos)
	}
	return nil
}

// v2Decoder walks the body slice with file-absolute offsets (needed for
// the probability column's alignment contract).
type v2Decoder struct {
	body []byte
	off  int
}

func (d *v2Decoder) take(n int) ([]byte, error) {
	if n < 0 || len(d.body)-d.off < n {
		return nil, fmt.Errorf("%w: truncated section", ErrCorrupt)
	}
	out := d.body[d.off : d.off+n]
	d.off += n
	return out, nil
}

func (d *v2Decoder) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// block reads a u64 length prefix and returns the payload slice plus the
// file offset of its first byte.
func (d *v2Decoder) block() ([]byte, int, error) {
	n, err := d.u64()
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(d.body)-d.off) {
		return nil, 0, fmt.Errorf("%w: block length %d exceeds file", ErrCorrupt, n)
	}
	start := d.off
	payload, err := d.take(int(n))
	return payload, start, err
}

// columnarBlocks is the skimmed (not yet decoded) OBC0 section.
type columnarBlocks struct {
	count                                 uint64
	ids, counts, times, lens, states, chs []byte
	probs                                 []byte
	probsOff                              int
}

// skimColumnar slices the OBC0 blocks out of the body without
// interpreting them — decoding waits until the chain section is known.
func skimColumnar(d *v2Decoder) (*columnarBlocks, error) {
	var cb columnarBlocks
	var err error
	if cb.count, err = d.u64(); err != nil {
		return nil, err
	}
	if cb.count > maxSliceLen {
		return nil, fmt.Errorf("%w: object count %d", ErrCorrupt, cb.count)
	}
	for _, dst := range []*[]byte{&cb.ids, &cb.counts, &cb.times, &cb.lens, &cb.states, &cb.chs} {
		if *dst, _, err = d.block(); err != nil {
			return nil, err
		}
	}
	if cb.probs, cb.probsOff, err = d.block(); err != nil {
		return nil, err
	}
	return &cb, nil
}

// loadV2 decodes a version-2 body.
func loadV2(body []byte, sections uint32, resolve func(uint64) *markov.Chain) (*core.Database, error) {
	d := &v2Decoder{body: body, off: 12}
	chains := &chainLookup{resolve: resolve}
	var chain *markov.Chain
	var cb *columnarBlocks
	for i := uint32(0); i < sections; i++ {
		tag, err := d.take(4)
		if err != nil {
			return nil, err
		}
		switch *(*[4]byte)(tag) {
		case tagChain:
			br := bytes.NewReader(body[d.off:])
			before := br.Len()
			c, err := readChain(newRawReader(br))
			if err != nil {
				return nil, err
			}
			chain = c
			chains.inline = append(chains.inline, c)
			d.off += before - br.Len()
		case tagChainRef:
			ref, err := d.take(chainRefLen)
			if err != nil {
				return nil, err
			}
			if chain, err = chains.deref(ref); err != nil {
				return nil, err
			}
		case tagColumnar:
			if cb, err = skimColumnar(d); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unexpected section %q", ErrCorrupt, tag)
		}
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: trailing bytes after last section", ErrCorrupt)
	}
	if chain == nil {
		return nil, fmt.Errorf("%w: no chain section", ErrCorrupt)
	}
	if cb == nil {
		return nil, fmt.Errorf("%w: no object section", ErrCorrupt)
	}
	return decodeColumnar(cb, chain, chains)
}

// decodeColumnar materializes the database from skimmed blocks: shared
// arenas for every per-observation slice, the probability column adopted
// zero-copy when aligned, and the column plane pre-seeded so Database.Add
// claims each segment instead of re-deriving it.
func decodeColumnar(cb *columnarBlocks, chain *markov.Chain, chains *chainLookup) (*core.Database, error) {
	n := int(cb.count)

	// Object ids.
	ids := make([]int, n)
	cur := byteCursor{b: cb.ids}
	prev := int64(0)
	for i := range ids {
		d, err := cur.svarint()
		if err != nil {
			return nil, err
		}
		prev += d
		ids[i] = int(prev)
	}
	if err := cur.mustEnd(); err != nil {
		return nil, err
	}

	// Observation counts.
	counts := make([]int, n)
	totalObs := 0
	cur = byteCursor{b: cb.counts}
	for i := range counts {
		v, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if v == 0 || v > maxSliceLen {
			return nil, fmt.Errorf("%w: object %d has %d observations", ErrCorrupt, ids[i], v)
		}
		counts[i] = int(v)
		totalObs += int(v)
	}
	if err := cur.mustEnd(); err != nil {
		return nil, err
	}
	if totalObs > maxSliceLen {
		return nil, fmt.Errorf("%w: %d observations", ErrCorrupt, totalObs)
	}

	// Own chains (decoded before state ids: they set the per-object
	// state-space bound).
	ownChains := map[int]*markov.Chain{}
	cur = byteCursor{b: cb.chs}
	nChains, err := cur.u64()
	if err != nil {
		return nil, err
	}
	if nChains > cb.count {
		return nil, fmt.Errorf("%w: %d own chains for %d objects", ErrCorrupt, nChains, cb.count)
	}
	for c := uint64(0); c < nChains; c++ {
		idx, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if idx >= cb.count {
			return nil, fmt.Errorf("%w: chain for object index %d of %d", ErrCorrupt, idx, cb.count)
		}
		clen, err := cur.u64()
		if err != nil {
			return nil, err
		}
		payload, err := cur.take(int(clen))
		if err != nil {
			return nil, err
		}
		if clen == chainRefLen {
			if ownChains[int(idx)], err = chains.deref(payload); err != nil {
				return nil, err
			}
			continue
		}
		br := bytes.NewReader(payload)
		ch, err := readChain(newRawReader(br))
		if err != nil {
			return nil, err
		}
		if br.Len() != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after chain", ErrCorrupt, br.Len())
		}
		ownChains[int(idx)] = ch
		chains.inline = append(chains.inline, ch)
	}
	if err := cur.mustEnd(); err != nil {
		return nil, err
	}

	// Observation times, delta-decoded into one arena.
	timesArena := make([]int32, totalObs)
	cur = byteCursor{b: cb.times}
	pos := 0
	for i := 0; i < n; i++ {
		t := uint64(0)
		for k := 0; k < counts[i]; k++ {
			d, err := cur.uvarint()
			if err != nil {
				return nil, err
			}
			if k == 0 {
				t = d
			} else {
				t += d
			}
			if t > math.MaxInt32 {
				return nil, fmt.Errorf("%w: observation time %d", ErrCorrupt, t)
			}
			timesArena[pos] = int32(t)
			pos++
		}
	}
	if err := cur.mustEnd(); err != nil {
		return nil, err
	}

	// Support lengths and per-object offset arenas.
	lens := make([]int32, totalObs)
	offArena := make([]int32, totalObs+n)
	totalSupp := 0
	cur = byteCursor{b: cb.lens}
	for i := range lens {
		v, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if v == 0 || v > maxSliceLen {
			return nil, fmt.Errorf("%w: observation support %d", ErrCorrupt, v)
		}
		lens[i] = int32(v)
		totalSupp += int(v)
	}
	if err := cur.mustEnd(); err != nil {
		return nil, err
	}
	if totalSupp > maxSliceLen {
		return nil, fmt.Errorf("%w: %d support entries", ErrCorrupt, totalSupp)
	}

	// Support state ids, delta-decoded and range-checked against each
	// object's effective state space.
	idArena := make([]int32, totalSupp)
	cur = byteCursor{b: cb.states}
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
				d, err := cur.uvarint()
				if err != nil {
					return nil, err
				}
				if j == 0 {
					s = d
				} else {
					if d == 0 {
						return nil, fmt.Errorf("%w: duplicate support state", ErrCorrupt)
					}
					s += d
				}
				if s >= uint64(states) {
					return nil, fmt.Errorf("%w: state %d outside %d", ErrCorrupt, s, states)
				}
				idArena[pos] = int32(s)
				pos++
			}
			obsIdx++
		}
	}
	if err := cur.mustEnd(); err != nil {
		return nil, err
	}

	// The probability column: pad, then raw little-endian float64s.
	// Adopt the file bytes zero-copy when the column is 8-aligned in
	// memory and the host is little-endian; decode-copy otherwise.
	if len(cb.probs) < 1 {
		return nil, fmt.Errorf("%w: empty probability block", ErrCorrupt)
	}
	padLen := int(cb.probs[0])
	if len(cb.probs) != 1+padLen+8*totalSupp {
		return nil, fmt.Errorf("%w: probability block %d bytes, want %d",
			ErrCorrupt, len(cb.probs), 1+padLen+8*totalSupp)
	}
	raw := cb.probs[1+padLen:]
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
			return nil, fmt.Errorf("%w: non-positive observation probability %g", ErrCorrupt, p)
		}
	}

	// Materialize. One arena per slice kind: per-observation work is a
	// scatter into the shared dense arena plus two small struct
	// allocations (Vec + Distribution) — never a fresh dense vector.
	denseTotal := 0
	for i := 0; i < n; i++ {
		states := chain.NumStates()
		if ch, ok := ownChains[i]; ok {
			states = ch.NumStates()
		}
		denseTotal += counts[i] * states
		if denseTotal > maxSliceLen {
			return nil, fmt.Errorf("%w: dense backing overflow", ErrCorrupt)
		}
	}
	denseArena := make([]float64, denseTotal)
	suppArena := make([]int, totalSupp)
	obsArena := make([]core.Observation, totalObs)

	cols := core.NewObsColumns()
	type objRec struct {
		id    int
		chain *markov.Chain
		obs   []core.Observation
	}
	recs := make([]objRec, n)
	obsIdx, suppIdx, denseIdx := 0, 0, 0
	for i := 0; i < n; i++ {
		states := chain.NumStates()
		ownChain := ownChains[i]
		if ownChain != nil {
			states = ownChain.NumStates()
		}
		segStart := suppIdx
		obsStart := obsIdx
		off := offArena[:counts[i]+1]
		offArena = offArena[counts[i]+1:]
		for k := 0; k < counts[i]; k++ {
			l := int(lens[obsIdx])
			supp := suppArena[suppIdx : suppIdx+l]
			dense := denseArena[denseIdx : denseIdx+states]
			for j := 0; j < l; j++ {
				s := int(idArena[suppIdx+j])
				supp[j] = s
				dense[s] = probs[suppIdx+j]
			}
			obsArena[obsIdx] = core.Observation{
				Time: int(timesArena[obsIdx]),
				PDF:  markov.FromVec(sparse.AdoptSparse(dense, supp)),
			}
			off[k+1] = off[k] + int32(l)
			suppIdx += l
			denseIdx += states
			obsIdx++
		}
		cols.AppendSeg(ids[i], core.ObsSeg{
			Times: timesArena[obsStart:obsIdx],
			Off:   off,
			IDs:   idArena[segStart:suppIdx],
			Probs: probs[segStart:suppIdx],
		})
		recs[i] = objRec{id: ids[i], chain: ownChain, obs: obsArena[obsStart:obsIdx]}
	}

	db := core.NewDatabaseWithColumns(chain, cols)
	for _, rec := range recs {
		o, err := core.NewObjectSorted(rec.id, rec.chain, rec.obs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if err := db.Add(o); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return db, nil
}
