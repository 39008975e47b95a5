// Package store persists chains and object databases in a compact,
// checksummed binary format, plus a JSON export for interoperability.
//
// Binary envelope, shared by both format versions (all integers
// little-endian):
//
//	magic    [4]byte  "USTD"
//	version  uint32   1 or 2
//	count    uint32   number of sections
//	sections          repeated count times:
//	  tag    [4]byte  "CHN0" | "CHR0" | "OBJ0" | "OBC0"
//	  payload          tag-specific encoding
//	footer   uint32   0xC5C5C5C5 guard
//	crc      uint32   CRC-32 (IEEE) over everything before the footer
//
//	tag   payload                                    written by
//	CHN0  the default chain inline: a CSR            SaveChain, SaveDatabase,
//	      transition matrix                          SaveDatabaseV1
//	CHR0  the default chain by reference:            FrameEncoder
//	      u64 fingerprint, u64 |S|
//	OBJ0  objects row-wise (version 1)               SaveDatabaseV1
//	OBC0  objects columnar (version 2)               SaveDatabase,
//	                                                 FrameEncoder
//
// A database image is one chain section followed by one object section.
// An image with CHN0 is self-contained (a file, a dataset upload); one
// with CHR0 is an object frame — what a fleet write ships to a worker
// that already holds the chain — and decodes only through
// DecodeObjectFrame with a resolver that knows the fingerprint
// (markov.Chain.Fingerprint). Both are the same envelope and the same
// decoder; LoadDatabaseMapped is DecodeObjectFrame without a resolver.
//
// Version 1 stores objects row-wise in OBJ0 (ids, observation times,
// sparse pdfs as (count, idx..., val...) with every integer a full
// uint64). Version 2 stores them columnar in OBC0: the observation set
// as delta-encoded parallel arrays — object ids, observation counts,
// times, support lengths, support state ids — in varint blocks, followed
// by one raw little-endian float64 probability column padded to an
// 8-aligned file offset. The columnar layout is both smaller (varints +
// deltas) and the unit of the zero-copy load path: LoadDatabaseMapped
// adopts the probability column and carves per-object segments out of
// shared arenas instead of allocating per observation. Writers emit
// version 2 (SaveDatabase) unless asked for 1 (SaveDatabaseV1); readers
// accept both.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Format constants.
var (
	magic       = [4]byte{'U', 'S', 'T', 'D'}
	tagChain    = [4]byte{'C', 'H', 'N', '0'}
	tagChainRef = [4]byte{'C', 'H', 'R', '0'}
	tagObjects  = [4]byte{'O', 'B', 'J', '0'}
	tagColumnar = [4]byte{'O', 'B', 'C', '0'}
)

const (
	formatVersion  = 1
	formatVersion2 = 2
	footerGuard    = 0xC5C5C5C5
)

// ErrCorrupt is wrapped by all integrity failures.
var ErrCorrupt = errors.New("store: corrupt file")

// ErrUnknownChain is wrapped when an image references a chain by a
// fingerprint that neither the decoder's resolver nor the image itself
// holds.
var ErrUnknownChain = errors.New("store: unknown chain fingerprint")

// writer tracks CRC over everything written.
type writer struct {
	w   *bufio.Writer
	crc hash.Hash32
	n   int64
	err error
}

func newWriter(w io.Writer) *writer {
	return &writer{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
}

func (w *writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
	if w.err == nil {
		w.crc.Write(p)
		w.n += int64(len(p))
	}
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.write(b[:])
}

func (w *writer) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.write(b[:])
}

func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) u8(v byte) { w.write([]byte{v}) }

// uvarint writes v in LEB128 — the building block of the v2 columnar
// blocks, where deltas are small and full uint64s would waste 7 bytes
// each.
func (w *writer) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	w.write(b[:binary.PutUvarint(b[:], v)])
}

// svarint writes v zigzag-encoded (object-id deltas may be negative:
// insertion order is not id order).
func (w *writer) svarint(v int64) {
	var b [binary.MaxVarintLen64]byte
	w.write(b[:binary.PutVarint(b[:], v)])
}

// offset returns the number of bytes written so far — the file offset of
// the next write, used to pad the v2 probability column to 8 alignment.
func (w *writer) offset() int64 { return w.n }

// block buffers f's output and emits it as a u64-length-prefixed block —
// the v2 sub-section framing that lets readers slice without parsing and
// bound every allocation by a checked length.
func (w *writer) block(f func(*writer)) {
	if w.err != nil {
		return
	}
	var buf bytes.Buffer
	sub := newWriter(&buf)
	f(sub)
	if sub.err != nil {
		w.err = sub.err
		return
	}
	if err := sub.w.Flush(); err != nil {
		w.err = err
		return
	}
	w.u64(uint64(buf.Len()))
	w.write(buf.Bytes())
}

func (w *writer) ints(vs []int) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		if v < 0 {
			w.err = fmt.Errorf("store: negative index %d", v)
			return
		}
		w.u64(uint64(v))
	}
}

func (w *writer) floats(vs []float64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}

// finish writes the footer guard and CRC and flushes.
func (w *writer) finish() error {
	if w.err != nil {
		return w.err
	}
	sum := w.crc.Sum32()
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], footerGuard)
	binary.LittleEndian.PutUint32(b[4:], sum)
	if _, err := w.w.Write(b[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// reader tracks CRC over everything read before the footer, and how
// many bytes are left: a length prefix may not claim more elements than
// that, so what a corrupt prefix can make the decoder allocate is
// bounded by the bytes present.
type reader struct {
	r    io.Reader
	crc  hash.Hash32
	err  error
	left int
	// word receives fixed-width integers: a local array would escape
	// through the io.Reader and hash interfaces, one allocation per read.
	word [8]byte
}

func newReader(r *bytes.Reader) *reader {
	return &reader{r: bufio.NewReader(r), crc: crc32.NewIEEE(), left: r.Len()}
}

// newRawReader wraps r without buffering, so the caller can measure
// exactly how many bytes a nested decode consumed (the v2 loader parses
// the chain section in place).
func newRawReader(r *bytes.Reader) *reader {
	return &reader{r: r, crc: crc32.NewIEEE(), left: r.Len()}
}

func (r *reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	_, r.err = io.ReadFull(r.r, p)
	if r.err != nil {
		return false
	}
	r.left -= len(p)
	r.crc.Write(p)
	return true
}

// count reads a length prefix for elements of at least size bytes each
// and checks it against the bytes left.
func (r *reader) count(size int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.left/size) {
		r.err = fmt.Errorf("%w: %d elements of %d bytes, %d bytes left", ErrCorrupt, n, size, r.left)
		return 0
	}
	return int(n)
}

func (r *reader) u32() uint32 {
	if !r.read(r.word[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.word[:4])
}

func (r *reader) u64() uint64 {
	if !r.read(r.word[:]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.word[:])
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// maxSliceLen guards length prefixes against corrupt files asking for
// absurd allocations.
const maxSliceLen = 1 << 31

func (r *reader) ints() []int {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		v := r.u64()
		if v > math.MaxInt64 {
			r.err = fmt.Errorf("%w: index overflow", ErrCorrupt)
			return nil
		}
		out[i] = int(v)
	}
	return out
}

func (r *reader) floats() []float64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}
