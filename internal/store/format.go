// Package store persists chains and object databases in a compact,
// checksummed binary format, and reads the JSON interchange form.
//
// Binary envelope, shared by both format versions (all integers
// little-endian):
//
//	magic    [4]byte  "USTD"
//	version  uint32   1 or 2
//	count    uint32   number of sections
//	sections          repeated count times:
//	  tag    [4]byte  "CHN0" | "CHR0" | "OBJ0" | "OBC0" | "OBS0"
//	  payload          tag-specific encoding
//	footer   uint32   0xC5C5C5C5 guard
//	crc      uint32   CRC-32 (IEEE) over everything before the footer
//
//	tag   payload                                    written by
//	CHN0  the default chain inline: a CSR            SaveChain, SaveDatabase
//	      transition matrix
//	CHR0  the default chain by reference:            FrameEncoder
//	      u64 fingerprint, u64 |S|
//	OBJ0  objects row-wise (version 1)               nothing: read only
//	OBC0  objects columnar (version 2)               SaveDatabase,
//	                                                 FrameEncoder
//	OBS0  one object's observations, ungrounded:     EncodeObservationFrame
//	      object id, then each pdf's values as
//	      OBC0 lays them out (obsframe.go)
//
// A database image is one chain section followed by one object section.
// An image with CHN0 is self-contained (a file, a dataset upload); one
// with CHR0 is an object frame — what a fleet write ships to a worker
// that already holds the chain — and decodes only through
// DecodeObjectFrame with a resolver that knows the fingerprint
// (markov.Chain.Fingerprint). Both are the same envelope and the same
// decoder; LoadDatabaseMapped is DecodeObjectFrame without a resolver.
// An image whose one section is OBS0 is an observation frame — what a
// client sends to ingest a sighting — and decodes only through
// DecodeObservationFrame, into values its receiver grounds against its
// own state space.
//
// Version 1 stores objects row-wise in OBJ0 (ids, observation times,
// sparse pdfs as (count, idx..., val...) with every integer a full
// uint64). Version 2 stores them columnar in OBC0: the observation set
// as delta-encoded parallel arrays — object ids, observation counts,
// times, support lengths, support state ids — in varint blocks, followed
// by one raw little-endian float64 probability column padded to an
// 8-aligned file offset. The columnar layout is both smaller (varints +
// deltas) and the unit of the zero-copy load path: LoadDatabaseMapped
// adopts the probability column and makes each pdf a view over its slice
// of the state and probability columns instead of allocating per
// observation. Databases are
// written as version 2 only (SaveChain still writes its one section as
// version 1); readers accept both.
//
// One codec carries every image. A writer appends the image into one
// byte slice sized up front and seals it with the footer; a cursor
// decodes it once the envelope has verified the footer and CRC.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// Format constants.
var (
	magic       = [4]byte{'U', 'S', 'T', 'D'}
	tagChain    = [4]byte{'C', 'H', 'N', '0'}
	tagChainRef = [4]byte{'C', 'H', 'R', '0'}
	tagObjects  = [4]byte{'O', 'B', 'J', '0'}
	tagColumnar = [4]byte{'O', 'B', 'C', '0'}
	// tagObservations marks an observation frame's one section.
	tagObservations = [4]byte{'O', 'B', 'S', '0'}
)

const (
	formatVersion  = 1
	formatVersion2 = 2
	footerGuard    = 0xC5C5C5C5
	headerLen      = 4 + 4 + 4 // magic, version, section count
	footerLen      = 4 + 4     // guard, CRC
)

// ErrCorrupt is wrapped by all integrity failures.
var ErrCorrupt = errors.New("store: corrupt file")

// ErrUnknownChain is wrapped when an image references a chain by a
// fingerprint that neither the decoder's resolver nor the image itself
// holds.
var ErrUnknownChain = errors.New("store: unknown chain fingerprint")

// writer appends one image to buf: fixed-width fields little-endian,
// varints as LEB128. err holds the first value the format cannot carry.
type writer struct {
	buf []byte
	err error
}

// newWriter starts an image whose sections take at most size bytes —
// the buffer is allocated once, header and footer included — and
// appends the envelope header.
func newWriter(size int, version, sections uint32) *writer {
	w := &writer{buf: make([]byte, 0, headerLen+size+footerLen)}
	w.raw(magic[:])
	w.u32(version)
	w.u32(sections)
	return w
}

func (w *writer) raw(p []byte)     { w.buf = append(w.buf, p...) }
func (w *writer) u32(v uint32)     { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) svarint(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }

// chainRef appends a chain reference: fingerprint, then |S|.
func (w *writer) chainRef(c *markov.Chain) {
	w.u64(c.Fingerprint())
	w.u64(uint64(c.NumStates()))
}

// block appends f's output as a u64-length-prefixed block — the v2
// sub-section framing that lets readers slice without parsing and bound
// every allocation by a checked length. The length is reserved and
// patched in place.
func (w *writer) block(f func()) {
	w.u64(0)
	start := len(w.buf)
	f()
	binary.LittleEndian.PutUint64(w.buf[start-8:], uint64(len(w.buf)-start))
}

// finish appends the footer guard and the CRC of everything before it —
// what envelope verifies — and returns the image.
func (w *writer) finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	sum := crc32.ChecksumIEEE(w.buf)
	w.u32(footerGuard)
	w.u32(sum)
	return w.buf, nil
}

// csrLen is the encoded length of a CSR matrix: dimensions, then row
// lengths, columns and values, each a u64 count and 8-byte elements.
func csrLen(m *sparse.CSR) int { return 8*(5+m.Rows()) + 16*m.NNZ() }

// writeCSR appends m row-major: dimensions, row lengths, every column
// index, every value.
func writeCSR(w *writer, m *sparse.CSR) {
	rows, cols := m.Dims()
	w.u64(uint64(rows))
	w.u64(uint64(cols))
	w.u64(uint64(rows))
	for i := 0; i < rows; i++ {
		w.u64(uint64(m.RowNNZ(i)))
	}
	w.u64(uint64(m.NNZ()))
	for i := 0; i < rows; i++ {
		ci, _ := m.RowSlices(i)
		for _, j := range ci {
			w.u64(uint64(j))
		}
	}
	w.u64(uint64(m.NNZ()))
	for i := 0; i < rows; i++ {
		_, vi := m.RowSlices(i)
		for _, v := range vi {
			w.f64(v)
		}
	}
}

// envelope verifies the footer guard and CRC of a complete in-memory
// image *before* any parsing (so corrupt length prefixes can never reach
// an allocation) and returns the version, the section count and a
// cursor over the sections. The cursor's offsets are file offsets.
func envelope(data []byte) (version, sections uint32, c cursor, err error) {
	if len(data) < headerLen+footerLen {
		return 0, 0, c, corrupt("file too short (%d bytes)", len(data))
	}
	body, footer := data[:len(data)-footerLen], data[len(data)-footerLen:]
	guard := binary.LittleEndian.Uint32(footer[:4])
	if guard != footerGuard {
		return 0, 0, c, corrupt("bad footer guard %#x", guard)
	}
	if got, want := binary.LittleEndian.Uint32(footer[4:]), crc32.ChecksumIEEE(body); got != want {
		return 0, 0, c, corrupt("CRC mismatch: file %#x, computed %#x", got, want)
	}
	if *(*[4]byte)(body[:4]) != magic {
		return 0, 0, c, corrupt("bad magic %q", body[:4])
	}
	version = binary.LittleEndian.Uint32(body[4:8])
	sections = binary.LittleEndian.Uint32(body[8:12])
	return version, sections, cursor{b: body, off: headerLen}, nil
}

// cursor decodes a verified image. b holds the image up to the end of
// the cursor's window (a section, a block), off is a file offset, and
// the first failure sticks: later reads return zero values, so a decoder
// checks err once per group of fields. Every length prefix is checked
// against the bytes left in the window, so what a corrupt prefix can
// make the decoder allocate is bounded by the bytes present.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) left() int { return len(c.b) - c.off }

// corrupt returns an ErrCorrupt naming what is wrong.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = corrupt(format, args...)
	}
}

// take returns the next n bytes, or nil once the cursor has failed.
func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > c.left() {
		c.fail("truncated: %d bytes wanted, %d left", n, c.left())
		return nil
	}
	p := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return p
}

func (c *cursor) tag() (t [4]byte) {
	if p := c.take(4); p != nil {
		t = [4]byte(p)
	}
	return t
}

func (c *cursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("truncated varint")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) svarint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("truncated varint")
		return 0
	}
	c.off += n
	return v
}

// block reads a u64 length prefix and returns a cursor over that many
// bytes, which this cursor moves past.
func (c *cursor) block() cursor {
	n := c.u64()
	if c.err == nil && n > uint64(c.left()) {
		c.fail("block length %d exceeds the %d bytes left", n, c.left())
	}
	if c.err != nil {
		return cursor{err: c.err}
	}
	start := c.off
	c.off += int(n)
	return cursor{b: c.b[:c.off], off: start}
}

// end fails unless the window is consumed.
func (c *cursor) end() {
	if c.err == nil && c.left() != 0 {
		c.fail("%d trailing bytes", c.left())
	}
}

// count reads a length prefix for elements of size bytes each and
// checks it against the bytes left.
func (c *cursor) count(size int) int {
	n := c.u64()
	if c.err == nil && n > uint64(c.left()/size) {
		c.fail("%d elements of %d bytes, %d bytes left", n, size, c.left())
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

// maxSliceLen guards dimensions and counts against corrupt files asking
// for absurd allocations.
const maxSliceLen = 1 << 31

// ints reads a counted array of u64s that must fit an int.
func (c *cursor) ints() []int {
	p := c.take(8 * c.count(8))
	out := make([]int, len(p)/8)
	for i := range out {
		v := binary.LittleEndian.Uint64(p[8*i:])
		if v > math.MaxInt64 {
			c.fail("index overflow")
			return nil
		}
		out[i] = int(v)
	}
	return out
}

// floats reads a counted array of float64s.
func (c *cursor) floats() []float64 {
	p := c.take(8 * c.count(8))
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// readCSR decodes what writeCSR wrote. Each row's columns must be
// strictly ascending and inside the matrix — every writer emits them
// so, and sparse.FromRows panics on a repeated column.
func readCSR(c *cursor) *sparse.CSR {
	rows, cols := c.u64(), c.u64()
	rowLens := c.ints()
	colIdx := c.ints()
	vals := c.floats()
	switch {
	case c.err != nil:
		return nil
	case rows > maxSliceLen || cols > maxSliceLen || uint64(len(rowLens)) != rows:
		c.fail("inconsistent matrix header")
		return nil
	case len(colIdx) != len(vals):
		c.fail("%d columns but %d values", len(colIdx), len(vals))
		return nil
	}
	pos := 0
	for i, l := range rowLens {
		if l > len(colIdx)-pos {
			c.fail("row %d claims %d of the %d entries left", i, l, len(colIdx)-pos)
			return nil
		}
		prev := -1
		for _, j := range colIdx[pos : pos+l] {
			if j <= prev || j >= int(cols) {
				c.fail("row %d: column %d after %d in %d columns", i, j, prev, cols)
				return nil
			}
			prev = j
		}
		pos += l
	}
	if pos != len(colIdx) {
		c.fail("row lengths sum to %d, have %d entries", pos, len(colIdx))
		return nil
	}
	pos = 0
	return sparse.FromRows(int(rows), int(cols), func(i int) ([]int, []float64) {
		l := rowLens[i]
		pos += l
		return colIdx[pos-l : pos], vals[pos-l : pos]
	})
}

// readChain decodes a CSR and validates it as a transition matrix.
func readChain(c *cursor) *markov.Chain {
	m := readCSR(c)
	if m == nil {
		return nil
	}
	chain, err := markov.NewChain(m)
	if err != nil {
		c.fail("%v", err)
		return nil
	}
	return chain
}
