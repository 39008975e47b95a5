package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/sparse"
)

// SaveChain writes a single chain.
func SaveChain(w io.Writer, c *markov.Chain) error {
	out := newWriter(w)
	out.write(magic[:])
	out.u32(formatVersion)
	out.u32(1) // section count
	writeChainSection(out, c)
	return out.finish()
}

// LoadChain reads a file written by SaveChain.
func LoadChain(r io.Reader) (*markov.Chain, error) {
	in, sections, err := openFile(r)
	if err != nil {
		return nil, err
	}
	var chain *markov.Chain
	for i := uint32(0); i < sections; i++ {
		tag, terr := readTag(in)
		if terr != nil {
			return nil, terr
		}
		switch tag {
		case tagChain:
			chain, err = readChain(in)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unexpected section %q", ErrCorrupt, tag)
		}
	}
	if err := checkFooter(in); err != nil {
		return nil, err
	}
	if chain == nil {
		return nil, fmt.Errorf("%w: no chain section", ErrCorrupt)
	}
	return chain, nil
}

// SaveDatabase writes the default chain and all objects in the current
// (columnar, version-2) format.
func SaveDatabase(w io.Writer, db *core.Database) error {
	out := newWriter(w)
	out.write(magic[:])
	out.u32(formatVersion2)
	out.u32(2)
	writeChainSection(out, db.DefaultChain())
	writeColumnarSection(out, db.Objects(), segments(db), nil)
	return out.finish()
}

// SaveDatabaseV1 writes the database in the legacy row-oriented
// version-1 format, for interchange with older readers.
func SaveDatabaseV1(w io.Writer, db *core.Database) error {
	out := newWriter(w)
	out.write(magic[:])
	out.u32(formatVersion)
	out.u32(2)
	writeChainSection(out, db.DefaultChain())
	writeObjectsSection(out, db)
	return out.finish()
}

// LoadDatabase reads a file written by SaveDatabase (either version).
func LoadDatabase(r io.Reader) (*core.Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return LoadDatabaseMapped(data)
}

// loadV1 decodes the sections of a version-1 body.
func loadV1(in *reader, sections uint32) (*core.Database, error) {
	var chain *markov.Chain
	var pending func(*core.Database) error
	var err error
	for i := uint32(0); i < sections; i++ {
		tag, terr := readTag(in)
		if terr != nil {
			return nil, terr
		}
		switch tag {
		case tagChain:
			chain, err = readChain(in)
			if err != nil {
				return nil, err
			}
		case tagObjects:
			pending, err = readObjects(in)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unexpected section %q", ErrCorrupt, tag)
		}
	}
	if err := checkFooter(in); err != nil {
		return nil, err
	}
	if chain == nil {
		return nil, fmt.Errorf("%w: no chain section", ErrCorrupt)
	}
	db := core.NewDatabase(chain)
	if pending != nil {
		if err := pending(db); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// envelope verifies the footer guard and CRC of a complete in-memory
// file image *before* any parsing (so corrupt length prefixes can never
// reach an allocation) and returns the version, section count and body
// (everything before the footer, header included — offsets into body are
// file offsets).
func envelope(data []byte) (version, sections uint32, body []byte, err error) {
	const headerLen = 4 + 4 + 4 // magic + version + section count
	if len(data) < headerLen+8 {
		return 0, 0, nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, len(data))
	}
	body, footer := data[:len(data)-8], data[len(data)-8:]
	guard := binary.LittleEndian.Uint32(footer[:4])
	if guard != footerGuard {
		return 0, 0, nil, fmt.Errorf("%w: bad footer guard %#x", ErrCorrupt, guard)
	}
	if got, want := binary.LittleEndian.Uint32(footer[4:]), crc32.ChecksumIEEE(body); got != want {
		return 0, 0, nil, fmt.Errorf("%w: CRC mismatch: file %#x, computed %#x", ErrCorrupt, got, want)
	}
	if *(*[4]byte)(body[:4]) != magic {
		return 0, 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, body[:4])
	}
	version = binary.LittleEndian.Uint32(body[4:8])
	sections = binary.LittleEndian.Uint32(body[8:12])
	return version, sections, body, nil
}

// openFile buffers the entire stream, verifies the envelope, and returns
// a version-1 reader positioned after the header.
func openFile(r io.Reader) (*reader, uint32, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	version, sections, body, err := envelope(data)
	if err != nil {
		return nil, 0, err
	}
	if version != formatVersion {
		return nil, 0, fmt.Errorf("store: unsupported version %d (supported: %d)", version, formatVersion)
	}
	in := newReader(bytes.NewReader(body[12:]))
	return in, sections, nil
}

func readTag(in *reader) ([4]byte, error) {
	var tag [4]byte
	if !in.read(tag[:]) {
		return tag, fmt.Errorf("%w: short section tag: %v", ErrCorrupt, in.err)
	}
	return tag, nil
}

// checkFooter runs after all sections are parsed; the CRC was already
// verified by openFile, so the only remaining check is that no trailing
// garbage follows the last section.
func checkFooter(in *reader) error {
	var b [1]byte
	if _, err := in.r.Read(b[:]); err != io.EOF {
		return fmt.Errorf("%w: trailing bytes after last section", ErrCorrupt)
	}
	return nil
}

func writeChainSection(out *writer, c *markov.Chain) {
	out.write(tagChain[:])
	writeCSR(out, c.Matrix())
}

func writeCSR(out *writer, m *sparse.CSR) {
	rows, cols := m.Dims()
	out.u64(uint64(rows))
	out.u64(uint64(cols))
	rowLens := make([]int, rows)
	var colIdx []int
	var vals []float64
	for i := 0; i < rows; i++ {
		ci, vi := m.RowSlices(i)
		rowLens[i] = len(ci)
		colIdx = append(colIdx, ci...)
		vals = append(vals, vi...)
	}
	out.ints(rowLens)
	out.ints(colIdx)
	out.floats(vals)
}

func readChain(in *reader) (*markov.Chain, error) {
	m, err := readCSR(in)
	if err != nil {
		return nil, err
	}
	chain, err := markov.NewChain(m)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return chain, nil
}

func readCSR(in *reader) (*sparse.CSR, error) {
	rows := in.u64()
	cols := in.u64()
	rowLens := in.ints()
	colIdx := in.ints()
	vals := in.floats()
	if in.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, in.err)
	}
	if rows > maxSliceLen || cols > maxSliceLen || uint64(len(rowLens)) != rows {
		return nil, fmt.Errorf("%w: inconsistent matrix header", ErrCorrupt)
	}
	if len(colIdx) != len(vals) {
		return nil, fmt.Errorf("%w: %d columns but %d values", ErrCorrupt, len(colIdx), len(vals))
	}
	total := 0
	for _, l := range rowLens {
		total += l
	}
	if total != len(colIdx) {
		return nil, fmt.Errorf("%w: row lengths sum to %d, have %d entries", ErrCorrupt, total, len(colIdx))
	}
	pos := 0
	nCols := int(cols)
	for _, j := range colIdx {
		if j >= nCols {
			return nil, fmt.Errorf("%w: column %d outside %d", ErrCorrupt, j, nCols)
		}
	}
	m := sparse.FromRows(int(rows), nCols, func(i int) ([]int, []float64) {
		l := rowLens[i]
		ci := colIdx[pos : pos+l]
		vi := vals[pos : pos+l]
		pos += l
		return ci, vi
	})
	return m, nil
}

func writeObjectsSection(out *writer, db *core.Database) {
	out.write(tagObjects[:])
	objs := db.Objects()
	out.u64(uint64(len(objs)))
	for _, o := range objs {
		out.u64(uint64(o.ID))
		if o.Chain != nil {
			out.u32(1)
			writeCSR(out, o.Chain.Matrix())
		} else {
			out.u32(0)
		}
		out.u64(uint64(len(o.Observations)))
		for _, ob := range o.Observations {
			out.u64(uint64(ob.Time))
			sup := ob.PDF.Support()
			vals := make([]float64, len(sup))
			for k, s := range sup {
				vals[k] = ob.PDF.P(s)
			}
			out.u64(uint64(ob.PDF.NumStates()))
			out.ints(sup)
			out.floats(vals)
		}
	}
}

// readObjects decodes the object section into a deferred insertion
// function; the database cannot be built until the chain section is
// known, and sections may arrive in either order. The pdfs are built
// there too, once each one's stated dimension is checked against its
// object's chain: building first would let a stated |S| — a number, not
// bytes — size the construction.
func readObjects(in *reader) (func(*core.Database) error, error) {
	// An object takes at least 28 bytes: id, chain flag, observation count
	// and one observation's time.
	count := in.count(28)
	if in.err != nil {
		return nil, fmt.Errorf("%w: bad object count: %v", ErrCorrupt, in.err)
	}
	type obsRec struct {
		time, states int
		idx          []int
		vals         []float64
	}
	type objRec struct {
		id    int
		chain *markov.Chain
		obs   []obsRec
	}
	recs := make([]objRec, 0, count)
	for i := 0; i < count; i++ {
		var rec objRec
		rec.id = int(in.u64())
		hasChain := in.u32()
		if in.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, in.err)
		}
		if hasChain == 1 {
			c, err := readChain(in)
			if err != nil {
				return nil, err
			}
			rec.chain = c
		} else if hasChain != 0 {
			return nil, fmt.Errorf("%w: bad chain flag %d", ErrCorrupt, hasChain)
		}
		nObs := in.u64()
		if in.err != nil || nObs > maxSliceLen {
			return nil, fmt.Errorf("%w: bad observation count", ErrCorrupt)
		}
		for k := uint64(0); k < nObs; k++ {
			tm := int(in.u64())
			nU := in.u64()
			if nU == 0 || nU > maxSliceLen {
				return nil, fmt.Errorf("%w: observation pdf over %d states", ErrCorrupt, nU)
			}
			idx := in.ints()
			vals := in.floats()
			if in.err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, in.err)
			}
			rec.obs = append(rec.obs, obsRec{time: tm, states: int(nU), idx: idx, vals: vals})
		}
		recs = append(recs, rec)
	}
	return func(db *core.Database) error {
		for _, rec := range recs {
			states := db.DefaultChain().NumStates()
			if rec.chain != nil {
				states = rec.chain.NumStates()
			}
			obs := make([]core.Observation, len(rec.obs))
			for k, ob := range rec.obs {
				if ob.states != states {
					return fmt.Errorf("%w: object %d observation over %d states, chain has %d",
						ErrCorrupt, rec.id, ob.states, states)
				}
				pdf, err := markov.WeightedOver(ob.states, ob.idx, ob.vals)
				if err != nil {
					return fmt.Errorf("%w: bad observation pdf: %v", ErrCorrupt, err)
				}
				obs[k] = core.Observation{Time: ob.time, PDF: pdf}
			}
			o, err := core.NewObject(rec.id, rec.chain, obs...)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if err := db.Add(o); err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
		return nil
	}, nil
}
