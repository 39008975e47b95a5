package store

import (
	"fmt"
	"io"

	"ust/internal/core"
	"ust/internal/markov"
)

// SaveChain writes a single chain.
func SaveChain(w io.Writer, c *markov.Chain) error {
	out := newWriter(4+csrLen(c.Matrix()), formatVersion, 1)
	writeChainSection(out, c)
	return writeImage(w, out)
}

// LoadChain reads a file written by SaveChain: an image of chain
// sections and no objects.
func LoadChain(r io.Reader) (*markov.Chain, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	_, s, err := readImage(data, &chainLookup{})
	switch {
	case err != nil:
		return nil, err
	case s.rows != nil || s.cols != nil:
		return nil, corrupt("object section in a chain image")
	case s.chain == nil:
		return nil, corrupt("no chain section")
	}
	return s.chain, nil
}

// SaveDatabase writes the default chain and all objects in the current
// (columnar, version-2) format.
func SaveDatabase(w io.Writer, db *core.Database) error {
	objs, def := db.Objects(), db.DefaultChain()
	out := newWriter(4+csrLen(def.Matrix())+columnarLen(objs), formatVersion2, 2)
	writeChainSection(out, def)
	writeColumnarSection(out, objs, nil)
	return writeImage(w, out)
}

// LoadDatabase reads a file written by SaveDatabase (either version).
func LoadDatabase(r io.Reader) (*core.Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return LoadDatabaseMapped(data)
}

// writeImage seals out and hands the image to w in one Write.
func writeImage(w io.Writer, out *writer) error {
	image, err := out.finish()
	if err != nil {
		return err
	}
	_, err = w.Write(image)
	return err
}

func writeChainSection(out *writer, c *markov.Chain) {
	out.raw(tagChain[:])
	writeCSR(out, c.Matrix())
}

// decoded is what the sections of one image decode to.
type decoded struct {
	chain *markov.Chain              // CHN0 or CHR0
	rows  func(*core.Database) error // OBJ0: adds the version-1 objects
	cols  *columnarBlocks            // OBC0, skimmed
}

// readImage verifies data's envelope and decodes its sections: CHN0 and
// OBJ0 in a version-1 image, CHN0, CHR0 and OBC0 in a version-2 one.
// Chain references resolve through chains, which collects the chains
// the image carries inline.
func readImage(data []byte, chains *chainLookup) (uint32, decoded, error) {
	var s decoded
	version, n, c, err := envelope(data)
	if err != nil {
		return 0, s, err
	}
	if version != formatVersion && version != formatVersion2 {
		return 0, s, fmt.Errorf("store: unsupported version %d (supported: %d, %d)",
			version, formatVersion, formatVersion2)
	}
	for i := uint32(0); i < n && c.err == nil; i++ {
		switch tag := c.tag(); {
		case c.err != nil:
		case tag == tagChain:
			if s.chain = readChain(&c); s.chain != nil {
				chains.inline = append(chains.inline, s.chain)
			}
		case tag == tagChainRef && version == formatVersion2:
			s.chain = chains.deref(&c)
		case tag == tagObjects && version == formatVersion:
			s.rows = readObjects(&c)
		case tag == tagColumnar && version == formatVersion2:
			s.cols = skimColumnar(&c)
		default:
			c.fail("unexpected section %q", tag)
		}
	}
	c.end()
	return version, s, c.err
}

// readObjects decodes a version-1 object section into a deferred
// insertion function: the database cannot be built until the chain
// section is known, and sections may arrive in either order. The pdfs
// are built there too, once each one's stated dimension is checked
// against its object's chain: building first would let a stated |S| — a
// number, not bytes — size the construction.
func readObjects(c *cursor) func(*core.Database) error {
	// An object takes at least 28 bytes: id, chain flag, observation count
	// and one observation's time.
	count := c.count(28)
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
	for i := 0; i < count && c.err == nil; i++ {
		rec := objRec{id: int(c.u64())}
		switch flag := c.u32(); flag {
		case 0:
		case 1:
			rec.chain = readChain(c)
		default:
			c.fail("bad chain flag %d", flag)
		}
		nObs := c.u64()
		if c.err == nil && nObs > maxSliceLen {
			c.fail("bad observation count %d", nObs)
		}
		for k := uint64(0); k < nObs && c.err == nil; k++ {
			tm := int(c.u64())
			nU := c.u64()
			if c.err == nil && (nU == 0 || nU > maxSliceLen) {
				c.fail("observation pdf over %d states", nU)
			}
			idx := c.ints()
			vals := c.floats()
			rec.obs = append(rec.obs, obsRec{time: tm, states: int(nU), idx: idx, vals: vals})
		}
		recs = append(recs, rec)
	}
	if c.err != nil {
		return nil
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
					return corrupt("object %d observation over %d states, chain has %d", rec.id, ob.states, states)
				}
				pdf, err := markov.WeightedOver(ob.states, ob.idx, ob.vals)
				if err != nil {
					return corrupt("bad observation pdf: %v", err)
				}
				obs[k] = core.Observation{Time: ob.time, PDF: pdf}
			}
			o, err := core.NewObject(rec.id, rec.chain, obs...)
			if err != nil {
				return corrupt("%v", err)
			}
			if err := db.Add(o); err != nil {
				return corrupt("%v", err)
			}
		}
		return nil
	}
}
