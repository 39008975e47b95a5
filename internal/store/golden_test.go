package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ust/internal/core"
	"ust/internal/gen"
	"ust/internal/markov"
)

// The golden images under testdata were written by the store's writers
// of the time, over fixtureDB and testDB:
//
//	v1.ustd            fixtureDB, format version 1 (row-wise OBJ0)
//	v2.ustd            fixtureDB, format version 2 (SaveDatabase)
//	db.json            fixtureDB, the JSON interchange document
//	chain.ustd         testDB's default chain (SaveChain)
//	frame-inline.ustd  fixtureDB's objects, the first frame of a fresh
//	                   FrameEncoder: own chain inline once, then by
//	                   reference within the frame
//	frame-ref.ustd     the same objects, the encoder's second frame:
//	                   every chain by reference
//
// Nothing writes the version-1 and JSON forms, so those two images
// cannot be regenerated: they are inputs the readers must keep
// accepting. The other four pin today's writers byte for byte
// (TestStoreBytesPinned).

// fixtureDB is the database of the golden images: a small generated
// dataset whose every third object carries a second observation
// (genDB), and two of whose single-observation objects share an own
// chain. Every pdf is renormalized the way the version-1 and JSON
// readers build it, so both legacy images load to this very database.
func fixtureDB(t testing.TB) *core.Database {
	t.Helper()
	p := gen.Params{NumObjects: 9, NumStates: 24, ObjectSpread: 3, StateSpread: 3, MaxStep: 6, Seed: 35}
	db := genDB(t, p)
	p.Seed = 36
	own := gen.MustGenerate(p).Chain
	for _, o := range db.Objects() {
		chain := o.Chain
		if o.ID == 1 || o.ID == 4 {
			chain = own
		}
		obs := make([]core.Observation, len(o.Observations))
		for k, ob := range o.Observations {
			sup := ob.PDF.Support()
			vals := make([]float64, len(sup))
			for j, s := range sup {
				vals[j] = ob.PDF.P(s)
			}
			pdf, err := markov.WeightedOver(ob.PDF.NumStates(), sup, vals)
			if err != nil {
				t.Fatal(err)
			}
			obs[k] = core.Observation{Time: ob.Time, PDF: pdf}
		}
		if err := db.ReplaceObject(core.MustObject(o.ID, chain, obs...)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// golden reads a fixture from testdata.
func golden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreBytesPinned pins every writer to the golden images: the
// database image, the chain image and both frames of a fresh encoder
// are byte-identical to what the writers produced when the fixtures
// were recorded.
func TestStoreBytesPinned(t *testing.T) {
	db := fixtureDB(t)
	var chain bytes.Buffer
	if err := SaveChain(&chain, testDB(t).DefaultChain()); err != nil {
		t.Fatal(err)
	}
	enc := NewFrameEncoder(db.DefaultChain())
	inline, err := enc.Encode(db.Objects())
	if err != nil {
		t.Fatal(err)
	}
	byRef, err := enc.Encode(db.Objects())
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"v2.ustd":           saveV2(t, db),
		"chain.ustd":        chain.Bytes(),
		"frame-inline.ustd": inline,
		"frame-ref.ustd":    byRef,
	} {
		if want := golden(t, name); !bytes.Equal(got, want) {
			t.Errorf("%s: writer produced %d bytes that differ from the %d-byte fixture", name, len(got), len(want))
		}
	}
}
