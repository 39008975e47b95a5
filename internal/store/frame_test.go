package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"ust/internal/core"
	"ust/internal/markov"
)

// resolverOf returns a frame resolver over the given chains.
func resolverOf(chains ...*markov.Chain) func(uint64) *markov.Chain {
	table := map[uint64]*markov.Chain{}
	for _, c := range chains {
		table[c.Fingerprint()] = c
	}
	return func(fp uint64) *markov.Chain { return table[fp] }
}

// sameObjects fails unless got holds exactly want's objects, in order,
// with bit-identical observation pdfs.
func sameObjects(t *testing.T, got *core.Database, want []*core.Object) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("decoded %d objects, want %d", got.Len(), len(want))
	}
	for i, w := range want {
		g := got.Objects()[i]
		if g.ID != w.ID || len(g.Observations) != len(w.Observations) {
			t.Fatalf("object %d: id %d with %d observations, want id %d with %d",
				i, g.ID, len(g.Observations), w.ID, len(w.Observations))
		}
		for k, wo := range w.Observations {
			gobs := g.Observations[k]
			if gobs.Time != wo.Time || gobs.PDF.NumStates() != wo.PDF.NumStates() {
				t.Fatalf("object %d observation %d: header mismatch", w.ID, k)
			}
			for s := 0; s < wo.PDF.NumStates(); s++ {
				if math.Float64bits(gobs.PDF.P(s)) != math.Float64bits(wo.PDF.P(s)) {
					t.Fatalf("object %d observation %d state %d: %v, want %v", w.ID, k, s, gobs.PDF.P(s), wo.PDF.P(s))
				}
			}
		}
	}
}

// TestFrameRoundTrip pins the frame contract: the default chain travels
// as 16 bytes, an own chain inline once and by reference after (within
// one frame too), every chain decodes to the resolver's pointer, and
// the objects come back bit for bit.
func TestFrameRoundTrip(t *testing.T) {
	db := testDB(t) // object 7 carries its own chain
	def, own := db.DefaultChain(), db.Get(7).Chain
	twin := core.MustObject(8, own, core.Observation{Time: 2, PDF: markov.PointDistribution(3, 0)})
	objs := append(append([]*core.Object(nil), db.Objects()...), twin)

	enc := NewFrameEncoder(def)
	first, err := enc.Encode(objs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeObjectFrame(first, resolverOf(def))
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if got.DefaultChain() != def {
		t.Fatal("default chain did not resolve to the receiver's pointer")
	}
	sameObjects(t, got, objs)
	inline := got.Get(7).Chain
	if inline == nil || inline == own || inline.Fingerprint() != own.Fingerprint() {
		t.Fatal("first frame must carry the own chain inline")
	}
	if got.Get(8).Chain != inline {
		t.Fatal("second object of the same chain must reference the first's inline copy")
	}

	second, err := enc.Encode(objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) >= len(first) {
		t.Fatalf("second frame is %d bytes, first %d: the own chain travelled inline again", len(second), len(first))
	}
	got, err = DecodeObjectFrame(second, resolverOf(def, own))
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	sameObjects(t, got, objs)
	if got.Get(7).Chain != own || got.Get(8).Chain != own {
		t.Fatal("referenced own chain did not resolve to the receiver's pointer")
	}

	enc.Reset()
	third, err := enc.Encode(objs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(third, first) {
		t.Fatal("after Reset the encoder must produce the first frame again")
	}
}

// TestFrameRejections covers what a receiver must refuse: a fingerprint
// it does not hold, a reference whose |S| contradicts the chain held,
// and a frame handed to the self-contained loader.
func TestFrameRejections(t *testing.T) {
	db := testDB(t)
	def := db.DefaultChain()
	frame, err := NewFrameEncoder(def).Encode(db.Objects()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeObjectFrame(frame, resolverOf()); !errors.Is(err, ErrUnknownChain) {
		t.Fatalf("unknown fingerprint: %v, want ErrUnknownChain", err)
	}
	if _, err := LoadDatabaseMapped(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frame through the self-contained loader: %v, want ErrCorrupt", err)
	}
	// The CHR0 payload follows the 12-byte header and the 4-byte tag:
	// fingerprint, then |S|.
	wrongStates := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint64(wrongStates[24:], uint64(def.NumStates()+1))
	reseal(wrongStates)
	if _, err := DecodeObjectFrame(wrongStates, resolverOf(def)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("|S| mismatch: %v, want ErrCorrupt", err)
	}
}
