package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeStoreV2 hammers the mapped decoder with arbitrary bytes,
// seeded with valid v1 and v2 images and systematic truncations. The
// contract: never panic, never allocate unboundedly; failures are
// ErrCorrupt (or a clean unsupported-version error), and any input that
// decodes successfully must re-encode successfully.
func FuzzDecodeStoreV2(f *testing.F) {
	db := testDB(f)
	var v2, v1 bytes.Buffer
	if err := SaveDatabase(&v2, db); err != nil {
		f.Fatal(err)
	}
	if err := SaveDatabaseV1(&v1, db); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	for _, cut := range []int{0, 4, 12, 16, len(v2.Bytes()) / 2, len(v2.Bytes()) - 9, len(v2.Bytes()) - 1} {
		if cut >= 0 && cut <= v2.Len() {
			f.Add(v2.Bytes()[:cut])
		}
	}
	// A CRC-valid file with a corrupt interior exercises the parser
	// (not just the checksum gate).
	inner := append([]byte(nil), v2.Bytes()...)
	if len(inner) > 40 {
		inner[30] ^= 0xff
		fixupCRC(inner)
		f.Add(inner)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadDatabaseMapped(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !bytes.Contains([]byte(err.Error()), []byte("unsupported version")) {
				t.Fatalf("decode error outside the contract: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := SaveDatabase(&out, loaded); err != nil {
			t.Fatalf("decoded database failed to re-encode: %v", err)
		}
	})
}

// FuzzDecodeObjectFrame hammers the frame decoder — what a worker runs
// on every /import body — with arbitrary bytes against a receiver that
// holds the default chain and one own chain. Seeds: frames with the own
// chain inline and by reference, a full image, truncations, and
// CRC-valid frames with a corrupt interior (so the section parser is
// reached, not just the checksum gate). The contract: never panic;
// failures are ErrCorrupt, ErrUnknownChain or a clean
// unsupported-version error; whatever decodes re-encodes as a frame.
func FuzzDecodeObjectFrame(f *testing.F) {
	db := testDB(f) // object 7 carries its own chain
	def, own := db.DefaultChain(), db.Get(7).Chain
	enc := NewFrameEncoder(def)
	inline, err := enc.Encode(db.Objects())
	if err != nil {
		f.Fatal(err)
	}
	byRef, err := enc.Encode(db.Objects())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(inline)
	f.Add(byRef)
	f.Add(saveV2(f, db))
	for _, cut := range []int{0, 12, 16, 31, 32, len(byRef) / 2, len(byRef) - 9, len(byRef) - 1} {
		f.Add(byRef[:cut])
	}
	for at := 12; at < len(byRef)-8; at += 7 {
		bad := append([]byte(nil), byRef...)
		bad[at] ^= 0xff
		fixupCRC(bad)
		f.Add(bad)
	}
	resolve := resolverOf(def, own)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeObjectFrame(data, resolve)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnknownChain) &&
				!bytes.Contains([]byte(err.Error()), []byte("unsupported version")) {
				t.Fatalf("decode error outside the contract: %v", err)
			}
			return
		}
		if _, err := NewFrameEncoder(got.DefaultChain()).Encode(got.Objects()); err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
	})
}
