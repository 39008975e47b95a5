package store

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/sparse"
)

// decodeAllocLimit is the most decoding data may allocate: a linear
// bound in the bytes present. Every element a decoder sizes an
// allocation from costs at least one byte of the image — an observation
// at least eleven (time, length, state, 8-byte mass) — so a count or a
// state-space size trusted from a header, which would buy |S| floats per
// observation, breaks it by orders of magnitude.
func decodeAllocLimit(data []byte) uint64 { return 1<<16 + 128*uint64(len(data)) }

// decodeAlloc returns what decode allocated, in bytes.
func decodeAlloc(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeStoreV2 hammers the mapped decoder with arbitrary bytes,
// seeded with valid v1 and v2 images and systematic truncations. The
// contract: never panic, never allocate unboundedly; failures are
// ErrCorrupt (or a clean unsupported-version error), and any input that
// decodes successfully must re-encode successfully. Decoding allocates
// within decodeAllocLimit.
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
		var loaded *core.Database
		var err error
		if grew, limit := decodeAlloc(func() { loaded, err = LoadDatabaseMapped(data) }), decodeAllocLimit(data); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), grew, limit)
		}
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
// unsupported-version error; whatever decodes re-encodes as a frame;
// decoding allocates within decodeAllocLimit.
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
		var got *core.Database
		var err error
		if grew, limit := decodeAlloc(func() { got, err = DecodeObjectFrame(data, resolve) }), decodeAllocLimit(data); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), grew, limit)
		}
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

// TestDecodeAllocBoundedByBytes pins the allocation bound on a
// well-formed image: two thousand one-state observations over a
// 10⁴-state chain. Materializing each pdf as a dense |S| array would
// allocate 2 000 × 10⁴ × 8 B = 160 MB for an image of ~270 KB.
func TestDecodeAllocBoundedByBytes(t *testing.T) {
	const states, objects = 10_000, 2_000
	b := sparse.NewBuilder(states, states)
	for s := 0; s < states; s++ {
		b.Add(s, (s+1)%states, 1)
	}
	db := core.NewDatabase(markov.MustChain(b.Build()))
	for i := 0; i < objects; i++ {
		db.MustAdd(core.MustObject(i, nil, core.Observation{Time: i % 7, PDF: markov.PointDistribution(states, 5*i)}))
	}
	image := saveV2(t, db)
	var loaded *core.Database
	var err error
	grew := decodeAlloc(func() { loaded, err = LoadDatabaseMapped(image) })
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != objects {
		t.Fatalf("loaded %d objects, want %d", loaded.Len(), objects)
	}
	if limit := decodeAllocLimit(image); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(image), grew, limit)
	}
	t.Logf("decoding %d bytes allocated %d bytes", len(image), grew)
}
