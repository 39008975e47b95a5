package store

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
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

// resealed returns data as given and, when it is long enough to carry a
// footer, a copy with guard and CRC rewritten: a fuzzer rarely finds a
// valid checksum, so the re-sealed copy is what reaches the parser.
func resealed(data []byte) [][]byte {
	if len(data) < footerLen {
		return [][]byte{data}
	}
	sealed := bytes.Clone(data)
	reseal(sealed)
	return [][]byte{data, sealed}
}

// inContract fails t unless err wraps one of allowed or is a clean
// unsupported-version error.
func inContract(t *testing.T, err error, allowed ...error) {
	t.Helper()
	for _, a := range allowed {
		if errors.Is(err, a) {
			return
		}
	}
	if !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("decode error outside the contract: %v", err)
	}
}

// decodeWithin runs decode and fails t if it allocated more than
// decodeAllocLimit(data).
func decodeWithin(t *testing.T, data []byte, decode func()) {
	t.Helper()
	if grew, limit := decodeAlloc(decode), decodeAllocLimit(data); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), grew, limit)
	}
}

// FuzzDecodeStoreV2 hammers the mapped decoder and the chain reader with
// arbitrary bytes, each input as given and re-sealed (see resealed),
// seeded with valid v1 and v2 images, systematic truncations, and
// CRC-valid images with a corrupt interior — one of them a chain row that
// repeats a column. The contract: never panic, never allocate
// unboundedly; failures are ErrCorrupt (or a clean unsupported-version
// error), and whatever decodes must re-encode. Decoding allocates
// within decodeAllocLimit.
func FuzzDecodeStoreV2(f *testing.F) {
	db := testDB(f)
	v2 := saveV2(f, db)
	f.Add(v2)
	f.Add(golden(f, "v1.ustd"))
	for _, cut := range []int{0, 4, 12, 16, len(v2) / 2, len(v2) - 9, len(v2) - 1} {
		f.Add(v2[:cut])
	}
	inner := bytes.Clone(v2)
	inner[30] ^= 0xff
	reseal(inner)
	f.Add(inner)
	f.Add(repeatColumn(f, v2, csrAt(f, v2, db.DefaultChain())))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, image := range resealed(data) {
			var loaded *core.Database
			var err error
			decodeWithin(t, image, func() { loaded, err = LoadDatabaseMapped(image) })
			if err != nil {
				inContract(t, err, ErrCorrupt)
			} else if err := SaveDatabase(io.Discard, loaded); err != nil {
				t.Fatalf("decoded database failed to re-encode: %v", err)
			}
			var chain *markov.Chain
			decodeWithin(t, image, func() { chain, err = LoadChain(bytes.NewReader(image)) })
			if err != nil {
				inContract(t, err, ErrCorrupt)
			} else if err := SaveChain(io.Discard, chain); err != nil {
				t.Fatalf("decoded chain failed to re-encode: %v", err)
			}
		}
	})
}

// FuzzDecodeObjectFrame hammers the frame decoder — what a worker runs
// on every /import body — with arbitrary bytes, each input as given and
// re-sealed, against a receiver that holds the default chain and one own
// chain. Seeds: frames with the own chain inline and by reference, a
// full image, truncations, and CRC-valid frames with a corrupt interior
// (one of them an inline own chain whose row repeats a column). The
// contract: never panic; failures are ErrCorrupt, ErrUnknownChain or a
// clean unsupported-version error; whatever decodes re-encodes as a
// frame; decoding allocates within decodeAllocLimit.
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
		bad := bytes.Clone(byRef)
		bad[at] ^= 0xff
		reseal(bad)
		f.Add(bad)
	}
	f.Add(repeatColumn(f, inline, csrAt(f, inline, own)))
	resolve := resolverOf(def, own)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, image := range resealed(data) {
			var got *core.Database
			var err error
			decodeWithin(t, image, func() { got, err = DecodeObjectFrame(image, resolve) })
			if err != nil {
				inContract(t, err, ErrCorrupt, ErrUnknownChain)
				continue
			}
			if _, err := NewFrameEncoder(got.DefaultChain()).Encode(got.Objects()); err != nil {
				t.Fatalf("decoded frame failed to re-encode: %v", err)
			}
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
