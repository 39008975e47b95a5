package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"ust/internal/core"
	"ust/internal/gen"
	"ust/internal/markov"
	"ust/internal/sparse"
)

// reseal rewrites a test-mutated image's footer guard and CRC in place,
// so the mutation reaches the parser instead of the checksum gate.
func reseal(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-8:], footerGuard)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-8]))
}

// csrAt returns the offset in image of chain c's CSR encoding.
func csrAt(t testing.TB, image []byte, c *markov.Chain) int {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveChain(&buf, c); err != nil {
		t.Fatal(err)
	}
	csr := buf.Bytes()[headerLen+4 : buf.Len()-footerLen]
	at := bytes.Index(image, csr)
	if at < 0 {
		t.Fatal("chain not found in the image")
	}
	return at
}

// repeatColumn returns a re-sealed copy of image in which the CSR at
// off repeats a column: the first row with two entries gets its first
// column twice. Every writer emits strictly ascending columns, so every
// decoder must refuse it.
func repeatColumn(t testing.TB, image []byte, off int) []byte {
	t.Helper()
	out := bytes.Clone(image)
	rows := int(binary.LittleEndian.Uint64(out[off:]))
	lens := off + 24        // after rows, cols and the row count
	at := lens + 8*rows + 8 // after the row lengths and the column count
	for i := 0; i < rows; i++ {
		l := int(binary.LittleEndian.Uint64(out[lens+8*i:]))
		if l >= 2 {
			copy(out[at+8:at+16], out[at:at+8])
			reseal(out)
			return out
		}
		at += 8 * l
	}
	t.Fatal("no chain row with two entries")
	return nil
}

// genDB builds a database from a synthetic dataset, upgrading every
// third object to multiple observations so the columnar blocks carry
// real variety.
func genDB(t testing.TB, p gen.Params) *core.Database {
	t.Helper()
	ds := gen.MustGenerate(p)
	db := core.NewDatabase(ds.Chain)
	for i, d := range ds.Objects {
		if err := db.AddSimple(i, d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(ds.Objects); i += 3 {
		// The added sighting must be consistent with the motion model:
		// observe a couple of states the chain can actually reach.
		dt := 2 + i%3
		init := sparse.NewVec(p.NumStates)
		ds.Objects[i].CopyTo(init)
		reachable := ds.Chain.Advance(init, dt).Support()
		if len(reachable) > 2 {
			reachable = reachable[:2]
		}
		upd, err := db.Get(i).WithObservation(core.Observation{
			Time: dt,
			PDF:  markov.UniformOver(p.NumStates, reachable),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ReplaceObject(upd); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// saveV2 is a test shorthand.
func saveV2(t testing.TB, db *core.Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatalf("SaveDatabase: %v", err)
	}
	return buf.Bytes()
}

// TestV2RoundTripByteIdentical pins the fidelity contract: save → load →
// save reproduces the file byte for byte. The v2 path stores raw pdf
// values (no renormalization on load), so a stable fixed point is the
// expected behavior, not a lucky one.
func TestV2RoundTripByteIdentical(t *testing.T) {
	db := testDB(t)
	first := saveV2(t, db)

	// A pdf whose support was given descending is written ascending:
	// its image is the ascending build's, byte for byte.
	chain := gen.MustGenerate(gen.Params{NumObjects: 1, NumStates: 30, ObjectSpread: 2, StateSpread: 3, MaxStep: 8, Seed: 1}).Chain
	images := map[string][]byte{}
	for name, states := range map[string][]int{"ascending": {1, 3, 4}, "descending": {4, 3, 1}} {
		pdf := markov.UniformOver(30, states)
		var order []int
		pdf.Range(func(s int, _ float64) { order = append(order, s) })
		if name == "descending" && slices.IsSorted(order) {
			t.Fatal("the descending build iterates its support ascending")
		}
		unsorted := core.NewDatabase(chain)
		unsorted.MustAdd(core.MustObject(5, nil,
			core.Observation{Time: 0, PDF: markov.PointDistribution(30, 2)},
			core.Observation{Time: 2, PDF: pdf}))
		images[name] = saveV2(t, unsorted)
	}
	if !bytes.Equal(images["ascending"], images["descending"]) {
		t.Fatal("a descending pdf's image differs from the ascending build's")
	}

	loaded, err := LoadDatabase(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	second := saveV2(t, loaded)
	if !bytes.Equal(first, second) {
		t.Fatalf("v2 round trip not byte-identical: %d vs %d bytes", len(first), len(second))
	}

	// Third generation through the mapped path for good measure.
	mapped, err := LoadDatabaseMapped(second)
	if err != nil {
		t.Fatalf("LoadDatabaseMapped: %v", err)
	}
	third := saveV2(t, mapped)
	if !bytes.Equal(first, third) {
		t.Fatal("mapped load broke the round-trip fixed point")
	}
}

// TestV1CrossReadByteIdentical pins backward compatibility: the golden
// version-1 image loads, through either entry point, to the database
// whose version-2 image is the golden v2.ustd byte for byte.
func TestV1CrossReadByteIdentical(t *testing.T) {
	v1 := golden(t, "v1.ustd")
	loaded, err := LoadDatabase(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("LoadDatabase(v1): %v", err)
	}
	mapped, err := LoadDatabaseMapped(v1)
	if err != nil {
		t.Fatalf("LoadDatabaseMapped(v1): %v", err)
	}
	for name, db := range map[string]*core.Database{"LoadDatabase": loaded, "LoadDatabaseMapped": mapped} {
		if !bytes.Equal(saveV2(t, db), golden(t, "v2.ustd")) {
			t.Fatalf("%s: the v1 image's database does not save to v2.ustd", name)
		}
	}
}

// TestV2MatchesV1Semantics loads the golden version-1 and version-2
// images of one database and compares every observation pdf value, bit
// for bit, and every own chain entry.
func TestV2MatchesV1Semantics(t *testing.T) {
	v1, err := LoadDatabaseMapped(golden(t, "v1.ustd"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatabaseMapped(golden(t, "v2.ustd"))
	if err != nil {
		t.Fatal(err)
	}
	sameObjects(t, got, v1.Objects())
	for _, want := range v1.Objects() {
		o := got.Get(want.ID)
		if (o.Chain == nil) != (want.Chain == nil) || o.Chain != nil && !o.Chain.Matrix().Equal(want.Chain.Matrix(), 0) {
			t.Fatalf("object %d: own chain differs", want.ID)
		}
	}
	if !got.DefaultChain().Matrix().Equal(v1.DefaultChain().Matrix(), 0) {
		t.Fatal("default chain differs")
	}
}

// TestV2OwnChainRoundTrip covers the per-object chain block.
func TestV2OwnChainRoundTrip(t *testing.T) {
	db := testDB(t) // object 7 carries its own chain
	got, err := LoadDatabaseMapped(saveV2(t, db))
	if err != nil {
		t.Fatal(err)
	}
	o := got.Get(7)
	if o == nil || o.Chain == nil {
		t.Fatal("own-chain object lost its chain")
	}
	want := db.Get(7).Chain
	n := want.NumStates()
	if o.Chain.NumStates() != n {
		t.Fatalf("own chain has %d states, want %d", o.Chain.NumStates(), n)
	}
	for i := 0; i < n; i++ {
		ci, vi := want.Matrix().RowSlices(i)
		gi, wi := o.Chain.Matrix().RowSlices(i)
		if len(ci) != len(gi) {
			t.Fatalf("row %d: %d entries, want %d", i, len(gi), len(ci))
		}
		for k := range ci {
			if ci[k] != gi[k] || vi[k] != wi[k] {
				t.Fatalf("row %d entry %d mismatch", i, k)
			}
		}
	}
}

// TestV2CorruptionDetection flips bytes all over a v2 file and checks
// every corruption is caught by the CRC (never a panic, never a silent
// wrong database).
func TestV2CorruptionDetection(t *testing.T) {
	data := saveV2(t, testDB(t))
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		corrupted := append([]byte(nil), data...)
		corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		if _, err := LoadDatabaseMapped(corrupted); err == nil {
			t.Fatalf("trial %d: corruption not detected", trial)
		}
	}
}

// TestV2TruncationDetection cuts a v2 file at every length and expects
// ErrCorrupt-wrapped failures throughout.
func TestV2TruncationDetection(t *testing.T) {
	data := saveV2(t, testDB(t))
	for cut := 0; cut < len(data); cut++ {
		_, err := LoadDatabaseMapped(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestV2ProbColumnAligned verifies the writer's padding promise: the
// float column sits at an 8-aligned file offset, so an 8-aligned buffer
// gets the zero-copy adopt.
func TestV2ProbColumnAligned(t *testing.T) {
	for objects := 1; objects < 9; objects++ {
		p := gen.Params{NumObjects: objects, NumStates: 30, ObjectSpread: 2, StateSpread: 3, MaxStep: 8, Seed: int64(objects)}
		data := saveV2(t, genDB(t, p))

		_, sec, err := readImage(data, &chainLookup{})
		if err != nil {
			t.Fatal(err)
		}
		probs := sec.cols.probs
		padLen := int(probs.b[probs.off])
		if (probs.off+1+padLen)%8 != 0 {
			t.Fatalf("objects=%d: prob column at file offset %d, not 8-aligned",
				objects, probs.off+1+padLen)
		}
	}
}

// TestV2ZeroCopyAliasesBuffer pins the adopt: with an 8-aligned buffer,
// the loaded pdf values are the caller's bytes, so a byte flipped in the
// buffer after the load shows in the pdf.
func TestV2ZeroCopyAliasesBuffer(t *testing.T) {
	data := saveV2(t, testDB(t))
	db, err := LoadDatabaseMapped(data)
	if err != nil {
		t.Fatal(err)
	}
	// The column's first value is the first object's first observation
	// on its lowest state.
	_, sec, err := readImage(data, &chainLookup{})
	if err != nil {
		t.Fatal(err)
	}
	probs := sec.cols.probs
	at := probs.off + 1 + int(probs.b[probs.off])
	pdf := db.Objects()[0].Observations[0].PDF
	state := pdf.Support()[0]
	before := pdf.P(state)
	data[at] ^= 1 // the mantissa's lowest bit
	if pdf.P(state) == before {
		if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
			t.Skip("buffer not 8-aligned — copy fallback is the correct behavior")
		}
		t.Fatal("aligned buffer but prob column was copied, not adopted")
	}
}

// TestV2EmptyDatabase round-trips a database with no objects.
func TestV2EmptyDatabase(t *testing.T) {
	db := core.NewDatabase(testChain(t))
	got, err := LoadDatabaseMapped(saveV2(t, db))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty database loaded %d objects", got.Len())
	}
}

// TestV2PreservesQueryResultsQuick: generated datasets answer queries
// identically before and after a v2 round trip.
func TestV2PreservesQueryResultsQuick(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := gen.Params{NumObjects: 12, NumStates: 50, ObjectSpread: 3, StateSpread: 4, MaxStep: 12, Seed: seed}
		db := genDB(t, p)
		loaded, err := LoadDatabaseMapped(saveV2(t, db))
		if err != nil {
			t.Fatal(err)
		}
		q := core.NewQuery([]int{1, 2, 3, 4}, []int{2, 3, 4})
		want := exists(t, db, q)
		got := exists(t, loaded, q)
		if len(want) != len(got) {
			t.Fatalf("seed %d: %d results, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if want[i].ObjectID != got[i].ObjectID || want[i].Prob != got[i].Prob {
				t.Fatalf("seed %d result %d: %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestUnsupportedVersionMessage checks the version gate names both
// supported versions.
func TestUnsupportedVersionMessage(t *testing.T) {
	data := saveV2(t, testDB(t))
	bad := append([]byte(nil), data...)
	bad[4] = 9 // version field
	reseal(bad)
	_, err := LoadDatabaseMapped(bad)
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("version gate: err = %v, want non-corrupt unsupported-version error", err)
	}
}

// TestRepeatedColumnIsCorrupt feeds every decoder a CRC-valid image
// whose chain repeats a column in one row — the default chain of a chain
// image and of a database image, and an own chain travelling inline in a
// frame. Each is ErrCorrupt, never a panic.
func TestRepeatedColumnIsCorrupt(t *testing.T) {
	db := testDB(t)
	def, own := db.DefaultChain(), db.Get(7).Chain
	var chain bytes.Buffer
	if err := SaveChain(&chain, def); err != nil {
		t.Fatal(err)
	}
	image := saveV2(t, db)
	frame, err := NewFrameEncoder(def).Encode(db.Objects())
	if err != nil {
		t.Fatal(err)
	}
	badChain := repeatColumn(t, chain.Bytes(), csrAt(t, chain.Bytes(), def))
	badImage := repeatColumn(t, image, csrAt(t, image, def))
	badFrame := repeatColumn(t, frame, csrAt(t, frame, own))
	for name, decode := range map[string]func() error{
		"LoadChain": func() error {
			_, err := LoadChain(bytes.NewReader(badChain))
			return err
		},
		"LoadDatabaseMapped": func() error {
			_, err := LoadDatabaseMapped(badImage)
			return err
		},
		"DecodeObjectFrame": func() error {
			_, err := DecodeObjectFrame(badFrame, resolverOf(def))
			return err
		},
	} {
		if err := decode(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}
