package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"unsafe"

	"ust/internal/core"
	"ust/internal/gen"
	"ust/internal/markov"
)

// fixupCRC recomputes a test-mutated file's footer CRC so the mutation
// reaches the parser instead of the checksum gate.
func fixupCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-8]))
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
		reachable := ds.Chain.Evolve(ds.Objects[i].Vec(), dt).Support()
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

// TestV1CrossReadByteIdentical pins backward compatibility: a v1 file
// loads through the new reader, and re-saving it as v1 reproduces the
// original bytes exactly.
func TestV1CrossReadByteIdentical(t *testing.T) {
	db := testDB(t)
	var v1 bytes.Buffer
	if err := SaveDatabaseV1(&v1, db); err != nil {
		t.Fatalf("SaveDatabaseV1: %v", err)
	}
	loaded, err := LoadDatabase(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("LoadDatabase(v1): %v", err)
	}
	var again bytes.Buffer
	if err := SaveDatabaseV1(&again, loaded); err != nil {
		t.Fatalf("re-save v1: %v", err)
	}
	if !bytes.Equal(v1.Bytes(), again.Bytes()) {
		t.Fatal("v1 load → v1 save not byte-identical")
	}

	// And the mapped entry point accepts v1 images too.
	if _, err := LoadDatabaseMapped(v1.Bytes()); err != nil {
		t.Fatalf("LoadDatabaseMapped(v1): %v", err)
	}
}

// TestV2MatchesV1Semantics loads the same database through both formats
// and compares every observation pdf value and chain entry.
func TestV2MatchesV1Semantics(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := gen.Params{NumObjects: 8, NumStates: 40, ObjectSpread: 3, StateSpread: 4, MaxStep: 10, Seed: seed}
		wantDB := genDB(t, p)
		v2 := saveV2(t, wantDB)
		got, err := LoadDatabaseMapped(v2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Len() != wantDB.Len() {
			t.Fatalf("seed %d: %d objects, want %d", seed, got.Len(), wantDB.Len())
		}
		for _, want := range wantDB.Objects() {
			o := got.Get(want.ID)
			if o == nil {
				t.Fatalf("seed %d: object %d missing", seed, want.ID)
			}
			if len(o.Observations) != len(want.Observations) {
				t.Fatalf("seed %d: object %d has %d observations, want %d",
					seed, want.ID, len(o.Observations), len(want.Observations))
			}
			for k, ob := range o.Observations {
				wb := want.Observations[k]
				if ob.Time != wb.Time {
					t.Fatalf("seed %d: object %d obs %d time %d, want %d", seed, want.ID, k, ob.Time, wb.Time)
				}
				for _, s := range wb.PDF.Support() {
					if ob.PDF.P(s) != wb.PDF.P(s) {
						t.Fatalf("seed %d: object %d obs %d state %d: %g, want %g",
							seed, want.ID, k, s, ob.PDF.P(s), wb.PDF.P(s))
					}
				}
			}
			// The column plane must be pre-seeded and claimed.
			seg, ok := got.Columns().Segment(want.ID)
			if !ok || seg.Len() != len(want.Observations) {
				t.Fatalf("seed %d: object %d plane segment missing or wrong length", seed, want.ID)
			}
		}
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

		d := &v2Decoder{body: data[:len(data)-8], off: 12}
		var cb *columnarBlocks
		for {
			tag, err := d.take(4)
			if err != nil {
				t.Fatal(err)
			}
			if *(*[4]byte)(tag) == tagChain {
				br := bytes.NewReader(d.body[d.off:])
				before := br.Len()
				if _, err := readChain(newRawReader(br)); err != nil {
					t.Fatal(err)
				}
				d.off += before - br.Len()
				continue
			}
			if cb, err = skimColumnar(d); err != nil {
				t.Fatal(err)
			}
			break
		}
		padLen := int(cb.probs[0])
		if (cb.probsOff+1+padLen)%8 != 0 {
			t.Fatalf("objects=%d: prob column at file offset %d, not 8-aligned",
				objects, cb.probsOff+1+padLen)
		}
	}
}

// TestV2ZeroCopyAliasesBuffer pins the adopt: with an 8-aligned buffer,
// the loaded pdf values point into the caller's bytes.
func TestV2ZeroCopyAliasesBuffer(t *testing.T) {
	data := saveV2(t, testDB(t))
	db, err := LoadDatabaseMapped(data)
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := db.Columns().Segment(2)
	if !ok || len(seg.Probs) == 0 {
		t.Fatal("no segment for object 2")
	}
	// The segment's prob slice must alias data's backing array: its
	// pointer lies within the buffer.
	start := uintptr(unsafe.Pointer(&data[0]))
	end := start + uintptr(len(data))
	pp := uintptr(unsafe.Pointer(&seg.Probs[0]))
	if pp < start || pp >= end {
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
	fixupCRC(bad)
	_, err := LoadDatabaseMapped(bad)
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("version gate: err = %v, want non-corrupt unsupported-version error", err)
	}
}
