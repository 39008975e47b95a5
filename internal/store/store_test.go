package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/gen"
	"ust/internal/markov"
)

func testChain(t testing.TB) *markov.Chain {
	t.Helper()
	c, err := markov.FromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// exists answers the PST∃Q over q for every object of db.
func exists(t testing.TB, db *core.Database, q core.Query, opts ...core.RequestOption) []core.Result {
	t.Helper()
	resp, err := core.NewEngine(db, core.Options{}).Evaluate(context.Background(),
		core.NewRequest(core.PredicateExists, append([]core.RequestOption{core.WithWindow(q)}, opts...)...))
	if err != nil {
		t.Fatal(err)
	}
	return resp.Results
}

func testDB(t testing.TB) *core.Database {
	t.Helper()
	db := core.NewDatabase(testChain(t))
	db.MustAdd(core.MustObject(1, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(3, 1)}))
	db.MustAdd(core.MustObject(2, nil,
		core.Observation{Time: 0, PDF: markov.UniformOver(3, []int{0, 2})},
		core.Observation{Time: 3, PDF: markov.PointDistribution(3, 1)},
	))
	own, err := markov.FromDense([][]float64{
		{0.5, 0.5, 0},
		{0, 0.5, 0.5},
		{0.5, 0, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.MustAdd(core.MustObject(7, own, core.Observation{Time: 1, PDF: markov.PointDistribution(3, 2)}))
	return db
}

func TestChainRoundTrip(t *testing.T) {
	c := testChain(t)
	var buf bytes.Buffer
	if err := SaveChain(&buf, c); err != nil {
		t.Fatalf("SaveChain: %v", err)
	}
	got, err := LoadChain(&buf)
	if err != nil {
		t.Fatalf("LoadChain: %v", err)
	}
	if !got.Matrix().Equal(c.Matrix(), 0) {
		t.Error("chain round trip mismatch")
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatalf("SaveDatabase: %v", err)
	}
	got, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	assertDatabasesEqual(t, db, got)
}

func assertDatabasesEqual(t *testing.T, want, got *core.Database) {
	t.Helper()
	if !got.DefaultChain().Matrix().Equal(want.DefaultChain().Matrix(), 1e-12) {
		t.Error("default chain mismatch")
	}
	if got.Len() != want.Len() {
		t.Fatalf("object count %d, want %d", got.Len(), want.Len())
	}
	for _, wo := range want.Objects() {
		go_ := got.Get(wo.ID)
		if go_ == nil {
			t.Fatalf("object %d missing", wo.ID)
		}
		if (wo.Chain != nil) != (go_.Chain != nil) {
			t.Errorf("object %d chain presence mismatch", wo.ID)
		}
		if wo.Chain != nil && !go_.Chain.Matrix().Equal(wo.Chain.Matrix(), 1e-12) {
			t.Errorf("object %d own chain mismatch", wo.ID)
		}
		if len(go_.Observations) != len(wo.Observations) {
			t.Fatalf("object %d has %d observations, want %d", wo.ID, len(go_.Observations), len(wo.Observations))
		}
		for k, wob := range wo.Observations {
			gob := go_.Observations[k]
			if gob.Time != wob.Time {
				t.Errorf("object %d obs %d time %d, want %d", wo.ID, k, gob.Time, wob.Time)
			}
			// Loading normalizes pdfs; compare normalized.
			wpdf, _ := wob.PDF.Normalized()
			if !gob.PDF.Vec().Equal(wpdf.Vec(), 1e-12) {
				t.Errorf("object %d obs %d pdf mismatch", wo.ID, k)
			}
		}
	}
}

// TestRoundTripPreservesQueryResults: a persisted database answers
// queries with the same bits — the unordered conformance dataset's pdfs,
// built from states listed out of order, included — under both exact
// strategies.
func TestRoundTripPreservesQueryResults(t *testing.T) {
	for name, tc := range map[string]struct {
		db *core.Database
		q  core.Query
	}{
		"small":     {testDB(t), core.NewQuery([]int{0, 1}, []int{2, 3})},
		"unordered": {conformance.NewUnorderedDataset(), core.NewQuery(core.Interval(10, 40), core.Interval(3, 6))},
	} {
		var buf bytes.Buffer
		if err := SaveDatabase(&buf, tc.db); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadDatabase(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []core.Strategy{core.StrategyQueryBased, core.StrategyObjectBased} {
			before := exists(t, tc.db, tc.q, core.WithStrategy(strat))
			after := exists(t, loaded, tc.q, core.WithStrategy(strat))
			if len(before) != len(after) {
				t.Fatalf("%s %v: %d results, %d after persistence", name, strat, len(before), len(after))
			}
			for i := range before {
				if before[i].ObjectID != after[i].ObjectID || math.Float64bits(before[i].Prob) != math.Float64bits(after[i].Prob) {
					t.Errorf("%s %v: result %d changed across persistence: %+v vs %+v", name, strat, i, before[i], after[i])
				}
			}
		}
	}
}

func TestGeneratedDatasetRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		p := gen.Params{NumObjects: 10, NumStates: 60, ObjectSpread: 3, StateSpread: 4, MaxStep: 10, Seed: seed}
		ds := gen.MustGenerate(p)
		db := core.NewDatabase(ds.Chain)
		for i, o := range ds.Objects {
			if db.AddSimple(i, o) != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if SaveDatabase(&buf, db) != nil {
			return false
		}
		got, err := LoadDatabase(&buf)
		if err != nil {
			return false
		}
		return got.DefaultChain().Matrix().Equal(db.DefaultChain().Matrix(), 1e-12) && got.Len() == db.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCorruptionDetection(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Flip one byte at a sample of offsets; every load must fail, and
	// none may panic.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		pos := rng.Intn(len(pristine))
		corrupted := append([]byte(nil), pristine...)
		corrupted[pos] ^= 0x41
		_, err := LoadDatabase(bytes.NewReader(corrupted))
		if err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
}

func TestTruncationDetection(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, 4, 8, len(full) / 2, len(full) - 1} {
		if _, err := LoadDatabase(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes went undetected", cut)
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	_, err := LoadDatabase(bytes.NewReader([]byte("NOPE00000000")))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: got %v, want ErrCorrupt", err)
	}

	db := testDB(t)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[4] = 99 // version field
	_, err = LoadDatabase(bytes.NewReader(bad))
	if err == nil {
		t.Error("future version accepted")
	}
}

// TestJSONRoundTrip pins the JSON reader to the golden document: it
// loads to the fixture database, whose version-2 image is the golden
// v2.ustd.
func TestJSONRoundTrip(t *testing.T) {
	got, err := ImportJSON(bytes.NewReader(golden(t, "db.json")))
	if err != nil {
		t.Fatalf("ImportJSON: %v", err)
	}
	assertDatabasesEqual(t, fixtureDB(t), got)
	if !bytes.Equal(saveV2(t, got), golden(t, "v2.ustd")) {
		t.Fatal("the JSON document's database does not save to v2.ustd")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	if _, err := ImportJSON(bytes.NewReader([]byte("{"))); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ImportJSON(bytes.NewReader([]byte(`{"unknown_field": 1}`))); err == nil {
		t.Error("unknown fields accepted")
	}
	// Valid JSON, invalid chain (non-stochastic).
	bad := `{"default_chain":{"num_states":2,"transitions":[{"from":0,"to":1,"p":0.5}]},"objects":[]}`
	if _, err := ImportJSON(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("non-stochastic chain accepted")
	}
}

func TestSaveChainRejectsNothing(t *testing.T) {
	// Even a trivial 1-state chain round-trips.
	c, err := markov.FromDense([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveChain(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadChain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStates() != 1 {
		t.Error("1-state chain round trip failed")
	}
}

func TestLoadChainRejectsDatabaseFile(t *testing.T) {
	// A database file has two sections; LoadChain must refuse the
	// unexpected OBJ0 section rather than silently ignore it.
	db := testDB(t)
	var buf bytes.Buffer
	if err := SaveDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadChain(&buf); err == nil {
		t.Error("LoadChain accepted a database file")
	}
}

func TestLoadDatabaseOnChainOnlyFile(t *testing.T) {
	// A chain-only file loads as an empty database? No: LoadDatabase
	// requires the chain section and tolerates missing objects.
	var buf bytes.Buffer
	if err := SaveChain(&buf, testChain(t)); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatalf("LoadDatabase on chain-only file: %v", err)
	}
	if db.Len() != 0 {
		t.Errorf("chain-only file produced %d objects", db.Len())
	}
}

func TestLoadChainEmptyInput(t *testing.T) {
	if _, err := LoadChain(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty input: %v, want ErrCorrupt", err)
	}
}

func TestNonStochasticChainRejectedOnLoad(t *testing.T) {
	// Hand-corrupt a stored probability then fix the CRC: the loader's
	// semantic validation must still reject the chain.
	c := testChain(t)
	var buf bytes.Buffer
	if err := SaveChain(&buf, c); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Find the float64 bits of 0.6 and overwrite with 0.9.
	pattern := make([]byte, 8)
	binary.LittleEndian.PutUint64(pattern, math.Float64bits(0.6))
	idx := bytes.Index(raw, pattern)
	if idx < 0 {
		t.Fatal("0.6 not found in encoding")
	}
	binary.LittleEndian.PutUint64(raw[idx:], math.Float64bits(0.9))
	// Recompute the CRC over the body.
	body := raw[:len(raw)-8]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))
	if _, err := LoadChain(bytes.NewReader(raw)); err == nil {
		t.Error("non-stochastic chain accepted after CRC fix-up")
	}
}
