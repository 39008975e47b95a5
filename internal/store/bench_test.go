package store

import (
	"bytes"
	"testing"

	"ust/internal/core"
	"ust/internal/gen"
	"ust/internal/markov"
)

// benchParams is the load-benchmark corpus shape: |D|=1000 objects over
// |S|=10000 states (the paper's scale divided by ten to keep fixture
// construction inside benchmark budgets), every third object carrying a
// second observation.
var benchParams = gen.Params{
	NumObjects:   1000,
	NumStates:    10000,
	ObjectSpread: 5,
	StateSpread:  5,
	MaxStep:      40,
	Seed:         42,
}

// BenchmarkLoadDatabase compares the dataset load paths on the same
// version-2 image: the reader entry point, which copies the stream
// first, and the zero-copy mapped decoder (the ustserve upload path).
// v2-mapped-table1 loads the paper's default scale with the mapped
// decoder.
func BenchmarkLoadDatabase(b *testing.B) {
	db := genDB(b, benchParams)
	var v2Buf bytes.Buffer
	if err := SaveDatabase(&v2Buf, db); err != nil {
		b.Fatal(err)
	}

	b.Run("v2", func(b *testing.B) {
		data := v2Buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadDatabase(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-mapped", func(b *testing.B) {
		benchMapped(b, v2Buf.Bytes())
	})
	// The paper's Table I default: |D| = 10⁴ objects over |S| = 10⁵
	// states, one five-state observation each. A dense |S| array per pdf
	// would need 10⁴ × 10⁵ × 8 B = 8 GB here; stored as support columns
	// the objects take 10⁴ × 5 × 12 B, and the chain dominates.
	b.Run("v2-mapped-table1", func(b *testing.B) {
		ds := gen.MustGenerate(gen.Defaults(42))
		db := core.NewDatabase(ds.Chain)
		for i, d := range ds.Objects {
			if err := db.AddSimple(i, d); err != nil {
				b.Fatal(err)
			}
		}
		benchMapped(b, saveV2(b, db))
	})
}

// benchMapped times LoadDatabaseMapped on one image.
func benchMapped(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadDatabaseMapped(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveDatabase measures the database writer on the load
// corpus.
func BenchmarkSaveDatabase(b *testing.B) {
	db := genDB(b, benchParams)
	var buf bytes.Buffer
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := SaveDatabase(&buf, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncodeFrame encodes the frame a fleet_mixed write ships to
// its worker: one object of the |S| = 10⁴ corpus holding its five-state
// fix and a full-support sighting, the repo benchmark's observe op.
func BenchmarkEncodeFrame(b *testing.B) {
	ds := gen.MustGenerate(benchParams)
	n := benchParams.NumStates
	ids, weights := make([]int, n), make([]float64, n)
	for i := range ids {
		ids[i], weights[i] = i, 1
	}
	weights[n/2] = float64(n)
	sighting, err := markov.WeightedOver(n, ids, weights)
	if err != nil {
		b.Fatal(err)
	}
	objs := []*core.Object{core.MustObject(0, nil,
		core.Observation{Time: 0, PDF: ds.Objects[0]},
		core.Observation{Time: 41, PDF: sighting})}
	enc := NewFrameEncoder(ds.Chain)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(objs); err != nil {
			b.Fatal(err)
		}
	}
}
