package store

import (
	"bytes"
	"testing"

	"ust/internal/core"
	"ust/internal/gen"
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
// corpus: the JSON interchange decoder, the v1 binary reader, the v2
// streaming reader, and the v2 zero-copy mapped decoder (the ustserve
// upload path). The mapped/v2 ratio over v1-json is the store format's
// headline acceptance number. v2-mapped-table1 loads the paper's
// default scale with the mapped decoder.
func BenchmarkLoadDatabase(b *testing.B) {
	db := genDB(b, benchParams)
	var jsonBuf, v1Buf, v2Buf bytes.Buffer
	if err := ExportJSON(&jsonBuf, db); err != nil {
		b.Fatal(err)
	}
	if err := SaveDatabaseV1(&v1Buf, db); err != nil {
		b.Fatal(err)
	}
	if err := SaveDatabase(&v2Buf, db); err != nil {
		b.Fatal(err)
	}

	b.Run("v1-json", func(b *testing.B) {
		data := jsonBuf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ImportJSON(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v1-binary", func(b *testing.B) {
		data := v1Buf.Bytes()
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadDatabase(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// BenchmarkSaveDatabase measures the two binary writers on the same
// corpus.
func BenchmarkSaveDatabase(b *testing.B) {
	db := genDB(b, benchParams)
	var buf bytes.Buffer
	b.Run("v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := SaveDatabaseV1(&buf, db); err != nil {
				b.Fatal(err)
			}
		}
	})
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
