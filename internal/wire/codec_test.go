package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ust/internal/agg"
	"ust/internal/core"
)

// identical reports whether a and b hold the same values bit for bit:
// floats compared by their bits (so -0 ≠ 0), nil slices ≠ empty ones.
func identical(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return identical(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !identical(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !identical(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

func sameValues(a, b any) bool { return identical(reflect.ValueOf(a), reflect.ValueOf(b)) }

// encodeJSON is the reference encoding: what encoding/json's Encoder
// writes for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// valueGen draws the values the byte-identity properties run over,
// biased toward the spots where float and string text is decided.
type valueGen struct{ rng *rand.Rand }

func (g valueGen) float() float64 {
	borders := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1 + 0.2, 0.864,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
		1e-7, 1.5e-9, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20,
		5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
		math.MaxFloat64, -math.MaxFloat64, 1 << 53, 123456789012345678,
	}
	switch g.rng.Intn(5) {
	case 0:
		return borders[g.rng.Intn(len(borders))]
	case 1:
		return g.rng.Float64()
	case 2:
		return g.rng.NormFloat64() * math.Pow(10, float64(g.rng.Intn(60)-30))
	case 3:
		for {
			if f := math.Float64frombits(g.rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	default:
		return float64(g.rng.Intn(2000)) / 1000
	}
}

func (g valueGen) int() int {
	special := []int{0, 1, -1, 1 << 53, -(1 << 53), 1<<53 - 1, math.MaxInt64, math.MinInt64, 999}
	if g.rng.Intn(3) == 0 {
		return special[g.rng.Intn(len(special))]
	}
	return g.rng.Intn(4000) - 2000
}

func (g valueGen) count() int {
	if g.rng.Intn(3) == 0 {
		return 0
	}
	return g.rng.Intn(1 << 20)
}

func (g valueGen) floats(nilOK bool) []float64 {
	switch g.rng.Intn(4) {
	case 0:
		if nilOK {
			return nil
		}
		return []float64{}
	case 1:
		return []float64{}
	}
	fs := make([]float64, 1+g.rng.Intn(6))
	for i := range fs {
		fs[i] = g.float()
	}
	return fs
}

func (g valueGen) string() string {
	pieces := []string{
		"plain", " ", "<", ">", "&", `"`, `\`, "/", "\x00", "\x07", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
		"é", "日本", "\U0001F600", "\u2028", "\u2029", "\xff", "\xc0\x80", "\xed\xa0\x80", "\xf0\x9f", "ok",
	}
	var b strings.Builder
	for n := g.rng.Intn(6); n > 0; n-- {
		b.WriteString(pieces[g.rng.Intn(len(pieces))])
	}
	return b.String()
}

func (g valueGen) strategy() core.Strategy {
	return []core.Strategy{core.StrategyQueryBased, core.StrategyObjectBased, core.StrategyMonteCarlo}[g.rng.Intn(3)]
}

func (g valueGen) results() []core.Result {
	switch g.rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []core.Result{}
	}
	rs := make([]core.Result, 1+g.rng.Intn(8))
	for i := range rs {
		rs[i] = core.Result{ObjectID: g.int(), Prob: g.float()}
		if g.rng.Intn(2) == 0 {
			rs[i].Dist = g.floats(true)
		}
	}
	return rs
}

func (g valueGen) plans() []core.CostEstimate {
	if g.rng.Intn(2) == 0 {
		return nil
	}
	ps := make([]core.CostEstimate, 1+g.rng.Intn(3))
	for i := range ps {
		ps[i] = core.CostEstimate{Strategy: g.strategy(), Sweeps: g.count(), Ops: g.float()}
	}
	return ps
}

func (g valueGen) agg() *core.AggResult {
	if g.rng.Intn(2) == 0 {
		return nil
	}
	a := &core.AggResult{Kind: core.AggCount, MinCount: g.count(), ModeCount: g.count()}
	if g.rng.Intn(2) == 0 {
		a.Kind = core.AggOccupancy
	}
	if g.rng.Intn(2) == 0 {
		a.PMF = g.floats(true)
		for i, p := range a.PMF {
			a.PMF[i] = math.Abs(p) // probability mass: the decoder refuses negatives
		}
		a.Mean, a.Variance, a.Tail = g.float(), g.float(), g.float()
	}
	if g.rng.Intn(2) == 0 {
		for n := g.rng.Intn(4); n > 0; n-- {
			p := core.AggPoint{Time: g.int(), Mean: g.float(), Variance: g.float()}
			if g.rng.Intn(2) == 0 {
				p.Tail = g.float()
			}
			a.Profile = append(a.Profile, p)
		}
	}
	return a
}

func (g valueGen) response() *core.Response {
	return &core.Response{
		Results:  g.results(),
		Strategy: g.strategy(),
		Plans:    g.plans(),
		Cache:    core.CacheReport{Hits: g.count(), Misses: g.count()},
		Filter:   core.FilterReport{Candidates: g.count(), Pruned: g.count(), Refined: g.count()},
		Agg:      g.agg(),
	}
}

func (g valueGen) factorSet() *core.FactorSet {
	fs := &core.FactorSet{
		Strategy: g.strategy(),
		Plans:    g.plans(),
		Cache:    core.CacheReport{Hits: g.count()},
		Filter:   core.FilterReport{Pruned: g.count()},
	}
	for n := g.rng.Intn(5); n > 0; n-- {
		fs.Factors = append(fs.Factors, agg.Factor{ID: g.int(), Coeffs: g.floats(true)})
	}
	if g.rng.Intn(2) == 0 {
		fs.Times = []int{g.int(), g.int()}
	}
	return fs
}

// TestAppendMatchesEncodingJSON pins the codec's byte-identity contract:
// on random values every appender writes exactly what encoding/json's
// Encoder writes for the wire struct, and the decoder reads those bytes
// back to what StrictUnmarshal reads, bit for bit.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	g := valueGen{rand.New(rand.NewSource(7))}
	for i := 0; i < 3000; i++ {
		resp := g.response()
		w, err := FromResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeJSON(t, w)
		got, err := AppendResponse([]byte("prefix"), resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("response:\n got %s\nwant %s", got[len("prefix"):], want)
		}
		dec, err := DecodeResponse(want)
		if err != nil {
			t.Fatalf("decoding %s: %v", want, err)
		}
		var ref Response
		if err := StrictUnmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		refResp, err := ref.ToResponse()
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(dec, refResp) {
			t.Fatalf("decoded response differs from encoding/json's:\n got %+v\nwant %+v", dec, refResp)
		}

		var sl StreamLine
		switch i % 4 {
		case 0:
			if len(resp.Results) > 0 {
				r := FromResult(resp.Results[0])
				sl.Result = &r
			}
		case 1:
			sl.Agg = w.Agg
		case 2:
			sl.Error = g.string()
		default:
			sl.Done, sl.Count = g.rng.Intn(2) == 0, g.count()
		}
		checkLine(t, sl, func(b []byte) ([]byte, error) { return AppendStreamLine(b, sl) }, DecodeStreamLine)

		up := Update{Seq: g.rng.Uint64(), Full: g.rng.Intn(2) == 0, Results: FromResults(resp.Results)}
		if g.rng.Intn(2) == 0 {
			up.Version = g.rng.Uint64() >> g.rng.Intn(64)
		}
		if g.rng.Intn(2) == 0 {
			up.Removed = []int{g.int(), g.int()}
		}
		if g.rng.Intn(4) == 0 {
			up = Update{Error: g.string()}
		}
		checkLine(t, up, func(b []byte) ([]byte, error) { return AppendUpdate(b, up, ToResults(up.Results)) }, DecodeUpdate)

		fs := g.factorSet()
		wfs, err := FromFactorSet(fs)
		if err != nil {
			t.Fatal(err)
		}
		want = encodeJSON(t, wfs)
		got, err = AppendFactorSet(nil, fs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("factor set:\n got %s\nwant %s", got, want)
		}
		decFS, err := DecodeFactorSet(want)
		if err != nil {
			t.Fatalf("decoding %s: %v", want, err)
		}
		var refFS FactorSet
		if err := StrictUnmarshal(want, &refFS); err != nil {
			t.Fatal(err)
		}
		refCore, err := refFS.ToFactorSet()
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(decFS, refCore) {
			t.Fatalf("decoded factor set differs from encoding/json's:\n got %+v\nwant %+v", decFS, refCore)
		}
	}
}

// checkLine checks one NDJSON shape: appender output equals the
// Encoder's, and the decoder reads it back to the value StrictUnmarshal
// reads.
func checkLine[T any](t *testing.T, v T, appendLine func([]byte) ([]byte, error), decode func([]byte) (T, error)) {
	t.Helper()
	want := encodeJSON(t, v)
	got, err := appendLine(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%T line:\n got %s\nwant %s", v, got, want)
	}
	dec, err := decode(want)
	if err != nil {
		t.Fatalf("decoding %s: %v", want, err)
	}
	var ref T
	if err := StrictUnmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !sameValues(dec, ref) {
		t.Fatalf("decoded %T differs from encoding/json's:\n got %+v\nwant %+v", v, dec, ref)
	}
}

func TestAppendRefusesWhatEncodingJSONRefuses(t *testing.T) {
	for _, resp := range []*core.Response{
		{Strategy: core.StrategyQueryBased, Results: []core.Result{{Prob: math.NaN()}}},
		{Strategy: core.StrategyQueryBased, Results: []core.Result{{Dist: []float64{math.Inf(1)}}}},
		{Strategy: core.Strategy(99)},
		{Strategy: core.StrategyQueryBased, Plans: []core.CostEstimate{{Strategy: core.StrategyObjectBased, Ops: math.Inf(-1)}}},
	} {
		if out, err := AppendResponse([]byte("x"), resp); err == nil || string(out) != "x" {
			t.Errorf("AppendResponse(%+v) = %q, %v; want the input back and an error", resp, out, err)
		}
	}
}

// TestDecodeResultShapesStrict pins what the hand decoder refuses that
// the reflective reference accepted (or never saw): each body here is
// an error.
func TestDecodeResultShapesStrict(t *testing.T) {
	bad := map[string]string{
		"unknown field":       `{"results":[],"strategy":"qb","bogus":1}`,
		"case-folded field":   `{"Results":[],"strategy":"qb"}`,
		"duplicate field":     `{"results":[],"strategy":"qb","strategy":"ob"}`,
		"duplicate in result": `{"results":[{"object":1,"object":2,"prob":0}],"strategy":"qb"}`,
		"trailing data":       `{"results":[],"strategy":"qb"}x`,
		"trailing brace":      `{"results":[],"strategy":"qb"}}`,
		"second value":        `{"results":[],"strategy":"qb"} {}`,
		"fractional id":       `{"results":[{"object":1.5,"prob":0}],"strategy":"qb"}`,
		"exponent id":         `{"results":[{"object":1e2,"prob":0}],"strategy":"qb"}`,
		"overflowing id":      `{"results":[{"object":9223372036854775808,"prob":0}],"strategy":"qb"}`,
		"overflowing prob":    `{"results":[{"object":1,"prob":1e309}],"strategy":"qb"}`,
		"leading zero":        `{"results":[{"object":01,"prob":0}],"strategy":"qb"}`,
		"bare fraction":       `{"results":[{"object":1,"prob":.5}],"strategy":"qb"}`,
		"plus sign":           `{"results":[{"object":1,"prob":+1}],"strategy":"qb"}`,
		"null result":         `{"results":[null],"strategy":"qb"}`,
		"null results":        `{"results":null,"strategy":"qb"}`,
		"trailing comma":      `{"results":[{"object":1,"prob":0},],"strategy":"qb"}`,
		"unknown strategy":    `{"results":[],"strategy":"quantum"}`,
		"control char":        "{\"results\":[],\"strategy\":\"q\x01b\"}",
		"bad escape":          `{"results":[],"strategy":"\q"}`,
		"unterminated":        `{"results":[],"strategy":"qb`,
		"negative pmf":        `{"results":[],"strategy":"qb","agg":{"kind":"count","pmf":[0.5,-0.1]}}`,
		"empty":               ``,
		"not an object":       `[]`,
		"missing colon":       `{"results" []}`,
		"string for number":   `{"results":[{"object":"1","prob":0}],"strategy":"qb"}`,
		"number for string":   `{"results":[],"strategy":1}`,
	}
	for name, body := range bad {
		if _, err := DecodeResponse([]byte(body)); err == nil {
			t.Errorf("%s: DecodeResponse accepted %s", name, body)
		}
	}
	lines := map[string]string{
		"negative seq":       `{"seq":-1}`,
		"negative zero seq":  `{"seq":-0}`,
		"overflowing seq":    `{"seq":18446744073709551616}`,
		"bool as string":     `{"seq":1,"full":"true"}`,
		"null removed":       `{"seq":1,"removed":null}`,
		"unknown update key": `{"seq":1,"delta":[]}`,
	}
	for name, body := range lines {
		if _, err := DecodeUpdate([]byte(body)); err == nil {
			t.Errorf("%s: DecodeUpdate accepted %s", name, body)
		}
	}
	if _, err := DecodeStreamLine([]byte(`{"done":true,"count":1,"done":true}`)); err == nil {
		t.Error("DecodeStreamLine accepted a duplicate done")
	}
	if _, err := DecodeFactorSet([]byte(`{"factors":[{"id":1,"coeffs":[1e400]}],"strategy":"qb"}`)); err == nil {
		t.Error("DecodeFactorSet accepted an out-of-range coefficient")
	}
}

// TestDecodeAcceptsValidJSONVariants pins that strictness is about the
// shape, not the layout: whitespace, escapes in names and strings, and
// any member order decode like the compact form.
func TestDecodeAcceptsValidJSONVariants(t *testing.T) {
	compact := `{"results":[{"object":7,"prob":0.25,"dist":[0.75,0.25]}],"strategy":"ob","cache":{"hits":2}}`
	want, err := DecodeResponse([]byte(compact))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		" \t\r\n{ \"strategy\" : \"ob\" ,\n \"cache\":{\"hits\":2},\"results\" : [ { \"prob\":2.5e-1 , \"dist\":[ 0.75 , 25E-2 ], \"object\":7 } ] } \n",
		`{"results":[{"ob\u006aect":7,"prob":0.25,"dist":[0.75,0.25]}],"strategy":"\u006fb","cache":{"hits":2}}`,
	} {
		got, err := DecodeResponse([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if !sameValues(got, want) {
			t.Fatalf("%s decoded to %+v, want %+v", body, got, want)
		}
	}
	sl, err := DecodeStreamLine([]byte(`{"error":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00\ud800x\u2028"}`))
	if err != nil {
		t.Fatal(err)
	}
	var ref StreamLine
	if err := json.Unmarshal([]byte(`{"error":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00\ud800x\u2028"}`), &ref); err != nil {
		t.Fatal(err)
	}
	if sl.Error != ref.Error {
		t.Fatalf("unquoted %q, encoding/json %q", sl.Error, ref.Error)
	}
}
