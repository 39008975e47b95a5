package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"ust/internal/core"
)

// FuzzDecodeRequest drives hostile bytes through the request codec,
// the text language behind EncodeRequest and DecodeRequest.
// Invariants: never panic; every rejection wraps ErrDecode; whatever
// decodes re-encodes, and the re-encoded canonical form is a fixed
// point (encode ∘ decode is idempotent) — the property the service
// layer's single-flight keying relies on.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range []string{
		"exists(states() @ {})",
		"forall(states(1-3) @ [4,5])",
		"ktimes(states(0) @ {1}) where strategy=ob workers=0",
		"eventually(states(2)) where steps=100 tol=1e-9",
		"exists(states(1) @ {2}) where tau=0.5 top=3 strategy=auto",
		"exists(states() @ {}) where samples=10 seed=-4 cache=off filter=on",
		"exists(region(0,0,2,2) @ {1})",
		"exists(circle(1,1,2)+polygon(0,0,1,0,0,1) @ {})",
		"exists(minus(region(0,0,9,9),polygon(0,0,1,0,0,1)) @ {})",
		"exists(states(18446744073709551615) @ {1})",
		"exists(states(1) @ {1}) where tau=1e308",
		"exists(states(1,2) @ [3,4])",
		"exists(states(1) @ {2}) and not forall(states(3) @ {4}) where tau=0.5",
		"exists(states(1) @ {2}) then exists(circle(1,1,2) @ {5})",
		"exists(states(1) @ {2}) or",
		"exists(@ {1})",
		"count(exists(states(2) @ {3})) where min=3",
		"occupancy(exists(states(1) @ [0,5]))",
		"count(ktimes(states(4) @ [1,2])) where strategy=ob",
		"count(exists(states(1) @ {2}) and exists(states(3) @ {4})) where min=1",
		"median(exists(states(1) @ {2}))",
		"count(exists(states(1) @ {2})) where min=-1",
		"[]", "null", "{}", "((", "\x00\xff",
		"exists(states() @ {}) exists(states() @ {})",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("rejection does not wrap ErrDecode: %v (input %q)", err, data)
			}
			return // rejected is fine; panicking is not
		}
		enc, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v (input %q)", err, data)
		}
		req2, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v (canonical %q)", err, enc)
		}
		enc2, err := EncodeRequest(req2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form unstable:\n  first  %s\n  second %s", enc, enc2)
		}
	})
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkLinearAllocs fails when decoding data allocated more than a
// generous linear bound in its length: every element the decoder
// allocates for costs at least a few input bytes, so a count trusted
// from anywhere else would be off by orders of magnitude.
func checkLinearAllocs(t *testing.T, what string, data []byte, grew uint64) {
	t.Helper()
	if limit := uint64(1<<16 + 64*len(data)); grew > limit {
		t.Fatalf("%s: decoding %d bytes allocated %d bytes, limit %d", what, len(data), grew, limit)
	}
}

// resultSeeds are encoded responses and factor sets over the byte-identity
// test's value generator, plus hand-picked edge cases.
func resultSeeds(f *testing.F, lines bool) {
	g := valueGen{rand.New(rand.NewSource(11))}
	for i := 0; i < 24; i++ {
		var data []byte
		var err error
		resp := g.response()
		switch {
		case !lines && i%2 == 0:
			data, err = AppendResponse(nil, resp)
		case !lines:
			data, err = AppendFactorSet(nil, g.factorSet())
		case i%2 == 0:
			sl := StreamLine{Error: g.string(), Done: i%4 == 0, Count: g.count()}
			if len(resp.Results) > 0 {
				r := FromResult(resp.Results[0])
				sl.Result = &r
			}
			data, err = AppendStreamLine(nil, sl)
		default:
			data, err = AppendUpdate(nil, Update{Seq: g.rng.Uint64(), Full: true, Removed: []int{g.int()}}, resp.Results)
		}
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		`{"results":[{}],"strategy":"qb"}`, `{"results":[{"object":-0,"prob":-0.0}],"strategy":"ob"}`,
		`{"factors":[{"id":1,"coeffs":null}],"strategy":"mc"}`, `{"result":{"object":1,"prob":1e-7}}`,
		`{"seq":18446744073709551615,"results":[]}`, `{"error":"\ud83d\ude00\ud800"}`,
		`{"RESULTS":[],"strategy":"qb"}`, `{"results":[],"strategy":"qb"}}`, `{"seq":1,"seq":2}`,
		`{"results":[{"object":1,"prob":0.1000000000000000055511151231257827}],"strategy":"qb"}`,
		`[]`, `null`, `{}`, `{{`, "\x00\xff",
	} {
		f.Add([]byte(s))
	}
}

// FuzzDecodeResponse drives hostile bytes through the response and
// factor-set decoders, differentially against encoding/json. Invariants:
// never panic; allocation linear in the input; and whatever decodes is
// accepted by StrictUnmarshal (and the wire struct's converter) too,
// with bit-identical values.
func FuzzDecodeResponse(f *testing.F) {
	resultSeeds(f, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp *core.Response
		var err error
		checkLinearAllocs(t, "response", data, allocated(func() { resp, err = DecodeResponse(data) }))
		if err == nil {
			var ref Response
			if rerr := StrictUnmarshal(data, &ref); rerr != nil {
				t.Fatalf("accepted a response encoding/json refuses (%v): %q", rerr, data)
			}
			want, rerr := ref.ToResponse()
			if rerr != nil {
				t.Fatalf("accepted a response the converter refuses (%v): %q", rerr, data)
			}
			if !sameValues(resp, want) {
				t.Fatalf("response %q decoded to %+v, encoding/json to %+v", data, resp, want)
			}
		}
		var fs *core.FactorSet
		checkLinearAllocs(t, "factor set", data, allocated(func() { fs, err = DecodeFactorSet(data) }))
		if err == nil {
			var ref FactorSet
			if rerr := StrictUnmarshal(data, &ref); rerr != nil {
				t.Fatalf("accepted a factor set encoding/json refuses (%v): %q", rerr, data)
			}
			want, rerr := ref.ToFactorSet()
			if rerr != nil {
				t.Fatalf("accepted a factor set the converter refuses (%v): %q", rerr, data)
			}
			if !sameValues(fs, want) {
				t.Fatalf("factor set %q decoded to %+v, encoding/json to %+v", data, fs, want)
			}
		}
	})
}

// FuzzDecodeStreamLine is FuzzDecodeResponse's twin for the NDJSON
// lines: /v1/query/stream's StreamLine and /v1/subscribe's Update.
func FuzzDecodeStreamLine(f *testing.F) {
	resultSeeds(f, true)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sl StreamLine
		var err error
		checkLinearAllocs(t, "stream line", data, allocated(func() { sl, err = DecodeStreamLine(data) }))
		if err == nil {
			var ref StreamLine
			if rerr := StrictUnmarshal(data, &ref); rerr != nil {
				t.Fatalf("accepted a stream line encoding/json refuses (%v): %q", rerr, data)
			}
			if !sameValues(sl, ref) {
				t.Fatalf("stream line %q decoded to %+v, encoding/json to %+v", data, sl, ref)
			}
		}
		var up Update
		checkLinearAllocs(t, "update", data, allocated(func() { up, err = DecodeUpdate(data) }))
		if err == nil {
			var ref Update
			if rerr := StrictUnmarshal(data, &ref); rerr != nil {
				t.Fatalf("accepted an update encoding/json refuses (%v): %q", rerr, data)
			}
			if !sameValues(up, ref) {
				t.Fatalf("update %q decoded to %+v, encoding/json to %+v", data, up, ref)
			}
		}
	})
}
