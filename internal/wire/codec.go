package wire

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"ust/internal/core"
)

// The result codec: the shapes that carry results (Response, StreamLine,
// Update, FactorSet) are encoded and decoded by hand. See the package
// comment for the byte-identity and strictness contracts.

// --- Encoding --------------------------------------------------------------

// AppendResponse appends the wire encoding of resp, newline-terminated,
// to dst: the bytes json.NewEncoder(w).Encode(FromResponse(resp)) writes.
func AppendResponse(dst []byte, resp *core.Response) ([]byte, error) {
	e := encoder{b: dst}
	e.raw(`{"results":`)
	e.results(resp.Results)
	e.raw(`,"strategy":`)
	e.strategy(resp.Strategy)
	e.plans(resp.Plans)
	e.reports(resp.Cache, resp.Filter)
	if resp.Agg != nil {
		a, err := fromAggResult(resp.Agg)
		e.check(err)
		if err == nil {
			e.raw(`,"agg":`)
			e.agg(a)
		}
	}
	e.raw("}\n")
	return e.finish(dst)
}

// AppendStreamLine appends sl as one NDJSON line of /v1/query/stream:
// the bytes json.NewEncoder(w).Encode(sl) writes.
func AppendStreamLine(dst []byte, sl StreamLine) ([]byte, error) {
	e := encoder{b: dst}
	e.raw("{")
	more := false
	if sl.Result != nil {
		e.key(&more, "result")
		e.result(sl.Result.ToResult())
	}
	if sl.Agg != nil {
		e.key(&more, "agg")
		e.agg(sl.Agg)
	}
	if sl.Error != "" {
		e.key(&more, "error")
		e.string(sl.Error)
	}
	if sl.Done {
		e.key(&more, "done")
		e.raw("true")
	}
	if sl.Count != 0 {
		e.key(&more, "count")
		e.int(sl.Count)
	}
	e.raw("}\n")
	return e.finish(dst)
}

// AppendUpdate appends u as one NDJSON line of /v1/subscribe, with
// results encoded in place of u.Results (which is ignored), so a
// subscription's core results need no conversion: the bytes
// json.NewEncoder(w).Encode writes for u carrying FromResults(results).
func AppendUpdate(dst []byte, u Update, results []core.Result) ([]byte, error) {
	e := encoder{b: dst}
	e.raw(`{"seq":`)
	e.b = strconv.AppendUint(e.b, u.Seq, 10)
	if u.Version != 0 {
		e.raw(`,"version":`)
		e.b = strconv.AppendUint(e.b, u.Version, 10)
	}
	if u.Full {
		e.raw(`,"full":true`)
	}
	if len(results) > 0 {
		e.raw(`,"results":`)
		e.results(results)
	}
	if len(u.Removed) > 0 {
		e.raw(`,"removed":`)
		e.ints(u.Removed)
	}
	if u.Error != "" {
		e.raw(`,"error":`)
		e.string(u.Error)
	}
	e.raw("}\n")
	return e.finish(dst)
}

// AppendFactorSet appends the wire encoding of fs, newline-terminated:
// the bytes json.NewEncoder(w).Encode(FromFactorSet(fs)) writes.
func AppendFactorSet(dst []byte, fs *core.FactorSet) ([]byte, error) {
	e := encoder{b: dst}
	e.raw(`{"factors":[`)
	for i, f := range fs.Factors {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"id":`)
		e.int(f.ID)
		e.raw(`,"coeffs":`)
		e.floats(f.Coeffs)
		e.raw("}")
	}
	e.raw("]")
	if len(fs.Times) > 0 {
		e.raw(`,"times":`)
		e.ints(fs.Times)
	}
	e.raw(`,"strategy":`)
	e.strategy(fs.Strategy)
	e.plans(fs.Plans)
	e.reports(fs.Cache, fs.Filter)
	e.raw("}\n")
	return e.finish(dst)
}

// encoder appends JSON to b. The first failure (an unnamed enum value or
// a non-finite float, both of which encoding/json refuses too) sticks in
// err and the output is discarded.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) check(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}

func (e *encoder) finish(dst []byte) ([]byte, error) {
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// key appends an object member name, preceded by a comma unless it is
// the object's first member.
func (e *encoder) key(more *bool, name string) {
	if *more {
		e.b = append(e.b, ',')
	}
	*more = true
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
}

// float appends f as encoding/json does: the shortest representation
// that parses back to the same bits, in %f form unless |f| lies outside
// [1e-6, 1e21), and then in %e form with a two-digit negative exponent
// trimmed of its leading zero (e-07 → e-7).
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.check(fmt.Errorf("wire: unsupported value %v", f))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// floats appends a float array; nil is null, as encoding/json has it.
func (e *encoder) floats(fs []float64) {
	if fs == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, f := range fs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

// ints appends a non-nil int array.
func (e *encoder) ints(vs []int) {
	e.b = append(e.b, '[')
	for i, v := range vs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.int(v)
	}
	e.b = append(e.b, ']')
}

const hexDigits = "0123456789abcdef"

// string appends s quoted as encoding/json does with HTML escaping on:
// the quote, the backslash and the control characters escaped (\b \f \n
// \r \t in short form, the rest as six-byte unicode escapes), <, > and &
// as unicode escapes, each invalid UTF-8 byte as the escaped U+FFFD, and
// U+2028 / U+2029 escaped.
func (e *encoder) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

func (e *encoder) strategy(s core.Strategy) {
	name, err := strategyName(s)
	e.check(err)
	e.string(name)
}

func (e *encoder) result(r core.Result) {
	e.raw(`{"object":`)
	e.int(r.ObjectID)
	e.raw(`,"prob":`)
	e.float(r.Prob)
	if len(r.Dist) > 0 {
		e.raw(`,"dist":`)
		e.floats(r.Dist)
	}
	e.b = append(e.b, '}')
}

// results appends a result array, [] when empty: Response.Results is
// never null on the wire, and Update.Results is omitted when empty.
func (e *encoder) results(rs []core.Result) {
	e.b = append(e.b, '[')
	for i, r := range rs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.result(r)
	}
	e.b = append(e.b, ']')
}

// plans appends the omitempty "plans" member.
func (e *encoder) plans(ps []core.CostEstimate) {
	if len(ps) == 0 {
		return
	}
	e.raw(`,"plans":[`)
	for i, p := range ps {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.raw(`{"strategy":`)
		e.strategy(p.Strategy)
		e.raw(`,"sweeps":`)
		e.int(p.Sweeps)
		e.raw(`,"ops":`)
		e.float(p.Ops)
		if p.FilterOps != 0 {
			e.raw(`,"filter_ops":`)
			e.float(p.FilterOps)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

// reports appends the omitzero "cache" and "filter" members, each an
// object of omitempty counters.
func (e *encoder) reports(c core.CacheReport, f core.FilterReport) {
	if c != (core.CacheReport{}) {
		e.raw(`,"cache":`)
		e.counters(cacheKeys, c.Hits, c.Misses)
	}
	if f != (core.FilterReport{}) {
		e.raw(`,"filter":`)
		e.counters(filterKeys, f.Candidates, f.Pruned, f.Refined)
	}
}

func (e *encoder) counters(keys []string, vals ...int) {
	e.b = append(e.b, '{')
	more := false
	for i, v := range vals {
		if v != 0 {
			e.key(&more, keys[i])
			e.int(v)
		}
	}
	e.b = append(e.b, '}')
}

func (e *encoder) agg(a *AggResult) {
	e.raw(`{"kind":`)
	e.string(a.Kind)
	if a.MinCount != 0 {
		e.raw(`,"min_count":`)
		e.int(a.MinCount)
	}
	if len(a.PMF) > 0 {
		e.raw(`,"pmf":`)
		e.floats(a.PMF)
	}
	if a.Mean != 0 {
		e.raw(`,"mean":`)
		e.float(a.Mean)
	}
	if a.Variance != 0 {
		e.raw(`,"variance":`)
		e.float(a.Variance)
	}
	if a.Mode != 0 {
		e.raw(`,"mode":`)
		e.int(a.Mode)
	}
	if a.Tail != 0 {
		e.raw(`,"tail":`)
		e.float(a.Tail)
	}
	if len(a.Profile) > 0 {
		e.raw(`,"profile":[`)
		for i, p := range a.Profile {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.raw(`{"time":`)
			e.int(p.Time)
			e.raw(`,"mean":`)
			e.float(p.Mean)
			e.raw(`,"variance":`)
			e.float(p.Variance)
			if p.Tail != 0 {
				e.raw(`,"tail":`)
				e.float(p.Tail)
			}
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// --- Decoding --------------------------------------------------------------

// Member names of each shape, in declaration order: a decoder's member
// callback receives the index into its shape's list.
var (
	responseKeys  = []string{"results", "strategy", "plans", "cache", "filter", "agg"}
	resultKeys    = []string{"object", "prob", "dist"}
	planKeys      = []string{"strategy", "sweeps", "ops", "filter_ops"}
	cacheKeys     = []string{"hits", "misses"}
	filterKeys    = []string{"candidates", "pruned", "refined"}
	aggKeys       = []string{"kind", "min_count", "pmf", "mean", "variance", "mode", "tail", "profile"}
	aggPointKeys  = []string{"time", "mean", "variance", "tail"}
	streamKeys    = []string{"result", "agg", "error", "done", "count"}
	updateKeys    = []string{"seq", "version", "full", "results", "removed", "error"}
	factorSetKeys = []string{"factors", "times", "strategy", "plans", "cache", "filter"}
	factorKeys    = []string{"id", "coeffs"}
)

// minResultBytes is the length of the shortest result element the
// encoder writes, {"object":0,"prob":0} and its comma.
const minResultBytes = 22

// DecodeResponse strictly decodes a wire Response in one pass, its
// results straight into core values.
func DecodeResponse(data []byte) (*core.Response, error) {
	var w Response // everything but the results
	var results []core.Result
	d := decoder{data: data}
	err := d.object(responseKeys, func(k int) (err error) {
		switch k {
		case 0:
			// Reserve for as many results as the bytes left could
			// hold if every one were encoded at its shortest: the
			// slice then grows at most for hand-written input, and
			// never reserves more than 2 bytes per input byte.
			results, err = list(&d, d.coreResult, (len(data)-d.pos)/minResultBytes)
		case 1:
			w.Strategy, err = d.string()
		case 2:
			w.Plans, err = list(&d, d.plan, 0)
		case 3:
			w.Cache, err = d.cache()
		case 4:
			w.Filter, err = d.filter()
		default:
			w.Agg, err = d.agg()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	resp, err := w.ToResponse()
	if err != nil {
		return nil, err
	}
	resp.Results = results
	return resp, nil
}

// DecodeStreamLine strictly decodes one /v1/query/stream line.
func DecodeStreamLine(data []byte) (StreamLine, error) {
	var sl StreamLine
	d := decoder{data: data}
	err := d.object(streamKeys, func(k int) (err error) {
		switch k {
		case 0:
			var r Result
			r, err = d.result()
			sl.Result = &r
		case 1:
			sl.Agg, err = d.agg()
		case 2:
			sl.Error, err = d.string()
		case 3:
			sl.Done, err = d.bool()
		default:
			sl.Count, err = d.int()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return StreamLine{}, err
	}
	return sl, nil
}

// DecodeUpdate strictly decodes one /v1/subscribe line.
func DecodeUpdate(data []byte) (Update, error) {
	var u Update
	d := decoder{data: data}
	err := d.object(updateKeys, func(k int) (err error) {
		switch k {
		case 0:
			u.Seq, err = d.uint64()
		case 1:
			u.Version, err = d.uint64()
		case 2:
			u.Full, err = d.bool()
		case 3:
			u.Results, err = list(&d, d.result, 0)
		case 4:
			u.Removed, err = list(&d, d.int, 0)
		default:
			u.Error, err = d.string()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return Update{}, err
	}
	return u, nil
}

// DecodeFactorSet strictly decodes a wire FactorSet in one pass.
func DecodeFactorSet(data []byte) (*core.FactorSet, error) {
	var w FactorSet
	d := decoder{data: data}
	err := d.object(factorSetKeys, func(k int) (err error) {
		switch k {
		case 0:
			w.Factors, err = list(&d, d.factor, 0)
		case 1:
			w.Times, err = list(&d, d.int, 0)
		case 2:
			w.Strategy, err = d.string()
		case 3:
			w.Plans, err = list(&d, d.plan, 0)
		case 4:
			w.Cache, err = d.cache()
		default:
			w.Filter, err = d.filter()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return w.ToFactorSet()
}

// decoder is a cursor over one JSON text. Its methods skip leading
// whitespace, consume exactly one token or value, and fail with an
// ErrDecode naming the byte offset.
type decoder struct {
	data []byte
	pos  int
}

// end rejects anything but whitespace after the decoded value.
func (d *decoder) end() error {
	d.space()
	if d.pos != len(d.data) {
		return d.fail("trailing data")
	}
	return nil
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("%w: %s at byte %d", ErrDecode, what, d.pos)
}

func (d *decoder) space() {
	for d.pos < len(d.data) && d.data[d.pos] <= ' ' {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *decoder) consume(c byte) bool {
	d.space()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// literal skips whitespace and then lit, reporting whether lit was there.
func (d *decoder) literal(lit string) bool {
	d.space()
	if bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.pos += len(lit)
		return true
	}
	return false
}

// object decodes one object whose member names are keys, calling member
// with each member's index once the cursor stands on its value. Unknown
// and repeated names are errors; absent members are left to the caller's
// zero values.
func (d *decoder) object(keys []string, member func(k int) error) error {
	if !d.consume('{') {
		return d.fail("expected an object")
	}
	if d.consume('}') {
		return nil
	}
	var seen uint32
	for {
		name, err := d.stringBytes()
		if err != nil {
			return err
		}
		k := -1
		for i, key := range keys {
			if string(name) == key {
				k = i
				break
			}
		}
		switch {
		case k < 0:
			return d.fail(fmt.Sprintf("unknown field %q", name))
		case seen&(1<<k) != 0:
			return d.fail(fmt.Sprintf("duplicate field %q", name))
		}
		seen |= 1 << k
		if !d.consume(':') {
			return d.fail("expected :")
		}
		if err := member(k); err != nil {
			return err
		}
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.fail("expected , or }")
	}
}

// list decodes an array of elem values into a slice with room for
// reserve of them. [] is an empty, non-nil slice, as encoding/json
// makes it; null is refused.
func list[T any](d *decoder, elem func() (T, error), reserve int) ([]T, error) {
	if !d.consume('[') {
		return nil, d.fail("expected an array")
	}
	if d.consume(']') {
		return []T{}, nil
	}
	out := make([]T, 0, reserve)
	for {
		if len(out) == maxWireInts {
			return nil, d.fail("array too long")
		}
		v, err := elem()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if d.consume(',') {
			continue
		}
		if d.consume(']') {
			return out, nil
		}
		return nil, d.fail("expected , or ]")
	}
}

func (d *decoder) bool() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.fail("expected a boolean")
}

func (d *decoder) string() (string, error) {
	b, err := d.stringBytes()
	return string(b), err
}

// stringBytes decodes one string. Plain ASCII without escapes is
// returned in place; anything else is unquoted into a fresh slice.
func (d *decoder) stringBytes() ([]byte, error) {
	if !d.consume('"') {
		return nil, d.fail("expected a string")
	}
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.pos:i]
			d.pos = i + 1
			return s, nil
		case c == '\\' || c >= utf8.RuneSelf:
			return d.unquote()
		case c < ' ':
			d.pos = i
			return nil, d.fail("control character in string")
		}
	}
	return nil, d.fail("unterminated string")
}

// unquote decodes the string body at the cursor with encoding/json's
// rules: the JSON escapes, surrogate pairs joined, and every invalid
// UTF-8 byte or unpaired surrogate replaced by U+FFFD.
func (d *decoder) unquote() ([]byte, error) {
	s := d.data
	var out []byte
	for i := d.pos; i < len(s); {
		c := s[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < ' ':
			d.pos = i
			return nil, d.fail("control character in string")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s[i:])
			out = utf8.AppendRune(out, r)
			i += size
		case i+1 == len(s):
			d.pos = i
			return nil, d.fail("unterminated string")
		default:
			switch esc := s[i+1]; esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s[i+2:])
				if r < 0 {
					d.pos = i
					return nil, d.fail(`bad \u escape`)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					var r2 rune = -1
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						out = utf8.AppendRune(out, pair)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i
				return nil, d.fail("bad escape")
			}
			i += 2
		}
	}
	d.pos = len(s)
	return nil, d.fail("unterminated string")
}

// hex4 parses the four hex digits that start b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans one number token under the JSON grammar and reports
// whether it is an integer literal (no fraction, no exponent).
func (d *decoder) number() (tok []byte, integer bool, err error) {
	d.space()
	s, i := d.data, d.pos
	digits := func() bool {
		start := i
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		return i > start
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		return nil, false, d.fail("expected a number")
	}
	integer = true
	if i < len(s) && s[i] == '.' {
		i++
		integer = false
		if !digits() {
			return nil, false, d.fail("malformed number")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		integer = false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, d.fail("malformed number")
		}
	}
	tok = s[d.pos:i]
	d.pos = i
	return tok, integer, nil
}

// int decodes an integer literal that fits an int.
func (d *decoder) int() (int, error) {
	tok, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, d.fail("expected an integer")
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	u, ok := digitsValue(tok, 1<<63)
	if !ok || (!neg && u == 1<<63) {
		return 0, d.fail("integer overflows")
	}
	v := int64(u)
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, d.fail("integer overflows")
	}
	return int(v), nil
}

// uint64 decodes a non-negative integer literal that fits a uint64.
func (d *decoder) uint64() (uint64, error) {
	tok, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integer || tok[0] == '-' {
		return 0, d.fail("expected an unsigned integer")
	}
	u, ok := digitsValue(tok, math.MaxUint64)
	if !ok {
		return 0, d.fail("integer overflows")
	}
	return u, nil
}

// digitsValue is the value of a decimal digit string, or false above
// limit.
func digitsValue(digits []byte, limit uint64) (uint64, bool) {
	var u uint64
	for _, c := range digits {
		n := uint64(c - '0')
		if u > (limit-n)/10 {
			return 0, false
		}
		u = u*10 + n
	}
	return u, true
}

// float decodes a number that is finite as a float64 (an out-of-range
// literal such as 1e999 is an error; an underflowing one rounds as
// strconv.ParseFloat rounds it).
func (d *decoder) float() (float64, error) {
	tok, _, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.fail("number out of range")
	}
	return f, nil
}

func (d *decoder) result() (r Result, err error) {
	err = d.object(resultKeys, func(k int) (err error) {
		switch k {
		case 0:
			r.Object, err = d.int()
		case 1:
			r.Prob, err = d.float()
		default:
			r.Dist, err = list(d, d.float, 0)
		}
		return err
	})
	return r, err
}

func (d *decoder) coreResult() (core.Result, error) {
	r, err := d.result()
	return r.ToResult(), err
}

func (d *decoder) plan() (p CostEstimate, err error) {
	err = d.object(planKeys, func(k int) (err error) {
		switch k {
		case 0:
			p.Strategy, err = d.string()
		case 1:
			p.Sweeps, err = d.int()
		case 2:
			p.Ops, err = d.float()
		default:
			p.FilterOps, err = d.float()
		}
		return err
	})
	return p, err
}

func (d *decoder) cache() (c CacheReport, err error) {
	err = d.object(cacheKeys, func(k int) (err error) {
		if k == 0 {
			c.Hits, err = d.int()
		} else {
			c.Misses, err = d.int()
		}
		return err
	})
	return c, err
}

func (d *decoder) filter() (f FilterReport, err error) {
	err = d.object(filterKeys, func(k int) (err error) {
		switch k {
		case 0:
			f.Candidates, err = d.int()
		case 1:
			f.Pruned, err = d.int()
		default:
			f.Refined, err = d.int()
		}
		return err
	})
	return f, err
}

func (d *decoder) agg() (*AggResult, error) {
	a := new(AggResult)
	err := d.object(aggKeys, func(k int) (err error) {
		switch k {
		case 0:
			a.Kind, err = d.string()
		case 1:
			a.MinCount, err = d.int()
		case 2:
			a.PMF, err = list(d, d.float, 0)
		case 3:
			a.Mean, err = d.float()
		case 4:
			a.Variance, err = d.float()
		case 5:
			a.Mode, err = d.int()
		case 6:
			a.Tail, err = d.float()
		default:
			a.Profile, err = list(d, d.aggPoint, 0)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

func (d *decoder) aggPoint() (p AggPoint, err error) {
	err = d.object(aggPointKeys, func(k int) (err error) {
		switch k {
		case 0:
			p.Time, err = d.int()
		case 1:
			p.Mean, err = d.float()
		case 2:
			p.Variance, err = d.float()
		default:
			p.Tail, err = d.float()
		}
		return err
	})
	return p, err
}

// factor decodes one factor; its coeffs may be null, which is how
// encoding/json writes a nil slice.
func (d *decoder) factor() (f Factor, err error) {
	err = d.object(factorKeys, func(k int) (err error) {
		if k == 0 {
			f.ID, err = d.int()
		} else if !d.literal("null") {
			f.Coeffs, err = list(d, d.float, 0)
		}
		return err
	})
	return f, err
}
