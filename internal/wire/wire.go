// Package wire is the network contract between ustserve, the client
// package and any non-Go caller.
//
// A request travels in one form: the text query language of package
// ust/query. EncodeRequest is query.Format and DecodeRequest is
// query.Parse, so the canonical text is at once the body a client sends
// (the "query" member of a QueryEnvelope), the key the service's
// single-flight coalesces on, the form a coordinator forwards to its
// workers and the description the load generator prints. Every part of
// a core.Request — predicate, raw state/time windows, geometric regions,
// compound expressions, aggregates, strategy and planner hints, ranking,
// budgets and cache toggles — round-trips. The one lossy spot is
// deliberate: a Request's Resolver (an in-process index) cannot travel;
// regions are written geometrically and the server re-attaches its
// dataset's resolver.
//
// The shapes that carry results — Response, StreamLine, Update and
// FactorSet — round-trip with float64 precision intact, so remote
// results can be byte-identical to in-process evaluation. They have a
// hand-written codec (codec.go), because they are what a served request
// spends its time on:
//
//   - Encoding (AppendResponse, AppendStreamLine, AppendUpdate,
//     AppendFactorSet) appends to a byte slice straight from core
//     values. Its output is byte-identical to encoding/json's Encoder on
//     the wire struct: same field order, same omitempty/omitzero rules,
//     same float text ('f' format, 'e' outside [1e-6, 1e21) with e-07
//     written e-7), same string escaping, same trailing newline.
//   - Decoding (DecodeResponse, DecodeStreamLine, DecodeUpdate,
//     DecodeFactorSet) is one strict pass over the bytes, with no
//     reflection and no separate validity scan. It accepts a subset of
//     what StrictUnmarshal accepts into the same struct, with the same
//     values bit for bit. It is stricter in that it rejects unknown,
//     case-folded and duplicate member names, null where the encoder
//     never writes one, trailing data of any kind, non-integer or
//     overflowing ids and counts, and numbers outside float64's range.
//     Arrays are capped at maxWireInts elements.
//
// The exported result structs and their From*/To* converters stay the
// documented shape and the reference the codec is tested against;
// each result shape has exactly one decoder.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"ust/internal/core"
	"ust/query"
)

// ErrDecode wraps every decoding failure.
var ErrDecode = errors.New("wire: bad message")

// maxWireInts bounds decoded arrays; hostile messages must not force
// pathological allocations.
const maxWireInts = 1 << 24

// AggPoint is the JSON shape of one occupancy-profile timestep.
type AggPoint struct {
	Time     int     `json:"time"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	Tail     float64 `json:"tail,omitempty"`
}

// AggResult is the JSON shape of a core.AggResult, carried on Response
// (and on the single agg line of a streamed aggregate).
type AggResult struct {
	Kind     string     `json:"kind"`
	MinCount int        `json:"min_count,omitempty"`
	PMF      []float64  `json:"pmf,omitempty"`
	Mean     float64    `json:"mean,omitempty"`
	Variance float64    `json:"variance,omitempty"`
	Mode     int        `json:"mode,omitempty"`
	Tail     float64    `json:"tail,omitempty"`
	Profile  []AggPoint `json:"profile,omitempty"`
}

// Result is the JSON shape of a core.Result.
type Result struct {
	Object int       `json:"object"`
	Prob   float64   `json:"prob"`
	Dist   []float64 `json:"dist,omitempty"`
}

// CostEstimate is the JSON shape of a planner estimate.
type CostEstimate struct {
	Strategy string  `json:"strategy"`
	Sweeps   int     `json:"sweeps"`
	Ops      float64 `json:"ops"`
}

// CacheReport mirrors core.CacheReport.
type CacheReport struct {
	Hits   int `json:"hits,omitempty"`
	Misses int `json:"misses,omitempty"`
}

// FilterReport mirrors core.FilterReport.
type FilterReport struct {
	Candidates int `json:"candidates,omitempty"`
	Pruned     int `json:"pruned,omitempty"`
	Refined    int `json:"refined,omitempty"`
}

// Response is the JSON shape of a core.Response.
type Response struct {
	Results  []Result       `json:"results"`
	Strategy string         `json:"strategy"`
	Plans    []CostEstimate `json:"plans,omitempty"`
	Cache    CacheReport    `json:"cache,omitzero"`
	Filter   FilterReport   `json:"filter,omitzero"`
	Agg      *AggResult     `json:"agg,omitempty"`
}

// QueryEnvelope is the body of POST /v1/query, /v1/query/stream,
// /v1/subscribe and /v1/factors: a request in the text query language,
// addressed to a named dataset.
type QueryEnvelope struct {
	Dataset string `json:"dataset"`
	Query   string `json:"query"`
}

// StreamLine is one NDJSON line of a /v1/query/stream response: exactly
// one of Result, Agg, Error or Done is set. The Done line closes a
// successful stream and carries the delivered-result count so clients
// can detect truncation. An aggregate request streams as exactly one
// Agg line followed by Done (the distribution is one answer, not a
// per-object sequence).
type StreamLine struct {
	Result *Result    `json:"result,omitempty"`
	Agg    *AggResult `json:"agg,omitempty"`
	Error  string     `json:"error,omitempty"`
	Done   bool       `json:"done,omitempty"`
	Count  int        `json:"count,omitempty"`
}

// Update is one NDJSON line of a /v1/subscribe response: an incremental
// refresh of a standing query. The first update of a subscription has
// Full set and carries the complete result set; later updates carry
// only changed-or-new results plus the ids that stopped qualifying.
type Update struct {
	Seq     uint64   `json:"seq"`
	Version uint64   `json:"version,omitempty"`
	Full    bool     `json:"full,omitempty"`
	Results []Result `json:"results,omitempty"`
	Removed []int    `json:"removed,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// Observation is the ingest shape of one sighting (the same sparse-pdf
// layout as the JSON export format).
type Observation struct {
	Time   int       `json:"time"`
	States []int     `json:"states"`
	Probs  []float64 `json:"probs"`
}

// Object is the ingest shape of a new object (default-chain only; motion
// models do not travel over the wire).
type Object struct {
	ID           int           `json:"id"`
	Observations []Observation `json:"observations"`
}

// DatasetInfo describes one named dataset of a service.
type DatasetInfo struct {
	Name    string `json:"name"`
	Objects int    `json:"objects"`
	States  int    `json:"states"`
	Version uint64 `json:"version"`
}

// ErrorBody is the JSON error envelope of non-2xx HTTP responses.
type ErrorBody struct {
	Error string `json:"error"`
}

// --- Enum names -----------------------------------------------------------

func aggKindName(k core.AggKind) (string, error) {
	switch k {
	case core.AggCount:
		return "count", nil
	case core.AggOccupancy:
		return "occupancy", nil
	default:
		return "", fmt.Errorf("wire: unknown aggregate kind %v", k)
	}
}

func parseAggKind(s string) (core.AggKind, error) {
	switch s {
	case "count":
		return core.AggCount, nil
	case "occupancy":
		return core.AggOccupancy, nil
	default:
		return 0, fmt.Errorf("%w: unknown aggregate kind %q", ErrDecode, s)
	}
}

func strategyName(s core.Strategy) (string, error) {
	switch s {
	case core.StrategyQueryBased:
		return "qb", nil
	case core.StrategyObjectBased:
		return "ob", nil
	case core.StrategyMonteCarlo:
		return "mc", nil
	default:
		return "", fmt.Errorf("wire: unknown strategy %v", s)
	}
}

func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "qb":
		return core.StrategyQueryBased, nil
	case "ob":
		return core.StrategyObjectBased, nil
	case "mc":
		return core.StrategyMonteCarlo, nil
	default:
		return 0, fmt.Errorf("%w: unknown strategy %q", ErrDecode, s)
	}
}

// --- Request codec ---------------------------------------------------------

// EncodeRequest writes a core.Request in its canonical text form
// (query.Format). The encoding is deterministic, which is what lets the
// service layer key single-flight coalescing on it. It fails on what
// the text language cannot carry: a region type outside the library's
// algebra, a non-finite number, or a negative id or count.
func EncodeRequest(r core.Request) ([]byte, error) {
	s, err := query.Format(r)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// DecodeRequest parses a request's text form (query.Parse). Every
// failure, a *query.ParseError with its position, is wrapped in
// ErrDecode.
func DecodeRequest(data []byte) (core.Request, error) {
	req, err := query.Parse(string(data))
	if err != nil {
		return core.Request{}, fmt.Errorf("%w: %w", ErrDecode, err)
	}
	return req, nil
}

// StrictUnmarshal decodes one JSON value with unknown fields disallowed
// and rejects trailing non-whitespace — the decoding contract every
// JSON body the HTTP handlers read shares.
func StrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data", ErrDecode)
	}
	return nil
}

// --- Result / Response codec ----------------------------------------------

// FromResult converts a core.Result to its wire shape.
func FromResult(r core.Result) Result {
	return Result{Object: r.ObjectID, Prob: r.Prob, Dist: r.Dist}
}

// ToResult converts a wire Result back.
func (r Result) ToResult() core.Result {
	return core.Result{ObjectID: r.Object, Prob: r.Prob, Dist: r.Dist}
}

// FromResults converts a result slice (nil stays nil).
func FromResults(rs []core.Result) []Result {
	if rs == nil {
		return nil
	}
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = FromResult(r)
	}
	return out
}

// ToResults converts a wire result slice back (nil stays nil).
func ToResults(rs []Result) []core.Result {
	if rs == nil {
		return nil
	}
	out := make([]core.Result, len(rs))
	for i, r := range rs {
		out[i] = r.ToResult()
	}
	return out
}

// fromAggResult converts a core.AggResult to its wire shape.
func fromAggResult(a *core.AggResult) (*AggResult, error) {
	kind, err := aggKindName(a.Kind)
	if err != nil {
		return nil, err
	}
	w := &AggResult{
		Kind:     kind,
		MinCount: a.MinCount,
		PMF:      a.PMF,
		Mean:     a.Mean,
		Variance: a.Variance,
		Mode:     a.ModeCount,
		Tail:     a.Tail,
	}
	for _, p := range a.Profile {
		w.Profile = append(w.Profile, AggPoint{Time: p.Time, Mean: p.Mean, Variance: p.Variance, Tail: p.Tail})
	}
	return w, nil
}

// toAggResult converts a wire AggResult back, with the decoder's usual
// strictness: unknown kinds, non-finite or negative probability mass and
// absurd sizes are errors.
func (w *AggResult) toAggResult() (*core.AggResult, error) {
	kind, err := parseAggKind(w.Kind)
	if err != nil {
		return nil, err
	}
	if w.MinCount < 0 {
		return nil, fmt.Errorf("%w: negative aggregate min_count %d", ErrDecode, w.MinCount)
	}
	if len(w.PMF) > maxWireInts || len(w.Profile) > maxWireInts {
		return nil, fmt.Errorf("%w: aggregate result too large", ErrDecode)
	}
	for _, p := range w.PMF {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return nil, fmt.Errorf("%w: aggregate pmf entry %v", ErrDecode, p)
		}
	}
	a := &core.AggResult{
		Kind:      kind,
		MinCount:  w.MinCount,
		PMF:       w.PMF,
		Mean:      w.Mean,
		Variance:  w.Variance,
		ModeCount: w.Mode,
		Tail:      w.Tail,
	}
	for _, p := range w.Profile {
		if math.IsNaN(p.Mean) || math.IsInf(p.Mean, 0) ||
			math.IsNaN(p.Variance) || math.IsInf(p.Variance, 0) ||
			math.IsNaN(p.Tail) || math.IsInf(p.Tail, 0) {
			return nil, fmt.Errorf("%w: non-finite occupancy point at t=%d", ErrDecode, p.Time)
		}
		a.Profile = append(a.Profile, core.AggPoint{Time: p.Time, Mean: p.Mean, Variance: p.Variance, Tail: p.Tail})
	}
	return a, nil
}

// FromResponse converts a core.Response to its wire shape.
func FromResponse(resp *core.Response) (Response, error) {
	strat, err := strategyName(resp.Strategy)
	if err != nil {
		return Response{}, err
	}
	w := Response{
		Results:  FromResults(resp.Results),
		Strategy: strat,
		Cache:    CacheReport(resp.Cache),
		Filter:   FilterReport(resp.Filter),
	}
	if w.Results == nil {
		w.Results = []Result{}
	}
	for _, p := range resp.Plans {
		ps, perr := strategyName(p.Strategy)
		if perr != nil {
			return Response{}, perr
		}
		w.Plans = append(w.Plans, CostEstimate{Strategy: ps, Sweeps: p.Sweeps, Ops: p.Ops})
	}
	if resp.Agg != nil {
		a, aerr := fromAggResult(resp.Agg)
		if aerr != nil {
			return Response{}, aerr
		}
		w.Agg = a
	}
	return w, nil
}

// ToResponse converts a wire Response back into a core.Response.
func (w Response) ToResponse() (*core.Response, error) {
	strat, err := parseStrategy(w.Strategy)
	if err != nil {
		return nil, err
	}
	resp := &core.Response{
		Results:  ToResults(w.Results),
		Strategy: strat,
		Cache:    core.CacheReport(w.Cache),
		Filter:   core.FilterReport(w.Filter),
	}
	for _, p := range w.Plans {
		ps, perr := parseStrategy(p.Strategy)
		if perr != nil {
			return nil, perr
		}
		resp.Plans = append(resp.Plans, core.CostEstimate{Strategy: ps, Sweeps: p.Sweeps, Ops: p.Ops})
	}
	if w.Agg != nil {
		a, aerr := w.Agg.toAggResult()
		if aerr != nil {
			return nil, aerr
		}
		resp.Agg = a
	}
	return resp, nil
}
