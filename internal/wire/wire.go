// Package wire gives the query API a stable, strict JSON encoding: the
// network contract between ustserve, the client package and any non-Go
// caller. Every part of a core.Request — predicate, raw state/time
// windows, geometric regions, strategy and planner hints, ranking,
// budgets and cache toggles — round-trips exactly, and Response/Result
// round-trip with float64 precision intact (encoding/json emits the
// shortest representation that parses back to the identical bits, so
// remote results can be byte-identical to in-process evaluation).
//
// Decoding is strict and fuzz-safe: unknown fields, unknown enum
// values, trailing garbage, malformed geometry and absurd sizes are
// errors, never panics. The one lossy spot is deliberate: a Request's
// Resolver (an in-process index) cannot travel; regions are encoded
// geometrically and the server re-attaches its dataset's resolver.
//
// The shapes that carry results — Response, StreamLine, Update and
// FactorSet — have a hand-written codec (codec.go), because they are
// what a served request spends its time on:
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
// The exported wire structs and their From*/To* converters stay the
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
	"ust/internal/spatial"
)

// ErrDecode wraps every decoding failure.
var ErrDecode = errors.New("wire: bad message")

// Request is the JSON shape of a core.Request.
type Request struct {
	Predicate    string      `json:"predicate"`
	States       []int       `json:"states,omitempty"`
	Times        []int       `json:"times,omitempty"`
	Region       *Region     `json:"region,omitempty"`
	Expr         *Expr       `json:"expr,omitempty"`
	Strategy     string      `json:"strategy,omitempty"`
	AutoPlan     bool        `json:"auto_plan,omitempty"`
	Threshold    *float64    `json:"threshold,omitempty"`
	TopK         int         `json:"top_k,omitempty"`
	Workers      int         `json:"workers,omitempty"`
	MonteCarlo   *MonteCarlo `json:"monte_carlo,omitempty"`
	Hitting      *Hitting    `json:"hitting,omitempty"`
	Cache        *bool       `json:"cache,omitempty"`
	FilterRefine *bool       `json:"filter_refine,omitempty"`
	Aggregate    *Aggregate  `json:"aggregate,omitempty"`
}

// Aggregate is the JSON shape of a core.AggSpec: it turns the request
// into a database-level aggregate over its predicate.
//
//	{"predicate":"exists","states":[2],"times":[3],"aggregate":{"kind":"count","min_count":3}}
type Aggregate struct {
	Kind     string `json:"kind"`
	MinCount int    `json:"min_count,omitempty"`
}

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

// Expr is the JSON shape of a core.Expr: a tagged tree over exists/
// forall atoms.
//
//	{"op":"atom","forall":true,"states":[3,4],"times":[0,9]}
//	{"op":"and","operands":[...]}   (also "or", "then")
//	{"op":"not","operands":[{...}]}
type Expr struct {
	Op       string  `json:"op"`
	ForAll   bool    `json:"forall,omitempty"`
	States   []int   `json:"states,omitempty"`
	Times    []int   `json:"times,omitempty"`
	Region   *Region `json:"region,omitempty"`
	Operands []Expr  `json:"operands,omitempty"`
}

// MonteCarlo is the sampling budget of a Request.
type MonteCarlo struct {
	Samples int   `json:"samples"`
	Seed    int64 `json:"seed"`
}

// Hitting is the fixed-point budget of eventually-requests.
type Hitting struct {
	MaxSteps int     `json:"max_steps,omitempty"`
	Tol      float64 `json:"tol,omitempty"`
}

// Region is the JSON shape of a spatial.Region: a tagged union over the
// library's region algebra.
//
//	{"type":"rect","min":[x,y],"max":[x,y]}
//	{"type":"circle","center":[x,y],"radius":r}
//	{"type":"polygon","vertices":[[x,y],...]}
//	{"type":"union","regions":[...]}
//	{"type":"difference","base":{...},"sub":{...}}
type Region struct {
	Type     string       `json:"type"`
	Min      *[2]float64  `json:"min,omitempty"`
	Max      *[2]float64  `json:"max,omitempty"`
	Center   *[2]float64  `json:"center,omitempty"`
	Radius   float64      `json:"radius,omitempty"`
	Vertices [][2]float64 `json:"vertices,omitempty"`
	Regions  []Region     `json:"regions,omitempty"`
	Base     *Region      `json:"base,omitempty"`
	Sub      *Region      `json:"sub,omitempty"`
}

// Result is the JSON shape of a core.Result.
type Result struct {
	Object int       `json:"object"`
	Prob   float64   `json:"prob"`
	Dist   []float64 `json:"dist,omitempty"`
}

// CostEstimate is the JSON shape of a planner estimate.
type CostEstimate struct {
	Strategy  string  `json:"strategy"`
	Sweeps    int     `json:"sweeps"`
	Ops       float64 `json:"ops"`
	FilterOps float64 `json:"filter_ops,omitempty"`
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

// QueryEnvelope is the body of POST /v1/query, /v1/query/stream and
// /v1/subscribe: a request addressed to a named dataset. Exactly one of
// Request (structured wire form) or Query (the compact text query
// language of package ust/query, parsed server-side) must be set.
type QueryEnvelope struct {
	Dataset string   `json:"dataset"`
	Request *Request `json:"request,omitempty"`
	Query   string   `json:"query,omitempty"`
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

// --- Request codec --------------------------------------------------------

func predicateName(p core.Predicate) (string, error) {
	switch p {
	case core.PredicateExists:
		return "exists", nil
	case core.PredicateForAll:
		return "forall", nil
	case core.PredicateKTimes:
		return "ktimes", nil
	case core.PredicateEventually:
		return "eventually", nil
	case core.PredicateExpr:
		return "expr", nil
	default:
		return "", fmt.Errorf("wire: unknown predicate %v", p)
	}
}

func parsePredicate(s string) (core.Predicate, error) {
	switch s {
	case "exists":
		return core.PredicateExists, nil
	case "forall":
		return core.PredicateForAll, nil
	case "ktimes":
		return core.PredicateKTimes, nil
	case "eventually":
		return core.PredicateEventually, nil
	case "expr":
		return core.PredicateExpr, nil
	default:
		return 0, fmt.Errorf("%w: unknown predicate %q", ErrDecode, s)
	}
}

// --- Expr codec -----------------------------------------------------------

func fromExpr(x core.Expr) (Expr, error) {
	if a, ok := x.Atom(); ok {
		w := Expr{Op: "atom", ForAll: a.ForAll, States: a.States, Times: a.Times}
		if a.Region != nil {
			reg, err := fromRegion(a.Region)
			if err != nil {
				return Expr{}, err
			}
			w.Region = &reg
		}
		return w, nil
	}
	var op string
	switch x.Op() {
	case core.ExprAnd:
		op = "and"
	case core.ExprOr:
		op = "or"
	case core.ExprNot:
		op = "not"
	case core.ExprThen:
		op = "then"
	default:
		return Expr{}, fmt.Errorf("wire: unknown expression op %v", x.Op())
	}
	kids := x.Operands()
	w := Expr{Op: op, Operands: make([]Expr, len(kids))}
	for i, kid := range kids {
		enc, err := fromExpr(kid)
		if err != nil {
			return Expr{}, err
		}
		w.Operands[i] = enc
	}
	return w, nil
}

// maxExprDepth bounds expression nesting so hostile input cannot drive
// unbounded recursion. (The atom budget is enforced by the engine's own
// validation; depth is the decoder's concern.)
const maxExprDepth = 64

func (w Expr) toExpr(depth int) (core.Expr, error) {
	if depth > maxExprDepth {
		return core.Expr{}, fmt.Errorf("%w: expression nesting deeper than %d", ErrDecode, maxExprDepth)
	}
	switch w.Op {
	case "atom":
		if len(w.States) > maxWireInts || len(w.Times) > maxWireInts {
			return core.Expr{}, fmt.Errorf("%w: atom window too large", ErrDecode)
		}
		a := core.ExprAtom{ForAll: w.ForAll, States: w.States, Times: w.Times}
		if w.Region != nil {
			reg, err := w.Region.toRegion(0)
			if err != nil {
				return core.Expr{}, err
			}
			a.Region = reg
		}
		if len(w.Operands) != 0 {
			return core.Expr{}, fmt.Errorf("%w: atom with operands", ErrDecode)
		}
		return core.NewAtom(a), nil
	case "and", "or", "not", "then":
		if w.ForAll || w.States != nil || w.Times != nil || w.Region != nil {
			return core.Expr{}, fmt.Errorf("%w: %s node with atom fields", ErrDecode, w.Op)
		}
		kids := make([]core.Expr, len(w.Operands))
		for i, kw := range w.Operands {
			kid, err := kw.toExpr(depth + 1)
			if err != nil {
				return core.Expr{}, err
			}
			kids[i] = kid
		}
		switch w.Op {
		case "and":
			return core.And(kids...), nil
		case "or":
			return core.Or(kids...), nil
		case "then":
			return core.Then(kids...), nil
		default: // not
			if len(kids) != 1 {
				return core.Expr{}, fmt.Errorf("%w: not takes exactly one operand, got %d", ErrDecode, len(kids))
			}
			return core.Not(kids[0]), nil
		}
	default:
		return core.Expr{}, fmt.Errorf("%w: unknown expression op %q", ErrDecode, w.Op)
	}
}

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

// FromRequest converts a core.Request into its wire shape. It fails on
// region implementations outside the library's algebra (those cannot be
// expressed geometrically on the wire).
func FromRequest(r core.Request) (Request, error) {
	pred, err := predicateName(r.Predicate)
	if err != nil {
		return Request{}, err
	}
	w := Request{
		Predicate: pred,
		States:    r.States,
		Times:     r.Times,
		TopK:      r.TopKHint(),
		Workers:   r.ParallelismHint(),
		AutoPlan:  r.AutoPlanHint(),
	}
	if r.Region != nil {
		reg, rerr := fromRegion(r.Region)
		if rerr != nil {
			return Request{}, rerr
		}
		w.Region = &reg
	}
	if x, ok := r.ExprHint(); ok {
		enc, xerr := fromExpr(x)
		if xerr != nil {
			return Request{}, xerr
		}
		w.Expr = &enc
	}
	if s, ok := r.StrategyHint(); ok {
		name, serr := strategyName(s)
		if serr != nil {
			return Request{}, serr
		}
		w.Strategy = name
	}
	if tau, ok := r.ThresholdHint(); ok {
		w.Threshold = &tau
	}
	if samples, seed, ok := r.MonteCarloHint(); ok {
		w.MonteCarlo = &MonteCarlo{Samples: samples, Seed: seed}
	}
	if maxSteps, tol := r.HittingHint(); maxSteps != 0 || tol != 0 {
		w.Hitting = &Hitting{MaxSteps: maxSteps, Tol: tol}
	}
	if enabled, ok := r.CacheHint(); ok {
		w.Cache = &enabled
	}
	if enabled, ok := r.FilterRefineHint(); ok {
		w.FilterRefine = &enabled
	}
	if spec, ok := r.AggregateHint(); ok {
		kind, kerr := aggKindName(spec.Kind)
		if kerr != nil {
			return Request{}, kerr
		}
		w.Aggregate = &Aggregate{Kind: kind, MinCount: spec.MinCount}
	}
	return w, nil
}

// maxWireInts bounds decoded state/time lists; hostile messages must not
// force pathological allocations. (A million-state window is legitimate;
// the engine re-validates ids against the actual state space anyway.)
const maxWireInts = 1 << 24

// ToRequest converts a wire Request back into a core.Request. The
// Resolver is left nil — the serving layer attaches the dataset's
// resolver when the request carries a region.
func (w Request) ToRequest() (core.Request, error) {
	pred, err := parsePredicate(w.Predicate)
	if err != nil {
		return core.Request{}, err
	}
	if len(w.States) > maxWireInts || len(w.Times) > maxWireInts {
		return core.Request{}, fmt.Errorf("%w: window too large", ErrDecode)
	}
	var opts []core.RequestOption
	if w.States != nil {
		opts = append(opts, core.WithStates(w.States))
	}
	if w.Times != nil {
		opts = append(opts, core.WithTimes(w.Times))
	}
	if w.Region != nil {
		reg, rerr := w.Region.toRegion(0)
		if rerr != nil {
			return core.Request{}, rerr
		}
		opts = append(opts, core.WithRegion(reg, nil))
	}
	if (pred == core.PredicateExpr) != (w.Expr != nil) {
		return core.Request{}, fmt.Errorf("%w: predicate %q and expr field must come together", ErrDecode, w.Predicate)
	}
	if w.Expr != nil {
		x, xerr := w.Expr.toExpr(0)
		if xerr != nil {
			return core.Request{}, xerr
		}
		opts = append(opts, core.WithExpr(x))
	}
	if w.AutoPlan {
		opts = append(opts, core.WithAutoPlan())
	}
	if w.Strategy != "" {
		s, serr := parseStrategy(w.Strategy)
		if serr != nil {
			return core.Request{}, serr
		}
		opts = append(opts, core.WithStrategy(s))
	}
	if w.Threshold != nil {
		if *w.Threshold < 0 || *w.Threshold > 1 || math.IsNaN(*w.Threshold) {
			return core.Request{}, fmt.Errorf("%w: threshold %v outside [0,1]", ErrDecode, *w.Threshold)
		}
		opts = append(opts, core.WithThreshold(*w.Threshold))
	}
	if w.TopK < 0 {
		return core.Request{}, fmt.Errorf("%w: negative top_k %d", ErrDecode, w.TopK)
	}
	if w.TopK > 0 {
		opts = append(opts, core.WithTopK(w.TopK))
	}
	if w.Workers != 0 {
		workers := w.Workers
		if workers < 0 {
			workers = 0 // WithParallelism maps ≤0 to "GOMAXPROCS"
		}
		opts = append(opts, core.WithParallelism(workers))
	}
	if w.MonteCarlo != nil {
		if w.MonteCarlo.Samples < 0 {
			return core.Request{}, fmt.Errorf("%w: negative monte_carlo.samples", ErrDecode)
		}
		opts = append(opts, core.WithMonteCarloBudget(w.MonteCarlo.Samples, w.MonteCarlo.Seed))
	}
	if w.Hitting != nil {
		if math.IsNaN(w.Hitting.Tol) {
			return core.Request{}, fmt.Errorf("%w: hitting.tol is NaN", ErrDecode)
		}
		opts = append(opts, core.WithHittingLimits(w.Hitting.MaxSteps, w.Hitting.Tol))
	}
	if w.Cache != nil {
		opts = append(opts, core.WithCache(*w.Cache))
	}
	if w.FilterRefine != nil {
		opts = append(opts, core.WithFilterRefine(*w.FilterRefine))
	}
	if w.Aggregate != nil {
		kind, kerr := parseAggKind(w.Aggregate.Kind)
		if kerr != nil {
			return core.Request{}, kerr
		}
		if w.Aggregate.MinCount < 0 {
			return core.Request{}, fmt.Errorf("%w: negative aggregate min_count %d", ErrDecode, w.Aggregate.MinCount)
		}
		opts = append(opts, core.WithAggregate(core.AggSpec{Kind: kind, MinCount: w.Aggregate.MinCount}))
	}
	return core.NewRequest(pred, opts...), nil
}

// EncodeRequest marshals a core.Request to its canonical wire bytes.
// The encoding is deterministic, which is what lets the service layer
// key single-flight coalescing on it.
func EncodeRequest(r core.Request) ([]byte, error) {
	w, err := FromRequest(r)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// DecodeRequest strictly unmarshals wire bytes into a core.Request:
// unknown fields, unknown enum values and trailing garbage are errors.
func DecodeRequest(data []byte) (core.Request, error) {
	var w Request
	if err := StrictUnmarshal(data, &w); err != nil {
		return core.Request{}, err
	}
	return w.ToRequest()
}

// StrictUnmarshal decodes one JSON value with unknown fields disallowed
// and rejects trailing non-whitespace — the decoding contract every
// wire consumer (request decoder, HTTP handlers) shares.
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

// --- Region codec ---------------------------------------------------------

func pt(p spatial.Point) *[2]float64 { return &[2]float64{p.X, p.Y} }

func fromRegion(r spatial.Region) (Region, error) {
	switch v := r.(type) {
	case spatial.Rect:
		return Region{Type: "rect", Min: &[2]float64{v.MinX, v.MinY}, Max: &[2]float64{v.MaxX, v.MaxY}}, nil
	case spatial.Circle:
		return Region{Type: "circle", Center: pt(v.Center), Radius: v.Radius}, nil
	case spatial.Polygon:
		verts := make([][2]float64, len(v.Vertices))
		for i, p := range v.Vertices {
			verts[i] = [2]float64{p.X, p.Y}
		}
		return Region{Type: "polygon", Vertices: verts}, nil
	case spatial.Union:
		members := make([]Region, len(v))
		for i, m := range v {
			enc, err := fromRegion(m)
			if err != nil {
				return Region{}, err
			}
			members[i] = enc
		}
		return Region{Type: "union", Regions: members}, nil
	case spatial.Difference:
		base, err := fromRegion(v.Base)
		if err != nil {
			return Region{}, err
		}
		sub, err := fromRegion(v.Sub)
		if err != nil {
			return Region{}, err
		}
		return Region{Type: "difference", Base: &base, Sub: &sub}, nil
	default:
		return Region{}, fmt.Errorf("wire: region type %T has no wire encoding", r)
	}
}

// maxRegionDepth bounds union/difference nesting so hostile input cannot
// drive unbounded recursion.
const maxRegionDepth = 64

func (w Region) toRegion(depth int) (spatial.Region, error) {
	if depth > maxRegionDepth {
		return nil, fmt.Errorf("%w: region nesting deeper than %d", ErrDecode, maxRegionDepth)
	}
	switch w.Type {
	case "rect":
		if w.Min == nil || w.Max == nil {
			return nil, fmt.Errorf("%w: rect needs min and max", ErrDecode)
		}
		return spatial.NewRect(w.Min[0], w.Min[1], w.Max[0], w.Max[1]), nil
	case "circle":
		if w.Center == nil {
			return nil, fmt.Errorf("%w: circle needs a center", ErrDecode)
		}
		if w.Radius < 0 || math.IsNaN(w.Radius) {
			return nil, fmt.Errorf("%w: circle radius %v", ErrDecode, w.Radius)
		}
		return spatial.Circle{Center: spatial.Point{X: w.Center[0], Y: w.Center[1]}, Radius: w.Radius}, nil
	case "polygon":
		verts := make([]spatial.Point, len(w.Vertices))
		for i, v := range w.Vertices {
			verts[i] = spatial.Point{X: v[0], Y: v[1]}
		}
		pg, err := spatial.NewPolygon(verts)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		return pg, nil
	case "union":
		members := make(spatial.Union, len(w.Regions))
		for i, m := range w.Regions {
			dec, err := m.toRegion(depth + 1)
			if err != nil {
				return nil, err
			}
			members[i] = dec
		}
		return members, nil
	case "difference":
		if w.Base == nil || w.Sub == nil {
			return nil, fmt.Errorf("%w: difference needs base and sub", ErrDecode)
		}
		base, err := w.Base.toRegion(depth + 1)
		if err != nil {
			return nil, err
		}
		sub, err := w.Sub.toRegion(depth + 1)
		if err != nil {
			return nil, err
		}
		return spatial.Difference{Base: base, Sub: sub}, nil
	default:
		return nil, fmt.Errorf("%w: unknown region type %q", ErrDecode, w.Type)
	}
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
		w.Plans = append(w.Plans, CostEstimate{Strategy: ps, Sweeps: p.Sweeps, Ops: p.Ops, FilterOps: p.FilterOps})
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
		resp.Plans = append(resp.Plans, core.CostEstimate{Strategy: ps, Sweeps: p.Sweeps, Ops: p.Ops, FilterOps: p.FilterOps})
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
