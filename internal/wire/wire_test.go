package wire

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"ust/internal/core"
	"ust/internal/spatial"
)

// roundTrip encodes and re-decodes one request, failing the test on any
// mismatch. DeepEqual sees the unexported hint fields, so this pins
// every option, not just the exported window. The text form is
// canonical — windows sorted and deduplicated — so the requests below
// are built in that form.
func roundTrip(t *testing.T, req core.Request) {
	t.Helper()
	data, err := EncodeRequest(req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeRequest(data)
	if err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round-trip mismatch:\n  sent %#v\n  got  %#v\n  wire %s", req, got, data)
	}
}

func TestRequestRoundTripEveryOption(t *testing.T) {
	reqs := []core.Request{
		core.NewRequest(core.PredicateExists),
		core.NewRequest(core.PredicateExists,
			core.WithStates([]int{1, 2, 3}), core.WithTimes([]int{5, 7})),
		core.NewRequest(core.PredicateForAll,
			core.WithStates([]int{0}), core.WithTimeRange(2, 9),
			core.WithStrategy(core.StrategyObjectBased), core.WithParallelism(4)),
		core.NewRequest(core.PredicateForAll,
			core.WithStates([]int{0}), core.WithTimes([]int{1}),
			core.WithParallelism(0)), // "GOMAXPROCS" sentinel
		core.NewRequest(core.PredicateKTimes,
			core.WithStates([]int{1, 2}), core.WithTimes([]int{1, 2, 3}),
			core.WithStrategy(core.StrategyMonteCarlo),
			core.WithMonteCarloBudget(250, -17)),
		core.NewRequest(core.PredicateExists,
			core.WithStates([]int{4}), core.WithTimes([]int{4}),
			core.WithAutoPlan(), core.WithThreshold(0.25), core.WithCache(false)),
		core.NewRequest(core.PredicateExists,
			core.WithStates([]int{4}), core.WithTimes([]int{4}),
			core.WithTopK(7), core.WithFilterRefine(false), core.WithCache(true)),
		core.NewRequest(core.PredicateEventually,
			core.WithStates([]int{9}), core.WithHittingLimits(500, 1e-12)),
		core.NewRequest(core.PredicateExists,
			core.WithStates([]int{4}), core.WithTimes([]int{4}),
			core.WithThreshold(0)), // explicit zero threshold must survive
		core.NewExprRequest(core.And(
			core.ExistsAtom(core.WithStates([]int{1, 2}), core.WithTimeRange(5, 15)),
			core.Not(core.ForAllAtom(core.WithStates([]int{3, 4}), core.WithTimes([]int{0, 9}))),
		), core.WithThreshold(0.3)),
		core.NewExprRequest(core.Or(
			core.Then(
				core.ExistsAtom(core.WithStates([]int{7}), core.WithTimes([]int{2})),
				core.ExistsAtom(core.WithRegion(spatial.Circle{Center: spatial.Point{X: 1, Y: 2}, Radius: 3}, nil), core.WithTimes([]int{8})),
			),
			core.ForAllAtom(core.WithStates([]int{5}), core.WithTimes([]int{4})),
		), core.WithTopK(3), core.WithStrategy(core.StrategyObjectBased)),
	}
	for _, req := range reqs {
		roundTrip(t, req)
	}
}

func TestRequestRoundTripAggregate(t *testing.T) {
	reqs := []core.Request{
		core.NewAggRequest(core.PredicateExists, core.AggSpec{Kind: core.AggCount},
			core.WithStates([]int{2, 3}), core.WithTimeRange(1, 4)),
		core.NewAggRequest(core.PredicateExists, core.AggSpec{Kind: core.AggCount, MinCount: 3},
			core.WithStates([]int{2, 3}), core.WithTimeRange(1, 4),
			core.WithStrategy(core.StrategyQueryBased)),
		core.NewAggRequest(core.PredicateForAll, core.AggSpec{Kind: core.AggCount},
			core.WithStates([]int{0}), core.WithTimes([]int{3}),
			core.WithFilterRefine(false)),
		core.NewAggRequest(core.PredicateKTimes, core.AggSpec{Kind: core.AggCount, MinCount: 2},
			core.WithStates([]int{5}), core.WithTimes([]int{1, 3, 5}),
			core.WithStrategy(core.StrategyObjectBased), core.WithParallelism(2)),
		core.NewAggRequest(core.PredicateExists, core.AggSpec{Kind: core.AggOccupancy},
			core.WithStates([]int{7, 8, 9}), core.WithTimeRange(0, 10)),
		core.NewAggRequest(core.PredicateExists, core.AggSpec{Kind: core.AggCount},
			core.WithStates([]int{1}), core.WithTimes([]int{2}), core.WithAutoPlan()),
	}
	reqs = append(reqs, core.NewRequest(core.PredicateExpr,
		core.WithExpr(core.And(
			core.ExistsAtom(core.WithStates([]int{1}), core.WithTimes([]int{2})),
			core.Not(core.ForAllAtom(core.WithStates([]int{3}), core.WithTimes([]int{0, 2}))),
		)),
		core.WithAggregate(core.AggSpec{Kind: core.AggCount, MinCount: 1})))
	for _, req := range reqs {
		roundTrip(t, req)
	}
}

// rejects fails the test unless every input is refused with ErrDecode.
func rejects(t *testing.T, cases map[string]string) {
	t.Helper()
	for name, body := range cases {
		_, err := DecodeRequest([]byte(body))
		if err == nil {
			t.Errorf("%s: decode accepted %q", name, body)
		} else if !errors.Is(err, ErrDecode) {
			t.Errorf("%s: error %v does not wrap ErrDecode", name, err)
		}
	}
}

func TestDecodeRequestAggregateStrict(t *testing.T) {
	rejects(t, map[string]string{
		"unknown kind":        "median(exists(states(1) @ {2}))",
		"empty aggregate":     "count()",
		"negative min_count":  "count(exists(states(1) @ {2})) where min=-1",
		"unknown agg field":   "count(exists(states(1) @ {2})) where max=4",
		"min without agg":     "exists(states(1) @ {2}) where min=1",
		"occupancy of ktimes": "occupancy(ktimes(states(1) @ {2}))",
	})
}

func TestResponseRoundTripAggregate(t *testing.T) {
	// Exact float bits must survive the trip: the conformance suite
	// compares PMFs across topologies with DeepEqual.
	counts := &core.Response{
		Results:  []core.Result{},
		Strategy: core.StrategyQueryBased,
		Agg: &core.AggResult{
			Kind:      core.AggCount,
			MinCount:  2,
			PMF:       []float64{0.1 + 0.2, 1e-17, math.Nextafter(0.5, 1), 0, 0.864},
			Mean:      1.25,
			Variance:  0.4375,
			ModeCount: 1,
			Tail:      math.Nextafter(0.25, 0),
		},
		Cache:  core.CacheReport{Hits: 2, Misses: 5},
		Filter: core.FilterReport{Candidates: 5, Pruned: 3, Refined: 2},
	}
	occ := &core.Response{
		Results:  []core.Result{},
		Strategy: core.StrategyObjectBased,
		Agg: &core.AggResult{
			Kind:     core.AggOccupancy,
			MinCount: 1,
			Profile: []core.AggPoint{
				{Time: 1, Mean: 0.5, Variance: 0.25, Tail: 0.5},
				{Time: 4, Mean: 0.1 + 0.2, Variance: 1e-17, Tail: math.Nextafter(0.3, 1)},
			},
		},
	}
	for _, resp := range []*core.Response{counts, occ} {
		w, err := FromResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("aggregate response round-trip mismatch:\n  sent %#v\n  got  %#v\n  wire %s", resp.Agg, got.Agg, data)
		}
	}
}

func TestDecodeResponseAggregateStrict(t *testing.T) {
	cases := map[string]string{
		"unknown kind":       `{"agg":{"kind":"median"}}`,
		"negative min_count": `{"agg":{"kind":"count","min_count":-1}}`,
		"negative pmf entry": `{"agg":{"kind":"count","pmf":[0.5,-0.1,0.6]}}`,
		"bad variance type":  `{"agg":{"kind":"count","pmf":[1],"variance":"x"}}`,
		"inf profile":        `{"agg":{"kind":"occupancy","profile":[{"time":1,"mean":1e999}]}}`,
	}
	for name, body := range cases {
		if _, err := DecodeResponse([]byte(body)); err == nil {
			t.Errorf("%s: decode accepted %s", name, body)
		}
	}
}

func TestDecodeRequestExprValidation(t *testing.T) {
	rejects(t, map[string]string{
		"dangling or":       "exists(states(1) @ {2}) or",
		"unknown op":        "exists(states(1) @ {2}) nand exists(states(3) @ {4})",
		"not without atom":  "not",
		"unclosed group":    "(exists(states(1) @ {2})",
		"non-boolean atom":  "ktimes(states(1) @ {2}) and exists(states(3) @ {4})",
		"eventually in and": "eventually(states(1)) or exists(states(3) @ {4})",
	})
}

func TestRequestRoundTripRegions(t *testing.T) {
	regions := []spatial.Region{
		spatial.NewRect(1, 2, 3, 4),
		spatial.Circle{Center: spatial.Point{X: -1, Y: 2.5}, Radius: 3},
		mustPolygon(t, []spatial.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: 3}}),
		spatial.Union{
			spatial.NewRect(0, 0, 1, 1),
			spatial.Circle{Center: spatial.Point{X: 5, Y: 5}, Radius: 1},
		},
		spatial.Difference{
			Base: spatial.NewRect(0, 0, 10, 10),
			Sub:  spatial.Circle{Center: spatial.Point{X: 5, Y: 5}, Radius: 2},
		},
	}
	for _, reg := range regions {
		req := core.NewRequest(core.PredicateExists,
			core.WithRegion(reg, nil), core.WithTimes([]int{3}))
		roundTrip(t, req)
	}
	// A region type outside the library's algebra has no text form.
	foreign := core.NewRequest(core.PredicateExists,
		core.WithRegion(spatial.Union{spatial.NewRect(0, 0, 1, 1), blob{}}, nil), core.WithTimes([]int{3}))
	if data, err := EncodeRequest(foreign); err == nil {
		t.Fatalf("foreign region encoded as %q", data)
	}
}

// blob is a region type outside the library's algebra.
type blob struct{}

func (blob) Contains(spatial.Point) bool { return false }
func (blob) BBox() spatial.Rect          { return spatial.Rect{} }

func mustPolygon(t *testing.T, pts []spatial.Point) spatial.Polygon {
	t.Helper()
	pg, err := spatial.NewPolygon(pts)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestDecodeRequestStrict(t *testing.T) {
	rejects(t, map[string]string{
		"unknown setting":     "exists(states(1) @ {2}) where bogus=1",
		"unknown predicate":   "sometimes(states(1) @ {2})",
		"missing predicate":   "(states(1) @ {2})",
		"empty":               "",
		"unknown strategy":    "exists(states(1) @ {2}) where strategy=quantum",
		"trailing garbage":    "exists(states(1) @ {2}) {x}",
		"negative top":        "exists(states(1) @ {2}) where top=-3",
		"threshold above one": "exists(states(1) @ {2}) where tau=1.5",
		"negative samples":    "exists(states(1) @ {2}) where samples=-1 seed=0",
		"negative id":         "exists(states(-1) @ {2})",
		"overflowing id":      "exists(states(18446744073709551615) @ {2})",
		"over-budget range":   "exists(states(0-2000000000) @ [0,1])",
		"bad region type":     "exists(blob(1,2) @ {2})",
		"rect without max":    "exists(region(0,0) @ {2})",
		"negative radius":     "exists(circle(0,0,-1) @ {2})",
		"two-point polygon":   "exists(polygon(0,0,1,1) @ {2})",
		"odd polygon":         "exists(polygon(0,0,1,1,2) @ {2})",
		"minus of states":     "exists(minus(states(1),region(0,0,1,1)) @ {2})",
		"one-sided minus":     "exists(minus(region(0,0,1,1)) @ {2})",
		"structured json":     `{"predicate":"exists","states":[1],"times":[2]}`,
		"not a query":         "hello",
	})
}

func TestDecodeRequestRegionDepthBounded(t *testing.T) {
	deep := strings.Repeat("minus(", 80) + "region(0,0,1,1)" + strings.Repeat(",region(0,0,1,1))", 80)
	if _, err := DecodeRequest([]byte("exists(" + deep + " @ {1})")); err == nil {
		t.Fatal("deeply nested region accepted")
	}
}

func TestResponseRoundTripExactFloats(t *testing.T) {
	probs := []float64{0, 1, 0.1 + 0.2, 1e-17, math.Nextafter(0.5, 1), 0.864}
	resp := &core.Response{Strategy: core.StrategyObjectBased}
	for i, p := range probs {
		resp.Results = append(resp.Results, core.Result{ObjectID: i, Prob: p, Dist: []float64{1 - p, p}})
	}
	resp.Plans = []core.CostEstimate{{Strategy: core.StrategyQueryBased, Sweeps: 2, Ops: 123.5}}
	resp.Cache = core.CacheReport{Hits: 3, Misses: 1}
	resp.Filter = core.FilterReport{Candidates: 6, Pruned: 4, Refined: 2}

	w, err := FromResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("response round-trip mismatch:\n  sent %#v\n  got  %#v", resp, got)
	}
}

// BenchmarkRequestRoundTrip is one request's trip through the codec as
// a served query makes it: the client's envelope (EncodeRequest), the
// server's envelope and request decode, and the single-flight key
// (EncodeRequest again). The request is shaped like the serve_hot
// workload's: exists over 100 contiguous states, a 5-step window, top 10.
func BenchmarkRequestRoundTrip(b *testing.B) {
	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(4200, 4299)), core.WithTimeRange(20, 24), core.WithTopK(10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := EncodeRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(QueryEnvelope{Dataset: "bench", Query: string(q)})
		if err != nil {
			b.Fatal(err)
		}
		var env QueryEnvelope
		if err := StrictUnmarshal(body, &env); err != nil {
			b.Fatal(err)
		}
		got, err := DecodeRequest([]byte(env.Query))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := EncodeRequest(got); err != nil {
			b.Fatal(err)
		}
	}
}
