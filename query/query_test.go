package query

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/spatial"
)

// mustParse fails the test on a parse error.
func mustParse(t *testing.T, s string) core.Request {
	t.Helper()
	req, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return req
}

func TestParseAtomicRequests(t *testing.T) {
	req := mustParse(t, "exists(states(100-102,110) @ [20,22]) where tau=0.3 strategy=auto")
	if req.Predicate != core.PredicateExists {
		t.Fatalf("predicate %v", req.Predicate)
	}
	if want := []int{100, 101, 102, 110}; len(req.States) != 4 || req.States[3] != want[3] {
		t.Fatalf("states %v", req.States)
	}
	if len(req.Times) != 3 || req.Times[0] != 20 || req.Times[2] != 22 {
		t.Fatalf("times %v", req.Times)
	}
	if tau, ok := req.ThresholdHint(); !ok || tau != 0.3 {
		t.Fatalf("threshold %v %v", tau, ok)
	}
	if !req.AutoPlanHint() {
		t.Fatal("auto-plan not set")
	}

	req = mustParse(t, "KTIMES(states(5) @ {1,3,5}) where strategy=ob workers=4")
	if req.Predicate != core.PredicateKTimes {
		t.Fatalf("predicate %v", req.Predicate)
	}
	if s, ok := req.StrategyHint(); !ok || s != core.StrategyObjectBased {
		t.Fatalf("strategy %v %v", s, ok)
	}
	if req.ParallelismHint() != 4 {
		t.Fatalf("workers %d", req.ParallelismHint())
	}

	req = mustParse(t, "eventually(states(40,41)) where steps=500 tol=1e-9")
	if req.Predicate != core.PredicateEventually {
		t.Fatalf("predicate %v", req.Predicate)
	}
	if steps, tol := req.HittingHint(); steps != 500 || tol != 1e-9 {
		t.Fatalf("hitting %d %g", steps, tol)
	}

	req = mustParse(t, "forall(region(0,0,10,10)+states(3) @ {7}) where samples=200 seed=9 cache=off filter=off")
	if req.Region == nil {
		t.Fatal("no region")
	}
	if _, ok := req.Region.(spatial.Rect); !ok {
		t.Fatalf("region %T", req.Region)
	}
	if samples, seed, ok := req.MonteCarloHint(); !ok || samples != 200 || seed != 9 {
		t.Fatalf("mc %d %d %v", samples, seed, ok)
	}
	if on, ok := req.CacheHint(); !ok || on {
		t.Fatal("cache hint")
	}
	if on, ok := req.FilterRefineHint(); !ok || on {
		t.Fatal("filter hint")
	}

	req = mustParse(t, "exists(circle(5,5,2.5) @ [1,3])")
	if _, ok := req.Region.(spatial.Circle); !ok {
		t.Fatalf("region %T", req.Region)
	}
}

func TestParseCompound(t *testing.T) {
	req := mustParse(t, "exists(states(1,2) @ [5,15]) and not forall(states(3,4) @ [0,9]) where top=5")
	if req.Predicate != core.PredicateExpr {
		t.Fatalf("predicate %v", req.Predicate)
	}
	x, ok := req.ExprHint()
	if !ok || x.Op() != core.ExprAnd {
		t.Fatalf("expr %v %v", x.Op(), ok)
	}
	kids := x.Operands()
	if len(kids) != 2 || kids[1].Op() != core.ExprNot {
		t.Fatalf("operands %d", len(kids))
	}
	if req.TopKHint() != 5 {
		t.Fatalf("top %d", req.TopKHint())
	}

	// Precedence: or < and < then < not.
	req = mustParse(t, "exists(states(1) @ {1}) or exists(states(2) @ {1}) and exists(states(3) @ {1}) then exists(states(4) @ {2})")
	x, _ = req.ExprHint()
	if x.Op() != core.ExprOr {
		t.Fatalf("root %v", x.Op())
	}
	right := x.Operands()[1]
	if right.Op() != core.ExprAnd {
		t.Fatalf("right of or: %v", right.Op())
	}
	if right.Operands()[1].Op() != core.ExprThen {
		t.Fatalf("right of and: %v", right.Operands()[1].Op())
	}

	// Parentheses override precedence.
	req = mustParse(t, "(exists(states(1) @ {1}) or exists(states(2) @ {1})) and exists(states(3) @ {1})")
	x, _ = req.ExprHint()
	if x.Op() != core.ExprAnd {
		t.Fatalf("root %v", x.Op())
	}
}

func TestParseAggregate(t *testing.T) {
	req := mustParse(t, "count(exists(states(2,3) @ [1,4])) where min=3 strategy=qb")
	spec, ok := req.AggregateHint()
	if !ok || spec.Kind != core.AggCount || spec.MinCount != 3 {
		t.Fatalf("aggregate hint %+v %v", spec, ok)
	}
	if req.Predicate != core.PredicateExists {
		t.Fatalf("predicate %v", req.Predicate)
	}
	if s, sok := req.StrategyHint(); !sok || s != core.StrategyQueryBased {
		t.Fatalf("strategy %v %v", s, sok)
	}

	// A compound body turns into an expr request with the aggregate riding on top.
	req = mustParse(t, "count(exists(states(1) @ [1,2]) and not forall(states(3) @ [0,2]))")
	if req.Predicate != core.PredicateExpr {
		t.Fatalf("predicate %v", req.Predicate)
	}
	if spec, ok = req.AggregateHint(); !ok || spec.Kind != core.AggCount || spec.MinCount != 0 {
		t.Fatalf("aggregate hint %+v %v", spec, ok)
	}

	req = mustParse(t, "occupancy(exists(states(7-9) @ [0,10])) where min=2")
	if spec, ok = req.AggregateHint(); !ok || spec.Kind != core.AggOccupancy || spec.MinCount != 2 {
		t.Fatalf("aggregate hint %+v %v", spec, ok)
	}

	req = mustParse(t, "count(ktimes(states(5) @ {1,3,5})) where workers=2")
	if req.Predicate != core.PredicateKTimes {
		t.Fatalf("predicate %v", req.Predicate)
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		in     string
		substr string
	}{
		{"exsts(states(1) @ [1,2])", "unknown predicate"},
		{"exists(states(1))", "needs a time window"},
		{"exists(states(1) @ [5,2])", "inverted interval"},
		{"exists(states(9-2) @ [1,2])", "inverted range"},
		{"exists(states(1) @ [1,2]) trailing", "unexpected"},
		{"exists(states(1) @ [1,2]) where tau=nope", "expected a number"},
		{"exists(states(1) @ [1,2]) where frobnicate=3", "unknown setting"},
		{"ktimes(states(1) @ [1,2]) and exists(states(2) @ [1,2])", "cannot be combined"},
		{"eventually(states(1)) or exists(states(2) @ [1,2])", "cannot be combined"},
		{"exists(region(1,2,3) @ [1,2])", "expected"},
		{"exists(states(1) @ [1,2]) where strategy=warp", "unknown strategy"},
		{"", "expected a predicate"},
		{"exists(states(1) @ [1,2]) ??", "unexpected character"},
		{"occupancy(ktimes(states(1) @ {1}))", "single exists"},
		{"occupancy(exists(states(1) @ {1}) and exists(states(2) @ {1}))", "single exists"},
		{"exists(states(1) @ [1,2]) where min=1", "min applies to count"},
		{"count(exists(states(1) @ [1,2])) where min=-2", "expected a number"},
		{"count(exists(states(1) @ [1,2])", "expected"},
		{"count(", "expected a predicate"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("Parse(%q) = %v, want substring %q", tc.in, err, tc.substr)
		}
		var pe *ParseError
		if !asParseError(err, &pe) {
			t.Errorf("Parse(%q) error is %T, not *ParseError", tc.in, err)
			continue
		}
		if pe.Pos < 0 || pe.Pos > len(tc.in) {
			t.Errorf("Parse(%q): position %d out of range", tc.in, pe.Pos)
		}
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

func TestFormatRoundTrip(t *testing.T) {
	cases := []string{
		"exists(states(100-120) @ [20,25])",
		"exists(states(1-3,7) @ [5,15]) and not forall(states(3,4) @ {0,2,9})",
		"exists(states(7) @ [5,10]) then exists(states(9) @ [20,30]) where top=5",
		"eventually(states(40,41)) where steps=500 tol=1e-09",
		"ktimes(states(5) @ {1,3,5}) where strategy=ob",
		"forall(region(0,0,10,10) @ {7}) where tau=0.25 strategy=mc samples=200 seed=9 cache=off filter=off",
		"exists(circle(5,5,2.5) @ [1,3]) where workers=0",
		"not (exists(states(1) @ [1,2]) or forall(states(2) @ [1,2]))",
		"exists(states() @ {})",
		"count(exists(states(2,3) @ [1,4])) where min=3 strategy=qb",
		"count(exists(states(1) @ [1,2]) and not forall(states(3) @ [0,2]))",
		"occupancy(exists(states(7-9) @ [0,10])) where min=2 filter=off",
		"count(ktimes(states(5) @ {1,3,5})) where workers=2",
		"exists(polygon(0,0,4,0,2,3)+states(9) @ [1,2]) where strategy=mc samples=5 seed=-17",
		"exists(states(1) @ {1}) where seed=-9223372036854775808",
		"exists(region(0,0,1,1)+circle(5,5,1) @ {3}) and forall(minus(region(0,0,9,9),polygon(1,1,2,1,1,2)) @ {4})",
		"exists(minus(region(-1,-1,1,1)+circle(3,3,1e-07),minus(circle(0,0,0.5),region(0,0,1e+308,1))) @ {0})",
	}
	for _, in := range cases {
		req := mustParse(t, in)
		out, err := Format(req)
		if err != nil {
			t.Errorf("Format(Parse(%q)): %v", in, err)
			continue
		}
		if out != in {
			t.Errorf("Format(Parse(%q)) = %q, not canonical", in, out)
		}
		// And the canonical form is a fixed point.
		again, err := Format(mustParse(t, out))
		if err != nil || again != out {
			t.Errorf("fixed point broken: %q -> %q (%v)", out, again, err)
		}
	}
}

// blob is a region type outside the library's algebra.
type blob struct{}

func (blob) Contains(spatial.Point) bool { return false }
func (blob) BBox() spatial.Rect          { return spatial.Rect{} }

// TestFormatRejectsInexpressible pins the failure mode for what the
// language cannot carry: foreign region types, non-finite numbers, and
// negative ids and counts.
func TestFormatRejectsInexpressible(t *testing.T) {
	window := core.WithTimes([]int{1})
	for name, req := range map[string]core.Request{
		"foreign region": core.NewRequest(core.PredicateExists, core.WithRegion(blob{}, nil), window),
		"foreign region in a union": core.NewRequest(core.PredicateExists,
			core.WithRegion(spatial.Union{spatial.NewRect(0, 0, 1, 1), blob{}}, nil), window),
		"foreign region in an atom": core.NewExprRequest(core.Not(core.ExistsAtom(
			core.WithRegion(blob{}, nil), window))),
		"infinite coordinate": core.NewRequest(core.PredicateExists,
			core.WithRegion(spatial.Circle{Radius: math.Inf(1)}, nil), window),
		"NaN threshold":  core.NewRequest(core.PredicateExists, window, core.WithThreshold(math.NaN())),
		"negative state": core.NewRequest(core.PredicateExists, core.WithStates([]int{-1}), window),
	} {
		if out, err := Format(req); err == nil {
			t.Errorf("%s: formatted as %q", name, out)
		}
	}
}

// TestRegionCanonicalForm pins how every region of the library's algebra
// prints: a union's members as one '+' sum, nested unions flattened and
// empty ones dropped, a one-member union as its member, and a difference
// as minus(...), or as its base when the subtrahend is empty.
func TestRegionCanonicalForm(t *testing.T) {
	rect := spatial.NewRect(0, 0, 2, 2)
	circle := spatial.Circle{Center: spatial.Point{X: 1, Y: 1}, Radius: 0.5}
	pg, err := spatial.NewPolygon([]spatial.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 2, Y: -3.5}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		region spatial.Region
		states []int
		want   string
	}{
		{pg, nil, "exists(polygon(0,0,4,0,2,-3.5) @ {1})"},
		{spatial.Union{rect, circle}, nil, "exists(region(0,0,2,2)+circle(1,1,0.5) @ {1})"},
		{spatial.Union{rect, spatial.Union{circle, pg}}, []int{7},
			"exists(region(0,0,2,2)+circle(1,1,0.5)+polygon(0,0,4,0,2,-3.5)+states(7) @ {1})"},
		{spatial.Union{circle}, nil, "exists(circle(1,1,0.5) @ {1})"},
		{spatial.Union{}, nil, "exists(states() @ {1})"},
		{spatial.Union{spatial.Union{}, rect}, []int{3}, "exists(region(0,0,2,2)+states(3) @ {1})"},
		{spatial.Difference{Base: rect, Sub: circle}, nil, "exists(minus(region(0,0,2,2),circle(1,1,0.5)) @ {1})"},
		{spatial.Difference{Base: spatial.Union{rect, pg}, Sub: spatial.Difference{Base: circle, Sub: rect}}, nil,
			"exists(minus(region(0,0,2,2)+polygon(0,0,4,0,2,-3.5),minus(circle(1,1,0.5),region(0,0,2,2))) @ {1})"},
		{spatial.Difference{Base: rect, Sub: spatial.Union{}}, nil, "exists(region(0,0,2,2) @ {1})"},
		{spatial.Difference{Base: spatial.Union{}, Sub: rect}, []int{4}, "exists(states(4) @ {1})"},
	}
	for _, tc := range cases {
		req := core.NewRequest(core.PredicateExists, core.WithRegion(tc.region, nil),
			core.WithStates(tc.states), core.WithTimes([]int{1}))
		got, err := Format(req)
		if err != nil {
			t.Errorf("Format(%#v): %v", tc.region, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Format(%#v) = %q, want %q", tc.region, got, tc.want)
		}
		if again, err := Format(mustParse(t, got)); err != nil || again != got {
			t.Errorf("fixed point broken: %q -> %q (%v)", got, again, err)
		}
	}
}

// TestParseBoundsHostileInput pins the parser's two limits: a range or
// interval is charged against the query's id budget before it is
// expanded, so a few bytes cannot ask for gigabytes, and nesting stops
// at 64 levels.
func TestParseBoundsHostileInput(t *testing.T) {
	for _, in := range []string{
		"exists(states(0-20000000) @ [0,1])",
		"exists(states(1) @ [0,9223372036854775807])",
		"exists(states(0-1000) @ [0,1]) and exists(states(5,0-16777215) @ [0,1])",
	} {
		var err error
		grew := allocated(func() { _, err = Parse(in) })
		if err == nil {
			t.Errorf("Parse(%q) accepted an over-budget query", in)
		} else if !strings.Contains(err.Error(), "ids") {
			t.Errorf("Parse(%q) = %v, want the id budget error", in, err)
		}
		if grew >= 1<<20 {
			t.Errorf("Parse(%q) allocated %d bytes before refusing", in, grew)
		}
	}

	deepRegion := "exists(" + strings.Repeat("minus(", 65) + "region(0,0,1,1)" +
		strings.Repeat(",circle(0,0,1))", 65) + " @ {1})"
	deepExpr := strings.Repeat("not ", 65) + "exists(states(1) @ {1})"
	deepParens := strings.Repeat("(", 65) + "exists(states(1) @ {1})" + strings.Repeat(")", 65)
	for _, in := range []string{deepRegion, deepExpr, deepParens} {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), "nesting deeper than 64") {
			t.Errorf("Parse(%.40q...) = %v, want the nesting error", in, err)
		}
	}
	if _, err := Parse("exists(" + strings.Repeat("minus(", 64) + "region(0,0,1,1)" +
		strings.Repeat(",circle(0,0,1))", 64) + " @ {1})"); err != nil {
		t.Errorf("64 nested minus(...): %v", err)
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParsedQueryEvaluates runs a parsed compound query end-to-end and
// checks it matches the equivalent hand-built request.
func TestParsedQueryEvaluates(t *testing.T) {
	chain, err := markov.FromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(chain)
	if err := db.AddSimple(1, markov.PointDistribution(3, 2)); err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(db, core.Options{})
	ctx := context.Background()

	parsed := mustParse(t, "exists(states(0) @ [2,3]) and not forall(states(1,2) @ [1,2])")
	built := core.NewExprRequest(core.And(
		core.ExistsAtom(core.WithStates([]int{0}), core.WithTimeRange(2, 3)),
		core.Not(core.ForAllAtom(core.WithStates([]int{1, 2}), core.WithTimeRange(1, 2))),
	))
	respParsed, err := engine.Evaluate(ctx, parsed)
	if err != nil {
		t.Fatal(err)
	}
	respBuilt, err := engine.Evaluate(ctx, built)
	if err != nil {
		t.Fatal(err)
	}
	if respParsed.Results[0].Prob != respBuilt.Results[0].Prob {
		t.Fatalf("parsed %v != built %v", respParsed.Results[0].Prob, respBuilt.Results[0].Prob)
	}
}
