// Package query implements the compact text query language of the ust
// engine: a one-line, human-writable form of a core.Request, and the
// one request encoding — `ustquery -q`, the HTTP API's "query" envelope
// field (what the Go client sends), the service's single-flight key, and
// Service.Subscribe via ParseQuery in the facade.
//
//	exists(states(100-120) @ [20,25]) where tau=0.3 strategy=auto
//	exists(region(10,20,0,30) @ [5,15]) and not forall(states(3,4) @ [0,9])
//	exists(states(7) @ [5,10]) then exists(states(9) @ [20,30]) where top=5
//	eventually(states(40,41)) where steps=500 tol=1e-9
//	exists(minus(polygon(0,0,8,0,4,6),circle(4,2,1))+region(9,9,12,12) @ [5,15])
//
// A single atom parses to the corresponding atomic predicate request;
// any use of and/or/not/then parses to a compound-expression request
// (evaluated exactly, correlations included — see ust.Expr). The
// ktimes and eventually predicates are not boolean and are only valid
// as the whole query. Format is the inverse of Parse and emits a
// canonical form: Format(Parse(s)) is a fixed point, which the parser
// fuzz test pins.
//
// Parse is safe on hostile input: nesting is capped at 64 levels and
// the whole query at 1<<24 ids, each range or interval charged before
// it is expanded.
//
// See README.md in this directory for the full grammar.
package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ust/internal/core"
	"ust/internal/spatial"
)

// ParseError is a syntax error with its byte offset in the query
// string. Column is 1-based; CLI front ends print a caret under it.
type ParseError struct {
	Pos int // 0-based byte offset into the query string
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("column %d: %s", e.Pos+1, e.Msg)
}

// Parse compiles a text query into a core.Request. Geometric regions
// are left unresolved (nil resolver); the serving layer attaches its
// dataset's spatial index.
func Parse(input string) (core.Request, error) {
	p := &parser{in: input}
	p.advance()
	aggPos, err := p.parseAggHead()
	if err != nil {
		return core.Request{}, err
	}
	root, err := p.parseExpr()
	if err != nil {
		return core.Request{}, err
	}
	if p.agg != nil {
		if _, err := p.expect(")"); err != nil {
			return core.Request{}, err
		}
		if p.agg.Kind == core.AggOccupancy && (root.op != core.ExprLeaf || root.pred != "exists") {
			return core.Request{}, p.errAt(aggPos, "occupancy(...) takes a single exists(...) atom")
		}
	}
	req, err := root.toRequest()
	if err != nil {
		return core.Request{}, err
	}
	if err := p.parseSettings(&req); err != nil {
		return core.Request{}, err
	}
	if tok := p.peek(); tok.kind != tokEOF {
		return core.Request{}, p.errAt(tok.pos, "unexpected %q", tok.text)
	}
	if p.agg != nil {
		core.WithAggregate(*p.agg)(&req)
	}
	return req, nil
}

// parseAggHead consumes a leading count( / occupancy( aggregate wrapper,
// recording the spec on the parser; the matching ")" is consumed by
// Parse after the inner query. Returns the wrapper's position.
func (p *parser) parseAggHead() (int, error) {
	t := p.peek()
	if t.kind != tokIdent || (t.text != "count" && t.text != "occupancy") {
		return 0, nil
	}
	p.advance()
	if _, err := p.expect("("); err != nil {
		return 0, err
	}
	kind := core.AggCount
	if t.text == "occupancy" {
		kind = core.AggOccupancy
	}
	p.agg = &core.AggSpec{Kind: kind}
	return t.pos, nil
}

// --- AST -------------------------------------------------------------------

// node is the parse tree: leaves carry a predicate name and window,
// inner nodes a combinator.
type node struct {
	op     core.ExprOp
	pred   string // leaf only: exists | forall | ktimes | eventually
	states []int
	region spatial.Region
	times  []int
	kids   []*node
	pos    int
}

// toRequest converts the root: a lone atom becomes an atomic request,
// anything else a compound-expression request.
func (n *node) toRequest() (core.Request, error) {
	if n.op == core.ExprLeaf {
		var pred core.Predicate
		switch n.pred {
		case "exists":
			pred = core.PredicateExists
		case "forall":
			pred = core.PredicateForAll
		case "ktimes":
			pred = core.PredicateKTimes
		case "eventually":
			pred = core.PredicateEventually
		}
		return core.Request{Predicate: pred, States: n.states, Times: n.times, Region: n.region}, nil
	}
	x, err := n.toExpr()
	if err != nil {
		return core.Request{}, err
	}
	return core.NewExprRequest(x), nil
}

func (n *node) toExpr() (core.Expr, error) {
	if n.op == core.ExprLeaf {
		if n.pred != "exists" && n.pred != "forall" {
			return core.Expr{}, &ParseError{Pos: n.pos, Msg: fmt.Sprintf("%s is not boolean and cannot be combined; only exists/forall atoms may appear in compound expressions", n.pred)}
		}
		return core.NewAtom(core.ExprAtom{
			ForAll: n.pred == "forall",
			States: n.states,
			Times:  n.times,
			Region: n.region,
		}), nil
	}
	kids := make([]core.Expr, len(n.kids))
	for i, kid := range n.kids {
		x, err := kid.toExpr()
		if err != nil {
			return core.Expr{}, err
		}
		kids[i] = x
	}
	switch n.op {
	case core.ExprAnd:
		return core.And(kids...), nil
	case core.ExprOr:
		return core.Or(kids...), nil
	case core.ExprThen:
		return core.Then(kids...), nil
	default:
		return core.Not(kids[0]), nil
	}
}

// --- lexer -----------------------------------------------------------------

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct
	tokBad // a character outside the language; p.lexErr says which
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// The parser's limits on hostile input.
const (
	// maxNesting bounds parentheses, not and minus(...) nesting, so no
	// input drives unbounded recursion.
	maxNesting = 64
	// maxIDs bounds the ids one query may name, ranges and intervals
	// counted before they are expanded, so no short input forces a huge
	// allocation. A million-state window is legitimate; the engine
	// re-validates ids against the actual state space anyway.
	maxIDs = 1 << 24
)

// parser lexes on demand: tok is the one token of lookahead.
type parser struct {
	in     string
	off    int // byte offset the next token is lexed from
	tok    token
	lexErr error
	depth  int // current nesting, against maxNesting
	ids    int // ids named so far, against maxIDs
	// agg is the aggregate wrapper (count/occupancy), when present; its
	// MinCount is filled by the where-clause "min" setting.
	agg *core.AggSpec
}

// errAt reports a syntax error. A character the lexer refused wins: it
// sits at or before the token the parser stopped on.
func (p *parser) errAt(pos int, format string, args ...any) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func isIdentRune(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// advance lexes the next token into p.tok. A bad character becomes a
// tokBad token the lexer never moves past.
func (p *parser) advance() {
	if p.tok.kind == tokBad {
		return
	}
	in, i := p.in, p.off
	for i < len(in) && (in[i] == ' ' || in[i] == '\t' || in[i] == '\n' || in[i] == '\r') {
		i++
	}
	start := i
	switch {
	case i == len(in):
		p.tok = token{kind: tokEOF, text: "end of query", pos: i}
	case isIdentRune(in[i]):
		for i < len(in) && (isIdentRune(in[i]) || isDigit(in[i])) {
			i++
		}
		p.tok = token{kind: tokIdent, text: strings.ToLower(in[start:i]), pos: start}
	case isDigit(in[i]) || in[i] == '.' && i+1 < len(in) && isDigit(in[i+1]):
		for i < len(in) && (isDigit(in[i]) || in[i] == '.') {
			i++
		}
		// Exponent: 1e9, 2.5e-3. The sign belongs to the number.
		if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
			j := i + 1
			if j < len(in) && (in[j] == '+' || in[j] == '-') {
				j++
			}
			if j < len(in) && isDigit(in[j]) {
				i = j
				for i < len(in) && isDigit(in[i]) {
					i++
				}
			}
		}
		p.tok = token{kind: tokNumber, text: in[start:i], pos: start}
	case strings.IndexByte("()[]{},@+-=", in[i]) >= 0:
		i++
		p.tok = token{kind: tokPunct, text: in[start:i], pos: start}
	default:
		p.tok = token{kind: tokBad, text: in[start : start+1], pos: start}
		p.lexErr = &ParseError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", in[start])}
	}
	p.off = i
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	p.advance()
	return t
}

func (p *parser) accept(punct string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == punct {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptIdent(word string) bool {
	if t := p.peek(); t.kind == tokIdent && t.text == word {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(punct string) (token, error) {
	t := p.next()
	if t.kind != tokPunct || t.text != punct {
		return t, p.errAt(t.pos, "expected %q, got %q", punct, t.text)
	}
	return t, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, p.errAt(t.pos, "expected a number, got %q", t.text)
	}
	v, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errAt(t.pos, "expected an integer, got %q", t.text)
	}
	return v, nil
}

// expectFloat parses a number with an optional leading minus (region
// coordinates may be negative).
func (p *parser) expectFloat() (float64, error) {
	neg := p.accept("-")
	t := p.next()
	if t.kind != tokNumber {
		return 0, p.errAt(t.pos, "expected a number, got %q", t.text)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errAt(t.pos, "bad number %q", t.text)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// enter descends one nesting level at pos; leave climbs back.
func (p *parser) enter(pos int) error {
	if p.depth++; p.depth > maxNesting {
		return p.errAt(pos, "nesting deeper than %d", maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// spend charges the ids lo..hi against the query's budget, before they
// are expanded.
func (p *parser) spend(pos, lo, hi int) error {
	if hi-lo >= maxIDs-p.ids {
		return p.errAt(pos, "query names more than %d ids", maxIDs)
	}
	p.ids += hi - lo + 1
	return nil
}

// --- grammar ---------------------------------------------------------------

// parseExpr: or-expression (lowest precedence).
func (p *parser) parseExpr() (*node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []*node{left}
	pos := left.pos
	for p.acceptIdent("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &node{op: core.ExprOr, kids: kids, pos: pos}, nil
}

func (p *parser) parseAnd() (*node, error) {
	left, err := p.parseThen()
	if err != nil {
		return nil, err
	}
	kids := []*node{left}
	for p.acceptIdent("and") {
		right, err := p.parseThen()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &node{op: core.ExprAnd, kids: kids, pos: left.pos}, nil
}

func (p *parser) parseThen() (*node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	kids := []*node{left}
	for p.acceptIdent("then") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &node{op: core.ExprThen, kids: kids, pos: left.pos}, nil
}

func (p *parser) parseUnary() (*node, error) {
	t := p.peek()
	isNot := t.kind == tokIdent && t.text == "not"
	if !isNot && (t.kind != tokPunct || t.text != "(") {
		return p.parseAtom()
	}
	if err := p.enter(t.pos); err != nil {
		return nil, err
	}
	defer p.leave()
	p.advance()
	if isNot {
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &node{op: core.ExprNot, kids: []*node{kid}, pos: t.pos}, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	return x, nil
}

func (p *parser) parseAtom() (*node, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errAt(t.pos, "expected a predicate (exists/forall/ktimes/eventually), got %q", t.text)
	}
	switch t.text {
	case "exists", "forall", "ktimes", "eventually":
	default:
		return nil, p.errAt(t.pos, "unknown predicate %q", t.text)
	}
	n := &node{op: core.ExprLeaf, pred: t.text, pos: t.pos}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.parseSpace(n); err != nil {
		return nil, err
	}
	if p.accept("@") {
		times, err := p.parseTimes()
		if err != nil {
			return nil, err
		}
		n.times = times
	} else if n.pred != "eventually" {
		// The other predicates need a temporal window; an empty one is
		// expressible explicitly as "@ {}".
		if tok := p.peek(); tok.kind == tokPunct && tok.text == ")" {
			return nil, p.errAt(tok.pos, "%s needs a time window: %s(... @ [lo,hi])", n.pred, n.pred)
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	return n, nil
}

// parseSpace: one or more '+'-joined terms, states(...) or geometric;
// several geometric terms form one union.
func (p *parser) parseSpace(n *node) error {
	for {
		if p.acceptIdent("states") {
			if _, err := p.expect("("); err != nil {
				return err
			}
			ids, err := p.parseIntSet(")")
			if err != nil {
				return err
			}
			if n.states == nil {
				n.states = ids
			} else {
				n.states = append(n.states, ids...)
			}
		} else {
			r, err := p.parseRegion("states(...) or a region term")
			if err != nil {
				return err
			}
			n.region = unionWith(n.region, r)
		}
		if !p.accept("+") {
			return nil
		}
	}
}

// parseRegionSum: one or more '+'-joined geometric terms, the operands
// of minus(...).
func (p *parser) parseRegionSum() (spatial.Region, error) {
	var sum spatial.Region
	for {
		r, err := p.parseRegion("a region term")
		if err != nil {
			return nil, err
		}
		sum = unionWith(sum, r)
		if !p.accept("+") {
			return sum, nil
		}
	}
}

// unionWith adds the term r to the region sum: the first term stands
// alone, several form one flat union.
func unionWith(sum, r spatial.Region) spatial.Region {
	switch u := sum.(type) {
	case nil:
		return r
	case spatial.Union:
		return append(u, r)
	default:
		return spatial.Union{sum, r}
	}
}

// parseRegion: one geometric term — region(x1,y1,x2,y2), circle(cx,cy,r),
// polygon(x1,y1,x2,y2,x3,y3,...) or minus(sum, sum). want names what
// the caller accepts, for the error.
func (p *parser) parseRegion(want string) (spatial.Region, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, p.errAt(t.pos, "expected %s, got %q", want, t.text)
	}
	var c [4]float64
	switch t.text {
	case "region":
		v, err := p.parseNums(c[:0], 4)
		if err != nil {
			return nil, err
		}
		return spatial.NewRect(v[0], v[1], v[2], v[3]), nil
	case "circle":
		v, err := p.parseNums(c[:0], 3)
		if err != nil {
			return nil, err
		}
		if v[2] < 0 {
			return nil, p.errAt(t.pos, "negative circle radius %g", v[2])
		}
		return spatial.Circle{Center: spatial.Point{X: v[0], Y: v[1]}, Radius: v[2]}, nil
	case "polygon":
		v, err := p.parseNums(nil, -1)
		if err != nil {
			return nil, err
		}
		if len(v)%2 != 0 {
			return nil, p.errAt(t.pos, "polygon takes x,y pairs, got %d numbers", len(v))
		}
		verts := make([]spatial.Point, len(v)/2)
		for i := range verts {
			verts[i] = spatial.Point{X: v[2*i], Y: v[2*i+1]}
		}
		pg, err := spatial.NewPolygon(verts)
		if err != nil {
			return nil, p.errAt(t.pos, "%v", err)
		}
		return pg, nil
	case "minus":
		if err := p.enter(t.pos); err != nil {
			return nil, err
		}
		defer p.leave()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		base, err := p.parseRegionSum()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(","); err != nil {
			return nil, err
		}
		sub, err := p.parseRegionSum()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return spatial.Difference{Base: base, Sub: sub}, nil
	default:
		return nil, p.errAt(t.pos, "expected %s, got %q", want, t.text)
	}
}

// parseNums: "(" num {"," num} ")" appended to c — exactly n numbers,
// or any positive count when n < 0.
func (p *parser) parseNums(c []float64, n int) ([]float64, error) {
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	for {
		v, err := p.expectFloat()
		if err != nil {
			return nil, err
		}
		c = append(c, v)
		if len(c) == n {
			break
		}
		if n < 0 {
			if !p.accept(",") {
				break
			}
		} else if _, err := p.expect(","); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseTimes: "[lo,hi]" interval sugar or "{a,b,c-d}" explicit set.
func (p *parser) parseTimes() ([]int, error) {
	if p.accept("[") {
		lo, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(","); err != nil {
			return nil, err
		}
		hiTok := p.peek()
		hi, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, p.errAt(hiTok.pos, "inverted interval [%d,%d]", lo, hi)
		}
		if err := p.spend(hiTok.pos, lo, hi); err != nil {
			return nil, err
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		return core.Interval(lo, hi), nil
	}
	if p.accept("{") {
		return p.parseIntSet("}")
	}
	t := p.peek()
	return nil, p.errAt(t.pos, "expected a time window: [lo,hi] or {t1,t2,...}, got %q", t.text)
}

// parseIntSet: comma-separated ints and lo-hi ranges up to the closing
// token (consumed). The empty set is allowed.
func (p *parser) parseIntSet(closing string) ([]int, error) {
	var out []int
	if p.accept(closing) {
		return out, nil
	}
	for {
		lo, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		hi, hiTok := lo, p.peek()
		if p.accept("-") {
			hiTok = p.peek()
			if hi, err = p.expectInt(); err != nil {
				return nil, err
			}
			if hi < lo {
				return nil, p.errAt(hiTok.pos, "inverted range %d-%d", lo, hi)
			}
		}
		if err := p.spend(hiTok.pos, lo, hi); err != nil {
			return nil, err
		}
		out = slices.Grow(out, hi-lo+1)
		for v := range hi - lo + 1 {
			out = append(out, lo+v)
		}
		if p.accept(closing) {
			return out, nil
		}
		if _, err := p.expect(","); err != nil {
			return nil, err
		}
	}
}

// --- where clause ----------------------------------------------------------

// parseSettings applies the where-clause to req.
func (p *parser) parseSettings(req *core.Request) error {
	if !p.acceptIdent("where") {
		return nil
	}
	var mcSamples int
	var mcSeed int64
	haveMC := false
	for {
		t := p.peek()
		if t.kind != tokIdent {
			break
		}
		p.advance()
		if _, err := p.expect("="); err != nil {
			return err
		}
		switch t.text {
		case "tau":
			v, err := p.expectFloat()
			if err != nil {
				return err
			}
			if !(v >= 0 && v <= 1) {
				return p.errAt(t.pos, "tau %g outside [0,1]", v)
			}
			core.WithThreshold(v)(req)
		case "top":
			v, err := p.expectInt()
			if err != nil {
				return err
			}
			core.WithTopK(v)(req)
		case "strategy":
			s := p.next()
			switch s.text {
			case "auto":
				core.WithAutoPlan()(req)
			case "qb":
				core.WithStrategy(core.StrategyQueryBased)(req)
			case "ob":
				core.WithStrategy(core.StrategyObjectBased)(req)
			case "mc":
				core.WithStrategy(core.StrategyMonteCarlo)(req)
			default:
				return p.errAt(s.pos, "unknown strategy %q (auto|qb|ob|mc)", s.text)
			}
		case "workers":
			v, err := p.expectInt()
			if err != nil {
				return err
			}
			core.WithParallelism(v)(req)
		case "samples":
			v, err := p.expectInt()
			if err != nil {
				return err
			}
			mcSamples, haveMC = v, true
		case "seed":
			sign := ""
			if p.accept("-") {
				sign = "-"
			}
			n := p.next()
			v, err := strconv.ParseInt(sign+n.text, 10, 64)
			if n.kind != tokNumber || err != nil {
				return p.errAt(n.pos, "expected an integer seed, got %q", n.text)
			}
			mcSeed, haveMC = v, true
		case "cache":
			v, err := p.parseOnOff(t.text)
			if err != nil {
				return err
			}
			core.WithCache(v)(req)
		case "filter":
			v, err := p.parseOnOff(t.text)
			if err != nil {
				return err
			}
			core.WithFilterRefine(v)(req)
		case "steps":
			v, err := p.expectInt()
			if err != nil {
				return err
			}
			_, tol := req.HittingHint()
			core.WithHittingLimits(v, tol)(req)
		case "tol":
			v, err := p.expectFloat()
			if err != nil {
				return err
			}
			steps, _ := req.HittingHint()
			core.WithHittingLimits(steps, v)(req)
		case "min":
			if p.agg == nil {
				return p.errAt(t.pos, "min applies to count(...)/occupancy(...) queries only")
			}
			v, err := p.expectInt()
			if err != nil {
				return err
			}
			p.agg.MinCount = v
		default:
			return p.errAt(t.pos, "unknown setting %q (min, tau, top, strategy, workers, samples, seed, cache, filter, steps, tol)", t.text)
		}
		p.accept(",")
	}
	if haveMC {
		core.WithMonteCarloBudget(mcSamples, mcSeed)(req)
	}
	return nil
}

func (p *parser) parseOnOff(key string) (bool, error) {
	t := p.next()
	switch t.text {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	default:
		return false, p.errAt(t.pos, "%s wants on/off, got %q", key, t.text)
	}
}
