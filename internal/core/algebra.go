package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ust/internal/spatial"
)

// The composable predicate algebra. An Expr is a boolean combination of
// spatio-temporal atoms — each atom a PST∃Q or PST∀Q with its OWN
// window/region — asked of one object's single trajectory distribution:
//
//	P( exists(A, [5,10]) AND NOT forall(B, [20,30]) )
//
// The critical point is that the atoms are correlated through the shared
// trajectory: P(A ∧ B) is NOT P(A)·P(B), so clients combining per-atom
// answers from separate requests get wrong numbers. The engine evaluates
// compound expressions exactly by flag-bit state-space augmentation
// (plan.go): the chain's state space is crossed with {0,1}^m, bit i
// recording whether atom i has "fired" along the trajectory so far, and
// one augmented sweep answers the whole expression — the same
// state-space-blowup technique the paper uses for the PSTkQ count
// (ktimes_augmented.go), with visit counts replaced by an atom bitmask.
//
// Build expressions with ExistsAtom/ForAllAtom and combine with And, Or,
// Not and Then; evaluate them through the regular Request/Evaluate
// surface via NewExprRequest (ranking, strategies, caching and
// filter–refine pruning all apply).

// ExprOp identifies the node kind of an Expr.
type ExprOp int

const (
	// ExprLeaf is an atom: one predicate with its own window.
	ExprLeaf ExprOp = iota
	// ExprAnd requires every operand.
	ExprAnd
	// ExprOr requires at least one operand.
	ExprOr
	// ExprNot negates its single operand.
	ExprNot
	// ExprThen is sequencing: like ExprAnd, but each operand's time
	// window must end strictly before the next operand's begins.
	ExprThen
)

func (op ExprOp) String() string {
	switch op {
	case ExprLeaf:
		return "atom"
	case ExprAnd:
		return "and"
	case ExprOr:
		return "or"
	case ExprNot:
		return "not"
	case ExprThen:
		return "then"
	default:
		return fmt.Sprintf("ExprOp(%d)", int(op))
	}
}

// ExprAtom is the leaf payload of an Expr: one of the two boolean
// predicates over its own spatio-temporal window. (PSTkQ and
// eventually-queries are not boolean and cannot appear inside a compound
// expression; ask them as plain Requests.)
type ExprAtom struct {
	// ForAll selects PST∀Q semantics; false means PST∃Q.
	ForAll bool
	// States is the spatial predicate as raw state identifiers.
	States []int
	// Times is the temporal predicate as absolute timestamps.
	Times []int
	// Region is an optional geometric spatial predicate, resolved
	// through Resolver at evaluation time and unioned with States.
	Region spatial.Region
	// Resolver grounds Region; the serving layer attaches its dataset's
	// resolver to wire-decoded atoms.
	Resolver spatial.Resolver
}

// Expr is a node of the predicate algebra. The zero value is an empty
// exists-atom (constant false over any non-empty horizon). Expr values
// are immutable once built — combinators copy their operand slices, so
// sub-expressions can be shared and reused freely.
type Expr struct {
	op   ExprOp
	atom ExprAtom
	kids []Expr
}

// MaxExprAtoms bounds the number of atoms in one expression: the
// augmented evaluation crosses the state space with one flag bit per
// atom, so cost grows with 2^atoms.
const MaxExprAtoms = 8

// NewAtom wraps an ExprAtom as an expression leaf, normalizing the
// window (states/times copied, sorted, deduped).
func NewAtom(a ExprAtom) Expr {
	a.States = sortedSet(a.States)
	a.Times = sortedSet(a.Times)
	return Expr{op: ExprLeaf, atom: a}
}

// atomFromOptions extracts the window fields set by With… options.
func atomFromOptions(forAll bool, opts []RequestOption) Expr {
	var r Request
	for _, opt := range opts {
		opt(&r)
	}
	return NewAtom(ExprAtom{
		ForAll:   forAll,
		States:   r.States,
		Times:    r.Times,
		Region:   r.Region,
		Resolver: r.Resolver,
	})
}

// ExistsAtom is a PST∃Q leaf: true for a trajectory that is inside the
// window's region at SOME window timestamp. Only the window options
// (WithStates, WithTimes, WithTimeRange, WithWindow, WithRegion) are
// meaningful; execution hints belong on the enclosing Request.
func ExistsAtom(opts ...RequestOption) Expr { return atomFromOptions(false, opts) }

// ForAllAtom is a PST∀Q leaf: true for a trajectory inside the window's
// region at EVERY window timestamp (vacuously true when no window
// timestamp lies on the trajectory).
func ForAllAtom(opts ...RequestOption) Expr { return atomFromOptions(true, opts) }

// And is the conjunction of its operands.
func And(operands ...Expr) Expr { return Expr{op: ExprAnd, kids: append([]Expr(nil), operands...)} }

// Or is the disjunction of its operands.
func Or(operands ...Expr) Expr { return Expr{op: ExprOr, kids: append([]Expr(nil), operands...)} }

// Not negates an expression.
func Not(operand Expr) Expr { return Expr{op: ExprNot, kids: []Expr{operand}} }

// Then is temporal sequencing: every operand must hold AND each
// operand's time window must end strictly before the next one's begins
// ("reaches A during [5,10], then B during [20,30]"). The ordering is
// validated when the request is evaluated.
func Then(operands ...Expr) Expr { return Expr{op: ExprThen, kids: append([]Expr(nil), operands...)} }

// Op returns the node kind.
func (x Expr) Op() ExprOp { return x.op }

// Operands returns a copy of the node's children (empty for atoms).
func (x Expr) Operands() []Expr { return append([]Expr(nil), x.kids...) }

// Atom returns the leaf payload; ok is false for combinator nodes.
func (x Expr) Atom() (a ExprAtom, ok bool) {
	if x.op != ExprLeaf {
		return ExprAtom{}, false
	}
	return x.atom, true
}

// walkAtoms visits every leaf in deterministic (left-to-right) order.
func (x Expr) walkAtoms(fn func(a *ExprAtom)) {
	if x.op == ExprLeaf {
		fn(&x.atom)
		return
	}
	for i := range x.kids {
		x.kids[i].walkAtoms(fn)
	}
}

// countAtoms returns the number of leaves.
func (x Expr) countAtoms() int {
	n := 0
	x.walkAtoms(func(*ExprAtom) { n++ })
	return n
}

// needsResolver reports whether some atom carries a region without a
// resolver to ground it.
func (x Expr) needsResolver() bool {
	missing := false
	x.walkAtoms(func(a *ExprAtom) {
		if a.Region != nil && a.Resolver == nil {
			missing = true
		}
	})
	return missing
}

// attachResolver returns a deep copy of the expression with res filled
// in on every region-carrying atom that lacks a resolver.
func (x Expr) attachResolver(res spatial.Resolver) Expr {
	if x.op == ExprLeaf {
		if x.atom.Region != nil && x.atom.Resolver == nil {
			x.atom.Resolver = res
		}
		return x
	}
	kids := make([]Expr, len(x.kids))
	for i := range x.kids {
		kids[i] = x.kids[i].attachResolver(res)
	}
	x.kids = kids
	return x
}

// resolved returns a copy of the expression with every atom's region
// resolved into raw state ids (unioned with the atom's explicit states)
// and the region dropped — the form the compiler consumes.
func (x Expr) resolved() (Expr, error) {
	if x.op == ExprLeaf {
		if x.atom.Region == nil {
			return x, nil
		}
		if x.atom.Resolver == nil {
			return Expr{}, fmt.Errorf("core: expression atom has a region but no resolver (use WithRegion)")
		}
		merged := append(append([]int(nil), x.atom.States...), x.atom.Resolver.StatesIn(x.atom.Region)...)
		x.atom.States = sortedSet(merged)
		x.atom.Region, x.atom.Resolver = nil, nil
		return x, nil
	}
	kids := make([]Expr, len(x.kids))
	for i := range x.kids {
		k, err := x.kids[i].resolved()
		if err != nil {
			return Expr{}, err
		}
		kids[i] = k
	}
	x.kids = kids
	return x, nil
}

// timeSpan returns the [min, max] timestamp over every atom of the
// subtree; ok is false when no atom has any timestamp.
func (x Expr) timeSpan() (lo, hi int, ok bool) {
	x.walkAtoms(func(a *ExprAtom) {
		if len(a.Times) == 0 {
			return
		}
		if !ok || a.Times[0] < lo {
			lo = a.Times[0]
		}
		if !ok || a.Times[len(a.Times)-1] > hi {
			hi = a.Times[len(a.Times)-1]
		}
		ok = true
	})
	return lo, hi, ok
}

// validate checks structural well-formedness: combinator arity, the atom
// budget and Then's window ordering.
func (x Expr) validate() error {
	if n := x.countAtoms(); n == 0 {
		return fmt.Errorf("core: expression has no atoms")
	} else if n > MaxExprAtoms {
		return fmt.Errorf("core: expression has %d atoms, more than the limit of %d (augmented evaluation cost doubles per atom)", n, MaxExprAtoms)
	}
	return x.validateNode()
}

func (x Expr) validateNode() error {
	switch x.op {
	case ExprLeaf:
		return nil
	case ExprNot:
		if len(x.kids) != 1 {
			return fmt.Errorf("core: not takes exactly one operand, got %d", len(x.kids))
		}
	case ExprAnd, ExprOr, ExprThen:
		if len(x.kids) == 0 {
			return fmt.Errorf("core: %s needs at least one operand", x.op)
		}
	default:
		return fmt.Errorf("core: unknown expression op %v", x.op)
	}
	if x.op == ExprThen {
		for i := 0; i+1 < len(x.kids); i++ {
			_, leftHi, leftOK := x.kids[i].timeSpan()
			rightLo, _, rightOK := x.kids[i+1].timeSpan()
			if leftOK && rightOK && leftHi >= rightLo {
				return fmt.Errorf("core: then-sequence out of order: left window ends at t=%d, right begins at t=%d (must be strictly after)", leftHi, rightLo)
			}
		}
	}
	for i := range x.kids {
		if err := x.kids[i].validateNode(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the expression in the text query language of package
// ust/query ("exists(states(1,2) @ [5,15]) and not forall(…)"). A region
// type outside the library's algebra renders as region(?); WriteText
// reports it instead.
func (x Expr) String() string {
	var b strings.Builder
	_ = x.WriteText(&b)
	return b.String()
}

// WriteText writes the expression in the text query language. It fails
// on what the language cannot carry — a region type outside the
// library's algebra, a non-finite coordinate or a negative id — after
// writing the rest.
func (x Expr) WriteText(b *strings.Builder) error {
	t := textWriter{b: b}
	x.format(&t, 0)
	return t.err
}

// WritePredicateText writes one predicate over its window in the text
// query language: name(space @ times), the space being the region's
// geometric terms followed by states(...). withTimes false leaves the
// time window out (an eventually-query's optional horizon). It fails
// like WriteText.
func WritePredicateText(b *strings.Builder, name string, states []int, region spatial.Region, times []int, withTimes bool) error {
	t := textWriter{b: b}
	t.predicate(name, states, region, times, withTimes)
	return t.err
}

// precedence: or < and < then < not/atom. A child at strictly lower
// precedence than its parent needs parentheses.
func (x Expr) precedence() int {
	switch x.op {
	case ExprOr:
		return 1
	case ExprAnd:
		return 2
	case ExprThen:
		return 3
	default:
		return 4
	}
}

func (x Expr) format(t *textWriter, parentPrec int) {
	prec := x.precedence()
	paren := prec < parentPrec
	if paren {
		t.b.WriteByte('(')
	}
	switch x.op {
	case ExprLeaf:
		name := "exists"
		if x.atom.ForAll {
			name = "forall"
		}
		t.predicate(name, x.atom.States, x.atom.Region, x.atom.Times, true)
	case ExprNot:
		t.b.WriteString("not ")
		x.kids[0].format(t, 4)
	default:
		for i := range x.kids {
			if i > 0 {
				t.b.WriteByte(' ')
				t.b.WriteString(x.op.String())
				t.b.WriteByte(' ')
			}
			x.kids[i].format(t, prec)
		}
	}
	if paren {
		t.b.WriteByte(')')
	}
}

// textWriter is the one printer of the text query language (package
// ust/query parses it back). err keeps the first term the language
// cannot carry; writing goes on past it.
type textWriter struct {
	b   *strings.Builder
	err error
	num [32]byte
}

func (t *textWriter) fail(format string, args ...any) {
	if t.err == nil {
		t.err = fmt.Errorf(format, args...)
	}
}

func (t *textWriter) predicate(name string, states []int, region spatial.Region, times []int, withTimes bool) {
	t.b.WriteString(name)
	t.b.WriteByte('(')
	if n := t.terms(region, 0); n == 0 || len(states) > 0 {
		if n > 0 {
			t.b.WriteByte('+')
		}
		t.b.WriteString("states(")
		t.intSet(states)
		t.b.WriteByte(')')
	}
	if withTimes {
		t.b.WriteString(" @ ")
		t.times(times)
	}
	t.b.WriteByte(')')
}

// terms writes r as '+'-joined geometric terms after the n already
// written and returns the new count. A union contributes its members —
// nested unions flattened, empty ones dropped — and a difference with
// an empty subtrahend its base. That is the canonical form: the parser
// reads several terms back as one flat union, a single term as itself
// and no term as no region, which resolve to the same states.
func (t *textWriter) terms(r spatial.Region, n int) int {
	switch v := r.(type) {
	case nil:
		return n
	case spatial.Union:
		for _, m := range v {
			n = t.terms(m, n)
		}
		return n
	case spatial.Difference:
		if emptyRegion(v.Base) {
			return n
		}
		if emptyRegion(v.Sub) {
			return t.terms(v.Base, n)
		}
	}
	if n > 0 {
		t.b.WriteByte('+')
	}
	switch v := r.(type) {
	case spatial.Rect:
		t.call("region", v.MinX, v.MinY, v.MaxX, v.MaxY)
	case spatial.Circle:
		t.call("circle", v.Center.X, v.Center.Y, v.Radius)
	case spatial.Polygon:
		t.b.WriteString("polygon(")
		for i, p := range v.Vertices {
			if i > 0 {
				t.b.WriteByte(',')
			}
			t.float(p.X)
			t.b.WriteByte(',')
			t.float(p.Y)
		}
		t.b.WriteByte(')')
	case spatial.Difference:
		t.b.WriteString("minus(")
		t.terms(v.Base, 0)
		t.b.WriteByte(',')
		t.terms(v.Sub, 0)
		t.b.WriteByte(')')
	default:
		t.b.WriteString("region(?)")
		t.fail("core: region type %T has no text form", r)
	}
	return n + 1
}

// emptyRegion reports whether r writes no term: nil, a union of empty
// regions, or a difference with an empty base.
func emptyRegion(r spatial.Region) bool {
	switch v := r.(type) {
	case nil:
		return true
	case spatial.Union:
		for _, m := range v {
			if !emptyRegion(m) {
				return false
			}
		}
		return true
	case spatial.Difference:
		return emptyRegion(v.Base)
	default:
		return false
	}
}

func (t *textWriter) call(name string, args ...float64) {
	t.b.WriteString(name)
	t.b.WriteByte('(')
	for i, v := range args {
		if i > 0 {
			t.b.WriteByte(',')
		}
		t.float(v)
	}
	t.b.WriteByte(')')
}

func (t *textWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.fail("core: coordinate %g has no text form", v)
	}
	t.b.Write(strconv.AppendFloat(t.num[:0], v, 'g', -1, 64))
}

func (t *textWriter) id(v int) {
	if v < 0 {
		t.fail("core: negative id %d has no text form", v)
	}
	t.b.Write(strconv.AppendInt(t.num[:0], int64(v), 10))
}

// times writes a time window: contiguous sets as [lo,hi], others as
// {…}.
func (t *textWriter) times(times []int) {
	times = canonicalSet(times)
	if n := len(times); n > 1 && times[n-1]-times[0] == n-1 {
		t.b.WriteByte('[')
		t.id(times[0])
		t.b.WriteByte(',')
		t.id(times[n-1])
		t.b.WriteByte(']')
		return
	}
	t.b.WriteByte('{')
	t.intSet(times)
	t.b.WriteByte('}')
}

// intSet writes an id set sorted and deduplicated, with contiguous runs
// of three or more collapsed to lo-hi ranges.
func (t *textWriter) intSet(ids []int) {
	ids = canonicalSet(ids)
	for i := 0; i < len(ids); {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if i > 0 {
			t.b.WriteByte(',')
		}
		t.id(ids[i])
		switch {
		case j == i+1:
			t.b.WriteByte(',')
			t.id(ids[j])
		case j > i+1:
			t.b.WriteByte('-')
			t.id(ids[j])
		}
		i = j + 1
	}
}

// canonicalSet is sortedSet without the copy when ids already is one.
func canonicalSet(ids []int) []int {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return sortedSet(ids)
		}
	}
	return ids
}
