// Package core implements the probabilistic spatio-temporal query
// processing framework of the paper (Sections V-VII): PST∃Q, PST∀Q and
// PSTkQ evaluation over uncertain object trajectories modeled as Markov
// chains, with object-based (forward) and query-based (backward)
// strategies, possible-worlds-exact handling via absorbing "hit" states,
// support for multiple observations, a Monte-Carlo baseline and a
// brute-force possible-worlds reference.
package core

import (
	"fmt"
	"sort"

	"ust/internal/sparse"
)

// Query is a probabilistic spatio-temporal query window Q = S□ × T□:
// a set of states (not necessarily contiguous) crossed with a set of
// timestamps (not necessarily contiguous). Timestamps are absolute, on
// the same axis as observation times.
type Query struct {
	// States is the spatial predicate S□ as state identifiers.
	States []int
	// Times is the temporal predicate T□ as absolute timestamps.
	Times []int
}

// NewQuery copies, sorts and dedupes its arguments into a Query.
func NewQuery(states, times []int) Query {
	return Query{States: sortedSet(states), Times: sortedSet(times)}
}

// Validate rejects negative states/timestamps and (for a space of n
// states) out-of-range state identifiers.
func (q Query) Validate(n int) error {
	for _, s := range q.States {
		if s < 0 || s >= n {
			return fmt.Errorf("core: query state %d outside space of %d states", s, n)
		}
	}
	for _, t := range q.Times {
		if t < 0 {
			return fmt.Errorf("core: negative query timestamp %d", t)
		}
	}
	return nil
}

// Empty reports whether either side of the window is empty, in which
// case PST∃Q is identically 0 and PST∀Q identically 1.
func (q Query) Empty() bool { return len(q.States) == 0 || len(q.Times) == 0 }

// Horizon returns the largest query timestamp (tend), or -1 when the
// temporal predicate is empty.
func (q Query) Horizon() int {
	if len(q.Times) == 0 {
		return -1
	}
	return q.Times[len(q.Times)-1]
}

func (q Query) String() string {
	return fmt.Sprintf("Query{|S|=%d, T=%v}", len(q.States), q.Times)
}

// window is the compiled form of a query against a fixed state space:
// constant-time membership tests for both predicates. invert flips the
// spatial predicate, which is how PST∀Q queries the complement region
// without materializing |S| − |S□| state ids.
type window struct {
	mask    sparse.Bitset
	states  []int // sorted unique region states (the mask's members)
	invert  bool
	timeSet map[int]bool
	horizon int
	k       int    // |T□|
	sig     uint64 // content fingerprint of (numStates, S□, T□), invert excluded
}

func compile(q Query, numStates int) (*window, error) {
	if err := q.Validate(numStates); err != nil {
		return nil, err
	}
	w := &window{
		mask:    *sparse.NewBitset(numStates),
		states:  sortedSet(q.States),
		timeSet: make(map[int]bool, len(q.Times)),
		horizon: q.Horizon(),
		k:       len(q.Times),
	}
	for _, s := range w.states {
		w.mask.Set(s)
	}
	for _, t := range q.Times {
		w.timeSet[t] = true
	}
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(numStates))
	for _, s := range w.states {
		h = fnvMix(h, uint64(s)+1)
	}
	h = fnvMix(h, fnvSep)
	for _, t := range sortedSet(q.Times) {
		h = fnvMix(h, uint64(t)+1)
	}
	w.sig = h
	return w, nil
}

// signature fingerprints the compiled window for score-cache keys. Two
// windows with equal signatures over the same chain compile to the same
// predicate (modulo the astronomically unlikely 64-bit collision);
// inversion flips a dedicated bit so PST∀Q complements never alias their
// base window.
func (w *window) signature() uint64 {
	if w.invert {
		return w.sig ^ invertSigFlip
	}
	return w.sig
}

// FNV-1a over uint64 words, with a separator word between the state and
// time lists so {1}×{} never collides with {}×{1}.
const (
	fnvOffset     = 0xcbf29ce484222325
	fnvPrime      = 0x100000001b3
	fnvSep        = 0xfffffffffffffffe
	invertSigFlip = 0x9e3779b97f4a7c15
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// eachRegionState calls fn for every state satisfying the (possibly
// inverted) spatial predicate. Non-inverted windows iterate the compact
// state list; inverted windows must walk the mask.
func (w *window) eachRegionState(fn func(s int)) { w.eachState(w.invert, fn) }

// eachOutsideState calls fn for every state that fails the (possibly
// inverted) spatial predicate, in ascending order.
func (w *window) eachOutsideState(fn func(s int)) { w.eachState(!w.invert, fn) }

func (w *window) eachState(invert bool, fn func(s int)) {
	if !invert {
		for _, s := range w.states {
			fn(s)
		}
		return
	}
	for s := range w.mask.Len() {
		if !w.mask.Has(s) {
			fn(s)
		}
	}
}

// inRegion reports whether state s satisfies the (possibly inverted)
// spatial predicate.
func (w *window) inRegion(s int) bool { return w.mask.Has(s) != w.invert }

// coversMost reports whether the (possibly inverted) spatial predicate
// holds on more than half of the states: the backward sweeps then hold
// their lanes against the far value 1 (querybased.go).
func (w *window) coversMost() bool {
	size := len(w.states)
	if w.invert {
		size = w.mask.Len() - size
	}
	return 2*size > w.mask.Len()
}

// atTime reports whether timestamp t belongs to T□.
func (w *window) atTime(t int) bool { return w.timeSet[t] }

// complemented returns a view of w with the spatial predicate inverted
// (S \ S□). The underlying mask is shared.
func (w *window) complemented() *window {
	c := *w
	c.invert = !c.invert
	return &c
}

func sortedSet(in []int) []int {
	if len(in) == 0 {
		return nil
	}
	out := append([]int(nil), in...)
	sort.Ints(out)
	dst := out[:1]
	for _, v := range out[1:] {
		if v != dst[len(dst)-1] {
			dst = append(dst, v)
		}
	}
	return dst
}

// Interval returns the contiguous set {lo, …, hi}; a convenience for the
// paper's interval-shaped windows.
func Interval(lo, hi int) []int {
	if hi < lo {
		return nil
	}
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}
