package core

import (
	"context"
	"fmt"
	"math/rand"

	"ust/internal/markov"
)

// Compilation and evaluation of compound expressions (algebra.go) by
// flag-bit state-space augmentation. The chain's state space S is
// crossed with the flag space {0,1}^m, one bit per atom; bit i is set
// ("fired") once the trajectory has been inside atom i's FIRE region at
// one of its window timestamps. For an exists-atom the fire region is
// the atom's own region (firing makes it true); for a forall-atom it is
// the complement (firing means a violation, making it false). At the
// end of the horizon a world's atom truth values are a pure function of
// its flag word, so the expression's probability is the mass accepted
// by a 2^m-entry truth table.
//
// Both exact strategies run over this augmented space:
//
//   - query-based: ONE backward sweep per (chain, observation time)
//     producing 2^m scoring vectors — shared across all objects of the
//     group through the score cache — then a flag-aware dot product per
//     object. The 2^m lanes are one lane block (querybased.go), so each
//     step traverses the matrix once for all of them, and each lane is
//     held against its far value, so the sweep costs the backward reach
//     of the atoms' small regions (a forall-atom's S□, an exists-atom's
//     own region), not |S| per lane per step;
//   - object-based: one forward pass per object over the (lazily
//     materialized) flag-indexed vector family, the direct analogue of
//     the PSTkQ count-matrix pass in ktimes.go.
//
// Correlations between atoms are handled exactly by construction: every
// world carries all its flags through the same trajectory. Evaluating
// the atoms separately and multiplying would be wrong whenever windows
// overlap or the chain mixes slowly; pinning tests compare both
// strategies against BruteForceExpr world enumeration.

func errExprMultiObs(o *Object) error {
	return fmt.Errorf("core: compound expressions support single-observation objects; object %d has %d", o.ID, len(o.Observations))
}

// exprProg is one expression compiled against a fixed state space.
// Immutable after compileExpr returns, so it can be shared by parallel
// workers.
type exprProg struct {
	n    int // state-space size
	m    int // atom count
	fire []*window
	// accept[b] answers the expression for a world whose final flag
	// word is b.
	accept []bool
	// horizon is the largest timestamp of any atom window (-1 when all
	// atom windows are empty).
	horizon int
	// deltas maps each event timestamp to the per-state fired-bit mask:
	// deltas[t][s] has bit i set iff atom i is active at t and state s
	// lies in its fire region. Timestamps with identical active-atom
	// sets share one backing array.
	deltas map[int][]uint8
	// events is the backward sweep's form of deltas: per event
	// timestamp, the word a typical state fires and the few states that
	// fire another.
	events map[int]*exprEvent
	sig    uint64
}

// exprEvent is one event timestamp's fired-bit masks, stored against
// the word base that a state outside the backward reach of every small
// region fires: the active atoms whose fire region covers more than half
// of S. states lists the states whose word differs from base, ascending,
// and fired their words.
type exprEvent struct {
	base   int
	states []int
	fired  []int
}

// compileExpr compiles a resolved (region-free), validated expression.
func compileExpr(x Expr, numStates int) (*exprProg, error) {
	if err := x.validate(); err != nil {
		return nil, err
	}
	var atoms []ExprAtom
	x.walkAtoms(func(a *ExprAtom) { atoms = append(atoms, *a) })
	m := len(atoms)
	prog := &exprProg{n: numStates, m: m, fire: make([]*window, m), horizon: -1}

	for i, a := range atoms {
		if a.Region != nil {
			return nil, fmt.Errorf("core: internal: compiling unresolved expression atom")
		}
		w, err := compile(NewQuery(a.States, a.Times), numStates)
		if err != nil {
			return nil, err
		}
		if a.ForAll {
			w = w.complemented()
		}
		prog.fire[i] = w
		if w.horizon > prog.horizon {
			prog.horizon = w.horizon
		}
	}

	prog.accept = make([]bool, 1<<m)
	for b := range prog.accept {
		idx := 0
		prog.accept[b] = x.evalBits(uint32(b), &idx)
	}

	// Event timetable: group timestamps by their active-atom set so
	// identical sets share one delta array.
	activeAt := map[int]uint32{}
	for i, w := range prog.fire {
		for t := range w.timeSet {
			activeAt[t] |= 1 << i
		}
	}
	prog.deltas = make(map[int][]uint8, len(activeAt))
	prog.events = make(map[int]*exprEvent, len(activeAt))
	byActive := map[uint32][]uint8{}
	eventOf := map[uint32]*exprEvent{}
	for t, act := range activeAt {
		arr, ok := byActive[act]
		if !ok {
			arr = make([]uint8, numStates)
			for s := 0; s < numStates; s++ {
				var d uint8
				for i := 0; i < m; i++ {
					if act&(1<<i) != 0 && prog.fire[i].inRegion(s) {
						d |= 1 << i
					}
				}
				arr[s] = d
			}
			byActive[act] = arr
			ev := &exprEvent{}
			for i := 0; i < m; i++ {
				if act&(1<<i) != 0 && prog.fire[i].coversMost() {
					ev.base |= 1 << i
				}
			}
			for s, d := range arr {
				if int(d) != ev.base {
					ev.states = append(ev.states, s)
					ev.fired = append(ev.fired, int(d))
				}
			}
			eventOf[act] = ev
		}
		prog.deltas[t] = arr
		prog.events[t] = eventOf[act]
	}

	prog.sig = x.signature(numStates)
	return prog, nil
}

// evalBits answers the expression for one flag word, consuming atom
// indices in the same left-to-right order walkAtoms visits them.
func (x Expr) evalBits(bits uint32, idx *int) bool {
	switch x.op {
	case ExprLeaf:
		fired := bits&(1<<uint(*idx)) != 0
		*idx++
		if x.atom.ForAll {
			return !fired
		}
		return fired
	case ExprNot:
		return !x.kids[0].evalBits(bits, idx)
	case ExprOr:
		any := false
		for i := range x.kids {
			if x.kids[i].evalBits(bits, idx) {
				any = true
			}
		}
		return any
	default: // and / then
		all := true
		for i := range x.kids {
			if !x.kids[i].evalBits(bits, idx) {
				all = false
			}
		}
		return all
	}
}

// signature fingerprints a resolved expression against a state-space
// size, for score-cache keys: preorder structure plus atom windows.
func (x Expr) signature(numStates int) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(numStates))
	return x.mixInto(h)
}

func (x Expr) mixInto(h uint64) uint64 {
	h = fnvMix(h, uint64(x.op)+0x51)
	if x.op == ExprLeaf {
		if x.atom.ForAll {
			h = fnvMix(h, 2)
		} else {
			h = fnvMix(h, 1)
		}
		for _, s := range x.atom.States {
			h = fnvMix(h, uint64(s)+1)
		}
		h = fnvMix(h, fnvSep)
		for _, t := range x.atom.Times {
			h = fnvMix(h, uint64(t)+1)
		}
		h = fnvMix(h, fnvSep)
		return h
	}
	h = fnvMix(h, uint64(len(x.kids)))
	for i := range x.kids {
		h = x.kids[i].mixInto(h)
	}
	return h
}

// constResult is the expression's value when no event can fire on the
// trajectory (observation after every atom window): the flag word stays
// zero.
func (prog *exprProg) constResult() float64 {
	if prog.accept[0] {
		return 1
	}
	return 0
}

// --- query-based core ------------------------------------------------------

// exprBackward runs the augmented backward sweep down to time t0 and
// returns the 2^m scoring vectors S_b: entry s of S_b is the
// probability that a world at state s at t0, having already accumulated
// flag word b (events at t0 included), ends up accepted. Requires
// t0 ≤ prog.horizon. The 2^m lanes are one block (querybased.go), from
// pool (nil allowed).
//
// Lane b is held against its far value: the answer of a world that
// never meets a small region, accept[b ∪ the atoms whose fire region
// covers more than half of S and still have an event ahead]. It changes
// only at such an atom's last event, whose gather rewrites the lane
// anyway, so every lane lives on the backward reach of the small
// regions — the event states of exprEvent.
func exprBackward(ctx context.Context, chain *markov.Chain, prog *exprProg, t0 int, pool *blockPool) ([][]float64, error) {
	nb := 1 << prog.m
	blk := pool.get(chain.NumStates(), nb)
	defer pool.put(blk)
	copy(blk.far, prog.accept)
	mt := chain.Transposed()
	from := make([]int, nb)
	ahead := 0 // atoms covering most of S with an event after t
	for t := prog.horizon; t > t0; t-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ev := prog.events[t]; ev != nil {
			// Gather the event re-indexing at time t: a world arriving at
			// state s fires its word there, so its continuation comes from
			// that member of the family. A typical state fires ev.base,
			// and lane b|base is held against the same far value as the
			// gathered lane b, so its offset carries over: the gather is a
			// lane permutation plus the event states' rewrites.
			ahead |= ev.base
			for b := range from {
				from[b] = b | ev.base
			}
			blk.permute(from)
			for i, s := range ev.states {
				old, row := blk.prev(s), blk.row(s)
				for b := range row {
					src := b | ev.fired[i]
					x := old[src]
					if blk.far[src] != prog.accept[b|ahead] {
						x = max(0, 1-x)
					}
					row[b] = x
				}
			}
			for b := range blk.far {
				blk.far[b] = prog.accept[b|ahead]
			}
		}
		blk.step(mt, nb)
	}
	family := make([][]float64, nb)
	for b := range family {
		family[b] = blk.column(b)
	}
	return family, nil
}

// exprDot answers one object from a backward family: the initial mass
// at state s starts with flag word deltas[t0][s] (events at the
// observation time itself, footnote 3 of the paper applied per atom).
// The result is unnormalized — callers divide by the pdf mass.
func (prog *exprProg) exprDot(init *markov.Distribution, family [][]float64, t0 int) float64 {
	d := prog.deltas[t0]
	p := 0.0
	init.Range(func(s int, x float64) {
		b := 0
		if d != nil {
			b = int(d[s])
		}
		p += x * family[b][s]
	})
	return p
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// --- object-based core -----------------------------------------------------

// exprForward is the augmented forward pass for one object: one
// single-lane block (querybased.go) per flag word, from pool (nil
// allowed), opened lazily — most flag words are never reached — and
// stepped to the horizon; events move mass to higher flag words in
// place. The returned value is the accepted mass, unnormalized —
// callers divide by the pdf mass.
func exprForward(ctx context.Context, chain *markov.Chain, init *markov.Distribution, t0 int, prog *exprProg, pool *blockPool) (float64, error) {
	if prog.horizon < t0 {
		if prog.accept[0] {
			return init.Mass(), nil
		}
		return 0, nil
	}
	n := chain.NumStates()
	blks := make([]*laneBlock, 1<<prog.m)
	get := func(b int) *laneBlock {
		if blks[b] == nil {
			blks[b] = pool.get(n, 1)
		}
		return blks[b]
	}
	defer func() {
		for _, blk := range blks {
			if blk != nil {
				pool.put(blk)
			}
		}
	}()

	seed := prog.deltas[t0]
	init.Range(func(s int, x float64) {
		b := 0
		if seed != nil {
			b = int(seed[s])
		}
		get(b).row(s)[0] += x
	})

	m := chain.Matrix()
	for t := t0; t < prog.horizon; t++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for _, blk := range blks {
			if blk != nil {
				blk.step(m, 1)
			}
		}
		if d := prog.deltas[t+1]; d != nil {
			// Ascending flag order is safe: mass moved into b|d[s] has
			// d[s] ⊆ flags already, so revisiting the target moves
			// nothing twice.
			for b := range blks {
				blk := blks[b]
				if blk == nil {
					continue
				}
				blk.live.Range(func(s int) {
					if ds := int(d[s]); ds != 0 && b|ds != b && blk.cur[s] != 0 {
						get(b | ds).row(s)[0] += blk.cur[s]
						blk.cur[s] = 0
					}
				})
			}
		}
	}
	p := 0.0
	for b, blk := range blks {
		if prog.accept[b] && blk != nil {
			p += blk.sum(0)
		}
	}
	return p, nil
}

// --- Monte-Carlo core ------------------------------------------------------

// exprMCRun estimates the expression probability by path sampling:
// track the flag word along each sampled trajectory, accept by the
// truth table.
func exprMCRun(ctx context.Context, chain *markov.Chain, o *Object, prog *exprProg, n int, rng *rand.Rand) (float64, error) {
	if len(o.Observations) > 1 {
		return 0, errExprMultiObs(o)
	}
	first := o.First()
	if prog.horizon < first.Time {
		return prog.constResult(), nil
	}
	if n <= 0 {
		return 0, fmt.Errorf("core: Monte-Carlo needs a positive sample count, got %d", n)
	}
	steps := prog.horizon - first.Time
	hits := 0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		path := chain.SamplePath(first.PDF, steps, rng)
		bits := 0
		for t, s := range path {
			if d := prog.deltas[first.Time+t]; d != nil {
				bits |= int(d[s])
			}
		}
		if prog.accept[bits] {
			hits++
		}
	}
	return float64(hits) / float64(n), nil
}

// --- kernel integration ----------------------------------------------------

// exprGroupKernel builds the kernel for one chain group of an
// expression plan: the expression is compiled against the group's state
// space and bound, with the resolved tree the filter bounds fold over,
// to the engine cache.
func (e *Engine) exprGroupKernel(grp chainGroup, plan *evalPlan) (*kern, error) {
	prog, err := compileExpr(*plan.expr, grp.chain.NumStates())
	if err != nil {
		return nil, err
	}
	k := e.kernel(grp.chain, nil, plan)
	k.prog, k.exprTree = prog, plan.expr
	return k, nil
}

// exprScoresAt returns the augmented backward family at t0, served from
// the score cache when possible. The returned columns are shared and
// must not be mutated.
func (k *kern) exprScoresAt(ctx context.Context, t0 int) ([][]float64, error) {
	key := scoreKey{chain: k.chain, kind: kindExpr, sig: k.prog.sig, t0: t0}
	v, err := k.fetch(ctx, key, func() (scoreValue, error) {
		family, ferr := exprBackward(ctx, k.chain, k.prog, t0, &lanes)
		if ferr != nil {
			return scoreValue{}, ferr
		}
		return scoreValue{cols: family}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.cols, nil
}

// exprExact answers one object with the query-based augmented sweep.
func (k *kern) exprExact(ctx context.Context, o *Object) (Result, error) {
	if len(o.Observations) > 1 {
		return Result{}, errExprMultiObs(o)
	}
	first := o.First()
	if k.prog.horizon < first.Time {
		// Every atom window lies in the past: the expression is decided
		// by the all-unfired flag word, vacuously.
		return Result{ObjectID: o.ID, Prob: k.prog.constResult()}, nil
	}
	pdf := first.PDF
	mass := pdf.Mass()
	if mass == 0 {
		return Result{}, errZeroMass(o.ID)
	}
	family, err := k.exprScoresAt(ctx, first.Time)
	if err != nil {
		return Result{}, err
	}
	return Result{ObjectID: o.ID, Prob: clamp01(k.prog.exprDot(pdf, family, first.Time) / mass)}, nil
}

// exprOBExact answers one object with the object-based augmented
// forward pass.
func (k *kern) exprOBExact(ctx context.Context, o *Object) (Result, error) {
	if len(o.Observations) > 1 {
		return Result{}, errExprMultiObs(o)
	}
	first := o.First()
	pdf := first.PDF
	mass := pdf.Mass()
	if mass == 0 {
		return Result{}, errZeroMass(o.ID)
	}
	p, err := exprForward(ctx, k.chain, pdf, first.Time, k.prog, &lanes)
	if err != nil {
		return Result{}, err
	}
	return Result{ObjectID: o.ID, Prob: clamp01(p / mass)}, nil
}

// --- filter bounds ---------------------------------------------------------

// exprUpper returns a conservative upper bound on the expression
// probability of o, composed from per-atom reachability-envelope bounds
// by interval arithmetic (Fréchet inequalities: correlation-free, so
// always valid). ok is false when o is not boundable.
func (k *kern) exprUpper(ctx context.Context, o *Object) (float64, bool, error) {
	_, hi, ok, err := k.exprBounds(ctx, o)
	return hi, ok, err
}

// exprBounds computes [lo, hi] bounds on the expression probability.
// Per atom, the probability of FIRING is bracketed by the initial mass
// on the certain-envelope and on the reach cone's possible-envelope of
// its fire window (kernel.go);
// the brackets are folded through the expression tree:
//
//	not:      [1−hi, 1−lo]
//	and/then: [max(0, Σlo − (n−1)), min hi]
//	or:       [max lo, min(1, Σhi)]
func (k *kern) exprBounds(ctx context.Context, o *Object) (lo, hi float64, ok bool, err error) {
	if len(o.Observations) != 1 {
		return 0, 1, false, nil
	}
	t0 := o.First().Time
	pdf := o.First().PDF
	mass := pdf.Mass()
	if mass <= 0 {
		return 0, 1, false, nil
	}
	fired := make([][2]float64, k.prog.m)
	for i, w := range k.prog.fire {
		cone, merr := k.coneFor(ctx, w, t0)
		if merr != nil {
			return 0, 1, false, merr
		}
		cm, merr := k.envelope(ctx, w, t0, true)
		if merr != nil {
			return 0, 1, false, merr
		}
		fired[i] = [2]float64{pdf.MassOn(cm) / mass, pdf.MassOn(cone.first) / mass}
	}
	idx := 0
	lo, hi = foldBounds(*k.exprTree, &idx, fired)
	lo = clamp01(lo - boundSlack)
	hi = clamp01(hi + boundSlack)
	return lo, hi, true, nil
}

// foldBounds folds per-atom fired-probability brackets through the
// expression tree, consuming atoms in walkAtoms order.
func foldBounds(x Expr, idx *int, fired [][2]float64) (lo, hi float64) {
	switch x.op {
	case ExprLeaf:
		f := fired[*idx]
		*idx++
		if x.atom.ForAll {
			return 1 - f[1], 1 - f[0]
		}
		return f[0], f[1]
	case ExprNot:
		clo, chi := foldBounds(x.kids[0], idx, fired)
		return 1 - chi, 1 - clo
	case ExprOr:
		lo, hi = 0, 0
		for i := range x.kids {
			clo, chi := foldBounds(x.kids[i], idx, fired)
			if clo > lo {
				lo = clo
			}
			hi += chi
		}
		return lo, min1(hi)
	default: // and / then
		sumLo, hi := 0.0, 1.0
		for i := range x.kids {
			clo, chi := foldBounds(x.kids[i], idx, fired)
			sumLo += clo
			if chi < hi {
				hi = chi
			}
		}
		lo = sumLo - float64(len(x.kids)-1)
		if lo < 0 {
			lo = 0
		}
		return lo, hi
	}
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
