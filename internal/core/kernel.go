package core

import (
	"context"
	"math"
	"sync"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// The sweep kernel layer. Every evaluation strategy in this package
// reduces to a small set of per-(chain, window, observation-time)
// primitives: the PST∃Q backward scoring sweep, the PSTkQ backward
// vector family, the unbounded-horizon hitting fixed point, and the
// boolean reachability envelopes that bound them from above and below.
// kern binds one chain and compiled window to the engine's shared score
// cache so that Evaluate, EvaluateSeq, subscriptions, the experiment
// harness and the CLIs all share the same sweeps instead of each owning
// private ones.
//
// A kern is cheap to construct (no precomputation). Concurrent Evaluate
// calls each build their own kern over the same underlying cache, which
// is concurrency-safe — but the parallel OB fan-out shares ONE kern
// across its workers, and the multi-observation evaluator reaches the
// memoizing accessors from that shared position, so the kern's mutable
// request-local state (the memo map and the lazily built region pins)
// is guarded by mu.
type kern struct {
	chain *markov.Chain
	w     *window
	// forAll marks w as the complement of a PST∀Q's window: the exists
	// evaluators then answer 1 − P∃(w).
	forAll bool
	cache  *SharedCache // nil: engine-wide caching disabled for this request
	// tier, when set alongside cache, coordinates sweep computation
	// fleet-wide (sweeptier.go): wireable kinds consult it after a local
	// miss, adopting a peer's payload or computing under a lease.
	tier SweepTier
	rep  *cacheTally
	// clip makes the object-based forward passes drop frontier mass that
	// has left the window's reach cone (coneFrom). It rides the plan's
	// filter–refine toggle: WithFilterRefine(false) is the paper-literal
	// pass, and the oracle the clipped one is tested against.
	clip bool
	// pins lazily materializes the window's region states for the flat
	// transfer step of the multi-observation pass. Guarded by
	// mu (shared-kern fan-out).
	pins []int32
	// prog/exprTree are set instead of w for compound-expression
	// requests (plan.go): the compiled augmented program and the
	// resolved tree the filter bounds fold over.
	prog     *exprProg
	exprTree *Expr
	// hitting is set instead of w for eventually-requests: the group's
	// fixed-point hitting column, fetched once when the kernel is built.
	hitting []float64
	// local memoizes sweeps within this kern's lifetime (one chain group
	// of one request). It serves two purposes: with the engine cache
	// bypassed it preserves the historical one-sweep-per-
	// distinct-time behavior (WithCache(false) must never degrade QB
	// evaluation to a sweep per object), and with the engine cache on it
	// short-circuits the per-object lookups — a scan over a million
	// objects takes the engine-wide mutex once per distinct sweep, not
	// once per object. Untracked by CacheReport, which therefore counts
	// DISTINCT sweep fetches of the evaluation, not object touches. A key
	// enters it in flight, before its fetch, so parallel workers that miss
	// it together wait here and the evaluation's cache traffic does not
	// depend on scheduling. Guarded by mu.
	local map[scoreKey]*memoEntry
	// score and scoreT0 are the last PST∃Q scoring column existsDot
	// fetched and its observation time. Unguarded: the query-based pass
	// that reads them is serial (exactPassFor).
	score   []float64
	scoreT0 int
	// mu guards local and pins: cheap (uncontended in the serial paths,
	// and the parallel workers only touch it once per fetch, never
	// inside a sweep).
	mu sync.Mutex
}

// memoEntry is one key of a kern's request-local memo: the key's fetch,
// run once, its outcome shared by every caller.
type memoEntry struct {
	once sync.Once
	v    scoreValue
	err  error
}

// fetch returns the payload for key, computing it at most once per
// distinct key across every engine sharing the cache — and, with a
// sweep tier, across the fleet. The request-local memo answers first: a
// caller that finds the key in flight there waits for that fetch and
// shares its outcome, and a failed fetch leaves the memo, so the next
// caller fetches afresh. Then the cache board either serves the value (a
// hit) or grants this caller the key's lease (a miss) while every
// concurrent caller of the same key waits — a waiter whose own context
// ends returns ctx.Err() instead of overstaying its deadline behind
// another caller's sweep. Under the lease, a wireable kind asks the
// tier, which is advisory: a peer's payload settles the lease without
// computing (and turns the miss back into a hit), while a payload that
// fails to decode, an Acquire error or an empty grant all degrade to
// local compute. A compute failure (typically the caller's context
// cancelling mid-sweep) releases both leases, so the next waiter — here
// or on a peer — computes with its own context at once.
func (k *kern) fetch(ctx context.Context, key scoreKey, compute func() (scoreValue, error)) (scoreValue, error) {
	k.mu.Lock()
	m := k.local[key]
	if m == nil {
		if k.local == nil {
			k.local = map[scoreKey]*memoEntry{}
		}
		m = &memoEntry{}
		k.local[key] = m
	}
	k.mu.Unlock()
	m.once.Do(func() { m.v, m.err = k.load(ctx, key, compute) })
	if m.err != nil {
		k.mu.Lock()
		if k.local[key] == m {
			delete(k.local, key)
		}
		k.mu.Unlock()
	}
	return m.v, m.err
}

// load is fetch below the request-local memo: the board, the tier and
// the compute.
func (k *kern) load(ctx context.Context, key scoreKey, compute func() (scoreValue, error)) (scoreValue, error) {
	if k.cache == nil {
		return compute()
	}
	board := k.cache.board
	v, lease, err := board.Acquire(ctx, key)
	if err != nil {
		return scoreValue{}, err
	}
	if lease == 0 {
		k.rep.hit()
		return v, nil
	}
	k.rep.miss()
	// The board has no TTL: settle the lease on every way out, a panic
	// in compute included (Release after Fill is a no-op).
	defer board.Release(key, lease)

	var sk SweepKey
	var tierLease string
	if k.tier != nil && key.kind.wireable() {
		sk = SweepKey{Chain: k.chain.Fingerprint(), Kind: uint8(key.kind), Sig: key.sig, T0: int64(key.t0)}
		payload, granted, aerr := k.tier.Acquire(ctx, sk)
		if aerr == nil && payload != nil {
			if peer, derr := decodeSweepValue(payload, k.chain.NumStates()); derr == nil {
				board.Fill(key, lease, peer)
				k.cache.adopted.Add(1)
				k.rep.adopted()
				return peer, nil
			}
		}
		tierLease = granted
	}
	v, err = compute()
	if err != nil {
		if tierLease != "" {
			k.tier.Release(ctx, sk, tierLease)
		}
		return scoreValue{}, err
	}
	board.Fill(key, lease, v)
	if tierLease != "" {
		// Best-effort publish: a Fill error only costs peers a recompute.
		_ = k.tier.Fill(ctx, sk, tierLease, encodeSweepValue(v))
	}
	return v, nil
}

// kernel builds the sweep kernel for one chain group under a prepared
// plan. plan may be nil (Marginal): caching is then on whenever the
// engine has a cache, and traffic goes unreported.
func (e *Engine) kernel(chain *markov.Chain, w *window, plan *evalPlan) *kern {
	k := &kern{chain: chain, w: w}
	k.clip = plan != nil && plan.useFilter
	if e.cache != nil && (plan == nil || plan.useCache) {
		k.cache = e.cache
		k.tier = e.opts.Sweeps
		if plan != nil {
			k.rep = &plan.cacheRep
		}
	}
	return k
}

// existsScoreAt returns the PST∃Q scoring column for objects observed at
// time t0: entry s is the probability that a world at state s at t0
// satisfies the predicate. Served from the shared cache when possible.
// The returned column is shared and must not be mutated.
func (k *kern) existsScoreAt(ctx context.Context, t0 int) ([]float64, error) {
	key := scoreKey{chain: k.chain, kind: kindExists, sig: k.w.signature(), t0: t0}
	v, err := k.fetch(ctx, key, func() (scoreValue, error) {
		score, serr := hitScores(ctx, k.chain, k.w, t0, &lanes)
		if serr != nil {
			return scoreValue{}, serr
		}
		return scoreValue{cols: [][]float64{score}}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.cols[0], nil
}

// ktimesBacksAt returns the |T□|+1 PSTkQ backward columns at time t0.
// The returned columns are shared and must not be mutated.
func (k *kern) ktimesBacksAt(ctx context.Context, t0 int) ([][]float64, error) {
	key := scoreKey{chain: k.chain, kind: kindKTimes, sig: k.w.signature(), t0: t0}
	v, err := k.fetch(ctx, key, func() (scoreValue, error) {
		backs, berr := kTimesBackward(ctx, k.chain, k.w, t0, &lanes)
		if berr != nil {
			return scoreValue{}, berr
		}
		return scoreValue{cols: backs}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.cols, nil
}

// hittingFor returns the unbounded-horizon hitting-probability column
// for the region, caching on the resolved (maxSteps, tol) so explicit
// and defaulted limits share entries. The returned column is shared and
// must not be mutated.
func (k *kern) hittingFor(ctx context.Context, region []int, maxSteps int, tol float64) ([]float64, error) {
	maxSteps, tol = hittingLimits(k.chain.NumStates(), maxSteps, tol)
	h := uint64(fnvOffset)
	for _, s := range region {
		h = fnvMix(h, uint64(s)+1)
	}
	h = fnvMix(h, fnvSep)
	h = fnvMix(h, uint64(maxSteps))
	h = fnvMix(h, math.Float64bits(tol))
	key := scoreKey{chain: k.chain, kind: kindHitting, sig: h}
	v, err := k.fetch(ctx, key, func() (scoreValue, error) {
		scores, _, serr := hittingScores(ctx, k.chain, region, maxSteps, tol)
		if serr != nil {
			return scoreValue{}, serr
		}
		return scoreValue{cols: [][]float64{scores.RawData()}}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.cols[0], nil
}

// envelope returns window w's envelope at t0, w being the kern's own
// window or, for the compound-expression bounds, one atom's fire window.
// With certain it is the "hits with certainty" envelope: the states from
// which EVERY trajectory satisfies the (possibly inverted) window
// predicate, so that initial mass on it lower-bounds the query
// probability. Without, it is the possible envelope, coneFor's first
// entry: the states from which SOME trajectory can, which the
// multi-observation gate (multiObsExists) fetches without the rest of
// the cone. Fetched like any sweep; the possible envelope, like the cone,
// never travels over the sweep tier.
func (k *kern) envelope(ctx context.Context, w *window, t0 int, certain bool) (*sparse.Bitset, error) {
	kind := kindPossible
	if certain {
		kind = kindCertain
	}
	key := scoreKey{chain: k.chain, kind: kind, sig: w.signature(), t0: t0}
	v, err := k.fetch(ctx, key, func() (scoreValue, error) {
		m, merr := supportEnvelope(ctx, k.chain, w, t0, certain, nil)
		if merr != nil {
			return scoreValue{}, merr
		}
		return scoreValue{bits: m}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.bits, nil
}

// coneFrom returns the kern's reach cone from t0 on (coneFor) when the
// kern clips its forward passes, and nil when it does not. Requires a
// non-empty window and t0 ≤ horizon.
func (k *kern) coneFrom(ctx context.Context, t0 int) ([]*sparse.Bitset, error) {
	if !k.clip {
		return nil, nil
	}
	return k.coneFor(ctx, k.w, t0)
}

// coneFor returns window w's reach cone from t0 on: the possible-
// envelope at every t ∈ [t0, horizon], indexed t−t0, from one boolean
// backward sweep. cone[0] is the possible-envelope at t0 — the states
// from which a trajectory CAN satisfy the window predicate — so mass
// outside it can never contribute, and an object's initial mass on it
// upper-bounds its query probability. An empty window, or a t0 past the
// horizon, has the one-entry cone of supportEnvelope's empty answer.
// Fetched like any sweep — request memo, then the board — but never
// shipped over the sweep tier.
func (k *kern) coneFor(ctx context.Context, w *window, t0 int) ([]*sparse.Bitset, error) {
	key := scoreKey{chain: k.chain, kind: kindCone, sig: w.signature(), t0: t0}
	v, err := k.fetch(ctx, key, func() (scoreValue, error) {
		n := 1
		if w.k > 0 && t0 <= w.horizon {
			n = w.horizon - t0 + 1
		}
		cone := make([]*sparse.Bitset, n)
		m, cerr := supportEnvelope(ctx, k.chain, w, t0, false, cone)
		if cerr != nil {
			return scoreValue{}, cerr
		}
		cone[0] = m
		return scoreValue{cone: cone}, nil
	})
	return v.cone, err
}

// supportEnvelope runs the boolean shadow of the backward sweep: the
// same loop shape as hitScores, propagating supports instead of mass.
// certain selects the all-successors (lower-bound) propagation. A
// non-nil trail (horizon−t0+1 long) keeps the envelope of every time
// the sweep passes: trail[t−t0] is what the sweep down to t returns.
func supportEnvelope(ctx context.Context, chain *markov.Chain, w *window, t0 int, certain bool, trail []*sparse.Bitset) (*sparse.Bitset, error) {
	n := chain.NumStates()
	m := sparse.NewBitset(n)
	if w.k == 0 || w.horizon < t0 {
		return m, nil
	}
	next := sparse.NewBitset(n)
	for t := w.horizon; t > t0; t-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if w.atTime(t) {
			orRegion(m, w)
		}
		if trail != nil {
			trail[t-t0] = m.Clone()
		}
		if certain {
			chain.StepBackCertain(next, m)
		} else {
			chain.StepBackSupport(next, m)
		}
		if m.Count() == n && next.Count() == n {
			// The full set steps back onto itself, so it is the envelope of
			// every earlier time as well (the complemented windows of PST∀Q
			// get here within a step or two).
			for i := 0; trail != nil && i < t-t0; i++ {
				trail[i] = next
			}
			return next, nil
		}
		m, next = next, m
	}
	if w.atTime(t0) {
		orRegion(m, w)
	}
	if trail != nil {
		trail[0] = m
	}
	return m, nil
}

// orRegion adds every state of the (possibly inverted) spatial predicate
// to the set — the boolean twin of laneBlock.pin.
func orRegion(b *sparse.Bitset, w *window) {
	w.eachRegionState(func(s int) { b.Set(s) })
}

// boundSlack absorbs the floating-point daylight between a bound
// computed by mask-mass summation and the exact sweep's dot product, so
// conservative pruning decisions stay conservative under rounding.
const boundSlack = 1e-9

// boundable reports whether o is eligible for envelope bounds: exactly
// one observation, inside the horizon, against a non-empty window.
// Ineligible objects are simply refined exactly: later fixes can
// concentrate an object's mass anywhere inside the envelopes, so the
// first fix's mass on them bounds nothing, and after-horizon objects
// must surface the same error the exact path raises. The one exact fact
// the possible envelope does give about a multi-observation object — no
// first-fix mass on it means P∃ = 0 — is applied inside the exact
// evaluator (multiObsExists), where it also settles the object's
// feasibility.
func (k *kern) boundable(o *Object) bool {
	return k.w.k > 0 && len(o.Observations) == 1 && o.First().Time <= k.w.horizon
}

// existsUpper returns a conservative upper bound on P∃(o) under the
// kern's window: the initial mass on the reach cone's possible-envelope.
// ok is false when o is not boundable. Under the object-based strategy,
// the only one that filters, a returned bound of exactly 0 is not
// merely conservative but EXACT: the observation support is disjoint
// from the envelope, and the forward pass only ever moves mass along
// the edges the envelope follows, so its absorbed mass is bit-exactly
// 0.0. The gate answers such objects without refinement.
func (k *kern) existsUpper(ctx context.Context, o *Object) (hi float64, ok bool, err error) {
	if !k.boundable(o) {
		return 1, false, nil
	}
	cone, err := k.coneFor(ctx, k.w, o.First().Time)
	if err != nil {
		return 1, false, err
	}
	pdf := o.First().PDF
	mass := pdf.Mass()
	if mass <= 0 {
		return 1, false, nil
	}
	raw := pdf.MassOn(cone[0])
	if raw == 0 {
		return 0, true, nil
	}
	return raw/mass + boundSlack, true, nil
}

// existsLower returns a conservative lower bound on P∃(o). ok is false
// when o is not boundable.
func (k *kern) existsLower(ctx context.Context, o *Object) (lo float64, ok bool, err error) {
	if !k.boundable(o) {
		return 0, false, nil
	}
	cm, err := k.envelope(ctx, k.w, o.First().Time, true)
	if err != nil {
		return 0, false, err
	}
	pdf := o.First().PDF
	mass := pdf.Mass()
	if mass <= 0 {
		return 0, false, nil
	}
	lo = pdf.MassOn(cm)/mass - boundSlack
	if lo < 0 {
		lo = 0
	}
	return lo, true, nil
}

// --- exact per-object evaluators -----------------------------------------
//
// These are THE per-object evaluation cores: scan (evaluate.go) calls
// the same function whether its filter gate is engaged or not, which is
// what makes pruned and unpruned results byte-identical by construction.

// existsExact answers one object with the query-based strategy (backward
// scoring sweep + dot product), handling the k = 0, multi-observation
// and after-horizon cases exactly like the historical stream core.
func (k *kern) existsExact(ctx context.Context, o *Object) (Result, error) {
	var p float64
	var err error
	switch {
	case k.w.k == 0:
		p = 0
	case len(o.Observations) > 1:
		p, err = k.multiObsExists(ctx, o)
	default:
		p, err = k.existsDot(ctx, o)
	}
	if err != nil {
		return Result{}, err
	}
	// A sweep held against its far value can round a score a last bit
	// past 1 (querybased.go): answers stay inside [0, 1].
	p = clamp01(p)
	if k.forAll {
		p = 1 - p
	}
	return Result{ObjectID: o.ID, Prob: p}, nil
}

// existsDot is the single-observation QB core: dot the observation pdf
// with the (cached) scoring column, the pdf driving. Normalization is
// folded into the result (dot(pdf, s)/mass == dot(pdf/mass, s)) so the
// per-object cost is O(|supp(pdf)|) — no O(|S|) clone per object per
// request. The kern keeps the last column it fetched, so a run of
// objects observed at one time pays one fetch, not a memo lookup each.
func (k *kern) existsDot(ctx context.Context, o *Object) (float64, error) {
	first := o.First()
	if first.Time > k.w.horizon {
		return 0, errObservedAfterHorizon(o.ID, first.Time, k.w.horizon)
	}
	pdf := first.PDF
	mass := pdf.Mass()
	if mass == 0 {
		return 0, errZeroMass(o.ID)
	}
	if k.score == nil || k.scoreT0 != first.Time {
		score, err := k.existsScoreAt(ctx, first.Time)
		if err != nil {
			return 0, err
		}
		k.score, k.scoreT0 = score, first.Time
	}
	return pdf.Dot(k.score) / mass, nil
}

// obExistsExact answers one object with the object-based strategy (a
// forward pass). For PST∀Q the kern's window is the complemented one (an
// empty window then answers 1 − 0).
func (k *kern) obExistsExact(ctx context.Context, o *Object) (Result, error) {
	p, err := k.obExists(ctx, o)
	if err != nil {
		return Result{}, err
	}
	if k.forAll {
		p = 1 - p
	}
	return Result{ObjectID: o.ID, Prob: p}, nil
}

// ktimesQBExact answers one object's PSTkQ distribution with the
// query-based strategy: |T□|+1 (cached) backward columns, |T□|+1 dots.
func (k *kern) ktimesQBExact(ctx context.Context, o *Object) (Result, error) {
	if k.w.k == 0 {
		return kTimesResult(o.ID, []float64{1}), nil
	}
	if len(o.Observations) > 1 {
		return Result{}, errKTimesMultiObs(o)
	}
	first := o.First()
	if first.Time > k.w.horizon {
		return Result{}, errObservedAfterHorizon(o.ID, first.Time, k.w.horizon)
	}
	backs, err := k.ktimesBacksAt(ctx, first.Time)
	if err != nil {
		return Result{}, err
	}
	pdf := first.PDF
	mass := pdf.Mass()
	if mass == 0 {
		return Result{}, errZeroMass(o.ID)
	}
	dist := make([]float64, k.w.k+1)
	for i := range dist {
		dist[i] = clamp01(pdf.Dot(backs[i]) / mass)
	}
	return kTimesResult(o.ID, dist), nil
}

// obExists is the per-object OB core over the kern's window:
// single-observation objects run the forward pass. Multi-observation
// conditioning has no separate OB form — both strategies run the same
// doubled-space pass (Section VI), reading the stored pdfs and
// sharing cached per-object results across strategies.
func (k *kern) obExists(ctx context.Context, o *Object) (float64, error) {
	if k.w.k == 0 {
		return 0, nil
	}
	if len(o.Observations) > 1 {
		return k.multiObsExists(ctx, o)
	}
	seed, err := k.seedFor(ctx, o)
	if err != nil {
		return 0, err
	}
	return existsForward(ctx, k.chain, seed, k.w, &lanes)
}

// seedFor validates a single-observation object for a forward pass over
// the kern's (non-empty) window and assembles what the pass starts from.
func (k *kern) seedFor(ctx context.Context, o *Object) (forwardSeed, error) {
	first := o.First()
	if first.Time > k.w.horizon {
		return forwardSeed{}, errObservedAfterHorizon(o.ID, first.Time, k.w.horizon)
	}
	pdf := first.PDF
	mass := pdf.Mass()
	if mass == 0 {
		return forwardSeed{}, errZeroMass(o.ID)
	}
	cone, err := k.coneFrom(ctx, first.Time)
	return forwardSeed{pdf: pdf, mass: mass, t0: first.Time, cone: cone}, err
}

// ktimesOBExact answers one object's PSTkQ distribution with the
// object-based count-matrix forward pass.
func (k *kern) ktimesOBExact(ctx context.Context, o *Object) (Result, error) {
	if k.w.k == 0 {
		return kTimesResult(o.ID, []float64{1}), nil
	}
	if len(o.Observations) > 1 {
		return Result{}, errKTimesMultiObs(o)
	}
	seed, err := k.seedFor(ctx, o)
	if err != nil {
		return Result{}, err
	}
	dist, err := kTimesForward(ctx, k.chain, seed, k.w, &lanes)
	if err != nil {
		return Result{}, err
	}
	return kTimesResult(o.ID, dist), nil
}

// eventuallyExact answers one object's unbounded-horizon hitting
// probability: the pdf dotted with the group's hitting column.
func (k *kern) eventuallyExact(_ context.Context, o *Object) (Result, error) {
	if len(o.Observations) > 1 {
		return Result{}, errEventuallyMultiObs(o)
	}
	pdf := o.First().PDF
	mass := pdf.Mass()
	if mass == 0 {
		return Result{}, errZeroMass(o.ID)
	}
	p := pdf.Dot(k.hitting) / mass
	if p > 1 {
		p = 1
	}
	return Result{ObjectID: o.ID, Prob: p}, nil
}

// regionPins returns the window's region state list, materialized once
// per kern for the multi-observation transfer step.
func (k *kern) regionPins() []int32 {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.pins == nil {
		k.pins = regionPins(k.w) // never nil, even for an empty region
	}
	return k.pins
}

// multiObsExists answers one multi-observation object through the
// doubled-space lane-block pass, caching the scalar under a key derived
// from the object's construction serial + window signature: repeat
// queries over an unchanged object hit, ingest mints a new serial and
// naturally misses, and entries for superseded objects age out of the
// LRU without any invalidation traffic.
//
// The pass is gated, exactly. Its hit lane takes mass only at the
// window's region states and timestamps, which every path into them
// reaches from the window's possible envelope at the first observation
// time. A first fix with no mass on that envelope leaves the hit lane +0
// on every row at every step, so the pass would return exactly +0, or
// fail where its mass runs out: the object answers 0 after the per-
// version check (feasible) that fails in the same places, and runs no
// pass for this window.
func (k *kern) multiObsExists(ctx context.Context, o *Object) (float64, error) {
	first := o.First()
	env, err := k.envelope(ctx, k.w, first.Time, false)
	if err != nil {
		return 0, err
	}
	if first.PDF.MassOn(env) == 0 {
		exact, ferr := k.feasible(ctx, o)
		if ferr != nil {
			return 0, ferr
		}
		if exact {
			return 0, nil
		}
	}
	key := scoreKey{chain: k.chain, kind: kindMultiObs, sig: fnvMix(k.w.signature(), o.serial)}
	v, err := k.fetch(ctx, key, func() (scoreValue, error) {
		p, perr := existsMultiObsBlock(ctx, k.chain, o.Observations, k.w, k.regionPins(), &lanes)
		if perr != nil {
			return scoreValue{}, perr
		}
		return scoreValue{scalars: []float64{p}}, nil
	})
	if err != nil {
		return 0, err
	}
	return v.scalars[0], nil
}

// feasible runs the multi-observation gate's check (multiObsFeasible)
// once per object version, cached under the object's serial: it fails
// with errImpossibleObs where the pass would, and reports false when a
// rescale factor of the pass was not finite, where the gate cannot vouch
// for a +0 hit lane and the pass runs instead.
func (k *kern) feasible(ctx context.Context, o *Object) (bool, error) {
	key := scoreKey{chain: k.chain, kind: kindFeasible, sig: fnvMix(fnvOffset, o.serial)}
	v, err := k.fetch(ctx, key, func() (scoreValue, error) {
		exact, ferr := multiObsFeasible(ctx, k.chain, o.Observations, &lanes)
		if ferr != nil {
			return scoreValue{}, ferr
		}
		flag := 0.0
		if exact {
			flag = 1
		}
		return scoreValue{scalars: []float64{flag}}, nil
	})
	if err != nil {
		return false, err
	}
	return v.scalars[0] == 1, nil
}

// posteriorOf returns the object's smoothed posterior at time t through
// the lane-block posterior pass, cached per (object serial, t). The
// returned distribution is the cached one: immutable, so every caller
// shares it.
func (k *kern) posteriorOf(o *Object, t int) (*markov.Distribution, error) {
	key := scoreKey{chain: k.chain, kind: kindPosterior, sig: fnvMix(fnvOffset, o.serial), t0: t}
	v, err := k.fetch(context.Background(), key, func() (scoreValue, error) {
		post, perr := posteriorAtBlock(k.chain, o.Observations, t, &lanes)
		if perr != nil {
			return scoreValue{}, perr
		}
		return scoreValue{post: post}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.post, nil
}

// Marginal returns the exact marginal distribution P(o, t) of an object
// at time t ≥ its first observation time. It is the only entry to the
// cached posterior: for multi-observation objects the smoothed
// posterior comes from the lane-block posterior pass and repeat marginals of an
// unchanged object are served from the score cache under its
// construction serial.
func (e *Engine) Marginal(o *Object, t int) (*markov.Distribution, error) {
	ch := e.db.ChainOf(o)
	if len(o.Observations) > 1 {
		return e.kernel(ch, nil, nil).posteriorOf(o, t)
	}
	first := o.First()
	if t < first.Time {
		return nil, errObservedAfterHorizon(o.ID, first.Time, t)
	}
	// One |S| copy: normalized in place, then stepped by Advance, which
	// owns it.
	init := sparse.NewVec(ch.NumStates())
	first.PDF.CopyTo(init)
	if init.Normalize() == 0 {
		return nil, errZeroMass(o.ID)
	}
	return markov.FromVec(ch.Advance(init, t-first.Time)), nil
}
