package core

import (
	"context"
	"iter"
	"math/bits"
	"runtime"
	"sort"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// Batch evaluation: answer many Requests as one unit of work, letting
// the multi-query optimizer (planner.go) detect sweep work shared
// between them — the dashboard workload, where tens of standing panels
// ask overlapping questions of the same database at once.
//
// The optimizer's main weapon is the FUSED backward sweep below:
// instead of running each request's backward sweep as its own pass over
// the transition matrix (one sparse matrix traversal per request per
// time step), all sweeps of one chain advance together on the absolute
// time axis, so each time step traverses the matrix ONCE and updates
// every request's scoring vector in a cache-friendly state-major block.
// The matrix read — the memory-bound part of a sweep — is amortized
// over the whole batch, which is where the wall-clock win comes from
// even on a single core; BenchmarkEvaluateBatch measures it. Fused
// results are bit-identical to the serial sweeps by construction (same
// additions in the same order, zero terms interspersed), so EvaluateBatch
// answers are byte-identical to sequential Evaluate calls.
//
// The fused vectors are published through the engine's score cache, so
// after the warm phase every request's normal evaluation path runs with
// all sweeps hitting — threshold, top-k, filter–refine and streaming
// behave exactly as in the sequential path.

// BatchItem is one request's outcome within a batch: the Response for
// reqs[Index], or the error that request failed with. Failures are
// per-item — one malformed request does not poison the rest.
type BatchItem struct {
	Index    int
	Response *Response
	Err      error
}

// EvaluateBatch answers every request, applying the multi-query
// optimizer across them, and returns one Response per request in input
// order. The first per-request error (lowest index) aborts the batch;
// use EvaluateBatchSeq for per-item error tolerance. Results are
// byte-identical to len(reqs) sequential Evaluate calls.
func (e *Engine) EvaluateBatch(ctx context.Context, reqs []Request) ([]*Response, error) {
	out := make([]*Response, len(reqs))
	for item := range e.EvaluateBatchSeq(ctx, reqs) {
		if item.Err != nil {
			return nil, item.Err
		}
		out[item.Index] = item.Response
	}
	return out, nil
}

// EvaluateBatchSeq is the streaming variant of EvaluateBatch: items are
// yielded in input order as their evaluations complete, each carrying
// its own error. Breaking out of the loop cancels the remaining work.
func (e *Engine) EvaluateBatchSeq(ctx context.Context, reqs []Request) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		plans := make([]*evalPlan, len(reqs))
		errs := make([]error, len(reqs))
		for i, req := range reqs {
			plans[i], errs[i] = e.prepare(req)
		}
		if err := e.warmBatch(ctx, plans); err != nil {
			for i := range reqs {
				if !yield(BatchItem{Index: i, Err: err}) {
					return
				}
			}
			return
		}
		workers := runtime.GOMAXPROCS(0)
		if workers > 1 && len(reqs) > 1 {
			// Concurrent plan evaluations may share a chain whose lazy
			// transpose has not been built yet (Chain.Transposed's first
			// call is not concurrency-safe); warm it once up front, like
			// the parallel OB fan-out does. Backward sweeps need it for
			// the default query-based strategy anyway.
			for _, grp := range e.db.groupByChain() {
				grp.chain.Transposed()
			}
		}
		eval := func(ctx context.Context, i int) (BatchItem, error) {
			if errs[i] != nil {
				return BatchItem{Index: i, Err: errs[i]}, nil
			}
			resp, err := e.evaluatePlan(ctx, plans[i])
			return BatchItem{Index: i, Response: resp, Err: err}, nil
		}
		next := 0
		for item, perr := range parallelOrdered(ctx, len(reqs), workers, eval) {
			if perr != nil {
				// Pipeline-level failure (context cancellation): surface it
				// on the next undelivered index — clamped, because the
				// pipeline can report cancellation after the final item
				// and Index must always name a real request.
				if next >= len(reqs) {
					next = len(reqs) - 1
				}
				yield(BatchItem{Index: next, Err: perr})
				return
			}
			next = item.Index + 1
			if !yield(item) {
				return
			}
		}
	}
}

// --- fused backward sweeps -------------------------------------------------

// maxFusedFloats bounds one fused block's buffer (per ping-pong copy) so
// huge state spaces fall back to narrower blocks instead of allocating
// gigabytes: width = min(32, maxFusedFloats/numStates).
const (
	maxFusedFloats  = 4 << 20
	maxFusedColumns = 32
)

// fusedWidth returns the fused block width for a state-space size.
func fusedWidth(numStates int) int {
	if numStates <= 0 {
		return 1
	}
	w := maxFusedFloats / numStates
	if w > maxFusedColumns {
		w = maxFusedColumns
	}
	if w < 1 {
		w = 1
	}
	return w
}

// fusedLane is one column of a fused block: a unit plus its activation
// schedule. Leaders start at their own horizon exactly like hitScores's
// lane; followers — units whose window is a SUFFIX of
// their leader's (same region, times equal above the follower's first
// timestamp) — share the leader's descent down to that first timestamp
// and only then fork a copy for their remaining unpinned steps. A
// follower whose observation time lies inside the shared suffix never
// needs a column at all: its scoring vector is read straight off the
// leader ("alias"). This is where nested dashboard windows ("in the
// next 5 / 10 / 15 minutes") collapse to one shared descent.
type fusedLane struct {
	u   sweepUnit
	act int // time the column materializes: horizon (leader) or fork time (follower)
	// leader is the column index this lane forks from (-1 for leaders).
	leader int
}

// planFusedLanes splits units into columns and leader-aliases.
// Units must share one chain; the returned lanes are sorted by
// descending activation time so live columns form a prefix.
func planFusedLanes(units []sweepUnit, width int) (lanes []fusedLane, aliases map[int]int, order []sweepUnit) {
	type group struct{ leaderLane int }
	groups := map[uint64]*group{}
	aliases = map[int]int{}

	regionKey := func(w *window) uint64 {
		h := uint64(fnvOffset)
		for _, s := range w.states {
			h = fnvMix(h, uint64(s)+1)
		}
		if w.invert {
			h = fnvMix(h, fnvSep)
		}
		h = fnvMix(h, uint64(w.horizon)+1)
		return h
	}
	// suffixOf reports whether f's timestamps are exactly l's above
	// f's first timestamp — the condition under which both sweeps are
	// bit-identical down to that timestamp.
	suffixOf := func(f, l *window) bool {
		ft := sortedKeys(f.timeSet)
		lt := sortedKeys(l.timeSet)
		if len(ft) == 0 || len(ft) > len(lt) {
			return false
		}
		tail := lt[len(lt)-len(ft):]
		for i := range ft {
			if ft[i] != tail[i] {
				return false
			}
		}
		return true
	}

	// Widest window first, so group leaders carry the longest suffix.
	order = append([]sweepUnit(nil), units...)
	sort.Slice(order, func(a, b int) bool {
		wa, wb := order[a].w, order[b].w
		if wa.horizon != wb.horizon {
			return wa.horizon > wb.horizon
		}
		if len(wa.timeSet) != len(wb.timeSet) {
			return len(wa.timeSet) > len(wb.timeSet)
		}
		if order[a].key.sig != order[b].key.sig {
			return order[a].key.sig < order[b].key.sig
		}
		return order[a].t0 < order[b].t0
	})
	for ui, u := range order {
		minTime := sortedKeys(u.w.timeSet)[0]
		if g, ok := groups[regionKey(u.w)]; ok && len(lanes) > 0 {
			l := lanes[g.leaderLane]
			if suffixOf(u.w, l.u.w) && l.leader == -1 {
				if u.t0 >= minTime {
					// Whole answer lies inside the shared suffix.
					aliases[ui] = g.leaderLane
					continue
				}
				if countLanes(lanes, g.leaderLane) < width {
					lanes = append(lanes, fusedLane{u: u, act: minTime, leader: g.leaderLane})
					continue
				}
			}
		}
		lane := fusedLane{u: u, act: u.w.horizon, leader: -1}
		lanes = append(lanes, lane)
		groups[regionKey(u.w)] = &group{leaderLane: len(lanes) - 1}
	}
	sortLanes(lanes, aliases)
	return lanes, aliases, order
}

// sortLanes orders columns by descending activation (ties: leaders
// first), remapping follower/alias leader indices accordingly.
func sortLanes(lanes []fusedLane, aliases map[int]int) {
	idx := make([]int, len(lanes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		la, lb := lanes[idx[a]], lanes[idx[b]]
		if la.act != lb.act {
			return la.act > lb.act
		}
		return (la.leader == -1) && (lb.leader != -1)
	})
	remap := make([]int, len(lanes))
	out := make([]fusedLane, len(lanes))
	for newPos, oldPos := range idx {
		remap[oldPos] = newPos
		out[newPos] = lanes[oldPos]
	}
	for i := range out {
		if out[i].leader >= 0 {
			out[i].leader = remap[out[i].leader]
		}
	}
	copy(lanes, out)
	for ui, lane := range aliases {
		aliases[ui] = remap[lane]
	}
}

func countLanes(lanes []fusedLane, leader int) int {
	n := 1
	for _, l := range lanes {
		if l.leader == leader {
			n++
		}
	}
	return n
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// fusedSchedule is the shared per-block bookkeeping of both fused
// kernels: planned lanes, alias extractions and dependency counts.
type fusedSchedule struct {
	lanes   []fusedLane
	aliases map[int]int
	order   []sweepUnit
	pending []int
	laneOf  map[int]int
	maxH    int
	minT0   int
}

func newFusedSchedule(units []sweepUnit, width int) *fusedSchedule {
	sch := &fusedSchedule{}
	sch.lanes, sch.aliases, sch.order = planFusedLanes(units, width)
	sch.maxH, sch.minT0 = sch.order[0].w.horizon, sch.order[0].t0
	for _, u := range sch.order[1:] {
		if u.w.horizon > sch.maxH {
			sch.maxH = u.w.horizon
		}
		if u.t0 < sch.minT0 {
			sch.minT0 = u.t0
		}
	}
	// pending counts unresolved dependents per column: its own
	// extraction, plus every un-forked follower and un-read alias. A
	// column retires (zeroed, pins stop) only at zero, because a fork or
	// alias below the leader's own observation time still needs its
	// pinned descent to continue.
	sch.pending = make([]int, len(sch.lanes))
	sch.laneOf = map[int]int{}
	for k, lane := range sch.lanes {
		sch.pending[k]++ // own extraction
		if lane.leader >= 0 {
			sch.pending[lane.leader]++
		}
	}
	for ui := range sch.order {
		if lane, ok := sch.aliases[ui]; ok {
			sch.pending[lane]++
			continue
		}
		for k := range sch.lanes {
			if sch.lanes[k].u.key == sch.order[ui].key {
				sch.laneOf[ui] = k
				break
			}
		}
	}
	return sch
}

// fusedExistsSweeps runs the PST∃Q backward sweeps of all units — same
// chain, arbitrary windows and observation times — in one pass down the
// absolute time axis and publishes each resulting scoring vector to the
// score cache. Columns join the block at their activation time (the
// descending sort makes live columns a prefix): leaders at their horizon
// exactly like hitScores's lane (held against the same far value),
// followers as a copy of their leader's column at the fork point. Each
// column replays exactly the addition
// sequence of hitScores for its unit — skipped all-zero states,
// inactive columns and shared suffixes only elide or share identical
// terms — so the cached vectors are bit-identical to what the serial
// path would have computed.
func (e *Engine) fusedExistsSweeps(ctx context.Context, chain *markov.Chain, units []sweepUnit) error {
	if len(units) == 1 {
		// A lone sweep gains nothing from the block layout; run the
		// plain kernel and seed the cache with its result.
		score, err := hitScores(ctx, chain, units[0].w, units[0].t0, e.pool)
		if err != nil {
			return err
		}
		e.cache.board.Put(units[0].key, scoreValue{vecs: []*sparse.Vec{score}})
		return nil
	}
	sch := newFusedSchedule(units, maxFusedColumns)
	n := chain.NumStates()
	K := len(sch.lanes)
	// A column whose region covers most of S is held against the far
	// value 1, as hitScores holds it: its leader starts as the horizon's
	// pin leaves the serial lane, and its pins zero the region on the live
	// rows instead. Only the other columns materialize their region states
	// as a pin list.
	far := make([]bool, K)
	pins := make([][]int32, K)
	for k, lane := range sch.lanes {
		if far[k] = lane.u.w.coversMost(); !far[k] {
			pins[k] = regionPins(lane.u.w)
		}
	}
	// live holds every row of cur that may be non-zero, nextLive the
	// rows next was last written on: pins, forks, retirements and steps
	// visit only those, so a step costs the columns' reach, not n·K.
	cur := make([]float64, n*K)
	next := make([]float64, n*K)
	live, nextLive := sparse.NewBitset(n), sparse.NewBitset(n)
	extract := func(k int) *sparse.Vec {
		col := make([]float64, n)
		for s := range col {
			col[s] = cur[s*K+k]
			if far[k] {
				col[s] = max(0, 1-col[s])
			}
		}
		return sparse.AdoptDense(col)
	}
	resolve := func(k int) {
		sch.pending[k]--
		if sch.pending[k] == 0 {
			live.Range(func(s int) { cur[s*K+k] = 0 }) // retire the column
		}
	}

	extracted := make([]bool, K)
	active := 0 // live-column prefix: lanes[0:active] have act ≥ t
	mt := chain.Transposed()
	for t := sch.maxH; ; t-- {
		newlyActive := active
		for ; active < K && sch.lanes[active].act >= t; active++ {
			if k := active; far[k] && sch.lanes[k].leader < 0 {
				sch.lanes[k].u.w.eachOutsideState(func(s int) {
					cur[s*K+k] = 1
					live.Set(s)
				})
			}
		}
		// Pin every live, unretired column whose window covers t.
		for k, lane := range sch.lanes[:active] {
			if sch.pending[k] == 0 || !lane.u.w.atTime(t) {
				continue
			}
			if far[k] {
				live.Range(func(s int) {
					if lane.u.w.inRegion(s) {
						cur[s*K+k] = 0
					}
				})
				continue
			}
			for _, s := range pins[k] {
				cur[int(s)*K+k] = 1
				live.Set(int(s))
			}
		}
		// Fork freshly activated follower columns off their leaders
		// (after pinning, so the copy includes this step's pins — the
		// leader pins at the fork time whenever the follower would).
		for k := newlyActive; k < active; k++ {
			if l := sch.lanes[k].leader; l >= 0 {
				live.Range(func(s int) { cur[s*K+k] = cur[s*K+l] })
				resolve(l)
			}
		}
		// Extract every unit whose observation time this is.
		for ui, u := range sch.order {
			if u.t0 != t {
				continue
			}
			if lane, ok := sch.aliases[ui]; ok {
				e.cache.board.Put(u.key, scoreValue{vecs: []*sparse.Vec{extract(lane)}})
				resolve(lane)
				continue
			}
			k := sch.laneOf[ui]
			if k < active && !extracted[k] {
				e.cache.board.Put(u.key, scoreValue{vecs: []*sparse.Vec{extract(k)}})
				extracted[k] = true
				resolve(k)
			}
		}
		if t == sch.minT0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		fusedStepBack(next, cur, nextLive, live, mt, K, active)
		cur, next = next, cur
		live, nextLive = nextLive, live
	}
}

// fusedStepBack advances the first `active` columns one backward step:
// the block analogue of chain.StepBack (dst = x · Mᵀ, Gustavson row
// scatter). xLive holds every row of x that can be non-zero; they are
// visited in ascending order, and a row whose live columns are all zero
// is skipped without touching the matrix row at all, so a step costs the
// columns' reach, not n·K. dst is cleared on the rows dstLive held, and
// dstLive becomes the rows written. The loop makes no call per row or
// edge (Bitset.Set inlines).
func fusedStepBack(dst, x []float64, dstLive, xLive *sparse.Bitset, mt *sparse.CSR, K, active int) {
	dstLive.Range(func(j int) { clear(dst[j*K : j*K+K]) })
	dstLive.Reset()
	for wi, w := range xLive.Words64() {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			xb := x[i*K : i*K+active : i*K+active]
			nz := false
			for _, v := range xb {
				if v != 0 {
					nz = true
					break
				}
			}
			if !nz {
				continue
			}
			cols, vals := mt.RowSlices(i)
			vals = vals[:len(cols)] // equal lengths: lets the compiler drop bounds checks
			for p, j := range cols {
				v := vals[p]
				dstLive.Set(j)
				db := dst[j*K : j*K+active : j*K+active]
				db = db[:len(xb)]
				for c, xc := range xb {
					db[c] += xc * v
				}
			}
		}
	}
}

// fusedMaskSweeps runs the boolean reachability-envelope sweeps of all
// units — same chain, same envelope kind — as ONE word-packed sweep:
// bit k of the uint64 lane word is unit k's bitset, so a single OR
// (possible-envelope) or AND (certain-envelope) per transition edge
// advances every unit at once. Up to 64 units amortize each matrix
// traversal, and the same suffix-sharing schedule as the float kernel
// applies: follower bits copy their leader's bit at the fork point,
// alias units are read straight off the leader. Booleans make
// bit-identity to supportEnvelope trivial.
func (e *Engine) fusedMaskSweeps(ctx context.Context, chain *markov.Chain, units []sweepUnit, certain bool) error {
	sch := newFusedSchedule(units, 64)
	n := chain.NumStates()
	pins := make([][]int32, len(sch.lanes))
	for k, lane := range sch.lanes {
		pins[k] = regionPins(lane.u.w) // inverted windows: no full-mask walk per step
	}
	extract := func(cur []uint64, k int) *sparse.Bitset {
		bits := sparse.NewBitset(n)
		bit := uint64(1) << uint(k)
		for s, w := range cur {
			if w&bit != 0 {
				bits.Set(s)
			}
		}
		return bits
	}
	resolve := func(cur []uint64, k int) {
		sch.pending[k]--
		if sch.pending[k] == 0 {
			mask := ^(uint64(1) << uint(k))
			for s := range cur {
				cur[s] &= mask // retire the bit column
			}
		}
	}

	cur := make([]uint64, n)
	next := make([]uint64, n)
	extracted := make([]bool, len(sch.lanes))
	active := 0
	m := chain.Matrix()
	for t := sch.maxH; ; t-- {
		newlyActive := active
		for active < len(sch.lanes) && sch.lanes[active].act >= t {
			active++
		}
		for k, lane := range sch.lanes[:active] {
			if sch.pending[k] > 0 && lane.u.w.atTime(t) {
				bit := uint64(1) << uint(k)
				for _, s := range pins[k] {
					cur[s] |= bit
				}
			}
		}
		for k := newlyActive; k < active; k++ {
			if l := sch.lanes[k].leader; l >= 0 {
				shift := uint(k)
				from := uint(l)
				for s := range cur {
					cur[s] |= ((cur[s] >> from) & 1) << shift
				}
				resolve(cur, l)
			}
		}
		for ui, u := range sch.order {
			if u.t0 != t {
				continue
			}
			if lane, ok := sch.aliases[ui]; ok {
				e.cache.board.Put(u.key, scoreValue{bits: extract(cur, lane)})
				resolve(cur, lane)
				continue
			}
			k := sch.laneOf[ui]
			if k < active && !extracted[k] {
				e.cache.board.Put(u.key, scoreValue{bits: extract(cur, k)})
				extracted[k] = true
				resolve(cur, k)
			}
		}
		if t == sch.minT0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if certain {
			fusedStepBackCertain(next, cur, m)
		} else {
			fusedStepBackSupport(next, cur, m)
		}
		cur, next = next, cur
	}
}

// fusedStepBackSupport is the word-packed StepBackSupport: lane word i
// becomes the OR of its successors' words ("some successor can still
// satisfy the predicate").
func fusedStepBackSupport(dst, x []uint64, m *sparse.CSR) {
	for i := range dst {
		cols, _ := m.RowSlices(i)
		var w uint64
		for _, j := range cols {
			w |= x[j]
		}
		dst[i] = w
	}
}

// fusedStepBackCertain is the word-packed StepBackCertain: lane word i
// becomes the AND of its successors' words; dangling states (no
// successors) are conservatively zero, exactly like the serial kernel.
func fusedStepBackCertain(dst, x []uint64, m *sparse.CSR) {
	for i := range dst {
		cols, _ := m.RowSlices(i)
		if len(cols) == 0 {
			dst[i] = 0
			continue
		}
		w := ^uint64(0)
		for _, j := range cols {
			w &= x[j]
		}
		dst[i] = w
	}
}
