package core

import (
	"context"
	"iter"
	"runtime"
	"sort"

	"ust/internal/markov"
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
// even on a single core; BenchmarkEvaluateBatch measures it. The fused
// block is the same lane block a serial sweep steps (querybased.go),
// only wider: every column sums its rows in ascending order whatever
// the other columns hold, so fused results are bit-identical to the
// serial sweeps by construction (same additions in the same order, zero
// terms interspersed), and EvaluateBatch answers are byte-identical to
// sequential Evaluate calls.
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

// fusedSchedule is the per-block bookkeeping of the fused sweep:
// planned lanes, alias extractions and dependency counts.
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
// chain, arbitrary windows and observation times — as one lane block
// (querybased.go) and publishes each resulting scoring vector to the
// score cache. The block moves down the absolute time axis, from the
// latest horizon to the earliest observation time. Columns join at their
// activation time (the descending sort makes live columns a prefix):
// leaders at their horizon, opened exactly like hitScores's lane (held
// against the same far value), followers as a copy of their leader at
// the fork point, after this step's pins, so the copy includes them (the
// leader pins at the fork time whenever the follower would). Every unit
// is published at its observation time, an alias off its leader. Each
// column replays exactly the additions of hitScores for its unit — rows
// in ascending order, inactive columns and shared suffixes only elide or
// share identical terms — so the cached vectors are bit-identical to
// what the serial path computes.
func (e *Engine) fusedExistsSweeps(ctx context.Context, chain *markov.Chain, units []sweepUnit) error {
	sch := newFusedSchedule(units, maxFusedColumns)
	blk := lanes.get(chain.NumStates(), len(sch.lanes))
	defer lanes.put(blk)
	pins := make([][]int32, len(sch.lanes))
	mt := chain.Transposed()
	resolve := func(k int) {
		sch.pending[k]--
		if sch.pending[k] == 0 {
			blk.zeroColumn(k)
		}
	}
	publish := func(key scoreKey, k int) {
		e.cache.board.Put(key, scoreValue{cols: [][]float64{blk.column(k)}})
		resolve(k)
	}
	extracted := make([]bool, len(sch.lanes))
	active := 0 // live-column prefix: lanes[0:active] have act ≥ t
	for t := sch.maxH; ; t-- {
		newlyActive := active
		for ; active < len(sch.lanes) && sch.lanes[active].act >= t; active++ {
			pins[active] = blk.open(active, sch.lanes[active].u.w, sch.lanes[active].leader < 0)
		}
		// Pin every live, unretired column whose window covers t.
		for k, lane := range sch.lanes[:active] {
			if sch.pending[k] > 0 && lane.u.w.atTime(t) {
				blk.pin(k, lane.u.w, pins[k])
			}
		}
		for k := newlyActive; k < active; k++ {
			if l := sch.lanes[k].leader; l >= 0 {
				blk.copyColumn(k, l)
				resolve(l)
			}
		}
		for ui, u := range sch.order {
			if u.t0 != t {
				continue
			}
			if lane, ok := sch.aliases[ui]; ok {
				publish(u.key, lane)
				continue
			}
			if k := sch.laneOf[ui]; k < active && !extracted[k] {
				extracted[k] = true
				publish(u.key, k)
			}
		}
		if t == sch.minT0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		blk.step(mt, active)
	}
}
