package core

import (
	"context"
	"fmt"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// Vectorized multi-observation kernels. These are the columnar twins of
// the Vec-based passes in multiobs.go: they consume ObsSeg column blocks
// directly and run on flat state-major float lanes — the doubled state
// space of Section VI becomes a K=2 interleaved block [pNot₀ pHit₀ pNot₁
// pHit₁ …] advanced by the same fused Gustavson scatter the batch sweeps
// use (fusedStepBack over the un-transposed matrix IS a forward step:
// dst[j] += x[i]·M[i,j]). Observation fusion is a gather/scatter over
// the observation's support columns — the fused result's support is
// contained in the observation's, so one clear + |supp| writes replaces
// the Hadamard + Compact support churn of the row path, and the only
// per-call allocations are pooled lane blocks.

// regionPins materializes the window's (possibly inverted) spatial
// predicate as a flat state list — the columnar form of eachRegionState,
// built once per kern or sweep and reused across objects and steps.
func regionPins(w *window) []int32 {
	size := len(w.states)
	if w.invert {
		size = len(w.mask) - size
	}
	pins := make([]int32, 0, size)
	w.eachRegionState(func(s int) { pins = append(pins, int32(s)) })
	return pins
}

// fuse2 multiplies both lanes elementwise by the observation pdf given
// as support columns (Lemma 1), returning the total remaining mass.
// scratch must hold 2·len(ids) values.
func fuse2(cur, scratch []float64, ids []int32, probs []float64) float64 {
	for p, s := range ids {
		scratch[2*p] = cur[2*int(s)] * probs[p]
		scratch[2*p+1] = cur[2*int(s)+1] * probs[p]
	}
	clear(cur)
	total := 0.0
	for p, s := range ids {
		a, b := scratch[2*p], scratch[2*p+1]
		cur[2*int(s)] = a
		cur[2*int(s)+1] = b
		total += a + b
	}
	return total
}

// fuse1 is the single-lane variant used by the posterior pass.
func fuse1(cur, scratch []float64, ids []int32, probs []float64) float64 {
	for p, s := range ids {
		scratch[p] = cur[int(s)] * probs[p]
	}
	clear(cur)
	total := 0.0
	for p, s := range ids {
		cur[int(s)] = scratch[p]
		total += scratch[p]
	}
	return total
}

// maxSupp returns the widest observation support in the segment.
func maxSupp(seg ObsSeg) int {
	m := 0
	for k := 0; k < seg.Len(); k++ {
		if w := int(seg.Off[k+1] - seg.Off[k]); w > m {
			m = w
		}
	}
	return m
}

// laneFrontier tracks which states carry nonzero lanes across flat
// steps, so sparse phases cost O(frontier·deg) instead of O(n). Every
// observation fusion collapses the frontier back to the observation's
// support, and between fusions it grows by at most the out-degree per
// step, so multi-obs passes spend most of their steps far below the
// dense threshold. Once the frontier passes a quarter of the state space
// the kernel flips to fusedStepBack over live-row bitsets (ascending
// rows, no per-step list upkeep) until the next fusion re-sparsifies it.
//
// Invariant in sparse mode: both lane buffers are zero outside the
// frontier — step clears the source lanes behind itself, and reset
// clears the spare buffer when leaving dense mode. In dense mode live
// and spareLive hold the rows of the source and the other buffer that
// can be non-zero.
type laneFrontier struct {
	rows  []int32 // active states (sparse mode only)
	spare []int32 // storage for the next frontier
	stamp []int32 // stamp[s]==epoch ⇒ s already collected for the next frontier
	epoch int32
	dense bool
	// live, spareLive: dense mode's row sets, allocated on first use.
	live, spareLive *sparse.Bitset
}

func newLaneFrontier(n int) *laneFrontier {
	return &laneFrontier{
		stamp: make([]int32, n),
		rows:  make([]int32, 0, n),
		spare: make([]int32, 0, n),
	}
}

// reset re-sparsifies the frontier to exactly ids (an observation's
// support). other is the inactive lane buffer, cleared if dense data may
// be lingering in it.
func (f *laneFrontier) reset(ids []int32, other []float64) {
	if f.dense {
		clear(other)
		f.dense = false
	}
	f.rows = append(f.rows[:0], ids...)
}

// densify enters dense mode with the source buffer live on rows (every
// row when rows is nil) and the other buffer zero.
func (f *laneFrontier) densify(rows []int32) {
	n := len(f.stamp)
	if f.live == nil {
		f.live, f.spareLive = sparse.NewBitset(n), sparse.NewBitset(n)
	}
	f.live.Reset()
	f.spareLive.Reset()
	if rows == nil {
		for s := 0; s < n; s++ {
			f.live.Set(s)
		}
	}
	for _, s := range rows {
		f.live.Set(int(s))
	}
	f.dense = true
}

// step advances one scatter step dst[j] += x[i]·m[i,j] over the active
// frontier (or the dense live rows once past the threshold). In sparse
// mode x is cleared behind the scatter, keeping both buffers zero
// outside the frontier; callers swap dst and x afterwards exactly as
// with fusedStepBack.
func (f *laneFrontier) step(dst, x []float64, m *sparse.CSR, K, active int) {
	if f.dense {
		fusedStepBack(dst, x, f.spareLive, f.live, m, K, active)
		f.live, f.spareLive = f.spareLive, f.live
		return
	}
	f.epoch++
	nxt := f.spare[:0]
	for _, si := range f.rows {
		i := int(si)
		xb := x[i*K : i*K+active : i*K+active]
		nz := false
		for _, v := range xb {
			if v != 0 {
				nz = true
				break
			}
		}
		if nz {
			cols, vals := m.RowSlices(i)
			vals = vals[:len(cols)]
			for p, j := range cols {
				v := vals[p]
				if f.stamp[j] != f.epoch {
					f.stamp[j] = f.epoch
					nxt = append(nxt, int32(j))
				}
				db := dst[j*K : j*K+active : j*K+active]
				db = db[:len(xb)]
				for c, xc := range xb {
					db[c] += xc * v
				}
			}
			clear(xb)
		}
	}
	f.rows, f.spare = nxt, f.rows
	if 4*len(f.rows) > len(f.stamp) {
		f.densify(f.rows)
	}
}

// sum totals the active lanes of x without touching dead states.
func (f *laneFrontier) sum(x []float64, K, active int) float64 {
	total := 0.0
	if f.dense {
		for _, v := range x {
			total += v
		}
		return total
	}
	for _, si := range f.rows {
		i := int(si)
		for c := 0; c < active; c++ {
			total += x[i*K+c]
		}
	}
	return total
}

// existsMultiObsSeg computes P∃ for a multi-observation object from its
// column segment. pins may be nil (derived from w); fpool may be nil
// (plain allocation). Semantics mirror existsMultiObsRow exactly — same
// pass structure, same deferred normalization — modulo floating-point
// summation order.
func existsMultiObsSeg(ctx context.Context, chain *markov.Chain, seg ObsSeg, w *window, pins []int32, fpool *sparse.FloatPool) (float64, error) {
	if seg.Len() == 0 {
		return 0, fmt.Errorf("core: no observations")
	}
	if pins == nil {
		pins = regionPins(w)
	}
	n := chain.NumStates()
	cur := fpool.Get(2 * n)
	nxt := fpool.Get(2 * n)
	defer func() {
		fpool.Put(cur)
		fpool.Put(nxt)
	}()
	scratch := make([]float64, 2*maxSupp(seg))

	ids, probs := seg.Supp(0)
	mass := 0.0
	for _, v := range probs {
		mass += v
	}
	if mass <= 0 {
		return 0, fmt.Errorf("core: observations are mutually impossible under the motion model")
	}
	inv := 1 / mass
	for p, s := range ids {
		cur[2*int(s)] = probs[p] * inv
	}
	front := newLaneFrontier(n)
	front.reset(ids, nxt)

	end := w.horizon
	if last := int(seg.Times[seg.Len()-1]); last > end {
		end = last
	}
	t := int(seg.Times[0])
	if w.atTime(t) {
		transferHitsFlat(cur, pins)
	}
	nextObs := 1
	m := chain.Matrix()
	for ; t < end; t++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		front.step(nxt, cur, m, 2, 2) // un-transposed matrix: a forward step
		cur, nxt = nxt, cur
		if w.atTime(t + 1) {
			transferHitsFlat(cur, pins)
		}
		if nextObs < seg.Len() && int(seg.Times[nextObs]) == t+1 {
			oIds, oProbs := seg.Supp(nextObs)
			nextObs++
			total := fuse2(cur, scratch, oIds, oProbs)
			if total == 0 {
				return 0, fmt.Errorf("core: observations are mutually impossible under the motion model")
			}
			// Rescale jointly; the ratio P(B)/(P(B)+P(C)) is invariant
			// under a common factor and renormalizing here prevents
			// underflow across long observation sequences.
			inv := 1 / total
			for _, s := range oIds {
				cur[2*int(s)] *= inv
				cur[2*int(s)+1] *= inv
			}
			front.reset(oIds, nxt)
		}
	}
	b, c := 0.0, 0.0
	for s := 0; s < n; s++ {
		c += cur[2*s]
		b += cur[2*s+1]
	}
	total := b + c
	if total == 0 {
		return 0, fmt.Errorf("core: observations are mutually impossible under the motion model")
	}
	return b / total, nil
}

// transferHitsFlat moves in-window mass from the pNot lane into the pHit
// lane — the redirected block of the doubled M+ matrix, as an O(|S□|)
// walk over the pinned region states.
func transferHitsFlat(cur []float64, pins []int32) {
	for _, s := range pins {
		cur[2*s+1] += cur[2*s]
		cur[2*s] = 0
	}
}

// posteriorAtSeg computes the smoothed posterior P(o(t) | all
// observations) from a column segment: a flat forward pass with
// gather/scatter observation fusion, then — when observations exist
// after t — one flat backward likelihood sweep that reuses its two lane
// buffers instead of allocating a vector per step like the row path.
// The result is a fresh vector the caller owns.
func posteriorAtSeg(chain *markov.Chain, seg ObsSeg, t int, fpool *sparse.FloatPool) (*sparse.Vec, error) {
	if seg.Len() == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	t0 := int(seg.Times[0])
	if t < t0 {
		return nil, fmt.Errorf("core: cannot infer before the first observation (t=%d < %d)", t, t0)
	}
	n := chain.NumStates()
	cur := fpool.Get(n)
	nxt := fpool.Get(n)
	atT := fpool.Get(n)
	defer func() {
		fpool.Put(cur)
		fpool.Put(nxt)
		fpool.Put(atT)
	}()
	scratch := make([]float64, maxSupp(seg))

	ids, probs := seg.Supp(0)
	mass := 0.0
	for _, v := range probs {
		mass += v
	}
	if mass <= 0 {
		return nil, fmt.Errorf("core: observations are mutually impossible under the motion model")
	}
	inv := 1 / mass
	for p, s := range ids {
		cur[int(s)] = probs[p] * inv
	}
	front := newLaneFrontier(n)
	front.reset(ids, nxt)

	end := t
	if last := int(seg.Times[seg.Len()-1]); last > end {
		end = last
	}
	if t0 == t {
		copy(atT, cur)
	}
	nextObs := 1
	m := chain.Matrix()
	for tau := t0; tau < end; tau++ {
		front.step(nxt, cur, m, 1, 1) // forward step on one lane
		cur, nxt = nxt, cur
		if nextObs < seg.Len() && int(seg.Times[nextObs]) == tau+1 {
			oIds, oProbs := seg.Supp(nextObs)
			nextObs++
			fuse1(cur, scratch, oIds, oProbs)
			front.reset(oIds, nxt)
		}
		if front.sum(cur, 1, 1) == 0 {
			return nil, fmt.Errorf("core: observations are mutually impossible under the motion model")
		}
		if tau+1 == t {
			copy(atT, cur)
		}
	}
	if t < end {
		// Future observations reweight the past: multiply by the
		// backward likelihood L[s] = P(observations in (t, end] | s at t).
		// Scattering over the transposed matrix (dst[i] += like[j]·M[i,j])
		// lets the same frontier machinery track the live support, which
		// collapses to the last observation's support on the first fuse.
		like := fpool.Get(n)
		lbuf := fpool.Get(n)
		for i := range like {
			like[i] = 1
		}
		front.densify(nil)
		mt := chain.Transposed()
		obsIdx := seg.Len() - 1
		for tau := end; tau > t; tau-- {
			for obsIdx >= 0 && int(seg.Times[obsIdx]) > tau {
				obsIdx--
			}
			if obsIdx >= 0 && int(seg.Times[obsIdx]) == tau {
				oIds, oProbs := seg.Supp(obsIdx)
				fuse1(like, scratch, oIds, oProbs)
				front.reset(oIds, lbuf)
			}
			front.step(lbuf, like, mt, 1, 1) // transposed scatter: dst = M·like
			like, lbuf = lbuf, like
		}
		for i := range atT {
			atT[i] *= like[i]
		}
		fpool.Put(like)
		fpool.Put(lbuf)
	}
	mass = 0.0
	for _, v := range atT {
		mass += v
	}
	if mass == 0 {
		return nil, fmt.Errorf("core: observations are mutually impossible under the motion model")
	}
	inv = 1 / mass
	nnz := 0
	for _, v := range atT {
		if v != 0 {
			nnz++
		}
	}
	data := make([]float64, n)
	if float64(nnz) > sparse.DenseThreshold*float64(n) {
		for i, v := range atT {
			data[i] = v * inv
		}
		return sparse.AdoptDense(data), nil
	}
	supp := make([]int, 0, nnz)
	for i, v := range atT {
		if v != 0 {
			data[i] = v * inv
			supp = append(supp, i)
		}
	}
	return sparse.AdoptSparse(data, supp), nil
}

// segForObject returns the database plane's segment for exactly this
// object version, falling back to a transient row→column conversion for
// free-standing objects (plane-less callers, stale pointers, objects not
// inserted into the kern's database).
func segForObject(cols *ObsColumns, o *Object) ObsSeg {
	if cols != nil {
		if seg, ok := cols.segmentOf(o); ok {
			return seg
		}
	}
	return segFromObservations(o.Observations)
}
