package core

import (
	"context"
	"fmt"

	"ust/internal/markov"
	"ust/internal/sparse"
)

// Heterogeneous-chain pruning (the Section V-C discussion). When objects
// follow different Markov chains, the query-based strategy degrades to
// one backward sweep per chain. The paper suggests clustering chains and
// representing each cluster by an approximated chain whose entries are
// probability *intervals*; a cluster whose interval-valued query
// probability is decided against a threshold as a whole never needs its
// member chains swept individually.

// IntervalChain bounds a set of Markov chains elementwise: for every
// chain C in the set and every (i, j), Lo[i,j] ≤ C[i,j] ≤ Hi[i,j].
type IntervalChain struct {
	lo, hi *sparse.CSR
}

// NewIntervalChain builds the elementwise envelope of the given chains.
// All chains must share the state-space size.
func NewIntervalChain(chains []*markov.Chain) (*IntervalChain, error) {
	if len(chains) == 0 {
		return nil, fmt.Errorf("core: interval chain needs at least one member")
	}
	n := chains[0].NumStates()
	for _, c := range chains[1:] {
		if c.NumStates() != n {
			return nil, fmt.Errorf("core: interval chain members disagree on state count: %d vs %d", c.NumStates(), n)
		}
	}
	loB := sparse.NewBuilder(n, n)
	hiB := sparse.NewBuilder(n, n)
	// Collect the union support with min/max entries in one pass per
	// row, counting how many members carry each cell: a cell absent
	// from any member has lower bound zero.
	type cell struct {
		lo, hi float64
		seen   int
	}
	row := map[int]*cell{}
	for i := 0; i < n; i++ {
		clear(row)
		for _, c := range chains {
			c.Matrix().Row(i, func(j int, x float64) {
				e, ok := row[j]
				if !ok {
					row[j] = &cell{lo: x, hi: x, seen: 1}
					return
				}
				e.seen++
				if x < e.lo {
					e.lo = x
				}
				if x > e.hi {
					e.hi = x
				}
			})
		}
		for j, e := range row {
			if e.seen < len(chains) {
				e.lo = 0
			}
			loB.Add(i, j, e.lo)
			hiB.Add(i, j, e.hi)
		}
	}
	return &IntervalChain{lo: loB.Build(), hi: hiB.Build()}, nil
}

// NumStates returns the state-space size.
func (ic *IntervalChain) NumStates() int { return ic.lo.Rows() }

// Lo returns the lower-bound matrix.
func (ic *IntervalChain) Lo() *sparse.CSR { return ic.lo }

// Hi returns the upper-bound matrix.
func (ic *IntervalChain) Hi() *sparse.CSR { return ic.hi }

// Contains reports whether chain c lies inside the envelope.
func (ic *IntervalChain) Contains(c *markov.Chain) bool {
	if c.NumStates() != ic.NumStates() {
		return false
	}
	ok := true
	for i := 0; i < ic.NumStates(); i++ {
		c.Matrix().Row(i, func(j int, x float64) {
			if x < ic.lo.At(i, j)-1e-12 || x > ic.hi.At(i, j)+1e-12 {
				ok = false
			}
		})
	}
	return ok
}

// BoundScores runs one backward interval sweep for the query down to
// time t0, returning per-state scoring vectors: for any chain inside
// the envelope and any object at state s at time t0, the true hit
// probability lies in [loScore[s], hiScore[s]]. The vectors depend only
// on the envelope and the query — one sweep serves every member object
// via dot products.
func (ic *IntervalChain) BoundScores(q Query, t0 int) (loScore, hiScore *sparse.Vec, err error) {
	w, cerr := compile(q, ic.NumStates())
	if cerr != nil {
		return nil, nil, cerr
	}
	n := ic.NumStates()
	loScore = sparse.NewVec(n)
	hiScore = sparse.NewVec(n)
	if w.k == 0 {
		return loScore, hiScore, nil
	}
	if t0 > w.horizon {
		return nil, nil, fmt.Errorf("core: start time %d after query horizon %d", t0, w.horizon)
	}
	bufLo := sparse.NewVec(n)
	bufHi := sparse.NewVec(n)
	pin := func() {
		w.eachRegionState(func(s int) {
			loScore.Set(s, 1)
			hiScore.Set(s, 1)
		})
	}
	for t := w.horizon; t > t0; t-- {
		if w.atTime(t) {
			pin()
		}
		sparse.MatVec(bufLo, ic.lo, loScore)
		loScore, bufLo = bufLo, loScore
		sparse.MatVec(bufHi, ic.hi, hiScore)
		hiScore, bufHi = bufHi, hiScore
		clip1(hiScore)
	}
	if w.atTime(t0) {
		pin()
	}
	return loScore, hiScore, nil
}

// ExistsBoundsCluster computes sound lower and upper bounds on
// P∃(o, S□, T□) that hold simultaneously for *every* chain inside the
// envelope, for an object whose initial pdf is init at time t0.
//
// The bounds propagate backward like hitScores: the lower (upper) score
// vector uses the lower (upper) transition bounds, clipping the upper
// scores at 1. The result brackets the true value because the backward
// recurrence is monotone in both the matrix entries and the scores, all
// of which are non-negative.
func (ic *IntervalChain) ExistsBoundsCluster(init *sparse.Vec, t0 int, q Query) (lo, hi float64, err error) {
	loScore, hiScore, err := ic.BoundScores(q, t0)
	if err != nil {
		return 0, 0, err
	}
	x := init.Clone()
	x.Normalize()
	lo = x.Dot(loScore)
	hi = x.Dot(hiScore)
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

func clip1(v *sparse.Vec) {
	v.Range(func(i int, x float64) {
		if x > 1 {
			v.Set(i, 1)
		}
	})
}

// ClusterIndex holds prebuilt interval envelopes for a clustering of
// the database's objects. Building the envelopes costs one pass over
// every member chain; a ClusterIndex amortizes that across queries —
// the intended production usage of Section V-C's pruning.
type ClusterIndex struct {
	labels    []int
	envelopes map[int]*IntervalChain
}

// BuildClusterIndex groups the database's objects by the given cluster
// labels (one per object, in database order) and builds one interval
// envelope per cluster.
func (e *Engine) BuildClusterIndex(clusters []int) (*ClusterIndex, error) {
	objs := e.db.Objects()
	if len(clusters) != len(objs) {
		return nil, fmt.Errorf("core: %d cluster labels for %d objects", len(clusters), len(objs))
	}
	chainSets := map[int][]*markov.Chain{}
	seen := map[int]map[*markov.Chain]bool{}
	for i, o := range objs {
		cid := clusters[i]
		ch := e.db.ChainOf(o)
		if seen[cid] == nil {
			seen[cid] = map[*markov.Chain]bool{}
		}
		if !seen[cid][ch] {
			seen[cid][ch] = true
			chainSets[cid] = append(chainSets[cid], ch)
		}
	}
	idx := &ClusterIndex{
		labels:    append([]int(nil), clusters...),
		envelopes: map[int]*IntervalChain{},
	}
	for cid, chains := range chainSets {
		env, err := NewIntervalChain(chains)
		if err != nil {
			return nil, err
		}
		idx.envelopes[cid] = env
	}
	return idx, nil
}

// ExistsThresholdClustered evaluates PST∃Q for a database of
// heterogeneous chains against threshold tau, using one interval
// envelope per cluster of chains (idx, from BuildClusterIndex) to decide
// whole clusters cheaply; objects in an undecided cluster fall back to
// exact per-chain evaluation.
//
// The return is the set of objects with P∃ ≥ tau (exact, not bounded),
// plus the number of objects decided by the cluster bounds alone —
// the pruning effectiveness measure.
func (e *Engine) ExistsThresholdClustered(q Query, tau float64, idx *ClusterIndex) (qualifying []Result, pruned int, err error) {
	objs := e.db.Objects()
	if len(idx.labels) != len(objs) {
		return nil, 0, fmt.Errorf("core: cluster index covers %d objects, database has %d", len(idx.labels), len(objs))
	}
	clusters := idx.labels
	envelopes := idx.envelopes
	exact := func(o *Object) (float64, error) {
		ch := e.db.ChainOf(o)
		w, cerr := compile(q, ch.NumStates())
		if cerr != nil {
			return 0, cerr
		}
		return e.kernel(ch, w, nil).obExists(context.Background(), o)
	}
	// One backward interval sweep per (cluster, observation time); each
	// object is then bounded with two dot products.
	type scoreKey struct{ cid, t0 int }
	type scorePair struct{ lo, hi *sparse.Vec }
	scores := map[scoreKey]scorePair{}
	for i, o := range objs {
		if len(o.Observations) != 1 {
			// Multi-observation objects are always evaluated exactly.
			p, oerr := exact(o)
			if oerr != nil {
				return nil, 0, oerr
			}
			if p >= tau {
				qualifying = append(qualifying, Result{ObjectID: o.ID, Prob: p})
			}
			continue
		}
		first := o.First()
		key := scoreKey{clusters[i], first.Time}
		sp, ok := scores[key]
		if !ok {
			loV, hiV, berr := envelopes[key.cid].BoundScores(q, first.Time)
			if berr != nil {
				return nil, 0, berr
			}
			sp = scorePair{lo: loV, hi: hiV}
			scores[key] = sp
		}
		x, _ := first.PDF.Normalized()
		lo := x.Dot(sp.lo.RawData())
		hi := x.Dot(sp.hi.RawData())
		if hi > 1 {
			hi = 1
		}
		switch {
		case hi < tau:
			pruned++ // whole-cluster refutation
		case lo >= tau:
			pruned++
			// Decided qualifying; still report the exact probability so
			// downstream consumers see a usable number.
			p, oerr := exact(o)
			if oerr != nil {
				return nil, 0, oerr
			}
			qualifying = append(qualifying, Result{ObjectID: o.ID, Prob: p})
		default:
			p, oerr := exact(o)
			if oerr != nil {
				return nil, 0, oerr
			}
			if p >= tau {
				qualifying = append(qualifying, Result{ObjectID: o.ID, Prob: p})
			}
		}
	}
	return qualifying, pruned, nil
}
