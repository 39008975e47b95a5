package core

import (
	"fmt"

	"ust/internal/markov"
)

// Brute-force possible-worlds reference (Section IV notes the space is
// O(|S|^T) — this is intentionally exponential and exists purely to
// validate the matrix algorithms on tiny instances).

// WorldStats holds the exact aggregate over all possible worlds of one
// object for a query window.
type WorldStats struct {
	// PExists is the total probability of worlds intersecting the window.
	PExists float64
	// PForAll is the total probability of worlds inside the window at
	// every query timestamp.
	PForAll float64
	// KDist[k] is the total probability of worlds inside the window at
	// exactly k query timestamps.
	KDist []float64
	// Worlds is the number of enumerated trajectories with positive
	// probability.
	Worlds int
}

// maxBruteForceWorlds caps enumeration so a mistaken call cannot hang a
// test run.
const maxBruteForceWorlds = 5_000_000

// BruteForceExpr evaluates a compound expression (algebra.go) for one
// object by exhaustive possible-worlds enumeration: every trajectory of
// positive probability is walked, each atom's fired-flag tracked along
// it, and the expression's truth table applied to the final flag word.
// This is the ground truth the augmented evaluations (plan.go) are
// pinned against; like BruteForce it is intentionally exponential.
// Atoms carrying geometric regions must have resolvers attached.
func BruteForceExpr(chain *markov.Chain, o *Object, x Expr) (float64, error) {
	resolved, err := x.resolved()
	if err != nil {
		return 0, err
	}
	prog, err := compileExpr(resolved, chain.NumStates())
	if err != nil {
		return 0, err
	}
	first := o.First()
	end := prog.horizon
	if last := o.Last().Time; last > end {
		end = last
	}
	if end < first.Time {
		end = first.Time
	}

	obsAt := map[int]*markov.Distribution{}
	for _, ob := range o.Observations[1:] {
		obsAt[ob.Time] = ob.PDF
	}

	var acceptMass, totalMass float64
	worlds := 0
	var walk func(t, state int, prob float64, bits int)
	walk = func(t, state int, prob float64, bits int) {
		if d := prog.deltas[t]; d != nil {
			bits |= int(d[state])
		}
		if pdf, ok := obsAt[t]; ok {
			prob *= pdf.P(state)
			if prob == 0 {
				return
			}
		}
		if t == end {
			worlds++
			if worlds > maxBruteForceWorlds {
				panic(fmt.Sprintf("core: brute force exceeded %d worlds", maxBruteForceWorlds))
			}
			totalMass += prob
			if prog.accept[bits] {
				acceptMass += prob
			}
			return
		}
		chain.Successors(state, func(next int, p float64) {
			walk(t+1, next, prob*p, bits)
		})
	}

	init, mass := first.PDF.Normalized()
	if mass == 0 {
		return 0, errZeroMass(o.ID)
	}
	init.Range(func(s int, p float64) {
		walk(first.Time, s, p, 0)
	})
	if totalMass == 0 {
		return 0, fmt.Errorf("core: observations are mutually impossible under the motion model")
	}
	return acceptMass / totalMass, nil
}

// BruteForce enumerates every trajectory of positive probability from
// the object's first observation to the query horizon (or last
// observation if later), weights each by its path probability times the
// likelihood of the remaining observations (possible-worlds semantics of
// Section VI), and aggregates the three query predicates exactly.
func BruteForce(chain *markov.Chain, o *Object, q Query) (*WorldStats, error) {
	w, err := compile(q, chain.NumStates())
	if err != nil {
		return nil, err
	}
	first := o.First()
	if w.k > 0 && first.Time > w.horizon {
		return nil, errObservedAfterHorizon(o.ID, first.Time, w.horizon)
	}
	end := w.horizon
	if last := o.Last().Time; last > end {
		end = last
	}
	if end < first.Time {
		end = first.Time
	}

	obsAt := map[int]*markov.Distribution{}
	for _, ob := range o.Observations[1:] {
		obsAt[ob.Time] = ob.PDF
	}

	stats := &WorldStats{KDist: make([]float64, w.k+1)}
	var totalMass float64

	var walk func(t, state int, prob float64, visits int)
	walk = func(t, state int, prob float64, visits int) {
		if w.atTime(t) && w.inRegion(state) {
			visits++
		}
		if pdf, ok := obsAt[t]; ok {
			prob *= pdf.P(state)
			if prob == 0 {
				return
			}
		}
		if t == end {
			stats.Worlds++
			if stats.Worlds > maxBruteForceWorlds {
				panic(fmt.Sprintf("core: brute force exceeded %d worlds", maxBruteForceWorlds))
			}
			totalMass += prob
			if visits > 0 {
				stats.PExists += prob
			}
			if visits == w.k {
				stats.PForAll += prob
			}
			if visits < len(stats.KDist) {
				stats.KDist[visits] += prob
			}
			return
		}
		chain.Successors(state, func(next int, p float64) {
			walk(t+1, next, prob*p, visits)
		})
	}

	init, mass := first.PDF.Normalized()
	if mass == 0 {
		return nil, errZeroMass(o.ID)
	}
	init.Range(func(s int, p float64) {
		walk(first.Time, s, p, 0)
	})

	if totalMass == 0 {
		return nil, fmt.Errorf("core: observations are mutually impossible under the motion model")
	}
	// Renormalize to the possible worlds (Equation 1): conditioning on
	// the observations.
	stats.PExists /= totalMass
	stats.PForAll /= totalMass
	for k := range stats.KDist {
		stats.KDist[k] /= totalMass
	}
	return stats, nil
}

// BruteForceCountPMF is the world-enumeration oracle for the aggregate
// subsystem (aggregate.go): the exact database-level count PMF, computed
// WITHOUT the canonical generating-function machinery. Objects are
// independent, so the joint world space factorizes — each object's
// contribution distribution comes from exhaustive per-object enumeration
// (BruteForce / BruteForceExpr), and the factors combine by a plain
// left-to-right convolution in database order. Like its siblings it is
// intentionally exponential per object and exists only for tiny test
// instances. x is consulted for PredicateExpr only.
func BruteForceCountPMF(db *Database, pred Predicate, q Query, x Expr) ([]float64, error) {
	pmf := []float64{1}
	for _, o := range db.Objects() {
		chain := db.ChainOf(o)
		var coeffs []float64
		switch pred {
		case PredicateExists, PredicateForAll, PredicateKTimes:
			ws, err := BruteForce(chain, o, q)
			if err != nil {
				return nil, err
			}
			switch pred {
			case PredicateExists:
				coeffs = []float64{1 - ws.PExists, ws.PExists}
			case PredicateForAll:
				coeffs = []float64{1 - ws.PForAll, ws.PForAll}
			default:
				coeffs = ws.KDist
			}
		case PredicateExpr:
			p, err := BruteForceExpr(chain, o, x)
			if err != nil {
				return nil, err
			}
			coeffs = []float64{1 - p, p}
		default:
			return nil, fmt.Errorf("core: no brute-force count oracle for predicate %v", pred)
		}
		out := make([]float64, len(pmf)+len(coeffs)-1)
		for i, a := range pmf {
			for j, b := range coeffs {
				out[i+j] += a * b
			}
		}
		pmf = out
	}
	return pmf, nil
}
