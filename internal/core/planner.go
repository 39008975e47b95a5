package core

import (
	"context"
	"sort"

	"ust/internal/markov"
)

// Cost-based strategy selection. Section V-C derives the asymptotic
// costs of the two exact strategies:
//
//	object-based:  O(|D| · |S_reach|² · δt)   — forward pass per object
//	query-based:   O(|D| + |S_reach|² · δt)   — one backward sweep, then
//	                                            a dot product per object
//
// In practice the per-step cost is the touched non-zeros, not
// |S_reach|²; CostEstimate models exactly that and Plan picks the
// cheaper strategy. The query-based strategy is almost always the
// winner on multi-object databases — the estimator's job is mostly to
// spot the single-object / tiny-horizon cases where the forward pass's
// smaller constant wins, and to quantify the gap for EXPLAIN-style
// introspection.

// CostEstimate is the predicted work of one strategy for one query, in
// abstract "touched matrix entries" units.
type CostEstimate struct {
	Strategy Strategy
	// Sweeps is the number of full vector-matrix passes (backward
	// sweeps for QB, forward object passes for OB).
	Sweeps int
	// Ops approximates the touched non-zero count.
	Ops float64
}

// estimateAvgRowNNZ samples rows to approximate nnz per row.
func estimateAvgRowNNZ(c *markov.Chain) float64 {
	n := c.NumStates()
	if n == 0 {
		return 0
	}
	return float64(c.NNZ()) / float64(n)
}

// planExists returns cost estimates for evaluating the given PST∃Q over
// the database with each exact strategy, ordered best-first.
func (e *Engine) planExists(q Query) ([]CostEstimate, error) {
	horizon := q.Horizon()
	var obOps, qbOps float64
	obSweeps, qbSweeps := 0, 0
	for _, grp := range e.db.groupByChain() {
		if err := q.Validate(grp.chain.NumStates()); err != nil {
			return nil, err
		}
		rowNNZ := estimateAvgRowNNZ(grp.chain)
		n := float64(grp.chain.NumStates())

		// Distinct observation times drive the QB sweep count.
		times := map[int]bool{}
		for _, o := range grp.objects {
			first := o.First()
			if first.Time > horizon {
				continue
			}
			steps := float64(horizon - first.Time)
			// Forward support growth: starts at the observation spread
			// and roughly doubles-by-locality each step until it
			// saturates at n. Model as min(n, spread + steps·rowNNZ·2),
			// averaged over the pass (half the final support).
			spread := float64(o.First().PDF.NNZ())
			finalSupp := spread + steps*rowNNZ*2
			if finalSupp > n {
				finalSupp = n
			}
			avgSupp := (spread + finalSupp) / 2
			obOps += steps * avgSupp * rowNNZ
			obSweeps++
			times[first.Time] = true
		}
		for t0 := range times {
			steps := float64(horizon - t0)
			// Backward sweeps densify almost immediately (the region
			// pins |S□| ones each query step): model as full matrix
			// cost per step.
			qbOps += steps * float64(grp.chain.NNZ())
			qbSweeps++
		}
		// Plus a dot product per object.
		qbOps += float64(len(grp.objects)) * 4
	}
	plans := []CostEstimate{
		{Strategy: StrategyQueryBased, Sweeps: qbSweeps, Ops: qbOps},
		{Strategy: StrategyObjectBased, Sweeps: obSweeps, Ops: obOps},
	}
	if plans[1].Ops < plans[0].Ops {
		plans[0], plans[1] = plans[1], plans[0]
	}
	return plans, nil
}

// --- multi-query optimizer -------------------------------------------------
//
// Batch requests (batch.go) are planned together: the optimizer walks
// every prepared plan, extracts the backward-sweep work each one will
// need — keyed exactly like the score cache, (chain, window signature,
// observation time) — deduplicates it across requests, and schedules
// the distinct sweeps once through the fused block kernel before any
// request evaluates. Requests that share windows (identical panels,
// forall-complements, repeated observation times) collapse to one
// sweep; requests with merely overlapping windows still win because
// their sweeps advance through the transition matrix together. The
// results land in the engine's score cache, so the per-request
// evaluation afterwards is all cache hits and the sequential semantics
// (ranking, filtering, streaming, reports) are untouched.

// sweepUnit is one deduplicated unit of backward-sweep work.
type sweepUnit struct {
	key scoreKey
	w   *window
	t0  int
}

// warmBatch pre-computes the distinct sweep work the plans will need:
// the float scoring sweeps of query-based exists/forall plans, fused in
// state-major blocks. The other predicates' sweeps (ktimes families,
// hitting fixed points, expression families) and the object-based
// plans' reach cones still deduplicate across the batch through the
// score cache, they just run at first use. A nil cache disables warming
// entirely.
func (e *Engine) warmBatch(ctx context.Context, plans []*evalPlan) error {
	if e.cache == nil {
		return nil
	}
	seen := map[scoreKey]bool{}
	perChain := map[*markov.Chain][]sweepUnit{}
	chains := []*markov.Chain{}
	for _, plan := range plans {
		if plan == nil || !plan.useCache || plan.strategy != StrategyQueryBased {
			continue
		}
		forAll := plan.req.Predicate == PredicateForAll
		if plan.req.Predicate != PredicateExists && !forAll {
			continue
		}
		for _, grp := range e.db.groupByChain() {
			w, err := compile(plan.query, grp.chain.NumStates())
			if err != nil {
				continue // the request's own evaluation surfaces this
			}
			if forAll {
				w = w.complemented()
			}
			if w.k == 0 {
				continue
			}
			for _, o := range grp.objects {
				if len(o.Observations) != 1 {
					continue // multi-observation objects use the forward kernel
				}
				t0 := o.First().Time
				if t0 > w.horizon {
					continue
				}
				key := scoreKey{chain: grp.chain, kind: kindExists, sig: w.signature(), t0: t0}
				if seen[key] || e.cache.board.Contains(key) {
					continue
				}
				seen[key] = true
				if perChain[grp.chain] == nil {
					chains = append(chains, grp.chain)
				}
				perChain[grp.chain] = append(perChain[grp.chain], sweepUnit{key: key, w: w, t0: t0})
			}
		}
	}
	for _, chain := range chains {
		units := perChain[chain]
		// Descending horizon keeps the fused block's live columns a
		// prefix; ties broken deterministically regardless of map
		// iteration order.
		sort.Slice(units, func(a, b int) bool {
			if units[a].w.horizon != units[b].w.horizon {
				return units[a].w.horizon > units[b].w.horizon
			}
			if units[a].key.sig != units[b].key.sig {
				return units[a].key.sig < units[b].key.sig
			}
			return units[a].t0 < units[b].t0
		})
		width := fusedWidth(chain.NumStates())
		for start := 0; start < len(units); start += width {
			end := min(start+width, len(units))
			if err := e.fusedExistsSweeps(ctx, chain, units[start:end]); err != nil {
				return err
			}
		}
	}
	return nil
}

// PlanRequest resolves the strategy Evaluate would run req with —
// engine default, per-request override, or the cost planner's choice
// for WithAutoPlan — plus the planner's estimates when auto-planning
// engaged (exactly as Response.Plans reports them). It validates the request and resolves
// its window, so a nil error here means the request is well-formed.
// The shard router uses it to plan once, over the full database, and
// pin every shard to the same strategy.
func (e *Engine) PlanRequest(req Request) (Strategy, []CostEstimate, error) {
	plan, err := e.prepare(req)
	if err != nil {
		return 0, nil, err
	}
	return plan.strategy, plan.plans, nil
}

// WarmBatch precomputes and publishes to the score cache every backward
// sweep the requests' query-based exists/forall evaluations will need,
// using the fused state-major kernel — EvaluateBatch's warm phase as a
// standalone entry point. The shard router calls it once on
// a full-database engine so that the per-shard batch evaluations all
// hit the shared cache instead of warming per shard. Malformed requests
// are skipped (their own evaluation surfaces the error).
func (e *Engine) WarmBatch(ctx context.Context, reqs []Request) error {
	plans := make([]*evalPlan, len(reqs))
	for i, req := range reqs {
		plans[i], _ = e.prepare(req)
	}
	return e.warmBatch(ctx, plans)
}
