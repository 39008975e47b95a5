package core

import (
	"context"
	"errors"
	"fmt"

	"ust/internal/agg"
)

// Probabilistic aggregates: database-level count distributions computed
// by generating functions (Züfle's technique). Each object contributes
// an independent factor polynomial — the Bernoulli (1−p) + p·x of its
// predicate probability, or its full PSTkQ visit-count distribution —
// and the product of the factors is the exact generating function of
// the count. The per-object probabilities come from the same per-object
// stream the per-object requests fold (evaluate.go's scan), riding the
// score cache and the fused batch sweeps, so an aggregate answer is
// consistent with the per-object answers to the ulp, and the canonical
// product (internal/agg) makes the distribution byte-identical across
// the in-process engine, the shard router and the remote service.
//
// For exists and forall under the object-based strategy, scan's filter
// gate (filter.go) brackets each object with the reachability envelopes
// before any forward pass. The count's bar is −1, so nothing is pruned;
// the gate answers from its certificate alone. An exists-object whose
// possible-envelope mass is exactly zero carries the zero certificate
// (kern.existsUpper) and enters the product as the factor [1, 0]; a
// forall-object whose COMPLEMENT-window envelope mass is exactly zero is
// certain (P∀ = 1 − 0, exactly 1) and enters as [0, 1]. Everything else
// is refined by the exact evaluator. Query-based counts fold every
// object's exact dot product.

// AggKind selects the aggregate computed by WithAggregate.
type AggKind int

const (
	// AggCount is the count distribution: the exact PMF of how many
	// objects satisfy the predicate (for PSTkQ: of the total number of
	// window timestamps spent inside the region, summed over objects).
	AggCount AggKind = iota
	// AggOccupancy is the per-timestep occupancy profile: for every
	// timestamp of the window, the distribution of how many objects are
	// inside the spatial predicate at that instant, summarized by its
	// exact mean and variance (and iceberg tail when MinCount is set).
	// Exists-predicate, exact strategies only.
	AggOccupancy
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggOccupancy:
		return "occupancy"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggSpec configures one aggregate request.
type AggSpec struct {
	// Kind selects the aggregate.
	Kind AggKind
	// MinCount, when > 0, additionally reports the iceberg tail
	// P(count ≥ MinCount) — the count-threshold query.
	MinCount int
}

func (s AggSpec) validate() error {
	switch s.Kind {
	case AggCount, AggOccupancy:
	default:
		return fmt.Errorf("core: unknown aggregate kind %v", s.Kind)
	}
	if s.MinCount < 0 {
		return fmt.Errorf("core: aggregate min-count must be ≥ 0, got %d", s.MinCount)
	}
	return nil
}

// AggPoint is one timestep of an occupancy profile.
type AggPoint = agg.OccPoint

// AggResult is the answer to an aggregate request, reported on
// Response.Agg.
type AggResult struct {
	// Kind echoes the request's aggregate kind.
	Kind AggKind
	// MinCount echoes the request's iceberg threshold (0 when unset).
	MinCount int
	// PMF[k] = P(count = k), for AggCount. Its length is always the
	// maximum possible count plus one (database size plus one for
	// boolean predicates), independent of the probability values.
	PMF []float64
	// Mean and Variance of the count distribution (AggCount).
	Mean, Variance float64
	// ModeCount is the most likely count (smallest on ties, AggCount).
	ModeCount int
	// Tail is P(count ≥ MinCount) when MinCount > 0 (AggCount).
	Tail float64
	// Profile is the per-timestep occupancy summary (AggOccupancy),
	// ordered by ascending timestamp.
	Profile []AggPoint
}

// CDF returns the running P(count ≤ k) of an AggCount result, computed
// from the PMF with compensated prefix sums.
func (a *AggResult) CDF() []float64 { return agg.CDF(a.PMF) }

// ErrAggregateStream is returned by EvaluateSeq for aggregate requests:
// the answer is one distribution, not a per-object stream. Use Evaluate.
var ErrAggregateStream = errors.New("core: aggregate requests answer as one distribution, not a result stream; use Evaluate")

// FactorSet is the per-object decomposition of an aggregate: every
// object's generating factor (AggCount) or per-timestep probability row
// (AggOccupancy, Coeffs parallel to Times), in the engine's emission
// order. The shard router pools FactorSets from its members and re-runs
// the same canonical aggregation the single engine runs, which is what
// makes sharded aggregate responses byte-identical to the engine's.
type FactorSet struct {
	Factors []agg.Factor
	// Times is the resolved profile window (AggOccupancy only).
	Times []int
	// Strategy, Plans, Cache and Filter mirror the Response metadata of
	// the evaluation that produced the factors.
	Strategy Strategy
	Plans    []CostEstimate
	Cache    CacheReport
	Filter   FilterReport
}

// AggregateFactors computes the factor decomposition of an aggregate
// request without folding it into a distribution — the building block
// the shard router merges across members. The request must carry an
// aggregate spec (WithAggregate).
func (e *Engine) AggregateFactors(ctx context.Context, req Request) (*FactorSet, error) {
	spec, ok := req.AggregateHint()
	if !ok {
		return nil, fmt.Errorf("core: AggregateFactors needs an aggregate request (use WithAggregate)")
	}
	plan, err := e.prepare(req)
	if err != nil {
		return nil, err
	}
	fs, err := e.factorSet(ctx, plan, spec)
	if err != nil {
		return nil, err
	}
	fs.Strategy, fs.Plans = plan.strategy, plan.plans
	fs.Cache, fs.Filter = plan.cacheRep.report(), plan.filterRep
	return fs, nil
}

// aggregate answers a prepared aggregate plan: factors, then the
// canonical fold.
func (e *Engine) aggregate(ctx context.Context, plan *evalPlan, spec AggSpec) (*AggResult, error) {
	fs, err := e.factorSet(ctx, plan, spec)
	if err != nil {
		return nil, err
	}
	return FoldFactors(spec, fs)
}

// FoldFactors runs the canonical aggregation over a factor set. It is
// the single fold both the engine and the shard router call — the
// factors are sorted by object id inside, so any partition of the
// database that contributes the same per-object factors produces the
// same distribution, bit for bit.
func FoldFactors(spec AggSpec, fs *FactorSet) (*AggResult, error) {
	out := &AggResult{Kind: spec.Kind, MinCount: spec.MinCount}
	if spec.Kind == AggOccupancy {
		profile, err := agg.Occupancy(fs.Factors, fs.Times, spec.MinCount)
		if err != nil {
			return nil, err
		}
		out.Profile = profile
		return out, nil
	}
	cr, err := agg.Count(fs.Factors, spec.MinCount)
	if err != nil {
		return nil, err
	}
	out.PMF, out.Mean, out.Variance = cr.PMF, cr.Mean, cr.Variance
	out.ModeCount, out.Tail = cr.Mode, cr.Tail
	return out, nil
}

// factorSet dispatches factor computation by aggregate kind.
func (e *Engine) factorSet(ctx context.Context, plan *evalPlan, spec AggSpec) (*FactorSet, error) {
	if spec.Kind == AggOccupancy {
		if plan.strategy == StrategyMonteCarlo {
			return nil, fmt.Errorf("core: occupancy profiles have no Monte-Carlo strategy")
		}
		return e.occupancyRows(ctx, plan)
	}
	factors, err := e.countFactors(ctx, plan)
	if err != nil {
		return nil, err
	}
	return &FactorSet{Factors: factors}, nil
}

// countFactors computes every object's generating factor in the
// engine's emission order from the same per-object stream the
// per-object request runs, so strategy semantics (including the
// Monte-Carlo rng discipline) are exactly those of that request. A
// count request carries no threshold, so plan.bar stays −1: scan's
// filter gate prunes nothing and answers from its certificate alone
// (see the file comment).
func (e *Engine) countFactors(ctx context.Context, plan *evalPlan) ([]agg.Factor, error) {
	factors := make([]agg.Factor, 0, e.db.Len())
	for r, err := range e.stream(ctx, plan) {
		if err != nil {
			return nil, err
		}
		if plan.req.Predicate == PredicateKTimes {
			factors = append(factors, agg.Factor{ID: r.ObjectID, Coeffs: r.Dist})
			continue
		}
		factors = append(factors, agg.Bernoulli(r.ObjectID, r.Prob))
	}
	return factors, nil
}

// occupancyRows computes, per object, the probability of being inside
// the spatial predicate at EACH timestamp of the window: one
// singleton-window backward sweep per (chain, timestamp, observation
// time) — shared across all objects through the score cache, the same
// kindExists entries a direct exists-request over that instant would
// use — then one dot product per object per timestamp.
func (e *Engine) occupancyRows(ctx context.Context, plan *evalPlan) (*FactorSet, error) {
	times := plan.query.Times
	exact := exactPassFor(ctx, plan).exact
	rows := make([]agg.Factor, 0, e.db.Len())
	for _, grp := range e.db.groupByChain() {
		kerns := make([]*kern, len(times))
		for ti, t := range times {
			w, err := compile(NewQuery(plan.query.States, []int{t}), grp.chain.NumStates())
			if err != nil {
				return nil, err
			}
			kerns[ti] = e.kernel(grp.chain, w, plan)
		}
		for _, o := range grp.objects {
			coeffs := make([]float64, len(times))
			for ti := range times {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				r, err := exact(kerns[ti], ctx, o)
				if err != nil {
					return nil, err
				}
				coeffs[ti] = r.Prob
			}
			rows = append(rows, agg.Factor{ID: o.ID, Coeffs: coeffs})
		}
	}
	return &FactorSet{Factors: rows, Times: times}, nil
}
