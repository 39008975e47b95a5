package wire

import (
	"fmt"
	"math"

	"ust/internal/agg"
	"ust/internal/core"
)

// Factor wire shapes: the distributed aggregate protocol. A coordinator
// answering count(...) or occupancy over a sharded fleet must NOT pool
// per-shard PMFs — the divide-and-conquer product tree is only
// byte-identical when folded over the full factor list in canonical
// (object-id) order. So workers ship raw Bernoulli factors and the
// coordinator folds; this file pins their JSON shape with the same
// strictness as the query codec (unknown fields rejected, float64 bits
// preserved by shortest-round-trip encoding, hostile lengths bounded).

// Factor is the JSON shape of an agg.Factor: one object's contribution
// to an aggregate — its id and the Bernoulli/profile coefficients.
type Factor struct {
	ID     int       `json:"id"`
	Coeffs []float64 `json:"coeffs"`
}

// FactorSet is the JSON shape of a core.FactorSet.
type FactorSet struct {
	Factors  []Factor       `json:"factors"`
	Times    []int          `json:"times,omitempty"`
	Strategy string         `json:"strategy"`
	Plans    []CostEstimate `json:"plans,omitempty"`
	Cache    CacheReport    `json:"cache,omitzero"`
	Filter   FilterReport   `json:"filter,omitzero"`
}

// FromFactorSet converts a core.FactorSet into its wire shape.
func FromFactorSet(fs *core.FactorSet) (FactorSet, error) {
	strat, err := strategyName(fs.Strategy)
	if err != nil {
		return FactorSet{}, err
	}
	w := FactorSet{
		Factors:  make([]Factor, 0, len(fs.Factors)),
		Times:    fs.Times,
		Strategy: strat,
		Cache:    CacheReport(fs.Cache),
		Filter:   FilterReport(fs.Filter),
	}
	for _, f := range fs.Factors {
		w.Factors = append(w.Factors, Factor{ID: f.ID, Coeffs: f.Coeffs})
	}
	for _, p := range fs.Plans {
		ps, perr := strategyName(p.Strategy)
		if perr != nil {
			return FactorSet{}, perr
		}
		w.Plans = append(w.Plans, CostEstimate{Strategy: ps, Sweeps: p.Sweeps, Ops: p.Ops, FilterOps: p.FilterOps})
	}
	return w, nil
}

// ToFactorSet converts a wire FactorSet back into a core.FactorSet,
// validating lengths and coefficient finiteness.
func (w FactorSet) ToFactorSet() (*core.FactorSet, error) {
	strat, err := parseStrategy(w.Strategy)
	if err != nil {
		return nil, err
	}
	if len(w.Factors) > maxWireInts || len(w.Times) > maxWireInts {
		return nil, fmt.Errorf("%w: factor set too large", ErrDecode)
	}
	fs := &core.FactorSet{
		Times:    w.Times,
		Strategy: strat,
		Cache:    core.CacheReport(w.Cache),
		Filter:   core.FilterReport(w.Filter),
	}
	for _, f := range w.Factors {
		if len(f.Coeffs) > maxWireInts {
			return nil, fmt.Errorf("%w: factor %d oversized", ErrDecode, f.ID)
		}
		for _, c := range f.Coeffs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("%w: factor %d has non-finite coefficient", ErrDecode, f.ID)
			}
		}
		fs.Factors = append(fs.Factors, agg.Factor{ID: f.ID, Coeffs: f.Coeffs})
	}
	for _, p := range w.Plans {
		ps, perr := parseStrategy(p.Strategy)
		if perr != nil {
			return nil, perr
		}
		fs.Plans = append(fs.Plans, core.CostEstimate{Strategy: ps, Sweeps: p.Sweeps, Ops: p.Ops, FilterOps: p.FilterOps})
	}
	return fs, nil
}

// --- sweep lease protocol -------------------------------------------------

// SweepKey names one backward sweep in process-independent terms. The
// core type already carries wire-stable JSON tags, so the wire shape is
// an alias — the two layers cannot drift.
type SweepKey = core.SweepKey

// SweepAcquire is the body of POST /v1/sweeps/acquire.
type SweepAcquire struct {
	Key SweepKey `json:"key"`
}

// SweepGrant is the acquire response. Exactly one of Payload and Lease
// is meaningful: a payload means a peer already computed the sweep
// (adopt it); a lease token means the caller holds the fleet-wide
// computation right and must Fill or Release it.
type SweepGrant struct {
	Payload []byte `json:"payload,omitempty"`
	Lease   string `json:"lease,omitempty"`
}

// SweepFill is the body of POST /v1/sweeps/fill: the computed payload
// published under a held lease.
type SweepFill struct {
	Key     SweepKey `json:"key"`
	Lease   string   `json:"lease"`
	Payload []byte   `json:"payload"`
}

// SweepRelease is the body of POST /v1/sweeps/release: the caller
// abandons a held lease without filling it so a waiter can take over.
type SweepRelease struct {
	Key   SweepKey `json:"key"`
	Lease string   `json:"lease"`
}

// --- migration protocol ---------------------------------------------------

// Evict is the body of POST /v1/datasets/{name}/evict: remove the given
// object ids under the router's migration generation fence.
type Evict struct {
	Gen uint64 `json:"gen"`
	IDs []int  `json:"ids"`
}
