package conformance

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"ust/internal/core"
)

// oracleBits is the FNV-64a digest of every single-engine answer of the
// conformance tables (see answerDigest). Any change to the order in which
// a kernel visits a pdf's entries (a re-sorted support, the other side
// driving Dot) moves a last bit somewhere and this constant with it.
// Re-record it only for a change that is meant to alter answers, and say
// so.
//
// Last re-recorded when the object-based PST∀Q pass became a survival
// pass over S□ (forallOBRefine) instead of 1 − P∃ over the complement:
// 203 of the 11 059 answer values moved, every one a single-observation
// forall answer under the object-based strategy (as written or forced),
// or a count aggregate over such answers. Probabilities moved by at most
// 7.2e-16, count pmf entries by 1.4e-16, a count mean by 1.3e-15 and a
// variance by 7.1e-15; no exists, ktimes, query-based or
// multi-observation answer moved. The re-recording before it came when
// every pdf came to be built ascending (one order
// for a sparse.Packed, whatever order its states were listed in): only
// NewUnorderedDataset's answers moved, 936 of its 4 279 values, which
// its out-of-order pdfs had summed in insertion order. Probabilities
// moved by at most 4.5e-16, a count aggregate's mean of about 29 by
// 1.5e-14 and its variance of about 55 by 3.5e-13; the Monte-Carlo cases
// draw other samples, as a sampler walks a pdf's states in its order. A
// digest over NewDataset's table alone reads 0x409d4ad3c02610f8, and one
// over the multi-observation table before the ingest round
// 0x977d2a45bc566c21, before and after. The re-recording before it came
// when every object-based pass moved onto the lane block stepped by the
// kernel the backward sweeps use (querybased.go): 871 of the 11 059
// answer values moved, all under the object-based strategy, by at most
// 5.6e-16 (a count variance by 9.1e-13); no multi-observation answer
// moved.
const oracleBits uint64 = 0xa52cac43290de7a6

// TestOracleBitsPinned pins the answers themselves, not just agreement
// between implementations: the single-observation table over the
// canonical dataset and over NewUnorderedDataset, then the multi-observation
// table, each case as written and — where an exact strategy can be
// forced — under both query-based and object-based evaluation, then the
// multi-observation table again after an ingest round.
func TestOracleBitsPinned(t *testing.T) {
	if got := oracleDigest(t, answerDigest); got != oracleBits {
		t.Fatalf("answer digest %#x, pinned %#x: some answer changed its bits", got, oracleBits)
	}
}

// oracleFunnel is the FNV-64a digest of every single-engine response's
// filter funnel and score-cache traffic over the same tables, engines and
// strategy variants as oracleBits (see funnelDigest). Both travel on the
// wire in Response.Filter and Response.Cache; a change that moves an
// object between pruned and refined, or adds or drops a sweep fetch,
// moves this constant. Re-record it only for a change that is meant to
// alter that work, and say so.
//
// Last re-recorded when the object-based PST∀Q pass became a survival
// pass: it no longer fetches the complement's reach cone, but the reach
// cone of S□ itself (the cone an exists query over the same window
// fetches) and the complement's possible envelope alone (kindPossible),
// whose empty intersection with the first fix is the exact-1
// certificate. Ten of the 380 responses moved, each an object-based
// forall scan, top-k or count aggregate: eight cache hits more each, the
// same misses; no filter count moved. The re-recording before it came
// when the multi-observation pass came to be gated on
// the window's possible envelope at the first fix (kern.multiObsExists):
// every multi-observation answer now fetches that envelope once per
// (window, observation time), and an object whose first fix misses it
// fetches its per-version check instead of its pass. No filter count
// and no answer moved. The re-recording before it came when the filter
// gate came to serve the object-based strategy alone: query-based
// responses report no funnel (filter on and off do the same work), and
// an object-based gate reads its possible-envelope off the reach cone
// its clipped pass fetches anyway, so it makes one fetch fewer per
// (window, observation time).
const oracleFunnel uint64 = 0x7ec936230fa839a5

// TestOracleFunnelPinned pins the work each answer took: per response,
// the filter's Candidates, Pruned and Refined and the cache's Hits and
// Misses, in the order TestOracleBitsPinned evaluates them.
func TestOracleFunnelPinned(t *testing.T) {
	if got := oracleDigest(t, funnelDigest); got != oracleFunnel {
		t.Fatalf("funnel digest %#x, pinned %#x: some response's filter or cache counts changed", got, oracleFunnel)
	}
}

// oracleDigest folds every response of the conformance tables into one
// digest with fold: the single-observation table over the canonical
// dataset and over NewUnorderedDataset, then the multi-observation table,
// then the multi-observation table again after an ingest round.
func oracleDigest(t *testing.T, fold func(hash.Hash64, core.Request, *core.Response)) uint64 {
	t.Helper()
	h := fnv.New64a()

	db, res := NewDataset()
	digestCases(t, h, core.NewEngine(db, core.Options{}), Cases(res), fold)
	digestCases(t, h, core.NewEngine(NewUnorderedDataset(), core.Options{}), Cases(res), fold)

	mdb, mres := NewMultiObsDataset()
	cases := MultiObsCases(mres)
	digestCases(t, h, core.NewEngine(mdb, core.Options{}), cases, fold)
	objs := mdb.Objects()
	for i := 0; i < len(objs); i += 7 {
		upd, err := objs[i].WithObservation(NextObservation(mdb, objs[i]))
		if err != nil {
			t.Fatal(err)
		}
		if err := mdb.ReplaceObject(upd); err != nil {
			t.Fatal(err)
		}
	}
	digestCases(t, h, core.NewEngine(mdb, core.Options{}), cases, fold)
	return h.Sum64()
}

// digestCases folds every case's response into h with fold: as written,
// then under each exact strategy unless the case asks for Monte-Carlo.
func digestCases(t *testing.T, h hash.Hash64, e *core.Engine, cases []Case, fold func(hash.Hash64, core.Request, *core.Response)) {
	t.Helper()
	for _, c := range cases {
		variants := []core.Request{c.Req}
		if s, ok := c.Req.StrategyHint(); !ok || s != core.StrategyMonteCarlo {
			variants = append(variants,
				c.Req.With(core.WithStrategy(core.StrategyQueryBased)),
				c.Req.With(core.WithStrategy(core.StrategyObjectBased)))
		}
		for i, req := range variants {
			fmt.Fprintf(h, "%s#%d;", c.Name, i)
			resp, err := e.Evaluate(context.Background(), req)
			if err != nil {
				fmt.Fprintf(h, "error %v;", err)
				continue
			}
			fold(h, req, resp)
		}
	}
}

// funnelDigest writes a response's filter funnel and cache traffic.
func funnelDigest(h hash.Hash64, _ core.Request, r *core.Response) {
	f, c := r.Filter, r.Cache
	fmt.Fprintf(h, "f%d/%d/%d;", f.Candidates, f.Pruned, f.Refined)
	fmt.Fprintf(h, "c%d/%d;", c.Hits, c.Misses)
}

// TestParallelFanOutFunnelStable evaluates the parallel object-based
// fan-out 40 times on fresh engines, over the single- and the
// multi-observation dataset: its workers share one kernel, and a key
// they miss together is fetched once while the others wait on the
// kernel, so the cache traffic is the same on every run.
func TestParallelFanOutFunnelStable(t *testing.T) {
	db, res := NewDataset()
	mdb, mres := NewMultiObsDataset()
	for _, tc := range []struct {
		db    *core.Database
		cases []Case
	}{{db, Cases(res)}, {mdb, MultiObsCases(mres)}} {
		var req core.Request
		for _, c := range tc.cases {
			if c.Name == "exists/ob-parallel" {
				req = c.Req
			}
		}
		if core.ResolveWorkers(req.ParallelismHint()) < 2 {
			t.Fatal("no parallel object-based case in the table")
		}
		digests := map[uint64]int{}
		for range 40 {
			resp, err := core.NewEngine(tc.db, core.Options{}).Evaluate(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			funnelDigest(h, req, resp)
			digests[h.Sum64()]++
		}
		if len(digests) != 1 {
			t.Fatalf("40 runs gave %d funnel digests: %v", len(digests), digests)
		}
	}
}

// answerDigest writes a response's answer bits: the strategy, every
// result's id, probability and distribution, the planner's estimates
// field by field and the aggregate.
func answerDigest(h hash.Hash64, _ core.Request, r *core.Response) {
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	floats := func(xs ...float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	word(uint64(r.Strategy))
	word(uint64(len(r.Results)))
	for _, res := range r.Results {
		word(uint64(res.ObjectID))
		floats(res.Prob)
		floats(res.Dist...)
	}
	word(uint64(len(r.Plans)))
	for _, p := range r.Plans {
		word(uint64(p.Strategy))
		word(uint64(p.Sweeps))
		floats(p.Ops)
	}
	if a := r.Agg; a != nil {
		word(uint64(a.Kind))
		word(uint64(a.MinCount))
		floats(a.PMF...)
		floats(a.Mean, a.Variance, a.Tail)
		word(uint64(a.ModeCount))
		fmt.Fprintf(h, "%+v;", a.Profile)
	}
}
