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
	"ust/internal/markov"
	"ust/internal/spatial"
)

// oracleBits is the FNV-64a digest of every single-engine answer of the
// conformance tables (see answerDigest). Any change to the order in which
// a kernel visits a pdf's entries (a re-sorted support, the other side
// driving Dot) moves a last bit somewhere and this constant with it.
// Re-record it only for a change that is meant to alter answers, and say
// so.
//
// Last re-recorded when every object-based pass moved onto the lane
// block stepped by the kernel the backward sweeps use (querybased.go): a
// pass now sums its rows in ascending order, where the vector passes it
// replaced summed them in first-touch order. 871 of the 11 059 answer
// values the tables produce moved, all under the object-based strategy
// (exists, forall, ktimes, expressions and the count aggregate over
// them): probabilities and distributions by at most 5.6e-16, a count
// aggregate's variance of about 55 by 9.1e-13. No multi-observation
// answer moved. The re-recording before it replaced the %+v print of
// Response.Plans by each plan's fields hashed as words; no answer moved
// there (a digest that skips the plans reads 0x6fd6556fa6abca01 before
// and after).
const oracleBits uint64 = 0x65a6c076d53a6d30

// TestOracleBitsPinned pins the answers themselves, not just agreement
// between implementations: the single-observation table over the
// canonical dataset and over unorderedDataset, then the multi-observation
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
// Last re-recorded when the multi-observation pass came to be gated on
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
const oracleFunnel uint64 = 0xdcbf35aafab258d

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
// dataset and over unorderedDataset, then the multi-observation table,
// then the multi-observation table again after an ingest round.
func oracleDigest(t *testing.T, fold func(hash.Hash64, core.Request, *core.Response)) uint64 {
	t.Helper()
	h := fnv.New64a()

	db, res := NewDataset()
	digestCases(t, h, core.NewEngine(db, core.Options{}), Cases(res), fold)
	digestCases(t, h, core.NewEngine(unorderedDataset(), core.Options{}), Cases(res), fold)

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

// unorderedDataset is the canonical dataset's chain mix and ids with
// weighted pdfs whose states are listed out of order, so that summation
// order depends on whether a pdf keeps its insertion order: four states
// (a sparse pdf, visited in insertion order), twenty (past a quarter of
// the 64 states: visited ascending) and forty (past half: stored dense).
func unorderedDataset() *core.Database {
	grid := spatial.NewGrid(8, 8)
	walk, drift := gridChain(grid, false), gridChain(grid, true)
	db := core.NewDatabase(walk)
	for i := 0; i < 24; i++ {
		var chain *markov.Chain
		if i%3 == 1 {
			chain = drift
		}
		width := []int{4, 4, 20, 1, 40}[i%5]
		states := make([]int, width)
		weights := make([]float64, width)
		for k := range states {
			states[k] = (i*13 + k*37) % 64 // 37 is coprime to 64: distinct, unordered
			weights[k] = float64(1 + (i+k*k)%7)
		}
		pdf, err := markov.WeightedOver(64, states, weights)
		if err != nil {
			panic(err)
		}
		db.MustAdd(core.MustObject((i*37+5)%211, chain, core.Observation{Time: i % 4, PDF: pdf}))
	}
	return db
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
