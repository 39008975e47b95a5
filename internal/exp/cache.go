package exp

import (
	"context"
	"time"

	"ust/internal/core"
	"ust/internal/gen"
)

// Kernel-layer experiment: the engine-wide score cache and the
// filter–refine stage, measured on the Table I synthetic workload. The
// paper evaluates single-shot queries; production traffic repeats them
// (dashboards, standing monitors, polling clients), which is exactly
// what the shared sweep kernel accelerates.

func init() {
	register(Experiment{
		ID:          "ext-kernel",
		Description: "Extension: score-cache and filter–refine speedups on repeated/ranked queries",
		Run:         runExtKernel,
	})
}

func extKernelSizes(s Scale) (numObjects []int, numStates, repeats int) {
	switch s {
	case ScaleTiny:
		return []int{50, 100}, 800, 3
	case ScalePaper:
		return []int{1000, 5000, 10000}, 100000, 10
	default:
		return []int{250, 500, 1000}, 10000, 5
	}
}

// runExtKernel sweeps |D| and measures, per database size: a repeated
// PST∃Q with and without the score cache, and top-k retrieval with and
// without filter–refine pruning (plus the fraction of objects that
// needed exact refinement), and one object-based scan with and without
// reach-cone clipping.
func runExtKernel(ctx context.Context, cfg Config) (*Report, error) {
	start := time.Now()
	sizes, numStates, repeats := extKernelSizes(cfg.Scale)
	rep := &Report{
		ID:     "ext-kernel",
		Title:  "score cache and filter–refine on repeated/ranked queries",
		XLabel: "|D|",
		Series: []string{"uncached(s)", "cached(s)", "topk(s)", "topk-pruned(s)", "refined(%)", "ob(s)", "ob-clipped(s)"},
		Notes: []string{
			"uncached/cached: identical PST∃Q evaluated `repeats` times per engine",
			"topk: k=20 ranked retrieval, filter–refine off vs on (byte-identical results)",
			"ob/ob-clipped: one object-based PST∃Q scan, the paper's full forward passes vs passes clipped to the reach cone",
		},
	}
	w := gen.DefaultWindow()
	for _, numObjects := range sizes {
		p := gen.Defaults(cfg.Seed)
		p.NumObjects, p.NumStates = numObjects, numStates
		ds, err := gen.Generate(p)
		if err != nil {
			return nil, err
		}
		db := core.NewDatabase(ds.Chain)
		for i, o := range ds.Objects {
			if err := db.AddSimple(i, o); err != nil {
				return nil, err
			}
		}
		q := core.NewQuery(w.States(numStates), w.Times())
		base := core.NewRequest(core.PredicateExists, core.WithWindow(q))

		repeat := func(req core.Request) (float64, error) {
			e := core.NewEngine(db, core.Options{})
			return timeIt(func() error {
				for r := 0; r < repeats; r++ {
					if _, err := e.Evaluate(ctx, req); err != nil {
						return err
					}
				}
				return nil
			})
		}
		uncached, err := repeat(base.With(core.WithCache(false)))
		if err != nil {
			return nil, err
		}
		cached, err := repeat(base)
		if err != nil {
			return nil, err
		}

		topkReq := base.With(core.WithTopK(20))
		var refinedPct float64
		ranked := func(req core.Request) (float64, error) {
			e := core.NewEngine(db, core.Options{})
			return timeIt(func() error {
				resp, err := e.Evaluate(ctx, req)
				if err != nil {
					return err
				}
				if resp.Filter.Candidates > 0 {
					refinedPct = 100 * float64(resp.Filter.Refined) / float64(resp.Filter.Candidates)
				}
				return nil
			})
		}
		topk, err := ranked(topkReq.With(core.WithFilterRefine(false)))
		if err != nil {
			return nil, err
		}
		topkPruned, err := ranked(topkReq)
		if err != nil {
			return nil, err
		}

		scanOB := func(opts ...core.RequestOption) (float64, error) {
			e := core.NewEngine(db, core.Options{})
			return timeIt(func() error {
				_, err := e.Evaluate(ctx, base.With(append(opts, core.WithStrategy(core.StrategyObjectBased))...))
				return err
			})
		}
		ob, err := scanOB(core.WithFilterRefine(false))
		if err != nil {
			return nil, err
		}
		obClipped, err := scanOB()
		if err != nil {
			return nil, err
		}
		rep.AddRow(float64(numObjects), uncached, cached, topk, topkPruned, refinedPct, ob, obClipped)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
