package exp

import (
	"context"
	"time"

	"ust/internal/core"
	"ust/internal/gen"
)

// Figure 8: PST∃Q runtime as a function of the state-space size.
// (a) small database including the Monte-Carlo baseline;
// (b) large database, OB vs QB only (the paper drops MC as hopeless).

func init() {
	register(Experiment{
		ID:          "fig8a",
		Description: "Fig 8(a): PST∃Q runtime vs |S|, small DB (MC vs OB vs QB)",
		Run:         runFig8a,
	})
	register(Experiment{
		ID:          "fig8b",
		Description: "Fig 8(b): PST∃Q runtime vs |S|, large DB (OB vs QB)",
		Run:         runFig8b,
	})
}

func fig8aSizes(s Scale) (numObjects int, states []int, mcPaper, mcAccurate int) {
	switch s {
	case ScaleTiny:
		return 20, []int{2000, 6000}, 20, 200
	case ScalePaper:
		return 1000, []int{2000, 6000, 10000, 14000, 18000}, 100, 10000
	default:
		return 200, []int{2000, 6000, 10000, 14000, 18000}, 100, 10000
	}
}

func runFig8a(ctx context.Context, cfg Config) (*Report, error) {
	start := time.Now()
	numObjects, states, mcPaper, mcAccurate := fig8aSizes(cfg.Scale)
	rep := &Report{
		ID:     "fig8a",
		Title:  "PST∃Q runtime vs state-space size (small database)",
		XLabel: "states",
		Series: []string{"MC-n100(s)", "MC-acc(s)", "OB(s)", "QB(s)"},
	}
	timeMC := func(db *core.Database, q core.Query, n int) (float64, error) {
		return timeIt(func() error {
			e := core.NewEngine(db, core.Options{})
			_, err := e.Evaluate(ctx, core.NewRequest(core.PredicateExists, core.WithWindow(q),
				core.WithStrategy(core.StrategyMonteCarlo), core.WithMonteCarloBudget(n, cfg.Seed)))
			return err
		})
	}
	for _, nStates := range states {
		p := gen.Defaults(cfg.Seed)
		p.NumObjects = numObjects
		p.NumStates = nStates
		db, err := buildSyntheticDB(p)
		if err != nil {
			return nil, err
		}
		q := defaultWindowQuery(nStates)

		tMCPaper, err := timeMC(db, q, mcPaper)
		if err != nil {
			return nil, err
		}
		tMCAcc, err := timeMC(db, q, mcAccurate)
		if err != nil {
			return nil, err
		}
		tOB, tQB, err := timeExistsOBQB(ctx, db, q)
		if err != nil {
			return nil, err
		}
		rep.AddRow(float64(nStates), tMCPaper, tMCAcc, tOB, tQB)
	}
	rep.Notes = append(rep.Notes,
		"MC-n100 uses the paper's 100 samples/object (σ up to 5 points — barely usable answers)",
		"MC-acc uses enough samples for ~0.5-point accuracy; the paper's MC ≫ OB ≫ QB ordering holds there",
		"the paper's Matlab MC was interpreter-bound; compiled Go sampling narrows the n=100 gap (the drivers are in internal/exp; `ustbench -list` names them)",
	)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func fig8bSizes(s Scale) (numObjects int, states []int) {
	switch s {
	case ScaleTiny:
		return 50, []int{10000, 30000}
	case ScalePaper:
		return 100000, []int{10000, 30000, 50000, 70000, 90000}
	default:
		return 2000, []int{10000, 30000, 50000, 70000, 90000}
	}
}

func runFig8b(ctx context.Context, cfg Config) (*Report, error) {
	start := time.Now()
	numObjects, states := fig8bSizes(cfg.Scale)
	rep := &Report{
		ID:     "fig8b",
		Title:  "PST∃Q runtime vs state-space size (large database)",
		XLabel: "states",
		Series: []string{"OB(s)", "QB(s)"},
	}
	for _, nStates := range states {
		p := gen.Defaults(cfg.Seed)
		p.NumObjects = numObjects
		p.NumStates = nStates
		db, err := buildSyntheticDB(p)
		if err != nil {
			return nil, err
		}
		q := defaultWindowQuery(nStates)
		tOB, tQB, err := timeExistsOBQB(ctx, db, q)
		if err != nil {
			return nil, err
		}
		rep.AddRow(float64(nStates), tOB, tQB)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: QB below OB by 1-3 orders of magnitude; both grow slowly with |S|",
	)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// defaultWindowQuery is the paper's default window (states [100,120],
// times [20,25]) clamped to the state space.
func defaultWindowQuery(numStates int) core.Query {
	w := gen.DefaultWindow()
	return core.NewQuery(w.States(numStates), w.Times())
}

// paperPass makes a figure driver time the paper's algorithms: for the
// object-based strategy one full forward pass per object, without the
// reach-cone clipping the engine applies by default — which would make
// the OB/QB ratios incomparable with the paper's. It changes nothing
// under the query-based and Monte-Carlo strategies.
var paperPass = core.WithFilterRefine(false)

// timeExistsOBQB measures the wall time of the OB and QB strategies for
// PST∃Q over the whole database, via per-request strategy overrides.
func timeExistsOBQB(ctx context.Context, db *core.Database, q core.Query) (tOB, tQB float64, err error) {
	e := core.NewEngine(db, core.Options{})
	tOB, err = timeIt(func() error {
		_, err := e.Evaluate(ctx, core.NewRequest(core.PredicateExists,
			core.WithWindow(q), core.WithStrategy(core.StrategyObjectBased), paperPass))
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	tQB, err = timeIt(func() error {
		_, err := e.Evaluate(ctx, core.NewRequest(core.PredicateExists,
			core.WithWindow(q), core.WithStrategy(core.StrategyQueryBased)))
		return err
	})
	return tOB, tQB, err
}
