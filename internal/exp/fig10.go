package exp

import (
	"context"
	"time"

	"ust/internal/core"
	"ust/internal/gen"
)

// Figure 10: runtime of the three query predicates (∃, ∀, k-times) as a
// function of the query-window length, under the object-based (a) and
// query-based (b) strategies.

func init() {
	register(Experiment{
		ID:          "fig10a",
		Description: "Fig 10(a): predicate runtimes vs window length, object-based",
		Run: func(ctx context.Context, cfg Config) (*Report, error) {
			return runFig10(ctx, cfg, "fig10a", core.StrategyObjectBased)
		},
	})
	register(Experiment{
		ID:          "fig10b",
		Description: "Fig 10(b): predicate runtimes vs window length, query-based",
		Run: func(ctx context.Context, cfg Config) (*Report, error) {
			return runFig10(ctx, cfg, "fig10b", core.StrategyQueryBased)
		},
	})
}

func fig10WindowLengths(s Scale) []int {
	if s == ScaleTiny {
		return []int{1, 3}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
}

func runFig10(ctx context.Context, cfg Config, id string, strategy core.Strategy) (*Report, error) {
	start := time.Now()
	p := gen.Defaults(cfg.Seed)
	switch cfg.Scale {
	case ScaleTiny:
		p.NumObjects, p.NumStates = 20, 2000
	case ScalePaper:
		// paper defaults
	default:
		p.NumObjects, p.NumStates = 300, 20000
	}
	db, err := buildSyntheticDB(p)
	if err != nil {
		return nil, err
	}
	e := core.NewEngine(db, core.Options{Strategy: strategy})
	rep := &Report{
		ID:     id,
		Title:  "query predicate runtimes vs window length (" + strategy.String() + ")",
		XLabel: "query window timeslots",
		Series: []string{"kT(s)", "∃(s)", "∀(s)"},
	}
	w := gen.DefaultWindow()
	region := w.States(p.NumStates)
	for _, winLen := range fig10WindowLengths(cfg.Scale) {
		q := core.NewQuery(region, core.Interval(w.TimeLo, w.TimeLo+winLen-1))
		tK, err := timeIt(func() error {
			_, err := e.Evaluate(ctx, core.NewRequest(core.PredicateKTimes, core.WithWindow(q), paperPass))
			return err
		})
		if err != nil {
			return nil, err
		}
		tExists, err := timeIt(func() error {
			_, err := e.Evaluate(ctx, core.NewRequest(core.PredicateExists, core.WithWindow(q), paperPass))
			return err
		})
		if err != nil {
			return nil, err
		}
		tForAll, err := timeIt(func() error {
			_, err := e.Evaluate(ctx, core.NewRequest(core.PredicateForAll, core.WithWindow(q), paperPass))
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.AddRow(float64(winLen), tK, tExists, tForAll)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: k-times costs ≈ (|T□|+1)× the ∃ cost; ∃ and ∀ comparable",
	)
	rep.Elapsed = time.Since(start)
	return rep, nil
}
