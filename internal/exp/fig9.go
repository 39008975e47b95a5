package exp

import (
	"context"
	"time"

	"ust/internal/core"
	"ust/internal/gen"
	"ust/internal/network"
)

// Figure 9: PST∃Q runtime as a function of the query start time, on
// synthetic data (a), the Munich network (b) and the North America
// network (c); plus the accuracy comparison against the temporal-
// independence model (d).

func init() {
	register(Experiment{
		ID:          "fig9a",
		Description: "Fig 9(a): PST∃Q runtime vs query start time (synthetic)",
		Run:         runFig9a,
	})
	register(Experiment{
		ID:          "fig9b",
		Description: "Fig 9(b): PST∃Q runtime vs query start time (Munich-like network)",
		Run: func(ctx context.Context, cfg Config) (*Report, error) {
			return runFig9Network(ctx, cfg, "fig9b", "Munich", network.MunichSpec(cfg.Seed))
		},
	})
	register(Experiment{
		ID:          "fig9c",
		Description: "Fig 9(c): PST∃Q runtime vs query start time (North-America-like network)",
		Run: func(ctx context.Context, cfg Config) (*Report, error) {
			return runFig9Network(ctx, cfg, "fig9c", "North America", network.NorthAmericaSpec(cfg.Seed))
		},
	})
	register(Experiment{
		ID:          "fig9d",
		Description: "Fig 9(d): accuracy — Markov model vs temporal-independence model",
		Run:         runFig9d,
	})
}

func fig9StartTimes(s Scale) []int {
	switch s {
	case ScaleTiny:
		return []int{5, 10}
	default:
		return []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
}

func runFig9a(ctx context.Context, cfg Config) (*Report, error) {
	start := time.Now()
	p := gen.Defaults(cfg.Seed)
	switch cfg.Scale {
	case ScaleTiny:
		p.NumObjects, p.NumStates = 20, 2000
	case ScalePaper:
		// paper defaults: 10,000 objects over 100,000 states
	default:
		p.NumObjects, p.NumStates = 500, 20000
	}
	db, err := buildSyntheticDB(p)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "fig9a",
		Title:  "PST∃Q runtime vs query start time (synthetic)",
		XLabel: "query starttime",
		Series: []string{"OB(s)", "QB(s)"},
	}
	w := gen.DefaultWindow()
	for _, h := range fig9StartTimes(cfg.Scale) {
		q := core.NewQuery(w.States(p.NumStates), core.Interval(h, h+5))
		tOB, tQB, err := timeExistsOBQB(ctx, db, q)
		if err != nil {
			return nil, err
		}
		rep.AddRow(float64(h), tOB, tQB)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: OB grows much faster with the start time than QB (vectors densify)",
	)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func runFig9Network(ctx context.Context, cfg Config, id, name string, spec network.RoadNetworkSpec) (*Report, error) {
	start := time.Now()
	numObjects := 500
	switch cfg.Scale {
	case ScaleTiny:
		spec = spec.Scaled(400)
		numObjects = 20
	case ScalePaper:
		numObjects = 10000
	default:
		spec = spec.Scaled(10)
	}
	db, g, err := buildNetworkDB(spec, numObjects, 3)
	if err != nil {
		return nil, err
	}
	region := networkWindow(g, 21, cfg.Seed)
	rep := &Report{
		ID:     id,
		Title:  "PST∃Q runtime vs query start time (" + name + " road network)",
		XLabel: "query starttime",
		Series: []string{"OB(s)", "QB(s)"},
	}
	for _, h := range fig9StartTimes(cfg.Scale) {
		q := core.NewQuery(region, core.Interval(h, h+5))
		tOB, tQB, err := timeExistsOBQB(ctx, db, q)
		if err != nil {
			return nil, err
		}
		rep.AddRow(float64(h), tOB, tQB)
	}
	rep.Notes = append(rep.Notes,
		"network is a synthetic stand-in matched on |V|, |E| and locality (see DESIGN.md)",
	)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

func runFig9d(ctx context.Context, cfg Config) (*Report, error) {
	start := time.Now()
	p := gen.Defaults(cfg.Seed)
	switch cfg.Scale {
	case ScaleTiny:
		p.NumObjects, p.NumStates = 50, 2000
	case ScalePaper:
		p.NumObjects, p.NumStates = 10000, 100000
	default:
		p.NumObjects, p.NumStates = 1000, 10000
	}
	db, err := buildSyntheticDB(p)
	if err != nil {
		return nil, err
	}
	e := core.NewEngine(db, core.Options{})
	rep := &Report{
		ID:     "fig9d",
		Title:  "average P∃ with vs without temporal correlation",
		XLabel: "query window timeslots",
		Series: []string{"with correlation", "without correlation"},
	}
	w := gen.DefaultWindow()
	region := w.States(p.NumStates)
	// The independence model (Section II, Figure 1b) treats the object's
	// location at each timestamp as an independent random variable:
	// P∃_indep = 1 − Π_{t ∈ T□} (1 − P(o(t) ∈ S□)), where P(o(t) ∈ S□) is
	// the single-timestamp P∃(o, S□, {t}). missAll carries the product
	// per object; each window extends the previous one by one timestamp,
	// so every marginal is evaluated once.
	missAll := map[int]float64{}
	for _, o := range db.Objects() {
		missAll[o.ID] = 1
	}
	for winLen := 1; winLen <= 10; winLen++ {
		last := w.TimeLo + winLen - 1
		at, err := e.Evaluate(ctx, core.NewRequest(core.PredicateExists,
			core.WithStates(region), core.WithTimes([]int{last})))
		if err != nil {
			return nil, err
		}
		for _, r := range at.Results {
			missAll[r.ObjectID] *= 1 - r.Prob
		}
		exact, err := e.Evaluate(ctx, core.NewRequest(core.PredicateExists,
			core.WithStates(region), core.WithTimeRange(w.TimeLo, last),
			core.WithStrategy(core.StrategyObjectBased)))
		if err != nil {
			return nil, err
		}
		var sumExact, sumIndep float64
		var nonZero int
		for _, r := range exact.Results {
			indep := 1 - missAll[r.ObjectID]
			if r.Prob > 0 || indep > 0 {
				nonZero++
				sumExact += r.Prob
				sumIndep += indep
			}
		}
		if nonZero == 0 {
			rep.AddRow(float64(winLen), 0, 0)
			continue
		}
		rep.AddRow(float64(winLen), sumExact/float64(nonZero), sumIndep/float64(nonZero))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: the independence model overestimates and the bias grows with the window",
	)
	rep.Elapsed = time.Since(start)
	return rep, nil
}
