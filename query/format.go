package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ust/internal/core"
)

// Format renders a request in the text query language, canonically:
// sorted deduped windows with contiguous runs collapsed, a union's
// members as one '+' sum, settings in a fixed order. Format(Parse(s)) is
// a fixed point. It fails on requests the language cannot express: a
// region type outside the library's algebra, a non-finite number, or a
// negative id or count.
func Format(req core.Request) (string, error) {
	var b strings.Builder
	b.Grow(64)
	spec, isAgg := req.AggregateHint()
	if isAgg {
		switch spec.Kind {
		case core.AggCount:
			b.WriteString("count(")
		case core.AggOccupancy:
			b.WriteString("occupancy(")
		default:
			return "", fmt.Errorf("query: aggregate kind %v has no text form", spec.Kind)
		}
	}
	var err error
	switch req.Predicate {
	case core.PredicateExpr:
		x, ok := req.ExprHint()
		if !ok {
			return "", fmt.Errorf("query: expression request without an expression")
		}
		err = x.WriteText(&b)
	case core.PredicateExists, core.PredicateForAll, core.PredicateKTimes, core.PredicateEventually:
		withTimes := req.Predicate != core.PredicateEventually || len(req.Times) > 0
		err = core.WritePredicateText(&b, req.Predicate.String(), req.States, req.Region, req.Times, withTimes)
	default:
		return "", fmt.Errorf("query: unknown predicate %v", req.Predicate)
	}
	if err != nil {
		return "", err
	}
	if isAgg {
		b.WriteByte(')')
	}
	if err := writeSettings(&b, req); err != nil {
		return "", err
	}
	return b.String(), nil
}

// writeSettings writes the where-clause in canonical key order, only for
// non-default hints. A negative count has no text form (the engine
// rejects it too).
func writeSettings(b *strings.Builder, req core.Request) error {
	var err error
	n := 0
	key := func(k string) {
		if n == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteByte(' ')
		}
		n++
		b.WriteString(k)
		b.WriteByte('=')
	}
	var num [32]byte
	writeInt := func(k string, v int64) {
		key(k)
		b.Write(strconv.AppendInt(num[:0], v, 10))
	}
	writeCount := func(k string, v int) {
		if v < 0 && err == nil {
			err = fmt.Errorf("query: %s=%d has no text form", k, v)
		}
		writeInt(k, int64(v))
	}
	writeFloat := func(k string, v float64) {
		if (math.IsNaN(v) || math.IsInf(v, 0)) && err == nil {
			err = fmt.Errorf("query: %s=%g has no text form", k, v)
		}
		key(k)
		b.Write(strconv.AppendFloat(num[:0], v, 'g', -1, 64))
	}
	if spec, ok := req.AggregateHint(); ok && spec.MinCount != 0 {
		writeCount("min", spec.MinCount)
	}
	if tau, ok := req.ThresholdHint(); ok {
		writeFloat("tau", tau)
	}
	if k := req.TopKHint(); k != 0 {
		writeCount("top", k)
	}
	if req.AutoPlanHint() {
		key("strategy")
		b.WriteString("auto")
	} else if s, ok := req.StrategyHint(); ok {
		key("strategy")
		switch s {
		case core.StrategyObjectBased:
			b.WriteString("ob")
		case core.StrategyMonteCarlo:
			b.WriteString("mc")
		default:
			b.WriteString("qb")
		}
	}
	if w := req.ParallelismHint(); w != 0 {
		writeInt("workers", int64(max(w, 0))) // "all cores" (-1) round-trips as workers=0
	}
	if samples, seed, ok := req.MonteCarloHint(); ok {
		if samples != 0 {
			writeCount("samples", samples)
		}
		writeInt("seed", seed)
	}
	if enabled, ok := req.CacheHint(); ok {
		key("cache")
		b.WriteString(onOff(enabled))
	}
	if enabled, ok := req.FilterRefineHint(); ok {
		key("filter")
		b.WriteString(onOff(enabled))
	}
	steps, tol := req.HittingHint() // steps ≤ 0 and tol 0 mean "the default"
	if steps > 0 {
		writeInt("steps", int64(steps))
	}
	if tol != 0 {
		writeFloat("tol", tol)
	}
	return err
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}
