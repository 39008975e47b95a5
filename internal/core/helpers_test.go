package core

import (
	"context"
	"fmt"
	"testing"

	"ust/internal/markov"
)

// Every test asks its questions the way callers do: one Request through
// Engine.Evaluate. ob and qb pin the strategy where a test compares the
// two exact plans.
var (
	ob = WithStrategy(StrategyObjectBased)
	qb = WithStrategy(StrategyQueryBased)
)

// ask answers pred over window q for the whole database.
func ask(e *Engine, pred Predicate, q Query, opts ...RequestOption) ([]Result, error) {
	resp, err := e.Evaluate(context.Background(),
		NewRequest(pred, append([]RequestOption{WithWindow(q)}, opts...)...))
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// askOne is ask narrowed to the object with the given id.
func askOne(e *Engine, id int, pred Predicate, q Query, opts ...RequestOption) (Result, error) {
	results, err := ask(e, pred, q, opts...)
	if err != nil {
		return Result{}, err
	}
	for _, r := range results {
		if r.ObjectID == id {
			return r, nil
		}
	}
	return Result{}, fmt.Errorf("object %d not among %d results", id, len(results))
}

// obProb answers one object by the object-based strategy (the forward
// pass of Section V-A); obDist is the same for the PSTkQ distribution.
func obProb(e *Engine, o *Object, pred Predicate, q Query) (float64, error) {
	r, err := askOne(e, o.ID, pred, q, ob)
	return r.Prob, err
}

func obDist(e *Engine, o *Object, q Query) ([]float64, error) {
	r, err := askOne(e, o.ID, PredicateKTimes, q, ob)
	return r.Dist, err
}

// mustAsk is ask that fails the test on error.
func mustAsk(t testing.TB, e *Engine, pred Predicate, q Query, opts ...RequestOption) []Result {
	t.Helper()
	results, err := ask(e, pred, q, opts...)
	if err != nil {
		t.Fatalf("%v %v: %v", pred, q, err)
	}
	return results
}

// probs is mustAsk keyed by object id.
func probs(t testing.TB, e *Engine, pred Predicate, q Query, opts ...RequestOption) map[int]float64 {
	t.Helper()
	out := map[int]float64{}
	for _, r := range mustAsk(t, e, pred, q, opts...) {
		out[r.ObjectID] = r.Prob
	}
	return out
}

// existsMultiObs computes P∃ for an observation list (sorted by time)
// with the lane-block pass the kern layer runs, unpooled.
func existsMultiObs(ctx context.Context, chain *markov.Chain, obs []Observation, w *window) (float64, error) {
	return existsMultiObsBlock(ctx, chain, obs, w, nil, nil)
}
