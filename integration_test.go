package ust_test

// End-to-end integration: generate a workload, persist it, reload it,
// and answer every query type through the public API — the full
// lifecycle a downstream user runs.

import (
	"bytes"
	"context"
	"math"
	"testing"

	"ust"
	"ust/internal/store"
)

func TestEndToEndLifecycle(t *testing.T) {
	// 1. Generate a synthetic Table I dataset.
	p := ust.DefaultSyntheticParams(99)
	p.NumObjects, p.NumStates = 50, 3000
	db, err := ust.GenerateSyntheticDatabase(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}

	// 2. Persist and reload.
	var buf bytes.Buffer
	if err := store.SaveDatabase(&buf, db); err != nil {
		t.Fatalf("save: %v", err)
	}
	reloaded, err := store.LoadDatabase(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	// 3. Answer all three predicates on the reloaded data with both
	// exact strategies; they must agree with the pre-persistence engine.
	q := ust.NewQuery(ust.Interval(100, 140), ust.Interval(12, 17))
	fresh := ust.NewEngine(db, ust.Options{})
	loaded := ust.NewEngine(reloaded, ust.Options{})

	wantExists := ask(t, fresh, ust.PredicateExists, q)
	for _, strategy := range []ust.Strategy{ust.StrategyQueryBased, ust.StrategyObjectBased} {
		got := ask(t, loaded, ust.PredicateExists, q, ust.WithStrategy(strategy))
		for i := range wantExists {
			if math.Abs(got[i].Prob-wantExists[i].Prob) > 1e-9 {
				t.Fatalf("%v: object %d drifted across persistence: %g vs %g",
					strategy, got[i].ObjectID, got[i].Prob, wantExists[i].Prob)
			}
		}
	}

	// 4. Aggregates and rankings line up.
	ctx := context.Background()
	count, err := loaded.Evaluate(ctx, ust.NewAggRequest(ust.PredicateExists,
		ust.AggSpec{Kind: ust.AggCount}, ust.WithWindow(q)))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range wantExists {
		sum += r.Prob
	}
	if math.Abs(count.Agg.Mean-sum) > 1e-9 {
		t.Errorf("expected count %g != Σ P %g", count.Agg.Mean, sum)
	}
	top := ask(t, loaded, ust.PredicateExists, q, ust.WithTopK(5))
	for i := 1; i < len(top); i++ {
		if top[i].Prob > top[i-1].Prob {
			t.Error("TopK not sorted")
		}
	}

	// 5. A standing query over the reloaded database refreshes
	// incrementally as a new sighting arrives.
	svc := ust.NewService(ust.ServiceConfig{})
	defer svc.Close()
	if err := svc.Create("fleet", reloaded, nil); err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Subscribe(ctx, "fleet", ust.NewRequest(ust.PredicateExists, ust.WithWindow(q)))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	before := <-sub.Updates()
	if !before.Full || len(before.Results) != reloaded.Len() {
		t.Fatalf("snapshot covers %d of %d objects (full=%v)", len(before.Results), reloaded.Len(), before.Full)
	}
	// Watch the likeliest visitor: a sighting moves its probability, and
	// only a changed result produces a refresh.
	best := before.Results[0]
	for _, r := range before.Results {
		if r.Prob > best.Prob {
			best = r
		}
	}
	target := best.ObjectID
	// Observe the object where its own forecast says it most likely is,
	// so the new sighting is guaranteed consistent with the model.
	marginal, err := loaded.Marginal(reloaded.Get(target), 20)
	if err != nil {
		t.Fatal(err)
	}
	likely, _ := marginal.Mode()
	obs := ust.PointDistribution(p.NumStates, likely)
	if err := svc.Observe("fleet", target, ust.Observation{Time: 20, PDF: obs}); err != nil {
		t.Fatalf("observe: %v", err)
	}
	after := <-sub.Updates()
	if after.Full || len(after.Results) != 1 || after.Results[0].ObjectID != target {
		t.Fatalf("refresh should carry the observed object alone: %+v", after)
	}
	// The updated object must now match a fresh multi-observation
	// evaluation.
	for _, r := range ask(t, loaded, ust.PredicateExists, q, ust.WithStrategy(ust.StrategyObjectBased)) {
		if r.ObjectID == target && math.Abs(after.Results[0].Prob-r.Prob) > 1e-9 {
			t.Errorf("standing query stale for object %d: %g vs %g", target, after.Results[0].Prob, r.Prob)
		}
	}

	// 6. The mutated database, its new sighting included, round-trips
	// through the store; the JSON interchange form still loads.
	var saved bytes.Buffer
	if err := store.SaveDatabase(&saved, reloaded); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := store.LoadDatabaseMapped(saved.Bytes())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if back.Len() != reloaded.Len() || len(back.Get(target).Observations) != len(reloaded.Get(target).Observations) {
		t.Errorf("store round trip lost objects or sightings: %d vs %d objects", back.Len(), reloaded.Len())
	}
	fromJSON, err := store.ImportJSON(bytes.NewReader(storeFixture(t, "db.json")))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	var again bytes.Buffer
	if err := store.SaveDatabase(&again, fromJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), storeFixture(t, "v2.ustd")) {
		t.Error("the JSON fixture does not load to the database of v2.ustd")
	}
}

func TestEndToEndHeterogeneousFleet(t *testing.T) {
	// Mixed chains + cluster pruning through the public facade.
	base, err := ust.ChainFromDense([][]float64{
		{0.4, 0.6, 0, 0},
		{0.3, 0.3, 0.4, 0},
		{0, 0.5, 0.2, 0.3},
		{0, 0, 0.7, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := ust.NewDatabase(base)
	var labels []int
	for id := 0; id < 12; id++ {
		o, err := ust.NewObject(id, nil, ust.Observation{Time: 0, PDF: ust.PointDistribution(4, id%4)})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(o); err != nil {
			t.Fatal(err)
		}
		labels = append(labels, 0)
	}
	engine := ust.NewEngine(db, ust.Options{})
	q := ust.NewQuery([]int{3}, ust.Interval(1, 3))
	idx, err := engine.BuildClusterIndex(labels)
	if err != nil {
		t.Fatal(err)
	}
	pruned, decided, err := engine.ExistsThresholdClustered(q, 0.4, idx)
	if err != nil {
		t.Fatal(err)
	}
	if decided != 12 {
		t.Errorf("identical chains should decide all 12 by bounds, got %d", decided)
	}
	exact := ask(t, engine, ust.PredicateExists, q, ust.WithThreshold(0.4))
	if len(pruned) != len(exact) {
		t.Errorf("pruned found %d, exact %d", len(pruned), len(exact))
	}
}
