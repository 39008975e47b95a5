package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ust/internal/core"
	"ust/internal/markov"
)

// applyUpdate folds one update into the accumulated subscription state.
func applyUpdate(state map[int]core.Result, up Update) {
	if up.Full {
		for id := range state {
			delete(state, id)
		}
	}
	for _, r := range up.Results {
		state[r.ObjectID] = r
	}
	for _, id := range up.Removed {
		delete(state, id)
	}
}

// recvUpdate reads one update with a timeout.
func recvUpdate(t *testing.T, sub *Subscription) Update {
	t.Helper()
	select {
	case up, ok := <-sub.Updates():
		if !ok {
			t.Fatalf("updates channel closed early (err: %v)", sub.Err())
		}
		return up
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for an update")
	}
	panic("unreachable")
}

// assertState compares the accumulated subscription state against a
// fresh evaluation of the same request — the pinning invariant.
func assertState(t *testing.T, svc *Service, dataset string, req core.Request, state map[int]core.Result) {
	t.Helper()
	resp, err := svc.Evaluate(context.Background(), dataset, req)
	if err != nil {
		t.Fatal(err)
	}
	want := resultMap(resp.Results)
	if !reflect.DeepEqual(state, want) {
		t.Fatalf("subscription state diverged from fresh evaluation:\n  sub   %+v\n  fresh %+v", state, want)
	}
}

func TestSubscribeInitialAndIncremental(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 4), nil); err != nil {
		t.Fatal(err)
	}
	req := existsReq()
	sub, err := svc.Subscribe(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	state := map[int]core.Result{}
	first := recvUpdate(t, sub)
	if !first.Full || first.Seq != 1 {
		t.Fatalf("first update not a full snapshot: %+v", first)
	}
	applyUpdate(state, first)
	assertState(t, svc, "d", req, state)

	// A new observation for object 1 changes its probability; the
	// subscription must deliver exactly the fresh-evaluation delta.
	if err := svc.Observe("d", 1, core.Observation{Time: 1, PDF: markov.PointDistribution(3, 2)}); err != nil {
		t.Fatal(err)
	}
	up := recvUpdate(t, sub)
	if up.Full {
		t.Fatalf("incremental update flagged full: %+v", up)
	}
	applyUpdate(state, up)
	assertState(t, svc, "d", req, state)

	// A brand-new tracked object must show up.
	o, err := core.NewObject(77, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Track("d", o); err != nil {
		t.Fatal(err)
	}
	up = recvUpdate(t, sub)
	applyUpdate(state, up)
	assertState(t, svc, "d", req, state)
	if _, ok := state[77]; !ok {
		t.Fatal("tracked object missing from subscription state")
	}
}

func TestSubscribeThresholdRemoval(t *testing.T) {
	// Symmetric 2-state chain: an object observed at s0 has P=0.5 of
	// being at s0 at t=1. A later observation pinning it to s1 at t=1
	// drives that to 0 — below the threshold, so the subscription must
	// retract it.
	chain, err := markov.FromDense([][]float64{
		{0.5, 0.5},
		{0.5, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(chain)
	if err := db.AddSimple(1, markov.PointDistribution(2, 0)); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", db, nil); err != nil {
		t.Fatal(err)
	}
	req := core.NewRequest(core.PredicateExists,
		core.WithStates([]int{0}), core.WithTimes([]int{1}), core.WithThreshold(0.4))
	sub, err := svc.Subscribe(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	state := map[int]core.Result{}
	first := recvUpdate(t, sub)
	applyUpdate(state, first)
	if len(state) != 1 || state[1].Prob != 0.5 {
		t.Fatalf("initial state: %+v", state)
	}

	if err := svc.Observe("d", 1, core.Observation{Time: 1, PDF: markov.PointDistribution(2, 1)}); err != nil {
		t.Fatal(err)
	}
	up := recvUpdate(t, sub)
	if len(up.Removed) != 1 || up.Removed[0] != 1 {
		t.Fatalf("expected object 1 retracted, got %+v", up)
	}
	applyUpdate(state, up)
	assertState(t, svc, "d", req, state)
	if len(state) != 0 {
		t.Fatalf("state should be empty after retraction: %+v", state)
	}
}

func TestSubscribeBatchedIngest(t *testing.T) {
	// Several ingests may coalesce into fewer updates; the invariant is
	// that after quiescing, the accumulated state equals a fresh
	// evaluation.
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 3), nil); err != nil {
		t.Fatal(err)
	}
	req := existsReq()
	sub, err := svc.Subscribe(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	state := map[int]core.Result{}
	applyUpdate(state, recvUpdate(t, sub))

	for i := 0; i < 10; i++ {
		o, oerr := core.NewObject(100+i, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(3, i%3)})
		if oerr != nil {
			t.Fatal(oerr)
		}
		if err := svc.Track("d", o); err != nil {
			t.Fatal(err)
		}
	}
	final, err := svc.Evaluate(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	want := resultMap(final.Results)
	deadline := time.Now().Add(5 * time.Second)
	for !reflect.DeepEqual(state, want) {
		if time.Now().After(deadline) {
			t.Fatalf("state never converged:\n  sub   %+v\n  fresh %+v", state, want)
		}
		select {
		case up, ok := <-sub.Updates():
			if !ok {
				t.Fatalf("updates closed early: %v", sub.Err())
			}
			applyUpdate(state, up)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func TestSubscribeCloseAndCancel(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}

	sub, err := svc.Subscribe(context.Background(), "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	recvUpdate(t, sub)
	sub.Close()
	waitFor(t, "channel close after Close", func() bool {
		select {
		case _, ok := <-sub.Updates():
			return !ok
		default:
			return false
		}
	})
	if sub.Err() != nil {
		t.Fatalf("clean close reported error: %v", sub.Err())
	}

	ctx, cancel := context.WithCancel(context.Background())
	sub2, err := svc.Subscribe(ctx, "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	recvUpdate(t, sub2)
	cancel()
	waitFor(t, "channel close after cancel", func() bool {
		select {
		case _, ok := <-sub2.Updates():
			return !ok
		default:
			return false
		}
	})
	waitFor(t, "subscription gauge drain", func() bool { return svc.Stats().Subscriptions == 0 })
}

func TestSubscribeDatasetDrop(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Subscribe(context.Background(), "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	recvUpdate(t, sub)
	if err := svc.Drop("d"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "channel close after drop", func() bool {
		select {
		case _, ok := <-sub.Updates():
			return !ok
		default:
			return false
		}
	})
	if !errors.Is(sub.Err(), ErrUnknownDataset) {
		t.Fatalf("drop reason: %v", sub.Err())
	}
}

func TestSubscribeUnknownDataset(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.Subscribe(context.Background(), "nope", existsReq()); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("subscribe to unknown dataset: %v", err)
	}
}
