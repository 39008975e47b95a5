package service

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/wire"
)

// TestShardedServiceEndToEnd wires Config.Shards through the service
// layer: evaluation and streaming answer byte-identically to a single
// engine, ingest through Observe/Track reaches the owning shard (the
// service writes through the router), subscriptions refresh
// through the sharded backend, and Engine() refuses to pretend a
// sharded dataset has a single engine.
func TestShardedServiceEndToEnd(t *testing.T) {
	db := widerDB(t, 12)
	s := New(Config{Shards: 3})
	defer s.Close()
	if err := s.Create("d", db, nil); err != nil {
		t.Fatal(err)
	}
	single := core.NewEngine(widerDB(t, 12), core.Options{})
	ctx := context.Background()

	want, err := single.Evaluate(ctx, existsReq())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Evaluate(ctx, "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("sharded service diverged:\n  got  %+v\n  want %+v", got.Results, want.Results)
	}

	var streamed []core.Result
	for r, serr := range s.Stream(ctx, "d", existsReq()) {
		if serr != nil {
			t.Fatal(serr)
		}
		streamed = append(streamed, r)
	}
	if !reflect.DeepEqual(streamed, want.Results) {
		t.Fatalf("sharded stream diverged:\n  got  %+v\n  want %+v", streamed, want.Results)
	}

	if _, err := s.Engine("d"); err == nil {
		t.Fatal("Engine() returned a single engine for a sharded dataset")
	}

	// A standing query must see ingest through the sharded backend.
	sub, err := s.Subscribe(ctx, "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	first := <-sub.Updates()
	if !first.Full || len(first.Results) != len(want.Results) {
		t.Fatalf("snapshot: %+v", first)
	}
	if err := s.Observe("d", 1, core.Observation{Time: 1, PDF: markov.PointDistribution(3, 2)}); err != nil {
		t.Fatal(err)
	}
	up := <-sub.Updates()
	fresh, err := s.Evaluate(ctx, "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	state := map[int]core.Result{}
	for _, r := range first.Results {
		state[r.ObjectID] = r
	}
	for _, r := range up.Results {
		state[r.ObjectID] = r
	}
	for _, id := range up.Removed {
		delete(state, id)
	}
	for _, r := range fresh.Results {
		if !reflect.DeepEqual(state[r.ObjectID], r) {
			t.Fatalf("subscription state stale for object %d: %+v vs %+v", r.ObjectID, state[r.ObjectID], r)
		}
	}

	// Track a new object; the next evaluation must include it.
	o, err := core.NewObject(500, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Track("d", o); err != nil {
		t.Fatal(err)
	}
	after, err := s.Evaluate(ctx, "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Results) != len(want.Results)+1 {
		t.Fatalf("tracked object missing: %d results, want %d", len(after.Results), len(want.Results)+1)
	}
}

// TestShardedHugeTopKOverHTTP sends a top-k no database can fill —
// math.MaxInt — to a two-shard service over HTTP: the answer is every
// result, ranked exactly as a single engine ranks them, and the server
// stays up.
func TestShardedHugeTopKOverHTTP(t *testing.T) {
	svc := New(Config{Shards: 2})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 12), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	req := existsReq().With(core.WithTopK(math.MaxInt))
	want, err := core.NewEngine(widerDB(t, 12), core.Options{}).Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	body := envelope(t, "d", req)
	for round := 0; round < 2; round++ {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, raw)
		}
		got, err := wire.DecodeResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("round %d: %d results, single engine %d", round, len(got.Results), len(want.Results))
		}
		for i, r := range want.Results {
			if got.Results[i].ObjectID != r.ObjectID || got.Results[i].Prob != r.Prob {
				t.Fatalf("round %d: result %d is %+v, single engine %+v", round, i, got.Results[i], r)
			}
		}
	}
}
