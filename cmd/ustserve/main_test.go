package main

// End-to-end tests of the HTTP front end: a ustserve handler mounted on
// httptest, driven through the public client package. The central
// invariant is remote ≡ in-process: the shared conformance suite
// (internal/conformance) runs its full predicate × strategy × ranking
// × region × expr table against the HTTP stack — unsharded and sharded
// — and requires byte-identical results (same float64 bits) to a local
// engine over the same data.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ust"
	"ust/client"
	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/service"
)

// testDB builds a deterministic multi-object database over the paper's
// 3-state chain.
func testDB(t testing.TB, objects int) *ust.Database {
	t.Helper()
	chain, err := ust.ChainFromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := ust.NewDatabase(chain)
	for id := 0; id < objects; id++ {
		if err := db.AddSimple(id, ust.PointDistribution(3, id%3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// newServer spins a service with one dataset plus a local twin engine
// over an identical database.
func newServer(t testing.TB, objects int) (*client.Client, *ust.Engine, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{})
	if err := svc.Create("d", testDB(t, objects), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	local := ust.NewEngine(testDB(t, objects), ust.Options{})
	return client.New(ts.URL, ts.Client()), local, svc
}

// remoteEvaluator adapts the HTTP client to the conformance suite's
// Evaluator surface: Evaluate via /v1/query, EvaluateSeq via the NDJSON
// stream, EvaluateBatch as sequential queries (the wire API is
// per-request; the contract under test is result identity).
type remoteEvaluator struct {
	c    *client.Client
	name string
}

var errStopStream = errors.New("consumer stopped")

func (r remoteEvaluator) Evaluate(ctx context.Context, req core.Request) (*core.Response, error) {
	return r.c.Query(ctx, r.name, req)
}

func (r remoteEvaluator) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		err := r.c.QueryStream(ctx, r.name, req, func(res ust.Result) error {
			if !yield(res, nil) {
				return errStopStream
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopStream) {
			yield(core.Result{}, err)
		}
	}
}

func (r remoteEvaluator) EvaluateBatch(ctx context.Context, reqs []core.Request) ([]*core.Response, error) {
	out := make([]*core.Response, len(reqs))
	for i, req := range reqs {
		resp, err := r.c.Query(ctx, r.name, req)
		if err != nil {
			return nil, err
		}
		out[i] = resp
	}
	return out, nil
}

// TestRemoteConformance runs the shared conformance table against the
// full HTTP stack — requests wire-encoded, regions re-grounded
// server-side, results decoded back — for both an unsharded service and
// a 4-shard one. Every case must be byte-identical to a local engine
// over the same dataset.
func TestRemoteConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  service.Config
		opts conformance.Options
	}{
		{"unsharded", service.Config{}, conformance.Options{}},
		// The router documents per-object MC seeding, hence SkipSerialMC.
		{"shards=4", service.Config{Shards: 4}, conformance.Options{SkipSerialMC: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, res := conformance.NewDataset()
			svc := service.New(tc.cfg)
			if err := svc.Create("conf", db, res); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(service.NewHandler(svc))
			t.Cleanup(func() {
				svc.Close()
				ts.Close()
			})
			ref := ust.NewEngine(db, ust.Options{})
			remote := remoteEvaluator{c: client.New(ts.URL, ts.Client()), name: "conf"}
			conformance.Verify(t, res, ref, remote, tc.opts)
		})
	}
}

// TestRemoteMultiObsConformance runs the multi-observation table over
// the HTTP stack, unsharded and sharded, including the
// ingest-during-query pass: observations appended through
// Client.Observe (the wire ingest path) must land in the served dataset
// before the table replays against the local reference.
func TestRemoteMultiObsConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  service.Config
		opts conformance.Options
	}{
		{"unsharded", service.Config{}, conformance.Options{}},
		{"shards=4", service.Config{Shards: 4}, conformance.Options{SkipSerialMC: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, res := conformance.NewMultiObsDataset()
			svc := service.New(tc.cfg)
			if err := svc.Create("conf", db, res); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(service.NewHandler(svc))
			t.Cleanup(func() {
				svc.Close()
				ts.Close()
			})
			ref := ust.NewEngine(db, ust.Options{})
			c := client.New(ts.URL, ts.Client())
			remote := remoteEvaluator{c: c, name: "conf"}
			ingest := func(id int, obs core.Observation) error {
				return c.Observe(context.Background(), "conf", id, obs)
			}
			conformance.VerifyMultiObs(t, db, res, ref, remote, ingest, tc.opts)
		})
	}
}

func TestParallelClients(t *testing.T) {
	c, local, _ := newServer(t, 12)
	want, err := local.Evaluate(context.Background(), ust.NewRequest(ust.PredicateExists,
		ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3})))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := ust.NewRequest(ust.PredicateExists,
				ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3}))
			if i%2 == 0 {
				resp, qerr := c.Query(context.Background(), "d", req)
				if qerr != nil {
					t.Errorf("client %d: %v", i, qerr)
					return
				}
				if !reflect.DeepEqual(resp.Results, want.Results) {
					t.Errorf("client %d diverged", i)
				}
				return
			}
			var got []ust.Result
			if serr := c.QueryStream(context.Background(), "d", req, func(r ust.Result) error {
				got = append(got, r)
				return nil
			}); serr != nil {
				t.Errorf("client %d stream: %v", i, serr)
				return
			}
			if !reflect.DeepEqual(got, want.Results) {
				t.Errorf("client %d stream diverged", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestIngestDuringRemoteQueries(t *testing.T) {
	c, _, _ := newServer(t, 6)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := ust.NewRequest(ust.PredicateExists,
				ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3}))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Query(context.Background(), "d", req); err != nil {
					t.Errorf("query during ingest: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		o, err := ust.NewObject(500+i, nil, ust.Observation{Time: 0, PDF: ust.PointDistribution(3, i%3)})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Track(context.Background(), "d", o); err != nil {
			t.Fatal(err)
		}
		if err := c.Observe(context.Background(), "d", 500+i,
			ust.Observation{Time: 4, PDF: ust.PointDistribution(3, (i+1)%3)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	info, err := c.Dataset(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	if info.Objects != 16 {
		t.Fatalf("objects = %d, want 16", info.Objects)
	}
}

func TestStreamCancellationMidStream(t *testing.T) {
	// Enough objects that the full stream cannot fit in socket buffers:
	// TCP flow control guarantees the server is still writing when the
	// client cancels, so the cut genuinely happens mid-stream.
	c, _, _ := newServer(t, 30000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	err := c.QueryStream(ctx, "d", ust.NewRequest(ust.PredicateExists,
		ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3})), func(r ust.Result) error {
		n++
		if n == 5 {
			cancel()
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled stream reported success")
	}
	if n >= 30000 {
		t.Fatalf("stream ran to completion (%d results) despite cancellation", n)
	}
}

func TestRemoteSubscription(t *testing.T) {
	c, _, svc := newServer(t, 4)
	req := ust.NewRequest(ust.PredicateExists,
		ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3}))
	sub, err := c.Subscribe(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	state := map[int]ust.Result{}
	apply := func(up ust.Update) {
		if up.Full {
			state = map[int]ust.Result{}
		}
		for _, r := range up.Results {
			state[r.ObjectID] = r
		}
		for _, id := range up.Removed {
			delete(state, id)
		}
	}
	recv := func() ust.Update {
		t.Helper()
		select {
		case up, ok := <-sub.Updates():
			if !ok {
				t.Fatalf("subscription closed early: %v", sub.Err())
			}
			return up
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for update")
		}
		panic("unreachable")
	}

	first := recv()
	if !first.Full {
		t.Fatalf("first update not full: %+v", first)
	}
	apply(first)

	// Ingest through the client; an incremental update must arrive and
	// the applied state must equal a fresh remote query.
	if err := c.Observe(context.Background(), "d", 1,
		ust.Observation{Time: 1, PDF: ust.PointDistribution(3, 2)}); err != nil {
		t.Fatal(err)
	}
	apply(recv())
	fresh, err := c.Query(context.Background(), "d", req)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]ust.Result{}
	for _, r := range fresh.Results {
		want[r.ObjectID] = r
	}
	if !reflect.DeepEqual(state, want) {
		t.Fatalf("subscription state diverged:\n  sub   %+v\n  fresh %+v", state, want)
	}

	// Server-side close (service shutdown path) must end the stream.
	svc.Close()
	select {
	case _, ok := <-sub.Updates():
		if ok {
			// drain any trailing update; channel must close eventually
			for range sub.Updates() {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not end after service close")
	}
}

func TestDatasetUploadAndDrop(t *testing.T) {
	c, _, _ := newServer(t, 3)
	var buf bytes.Buffer
	if err := ust.SaveDatabase(&buf, testDB(t, 5)); err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateDataset(context.Background(), "up", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "up" || info.Objects != 5 {
		t.Fatalf("uploaded info: %+v", info)
	}
	infos, err := c.Datasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("datasets: %+v", infos)
	}
	if _, err := c.CreateDataset(context.Background(), "up", bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("duplicate upload accepted")
	}
	if err := c.DropDataset(context.Background(), "up"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dataset(context.Background(), "up"); err == nil {
		t.Fatal("dropped dataset still served")
	}
	// Corrupt upload must be rejected cleanly.
	if _, err := c.CreateDataset(context.Background(), "bad", strings.NewReader("not a store file")); err == nil {
		t.Fatal("corrupt upload accepted")
	}
}

func TestHTTPErrors(t *testing.T) {
	c, _, _ := newServer(t, 3)
	req := ust.NewRequest(ust.PredicateExists, ust.WithStates([]int{0}), ust.WithTimes([]int{1}))
	if _, err := c.Query(context.Background(), "nope", req); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown dataset: %v", err)
	}
	// Region without a server-side resolver is a clean 400.
	regionReq := ust.NewRequest(ust.PredicateExists,
		ust.WithRegion(ust.NewRect(0, 0, 1, 1), nil), ust.WithTimes([]int{1}))
	if _, err := c.Query(context.Background(), "d", regionReq); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("region without resolver: %v", err)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	c, _, _ := newServer(t, 3)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	req := ust.NewRequest(ust.PredicateExists, ust.WithStates([]int{0, 1}), ust.WithTimes([]int{2, 3}))
	if _, err := c.Query(context.Background(), "d", req); err != nil {
		t.Fatal(err)
	}
	metrics, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ust_requests_total",
		"ust_singleflight_coalesced_total",
		"ust_evaluations_total",
		"ust_subscriptions",
		fmt.Sprintf("ust_dataset_objects{dataset=%q} 3", "d"),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestRawWireContract pins a few literal HTTP exchanges so the wire
// format cannot drift silently.
func TestRawWireContract(t *testing.T) {
	svc := service.New(service.Config{})
	if err := svc.Create("d", testDB(t, 1), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	defer func() { svc.Close(); ts.Close() }()

	body := `{"dataset":"d","query":"exists(states(0,1) @ [2,3])"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	// Object 0 sits at state 0 — inside the region — but the paper
	// window starts at t=2; the exact probability is determined by the
	// chain. The pinned fact: a stable JSON shape with results and a
	// strategy name.
	out := buf.String()
	for _, want := range []string{`"results":[{"object":0,"prob":`, `"strategy":"qb"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("wire response missing %q: %s", want, out)
		}
	}

	// Unknown fields must be rejected (strict decoding end to end).
	bad := `{"dataset":"d","query":"exists(states(0) @ {1})","bogus":1}`
	resp2, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("lax decode: status %s", resp2.Status)
	}
}
