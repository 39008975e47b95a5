package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"sync"
	"testing"
	"time"

	"ust/internal/core"
	"ust/internal/markov"
)

// paperDB builds the paper's running-example database: the 3-state
// chain and one object observed at s2 (PST∃Q over {s0,s1}×{2,3} is
// 0.864).
func paperDB(t testing.TB) *core.Database {
	t.Helper()
	chain, err := markov.FromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase(chain)
	if err := db.AddSimple(1, markov.PointDistribution(3, 1)); err != nil {
		t.Fatal(err)
	}
	return db
}

// widerDB builds a database with several objects over the paper chain.
func widerDB(t testing.TB, objects int) *core.Database {
	t.Helper()
	db := paperDB(t)
	for id := 2; id < 2+objects-1; id++ {
		if err := db.AddSimple(id, markov.PointDistribution(3, id%3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func existsReq() core.Request {
	return core.NewRequest(core.PredicateExists,
		core.WithStates([]int{0, 1}), core.WithTimes([]int{2, 3}))
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("a", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	if err := svc.Create("a", paperDB(t), nil); !errors.Is(err, ErrDatasetExists) {
		t.Fatalf("duplicate create: %v", err)
	}

	// Round-trip dataset "a" through the binary store format into "b".
	var buf bytes.Buffer
	if err := svc.Save("a", &buf); err != nil {
		t.Fatal(err)
	}
	if err := svc.Load("b", &buf); err != nil {
		t.Fatal(err)
	}
	infos := svc.Datasets()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("datasets: %+v", infos)
	}
	if infos[1].Objects != 1 || infos[1].States != 3 {
		t.Fatalf("loaded info: %+v", infos[1])
	}

	ra, err := svc.Evaluate(context.Background(), "a", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := svc.Evaluate(context.Background(), "b", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra.Results, rb.Results) {
		t.Fatalf("loaded dataset answers differently: %+v vs %+v", ra.Results, rb.Results)
	}

	if err := svc.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Evaluate(context.Background(), "b", existsReq()); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("dropped dataset: %v", err)
	}
	if err := svc.Drop("b"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestEvaluateMatchesEngine(t *testing.T) {
	db := widerDB(t, 6)
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", db, nil); err != nil {
		t.Fatal(err)
	}
	direct := core.NewEngine(paperDBClone(t, 6), core.Options{})

	reqs := []core.Request{
		existsReq(),
		core.NewRequest(core.PredicateForAll, core.WithStates([]int{0, 1}), core.WithTimes([]int{2, 3})),
		core.NewRequest(core.PredicateKTimes, core.WithStates([]int{0, 1}), core.WithTimes([]int{2, 3})),
		core.NewRequest(core.PredicateEventually, core.WithStates([]int{0})),
		existsReq().With(core.WithStrategy(core.StrategyObjectBased)),
		existsReq().With(core.WithTopK(3)),
		existsReq().With(core.WithThreshold(0.5)),
	}
	for i, req := range reqs {
		want, err := direct.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatalf("req %d direct: %v", i, err)
		}
		got, err := svc.Evaluate(context.Background(), "d", req)
		if err != nil {
			t.Fatalf("req %d service: %v", i, err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("req %d: service %+v, direct %+v", i, got.Results, want.Results)
		}
	}

	// Streaming matches batch order and content.
	var streamed []core.Result
	for r, err := range svc.Stream(context.Background(), "d", existsReq()) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, r)
	}
	batch, err := svc.Evaluate(context.Background(), "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, batch.Results) {
		t.Fatalf("stream %+v != batch %+v", streamed, batch.Results)
	}
}

// paperDBClone builds the same database as widerDB (fresh copy).
func paperDBClone(t testing.TB, objects int) *core.Database {
	return widerDB(t, objects)
}

func TestSingleFlightCoalesces(t *testing.T) {
	const followers = 8
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 16), nil); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	testHookEvalStart = func() {
		enterOnce.Do(func() { close(entered) })
		<-release
	}
	defer func() { testHookEvalStart = nil }()

	req := existsReq()
	type out struct {
		resp *core.Response
		err  error
	}
	results := make([]out, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := svc.Evaluate(context.Background(), "d", req)
		results[0] = out{resp, err}
	}()
	<-entered // the leader is inside the evaluation, holding the flight key

	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := svc.Evaluate(context.Background(), "d", req)
			results[i] = out{resp, err}
		}(i)
	}
	waitFor(t, "followers to coalesce", func() bool {
		return svc.Stats().Coalesced == followers
	})
	close(release)
	wg.Wait()

	st := svc.Stats()
	if st.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1 (coalesced=%d)", st.Evaluations, st.Coalesced)
	}
	if st.Coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, followers)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if !reflect.DeepEqual(r.resp.Results, results[0].resp.Results) {
			t.Fatalf("caller %d diverged: %+v vs %+v", i, r.resp.Results, results[0].resp.Results)
		}
	}

	// Each caller owns its Results slice: mutating one must not affect
	// another (coalesced responses are shared data underneath).
	results[1].resp.Results[0] = core.Result{ObjectID: -1}
	if results[2].resp.Results[0].ObjectID == -1 {
		t.Fatal("coalesced callers share a Results slice")
	}
}

// TestSingleFlightCopiesOnlySharedResponses pins when a response is
// copied: each of two coalesced callers owns its Results (a mutation by
// one stays invisible to the other), while a caller nobody joined gets
// the evaluation's own response, with no copy.
func TestSingleFlightCopiesOnlySharedResponses(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 4), nil); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	testHookEvalStart = func() {
		enterOnce.Do(func() { close(entered) })
		<-release
	}
	var leader, follower *core.Response
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if leader, err = svc.Evaluate(context.Background(), "d", existsReq()); err != nil {
			t.Error(err)
		}
	}()
	<-entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if follower, err = svc.Evaluate(context.Background(), "d", existsReq()); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "the follower to join", func() bool { return svc.Stats().Coalesced == 1 })
	close(release)
	wg.Wait()
	testHookEvalStart = nil
	if t.Failed() {
		return
	}
	want := follower.Results[0]
	leader.Results[0] = core.Result{ObjectID: -1}
	if follower.Results[0].ObjectID != want.ObjectID {
		t.Fatal("the leader's mutation shows in the follower's results")
	}
	follower.Results[1] = core.Result{ObjectID: -2}
	if leader.Results[1].ObjectID == -2 {
		t.Fatal("the follower's mutation shows in the leader's results")
	}

	fixed := &core.Response{Results: []core.Result{{ObjectID: 1, Prob: 0.5}}, Strategy: core.StrategyQueryBased}
	own := New(Config{Engines: func(string, *core.Database) (Evaluator, Ingester, error) {
		return fakeEngine{resp: fixed}, nil, nil
	}})
	defer own.Close()
	if err := own.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	got, err := own.Evaluate(context.Background(), "d", existsReq())
	if err != nil {
		t.Fatal(err)
	}
	if got != fixed || &got.Results[0] != &fixed.Results[0] {
		t.Fatal("an uncoalesced evaluation's response was copied")
	}
}

// fakeEngine is a dataset engine that answers Evaluate with resp and
// streams first, then blocks until release closes (or the request is
// cancelled).
type fakeEngine struct {
	resp    *core.Response
	first   core.Result
	release chan struct{}
}

func (e fakeEngine) Evaluate(context.Context, core.Request) (*core.Response, error) {
	return e.resp, nil
}

func (e fakeEngine) EvaluateSeq(ctx context.Context, _ core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		if !yield(e.first, nil) {
			return
		}
		select {
		case <-e.release:
		case <-ctx.Done():
		}
	}
}

func (fakeEngine) CacheStats() core.CacheStats { return core.CacheStats{} }

func TestSingleFlightAbandonedByAllWaiters(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	testHookEvalStart = func() {
		enterOnce.Do(func() { close(entered) })
		<-release
	}
	defer func() { testHookEvalStart = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.Evaluate(ctx, "d", existsReq())
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller: %v", err)
	}
	close(release) // the detached evaluation finishes on its own
	waitFor(t, "in-flight drain", func() bool { return svc.Stats().InFlight == 0 })
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	testHookEvalStart = func() {
		enterOnce.Do(func() { close(entered) })
		<-release
	}
	defer func() { testHookEvalStart = nil }()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Evaluate(context.Background(), "d", existsReq()); err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	<-entered // the only admission slot is now held

	// A different request (distinct flight key) cannot be admitted
	// before its deadline. The caller sees its own deadline expire (or
	// the admission failure, whichever its detached evaluation hits
	// first); either way the rejection is counted.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	other := existsReq().With(core.WithTimes([]int{4, 5}))
	if _, err := svc.Evaluate(ctx, "d", other); !errors.Is(err, ErrOverloaded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated evaluate: %v", err)
	}
	waitFor(t, "rejection to be counted", func() bool { return svc.Stats().Rejected == 1 })
	close(release)
	wg.Wait()
}

func TestDefaultDeadlineApplies(t *testing.T) {
	svc := New(Config{DefaultTimeout: 30 * time.Millisecond})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	testHookEvalStart = func() { <-block }
	defer func() {
		// Unblock the detached evaluation and wait for it to drain
		// before resetting the hook (the goroutine reads it).
		close(block)
		waitFor(t, "detached evaluation drain", func() bool { return svc.Stats().InFlight == 0 })
		testHookEvalStart = nil
	}()

	// The caller's context has no deadline; the service's default must
	// still bound the wait.
	start := time.Now()
	_, err := svc.Evaluate(context.Background(), "d", existsReq())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the wait (%v)", elapsed)
	}
}

func TestIngestDuringQueries(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", widerDB(t, 8), nil); err != nil {
		t.Fatal(err)
	}
	const (
		queriers = 4
		ingests  = 25
	)
	var wg sync.WaitGroup
	stopQuery := make(chan struct{})
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopQuery:
					return
				default:
				}
				req := existsReq()
				if g%2 == 0 {
					for r, err := range svc.Stream(context.Background(), "d", req) {
						if err != nil {
							t.Errorf("stream: %v", err)
							return
						}
						_ = r
					}
				} else if _, err := svc.Evaluate(context.Background(), "d", req); err != nil {
					t.Errorf("evaluate: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < ingests; i++ {
		id := 1000 + i
		o, err := core.NewObject(id, nil, core.Observation{Time: 0, PDF: markov.PointDistribution(3, i%3)})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Track("d", o); err != nil {
			t.Fatal(err)
		}
		if err := svc.Observe("d", id, core.Observation{Time: 5, PDF: markov.PointDistribution(3, (i+1)%3)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stopQuery)
	wg.Wait()

	info, err := svc.Info("d")
	if err != nil {
		t.Fatal(err)
	}
	if info.Objects != 8+ingests {
		t.Fatalf("objects = %d, want %d", info.Objects, 8+ingests)
	}
	if got := svc.Stats().Ingests; got != 2*ingests {
		t.Fatalf("ingests = %d, want %d", got, 2*ingests)
	}
}

func TestObserveValidation(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	if err := svc.Observe("d", 99, core.Observation{Time: 1, PDF: markov.PointDistribution(3, 0)}); err == nil {
		t.Fatal("unknown object accepted")
	}
	if err := svc.Observe("d", 1, core.Observation{Time: 1, PDF: markov.PointDistribution(5, 0)}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := svc.Observe("nope", 1, core.Observation{Time: 1, PDF: markov.PointDistribution(3, 0)}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
}

func TestServiceClosed(t *testing.T) {
	svc := New(Config{})
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close() // idempotent
	if _, err := svc.Evaluate(context.Background(), "d", existsReq()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed evaluate: %v", err)
	}
	if err := svc.Create("e", paperDB(t), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed create: %v", err)
	}
}

func TestFlightKeyDistinguishesRequestsAndVersions(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if err := svc.Create("d", paperDB(t), nil); err != nil {
		t.Fatal(err)
	}
	ds, err := svc.dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	k1, ok := svc.flightKey(ds, existsReq())
	if !ok {
		t.Fatal("no key for plain request")
	}
	k2, _ := svc.flightKey(ds, existsReq())
	if k1 != k2 {
		t.Fatal("identical requests got different keys")
	}
	k3, _ := svc.flightKey(ds, existsReq().With(core.WithTopK(2)))
	if k3 == k1 {
		t.Fatal("different requests share a key")
	}
	if err := svc.Observe("d", 1, core.Observation{Time: 4, PDF: markov.PointDistribution(3, 0)}); err != nil {
		t.Fatal(err)
	}
	k4, _ := svc.flightKey(ds, existsReq())
	if k4 == k1 {
		t.Fatal("key ignores the database version — coalescing could serve stale results")
	}
	_ = fmt.Sprintf("%s%s%s%s", k1, k2, k3, k4)
}
