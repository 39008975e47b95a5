package dist_test

// Failover tests for the replicated distributed tier: shards placed on
// their top-k workers, reads surviving a killed worker — including one
// killed mid-stream — with byte-identical results, and the health
// prober shrinking the read set within its probe window.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ust/client"
	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/dist"
	"ust/internal/service"
	"ust/internal/shard"
	"ust/internal/spatial"
)

// repFleet is a replicated deployment under test: workerCount worker
// services, each shard placed on its top-`replicas` workers, fronted by
// a router with health-probed failover and a coordinator service whose
// /metrics exposes the probe state.
type repFleet struct {
	router  *shard.Router
	workers []*service.Service
	servers []*httptest.Server
	clients []*client.Client
	names   []string
	prober  *dist.Prober
	coord   *client.Client
}

// newReplicatedFleet builds the deployment. Every worker pre-creates
// every shard dataset with the resolver (so region queries ground
// remotely wherever the shard lands); Factory adopts the ones its
// placement actually uses. wrap, when non-nil, may wrap each worker's
// handler (fault injection).
func newReplicatedFleet(t *testing.T, db *core.Database, res spatial.Resolver, shards, workerCount, replicas int, wrap func(i int, h http.Handler) http.Handler) *repFleet {
	t.Helper()
	f := &repFleet{}
	for i := 0; i < workerCount; i++ {
		wsvc := service.New(service.Config{Role: "worker"})
		for s := 0; s < shards; s++ {
			if err := wsvc.Create(fmt.Sprintf("conf.shard%d", s), core.NewDatabase(db.DefaultChain()), res); err != nil {
				t.Fatal(err)
			}
		}
		var h http.Handler = service.NewHandler(wsvc)
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() { wsvc.Close(); ts.Close() })
		f.workers = append(f.workers, wsvc)
		f.servers = append(f.servers, ts)
		f.names = append(f.names, ts.URL)
		f.clients = append(f.clients, client.NewWithConfig(ts.URL, client.Config{HTTPClient: ts.Client()}))
	}
	f.prober = dist.NewProber(f.clients, f.names, dist.ProberConfig{Interval: 25 * time.Millisecond})
	f.prober.Start()
	t.Cleanup(f.prober.Stop)

	coord := service.New(service.Config{Role: "coordinator", WorkerHealth: func() []service.WorkerHealth {
		snap := f.prober.Snapshot()
		out := make([]service.WorkerHealth, len(snap))
		for i, wh := range snap {
			out[i] = service.WorkerHealth{Worker: wh.Worker, Healthy: wh.Healthy}
		}
		return out
	}})
	coordTS := httptest.NewServer(service.NewHandler(coord))
	t.Cleanup(func() { coord.Close(); coordTS.Close() })
	f.coord = client.NewWithConfig(coordTS.URL, client.Config{HTTPClient: coordTS.Client()})

	router, err := shard.NewWithBackends(db, shards, core.Options{}, dist.Factory("conf", f.clients, replicas, f.prober))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	f.router = router
	return f
}

// kill terminates worker i abruptly: existing coordinator connections
// reset, new ones refused — a process death, not a drain.
func (f *repFleet) kill(i int) {
	f.servers[i].CloseClientConnections()
	f.servers[i].Close()
}

// primaryOf recomputes Factory's placement: the worker index serving
// shard `label`'s first replica on a fleet of workerCount workers.
func primaryOf(t *testing.T, label, workerCount, replicas int) int {
	t.Helper()
	return label % workerCount
}

// TestReplicaPlacementBalanced pins the placement rule's balance: with
// W workers and W shards, at one or two replicas, each worker is the
// primary of exactly one shard — so one scan through the router sends
// exactly one query to every worker, and no worker idles while another
// answers for several shards.
func TestReplicaPlacementBalanced(t *testing.T) {
	db, _ := conformance.NewDataset()
	scan := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)))
	for _, w := range []int{2, 3, 4} {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("workers=%d/replicas=%d", w, k), func(t *testing.T) {
				queries := make([]atomic.Int32, w)
				clients := make([]*client.Client, w)
				for i := range clients {
					wsvc := service.New(service.Config{Role: "worker"})
					h := service.NewHandler(wsvc)
					ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
						if r.URL.Path == "/v1/query" {
							queries[i].Add(1)
						}
						h.ServeHTTP(rw, r)
					}))
					t.Cleanup(func() { wsvc.Close(); ts.Close() })
					clients[i] = client.NewWithConfig(ts.URL, client.Config{HTTPClient: ts.Client()})
				}
				router, err := shard.NewWithBackends(db, w, core.Options{}, dist.Factory("conf", clients, k, nil))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { router.Close() })
				if _, err := router.Evaluate(context.Background(), scan); err != nil {
					t.Fatal(err)
				}
				for i := range queries {
					if n := queries[i].Load(); n != 1 {
						t.Errorf("worker %d answered %d shard queries, want 1 (primary of exactly one shard)", i, n)
					}
				}
			})
		}
	}
}

// waitHealthy polls the prober until worker i's state matches want.
func (f *repFleet) waitHealthy(t *testing.T, i int, want bool, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for f.prober.Healthy(i) != want {
		if time.Now().After(deadline) {
			t.Fatalf("prober never marked worker %d healthy=%v within %v", i, want, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatedConformanceKilledWorker is the acceptance criterion: a
// 4-worker, replicas=2 fleet answers the full conformance table
// byte-identically; a worker is killed mid-suite; the table passes
// again with zero errors while the prober flips ust_worker_healthy
// within its window.
func TestReplicatedConformanceKilledWorker(t *testing.T) {
	db, res := conformance.NewDataset()
	f := newReplicatedFleet(t, db, res, 4, 4, 2, nil)
	ref := core.NewEngine(db, core.Options{})
	conformance.Verify(t, res, ref, f.router, conformance.Options{SkipSerialMC: true})

	// Kill shard 0's primary so the suite is guaranteed to cross a
	// failover path, not just a probe flip.
	victim := primaryOf(t, 0, 4, 2)
	f.kill(victim)
	// Immediately after the kill — before the probe window elapses —
	// reads must already survive via connection-failure failover.
	conformance.Verify(t, res, ref, f.router, conformance.Options{SkipSerialMC: true})

	// The prober must declare the worker dead within its window
	// (FailThreshold consecutive failed probes).
	f.waitHealthy(t, victim, false, 3*time.Second)

	// The coordinator's /metrics expose the flip, per worker.
	m, err := f.coord.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ust_worker_healthy{worker=\"%s\"} 0\n", f.names[victim]); !strings.Contains(m, want) {
		t.Fatalf("metrics missing %q:\n%s", want, m)
	}
	if want := fmt.Sprintf("ust_worker_healthy{worker=\"%s\"} 1\n", f.names[(victim+1)%4]); !strings.Contains(m, want) {
		t.Fatalf("metrics missing %q:\n%s", want, m)
	}

	// With the dead worker demoted out of the read set, the table still
	// passes — replicas cover its shards.
	conformance.Verify(t, res, ref, f.router, conformance.Options{SkipSerialMC: true})
}

// TestReplicatedIngestSurvivesKilledWorker pins the write path: after a
// worker dies, generation-fenced writes keep succeeding (the dead
// replica is marked stale, the survivors apply), and subsequent reads
// reflect the ingest byte-identically to a single engine.
func TestReplicatedIngestSurvivesKilledWorker(t *testing.T) {
	db, res := conformance.NewDataset()
	f := newReplicatedFleet(t, db, res, 4, 4, 2, nil)
	f.kill(primaryOf(t, 0, 4, 2))

	// Ingest a consistent sighting for every object through the router:
	// each Import mirrors to that shard's replicas, one of which may be
	// the dead worker.
	for _, o := range db.Objects() {
		if err := f.router.Observe(o.ID, conformance.NextObservation(db, o)); err != nil {
			t.Fatalf("observe object %d after worker death: %v", o.ID, err)
		}
	}
	// The router wrote its full database in place; a fresh engine over
	// it is the reference for the post-ingest state.
	ref := core.NewEngine(db, core.Options{})
	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(10, 50)), core.WithTimes(core.Interval(4, 9)))
	want, err := ref.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.router.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("post-ingest results diverged:\n got %+v\nwant %+v", got.Results, want.Results)
	}
}

// cutAfter wraps a streaming handler so each /v1/query/stream response
// is cut (connection aborted) after `lines` NDJSON lines — a worker
// dying with results already on the wire. Other endpoints pass through.
type cutAfter struct {
	next  http.Handler
	lines int
	cuts  atomic.Int32
}

func (c *cutAfter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/query/stream" {
		c.next.ServeHTTP(w, r)
		return
	}
	c.next.ServeHTTP(&cutWriter{ResponseWriter: w, remaining: c.lines, cuts: &c.cuts}, r)
}

type cutWriter struct {
	http.ResponseWriter
	remaining int
	cuts      *atomic.Int32
}

func (cw *cutWriter) Write(p []byte) (int, error) {
	for i, b := range p {
		if b != '\n' {
			continue
		}
		cw.remaining--
		if cw.remaining <= 0 {
			// Deliver the line fully, then die: the client has consumed
			// results when the connection drops without a done marker.
			cw.ResponseWriter.Write(p[:i+1])
			cw.Flush()
			cw.cuts.Add(1)
			panic(http.ErrAbortHandler)
		}
	}
	return cw.ResponseWriter.Write(p)
}

func (cw *cutWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestReplicatedMidStreamFailover pins the replay contract: a worker
// that dies after emitting part of its result stream is covered by a
// replica replaying the identical deterministic stream, the
// already-emitted prefix skipped — the merged sequence stays
// byte-identical and complete. Never a silent truncation.
func TestReplicatedMidStreamFailover(t *testing.T) {
	db, res := conformance.NewDataset()
	cut := &cutAfter{lines: 2}
	victim := primaryOf(t, 0, 2, 2) // shard 0's primary is guaranteed to stream
	f := newReplicatedFleet(t, db, res, 2, 2, 2, func(i int, h http.Handler) http.Handler {
		if i == victim {
			cut.next = h
			return cut
		}
		return h
	})
	ref := core.NewEngine(db, core.Options{})
	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(0, 63)), core.WithTimes(core.Interval(1, 12)))

	var want []core.Result
	for r, err := range ref.EvaluateSeq(context.Background(), req) {
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	var got []core.Result
	for r, err := range f.router.EvaluateSeq(context.Background(), req) {
		if err != nil {
			t.Fatalf("stream error despite replica replay: %v", err)
		}
		got = append(got, r)
	}
	if cut.cuts.Load() == 0 {
		t.Fatal("fault injection never fired: worker 0 was not asked to stream")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed stream diverged: %d results vs %d\n got %+v\nwant %+v",
			len(got), len(want), got, want)
	}
}

// TestReplicatedEvalErrorDoesNotFailOver pins the negative failover
// rule: a server-REPORTED evaluation error is deterministic and would
// reproduce identically on every replica, so it must surface
// immediately instead of burning failover attempts — unlike a cut
// connection, which replays. Every worker's stream endpoint answers
// with a mid-stream error line; the router must error out after at
// most one stream open per shard.
func TestReplicatedEvalErrorDoesNotFailOver(t *testing.T) {
	db, res := conformance.NewDataset()
	var streams atomic.Int32
	f := newReplicatedFleet(t, db, res, 2, 2, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/query/stream" {
				streams.Add(1)
				w.Header().Set("Content-Type", "application/x-ndjson")
				fmt.Fprintf(w, "{\"error\":\"injected deterministic failure\"}\n")
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	req := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(0, 63)), core.WithTimes(core.Interval(1, 6)))
	var seqErr error
	for _, err := range f.router.EvaluateSeq(context.Background(), req) {
		if err != nil {
			seqErr = err
			break
		}
	}
	if seqErr == nil {
		t.Fatal("injected server error never surfaced — silent truncation")
	}
	if !strings.Contains(seqErr.Error(), "injected deterministic failure") {
		t.Fatalf("surfaced error lost the server's message: %v", seqErr)
	}
	if n := streams.Load(); n > 2 {
		// 2 shards → at most one stream open each; more means the
		// deterministic error was retried on a replica.
		t.Fatalf("deterministic evaluation error was retried: %d stream opens", n)
	}
}
