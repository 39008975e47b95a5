package dist_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ust/client"
	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/dist"
	"ust/internal/gen"
	"ust/internal/markov"
	"ust/internal/service"
	"ust/internal/store"
)

// importLog records the size of every /import body a coordinator sends
// through the transports it wraps.
type importLog struct {
	mu   sync.Mutex
	size []int64
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func (l *importLog) wrap(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if strings.HasSuffix(req.URL.Path, "/import") {
			l.mu.Lock()
			l.size = append(l.size, req.ContentLength)
			l.mu.Unlock()
		}
		return next.RoundTrip(req)
	})
}

// drain returns the sizes recorded since the last drain.
func (l *importLog) drain() []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.size
	l.size = nil
	return out
}

// TestObserveShipsObjectNotChain pins the write path's wire cost at the
// paper's state-space size: on a 2-worker fleet over the Table I chain
// (|S|=10⁴, ~880 KB encoded) one Observe sends one import body under
// 4 KiB — the object, with the chain by fingerprint — and the fleet's
// answers still equal the single engine's bit for bit.
func TestObserveShipsObjectNotChain(t *testing.T) {
	p := gen.Defaults(42)
	p.NumObjects = 60
	p.NumStates = 10000
	ds := gen.MustGenerate(p)
	build := func() *core.Database {
		db := core.NewDatabase(ds.Chain)
		for i, o := range ds.Objects {
			if err := db.AddSimple(i, o); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	db, oracleDB := build(), build()

	log := &importLog{}
	f := newFleetVia(t, db, nil, 2, core.Options{}, log.wrap)
	log.drain() // set-up imports

	// A sighting the motion model can reach from the object's start.
	reachable := ds.Chain.Evolve(ds.Objects[17].Vec(), 3).Support()
	obs := core.Observation{Time: 3, PDF: markov.UniformOver(p.NumStates, reachable[:2])}
	if err := f.router.Observe(17, obs); err != nil {
		t.Fatal(err)
	}
	sizes := log.drain()
	if len(sizes) != 1 || sizes[0] <= 0 || sizes[0] >= 4<<10 {
		t.Fatalf("one Observe sent import bodies %v, want exactly one under 4 KiB", sizes)
	}
	upd, err := oracleDB.Get(17).WithObservation(obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracleDB.ReplaceObject(upd); err != nil {
		t.Fatal(err)
	}

	w := gen.DefaultWindow()
	oracle := core.NewEngine(oracleDB, core.Options{})
	for _, st := range []core.Strategy{core.StrategyQueryBased, core.StrategyObjectBased} {
		req := core.NewRequest(core.PredicateExists, core.WithWindow(core.NewQuery(w.States(p.NumStates), w.Times())), core.WithStrategy(st))
		want, err := oracle.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.router.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("strategy %v: fleet diverged from the single engine after the write", st)
		}
	}
}

// TestOwnChainMigratesByFingerprint follows an own-chain group through
// Grow onto a fresh worker: the migration batch carries the chain inline
// exactly once (however many of its objects move), a later write to one
// of them references it, and on the worker every object of the group
// shares one chain pointer — so the group stays one group and the
// answers stay byte-identical.
func TestOwnChainMigratesByFingerprint(t *testing.T) {
	db, res := conformance.NewDataset() // every third object follows its own "drift" chain
	f := newFleet(t, db, res, 2, core.Options{})

	var drift *markov.Chain
	for _, o := range db.Objects() {
		if o.Chain != nil {
			drift = o.Chain
			break
		}
	}
	var chainImage bytes.Buffer
	if err := store.SaveChain(&chainImage, drift); err != nil {
		t.Fatal(err)
	}
	chainBytes := int64(chainImage.Len())

	wsvc := service.New(service.Config{Role: "worker"})
	if err := wsvc.Create("conf.shard2", core.NewDatabase(db.DefaultChain()), res); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(wsvc))
	t.Cleanup(func() { wsvc.Close(); ts.Close() })
	hc := ts.Client()
	log := &importLog{}
	hc.Transport = log.wrap(hc.Transport)
	grown := client.NewWithConfig(ts.URL, client.Config{HTTPClient: hc})
	if _, err := f.router.Grow(dist.Factory("conf", []*client.Client{grown}, 1, nil)); err != nil {
		t.Fatal(err)
	}

	eng, err := wsvc.Engine("conf.shard2")
	if err != nil {
		t.Fatal(err)
	}
	var moved []*core.Object // the drift objects now on the grown worker
	for _, o := range eng.Database().Objects() {
		if o.Chain != nil {
			moved = append(moved, o)
		}
	}
	if len(moved) < 2 {
		t.Fatalf("only %d own-chain objects moved; the dataset no longer exercises the case", len(moved))
	}
	sizes := log.drain()
	if len(sizes) != 1 || sizes[0] < chainBytes || sizes[0] >= 2*chainBytes {
		t.Fatalf("migration bodies %v for %d own-chain objects: want one body carrying the %d-byte chain exactly once",
			sizes, len(moved), chainBytes)
	}
	for _, o := range moved {
		if o.Chain != moved[0].Chain {
			t.Fatal("own-chain group split into several chain pointers on the worker")
		}
	}

	// A write to one of them (a fresh single sighting: the conformance
	// table wants single-observation objects) names the chain again.
	id := moved[0].ID
	sighting := core.Observation{Time: 1, PDF: markov.UniformOver(64, []int{10, 30, 50})}
	if err := f.router.ReplaceObject(core.MustObject(id, drift, sighting)); err != nil {
		t.Fatal(err)
	}
	sizes = log.drain()
	if len(sizes) != 1 || sizes[0] >= chainBytes/2 {
		t.Fatalf("write after the migration sent bodies %v: the %d-byte chain travelled inline again", sizes, chainBytes)
	}
	if got := eng.Database().Get(id).Chain; got != moved[1].Chain {
		t.Fatal("referenced own chain did not resolve to the worker's canonical pointer")
	}
	ref := core.NewEngine(db, core.Options{})
	conformance.Verify(t, res, ref, f.router, conformance.Options{SkipSerialMC: true})
}
