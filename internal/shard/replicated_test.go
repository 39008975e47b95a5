package shard

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand/v2"
	"sync"
	"testing"

	"ust/internal/conformance"
	"ust/internal/core"
	"ust/internal/markov"
)

// faulty is one in-process backend — a LocalBackend, holding only what
// Import gave it — under seeded fault injection. With err set, every
// read fails with it: a batch read at once, a stream after m results, m
// drawn per stream from [0, maxM] by the backend's seeded rng. With
// refuse set, every write fails. failImports and failEvicts, when not
// nil, are budgets the backends holding them share: while one is
// positive, an Import (Evict) fails without applying anything and takes
// one from it. Faults are armed after the router is built, so every
// backend starts with its whole slice.
type faulty struct {
	Backend
	err    error
	maxM   int
	refuse bool

	failImports, failEvicts *int
	closed                  bool

	mu      sync.Mutex
	rng     *rand.Rand
	reads   int // read calls received
	replays int // streams cut after m > 0 results
}

// newFaulty returns a fault-free faulty over an empty LocalBackend on
// def, its rng seeded by the shard label and replica index.
func newFaulty(def *markov.Chain, label, replica int) *faulty {
	local, _ := LocalFactory(core.Options{})(label, def)
	return &faulty{Backend: local, rng: rand.New(rand.NewPCG(uint64(label), uint64(replica)))}
}

var (
	errRefused    = errors.New("write refused")
	errImportDown = errors.New("import refused")
	errEvictDown  = errors.New("evict refused")
)

// spend takes one from a write budget, reporting whether one was left.
func spend(budget *int) bool {
	if budget == nil || *budget <= 0 {
		return false
	}
	*budget--
	return true
}

// read counts one read call and draws its fault: whether it fails and,
// for a stream, after how many results.
func (f *faulty) read() (m int, fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	if f.err == nil {
		return 0, false
	}
	return f.rng.IntN(f.maxM + 1), true
}

func (f *faulty) counts() (reads, replays int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.replays
}

func (f *faulty) Evaluate(ctx context.Context, req core.Request) (*core.Response, error) {
	if _, fail := f.read(); fail {
		return nil, f.err
	}
	return f.Backend.Evaluate(ctx, req)
}

func (f *faulty) AggregateFactors(ctx context.Context, req core.Request) (*core.FactorSet, error) {
	if _, fail := f.read(); fail {
		return nil, f.err
	}
	return f.Backend.AggregateFactors(ctx, req)
}

func (f *faulty) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		m, fail := f.read()
		if !fail {
			f.Backend.EvaluateSeq(ctx, req)(yield)
			return
		}
		n := 0
		for res, err := range f.Backend.EvaluateSeq(ctx, req) {
			if err != nil || n == m {
				break
			}
			if !yield(res, nil) {
				return
			}
			n++
		}
		if n > 0 {
			f.mu.Lock()
			f.replays++
			f.mu.Unlock()
		}
		yield(core.Result{}, f.err)
	}
}

func (f *faulty) Import(ctx context.Context, gen uint64, objs []*core.Object) error {
	switch {
	case f.refuse:
		return errRefused
	case spend(f.failImports):
		return errImportDown
	}
	return f.Backend.Import(ctx, gen, objs)
}

func (f *faulty) Evict(ctx context.Context, gen uint64, ids []int) error {
	switch {
	case f.refuse:
		return errRefused
	case spend(f.failEvicts):
		return errEvictDown
	}
	return f.Backend.Evict(ctx, gen, ids)
}

func (f *faulty) Close() error {
	f.closed = true
	return f.Backend.Close()
}

// replicatedRouter builds a router over db whose every shard is a
// Replicated over k in-process replicas, and returns each shard's
// replicas by label.
func replicatedRouter(t *testing.T, db *core.Database, shards, k int) (*Router, map[int][]*faulty) {
	t.Helper()
	reps := map[int][]*faulty{}
	router, err := NewWithBackends(db, shards, core.Options{}, func(label int, def *markov.Chain) (Backend, error) {
		backends := make([]Backend, k)
		for j := range backends {
			f := newFaulty(def, label, j)
			reps[label] = append(reps[label], f)
			backends[j] = f
		}
		return NewReplicated(backends, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	return router, reps
}

// TestReplicatedFailover runs the replication decorator over in-process
// replicas: every failover shape must answer the conformance table byte
// for byte like a single engine, and every non-failover shape must
// surface its error without touching another replica.
func TestReplicatedFailover(t *testing.T) {
	down := fmt.Errorf("replica down: %w", ErrUnavailable)
	verify := func(t *testing.T, router *Router, db *core.Database) {
		t.Helper()
		_, res := conformance.NewDataset()
		conformance.Verify(t, res, core.NewEngine(db, core.Options{}), router, conformance.Options{SkipSerialMC: true})
	}
	scan := core.NewRequest(core.PredicateExists,
		core.WithStates(core.Interval(40, 55)), core.WithTimes(core.Interval(5, 8)))
	sighting := core.Observation{Time: 10, PDF: markov.PointDistribution(64, 45)}

	t.Run("before-first-result", func(t *testing.T) {
		db, _ := conformance.NewDataset()
		router, reps := replicatedRouter(t, db, 2, 2)
		for _, rs := range reps {
			rs[0].err = down
		}
		verify(t, router, db)
		for label, rs := range reps {
			if reads, _ := rs[0].counts(); reads == 0 {
				t.Fatalf("shard %d: the failing primary was never tried", label)
			}
		}
	})

	t.Run("replay-after-m", func(t *testing.T) {
		db, _ := conformance.NewDataset()
		router, reps := replicatedRouter(t, db, 2, 2)
		for _, rs := range reps {
			rs[0].err, rs[0].maxM = down, 4
		}
		verify(t, router, db)
		total := 0
		for _, rs := range reps {
			_, replays := rs[0].counts()
			total += replays
		}
		if total == 0 {
			t.Fatal("no stream was cut after emitting results: replay-with-skip never ran")
		}
	})

	t.Run("deterministic-error", func(t *testing.T) {
		db, _ := conformance.NewDataset()
		router, reps := replicatedRouter(t, db, 2, 2)
		broken := errors.New("deterministic failure")
		for _, rs := range reps {
			rs[0].err, rs[0].maxM = broken, 2
		}
		if _, err := router.Evaluate(context.Background(), scan); !errors.Is(err, broken) {
			t.Fatalf("evaluate: %v, want the deterministic error", err)
		}
		var streamErr error
		for _, err := range router.EvaluateSeq(context.Background(), scan) {
			if err != nil {
				streamErr = err
				break
			}
		}
		if !errors.Is(streamErr, broken) {
			t.Fatalf("stream: %v, want the deterministic error", streamErr)
		}
		for label, rs := range reps {
			if reads, _ := rs[1].counts(); reads != 0 {
				t.Fatalf("shard %d: a deterministic error failed over (%d reads on the second replica)", label, reads)
			}
		}
	})

	t.Run("refused-write-marks-stale", func(t *testing.T) {
		// Writes append observations, so the multi-observation table is
		// the one that answers over the written objects.
		db, res := conformance.NewMultiObsDataset()
		router, reps := replicatedRouter(t, db, 2, 2)
		for _, rs := range reps {
			rs[0].refuse = true
		}
		objs := db.Objects()
		for i := 0; i < len(objs); i += 5 {
			if err := router.Observe(objs[i].ID, conformance.NextObservation(db, objs[i])); err != nil {
				t.Fatalf("write with one replica left: %v", err)
			}
		}
		before := map[int]int{}
		for label, rs := range reps {
			before[label], _ = rs[0].counts()
		}
		conformance.VerifyMultiObs(t, db, res, core.NewEngine(db, core.Options{}), router, nil,
			conformance.Options{SkipSerialMC: true})
		for label, rs := range reps {
			if after, _ := rs[0].counts(); after != before[label] {
				t.Fatalf("shard %d: the stale replica served %d reads", label, after-before[label])
			}
		}
		for label, st := range router.ImportFailures() {
			if st != (ImportStatus{StaleReplicas: 1}) {
				t.Fatalf("shard %d: import status %+v, want one stale replica and no failed import", label, st)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// Failing-over streams race writes that mark their primaries
		// stale; every stream stays complete, and the end state matches
		// the oracle.
		db, res := conformance.NewMultiObsDataset()
		router, reps := replicatedRouter(t, db, 2, 2)
		for _, rs := range reps {
			rs[0].err, rs[0].maxM, rs[0].refuse = down, 4, true
		}
		objs, total := db.Objects(), db.Len()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := 0
					for _, err := range router.EvaluateSeq(context.Background(), scan) {
						if err != nil {
							t.Errorf("stream during writes: %v", err)
							return
						}
						n++
					}
					if n != total {
						t.Errorf("stream during writes saw %d objects, want %d", n, total)
						return
					}
				}
			}()
		}
		for i := 0; i < len(objs); i += 3 {
			if err := router.Observe(objs[i].ID, conformance.NextObservation(db, objs[i])); err != nil {
				t.Errorf("write during streams: %v", err)
				break
			}
		}
		close(stop)
		wg.Wait()
		conformance.VerifyMultiObs(t, db, res, core.NewEngine(db, core.Options{}), router, nil,
			conformance.Options{SkipSerialMC: true})
	})

	t.Run("all-stale", func(t *testing.T) {
		db, _ := conformance.NewDataset()
		router, reps := replicatedRouter(t, db, 2, 2)
		target := db.Objects()[2].ID
		for _, f := range reps[router.ring.Owner(target)] {
			f.refuse = true
		}
		if err := router.Observe(target, sighting); !errors.Is(err, errRefused) {
			t.Fatalf("write refused by every replica: %v", err)
		}
		if _, err := router.Evaluate(context.Background(), scan); !errors.Is(err, errNoReplica) {
			t.Fatalf("read with every replica stale: %v, want errNoReplica", err)
		}
		if err := router.Observe(target, sighting); !errors.Is(err, errNoReplica) {
			t.Fatalf("write with every replica stale: %v, want errNoReplica", err)
		}
	})
}
