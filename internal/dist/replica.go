package dist

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"

	"ust/client"
	"ust/internal/core"
	"ust/internal/shard"
)

// ReplicatedBackend serves one shard from k replica workers. Reads go
// to the primary (the shard's top rendezvous owner) and fail over in
// deterministic replica order — probe-dead workers are demoted to
// last-resort, write-failed ("stale") replicas are never read. Writes
// (Import/Evict) mirror the generation fence to every replica; the
// shard keeps accepting writes while at least one replica applies them,
// and a replica that misses a fenced write is marked stale so reads
// can never observe its incomplete slice. Because evaluation is
// deterministic and byte-identical across replicas, a read that fails
// over — even mid-stream — replays on the next replica and skips the
// results already emitted, producing the exact stream one healthy
// worker would have.
type ReplicatedBackend struct {
	replicas []*Backend
	// workers[i] is replicas[i]'s index into the fleet's client slice —
	// the key health probes are recorded under.
	workers []int
	health  HealthView

	mu    sync.Mutex
	stale []bool
}

// NewReplicatedBackend wraps replicas (in deterministic preference
// order: Owners(label, k); index 0 is the primary) with failover reads
// and mirrored writes. workers aligns with replicas; health may be nil
// (connection-level failover only).
func NewReplicatedBackend(replicas []*Backend, workers []int, health HealthView) *ReplicatedBackend {
	return &ReplicatedBackend{
		replicas: replicas,
		workers:  workers,
		health:   health,
		stale:    make([]bool, len(replicas)),
	}
}

// readOrder returns replica indices in the order reads should try
// them: non-stale healthy replicas in preference order, then non-stale
// probe-dead ones as a last resort (the probe can lag a recovery;
// trying a dead-marked replica after every live one failed costs one
// connection attempt and can save the query). Stale replicas never
// appear — their slice is incomplete and reading one would break
// byte-identity.
func (b *ReplicatedBackend) readOrder() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	order := make([]int, 0, len(b.replicas))
	for i := range b.replicas {
		if !b.stale[i] && b.healthyLocked(i) {
			order = append(order, i)
		}
	}
	for i := range b.replicas {
		if !b.stale[i] && !b.healthyLocked(i) {
			order = append(order, i)
		}
	}
	return order
}

func (b *ReplicatedBackend) healthyLocked(i int) bool {
	if b.health == nil {
		return true
	}
	return b.health.Healthy(b.workers[i])
}

func (b *ReplicatedBackend) markStale(i int) {
	b.mu.Lock()
	b.stale[i] = true
	b.mu.Unlock()
}

// failoverable reports whether a read error may be answered by another
// replica. Deterministic evaluation errors (HTTP 500, server-reported
// stream errors) reproduce identically on every replica and must
// surface as-is — retrying them elsewhere would only delay the same
// answer. Backpressure (429) is a signal to the caller, not a worker
// fault. What remains — transport failures (connection refused/reset,
// a stream cut without its done marker) and gateway-class statuses
// (502/503/504, a worker mid-restart or draining) — is exactly the
// "this worker, right now" class failover exists for.
func failoverable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var se *client.ServerStreamError
	if errors.As(err, &se) {
		return false
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status == 502 || ae.Status == 503 || ae.Status == 504
	}
	return true
}

// errNoReplica is returned when every replica was stale — the shard has
// lost all its copies (writes outpaced every replica's availability).
var errNoReplica = errors.New("dist: no live replica holds this shard")

func (b *ReplicatedBackend) Evaluate(ctx context.Context, req core.Request) (*core.Response, error) {
	var lastErr error
	for _, i := range b.readOrder() {
		resp, err := b.replicas[i].Evaluate(ctx, req)
		if err == nil {
			return resp, nil
		}
		if !failoverable(ctx, err) {
			return nil, err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errNoReplica
	}
	return nil, lastErr
}

func (b *ReplicatedBackend) AggregateFactors(ctx context.Context, req core.Request) (*core.FactorSet, error) {
	var lastErr error
	for _, i := range b.readOrder() {
		fs, err := b.replicas[i].AggregateFactors(ctx, req)
		if err == nil {
			return fs, nil
		}
		if !failoverable(ctx, err) {
			return nil, err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errNoReplica
	}
	return nil, lastErr
}

// EvaluateSeq streams with mid-stream failover: if a replica dies after
// emitting part of its stream, the next replica replays the identical
// deterministic stream and the first already-emitted results are
// skipped, so the consumer sees one uninterrupted, byte-identical
// sequence. A server-reported evaluation error surfaces immediately
// (it would reproduce on every replica); only when every replica fails
// mid-transport does the last transport error surface — never a silent
// truncation.
func (b *ReplicatedBackend) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		emitted := 0
		var lastErr error
		for _, i := range b.readOrder() {
			skip := emitted
			failed := false
			for r, err := range b.replicas[i].EvaluateSeq(ctx, req) {
				if err != nil {
					if failoverable(ctx, err) {
						lastErr = err
						failed = true
						break
					}
					yield(core.Result{}, err)
					return
				}
				if skip > 0 {
					skip--
					continue
				}
				if !yield(r, nil) {
					return
				}
				emitted++
			}
			if !failed {
				return
			}
		}
		if lastErr == nil {
			lastErr = errNoReplica
		}
		yield(core.Result{}, lastErr)
	}
}

// Import mirrors the batch to every non-stale replica: the frame is
// encoded once, by the primary's encoder — every replica's dataset was
// created over the same chain and receives every frame, so they hold
// the same chains — and the same bytes go to each. The call succeeds
// while at least one replica applied it; a replica that failed is
// marked stale and drops out of the read set for good (its slice is
// missing a fenced generation — re-admitting it would need a full
// rebuild, which is rebalance territory, not the write path's).
func (b *ReplicatedBackend) Import(ctx context.Context, gen uint64, objs []*core.Object) error {
	if len(objs) == 0 {
		return nil
	}
	frame, err := b.replicas[0].frames.Encode(objs)
	if err != nil {
		return fmt.Errorf("dist: encoding import batch: %w", err)
	}
	return b.mirror(ctx, func(r *Backend) error { return r.sendFrame(ctx, gen, frame) })
}

// Evict mirrors the eviction to every non-stale replica, under the same
// ≥1-replica success rule as Import.
func (b *ReplicatedBackend) Evict(ctx context.Context, gen uint64, ids []int) error {
	return b.mirror(ctx, func(r *Backend) error { return r.Evict(ctx, gen, ids) })
}

// mirror fans one fenced write to every non-stale replica concurrently.
func (b *ReplicatedBackend) mirror(ctx context.Context, apply func(*Backend) error) error {
	b.mu.Lock()
	targets := make([]int, 0, len(b.replicas))
	for i := range b.replicas {
		if !b.stale[i] {
			targets = append(targets, i)
		}
	}
	b.mu.Unlock()
	if len(targets) == 0 {
		return fmt.Errorf("dist: write rejected: %w", errNoReplica)
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for j, i := range targets {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			errs[j] = apply(b.replicas[i])
		}(j, i)
	}
	wg.Wait()
	applied := 0
	var firstErr error
	for j, i := range targets {
		if errs[j] == nil {
			applied++
			continue
		}
		b.markStale(i)
		if firstErr == nil {
			firstErr = errs[j]
		}
	}
	if applied == 0 {
		return firstErr
	}
	return nil
}

// Close is a no-op like the underlying backends': the HTTP clients are
// shared across shards and owned by the caller.
func (b *ReplicatedBackend) Close() error { return nil }

// ReplicatedFactory places each shard on its top-k workers: shard
// labels hash onto a rendezvous ring over worker indices, and
// Ring.Owners(label, k) is the deterministic replica list — index 0
// the primary, the rest the failover order (exactly the owners a ring
// without the dead workers would pick, so failover and rebalance
// agree). Every replica's dataset is bootstrapped (or adopted) under
// the same "<base>.shard<label>" name. replicas is clamped to the
// worker count; health gates the read path and may be nil.
func ReplicatedFactory(base string, workers []*client.Client, replicas int, health HealthView) (shard.BackendFactory, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("dist: no workers")
	}
	if replicas < 1 {
		return nil, fmt.Errorf("dist: replicas must be ≥ 1, got %d", replicas)
	}
	replicas = min(replicas, len(workers))
	wring, err := shard.NewRing(len(workers))
	if err != nil {
		return nil, err
	}
	return func(label int, shadow *core.Database) (shard.Backend, error) {
		owners := wring.Owners(label, replicas)
		name := fmt.Sprintf("%s.shard%d", base, label)
		reps := make([]*Backend, len(owners))
		for j, w := range owners {
			if err := bootstrap(workers[w], name, shadow); err != nil {
				return nil, err
			}
			reps[j] = NewBackend(workers[w], name, shadow.DefaultChain())
		}
		return NewReplicatedBackend(reps, owners, health), nil
	}, nil
}

// NewReplicatedRouter builds a shard.Router whose every shard lives on
// its top-`replicas` workers with health-gated failover reads — the
// coordinator engine for a fleet that survives worker death.
func NewReplicatedRouter(db *core.Database, shards int, opts core.Options, base string, workers []*client.Client, replicas int, health HealthView) (*shard.Router, error) {
	factory, err := ReplicatedFactory(base, workers, replicas, health)
	if err != nil {
		return nil, err
	}
	return shard.NewWithBackends(db, shards, opts, factory)
}
