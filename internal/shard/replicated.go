package shard

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"

	"ust/internal/core"
)

// Replicated serves one shard from several copies of its slice, each any
// Backend. Reads go to the first replica and fail over in replica order
// — replicas healthy reports dead are demoted to last resort,
// write-failed ("stale") replicas are never read. Writes (Import/Evict)
// mirror the generation fence to every replica; the shard keeps
// accepting writes while at least one replica applies them, and a
// replica that misses a fenced write is marked stale so reads can never
// observe its incomplete slice. Because evaluation is deterministic and
// byte-identical across replicas, a read that fails over — even
// mid-stream — replays on the next replica and skips the results
// already emitted, producing the exact stream one healthy replica would
// have. Only errors marked ErrUnavailable fail over, and never once ctx
// is done.
type Replicated struct {
	replicas []Backend
	healthy  func(replica int) bool

	mu    sync.Mutex
	stale []bool
}

// NewReplicated wraps replicas (in preference order: index 0 is the
// primary). healthy, keyed by index into replicas, may be nil: every
// replica then counts as healthy and failover is driven by errors alone.
func NewReplicated(replicas []Backend, healthy func(replica int) bool) *Replicated {
	return &Replicated{replicas: replicas, healthy: healthy, stale: make([]bool, len(replicas))}
}

// errNoReplica is returned when every replica is stale — the shard has
// lost all its copies (writes outpaced every replica's availability).
var errNoReplica = errors.New("shard: no live replica holds this shard")

// readOrder returns replica indices in the order reads should try them:
// non-stale healthy replicas in preference order, then non-stale
// unhealthy ones as a last resort (a probe can lag a recovery; trying a
// dead-marked replica after every live one failed costs one attempt and
// can save the query). Stale replicas never appear — their slice is
// incomplete and reading one would break byte-identity.
func (b *Replicated) readOrder() []int {
	var live, dead []int
	for i, stale := range b.staleMarks() {
		switch {
		case stale:
		case b.healthy == nil || b.healthy(i):
			live = append(live, i)
		default:
			dead = append(dead, i)
		}
	}
	return append(live, dead...)
}

// staleMarks snapshots which replicas are stale.
func (b *Replicated) staleMarks() []bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.stale)
}

// firstLive runs try on each replica in read order until one succeeds
// or fails with an error another replica would not fix. It returns the
// last error, errNoReplica when no replica is readable.
func (b *Replicated) firstLive(ctx context.Context, try func(Backend) error) error {
	err := errNoReplica
	for _, i := range b.readOrder() {
		err = try(b.replicas[i])
		if err == nil || ctx.Err() != nil || !errors.Is(err, ErrUnavailable) {
			return err
		}
	}
	return err
}

func (b *Replicated) Evaluate(ctx context.Context, req core.Request) (resp *core.Response, err error) {
	err = b.firstLive(ctx, func(r Backend) (err error) {
		resp, err = r.Evaluate(ctx, req)
		return err
	})
	return resp, err
}

func (b *Replicated) AggregateFactors(ctx context.Context, req core.Request) (fs *core.FactorSet, err error) {
	err = b.firstLive(ctx, func(r Backend) (err error) {
		fs, err = r.AggregateFactors(ctx, req)
		return err
	})
	return fs, err
}

// EvaluateSeq streams with mid-stream failover: when a replica dies
// after emitting part of its stream, the next replica replays the
// identical stream and the results already emitted are skipped, so the
// consumer sees one uninterrupted, byte-identical sequence — or, when
// every replica fails, the last error. Never a silent truncation.
func (b *Replicated) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		emitted := 0
		err := b.firstLive(ctx, func(r Backend) error {
			skip := emitted
			for res, err := range r.EvaluateSeq(ctx, req) {
				if err != nil {
					return err
				}
				if skip > 0 {
					skip--
					continue
				}
				if !yield(res, nil) {
					return nil // the consumer stopped
				}
				emitted++
			}
			return nil
		})
		if err != nil {
			yield(core.Result{}, err)
		}
	}
}

// Import mirrors the batch to every non-stale replica, each through its
// own Import (a remote replica encodes its own frame).
func (b *Replicated) Import(ctx context.Context, gen uint64, objs []*core.Object) error {
	return b.mirror(func(r Backend) error { return r.Import(ctx, gen, objs) })
}

// Evict mirrors the eviction to every non-stale replica.
func (b *Replicated) Evict(ctx context.Context, gen uint64, ids []int) error {
	return b.mirror(func(r Backend) error { return r.Evict(ctx, gen, ids) })
}

// mirror applies one fenced write to every non-stale replica
// concurrently. It succeeds while at least one replica applied it; a
// replica that failed is marked stale and drops out of the read set for
// good (its slice is missing a fenced generation — re-admitting it
// needs a rebuild, not a retry).
func (b *Replicated) mirror(apply func(Backend) error) error {
	var targets []int
	for i, stale := range b.staleMarks() {
		if !stale {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("shard: write rejected: %w", errNoReplica)
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for j, i := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = apply(b.replicas[i])
		}()
	}
	wg.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	var firstErr error
	applied := false
	for j, i := range targets {
		if errs[j] == nil {
			applied = true
			continue
		}
		b.stale[i] = true
		if firstErr == nil {
			firstErr = errs[j]
		}
	}
	if applied {
		return nil
	}
	return firstErr
}

// Close closes every replica and returns the first error.
func (b *Replicated) Close() error {
	var first error
	for _, r := range b.replicas {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
