package shard

import (
	"context"
	"errors"
	"iter"

	"ust/internal/core"
)

// Backend is one shard as the router drives it: the evaluation surface
// the fan-out and merge layers call, plus the mirroring surface that
// keeps the shard's copy of its slice in step with the router's shadow.
// It is the only backend shape. An in-process shard is a core.Engine
// over the shadow database itself (LocalBackend); a remote shard
// dispatches the same calls to a ustserve worker process over the pinned
// wire contract (internal/dist); a replicated shard is a Replicated over
// any backends. The router treats all of them identically — a ring can
// mix them freely.
//
// A read error another copy of the same slice could answer — the copy
// is unreachable or going away, not wrong — is marked with
// ErrUnavailable (errors.Is); Replicated fails over on exactly those.
type Backend interface {
	// Evaluate, EvaluateSeq and AggregateFactors answer requests over
	// the shard's slice, exactly like the corresponding core.Engine
	// methods.
	Evaluate(ctx context.Context, req core.Request) (*core.Response, error)
	EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error]
	AggregateFactors(ctx context.Context, req core.Request) (*core.FactorSet, error)
	// Import mirrors upserts of the given objects onto the shard, in
	// slice order, under the router's migration generation fence: a
	// worker that has already applied a later generation rejects the
	// call instead of double-applying it. In-process shards share the
	// router's shadow database and return immediately.
	Import(ctx context.Context, gen uint64, objs []*core.Object) error
	// Evict removes the given object ids from the shard, under the same
	// generation fence.
	Evict(ctx context.Context, gen uint64, ids []int) error
	// Close releases the backend's resources (connections, goroutines).
	// The router closes backends it retires (Shrink) and every backend
	// on Router.Close.
	Close() error
}

// ErrUnavailable marks a backend error as "this copy, right now": a
// transport failure or a copy restarting or draining. Every other error
// is deterministic — byte-identical engines would reproduce it on any
// copy — and surfaces as-is.
var ErrUnavailable = errors.New("shard: backend unavailable")

// LocalBackend is the in-process shard: a core.Engine over the router's
// shadow database for that shard. Import and Evict are no-ops — the
// engine reads the shadow directly, so the router's own bookkeeping IS
// the shard state.
type LocalBackend struct {
	engine *core.Engine
}

// NewLocalBackend wraps an engine as a shard backend.
func NewLocalBackend(engine *core.Engine) *LocalBackend {
	return &LocalBackend{engine: engine}
}

func (b *LocalBackend) Evaluate(ctx context.Context, req core.Request) (*core.Response, error) {
	return b.engine.Evaluate(ctx, req)
}

func (b *LocalBackend) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return b.engine.EvaluateSeq(ctx, req)
}

func (b *LocalBackend) AggregateFactors(ctx context.Context, req core.Request) (*core.FactorSet, error) {
	return b.engine.AggregateFactors(ctx, req)
}

func (b *LocalBackend) Import(context.Context, uint64, []*core.Object) error { return nil }
func (b *LocalBackend) Evict(context.Context, uint64, []int) error           { return nil }
func (b *LocalBackend) Close() error                                         { return nil }

// BackendFactory builds the backend for one shard. label is the shard's
// ring label; shadow is the router-owned shadow database holding (from
// the backend's point of view, read-only) the shard's slice — a local
// backend builds its engine over it, a remote backend ignores it and
// receives the same slice through Import calls instead.
type BackendFactory func(label int, shadow *core.Database) (Backend, error)

// LocalFactory returns the in-process BackendFactory: every shard is an
// engine over its shadow database with the given options. This is what
// New uses; it is exported so mixed topologies can fall back to it for
// the shards they keep local.
func LocalFactory(opts core.Options) BackendFactory {
	return func(_ int, shadow *core.Database) (Backend, error) {
		return NewLocalBackend(core.NewEngine(shadow, opts)), nil
	}
}
