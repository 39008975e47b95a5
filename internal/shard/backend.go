package shard

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"ust/internal/core"
	"ust/internal/markov"
)

// Backend is one shard as the router drives it: the evaluation surface
// the fan-out and merge layers call, plus the write surface through
// which the shard's slice reaches it. The backend holds its slice; the
// router keeps only a catalogue of the ids it handed over. It is the
// only backend shape. An in-process shard is a core.Engine over a
// database of its own (LocalBackend); a remote shard dispatches the same
// calls to a ustserve worker process over the pinned wire contract
// (internal/dist); a replicated shard is a Replicated over any backends.
// The router treats all of them identically — a ring can mix them
// freely.
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
	// Import upserts the given objects into the shard, in slice order: a
	// new id goes to the end of the shard's insertion order, a known one
	// keeps its place. It runs under the router's migration generation
	// fence: a worker that has already applied a later generation rejects
	// the call instead of double-applying it.
	Import(ctx context.Context, gen uint64, objs []*core.Object) error
	// Evict removes the given object ids from the shard, under the same
	// generation fence — every id or, when one is unknown or repeated,
	// none.
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

// LocalBackend is the in-process shard: a core.Engine over a database
// the backend owns. Import and Evict apply to that database exactly as
// a worker's ImportObjects and EvictObjects apply to its dataset, so an
// in-process shard holds what a remote one would. Writes must not
// overlap evaluation; the router excludes them.
type LocalBackend struct {
	engine *core.Engine
}

// NewLocalBackend wraps an engine as a shard backend. The backend owns
// the engine's database from then on: it starts with whatever the
// database holds, and only Import and Evict change it.
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

// Import upserts objs in slice order. The local shard has no fence to
// check: the router is its only writer.
func (b *LocalBackend) Import(_ context.Context, _ uint64, objs []*core.Object) error {
	db := b.engine.Database()
	for _, o := range objs {
		upsert := db.Add
		if db.Get(o.ID) != nil {
			upsert = db.ReplaceObject
		}
		if err := upsert(o); err != nil {
			return err
		}
	}
	return nil
}

// Evict removes every id, or refuses the batch before removing any when
// one is unknown or repeated.
func (b *LocalBackend) Evict(_ context.Context, _ uint64, ids []int) error {
	db := b.engine.Database()
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if db.Get(id) == nil || seen[id] {
			return fmt.Errorf("shard: cannot evict object %d: unknown or repeated", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		_ = db.Remove(id) // checked above
	}
	return nil
}

func (b *LocalBackend) Close() error { return nil }

// BackendFactory builds the backend for one shard. label is the shard's
// ring label; def is the default chain of the router's database, which
// the shard's own database (in process or on a worker) must share. The
// backend starts empty and receives its slice through Import.
type BackendFactory func(label int, def *markov.Chain) (Backend, error)

// LocalFactory returns the in-process BackendFactory: every shard is an
// engine, with the given options, over an empty database of its own.
// This is what New uses; it is exported so mixed topologies can fall
// back to it for the shards they keep local.
func LocalFactory(opts core.Options) BackendFactory {
	return func(_ int, def *markov.Chain) (Backend, error) {
		return NewLocalBackend(core.NewEngine(core.NewDatabase(def), opts)), nil
	}
}
