package dist

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"ust/client"
	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/shard"
	"ust/internal/store"
)

// Backend is one remote shard: the shard.Backend surface dispatched to
// a ustserve worker's dataset over the wire contract. Results come back
// with the exact float64 bits the worker computed, so the router's
// merge stays byte-identical to the in-process case. Read errors are
// classified (see classify), so a shard.Replicated over Backends fails
// over exactly when another worker could answer.
type Backend struct {
	c       *client.Client
	dataset string
	// frames encodes import batches against what the worker dataset
	// holds. Not locked: Import calls on one backend never overlap (the
	// router serializes them, and the generation fence presumes an
	// order).
	frames *store.FrameEncoder
}

// NewBackend wraps a worker dataset as a shard backend. chain is the
// default chain of the database the shard serves a slice of; the worker
// dataset was created over it (bootstrap), so import frames only ever
// name it.
func NewBackend(c *client.Client, dataset string, chain *markov.Chain) *Backend {
	return &Backend{c: c, dataset: dataset, frames: store.NewFrameEncoder(chain)}
}

// unavailable marks an error with shard.ErrUnavailable without changing
// its text.
type unavailable struct{ error }

func (e unavailable) Unwrap() []error { return []error{e.error, shard.ErrUnavailable} }

// classify marks the "this worker, right now" read errors with
// shard.ErrUnavailable: transport failures (connection refused or
// reset, a stream cut without its done marker) and gateway-class
// statuses (502/503/504, a worker mid-restart or draining).
// Deterministic evaluation errors (HTTP 500, a server-reported stream
// error) reproduce identically on every replica, and a 429 is
// backpressure, not a fault; those pass through unmarked.
func classify(err error) error {
	var se *client.ServerStreamError
	var ae *client.APIError
	switch {
	case err == nil, errors.As(err, &se):
		return err
	case errors.As(err, &ae) && ae.Status != 502 && ae.Status != 503 && ae.Status != 504:
		return err
	}
	return unavailable{err}
}

func (b *Backend) Evaluate(ctx context.Context, req core.Request) (*core.Response, error) {
	resp, err := b.c.Query(ctx, b.dataset, req)
	return resp, classify(err)
}

// errStopSeq aborts the underlying HTTP stream when the seq consumer
// breaks early; it never escapes EvaluateSeq.
var errStopSeq = errors.New("dist: seq consumer stopped")

func (b *Backend) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		err := b.c.QueryStream(ctx, b.dataset, req, func(r core.Result) error {
			if !yield(r, nil) {
				return errStopSeq
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopSeq) {
			yield(core.Result{}, classify(err))
		}
	}
}

func (b *Backend) AggregateFactors(ctx context.Context, req core.Request) (*core.FactorSet, error) {
	fs, err := b.c.Factors(ctx, b.dataset, req)
	return fs, classify(err)
}

// Import ships a batch to the worker as one object frame (insertion
// order preserved — the order the router hands the objects in is the
// order the worker's database adopts, which is what keeps the worker's
// emission order the one the router's catalogue predicts), applied
// under the generation fence.
func (b *Backend) Import(ctx context.Context, gen uint64, objs []*core.Object) error {
	if len(objs) == 0 {
		return nil
	}
	frame, err := b.frames.Encode(objs)
	if err != nil {
		return fmt.Errorf("dist: encoding import batch: %w", err)
	}
	// After a failure nothing is assumed about which own chains the
	// worker holds, so a lost frame or a worker answering "unknown
	// fingerprint" costs one inline re-send, not every later write.
	if err := b.c.ImportObjects(ctx, b.dataset, gen, frame); err != nil {
		b.frames.Reset()
		return err
	}
	return nil
}

func (b *Backend) Evict(ctx context.Context, gen uint64, ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	return b.c.EvictObjects(ctx, b.dataset, gen, ids)
}

// Close is a no-op: the HTTP client is shared across backends and owned
// by the caller.
func (b *Backend) Close() error { return nil }
