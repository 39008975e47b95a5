package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ust/internal/core"
)

// Single-flight coalescing of identical in-flight evaluations. Unlike
// the classic singleflight (where the first caller's goroutine runs the
// function and its cancellation kills every follower), the evaluation
// here runs on its own goroutine under a context detached from any one
// caller: a waiter that gives up stops waiting without aborting the
// others, and the shared evaluation is cancelled only when the last
// waiter has left. That makes coalescing safe to apply to requests with
// heterogeneous deadlines.

// flightCall is one in-flight evaluation with its waiter registry.
// joined counts the callers that joined the leader, under the group's
// mutex; the key is forgotten before done closes, so by then the count
// is final and readable without the lock.
type flightCall struct {
	done    chan struct{}
	resp    *core.Response
	err     error
	waiters int
	joined  int
	cancel  context.CancelFunc
}

// flightGroup indexes in-flight evaluations by request key. coalesced
// counts joins (incremented at join time, so saturation is observable
// while the shared evaluation is still running).
type flightGroup struct {
	mu        sync.Mutex
	calls     map[string]*flightCall
	coalesced *atomic.Uint64
}

// do returns the response of the evaluation identified by key, starting
// it when absent, and whether that response went to more than one
// caller. timeout, when positive, bounds the detached evaluation itself
// — the callers' own deadlines only bound their waiting.
func (g *flightGroup) do(ctx context.Context, key string, timeout time.Duration,
	fn func(context.Context) (*core.Response, error)) (resp *core.Response, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		c.joined++
		g.mu.Unlock()
		if g.coalesced != nil {
			g.coalesced.Add(1)
		}
		return g.wait(ctx, key, c)
	}
	evalCtx := context.WithoutCancel(ctx)
	var cancel context.CancelFunc
	if timeout > 0 {
		evalCtx, cancel = context.WithTimeout(evalCtx, timeout)
	} else {
		evalCtx, cancel = context.WithCancel(evalCtx)
	}
	c := &flightCall{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	g.mu.Unlock()

	go func() {
		defer cancel()
		c.resp, c.err = fn(evalCtx)
		g.mu.Lock()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		close(c.done)
	}()

	return g.wait(ctx, key, c)
}

// wait blocks until the call completes or the caller's context expires.
// The last waiter to leave cancels the detached evaluation AND forgets
// the key immediately (not when fn eventually returns): a later caller
// with a live context must start a fresh evaluation, never inherit the
// cancellation error of a call everyone abandoned.
func (g *flightGroup) wait(ctx context.Context, key string, c *flightCall) (*core.Response, bool, error) {
	select {
	case <-c.done:
		return c.resp, c.joined > 0, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		abandoned := c.waiters == 0
		if abandoned && g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		if abandoned {
			c.cancel()
		}
		return nil, false, ctx.Err()
	}
}
