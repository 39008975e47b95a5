package service

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"ust/internal/core"
)

// Update is one incremental refresh of a standing query: the results
// that are new or changed since the previous update, plus the object
// ids that stopped qualifying (relevant under WithThreshold/WithTopK).
// The first update of a subscription has Full set and carries the
// complete result set. Applying a subscription's updates in sequence
// reproduces, at every step, exactly what a fresh Evaluate of the same
// request would return at that database version.
type Update struct {
	// Seq numbers updates from 1 within a subscription.
	Seq uint64
	// Version is the database generation the results reflect.
	Version uint64
	// Full marks a complete snapshot (always true for the first update).
	Full bool
	// Results are the new-or-changed per-object results, in evaluation
	// order (full result set when Full).
	Results []core.Result
	// Removed lists object ids that appeared in the previous state but
	// no longer qualify.
	Removed []int
}

// Subscription is a standing query over one dataset: updates arrive on
// Updates() as observations are ingested. It is the one standing-query
// mechanism: a push API covering every predicate, strategy and ranking
// a Request can express. Refreshes ride the engine's shared score cache
// so only per-object work is recomputed.
type Subscription struct {
	svc *Service
	ds  *dataset
	req core.Request

	updates chan Update
	dirty   chan struct{}
	stop    chan struct{}
	once    sync.Once

	mu  sync.Mutex
	err error
}

// Subscribe registers a standing query against the named dataset. The
// first update (the full current result set) is computed synchronously
// before Subscribe returns, so a successful Subscribe is immediately
// consistent; it is delivered as the first element on Updates().
// Updates stop — and Updates() is closed — when ctx is cancelled, Close
// is called, the dataset is dropped, or a refresh fails (see Err).
//
// Delivery applies backpressure: a consumer that stops draining
// Updates() blocks further refreshes of its own subscription but never
// blocks ingest or other subscribers.
func (s *Service) Subscribe(ctx context.Context, name string, req core.Request) (*Subscription, error) {
	ds, err := s.dataset(name)
	if err != nil {
		return nil, err
	}
	req, err = ds.resolveRegion(req)
	if err != nil {
		return nil, err
	}
	if _, isAgg := req.AggregateHint(); isAgg {
		// Updates carry per-object result deltas; a count distribution
		// has no incremental form. Poll Evaluate instead.
		return nil, fmt.Errorf("service: aggregate requests have no subscription form: %w", core.ErrAggregateStream)
	}
	sub := &Subscription{
		svc:     s,
		ds:      ds,
		req:     req,
		updates: make(chan Update, 1),
		dirty:   make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	// Register BEFORE the snapshot evaluation: an ingest landing between
	// the snapshot and registration would otherwise notify nobody and
	// the subscriber would silently miss that generation. Registering
	// first means such an ingest sets the dirty flag and the refresh
	// loop reconciles (a refresh that observes the snapshot's version is
	// a no-op). The closed check covers the racing Drop/Close window —
	// without it a subscription could be added to an already-swept map
	// and hang forever.
	ds.subMu.Lock()
	if ds.subsClosed {
		err := ds.subsErr
		ds.subMu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	ds.subs[sub] = struct{}{}
	ds.subMu.Unlock()
	s.subs.Add(1)

	deregister := func() {
		ds.subMu.Lock()
		delete(ds.subs, sub)
		ds.subMu.Unlock()
		s.subs.Add(-1)
	}
	resp, version, err := s.evaluateLocked(ctx, ds, req)
	if err != nil {
		deregister()
		return nil, err
	}
	first := Update{Seq: 1, Version: version, Full: true, Results: resp.Results}
	if first.Results == nil {
		first.Results = []core.Result{}
	}
	sub.updates <- first
	s.updates.Add(1)

	go sub.run(ctx, resultMap(resp.Results), version)
	return sub, nil
}

// Updates delivers the subscription's refreshes, starting with the full
// snapshot. The channel is closed when the subscription ends.
func (sub *Subscription) Updates() <-chan Update { return sub.updates }

// Request returns the standing request.
func (sub *Subscription) Request() core.Request { return sub.req }

// Err reports why the subscription ended: nil after a clean Close or
// context cancellation, the refresh error otherwise.
func (sub *Subscription) Err() error {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.err
}

// Close terminates the subscription. Safe to call multiple times and
// concurrently with delivery.
func (sub *Subscription) Close() { sub.close(nil) }

func (sub *Subscription) close(err error) {
	sub.once.Do(func() {
		sub.mu.Lock()
		sub.err = err
		sub.mu.Unlock()
		close(sub.stop)
	})
}

// run is the refresh loop: wait for an ingest signal, re-evaluate, diff
// against the previous state, deliver. One signal may batch several
// ingests — the refresh always reflects the newest state, never an
// intermediate one it missed.
func (sub *Subscription) run(ctx context.Context, last map[int]core.Result, version uint64) {
	defer func() {
		sub.ds.subMu.Lock()
		delete(sub.ds.subs, sub)
		sub.ds.subMu.Unlock()
		sub.svc.subs.Add(-1)
		close(sub.updates)
	}()
	seq := uint64(1)
	for {
		select {
		case <-sub.stop:
			return
		case <-ctx.Done():
			return
		case <-sub.dirty:
		}
		resp, newVersion, err := sub.svc.evaluateLocked(ctx, sub.ds, sub.req)
		if err != nil {
			if ctx.Err() == nil {
				sub.close(err)
			}
			return
		}
		if newVersion == version {
			continue
		}
		changed, removed := diffResults(last, resp.Results)
		version = newVersion
		last = resultMap(resp.Results)
		if len(changed) == 0 && len(removed) == 0 {
			continue
		}
		seq++
		up := Update{Seq: seq, Version: newVersion, Results: changed, Removed: removed}
		select {
		case sub.updates <- up:
			sub.svc.updates.Add(1)
		case <-sub.stop:
			return
		case <-ctx.Done():
			return
		}
	}
}

// notify marks the subscription dirty (coalescing repeated signals).
func (sub *Subscription) notify() {
	select {
	case sub.dirty <- struct{}{}:
	default:
	}
}

// notifySubs signals every subscription of the dataset after an ingest.
func (ds *dataset) notifySubs() {
	ds.subMu.Lock()
	subs := make([]*Subscription, 0, len(ds.subs))
	for sub := range ds.subs {
		subs = append(subs, sub)
	}
	ds.subMu.Unlock()
	for _, sub := range subs {
		sub.notify()
	}
}

// closeSubs force-terminates every subscription (dataset drop, service
// shutdown) and rejects future registrations with the same reason.
func (ds *dataset) closeSubs(err error) {
	ds.subMu.Lock()
	ds.subsClosed = true
	ds.subsErr = err
	subs := make([]*Subscription, 0, len(ds.subs))
	for sub := range ds.subs {
		subs = append(subs, sub)
	}
	ds.subMu.Unlock()
	for _, sub := range subs {
		sub.close(err)
	}
}

func resultMap(rs []core.Result) map[int]core.Result {
	m := make(map[int]core.Result, len(rs))
	for _, r := range rs {
		m[r.ObjectID] = r
	}
	return m
}

// diffResults splits a fresh result set against the previous state into
// changed-or-new results (fresh evaluation order) and disappeared ids
// (ascending).
func diffResults(last map[int]core.Result, fresh []core.Result) (changed []core.Result, removed []int) {
	seen := make(map[int]struct{}, len(fresh))
	for _, r := range fresh {
		seen[r.ObjectID] = struct{}{}
		prev, ok := last[r.ObjectID]
		if !ok || prev.Prob != r.Prob || !slices.Equal(prev.Dist, r.Dist) {
			changed = append(changed, r)
		}
	}
	for id := range last {
		if _, ok := seen[id]; !ok {
			removed = append(removed, id)
		}
	}
	slices.Sort(removed)
	return changed, removed
}
