package core

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// Board is the compute-once mechanism of the read path: a
// concurrency-safe, byte-budgeted LRU whose keys carry a lease. A key
// on the board is in exactly one of two states:
//
//	LEASED — one caller holds the computation right; every other
//	         Acquire of the key blocks on the entry's wake channel
//	FILLED — the value is published; every Acquire returns it
//
// and a key that is neither is simply not on the board:
//
//	          Acquire                Fill / Put
//	absent ───────────▶ LEASED ───────────────────▶ FILLED
//	   ▲                 │  ▲ TTL takeover             │
//	   └──── Release ────┘  └─(same state, new lease)  │
//	   └──────────────── eviction / Clear ─────────────┘
//
// So concurrent callers that miss the same key serialize on it, exactly
// one computes, and the rest adopt the value; holders of different keys
// never contend beyond the map access. A waiter honours its own ctx. A
// released lease and an evicted value both forget the key entirely, so
// nothing a caller can do leaves residue behind. With a TTL, a lease
// whose holder never settles it is re-granted to the next caller once
// it expires (the holder's late Fill is then refused); without one the
// holder must Fill or Release.
//
// The engine's score cache is a Board[scoreKey, scoreValue] without a
// TTL; the coordinator's sweep board (service.SweepBoard) is a
// Board[SweepKey, []byte] with one.
type Board[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int // byte budget; filled entries are evicted LRU-first beyond it
	ttl      time.Duration
	size     func(V) int
	bytes    int
	lru      *list.List // filled entries, most recently used at the front
	entries  map[K]*boardEntry[K, V]
	leaseSeq uint64
	stats    BoardStats
}

type boardEntry[K comparable, V any] struct {
	key     K
	val     V
	el      *list.Element // LRU position; non-nil exactly when FILLED
	lease   uint64        // the current lease; non-zero exactly when LEASED
	expires time.Time     // lease expiry (boards with a TTL)
	// wake is closed on every transition out of the current lease (fill,
	// release, takeover), so a waiter blocks on exactly one of them and
	// then looks again.
	wake chan struct{}
}

// BoardStats is a snapshot of a board's lifetime counters and current
// residency.
type BoardStats struct {
	// Leases counts computation rights granted, Fills the values
	// published, Served the lookups answered from a published value,
	// Takeovers the leases re-granted after their holder's TTL ran out,
	// Evictions the values dropped to respect the byte budget.
	Leases, Fills, Served, Takeovers, Evictions uint64
	// Entries and Bytes describe the published values.
	Entries, Bytes int
}

// NewBoard builds a board holding roughly capacity bytes of values as
// measured by size. ttl bounds how long a lease may stay unsettled
// before the next caller takes it over; 0 means leases never expire.
func NewBoard[K comparable, V any](capacity int, ttl time.Duration, size func(V) int) *Board[K, V] {
	return &Board[K, V]{
		capacity: capacity,
		ttl:      ttl,
		size:     size,
		lru:      list.New(),
		entries:  map[K]*boardEntry[K, V]{},
	}
}

// Acquire returns the value published under key, or — when there is
// none — a lease: a non-zero token that obliges the caller to Fill or
// Release. While another caller holds the lease Acquire blocks, and
// returns ctx.Err() if the caller's context ends first.
func (b *Board[K, V]) Acquire(ctx context.Context, key K) (val V, lease uint64, err error) {
	for {
		b.mu.Lock()
		e := b.entries[key]
		if e == nil {
			e = &boardEntry[K, V]{key: key}
			b.entries[key] = e
		}
		if e.el != nil {
			b.lru.MoveToFront(e.el)
			b.stats.Served++
			val = e.val
			b.mu.Unlock()
			return val, 0, nil
		}
		expired := e.lease != 0 && b.ttl > 0 && time.Now().After(e.expires)
		if e.lease == 0 || expired {
			if expired {
				// The holder is presumed dead: move its waiters onto the
				// new grant.
				b.stats.Takeovers++
				close(e.wake)
			}
			b.leaseSeq++
			e.lease = b.leaseSeq
			e.wake = make(chan struct{})
			if b.ttl > 0 {
				e.expires = time.Now().Add(b.ttl)
			}
			b.stats.Leases++
			lease = e.lease
			b.mu.Unlock()
			return val, lease, nil
		}
		wake := e.wake
		var timer *time.Timer
		var timeout <-chan time.Time
		if b.ttl > 0 {
			timer = time.NewTimer(time.Until(e.expires))
			timeout = timer.C
		}
		b.mu.Unlock()

		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-wake:
		case <-timeout:
			// Lease expired unsettled: look again and take over.
		}
		if timer != nil {
			timer.Stop()
		}
		if err != nil {
			return val, 0, err
		}
	}
}

// Fill publishes val under a held lease and wakes every waiter. It
// reports false — and publishes nothing — when lease is not the key's
// current one: the board re-granted it after its TTL, or a Put got
// there first.
func (b *Board[K, V]) Fill(key K, lease uint64, val V) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || lease == 0 || e.lease != lease {
		return false
	}
	b.publishLocked(e, val)
	return true
}

// Release abandons a held lease without a value (the compute failed):
// the key is forgotten and a waiter, if any, is granted a fresh lease
// at once. A stale lease is ignored.
func (b *Board[K, V]) Release(key K, lease uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || lease == 0 || e.lease != lease {
		return
	}
	delete(b.entries, key)
	close(e.wake)
}

// Put publishes a value nobody leased (the batch optimizer's fused
// sweeps). A value already published wins over the newcomer — readers
// may share it; a lease in progress is overtaken, its waiters woken
// onto the value and the holder's eventual Fill refused.
func (b *Board[K, V]) Put(key K, val V) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	switch {
	case e == nil:
		e = &boardEntry[K, V]{key: key}
		b.entries[key] = e
	case e.el != nil:
		b.lru.MoveToFront(e.el)
		return
	}
	b.publishLocked(e, val)
}

// publishLocked moves an absent-or-leased entry to FILLED and evicts
// beyond the byte budget. The newest value always survives its own
// insert, even when it alone exceeds the budget — refusing it would
// turn a hot oversized sweep into a permanent miss. (A caller that must
// not retain such a value checks before filling, as SweepBoard does.)
func (b *Board[K, V]) publishLocked(e *boardEntry[K, V], val V) {
	if e.lease != 0 {
		e.lease = 0
		close(e.wake)
	}
	e.val = val
	e.el = b.lru.PushFront(e)
	b.bytes += b.size(val)
	b.stats.Fills++
	for b.bytes > b.capacity && b.lru.Len() > 1 {
		b.removeLocked(b.lru.Back())
		b.stats.Evictions++
	}
}

func (b *Board[K, V]) removeLocked(el *list.Element) {
	e := b.lru.Remove(el).(*boardEntry[K, V])
	delete(b.entries, e.key)
	b.bytes -= b.size(e.val)
}

// Contains reports whether a value is published under key, without
// touching LRU order or the counters.
func (b *Board[K, V]) Contains(key K) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	return e != nil && e.el != nil
}

// Clear drops every published value (leases in progress stay) and
// returns how many there were.
func (b *Board[K, V]) Clear() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.lru.Len()
	for b.lru.Len() > 0 {
		b.removeLocked(b.lru.Back())
	}
	return n
}

// Stats snapshots the counters and the current residency.
func (b *Board[K, V]) Stats() BoardStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.Entries = b.lru.Len()
	s.Bytes = b.bytes
	return s
}
