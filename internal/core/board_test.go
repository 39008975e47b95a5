package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// testBoard builds a Board[int, string] sized by string length.
func testBoard(capacity int, ttl time.Duration) *Board[int, string] {
	return NewBoard[int](capacity, ttl, func(s string) int { return len(s) })
}

// mustLease acquires key and fails the test unless a lease is granted.
func mustLease(t *testing.T, b *Board[int, string], key int) uint64 {
	t.Helper()
	v, lease, err := b.Acquire(context.Background(), key)
	if err != nil || lease == 0 {
		t.Fatalf("acquire %d: value %q lease %d err %v, want a lease", key, v, lease, err)
	}
	return lease
}

// mustServe acquires key and fails the test unless want is served.
func mustServe(t *testing.T, b *Board[int, string], key int, want string) {
	t.Helper()
	v, lease, err := b.Acquire(context.Background(), key)
	if err != nil || lease != 0 || v != want {
		t.Fatalf("acquire %d: value %q lease %d err %v, want %q served", key, v, lease, err, want)
	}
}

type outcome struct {
	val   string
	lease uint64
	err   error
}

// waiter starts an Acquire meant to block behind a held lease and
// returns the channel its outcome arrives on. It pauses so the Acquire
// has every chance to park first; the transitions under test are correct
// whether or not it has (a late Acquire simply sees the new state), so
// the pause only makes the blocked path the likely one.
func waiter(ctx context.Context, b *Board[int, string], key int) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		v, l, err := b.Acquire(ctx, key)
		out <- outcome{v, l, err}
	}()
	time.Sleep(10 * time.Millisecond)
	return out
}

func await(t *testing.T, out <-chan outcome) outcome {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
		return outcome{}
	}
}

// TestBoardStateMachine walks every transition of the FILLED/LEASED
// state machine. It replaces the score cache's key-lock test and is the
// generic twin of the service package's TestSweepBoard* cases, which
// keep running through the SweepBoard adapter.
func TestBoardStateMachine(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"acquire, fill, adopt", func(t *testing.T) {
			b := testBoard(1<<10, 0)
			lease := mustLease(t, b, 1)
			if b.Contains(1) {
				t.Fatal("a leased key reads as published")
			}
			if !b.Fill(1, lease, "v") {
				t.Fatal("fill under the held lease refused")
			}
			mustServe(t, b, 1, "v")
			if b.Fill(1, lease, "again") {
				t.Fatal("second fill under a settled lease accepted")
			}
			want := BoardStats{Leases: 1, Fills: 1, Served: 1, Entries: 1, Bytes: 1}
			if st := b.Stats(); st != want {
				t.Fatalf("stats %+v, want %+v", st, want)
			}
		}},
		{"fill wakes a waiter onto the value", func(t *testing.T) {
			b := testBoard(1<<10, 0)
			lease := mustLease(t, b, 1)
			out := waiter(context.Background(), b, 1)
			b.Fill(1, lease, "v")
			if o := await(t, out); o.err != nil || o.lease != 0 || o.val != "v" {
				t.Fatalf("waiter got %+v, want the value", o)
			}
		}},
		{"TTL takeover, dead holder's late fill refused", func(t *testing.T) {
			b := testBoard(1<<10, 30*time.Millisecond)
			dead := mustLease(t, b, 1)
			start := time.Now()
			takeover := mustLease(t, b, 1) // blocks for ~TTL, then takes over
			if takeover == dead {
				t.Fatal("takeover reused the dead lease")
			}
			if waited := time.Since(start); waited > 5*time.Second {
				t.Fatalf("takeover stalled %v, want ~TTL", waited)
			}
			if b.Fill(1, dead, "late") {
				t.Fatal("late fill under the expired lease accepted")
			}
			b.Release(1, dead) // a stale release must not disturb the new holder
			if !b.Fill(1, takeover, "fresh") {
				t.Fatal("takeover's fill refused")
			}
			mustServe(t, b, 1, "fresh")
			if st := b.Stats(); st.Takeovers != 1 || st.Leases != 2 {
				t.Fatalf("stats %+v, want 1 takeover of 2 leases", st)
			}
		}},
		{"release wakes a waiter onto a fresh lease", func(t *testing.T) {
			b := testBoard(1<<10, time.Minute) // expiry cannot rescue the test
			lease := mustLease(t, b, 1)
			out := waiter(context.Background(), b, 1)
			b.Release(1, lease)
			o := await(t, out)
			if o.err != nil || o.lease == 0 || o.lease == lease {
				t.Fatalf("waiter got %+v, want a fresh lease", o)
			}
		}},
		{"a waiter's own ctx ends the wait; a later caller re-leases", func(t *testing.T) {
			b := testBoard(1<<10, 0)
			lease := mustLease(t, b, 1)
			ctx, cancel := context.WithCancel(context.Background())
			out := waiter(ctx, b, 1)
			cancel()
			if o := await(t, out); !errors.Is(o.err, context.Canceled) || o.lease != 0 {
				t.Fatalf("abandoning waiter got %+v, want context.Canceled", o)
			}
			dead, cancelDead := context.WithCancel(context.Background())
			cancelDead()
			if _, l, err := b.Acquire(dead, 1); !errors.Is(err, context.Canceled) || l != 0 {
				t.Fatalf("acquire of a held key with a dead context: lease %d err %v", l, err)
			}
			b.Release(1, lease)
			if len(b.entries) != 0 {
				t.Fatalf("released key left %d entries behind", len(b.entries))
			}
			mustLease(t, b, 1)
		}},
		{"eviction forgets the key", func(t *testing.T) {
			b := testBoard(100, 0)
			payload := string(make([]byte, 40))
			for key := 0; key < 4; key++ {
				b.Fill(key, mustLease(t, b, key), payload)
			}
			want := BoardStats{Leases: 4, Fills: 4, Evictions: 2, Entries: 2, Bytes: 80}
			if st := b.Stats(); st != want {
				t.Fatalf("stats %+v, want %+v", st, want)
			}
			if len(b.entries) != 2 {
				t.Fatalf("%d entries on the board, want 2", len(b.entries))
			}
			mustLease(t, b, 0) // the oldest key is gone: re-leased
			mustServe(t, b, 3, payload)
			// The newest value survives its own insert even alone over budget.
			b.Put(9, string(make([]byte, 500)))
			if st := b.Stats(); st.Entries != 1 || st.Bytes != 500 {
				t.Fatalf("oversized put: %+v, want it alone on the board", st)
			}
		}},
		{"put over a lease in progress wakes waiters onto the value", func(t *testing.T) {
			b := testBoard(1<<10, 0)
			lease := mustLease(t, b, 1)
			out := waiter(context.Background(), b, 1)
			b.Put(1, "put")
			if o := await(t, out); o.err != nil || o.lease != 0 || o.val != "put" {
				t.Fatalf("waiter got %+v, want the put value", o)
			}
			if b.Fill(1, lease, "holder") {
				t.Fatal("overtaken holder's fill accepted")
			}
			b.Put(1, "second") // a published value wins over a newcomer
			mustServe(t, b, 1, "put")
		}},
		{"clear drops values, not leases", func(t *testing.T) {
			b := testBoard(1<<10, 0)
			b.Put(1, "a")
			b.Put(2, "b")
			lease := mustLease(t, b, 3)
			if n := b.Clear(); n != 2 {
				t.Fatalf("Clear dropped %d values, want 2", n)
			}
			if st := b.Stats(); st.Entries != 0 || st.Bytes != 0 {
				t.Fatalf("residency after Clear: %+v", st)
			}
			if !b.Fill(3, lease, "c") {
				t.Fatal("Clear broke a lease in progress")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestBoardForgetsReleasedKeys pins the bound on what request behaviour
// can leave behind: a lease abandoned without a value (every cold query
// cancelled mid-sweep does this, on the score cache and — through the
// sweep tier — on the coordinator's board) forgets its key. The parent's
// SweepBoard kept the never-filled entry in its map for the life of the
// process.
func TestBoardForgetsReleasedKeys(t *testing.T) {
	b := testBoard(1<<10, time.Minute)
	for key := 0; key < 10_000; key++ {
		b.Release(key, mustLease(t, b, key))
	}
	if len(b.entries) != 0 {
		t.Fatalf("%d entries left after 10^4 acquire/release pairs, want 0", len(b.entries))
	}
	if st := b.Stats(); st.Leases != 10_000 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBoardHammer is the -race hammer: G goroutines × K keys, every
// caller either serves the one value or computes it under the lease —
// and each key is leased (computed) exactly once.
func TestBoardHammer(t *testing.T) {
	const G, K = 16, 32
	b := NewBoard[int](1<<20, 0, func(int) int { return 8 })
	var computed [K]int
	var wg sync.WaitGroup
	errs := make(chan error, G*K)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < K; i++ {
				key := (g + i) % K
				v, lease, err := b.Acquire(context.Background(), key)
				if err != nil {
					errs <- err
					return
				}
				if lease != 0 {
					computed[key]++ // guarded by the lease itself
					v = key * 7
					b.Fill(key, lease, v)
				}
				if v != key*7 {
					errs <- errors.New("caller saw a value other than the one computed")
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for key, n := range computed {
		if n != 1 {
			t.Errorf("key %d computed %d times, want 1", key, n)
		}
	}
	if st := b.Stats(); st.Leases != K || st.Fills != K || st.Served != G*K-K {
		t.Fatalf("stats %+v, want Leases = Fills = %d and Served = %d", st, K, G*K-K)
	}
}
