package service

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ust/internal/core"
)

// SweepBoard is the coordinator side of the networked sweep tier: the
// compute-once board the engine's score cache is built on (core.Board),
// instantiated over wire keys and encoded payloads so that it serves a
// fleet. Each key is either FILLED (a worker published the payload;
// everyone adopts it) or LEASED (exactly one worker holds the
// computation right; the rest long-poll). Leases expire, so a worker
// that dies mid-sweep stalls waiters for at most the TTL before one of
// them takes over — the tier degrades, it never wedges. Evicting a
// payload forgets the key; the next Acquire re-leases it and the fleet
// recomputes.
//
// The adapter adds what the wire needs: string lease tokens, an error
// for a stale one, and a refusal of payloads the budget could never
// hold.
type SweepBoard struct {
	board    *core.Board[core.SweepKey, []byte]
	maxBytes int
}

// ErrStaleLease rejects a Fill under a token that is not the key's
// current lease — the board expired it and granted a takeover, so the
// late worker's payload is dropped (the takeover's fill wins).
var ErrStaleLease = errors.New("service: stale sweep lease")

const (
	defaultSweepTTL   = 10 * time.Second
	defaultSweepBytes = 64 << 20
)

// NewSweepBoard builds a board with the given lease TTL and payload byte
// budget; zero or negative values select the defaults (10s, 64 MiB).
func NewSweepBoard(ttl time.Duration, maxBytes int) *SweepBoard {
	if ttl <= 0 {
		ttl = defaultSweepTTL
	}
	if maxBytes <= 0 {
		maxBytes = defaultSweepBytes
	}
	return &SweepBoard{
		board:    core.NewBoard[core.SweepKey](maxBytes, ttl, func(p []byte) int { return len(p) }),
		maxBytes: maxBytes,
	}
}

// leaseID parses a lease token ("L<n>") back to the board's lease; a
// malformed token maps to 0, which is never a live lease.
func leaseID(token string) uint64 {
	id, _ := strconv.ParseUint(strings.TrimPrefix(token, "L"), 10, 64)
	return id
}

// Acquire implements core.SweepTier. It returns the payload when the
// sweep is already filled, a lease token when the caller should compute,
// and blocks (until ctx ends) while another worker holds the lease.
func (b *SweepBoard) Acquire(ctx context.Context, key core.SweepKey) ([]byte, string, error) {
	payload, lease, err := b.board.Acquire(ctx, key)
	if err != nil || lease == 0 {
		return payload, "", err
	}
	return nil, "L" + strconv.FormatUint(lease, 10), nil
}

// Fill implements core.SweepTier: publish the payload computed under a
// held lease and wake every waiter. A payload larger than the board's
// whole budget is refused and the lease released, so waiters compute
// locally instead of the board retaining what it could never hold
// beside anything else.
func (b *SweepBoard) Fill(_ context.Context, key core.SweepKey, lease string, payload []byte) error {
	if len(payload) > b.maxBytes {
		b.board.Release(key, leaseID(lease))
		return fmt.Errorf("%w: sweep payload of %d bytes, board budget %d", ErrBodyTooLarge, len(payload), b.maxBytes)
	}
	if !b.board.Fill(key, leaseID(lease), payload) {
		return ErrStaleLease
	}
	return nil
}

// fillBodyLimit bounds a /v1/sweeps/fill body: the largest payload the
// board accepts, base64-encoded, plus room for the JSON around it.
func (b *SweepBoard) fillBodyLimit() int64 {
	return int64(base64.StdEncoding.EncodedLen(b.maxBytes)) + 4<<10
}

// Release implements core.SweepTier: abandon a held lease so a waiter
// takes over immediately instead of waiting out the TTL.
func (b *SweepBoard) Release(_ context.Context, key core.SweepKey, lease string) {
	b.board.Release(key, leaseID(lease))
}

// SweepBoardStats is a snapshot of the board's counters: Leases counts
// granted computation rights, Fills the payloads published, Served the
// Acquires answered from a filled payload, Takeovers the leases
// re-granted after their holder expired; Entries and Bytes describe the
// filled-payload LRU.
type SweepBoardStats = core.BoardStats

// Stats snapshots the board's counters.
func (b *SweepBoard) Stats() SweepBoardStats { return b.board.Stats() }
