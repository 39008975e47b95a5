// Package shard scales the query engine out horizontally: a Router
// partitions a database's objects across N shard engines by consistent
// hashing on object id, fans each request out concurrently, and merges
// the result streams back into exactly the order — and exactly the
// float64 bits — a single engine over the whole database would produce.
// The conformance suite (internal/conformance) pins that equivalence.
package shard

import (
	"fmt"
	"slices"
)

// Ring assigns object ids to shards by rendezvous (highest-random-
// weight) consistent hashing: the owner of an id is the shard whose
// hash paired with the id scores highest. The scheme is deterministic
// (same ids → same shards, across processes and runs), balanced (each
// shard receives ~1/N of any id population, multinomially), and
// minimally disruptive: adding a shard moves only the ids the new shard
// now wins (~1/(N+1) of them), removing one moves only the ids it
// owned. Rings are immutable; Grown and Shrunk return rebalanced
// copies.
type Ring struct {
	shards []int    // sorted shard labels
	hashed []uint64 // per-label hash, precomputed (id-independent)
}

// newRing wraps a sorted label set, precomputing the per-shard hashes
// Owner mixes against each id.
func newRing(labels []int) *Ring {
	hashed := make([]uint64, len(labels))
	for i, s := range labels {
		hashed[i] = mix(uint64(s)+1, ringSalt)
	}
	return &Ring{shards: labels, hashed: hashed}
}

// NewRing builds a ring over shards labeled 0..n-1.
func NewRing(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: ring needs at least one shard, got %d", n)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	return newRing(labels), nil
}

// N returns the number of shards.
func (r *Ring) N() int { return len(r.shards) }

// Shards returns the shard labels in ascending order.
func (r *Ring) Shards() []int { return slices.Clone(r.shards) }

// Owner returns the shard label owning the id: the highest-scoring
// (hash, id) pair, ties broken toward the smaller label so ownership
// is a pure function of the label set.
func (r *Ring) Owner(id int) int {
	best, bestScore := r.shards[0], uint64(0)
	for i, h := range r.hashed {
		score := mix(h, uint64(int64(id)))
		if i == 0 || score > bestScore {
			best, bestScore = r.shards[i], score
		}
	}
	return best
}

// Grown returns a ring with one more shard, labeled max(labels)+1.
// Only ids won by the new shard change owner.
func (r *Ring) Grown() *Ring {
	next := r.shards[len(r.shards)-1] + 1
	return newRing(append(slices.Clone(r.shards), next))
}

// Shrunk returns a ring without the given shard. Only ids that shard
// owned change owner. It is an error to remove the last shard or an
// unknown label.
func (r *Ring) Shrunk(label int) (*Ring, error) {
	i := slices.Index(r.shards, label)
	if i < 0 {
		return nil, fmt.Errorf("shard: unknown shard %d", label)
	}
	if len(r.shards) == 1 {
		return nil, fmt.Errorf("shard: cannot remove the last shard")
	}
	return newRing(slices.Delete(slices.Clone(r.shards), i, i+1)), nil
}

// ringSalt decorrelates the shard-label hash from plain small integers.
const ringSalt = 0x9e3779b97f4a7c15

// mix is the splitmix64 finalizer over the xor of its inputs — the same
// mixing primitive the engine's per-object Monte-Carlo seeds use.
func mix(a, b uint64) uint64 {
	z := a ^ b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
