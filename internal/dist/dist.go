// Package dist is the multi-process deployment of the sharded engine:
// shard.Backend implemented over the pinned wire contract (Backend), so
// a shard.Router can drive ustserve worker processes — or a mix of
// workers and in-process engines — behind the same rendezvous ring that
// serves the single-process case. Factory places shards, and their
// replicas, on workers: a replicated shard is the generic
// shard.Replicated over Backends, gated by the Prober's health view.
// Workers hold the data slices — the coordinator keeps only the router's
// catalogue of them — receive them through the generation-fenced
// Import/Evict migration protocol, and share backward sweeps through
// the networked lease tier (core.SweepTier over /v1/sweeps).
//
// Topology:
//
//	client ──HTTP──▶ coordinator (ustserve -coordinator)
//	                   │ shard.Router: ring, planner, catalogue, merge, fold
//	        ┌──────────┼──────────┐
//	      worker0    worker1    worker2   (ustserve -dataset …)
//	        └──────────┴──────────┘
//	          /v1/sweeps lease tier (one backward sweep fleet-wide)
//
// Everything stays byte-identical to a single engine: workers answer
// their slices with the same float64 bits (wire shortest round-trip),
// the coordinator merges in emission order and folds aggregate factors
// in canonical order, and sweep payloads travel as their exact internal
// representation (core sweep codec).
package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"ust/client"
	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/shard"
	"ust/internal/store"
)

// Factory returns a shard.BackendFactory whose shards are remote
// ustserve workers: replica j of shard label l is served by
// workers[(l+j) mod W], under the dataset name "<base>.shard<l>", with
// replicas clamped to [1, W]. Each worker is thus the primary of every
// W-th label, and a dead primary's reads fall to its successor. With
// one replica a shard is the bare Backend; with more it is a
// shard.Replicated whose reads demote workers prober declares dead
// (prober may be nil). Each replica's dataset is created empty on its
// worker (same default chain as the router's database); an
// already-existing dataset is adopted as-is — which is how deployments
// pre-create worker datasets with a spatial resolver so region queries
// ground remotely.
func Factory(base string, workers []*client.Client, replicas int, prober *Prober) shard.BackendFactory {
	return func(label int, def *markov.Chain) (shard.Backend, error) {
		w := len(workers)
		if w == 0 {
			return nil, fmt.Errorf("dist: no workers")
		}
		name := fmt.Sprintf("%s.shard%d", base, label)
		reps := make([]shard.Backend, max(1, min(replicas, w)))
		for j := range reps {
			c := workers[(label+j)%w]
			if err := bootstrap(c, name, def); err != nil {
				return nil, err
			}
			reps[j] = NewBackend(c, name, def)
		}
		if len(reps) == 1 {
			return reps[0], nil
		}
		var healthy func(int) bool
		if prober != nil {
			healthy = func(j int) bool { return prober.Healthy((label + j) % w) }
		}
		return shard.NewReplicated(reps, healthy), nil
	}
}

// bootstrap creates the worker-side dataset when it does not exist yet:
// an empty database over the router's default chain, populated through
// the router's Import calls afterwards. An existing dataset (HTTP 409)
// is adopted.
func bootstrap(c *client.Client, name string, def *markov.Chain) error {
	empty := core.NewDatabase(def)
	var buf bytes.Buffer
	if err := store.SaveDatabase(&buf, empty); err != nil {
		return fmt.Errorf("dist: encoding bootstrap image: %w", err)
	}
	_, err := c.CreateDataset(context.Background(), name, &buf)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Status == 409 {
			return nil // pre-created (e.g. with a resolver); adopt
		}
		return fmt.Errorf("dist: bootstrapping %q: %w", name, err)
	}
	return nil
}

// NewRouter builds a shard.Router whose every shard is one remote
// worker: the unreplicated coordinator engine. base names the
// worker-side datasets ("<base>.shard<label>").
func NewRouter(db *core.Database, shards int, opts core.Options, base string, workers []*client.Client) (*shard.Router, error) {
	return shard.NewWithBackends(db, shards, opts, Factory(base, workers, 1, nil))
}
