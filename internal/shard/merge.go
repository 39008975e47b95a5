package shard

import (
	"container/heap"
	"context"
	"fmt"
	"iter"
	"sync"

	"ust/internal/core"
	"ust/internal/markov"
)

// The merge layer: put shard result streams back into exactly the
// single-engine output.
//
// A single engine emits results in a deterministic order — database
// insertion order for the Monte-Carlo strategy, chain-group order
// (groups by first occurrence, database order within) for everything
// else. A shard emits ITS objects in its own such order, which is not
// in general a rank-sorted subsequence of the global one: with several
// chains, a shard whose first object belongs to chain B emits its
// B-group before its A-group even when chain A leads globally. The
// merge therefore works over precomputed emission-order indexes: every
// result maps to its global rank, out-of-rank arrivals buffer, and the
// consumer drains the decided prefix. Threshold-dropped objects leave
// gaps; a shard yielding a later object (or finishing) proves the gap
// was a drop, not a straggler.

// orderIndex is the emission-order bookkeeping for one generation of
// the database: the global rank of every object id, and each shard's
// own emission order expressed as global ranks.
type orderIndex struct {
	n          int
	rank       map[int]int
	shardRanks [][]int
}

// buildOrder derives the index from the full database and the members'
// catalogues, which list each shard's ids in its database's insertion
// order. insertion selects database insertion order (Monte-Carlo);
// otherwise chain-group order.
func buildOrder(full *core.Database, members []*member, insertion bool) *orderIndex {
	all := make([]int, 0, full.Len())
	for _, o := range full.Objects() {
		all = append(all, o.ID)
	}
	seq := emissionOrder(full, all, insertion)
	ord := &orderIndex{n: len(seq), rank: make(map[int]int, len(seq))}
	for i, id := range seq {
		ord.rank[id] = i
	}
	ord.shardRanks = make([][]int, len(members))
	for s, m := range members {
		sub := emissionOrder(full, m.ids, insertion)
		ranks := make([]int, len(sub))
		for i, id := range sub {
			ranks[i] = ord.rank[id]
		}
		ord.shardRanks[s] = ranks
	}
	return ord
}

// emissionOrder lists ids, given in a database's insertion order, in the
// order an engine over that database emits them; full resolves each
// id's chain.
func emissionOrder(full *core.Database, ids []int, insertion bool) []int {
	if insertion {
		return ids
	}
	idx := map[*markov.Chain]int{}
	var groups [][]int
	for _, id := range ids {
		ch := full.ChainOf(full.Get(id))
		gi, ok := idx[ch]
		if !ok {
			gi = len(groups)
			idx[ch] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], id)
	}
	out := make([]int, 0, len(ids))
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// mergeByRank restores shard batch results to global emission order.
// Ranks are dense unique integers, so this is a single linear placement
// into a rank-indexed scratch slice plus a compaction — no comparison
// sort, no per-comparison map lookups. A result for an id the order
// index does not know (a backend answering for an object it was never
// given) fails loudly, matching mergeScan's handling of the same breach.
func mergeByRank(ord *orderIndex, resps []*core.Response) ([]core.Result, error) {
	total := 0
	for _, sr := range resps {
		total += len(sr.Results)
	}
	type slot struct {
		r  core.Result
		ok bool
	}
	byRank := make([]slot, ord.n)
	for _, sr := range resps {
		for _, res := range sr.Results {
			g, known := ord.rank[res.ObjectID]
			if !known {
				return nil, fmt.Errorf("shard: result for unknown object %d", res.ObjectID)
			}
			byRank[g] = slot{r: res, ok: true}
		}
	}
	out := make([]core.Result, 0, total)
	for _, s := range byRank {
		if s.ok {
			out = append(out, s.r)
		}
	}
	return out, nil
}

// headHeap is the k-way merge frontier over per-shard ranked lists,
// ordered by the engine's exported ranking comparator
// (core.BetterRanked), so the merge can never drift from the tie-break
// the shards sorted with.
type headHeap struct {
	lists [][]core.Result
	heads []headRef
}

type headRef struct{ list, pos int }

func (h *headHeap) Len() int { return len(h.heads) }
func (h *headHeap) Less(i, j int) bool {
	a := h.lists[h.heads[i].list][h.heads[i].pos]
	b := h.lists[h.heads[j].list][h.heads[j].pos]
	return core.BetterRanked(a, b)
}
func (h *headHeap) Swap(i, j int)      { h.heads[i], h.heads[j] = h.heads[j], h.heads[i] }
func (h *headHeap) Push(x interface{}) { h.heads = append(h.heads, x.(headRef)) }
func (h *headHeap) Pop() interface{} {
	old := h.heads
	x := old[len(old)-1]
	h.heads = old[:len(old)-1]
	return x
}

// mergeTopK merges per-shard ranked top-k lists into the global top-k:
// a k-way heap merge under the engine's exact tie-break order. Each
// shard list is already sorted by better (the engine's ranked output),
// and every shard returned its local top k, so the global top k is a
// prefix of the merged order. The output is sized from the results
// present, never from k alone: k comes from the request.
func mergeTopK(k int, lists [][]core.Result) []core.Result {
	h := &headHeap{lists: lists}
	total := 0
	for s, l := range lists {
		if len(l) > 0 {
			h.heads = append(h.heads, headRef{list: s})
		}
		total += len(l)
	}
	heap.Init(h)
	out := make([]core.Result, 0, min(k, total))
	for len(out) < k && h.Len() > 0 {
		top := h.heads[0]
		out = append(out, h.lists[top.list][top.pos])
		if top.pos+1 < len(h.lists[top.list]) {
			h.heads[0].pos++
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

// shardEvent is one unit of shard-stream progress reaching the merge
// consumer.
type shardEvent struct {
	shard int
	r     core.Result
	err   error
	done  bool
}

// mergeScan fans the prepared request out as shard streams and yields
// the merged results in global emission order — on success, exactly the
// single-engine sequence. On a per-object error the stream ends with
// the single engine's error VALUE, anchored at the failing shard's
// minimum undecided rank; the preceding result prefix is deterministic
// for a given shard count but may be SHORTER than the single engine's
// (the failing shard stops at its own emission position, so its
// lower-ranked, later-emitted objects were never computed and cannot be
// yielded). The first surfaced error — or the consumer breaking out —
// cancels every shard goroutine. A cancelled scan never looks complete:
// ctx.Err() is yielded if the context ends the merge.
func (r *Router) mergeScan(ctx context.Context, p *prep) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		defer func() {
			cancel()
			wg.Wait()
		}()

		ord := r.orderFor(p.mcOrder)
		n := ord.n
		const (
			unknown = uint8(iota)
			ready
			dropped
		)
		status := make([]uint8, n)
		results := make([]core.Result, n)
		errAt := make([]error, n) // indexed by the anchored rank
		// Trailing errors (a shard failing after emitting everything it
		// owned) have no rank to anchor to; the lowest shard index wins
		// so the surfaced error is schedule-independent.
		var tailErr error
		tailShard := len(r.members)
		cursors := make([]int, len(r.members))

		events := make(chan shardEvent, 4*len(r.members))
		send := func(ev shardEvent) bool {
			select {
			case events <- ev:
				return true
			case <-ctx.Done():
				return false
			}
		}
		sem := make(chan struct{}, p.workers)
		for s, m := range r.members {
			wg.Add(1)
			go func(s int, b Backend) {
				defer wg.Done()
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-ctx.Done():
					return
				}
				for res, serr := range b.EvaluateSeq(ctx, p.req) {
					if serr != nil {
						send(shardEvent{shard: s, err: serr})
						return
					}
					if !send(shardEvent{shard: s, r: res}) {
						return
					}
				}
				send(shardEvent{shard: s, done: true})
			}(s, m.backend)
		}

		next := 0
		for doneShards := 0; doneShards < len(r.members); {
			var ev shardEvent
			select {
			case ev = <-events:
			case <-ctx.Done():
				yield(core.Result{}, ctx.Err())
				return
			}
			s := ev.shard
			sr := ord.shardRanks[s]
			switch {
			case ev.done:
				doneShards++
				// Everything this shard never emitted was filtered out.
				for _, g := range sr[cursors[s]:] {
					status[g] = dropped
				}
				cursors[s] = len(sr)
			case ev.err != nil:
				doneShards++
				// Anchor the error at the shard's MINIMUM undecided rank
				// so it surfaces in deterministic (merge-order) position.
				// The shard's emission ranks are not monotonic in global
				// rank (multi-chain databases), so the next emission
				// position is not necessarily the smallest rank the
				// failure leaves undecided — anchoring there could leave
				// a smaller rank permanently unknown and stall the merge.
				pos := n
				for _, g := range sr[cursors[s]:] {
					if g < pos {
						pos = g
					}
				}
				if pos == n {
					if s < tailShard {
						tailErr, tailShard = ev.err, s
					}
				} else {
					errAt[pos] = ev.err
				}
			default:
				g, ok := ord.rank[ev.r.ObjectID]
				if !ok {
					yield(core.Result{}, fmt.Errorf("shard: result for unknown object %d", ev.r.ObjectID))
					return
				}
				for cursors[s] < len(sr) && sr[cursors[s]] != g {
					status[sr[cursors[s]]] = dropped
					cursors[s]++
				}
				if cursors[s] == len(sr) {
					yield(core.Result{}, fmt.Errorf("shard: out-of-order result for object %d", ev.r.ObjectID))
					return
				}
				status[g] = ready
				results[g] = ev.r
				cursors[s]++
			}
			for next < n {
				if errAt[next] != nil {
					yield(core.Result{}, errAt[next])
					return
				}
				if status[next] == unknown {
					break
				}
				if status[next] == ready && !yield(results[next], nil) {
					return
				}
				next++
			}
		}
		if next < n {
			// Every shard finished yet ranks remain undecided — only an
			// anchored error can explain it, and min-rank anchoring
			// guarantees the first undecided rank carries it.
			if errAt[next] != nil {
				yield(core.Result{}, errAt[next])
			} else {
				yield(core.Result{}, fmt.Errorf("shard: merge stalled at rank %d", next))
			}
			return
		}
		if tailErr != nil {
			yield(core.Result{}, tailErr)
			return
		}
		if err := ctx.Err(); err != nil {
			yield(core.Result{}, err)
		}
	}
}
