package shard

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"

	"ust/internal/core"
)

// Router is a sharded engine: it implements the same Evaluate /
// EvaluateSeq / EvaluateBatch surface as core.Engine (core.Evaluator)
// over N shard engines, each owning the slice of the database the
// consistent-hash ring assigns it. Requests fan out concurrently —
// bounded by WithParallelism, with context cancellation propagating to
// every shard — and the result streams merge back into exactly the
// single-engine output: rank-ordered merge for scans, k-way heap merge
// with the engine's tie-break order for top-k.
//
// All shards share one score cache (core.SharedCache), so a chain's
// backward sweep — which depends only on (chain, window, observation
// time), never on which objects a shard holds — is computed once per
// distinct key across the fleet and every other shard hits.
//
// Semantics relative to a single engine over the same database:
//
//   - Results are byte-identical (same float64 bits, same order) for
//     every predicate, strategy and ranking, with one exception: the
//     Monte-Carlo strategy always uses per-object seeding (as if
//     WithParallelism(≥2)), because the serial variant's shared rng
//     stream is inherently a whole-database sequence. Sharded MC is
//     therefore deterministic and independent of the shard count, and
//     matches any single engine run with WithParallelism(≥2).
//   - Response.Cache and Response.Filter sum the shard responses; the
//     shared cache's per-key lease keeps the summed Misses equal to
//     the single-engine count (each distinct sweep computes once).
//   - Auto-planned requests are planned once against the full database,
//     so every shard runs the strategy a single engine would have
//     picked; Response.Plans carries those full-database estimates.
//   - Per-object evaluation failures surface deterministically
//     (schedule-independent), and — when a single shard fails — as the
//     single engine's exact error value. With failures on SEVERAL
//     shards the surfaced error is the one anchored at the lowest
//     undecided merge rank, which can name a different poisoned object
//     than the single engine's first-in-emission-order pick. A FAILING
//     EvaluateSeq may also stream fewer results before the error than
//     a single engine would (the failing shard's uncomputed objects
//     cannot be yielded); the prefix is still deterministic for a
//     given shard count.
//
// The shards hold their slices; the router keeps the full database, for
// planning, and per shard a catalogue of the ids it holds. Ingest goes
// through Add / ReplaceObject / Observe, which write the full database
// and the owning shard together while excluding queries. The router is
// the database's only writer from construction on: a mutation made
// behind it fails the next read or write with an error naming both
// database versions, and the router does not resync.
type Router struct {
	full    *core.Database
	planner *core.Engine // full-database engine: planning + batch warming
	ring    *Ring
	cache   *core.SharedCache
	factory BackendFactory // builds backends for shards Grow adds

	// mu serializes ingest/rebalance (exclusive) against evaluation
	// (shared), mirroring the service layer's per-dataset lock. Holding
	// it exclusively across a migration is also what makes queries
	// during migration trivially byte-identical: no query ever observes
	// a half-moved slice.
	mu      sync.RWMutex
	members []*member
	byLabel map[int]int // ring label → index into members
	// synced is the full database's version as of the router's last
	// write; any other version means a mutation the shards never saw.
	synced uint64
	// topoGen fences Import/Evict calls: it increments on every batch,
	// so a worker can reject a stale or replayed migration op.
	topoGen uint64
	// broken, once set by a rebalance that failed part-way, is returned
	// by every later read and write (see "live rebalance" below).
	broken error

	ordMu  sync.Mutex
	orders map[bool]*orderIndex // emission orders, keyed by "insertion order"
}

var _ core.Evaluator = (*Router)(nil)

// member is one shard: its backend, which holds the shard's slice, and
// the router's catalogue of that slice — the ids the backend accepted,
// in the backend's insertion order. The objects themselves are read from
// the full database; the catalogue is what the merge layer's emission
// orders and a rebalance need.
type member struct {
	label    int
	ids      []int
	backend  Backend
	failures uint64 // Import batches the backend refused
}

// New builds an in-process router over db with the given shard count.
// Engine options apply to every shard; unless opts disables caching
// (CacheBytes < 0) or supplies a shared cache, the router creates one
// SharedCache for the fleet.
func New(db *core.Database, shards int, opts core.Options) (*Router, error) {
	opts = normalizeOpts(opts)
	return NewWithBackends(db, shards, opts, LocalFactory(opts))
}

// normalizeOpts materializes the fleet-wide shared cache so every
// engine the router constructs — planner and local shards alike —
// attaches to the same one.
func normalizeOpts(opts core.Options) core.Options {
	if opts.Cache == nil && opts.CacheBytes >= 0 {
		opts.Cache = core.NewSharedCache(opts.CacheBytes)
	}
	return opts
}

// NewWithBackends builds a router whose shards come from factory —
// the mixed-topology constructor: the factory may return in-process
// engines (LocalFactory), remote worker proxies (internal/dist), or a
// mix, keyed by shard label. Every object of db is imported into its
// owning shard before the router is returned. The factory is retained
// for Grow.
func NewWithBackends(db *core.Database, shards int, opts core.Options, factory BackendFactory) (*Router, error) {
	if db == nil {
		return nil, fmt.Errorf("shard: nil database")
	}
	if factory == nil {
		return nil, fmt.Errorf("shard: nil backend factory")
	}
	ring, err := NewRing(shards)
	if err != nil {
		return nil, err
	}
	opts = normalizeOpts(opts)
	r := &Router{
		full:    db,
		planner: core.NewEngine(db, opts),
		ring:    ring,
		cache:   opts.Cache,
		factory: factory,
		byLabel: map[int]int{},
		orders:  map[bool]*orderIndex{},
		synced:  db.Version(),
	}
	for _, label := range ring.Shards() {
		backend, err := factory(label, db.DefaultChain())
		if err != nil {
			r.closeMembers()
			return nil, fmt.Errorf("shard: backend for shard %d: %w", label, err)
		}
		r.members = append(r.members, &member{label: label, backend: backend})
		r.byLabel[label] = len(r.members) - 1
	}
	parts := make([][]*core.Object, len(r.members))
	for _, o := range db.Objects() {
		mi := r.memberOf(o.ID)
		parts[mi] = append(parts[mi], o)
	}
	for mi, objs := range parts {
		if len(objs) == 0 {
			continue
		}
		if err := r.importLocked(r.members[mi], objs, true); err != nil {
			r.closeMembers()
			return nil, err
		}
	}
	return r, nil
}

// closeMembers closes every backend and returns the first error.
func (r *Router) closeMembers() error {
	var first error
	for _, m := range r.members {
		if err := m.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// memberOf returns the index of the member owning id under the current
// ring.
func (r *Router) memberOf(id int) int { return r.byLabel[r.ring.Owner(id)] }

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.members) }

// Labels returns the live ring labels in ascending order.
func (r *Router) Labels() []int { return r.ring.Shards() }

// Close closes every backend. The router is unusable afterwards.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closeMembers()
}

// CacheStats snapshots the fleet-wide shared score cache counters.
func (r *Router) CacheStats() core.CacheStats {
	if r.cache == nil {
		return core.CacheStats{}
	}
	return r.cache.Stats()
}

// checkLocked returns the error every read and write gets from a router
// that can no longer answer like a single engine: a failed rebalance
// broke it, or its database changed behind it. Requires r.mu held.
func (r *Router) checkLocked() error {
	if r.broken != nil {
		return r.broken
	}
	if v := r.full.Version(); v != r.synced {
		return fmt.Errorf("shard: database mutated behind the router (version %d, router wrote %d); ingest through the router", v, r.synced)
	}
	return nil
}

// importLocked ships objs to m's backend under the next migration
// generation. Once the backend has accepted them, their ids join m's
// catalogue at its end, where the backend's insertion order put them —
// unless added is false, for an upsert of ids m already holds, which keep
// their place in both. A failed import is counted against the shard and
// leaves the catalogue as it was. Requires r.mu held exclusively.
func (r *Router) importLocked(m *member, objs []*core.Object, added bool) error {
	r.topoGen++
	if err := m.backend.Import(context.Background(), r.topoGen, objs); err != nil {
		m.failures++
		return err
	}
	if added {
		for _, o := range objs {
			m.ids = append(m.ids, o.ID)
		}
	}
	return nil
}

// ImportStatus is one shard's write-path record: the Import batches
// (writes and migrations) its backend refused, and the replicas of a
// Replicated shard that missed a write and are never read again.
type ImportStatus struct {
	Failures      uint64
	StaleReplicas int
}

// ImportFailures returns every live shard's ImportStatus by label.
func (r *Router) ImportFailures() map[int]ImportStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[int]ImportStatus, len(r.members))
	for _, m := range r.members {
		st := ImportStatus{Failures: m.failures}
		if rb, ok := m.backend.(*Replicated); ok {
			for _, stale := range rb.staleMarks() {
				if stale {
					st.StaleReplicas++
				}
			}
		}
		out[m.label] = st
	}
	return out
}

func (r *Router) invalidateOrders() {
	r.ordMu.Lock()
	r.orders = map[bool]*orderIndex{}
	r.ordMu.Unlock()
}

// acquire takes the evaluation (shared) lock, refusing as checkLocked
// does.
func (r *Router) acquire() (release func(), err error) {
	r.mu.RLock()
	if err := r.checkLocked(); err != nil {
		r.mu.RUnlock()
		return nil, err
	}
	return r.mu.RUnlock, nil
}

// --- ingest ---------------------------------------------------------------

// write is the one ingest path. Under the exclusive lock it applies
// mutate to the full database — which validates, and returns the object
// written and, for a replacement, the version it replaced — then imports
// the object into its owning shard. When the shard's backend refuses it
// the full database is put back as it was, so a failed write changes
// nothing: the coordinator never plans or orders over an object its
// worker does not hold.
func (r *Router) write(mutate func() (o, prev *core.Object, err error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkLocked(); err != nil {
		return err
	}
	o, prev, err := mutate()
	if err != nil {
		return err
	}
	err = r.importLocked(r.members[r.memberOf(o.ID)], []*core.Object{o}, prev == nil)
	if err != nil {
		// Undoing a mutation that just succeeded cannot fail.
		if prev == nil {
			_ = r.full.Remove(o.ID)
		} else {
			_ = r.full.ReplaceObject(prev)
		}
	}
	r.synced = r.full.Version()
	r.invalidateOrders()
	return err
}

// Add inserts a new object, routing it to its owning shard. Queries are
// excluded for the duration (ingest is exclusive, as in the service
// layer).
func (r *Router) Add(o *core.Object) error {
	return r.write(func() (*core.Object, *core.Object, error) { return o, nil, r.full.Add(o) })
}

// ReplaceObject swaps in a new version of an existing object on both
// the full database and its owning shard.
func (r *Router) ReplaceObject(o *core.Object) error {
	return r.write(func() (*core.Object, *core.Object, error) {
		prev := r.full.Get(o.ID)
		return o, prev, r.full.ReplaceObject(o)
	})
}

// Observe appends an observation to an existing object — the standing
// ingest primitive, mirroring Service.Observe.
func (r *Router) Observe(objectID int, obs core.Observation) error {
	return r.write(func() (*core.Object, *core.Object, error) {
		o := r.full.Get(objectID)
		if o == nil {
			return nil, nil, fmt.Errorf("shard: unknown object %d", objectID)
		}
		updated, err := o.WithObservation(obs)
		if err != nil {
			return nil, nil, err
		}
		return updated, o, r.full.ReplaceObject(updated)
	})
}

// --- live rebalance ---------------------------------------------------------
//
// Grow and Shrink change the ring while the router serves traffic. Both
// run under the exclusive lock, so in-flight queries finish against the
// old topology and the next query sees the new one whole — there is no
// observable intermediate state, which is what keeps results during a
// rebalance byte-identical to a single engine. The rendezvous ring
// guarantees minimal movement: growing moves only the ids the new shard
// wins, shrinking only the ids the departing shard owned. Every move is
// an Import/Evict batch under the router's migration generation, and a
// catalogue changes only once its backend has accepted the batch.
//
// A rebalance that fails part-way fails loudly. Once a backend the
// router already serves from has refused a migration step, the
// catalogues and the backends may disagree — across several sources no
// ordering of steps avoids that — so the router is broken: that call
// and every later read and write return one error naming the step and
// wrapping its cause, and the topology must be rebuilt. Only Grow's
// import into the joining backend, which nothing reads yet, fails
// harmlessly. Grow closes the joining backend on every failure.

// Grow adds one shard, labeled max(labels)+1, building its backend via
// factory (nil selects the factory the router was constructed with) and
// migrating exactly the objects the new shard now owns. It returns the
// new shard's label.
func (r *Router) Grow(factory BackendFactory) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkLocked(); err != nil {
		return 0, err
	}
	if factory == nil {
		factory = r.factory
	}
	next := r.ring.Grown()
	labels := next.Shards()
	label := labels[len(labels)-1]
	backend, err := factory(label, r.full.DefaultChain())
	if err != nil {
		return 0, fmt.Errorf("shard: backend for shard %d: %w", label, err)
	}
	joining := &member{label: label, backend: backend}

	// Collect the moving slice in full-database order, so the new shard
	// lists objects in the same relative order every other shard does.
	var moved []*core.Object
	evictFrom := make([][]int, len(r.members))
	for _, o := range r.full.Objects() {
		if next.Owner(o.ID) != label {
			continue
		}
		src := r.memberOf(o.ID)
		moved = append(moved, o)
		evictFrom[src] = append(evictFrom[src], o.ID)
	}

	// Push to the new shard BEFORE evicting from the old owners: an
	// import failure aborts with every object still owned somewhere.
	if len(moved) > 0 {
		if err := r.importLocked(joining, moved, true); err != nil {
			_ = backend.Close()
			return 0, fmt.Errorf("shard: migrating %d objects to shard %d: %w", len(moved), label, err)
		}
	}
	for src, ids := range evictFrom {
		if len(ids) == 0 {
			continue
		}
		m := r.members[src]
		r.topoGen++
		if err := m.backend.Evict(context.Background(), r.topoGen, ids); err != nil {
			_ = backend.Close()
			return 0, r.breakLocked(fmt.Sprintf("evicting %d objects from shard %d", len(ids), m.label), err)
		}
		m.ids = slices.DeleteFunc(m.ids, func(id int) bool { return next.Owner(id) == label })
	}
	r.members = append(r.members, joining)
	r.byLabel[label] = len(r.members) - 1
	r.ring = next
	r.invalidateOrders()
	return label, nil
}

// Shrink removes the shard with the given label, redistributing its
// objects to their new ring owners and closing its backend. Removing
// the last shard is an error.
func (r *Router) Shrink(label int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkLocked(); err != nil {
		return err
	}
	next, err := r.ring.Shrunk(label)
	if err != nil {
		return err
	}
	di, ok := r.byLabel[label]
	if !ok {
		return fmt.Errorf("shard: unknown shard %d", label)
	}
	departing := r.members[di]

	// Redistribute in the departing shard's order; each destination
	// appends its batch, in the backend and in the catalogue alike.
	pending := make([][]*core.Object, len(r.members))
	for _, id := range departing.ids {
		dst := r.byLabel[next.Owner(id)]
		pending[dst] = append(pending[dst], r.full.Get(id))
	}
	for dst, objs := range pending {
		if len(objs) == 0 {
			continue
		}
		if err := r.importLocked(r.members[dst], objs, true); err != nil {
			return r.breakLocked(fmt.Sprintf("migrating %d objects to shard %d", len(objs), r.members[dst].label), err)
		}
	}
	r.members = append(r.members[:di], r.members[di+1:]...)
	r.byLabel = make(map[int]int, len(r.members))
	for i, m := range r.members {
		r.byLabel[m.label] = i
	}
	r.ring = next
	r.invalidateOrders()
	return departing.backend.Close()
}

// breakLocked records a rebalance that failed at step after mutating
// backends and returns the error every later call will get. Requires
// r.mu held exclusively.
func (r *Router) breakLocked(step string, err error) error {
	r.broken = fmt.Errorf("shard: router broken by a failed rebalance (%s); rebuild the topology: %w", step, err)
	return r.broken
}

// --- evaluation -----------------------------------------------------------

// prep is one request resolved against the router: the strategy a
// single engine would run (planned once, over the full database), the
// request to forward to shards, the emission-order index the merge
// needs, and the fan-out width.
type prep struct {
	req      core.Request
	strategy core.Strategy
	plans    []core.CostEstimate
	// mcOrder selects insertion-order emission (Monte-Carlo) for the
	// merge's order index, fetched lazily by the scan paths — top-k
	// merges never need it.
	mcOrder bool
	topK    int
	workers int
}

// prepareLocked validates and plans the request. Requires the shared
// lock. Request-level errors (malformed predicates, bad windows) are
// returned here, before any fan-out, so they surface exactly as a
// single engine would report them.
func (r *Router) prepareLocked(req core.Request) (*prep, error) {
	st, plans, err := r.planner.PlanRequest(req)
	if err != nil {
		return nil, err
	}
	p := &prep{req: req, strategy: st, plans: plans, topK: req.TopKHint()}
	if req.AutoPlanHint() {
		// Pin every shard to the full-database planner's choice: a
		// shard planning over its own slice could pick differently.
		p.req = p.req.With(core.WithStrategy(st))
	}
	p.mcOrder = st == core.StrategyMonteCarlo
	// An explicit WithParallelism(w) is a total budget, not a per-layer
	// one: it caps the shard fan-out at w and divides the remainder
	// among the shards' own workers, so the router never runs ~w² work
	// at once. Unset (0) and GOMAXPROCS (-1) hints forward unchanged —
	// the fan-out defaults to all shards and the runtime bounds actual
	// parallelism.
	p.workers = len(r.members)
	shardPar := req.ParallelismHint()
	if shardPar > 0 {
		if shardPar < p.workers {
			p.workers = shardPar
		}
		shardPar = max(1, shardPar/p.workers)
		p.req = p.req.With(core.WithParallelism(shardPar))
	}
	if st == core.StrategyMonteCarlo && core.ResolveWorkers(shardPar) < 2 {
		// Per-object seeding (see the Router doc comment): the serial
		// sampler's shared rng stream cannot be partitioned. Shard
		// widths that already resolve to ≥2 workers keep their width —
		// they are per-object-seeded either way.
		p.req = p.req.With(core.WithParallelism(2))
		if w := req.ParallelismHint(); w > 0 {
			// Each shard now runs 2 samplers; shrink the fan-out so the
			// caller's total budget still holds (within the documented
			// MC minimum of 2).
			p.workers = max(1, w/2)
		}
	}
	return p, nil
}

// orderFor returns (building lazily) the emission-order index for the
// current generation. Monte-Carlo streams emit in database insertion
// order; every other strategy emits in chain-group order.
func (r *Router) orderFor(insertion bool) *orderIndex {
	r.ordMu.Lock()
	defer r.ordMu.Unlock()
	if ord := r.orders[insertion]; ord != nil {
		return ord
	}
	ord := buildOrder(r.full, r.members, insertion)
	r.orders[insertion] = ord
	return ord
}

// Evaluate answers the request in one batch: concurrent shard fan-out,
// then a deterministic merge. See the Router doc comment for the exact
// single-engine equivalences.
func (r *Router) Evaluate(ctx context.Context, req core.Request) (*core.Response, error) {
	release, err := r.acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	p, err := r.prepareLocked(req)
	if err != nil {
		return nil, err
	}
	return r.evaluateLocked(ctx, p)
}

func (r *Router) evaluateLocked(ctx context.Context, p *prep) (*core.Response, error) {
	if spec, ok := p.req.AggregateHint(); ok {
		return r.aggregateLocked(ctx, p, spec)
	}
	resps, err := fanout(ctx, r.members, p, Backend.Evaluate)
	if err != nil {
		return nil, r.canonicalError(ctx, p, err)
	}
	resp := &core.Response{Strategy: p.strategy, Plans: p.plans}
	for _, sr := range resps {
		resp.Cache.Hits += sr.Cache.Hits
		resp.Cache.Misses += sr.Cache.Misses
		resp.Filter.Candidates += sr.Filter.Candidates
		resp.Filter.Pruned += sr.Filter.Pruned
		resp.Filter.Refined += sr.Filter.Refined
	}
	if p.topK > 0 {
		lists := make([][]core.Result, len(resps))
		for s, sr := range resps {
			lists[s] = sr.Results
		}
		resp.Results = mergeTopK(p.topK, lists)
	} else {
		resp.Results, err = mergeByRank(r.orderFor(p.mcOrder), resps)
		if err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// aggregateLocked answers an aggregate request: every shard contributes
// its objects' per-object factors (not a shard-local PMF!), the pooled
// factor set is folded by the same canonical convolution tree a single
// engine uses — core.FoldFactors sorts by object ID before folding — so
// the resulting distribution is byte-identical to the unsharded answer
// regardless of shard count. Convolving per-shard PMFs instead would be
// mathematically equal but change the tree shape, and with it the
// float64 rounding.
func (r *Router) aggregateLocked(ctx context.Context, p *prep, spec core.AggSpec) (*core.Response, error) {
	sets, err := fanout(ctx, r.members, p, Backend.AggregateFactors)
	if err != nil {
		return nil, err
	}
	resp := &core.Response{Strategy: p.strategy, Plans: p.plans}
	pooled := &core.FactorSet{Strategy: p.strategy}
	for _, fs := range sets {
		pooled.Factors = append(pooled.Factors, fs.Factors...)
		if len(fs.Times) > 0 {
			pooled.Times = fs.Times // identical on every shard: derived from the query window
		}
		resp.Cache.Hits += fs.Cache.Hits
		resp.Cache.Misses += fs.Cache.Misses
		resp.Filter.Candidates += fs.Filter.Candidates
		resp.Filter.Pruned += fs.Filter.Pruned
		resp.Filter.Refined += fs.Filter.Refined
	}
	a, err := core.FoldFactors(spec, pooled)
	if err != nil {
		return nil, err
	}
	resp.Agg = a
	return resp, nil
}

// fanout runs call — Backend.Evaluate or Backend.AggregateFactors — with
// the prepared request on every member, at most p.workers concurrently.
// A failing shard cancels its siblings; the first real failure by shard
// index wins, with cancellation-induced errors losing to any real one
// (Evaluate canonicalizes it further, see canonicalError).
func fanout[T any](ctx context.Context, members []*member, p *prep, call func(Backend, context.Context, core.Request) (T, error)) ([]T, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]T, len(members))
	errs := make([]error, len(members))
	sem := make(chan struct{}, p.workers)
	var wg sync.WaitGroup
	for s, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[s] = ctx.Err()
				return
			}
			out[s], errs[s] = call(m.backend, ctx, p.req)
			if errs[s] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := firstRealError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// firstRealError picks the surfaced fan-out error: the first real
// failure by shard index wins, with cancellation-induced errors losing
// to any real one.
func firstRealError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}

// canonicalError turns a fan-out failure into THE deterministic error
// for this request: with several shards failing (or one failure
// cancelling siblings mid-evaluation), fanout's surviving error depends
// on which shard's evaluation got further before the cancel landed.
// Re-deriving the error through the rank-anchored streaming merge —
// whose shard evaluations are never cross-cancelled before their own
// failure surfaces — yields the error at the lowest global emission
// rank, the same one a single engine (and EvaluateSeq) reports. The
// request is re-run without ranking (ranking never changes which
// object errors first); the cost is paid only on the failure path.
func (r *Router) canonicalError(ctx context.Context, p *prep, err error) error {
	if ctx.Err() != nil {
		// Caller-cancelled (or deadline): nothing canonical to derive.
		return err
	}
	scan := *p
	scan.topK = 0
	scan.req = p.req.With(core.WithTopK(0))
	for _, serr := range r.mergeScan(ctx, &scan) {
		if serr != nil {
			return serr
		}
	}
	return err
}

// EvaluateSeq streams the merged results one object at a time, in the
// single engine's emission order. Breaking out of the loop cancels
// every shard stream.
func (r *Router) EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		release, err := r.acquire()
		if err != nil {
			yield(core.Result{}, err)
			return
		}
		defer release()
		p, err := r.prepareLocked(req)
		if err != nil {
			yield(core.Result{}, err)
			return
		}
		if _, ok := req.AggregateHint(); ok {
			// Same sentinel as Engine.EvaluateSeq: one distribution is
			// not a result stream.
			yield(core.Result{}, core.ErrAggregateStream)
			return
		}
		if p.topK > 0 {
			// Ranked requests need the full pass anyway; materialize
			// like Engine.EvaluateSeq does, then stream the ranked tail.
			resp, rerr := r.evaluateLocked(ctx, p)
			if rerr != nil {
				yield(core.Result{}, rerr)
				return
			}
			for _, res := range resp.Results {
				if !yield(res, nil) {
					return
				}
			}
			return
		}
		r.mergeScan(ctx, p)(yield)
	}
}

// EvaluateBatch answers every request, one merged Response per request
// in input order, aborting on the first per-request error (lowest index
// wins) — the Engine.EvaluateBatch contract.
func (r *Router) EvaluateBatch(ctx context.Context, reqs []core.Request) ([]*core.Response, error) {
	out := make([]*core.Response, len(reqs))
	for item := range r.EvaluateBatchSeq(ctx, reqs) {
		if item.Err != nil {
			return nil, item.Err
		}
		out[item.Index] = item.Response
	}
	return out, nil
}

// EvaluateBatchSeq streams batch outcomes in input order with per-item
// error routing: one malformed request does not poison the rest. The
// batch's distinct sweeps are warmed ONCE, by the fused kernels of a
// full-database engine publishing into the shared cache, so the
// per-shard evaluations all hit instead of warming N times.
func (r *Router) EvaluateBatchSeq(ctx context.Context, reqs []core.Request) iter.Seq[core.BatchItem] {
	return func(yield func(core.BatchItem) bool) {
		// A refused acquire or a failed warm-up is every item's error.
		release, err := r.acquire()
		if err == nil {
			defer release()
			err = r.planner.WarmBatch(ctx, reqs)
		}
		for i, req := range reqs {
			item := core.BatchItem{Index: i, Err: err}
			if err == nil {
				var p *prep
				if p, item.Err = r.prepareLocked(req); item.Err == nil {
					item.Response, item.Err = r.evaluateLocked(ctx, p)
				}
			}
			if !yield(item) {
				return
			}
		}
	}
}
