package shard

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
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
// Ingest goes through Add / ReplaceObject / Observe, which keep the
// full database and the owning shard in step while excluding queries.
// Mutating the underlying database directly is permitted only while no
// query is in flight; the router adopts such out-of-band mutations
// lazily (generation check) before the next evaluation.
type Router struct {
	full    *core.Database
	planner *core.Engine // full-database engine: planning + batch warming
	ring    *Ring
	opts    core.Options
	cache   *core.SharedCache
	factory BackendFactory // builds backends for shards Grow adds

	// mu serializes ingest/resync/rebalance (exclusive) against
	// evaluation (shared), mirroring the service layer's per-dataset
	// lock. Holding it exclusively across a migration is also what makes
	// queries during migration trivially byte-identical: no query ever
	// observes a half-moved slice.
	mu      sync.RWMutex
	members []*member
	byLabel map[int]int // ring label → index into members
	synced  uint64
	// topoGen fences Import/Evict calls: it increments on every mirror
	// batch, so a worker can reject a stale or replayed migration op.
	topoGen uint64
	// importFailures counts failed Import batches by shard label.
	importFailures map[int]uint64
	// broken, once set by a rebalance that failed part-way, is returned
	// by every later read and write (see "live rebalance" below).
	broken error

	ordMu  sync.Mutex
	orders map[bool]*orderIndex // emission orders, keyed by "insertion order"
}

var _ core.Evaluator = (*Router)(nil)

// member is one shard: the router-side shadow of its slice of the
// database plus the backend answering for it. Shadow databases share
// object and chain pointers with the full database — objects are
// immutable, chains are shared by design (score cache keys are
// chain-identity). For a local backend the shadow IS the shard's
// database; for a remote backend it is the router's bookkeeping copy,
// kept in step with the worker through Import/Evict mirroring, and the
// source of the emission-order indexes the merge layer needs.
type member struct {
	label   int
	db      *core.Database
	backend Backend
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
// mix, keyed by shard label. The factory is retained for Grow.
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
		opts:    opts,
		cache:   opts.Cache,
		factory: factory,
		byLabel: map[int]int{},
		orders:  map[bool]*orderIndex{},

		importFailures: map[int]uint64{},
	}
	for _, label := range ring.Shards() {
		if err := r.addMemberLocked(label); err != nil {
			r.closeMembers()
			return nil, err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.syncLocked(); err != nil {
		r.closeMembers()
		return nil, err
	}
	return r, nil
}

// addMemberLocked creates the shadow database and backend for a new
// shard label and appends it to the member list.
func (r *Router) addMemberLocked(label int) error {
	shadow := core.NewDatabase(r.full.DefaultChain())
	backend, err := r.factory(label, shadow)
	if err != nil {
		return fmt.Errorf("shard: backend for shard %d: %w", label, err)
	}
	r.members = append(r.members, &member{label: label, db: shadow, backend: backend})
	r.byLabel[label] = len(r.members) - 1
	return nil
}

func (r *Router) closeMembers() {
	for _, m := range r.members {
		_ = m.backend.Close()
	}
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
	var first error
	for _, m := range r.members {
		if err := m.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Database returns the full (unsharded) database the router serves.
func (r *Router) Database() *core.Database { return r.full }

// CacheStats snapshots the fleet-wide shared score cache counters.
func (r *Router) CacheStats() core.CacheStats {
	if r.cache == nil {
		return core.CacheStats{}
	}
	return r.cache.Stats()
}

// syncLocked brings every shard up to the full database's generation:
// each object is routed to its ring owner, the objects whose pointer
// changed are mirrored to the backends in one Import batch per member,
// and a member's shadow adopts its batch only once its backend has — so
// a failed batch is found again, whole, by the next sync. A broken
// router refuses here. Requires r.mu held exclusively.
func (r *Router) syncLocked() error {
	if r.broken != nil {
		return r.broken
	}
	v := r.full.Version()
	if r.synced == v {
		return nil
	}
	pending := make([][]*core.Object, len(r.members))
	for _, o := range r.full.Objects() {
		mi := r.memberOf(o.ID)
		if r.members[mi].db.Get(o.ID) != o {
			pending[mi] = append(pending[mi], o)
		}
	}
	for mi, objs := range pending {
		if len(objs) == 0 {
			continue
		}
		if err := r.importLocked(r.members[mi], objs); err != nil {
			return err
		}
	}
	r.synced = v
	r.invalidateOrders()
	return nil
}

// importLocked mirrors objs to m's backend under the next migration
// generation and, once the backend has applied them, upserts them into
// m's shadow. A failed import is counted against the shard and leaves
// the shadow as it was. Requires r.mu held exclusively.
func (r *Router) importLocked(m *member, objs []*core.Object) error {
	r.topoGen++
	if err := m.backend.Import(context.Background(), r.topoGen, objs); err != nil {
		r.importFailures[m.label]++
		return err
	}
	for _, o := range objs {
		var err error
		if m.db.Get(o.ID) == nil {
			err = m.db.Add(o)
		} else {
			err = m.db.ReplaceObject(o)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ImportFailures returns, per shard label, how many Import batches the
// shard's backend has failed — writes and migrations that did not reach
// it. Every live shard has an entry.
func (r *Router) ImportFailures() map[int]uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := maps.Clone(r.importFailures)
	for _, m := range r.members {
		out[m.label] += 0
	}
	return out
}

func (r *Router) invalidateOrders() {
	r.ordMu.Lock()
	r.orders = map[bool]*orderIndex{}
	r.ordMu.Unlock()
}

// acquire takes the evaluation (shared) lock, first adopting any
// out-of-band database mutations under the exclusive lock (where a
// broken router refuses).
func (r *Router) acquire() (release func(), err error) {
	for {
		r.mu.RLock()
		if r.synced == r.full.Version() && r.broken == nil {
			return r.mu.RUnlock, nil
		}
		r.mu.RUnlock()
		r.mu.Lock()
		err := r.syncLocked()
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
}

// --- ingest ---------------------------------------------------------------

// writeLocked commits one object the caller has just put into the full
// database — prev is the version it replaced, nil for an insert — to its
// owning shard and stamps the router synced: the O(1) ingest path,
// sparing the full syncLocked rescan when the caller knows exactly what
// changed. When the shard's backend refuses the object the full
// database is put back as it was, so a failed write changes nothing:
// the coordinator never plans or orders over an object its worker does
// not hold. Requires r.mu held exclusively and r.synced current BEFORE
// the full-database mutation.
func (r *Router) writeLocked(o, prev *core.Object) error {
	err := r.importLocked(r.members[r.memberOf(o.ID)], []*core.Object{o})
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.syncLocked(); err != nil {
		return err
	}
	if err := r.full.Add(o); err != nil {
		return err
	}
	return r.writeLocked(o, nil)
}

// ReplaceObject swaps in a new version of an existing object on both
// the full database and its owning shard.
func (r *Router) ReplaceObject(o *core.Object) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.syncLocked(); err != nil {
		return err
	}
	prev := r.full.Get(o.ID)
	if err := r.full.ReplaceObject(o); err != nil {
		return err
	}
	return r.writeLocked(o, prev)
}

// Observe appends an observation to an existing object — the standing
// ingest primitive, mirroring Service.Observe.
func (r *Router) Observe(objectID int, obs core.Observation) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.syncLocked(); err != nil {
		return err
	}
	o := r.full.Get(objectID)
	if o == nil {
		return fmt.Errorf("shard: unknown object %d", objectID)
	}
	updated, err := o.WithObservation(obs)
	if err != nil {
		return err
	}
	if err := r.full.ReplaceObject(updated); err != nil {
		return err
	}
	return r.writeLocked(updated, o)
}

// --- live rebalance ---------------------------------------------------------
//
// Grow and Shrink change the ring while the router serves traffic. Both
// run under the exclusive lock, so in-flight queries finish against the
// old topology and the next query sees the new one whole — there is no
// observable intermediate state, which is what keeps results during a
// rebalance byte-identical to a single engine. The rendezvous ring
// guarantees minimal movement: growing moves only the ids the new shard
// wins, shrinking only the ids the departing shard owned. Mirror calls
// to remote backends carry the router's migration generation.
//
// A rebalance that fails part-way fails loudly. Once a backend the
// router already serves from has refused a migration step, the shadows
// and the backends may disagree — across several sources no ordering of
// shadow and backend steps avoids that — so the router is broken: that
// call and every later read and write return one error naming the step
// and wrapping its cause, and the topology must be rebuilt. Only Grow's
// import into the joining backend, which nothing reads yet, fails
// harmlessly. Grow closes the joining backend on every failure.

// Grow adds one shard, labeled max(labels)+1, building its backend via
// factory (nil selects the factory the router was constructed with) and
// migrating exactly the objects the new shard now owns. It returns the
// new shard's label.
func (r *Router) Grow(factory BackendFactory) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.syncLocked(); err != nil {
		return 0, err
	}
	if factory == nil {
		factory = r.factory
	}
	next := r.ring.Grown()
	labels := next.Shards()
	label := labels[len(labels)-1]
	shadow := core.NewDatabase(r.full.DefaultChain())
	backend, err := factory(label, shadow)
	if err != nil {
		return 0, fmt.Errorf("shard: backend for shard %d: %w", label, err)
	}
	joining := &member{label: label, db: shadow, backend: backend}

	// Collect the moving slice in full-database order, so the new
	// shard's shadow (and its worker mirror) list objects in the same
	// relative order every other shard does.
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

	// Push to the new worker BEFORE evicting from the old owners: an
	// import failure aborts with every object still owned somewhere.
	if len(moved) > 0 {
		if err := r.importLocked(joining, moved); err != nil {
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
		for _, id := range ids {
			_ = m.db.Remove(id) // synced: the owner's shadow holds every id it owns
		}
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
	if err := r.syncLocked(); err != nil {
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

	// Redistribute in the departing shadow's order (a subsequence of
	// full-database order, so destination shadows append consistently
	// with what a fresh sync would build).
	pending := make([][]*core.Object, len(r.members))
	for _, o := range departing.db.Objects() {
		dst := r.byLabel[next.Owner(o.ID)]
		pending[dst] = append(pending[dst], o)
	}
	for dst, objs := range pending {
		if len(objs) == 0 {
			continue
		}
		if err := r.importLocked(r.members[dst], objs); err != nil {
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
		release, err := r.acquire()
		if err != nil {
			for i := range reqs {
				if !yield(core.BatchItem{Index: i, Err: err}) {
					return
				}
			}
			return
		}
		defer release()
		preps := make([]*prep, len(reqs))
		errs := make([]error, len(reqs))
		for i, req := range reqs {
			preps[i], errs[i] = r.prepareLocked(req)
		}
		if werr := r.planner.WarmBatch(ctx, reqs); werr != nil {
			for i := range reqs {
				if !yield(core.BatchItem{Index: i, Err: werr}) {
					return
				}
			}
			return
		}
		for i := range reqs {
			item := core.BatchItem{Index: i, Err: errs[i]}
			if errs[i] == nil {
				item.Response, item.Err = r.evaluateLocked(ctx, preps[i])
			}
			if !yield(item) {
				return
			}
		}
	}
}
