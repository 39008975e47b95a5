// Package service is the multi-tenant serving layer over the query
// engine: named datasets (each a Database/Engine pair), per-request
// deadlines, an admission limiter bounding concurrent evaluations, and
// single-flight coalescing of identical in-flight requests on top of
// the engine's score cache. It is the in-process backbone of the HTTP
// front end (cmd/ustserve) and of ust.Service in the facade, but is a
// complete embeddable server on its own.
//
// Concurrency model: a Database is safe for concurrent reads but not
// for mutation concurrent with anything, so each dataset carries an
// RWMutex — evaluations and subscriptions hold it shared, ingest holds
// it exclusively. The engine's score cache underneath is already
// concurrency-safe, so parallel readers share sweeps.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/shard"
	"ust/internal/spatial"
	"ust/internal/store"
	"ust/internal/wire"
)

// Sentinel errors. The HTTP layer maps them to status codes.
var (
	// ErrUnknownDataset: the named dataset does not exist.
	ErrUnknownDataset = errors.New("service: unknown dataset")
	// ErrDatasetExists: create/load would overwrite an existing dataset.
	ErrDatasetExists = errors.New("service: dataset already exists")
	// ErrOverloaded: the admission limiter could not grant a slot before
	// the request's deadline.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrClosed: the service has been shut down.
	ErrClosed = errors.New("service: closed")
	// ErrNoResolver: the request carries a geometric region but the
	// dataset has no spatial resolver to ground it.
	ErrNoResolver = errors.New("service: dataset has no spatial resolver")
	// ErrBadIngest: an Observe/Track payload failed validation (unknown
	// object, dimension mismatch, duplicate id/time, …) — a caller
	// mistake, not a server fault.
	ErrBadIngest = errors.New("service: bad ingest")
	// ErrBodyTooLarge: a binary upload (dataset image, import frame)
	// exceeds the server's body limit; HTTP 413.
	ErrBodyTooLarge = errors.New("service: request body too large")
	// ErrStaleGeneration: an Import/Evict carried a migration generation
	// the dataset has already applied — a replayed or reordered transfer,
	// rejected so a rebalance can never double-apply.
	ErrStaleGeneration = errors.New("service: stale migration generation")
)

// Config tunes a Service.
type Config struct {
	// Options tune the engine built for each dataset (cache budget,
	// default strategy, Monte-Carlo defaults).
	Options core.Options
	// MaxConcurrent bounds concurrently running evaluations service-wide
	// (admission control). ≤ 0 selects DefaultMaxConcurrent.
	MaxConcurrent int
	// DefaultTimeout is applied to requests whose context carries no
	// deadline of its own. 0 means no implicit deadline.
	DefaultTimeout time.Duration
	// Shards, when > 1, backs every dataset with a sharded engine
	// (internal/shard): objects partitioned across that many shard
	// engines by consistent hashing, requests fanned out and merged
	// with byte-identical results. The wire surface is unchanged —
	// single-process scale-out today, and the contract for the
	// multi-process deployment later.
	Shards int
	// Engines, when set, builds each dataset's engine instead of the
	// default core.Engine / shard.Router construction — the hook the
	// coordinator uses to back datasets with a ring of remote workers
	// (internal/dist). The factory returns the evaluation surface and
	// the ingest surface (usually the same value). Overrides Shards.
	Engines EngineFactory
	// Role labels this process in /metrics (ust_role): "server" (the
	// default), "coordinator" or "worker".
	Role string
	// WorkerHealth, when set, snapshots the coordinator's health-probe
	// state for /metrics (ust_worker_healthy{worker}). The service
	// stays decoupled from the prober's package — the process wiring
	// adapts its snapshot into this shape.
	WorkerHealth func() []WorkerHealth
}

// WorkerHealth is one probed worker's liveness as exposed in /metrics.
type WorkerHealth struct {
	Worker  string
	Healthy bool
}

// Evaluator is the engine surface a dataset serves queries through —
// satisfied by *core.Engine, *shard.Router and the distributed router.
type Evaluator interface {
	Evaluate(ctx context.Context, req core.Request) (*core.Response, error)
	EvaluateSeq(ctx context.Context, req core.Request) iter.Seq2[core.Result, error]
	CacheStats() core.CacheStats
}

// Ingester is the mutation surface behind a dataset — satisfied by
// *core.Database and *shard.Router.
type Ingester interface {
	Add(*core.Object) error
	ReplaceObject(*core.Object) error
}

// EngineFactory builds the engine pair for one dataset (Config.Engines).
type EngineFactory func(name string, db *core.Database) (Evaluator, Ingester, error)

// DefaultMaxConcurrent is the default admission-limiter width.
const DefaultMaxConcurrent = 64

// Info describes one named dataset.
type Info struct {
	// Name is the dataset's service-wide identifier.
	Name string
	// Objects is the current object count.
	Objects int
	// States is the default chain's state-space size.
	States int
	// Version is the database mutation generation (advances on ingest).
	Version uint64
}

// Stats is a snapshot of the service-wide counters surfaced at /metrics.
type Stats struct {
	// Requests counts evaluation requests admitted into Evaluate (batch)
	// and Stream entry points, including coalesced ones.
	Requests uint64
	// Coalesced counts requests answered by joining an identical
	// in-flight evaluation instead of running their own (single-flight).
	Coalesced uint64
	// Evaluations counts evaluations actually executed.
	Evaluations uint64
	// Rejected counts requests that gave up waiting for admission.
	Rejected uint64
	// Ingests counts observation/object mutations.
	Ingests uint64
	// Subscriptions is the number of currently active subscriptions.
	Subscriptions uint64
	// Updates counts subscription updates delivered.
	Updates uint64
	// InFlight is the number of evaluations currently holding an
	// admission slot.
	InFlight uint64
}

// Service owns named datasets and serves queries, streams and
// subscriptions over them. Safe for concurrent use.
type Service struct {
	cfg    Config
	sem    chan struct{}
	flight flightGroup
	// sweeps is the coordinator side of the networked sweep tier,
	// served at /v1/sweeps by the HTTP layer. Always present; it costs
	// nothing until a worker talks to it.
	sweeps *SweepBoard
	// ready gates /readyz: true once startup loading finished, false
	// again while draining. Embedders that never touch it are ready from
	// construction.
	ready       atomic.Bool
	ringMembers atomic.Int64
	// httpMetrics backs the per-endpoint latency histograms and
	// status-code counters of /metrics (see metrics.go); populated by
	// the HTTP layer's instrumented handlers.
	httpMetrics *httpMetrics

	mu       sync.RWMutex
	datasets map[string]*dataset
	closed   bool

	requests    atomic.Uint64
	coalesced   atomic.Uint64
	evaluations atomic.Uint64
	rejected    atomic.Uint64
	ingests     atomic.Uint64
	imports     importMetrics
	subs        atomic.Int64
	updates     atomic.Uint64
	inFlight    atomic.Int64
}

// dataset is one named Database/engine pair plus its subscribers.
type dataset struct {
	name   string
	mu     sync.RWMutex // shared: evaluate/stream/subscribe; exclusive: ingest
	db     *core.Database
	engine Evaluator
	ing    Ingester
	// single is the unsharded engine when the dataset is not sharded
	// (nil otherwise); Service.Engine exposes it to in-process callers.
	single *core.Engine
	// resolver grounds geometric regions for this dataset; nil when the
	// dataset has no geometry (e.g. loaded from a bare store file).
	resolver spatial.Resolver
	// lastGen is the highest migration generation applied through
	// ImportObjects/EvictObjects; earlier generations are rejected with
	// ErrStaleGeneration. chains maps content fingerprint → canonical
	// chain: import frames reference chains through it, and own chains
	// that arrive inline are canonicalized by it so a migrated chain
	// group stays one group. Both are touched only under mu exclusive.
	lastGen uint64
	chains  map[uint64]*markov.Chain

	subMu      sync.Mutex
	subs       map[*Subscription]struct{}
	subsClosed bool  // set by closeSubs; rejects late registrations
	subsErr    error // why (dataset dropped / service closed)
}

// New builds an empty service.
func New(cfg Config) *Service {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	s := &Service{
		cfg:         cfg,
		sem:         make(chan struct{}, cfg.MaxConcurrent),
		sweeps:      NewSweepBoard(0, 0),
		datasets:    map[string]*dataset{},
		httpMetrics: newHTTPMetrics(),
	}
	s.flight = flightGroup{calls: map[string]*flightCall{}, coalesced: &s.coalesced}
	s.ready.Store(true)
	s.ringMembers.Store(int64(max(cfg.Shards, 1)))
	return s
}

// Sweeps exposes the service's sweep lease board (the /v1/sweeps
// backing store) for embedders and tests.
func (s *Service) Sweeps() *SweepBoard { return s.sweeps }

// SetReady flips the /readyz gate: false during startup loading and
// drain, true while serving.
func (s *Service) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the /readyz gate.
func (s *Service) Ready() bool { return s.ready.Load() }

// SetRingMembers records the evaluation ring width surfaced at /metrics
// (ust_ring_members): shard count in-process, worker count for a
// coordinator.
func (s *Service) SetRingMembers(n int) { s.ringMembers.Store(int64(n)) }

// Close shuts the service down: every subscription is terminated and
// subsequent calls fail with ErrClosed. In-flight evaluations finish.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	dss := make([]*dataset, 0, len(s.datasets))
	for _, ds := range s.datasets {
		dss = append(dss, ds)
	}
	s.mu.Unlock()
	for _, ds := range dss {
		ds.closeSubs(ErrClosed)
		ds.closeEngine()
	}
}

// closeEngine releases engine-held resources (remote-backend
// connections, shard goroutines) when the engine exposes a Close.
func (ds *dataset) closeEngine() {
	if c, ok := ds.engine.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}

// Create registers db under name. The database must not be mutated
// behind the service's back afterwards; route ingest through Observe
// and Track. resolver may be nil.
func (s *Service) Create(name string, db *core.Database, resolver spatial.Resolver) error {
	if name == "" {
		return fmt.Errorf("service: empty dataset name")
	}
	if db == nil {
		return fmt.Errorf("service: nil database")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.datasets[name]; dup {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	ds := &dataset{
		name:     name,
		db:       db,
		resolver: resolver,
		subs:     map[*Subscription]struct{}{},
	}
	if s.cfg.Engines != nil {
		eng, ing, err := s.cfg.Engines(name, db)
		if err != nil {
			return err
		}
		ds.engine = eng
		ds.ing = ing
	} else if s.cfg.Shards > 1 {
		router, err := shard.New(db, s.cfg.Shards, s.cfg.Options)
		if err != nil {
			return err
		}
		ds.engine = router
		ds.ing = router
	} else {
		ds.single = core.NewEngine(db, s.cfg.Options)
		ds.engine = ds.single
		ds.ing = db
	}
	s.datasets[name] = ds
	return nil
}

// Load reads a database in the binary store format and registers it
// under name.
func (s *Service) Load(name string, r io.Reader) error {
	// Buffer the image and decode through the mapped path: for v2
	// uploads the dataset adopts the probability column straight out of
	// the request body instead of re-allocating per observation. The
	// buffer is owned by the dataset from here on.
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return s.loadImage(name, data)
}

// loadImage registers the database decoded from a complete store image,
// which the dataset owns from here on.
func (s *Service) loadImage(name string, image []byte) error {
	db, err := store.LoadDatabaseMapped(image)
	if err != nil {
		return err
	}
	return s.Create(name, db, nil)
}

// Save writes the named dataset in the binary store format, under the
// dataset's read lock so a consistent snapshot is captured even while
// queries and ingest continue on other datasets.
func (s *Service) Save(name string, w io.Writer) error {
	ds, err := s.dataset(name)
	if err != nil {
		return err
	}
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return store.SaveDatabase(w, ds.db)
}

// Drop removes the named dataset and terminates its subscriptions.
func (s *Service) Drop(name string) error {
	s.mu.Lock()
	ds, ok := s.datasets[name]
	if ok {
		delete(s.datasets, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	ds.closeSubs(fmt.Errorf("%w: %q", ErrUnknownDataset, name))
	ds.closeEngine()
	return nil
}

// Datasets lists the registered datasets sorted by name.
func (s *Service) Datasets() []Info {
	s.mu.RLock()
	dss := make([]*dataset, 0, len(s.datasets))
	for _, ds := range s.datasets {
		dss = append(dss, ds)
	}
	s.mu.RUnlock()
	infos := make([]Info, 0, len(dss))
	for _, ds := range dss {
		infos = append(infos, ds.info())
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
	return infos
}

// Info describes the named dataset.
func (s *Service) Info(name string) (Info, error) {
	ds, err := s.dataset(name)
	if err != nil {
		return Info{}, err
	}
	return ds.info(), nil
}

// Engine exposes the named dataset's engine for in-process callers that
// need direct access (experiments, tests). Mutating its database
// directly bypasses subscription notification — use Observe/Track.
// Sharded datasets (Config.Shards > 1) have no single engine and return
// an error.
func (s *Service) Engine(name string) (*core.Engine, error) {
	ds, err := s.dataset(name)
	if err != nil {
		return nil, err
	}
	if ds.single == nil {
		return nil, fmt.Errorf("service: dataset %q is sharded; no single engine to expose", name)
	}
	return ds.single, nil
}

// CacheStats aggregates engine score-cache counters across datasets.
func (s *Service) CacheStats() core.CacheStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var agg core.CacheStats
	for _, ds := range s.datasets {
		st := ds.engine.CacheStats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
		agg.Expired += st.Expired
		agg.Entries += st.Entries
		agg.Bytes += st.Bytes
	}
	return agg
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	subs := s.subs.Load()
	if subs < 0 {
		subs = 0
	}
	inFlight := s.inFlight.Load()
	if inFlight < 0 {
		inFlight = 0
	}
	return Stats{
		Requests:      s.requests.Load(),
		Coalesced:     s.coalesced.Load(),
		Evaluations:   s.evaluations.Load(),
		Rejected:      s.rejected.Load(),
		Ingests:       s.ingests.Load(),
		Subscriptions: uint64(subs),
		Updates:       s.updates.Load(),
		InFlight:      uint64(inFlight),
	}
}

func (s *Service) dataset(name string) (*dataset, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	ds, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return ds, nil
}

func (ds *dataset) info() Info {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return Info{
		Name:    ds.name,
		Objects: ds.db.Len(),
		States:  ds.db.DefaultChain().NumStates(),
		Version: ds.db.Version(),
	}
}

// --- ingest ---------------------------------------------------------------

// Observe appends an observation to an existing object of the named
// dataset and notifies its subscriptions. The observation time must not
// duplicate an existing one.
func (s *Service) Observe(name string, objectID int, obs core.Observation) error {
	ds, err := s.dataset(name)
	if err != nil {
		return err
	}
	err = func() error {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		o := ds.db.Get(objectID)
		if o == nil {
			return fmt.Errorf("%w: unknown object %d in dataset %q", ErrBadIngest, objectID, name)
		}
		ch := ds.db.ChainOf(o)
		if obs.PDF == nil || obs.PDF.NumStates() != ch.NumStates() {
			return fmt.Errorf("%w: observation pdf dimension mismatch for object %d", ErrBadIngest, objectID)
		}
		updated, oerr := o.WithObservation(obs)
		if oerr != nil {
			return fmt.Errorf("%w: %v", ErrBadIngest, oerr)
		}
		if rerr := ds.ing.ReplaceObject(updated); rerr != nil {
			return fmt.Errorf("%w: %v", ErrBadIngest, rerr)
		}
		return nil
	}()
	if err != nil {
		return err
	}
	s.ingests.Add(1)
	ds.notifySubs()
	return nil
}

// Track adds a brand-new object to the named dataset and notifies its
// subscriptions.
func (s *Service) Track(name string, o *core.Object) error {
	ds, err := s.dataset(name)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	err = ds.ing.Add(o)
	ds.mu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadIngest, err)
	}
	s.ingests.Add(1)
	ds.notifySubs()
	return nil
}

// --- worker surface -------------------------------------------------------
//
// The three endpoints a distributed router drives on its workers:
// AggregateFactors ships raw Bernoulli factors (the coordinator folds
// them in canonical order — pooling per-shard PMFs would break
// byte-identity), ImportObjects and EvictObjects apply migration slices
// under a generation fence. Import/Evict require an unsharded dataset:
// a worker IS one shard, it does not re-shard its slice.

// AggregateFactors computes the factor decomposition of an aggregate
// request against the named dataset, under the service deadline and
// admission control. The dataset's engine must expose the factor
// surface (core.Engine does; distributed routers answer aggregates
// through Evaluate instead).
func (s *Service) AggregateFactors(ctx context.Context, name string, req core.Request) (*core.FactorSet, error) {
	ds, err := s.dataset(name)
	if err != nil {
		return nil, err
	}
	req, err = ds.resolveRegion(req)
	if err != nil {
		return nil, err
	}
	fac, ok := ds.engine.(interface {
		AggregateFactors(ctx context.Context, req core.Request) (*core.FactorSet, error)
	})
	if !ok {
		return nil, fmt.Errorf("%w: dataset %q cannot factor aggregates", ErrBadIngest, name)
	}
	s.requests.Add(1)
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	s.evaluations.Add(1)
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return fac.AggregateFactors(ctx, req)
}

// ImportObjects upserts a store-encoded batch of objects into the named
// dataset under migration generation gen. Generations must strictly
// increase per dataset; a replayed or reordered transfer fails with
// ErrStaleGeneration and changes nothing. The batch is an object frame
// (store.FrameEncoder) or a full image: chains travelling by
// reference resolve against the dataset's fingerprint table — the
// canonical pointers, so nothing is decoded to compare a hash — and
// chains travelling inline are canonicalized by fingerprint, so a chain
// group split across transfer batches re-merges into one group, which
// is what keeps the worker's emission order the one the coordinator's
// catalogue predicts. A fingerprint the dataset does not hold, like
// any undecodable batch, fails with ErrBadIngest and changes nothing.
func (s *Service) ImportObjects(name string, gen uint64, image []byte) error {
	ds, err := s.dataset(name)
	if err != nil {
		return err
	}
	start := time.Now()
	objects := 0
	err = func() error {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		if ds.single == nil {
			return fmt.Errorf("%w: dataset %q is sharded; workers import into unsharded datasets", ErrBadIngest, name)
		}
		if gen <= ds.lastGen {
			return fmt.Errorf("%w: generation %d already applied (at %d)", ErrStaleGeneration, gen, ds.lastGen)
		}
		chains := ds.chainsLocked()
		batch, derr := store.DecodeObjectFrame(image, func(fp uint64) *markov.Chain { return chains[fp] })
		if derr != nil {
			return fmt.Errorf("%w: %w", ErrBadIngest, derr)
		}
		if batch.DefaultChain().Fingerprint() != ds.db.DefaultChain().Fingerprint() {
			return fmt.Errorf("%w: import batch default chain differs from dataset %q", ErrBadIngest, name)
		}
		for _, o := range batch.Objects() {
			canon, cerr := ds.canonicalizeLocked(o)
			if cerr != nil {
				return fmt.Errorf("%w: %v", ErrBadIngest, cerr)
			}
			var aerr error
			if ds.db.Get(canon.ID) != nil {
				aerr = ds.db.ReplaceObject(canon)
			} else {
				aerr = ds.db.Add(canon)
			}
			if aerr != nil {
				return fmt.Errorf("%w: %v", ErrBadIngest, aerr)
			}
		}
		ds.lastGen = gen
		objects = batch.Len()
		return nil
	}()
	if err != nil {
		return err
	}
	s.ingests.Add(1)
	s.imports.record(len(image), objects, time.Since(start))
	ds.notifySubs()
	return nil
}

// chainsLocked returns the dataset's fingerprint → canonical chain
// table, building it on first use from the default chain and the chains
// of the objects already held. Requires ds.mu held exclusively.
func (ds *dataset) chainsLocked() map[uint64]*markov.Chain {
	if ds.chains == nil {
		ds.chains = map[uint64]*markov.Chain{}
		def := ds.db.DefaultChain()
		ds.chains[def.Fingerprint()] = def
		for _, existing := range ds.db.Objects() {
			ch := ds.db.ChainOf(existing)
			if _, seen := ds.chains[ch.Fingerprint()]; !seen {
				ds.chains[ch.Fingerprint()] = ch
			}
		}
	}
	return ds.chains
}

// canonicalizeLocked maps an imported object's own chain to the
// dataset's canonical chain of the same fingerprint — registering it as
// canonical on first sight — so equal chains stay pointer-identical.
// Requires ds.mu held exclusively.
func (ds *dataset) canonicalizeLocked(o *core.Object) (*core.Object, error) {
	if o.Chain == nil {
		return o, nil
	}
	chains := ds.chainsLocked()
	fp := o.Chain.Fingerprint()
	canon, ok := chains[fp]
	if !ok {
		chains[fp] = o.Chain
		return o, nil
	}
	if canon == o.Chain {
		return o, nil
	}
	return core.NewObjectSorted(o.ID, canon, o.Observations)
}

// EvictObjects removes the given object ids from the named dataset
// under migration generation gen (same fence as ImportObjects). An
// unknown or repeated id refuses the whole batch and changes nothing —
// an eviction for an object the worker never held means the topology
// drifted.
func (s *Service) EvictObjects(name string, gen uint64, ids []int) error {
	ds, err := s.dataset(name)
	if err != nil {
		return err
	}
	err = func() error {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		if ds.single == nil {
			return fmt.Errorf("%w: dataset %q is sharded; workers evict from unsharded datasets", ErrBadIngest, name)
		}
		if gen <= ds.lastGen {
			return fmt.Errorf("%w: generation %d already applied (at %d)", ErrStaleGeneration, gen, ds.lastGen)
		}
		seen := make(map[int]bool, len(ids))
		for _, id := range ids {
			if ds.db.Get(id) == nil || seen[id] {
				return fmt.Errorf("%w: cannot evict object %d: unknown or repeated", ErrBadIngest, id)
			}
			seen[id] = true
		}
		for _, id := range ids {
			_ = ds.db.Remove(id) // checked above
		}
		ds.lastGen = gen
		return nil
	}()
	if err != nil {
		return err
	}
	s.ingests.Add(1)
	ds.notifySubs()
	return nil
}

// --- evaluation -----------------------------------------------------------

// withDeadline applies the service's default timeout when the caller's
// context has none.
func (s *Service) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.DefaultTimeout <= 0 {
		return ctx, func() {}
	}
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
}

// admit acquires an admission slot, failing with ErrOverloaded when the
// context expires first.
func (s *Service) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			s.rejected.Add(1)
			return nil, fmt.Errorf("%w: %v", ErrOverloaded, context.Cause(ctx))
		}
	}
	s.inFlight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.inFlight.Add(-1)
			<-s.sem
		})
	}, nil
}

// resolveRegion attaches the dataset's resolver to region-carrying
// requests — top-level regions and compound-expression atoms alike
// (decoded requests arrive with nil resolvers).
func (ds *dataset) resolveRegion(req core.Request) (core.Request, error) {
	if !req.NeedsResolver() {
		return req, nil
	}
	if ds.resolver == nil {
		return req, fmt.Errorf("%w: %q", ErrNoResolver, ds.name)
	}
	return req.AttachResolver(ds.resolver), nil
}

// testHookEvalStart, when set, runs inside every evaluation after
// admission and locking; tests use it to hold evaluations open while
// asserting coalescing and admission behavior.
var testHookEvalStart func()

// Evaluate answers one batch request against the named dataset, with
// the service deadline, admission control and single-flight coalescing
// applied. Identical concurrent requests (same dataset, same canonical
// wire encoding, same database version) share one evaluation; each
// caller receives its own copy of the result slice (a caller nobody
// joined receives the evaluation's own). Response.Results entries may
// share Dist slices across callers — treat them as read-only.
func (s *Service) Evaluate(ctx context.Context, name string, req core.Request) (*core.Response, error) {
	ds, err := s.dataset(name)
	if err != nil {
		return nil, err
	}
	req, err = ds.resolveRegion(req)
	if err != nil {
		return nil, err
	}
	s.requests.Add(1)
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()

	run := func(ctx context.Context) (*core.Response, error) {
		release, aerr := s.admit(ctx)
		if aerr != nil {
			return nil, aerr
		}
		defer release()
		s.evaluations.Add(1)
		ds.mu.RLock()
		defer ds.mu.RUnlock()
		if testHookEvalStart != nil {
			testHookEvalStart()
		}
		return ds.engine.Evaluate(ctx, req)
	}

	key, ok := s.flightKey(ds, req)
	if !ok {
		return run(ctx)
	}
	// The detached evaluation inherits the leader's effective deadline
	// (explicit or the applied default) — waiters that outlive it keep
	// the evaluation alive only until that bound; callers with no
	// deadline at all leave it bounded by last-waiter cancellation.
	var timeout time.Duration
	if dl, has := ctx.Deadline(); has {
		timeout = time.Until(dl)
	}
	resp, shared, err := s.flight.do(ctx, key, timeout, run)
	if err != nil {
		return nil, err
	}
	if shared {
		resp = shareResponse(resp)
	}
	return resp, nil
}

// flightKey derives the single-flight key: dataset identity, database
// generation and the request's canonical text (its wire form). Requests
// the text cannot carry (exotic region implementations) simply skip
// coalescing.
func (s *Service) flightKey(ds *dataset, req core.Request) (string, bool) {
	enc, err := wire.EncodeRequest(req)
	if err != nil {
		return "", false
	}
	ds.mu.RLock()
	version := ds.db.Version()
	ds.mu.RUnlock()
	return fmt.Sprintf("%s\x00%d\x00%s", ds.name, version, enc), true
}

// shareResponse hands one coalesced result to one of the callers that
// share it: the Response struct and the Results/Plans slices are copied
// so independent callers can sort or truncate freely; Dist payloads stay
// shared (read-only).
func shareResponse(resp *core.Response) *core.Response {
	cp := *resp
	if resp.Results != nil {
		cp.Results = append([]core.Result(nil), resp.Results...)
	}
	if resp.Plans != nil {
		cp.Plans = append([]core.CostEstimate(nil), resp.Plans...)
	}
	if resp.Agg != nil {
		a := *resp.Agg
		cp.Agg = &a // PMF/Profile slices stay shared (read-only), like Dist
	}
	return &cp
}

// Stream answers one request as a result sequence, holding the
// dataset's read lock (and one admission slot) for the duration of the
// iteration — ingest on the same dataset waits until the stream is
// drained or abandoned. Streams bypass single-flight (each consumer
// drives its own iteration).
func (s *Service) Stream(ctx context.Context, name string, req core.Request) iter.Seq2[core.Result, error] {
	return func(yield func(core.Result, error) bool) {
		ds, err := s.dataset(name)
		if err != nil {
			yield(core.Result{}, err)
			return
		}
		req, err = ds.resolveRegion(req)
		if err != nil {
			yield(core.Result{}, err)
			return
		}
		s.requests.Add(1)
		ctx, cancel := s.withDeadline(ctx)
		defer cancel()
		release, err := s.admit(ctx)
		if err != nil {
			yield(core.Result{}, err)
			return
		}
		defer release()
		s.evaluations.Add(1)
		ds.mu.RLock()
		defer ds.mu.RUnlock()
		if testHookEvalStart != nil {
			testHookEvalStart()
		}
		for r, serr := range ds.engine.EvaluateSeq(ctx, req) {
			if !yield(r, serr) {
				return
			}
			if serr != nil {
				return
			}
		}
	}
}

// evaluateLocked runs one evaluation under the dataset's read lock
// without admission or coalescing — the subscription refresh path (its
// cost is already bounded by the score cache, and a standing query
// must not be starved by its own service's load).
func (s *Service) evaluateLocked(ctx context.Context, ds *dataset, req core.Request) (*core.Response, uint64, error) {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	resp, err := ds.engine.Evaluate(ctx, req)
	return resp, ds.db.Version(), err
}
