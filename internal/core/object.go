package core

import (
	"fmt"
	"iter"
	"sort"
	"sync/atomic"

	"ust/internal/markov"
)

// Observation is a (possibly uncertain) sighting of an object: a pdf
// over the state space at an absolute timestamp. A precise observation is
// a point distribution.
type Observation struct {
	Time int
	PDF  *markov.Distribution
}

// Object is an uncertain spatio-temporal object: its motion model (a
// Markov chain, possibly shared across the database) plus one or more
// observations. With a single observation the trajectory is extrapolated
// forward; with several it is interpolated between them (Section VI).
type Object struct {
	ID           int
	Chain        *markov.Chain // nil means "use the database default"
	Observations []Observation // sorted by Time, unique times
	// serial is a process-unique construction counter. Objects are
	// immutable after construction (ingest replaces the whole object),
	// so the serial is a content handle: caches key observation-derived
	// payloads (per-object posteriors, multi-observation sweep results)
	// on it and entries for superseded objects simply stop being asked
	// for, aging out of the LRU instead of needing invalidation.
	serial uint64
}

// objectSerials issues Object.serial values.
var objectSerials atomic.Uint64

// NewObject builds an object with the given id and observations, sorting
// them by time. chain may be nil when the object follows the database
// default chain.
func NewObject(id int, chain *markov.Chain, obs ...Observation) (*Object, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: object %d needs at least one observation", id)
	}
	sorted := append([]Observation(nil), obs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Time < sorted[b].Time })
	for i, o := range sorted {
		if o.Time < 0 {
			return nil, fmt.Errorf("core: object %d has negative observation time %d", id, o.Time)
		}
		if o.PDF == nil {
			return nil, fmt.Errorf("core: object %d observation %d has nil pdf", id, i)
		}
		if o.PDF.Mass() <= 0 {
			return nil, fmt.Errorf("core: object %d observation at t=%d carries no mass", id, o.Time)
		}
		if i > 0 && sorted[i-1].Time == o.Time {
			return nil, fmt.Errorf("core: object %d has duplicate observation time %d", id, o.Time)
		}
	}
	return &Object{ID: id, Chain: chain, Observations: sorted, serial: objectSerials.Add(1)}, nil
}

// NewObjectSorted wraps an already-sorted observation slice without
// copying or re-sorting — the bulk-load entry point used by the store's
// columnar decoder, which materializes observation slices from shared
// arenas. It runs the same validation as NewObject (the input is a file,
// not a trusted caller) but adopts the slice: the caller must not touch
// obs afterwards.
func NewObjectSorted(id int, chain *markov.Chain, obs []Observation) (*Object, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: object %d needs at least one observation", id)
	}
	for i, o := range obs {
		if o.Time < 0 {
			return nil, fmt.Errorf("core: object %d has negative observation time %d", id, o.Time)
		}
		if o.PDF == nil {
			return nil, fmt.Errorf("core: object %d observation %d has nil pdf", id, i)
		}
		if o.PDF.Mass() <= 0 {
			return nil, fmt.Errorf("core: object %d observation at t=%d carries no mass", id, o.Time)
		}
		if i > 0 && obs[i-1].Time >= o.Time {
			return nil, fmt.Errorf("core: object %d observations not sorted by unique times", id)
		}
	}
	return &Object{ID: id, Chain: chain, Observations: obs, serial: objectSerials.Add(1)}, nil
}

// MustObject is NewObject that panics on error.
func MustObject(id int, chain *markov.Chain, obs ...Observation) *Object {
	o, err := NewObject(id, chain, obs...)
	if err != nil {
		panic(err)
	}
	return o
}

// WithObservation returns a copy of the object with one more
// observation added, keeping the time order — the single place the
// "append a sighting to an immutable object" sequence lives (used by
// the service ingest path and the shard router). Only the new
// observation is validated (the existing ones were validated when o was
// built) and the observation slice is copied exactly once, into its
// sorted position; historically this path copied the slice twice and
// re-sorted/re-validated the whole history on every ingest.
func (o *Object) WithObservation(obs Observation) (*Object, error) {
	if obs.Time < 0 {
		return nil, fmt.Errorf("core: object %d has negative observation time %d", o.ID, obs.Time)
	}
	if obs.PDF == nil {
		return nil, fmt.Errorf("core: object %d observation %d has nil pdf", o.ID, len(o.Observations))
	}
	if obs.PDF.Mass() <= 0 {
		return nil, fmt.Errorf("core: object %d observation at t=%d carries no mass", o.ID, obs.Time)
	}
	at := sort.Search(len(o.Observations), func(i int) bool {
		return o.Observations[i].Time >= obs.Time
	})
	if at < len(o.Observations) && o.Observations[at].Time == obs.Time {
		return nil, fmt.Errorf("core: object %d has duplicate observation time %d", o.ID, obs.Time)
	}
	merged := make([]Observation, len(o.Observations)+1)
	copy(merged, o.Observations[:at])
	merged[at] = obs
	copy(merged[at+1:], o.Observations[at:])
	return &Object{ID: o.ID, Chain: o.Chain, Observations: merged, serial: objectSerials.Add(1)}, nil
}

// First returns the earliest observation.
func (o *Object) First() Observation { return o.Observations[0] }

// Last returns the latest observation.
func (o *Object) Last() Observation { return o.Observations[len(o.Observations)-1] }

// Database is a collection of uncertain objects sharing a default motion
// model. Objects may override the default with their own chain (buses vs
// cars vs trucks); the query-based strategy automatically groups objects
// by chain.
type Database struct {
	chain   *markov.Chain
	objects []*Object
	byID    map[int]*Object
	pos     map[int]int // object id → index into objects
	// version counts mutations (inserts and observation updates): the
	// generation a subscription, the service's request coalescing and
	// the shard router's writer check compare to decide staleness. (The engine's
	// score cache does not need it — its keys cannot go stale.)
	// Databases are not safe for concurrent mutation (reads may be
	// concurrent); the version itself is atomic so a reader race-freely
	// observes mutations made under another holder's lock.
	version atomic.Uint64
}

// NewDatabase creates a database with the given default chain.
func NewDatabase(defaultChain *markov.Chain) *Database {
	if defaultChain == nil {
		panic("core: nil default chain")
	}
	return &Database{chain: defaultChain, byID: map[int]*Object{}, pos: map[int]int{}}
}

// DefaultChain returns the database's default motion model.
func (db *Database) DefaultChain() *markov.Chain { return db.chain }

// Add inserts an object. The object's observations must be dimensioned
// for its effective chain.
func (db *Database) Add(o *Object) error {
	ch := db.ChainOf(o)
	for _, obs := range o.Observations {
		if obs.PDF.NumStates() != ch.NumStates() {
			return fmt.Errorf("core: object %d observation over %d states, chain has %d",
				o.ID, obs.PDF.NumStates(), ch.NumStates())
		}
	}
	if _, dup := db.byID[o.ID]; dup {
		return fmt.Errorf("core: duplicate object id %d", o.ID)
	}
	db.objects = append(db.objects, o)
	db.byID[o.ID] = o
	db.pos[o.ID] = len(db.objects) - 1
	db.version.Add(1)
	return nil
}

// Version returns the database's mutation generation. It advances on
// every insert and observation update; holders of derived state (a
// subscription's last results, the shard router's catalogue) compare
// generations to decide staleness.
func (db *Database) Version() uint64 { return db.version.Load() }

// ReplaceObject swaps in a new version of an existing object (same ID),
// preserving database order, and advances the generation. It is the
// observation-update entry point used by Service.Observe.
func (db *Database) ReplaceObject(updated *Object) error {
	if updated == nil {
		return fmt.Errorf("core: nil object")
	}
	if db.byID[updated.ID] == nil {
		return fmt.Errorf("core: unknown object %d", updated.ID)
	}
	ch := db.ChainOf(updated)
	for _, obs := range updated.Observations {
		if obs.PDF.NumStates() != ch.NumStates() {
			return fmt.Errorf("core: object %d observation over %d states, chain has %d",
				updated.ID, obs.PDF.NumStates(), ch.NumStates())
		}
	}
	db.objects[db.pos[updated.ID]] = updated
	db.byID[updated.ID] = updated
	db.version.Add(1)
	return nil
}

// Remove deletes the object with the given id, preserving the insertion
// order of the survivors, and advances the generation. It is the
// migration entry point: a ring rebalance moves an object between
// workers as an insert on the destination followed by a Remove on the
// source. Removing an unknown id is an error — migration must never
// silently "succeed" at dropping an object that was not there.
func (db *Database) Remove(id int) error {
	if _, ok := db.byID[id]; !ok {
		return fmt.Errorf("core: unknown object %d", id)
	}
	at := db.pos[id]
	db.objects = append(db.objects[:at], db.objects[at+1:]...)
	for _, o := range db.objects[at:] {
		db.pos[o.ID]--
	}
	delete(db.byID, id)
	delete(db.pos, id)
	db.version.Add(1)
	return nil
}

// MustAdd is Add that panics on error.
func (db *Database) MustAdd(o *Object) {
	if err := db.Add(o); err != nil {
		panic(err)
	}
}

// AddSimple inserts an object with a single observation at time 0 under
// the default chain — the common case in the paper's experiments.
func (db *Database) AddSimple(id int, initial *markov.Distribution) error {
	o, err := NewObject(id, nil, Observation{Time: 0, PDF: initial})
	if err != nil {
		return err
	}
	return db.Add(o)
}

// Len returns the number of objects.
func (db *Database) Len() int { return len(db.objects) }

// Objects returns the backing object slice; callers must not mutate it.
func (db *Database) Objects() []*Object { return db.objects }

// Get returns the object with the given id, or nil.
func (db *Database) Get(id int) *Object { return db.byID[id] }

// ChainOf returns the effective chain of an object (its own or the
// database default).
func (db *Database) ChainOf(o *Object) *markov.Chain {
	if o.Chain != nil {
		return o.Chain
	}
	return db.chain
}

// groupByChain partitions the database's objects by effective chain,
// preserving insertion order within groups. The query-based strategy
// runs one backward sweep per group (Section V-C). A counting pass comes
// first, so that every group is filled at its exact size, all of them in
// one backing array. Both passes take a run of objects under one chain
// at a time, so they look a chain up once a run, not once an object.
func (db *Database) groupByChain() []chainGroup {
	type slot struct{ group, n int }
	index := map[*markov.Chain]slot{}
	var groups []chainGroup
	for ch, run := range db.chainRuns() {
		s, ok := index[ch]
		if !ok {
			s.group = len(groups)
			groups = append(groups, chainGroup{chain: ch})
		}
		s.n += len(run)
		index[ch] = s
	}
	backing := make([]*Object, len(db.objects))
	for gi, off := 0, 0; gi < len(groups); gi++ {
		n := index[groups[gi].chain].n
		groups[gi].objects = backing[off : off : off+n]
		off += n
	}
	for ch, run := range db.chainRuns() {
		g := &groups[index[ch].group]
		g.objects = append(g.objects, run...)
	}
	return groups
}

// chainRuns yields the database's objects as maximal runs of consecutive
// objects under one effective chain, in insertion order.
func (db *Database) chainRuns() iter.Seq2[*markov.Chain, []*Object] {
	return func(yield func(*markov.Chain, []*Object) bool) {
		for objs := db.objects; len(objs) > 0; {
			ch, j := db.ChainOf(objs[0]), 1
			for j < len(objs) && db.ChainOf(objs[j]) == ch {
				j++
			}
			if !yield(ch, objs[:j]) {
				return
			}
			objs = objs[j:]
		}
	}
}

type chainGroup struct {
	chain   *markov.Chain
	objects []*Object
}
