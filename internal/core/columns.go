package core

import "ust/internal/markov"

// The columnar observation plane: per-object column segments — parallel
// times/support/mass arrays — beside the row-oriented []Observation on
// each Object (the pinned public surface every evaluator, the wire codec
// and the shard router see). The vectorized multi-observation and
// posterior kernels consume the segments and the store's v2 format
// serializes them as delta-encoded blocks. The Database keeps the plane
// in sync on Add/ReplaceObject. The store's mapped load path pre-seeds
// it, and each loaded pdf is a view over its segment's columns, so a
// loaded observation is stored once.

// ObsSeg is one object's observations in columnar form: four parallel
// arrays. Entry k of Times is the k-th observation's timestamp;
// IDs[Off[k]:Off[k+1]] are its pdf's support states in ascending order
// and Probs[Off[k]:Off[k+1]] the matching mass values, bit-identical to
// the boxed pdf. Segments are immutable once published; the slices may
// alias shared arenas (the store's adopted prob column) and must never
// be written through.
type ObsSeg struct {
	Times []int32   // observation timestamps, ascending
	Off   []int32   // len(Times)+1 offsets into IDs/Probs
	IDs   []int32   // support state ids, ascending within an observation
	Probs []float64 // mass values parallel to IDs
}

// Len returns the number of observations in the segment.
func (s ObsSeg) Len() int { return len(s.Times) }

// Supp returns the k-th observation's support and mass columns.
func (s ObsSeg) Supp(k int) ([]int32, []float64) {
	return s.IDs[s.Off[k]:s.Off[k+1]], s.Probs[s.Off[k]:s.Off[k+1]]
}

// segFromObservations derives the column segment of a sorted observation
// list — the row→column conversion run once per Add/ReplaceObject (and
// by the free-standing kernels when no plane is available).
func segFromObservations(obs []Observation) ObsSeg {
	seg := ObsSeg{
		Times: make([]int32, len(obs)),
		Off:   make([]int32, len(obs)+1),
	}
	for k, ob := range obs {
		seg.Times[k] = int32(ob.Time)
		seg.IDs, seg.Probs = ob.PDF.AppendColumns(seg.IDs, seg.Probs)
		seg.Off[k+1] = int32(len(seg.IDs))
	}
	return seg
}

// reuseSeg builds the updated object's segment by copying column ranges
// from the previous segment wherever an observation is carried over
// unchanged (same time, same pdf pointer — WithObservation shares pdf
// pointers, so pointer identity is content identity) and extracting from
// the boxed pdf only for genuinely new or replaced observations. This
// keeps the per-ingest column cost proportional to the appended
// observation, not the object's history.
func reuseSeg(prev *Object, prevSeg ObsSeg, updated *Object) ObsSeg {
	seg := ObsSeg{
		Times: make([]int32, len(updated.Observations)),
		Off:   make([]int32, len(updated.Observations)+1),
		// Size the columns for "previous history plus a point-ish new
		// observation" — the dominant ingest shape — so the appends below
		// almost never regrow.
		IDs:   make([]int32, 0, len(prevSeg.IDs)+4),
		Probs: make([]float64, 0, len(prevSeg.IDs)+4),
	}
	pk := 0
	for k, ob := range updated.Observations {
		seg.Times[k] = int32(ob.Time)
		for pk < len(prev.Observations) && prev.Observations[pk].Time < ob.Time {
			pk++
		}
		if pk < len(prev.Observations) &&
			prev.Observations[pk].Time == ob.Time && prev.Observations[pk].PDF == ob.PDF {
			ids, probs := prevSeg.Supp(pk)
			seg.IDs = append(seg.IDs, ids...)
			seg.Probs = append(seg.Probs, probs...)
		} else {
			seg.IDs, seg.Probs = ob.PDF.AppendColumns(seg.IDs, seg.Probs)
		}
		seg.Off[k+1] = int32(len(seg.IDs))
	}
	return seg
}

// ObsColumns is a database's columnar observation plane: the directory
// of per-object column segments. Each entry remembers the serial of the
// Object it describes, so kernels can pair a segment with an object by
// construction identity — a stale object pointer (a lazy stream
// interleaved with ReplaceObject) never silently picks up its
// successor's columns. Mutation follows the Database's own concurrency
// contract (no concurrent mutation; concurrent reads are fine between
// mutations).
type ObsColumns struct {
	segs map[int]colEntry
}

type colEntry struct {
	serial uint64 // Object.serial; 0 = pre-seeded, not yet claimed by Add
	seg    ObsSeg
}

// NewObsColumns returns an empty plane. The store's bulk loader fills it
// with AppendSeg and installs it via NewDatabaseWithColumns.
func NewObsColumns() *ObsColumns {
	return &ObsColumns{segs: map[int]colEntry{}}
}

// AppendSeg publishes a pre-built segment for object id, adopting the
// slices without copying. The caller warrants the ObsSeg invariants
// (ascending unique times, per-observation ascending unique support,
// offsets consistent) — the store decoder validates them while decoding
// its delta-encoded blocks. The entry is claimed by the Add of the
// matching object.
func (c *ObsColumns) AppendSeg(id int, seg ObsSeg) { c.segs[id] = colEntry{seg: seg} }

// Segment returns object id's current column segment — the store
// writer's iteration entry point.
func (c *ObsColumns) Segment(id int) (ObsSeg, bool) {
	e, ok := c.segs[id]
	return e.seg, ok
}

// segmentOf returns the segment describing exactly this object version.
func (c *ObsColumns) segmentOf(o *Object) (ObsSeg, bool) {
	e, ok := c.segs[o.ID]
	if !ok || e.serial != o.serial {
		return ObsSeg{}, false
	}
	return e.seg, true
}

// Len returns the number of objects with a published segment.
func (c *ObsColumns) Len() int { return len(c.segs) }

// add derives (or, when the plane was pre-seeded by the bulk loader,
// adopts) the segment for a newly inserted object.
func (c *ObsColumns) add(o *Object) {
	if e, ok := c.segs[o.ID]; ok && e.serial == 0 && e.seg.Len() == len(o.Observations) {
		e.serial = o.serial // claim the pre-seeded columns
		c.segs[o.ID] = e
		return
	}
	c.segs[o.ID] = colEntry{serial: o.serial, seg: segFromObservations(o.Observations)}
}

// replace swaps in the updated object's segment, reusing the previous
// object's columns for carried-over observations.
func (c *ObsColumns) replace(prev, updated *Object) {
	if e, ok := c.segs[prev.ID]; ok && e.serial == prev.serial {
		c.segs[updated.ID] = colEntry{serial: updated.serial, seg: reuseSeg(prev, e.seg, updated)}
		return
	}
	c.segs[updated.ID] = colEntry{serial: updated.serial, seg: segFromObservations(updated.Observations)}
}

// remove drops the segment of a departed object.
func (c *ObsColumns) remove(id int) { delete(c.segs, id) }

// Columns returns the database's columnar observation plane. The
// returned plane is live: it reflects subsequent Add/ReplaceObject
// calls.
func (db *Database) Columns() *ObsColumns { return db.cols }

// NewDatabaseWithColumns creates a database whose columnar plane is
// pre-seeded — the store's zero-copy load path builds the plane straight
// from the file's delta-encoded blocks, and subsequent Add calls adopt
// the matching segment instead of re-deriving it from boxed pdfs.
func NewDatabaseWithColumns(defaultChain *markov.Chain, cols *ObsColumns) *Database {
	db := NewDatabase(defaultChain)
	if cols != nil {
		if cols.segs == nil {
			cols.segs = map[int]colEntry{}
		}
		db.cols = cols
	}
	return db
}
