package main

import (
	"fmt"
	"math/rand"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/spatial"
	"ust/internal/wire"
)

// The benchmark's own op generator (not internal/load, for the same
// reason gen.go is not internal/gen). An op list is a pure function of
// the workload, the dataset sizes and the seed.

type opKind uint8

const (
	kindQuery   opKind = iota // one batch request
	kindText                  // the same, written in the text query language
	kindStream                // one streamed scan
	kindObserve               // one new observation for an existing object
)

// op is one request of a workload.
type op struct {
	class string // reporting class, e.g. "exists" or "observe"
	kind  opKind
	req   core.Request     // kindQuery, kindStream
	text  string           // kindText
	obj   int              // kindObserve
	obs   core.Observation // kindObserve
}

func (o *op) write() bool { return o.kind == kindObserve }

// key is one (region, window) pair over the 1-D state ids.
type key struct{ lo, hi, tlo, thi int }

func (k key) states() []int {
	out := make([]int, 0, k.hi-k.lo+1)
	for s := k.lo; s <= k.hi; s++ {
		out = append(out, s)
	}
	return out
}

func (k key) window() core.RequestOption { return core.WithTimeRange(k.tlo, k.thi) }

func (k key) exists(opts ...core.RequestOption) core.Request {
	return core.NewRequest(core.PredicateExists,
		append([]core.RequestOption{core.WithStates(k.states()), k.window()}, opts...)...)
}

// keyDrawer draws keys that are distinct over its lifetime.
type keyDrawer struct {
	rng    *rand.Rand
	states int
	seen   map[[2]int]bool
}

func newKeyDrawer(rng *rand.Rand, states int) *keyDrawer {
	return &keyDrawer{rng: rng, states: states, seen: map[[2]int]bool{}}
}

// draw returns n keys in random order: a state range of the given width
// at a random offset, and a time window inside [1, horizon]. A sweep or
// a scan costs one pass per timestamp up to the window's end, so the
// window starts are not drawn: they are spread evenly over the horizon,
// the same for every seed. The seed then changes which states and
// objects a class of ops touches, but not how much work the class is.
func (d *keyDrawer) draw(n, width int) []key {
	starts := t1Horizon - windowLen + 1
	keys := make([]key, 0, n)
	for j := 0; j < n; j++ {
		tlo := 1 + j%starts
		if n <= starts {
			tlo = 1 + (2*j+1)*starts/(2*n)
		}
		lo := d.rng.Intn(d.states - width + 1)
		for d.seen[[2]int{lo, tlo}] {
			lo = d.rng.Intn(d.states - width + 1)
		}
		d.seen[[2]int{lo, tlo}] = true
		keys = append(keys, key{lo, lo + width - 1, tlo, tlo + windowLen - 1})
	}
	d.rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// perClass draws every class of a cycle its own evenly spread keys.
func (d *keyDrawer) perClass(shares []share) map[string][]key {
	out := map[string][]key{}
	for _, s := range shares {
		out[s.class] = d.draw(s.count, regionWidth)
	}
	return out
}

// next pops the class's next key, going round when they run out.
func next(keys map[string][]key, class string) key {
	ks := keys[class]
	keys[class] = append(ks[1:], ks[0])
	return ks[0]
}

// share is one op class and how many ops of a cycle belong to it.
type share struct {
	class string
	count int
}

// layout returns the classes of one cycle in a seeded random order with
// exactly the given counts.
func layout(rng *rand.Rand, shares []share) []string {
	var out []string
	for _, s := range shares {
		for i := 0; i < s.count; i++ {
			out = append(out, s.class)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Class shares of one cycle. The shares keep the median and the 90th
// percentile of a cycle's latencies inside one class's cluster, not on
// the border between two: a percentile that falls between a fast and a
// slow class jumps from one to the other on noise alone.
var (
	serveHotShares = []share{
		{"exists", 192}, {"topk", 56}, {"threshold", 40}, {"text", 40}, {"stream", 48}, {"region", 24},
	}
	sweepColdShares = []share{
		{"exists", 96}, {"forall", 21}, {"ktimes", 16}, {"expr", 19}, {"count", 8},
	}
	scanOBShares = []share{
		{"exists", 8}, {"forall", 2}, {"ktimes", 2}, {"threshold", 2}, {"topk", 2},
	}
	fleetShares = []share{
		{"hot", 20}, {"cold", 5}, {"topk", 5}, {"count", 5}, {"observe", 15},
	}
)

const (
	hotKeys     = 32 // serve_hot: popular (region, window) keys
	fleetHot    = 8  // fleet_mixed: popular keys
	regionWidth = 100
	windowLen   = 5
	// fleetCycles is the number of cycles in a fleet_mixed round: writes
	// accumulate, so cycle c of every round starts from the same state.
	fleetCycles = 3
	// sweepColdCycles is the number of cycles in a sweep_cold round: their
	// sweeps together must be more than the score cache holds.
	sweepColdCycles = 4
)

func countSpec() core.AggSpec { return core.AggSpec{Kind: core.AggCount, MinCount: 3} }

// serveHotOps is one cycle of serve_hot.
func serveHotOps(in *inputs, rng *rand.Rand) []op {
	// Every class goes round the same popular keys.
	popular := newKeyDrawer(rng, in.params.states).draw(hotKeys, regionWidth)
	keys := map[string][]key{}
	for _, s := range serveHotShares {
		keys[s.class] = append([]key(nil), popular...)
	}
	side := in.grid.W
	var ops []op
	for _, class := range layout(rng, serveHotShares) {
		k := next(keys, class)
		o := op{class: class, kind: kindQuery}
		switch class {
		case "exists":
			o.req = k.exists()
		case "topk":
			o.req = k.exists(core.WithTopK(10))
		case "threshold":
			o.req = k.exists(core.WithThreshold(0.2))
		case "text":
			o.kind = kindText
			o.text = fmt.Sprintf("exists(states(%d-%d) @ [%d,%d]) where tau=0.2", k.lo, k.hi, k.tlo, k.thi)
		case "stream":
			o.kind = kindStream
			o.req = k.exists()
		case "region":
			// The rows of the grid the key's first state lies on: a
			// rectangle the server grounds through its R-tree.
			y := k.lo / side
			rect := spatial.NewRect(10, float64(y), float64(side-10), float64(min(y+2, side)))
			o.req = core.NewRequest(core.PredicateExists, core.WithRegion(rect, nil), k.window())
		}
		ops = append(ops, o)
	}
	return ops
}

// sweepColdOps is one round of sweep_cold and the warm-up before it.
// Every op has a key of its own, so no sweep is ever served from the
// score cache. The warm-up fills the cache with short sweeps that are
// never asked for again, so that from the first timed op on every new
// sweep evicts old ones, as it does in a long-running engine; the
// round's own sweeps add up to more than the cache as well.
func sweepColdOps(in *inputs, rng *rand.Rand) (round [][]op, warm []op) {
	d := newKeyDrawer(rng, in.params.states)
	sweepBytes := 8 * in.params.states
	for i := 0; i < core.DefaultCacheBytes/sweepBytes+8; i++ {
		lo := rng.Intn(in.params.states - regionWidth + 1)
		for d.seen[[2]int{lo, 1}] {
			lo = rng.Intn(in.params.states - regionWidth + 1)
		}
		d.seen[[2]int{lo, 1}] = true
		warm = append(warm, op{class: "fill", kind: kindQuery, req: key{lo, lo + regionWidth - 1, 1, 2}.exists()})
	}
	round = make([][]op, sweepColdCycles)
	for s := range round {
		keys, second := d.perClass(sweepColdShares), d.perClass(sweepColdShares[3:4])
		for _, class := range layout(rng, sweepColdShares) {
			k := next(keys, class)
			o := op{class: class, kind: kindQuery}
			switch class {
			case "exists":
				o.req = k.exists()
			case "forall":
				o.req = core.NewRequest(core.PredicateForAll, core.WithStates(k.states()), k.window())
			case "ktimes":
				o.req = core.NewRequest(core.PredicateKTimes, core.WithStates(k.states()), k.window())
			case "expr":
				k2 := next(second, class)
				x := core.And(
					core.ExistsAtom(core.WithStates(k.states()), k.window()),
					core.Not(core.ForAllAtom(core.WithStates(k2.states()), k2.window())))
				o.req = core.NewExprRequest(x, core.WithThreshold(0.1))
			case "count":
				o.req = core.NewAggRequest(core.PredicateExists, countSpec(), core.WithStates(k.states()), k.window())
			}
			round[s] = append(round[s], o)
		}
	}
	return round, warm
}

// scanOBOps is one cycle of scan_ob: object-based scans with the score
// cache off.
func scanOBOps(in *inputs, rng *rand.Rand) []op {
	keys := newKeyDrawer(rng, in.params.states).perClass(scanOBShares)
	ob := []core.RequestOption{core.WithStrategy(core.StrategyObjectBased)}
	var ops []op
	for _, class := range layout(rng, scanOBShares) {
		k := next(keys, class)
		o := op{class: class, kind: kindQuery}
		switch class {
		case "exists":
			o.req = k.exists(ob...)
		case "forall":
			o.req = core.NewRequest(core.PredicateForAll, append(ob, core.WithStates(k.states()), k.window())...)
		case "ktimes":
			o.req = core.NewRequest(core.PredicateKTimes, append(ob, core.WithStates(k.states()), k.window())...)
		case "threshold":
			o.req = k.exists(append(ob, core.WithThreshold(0.3))...)
		case "topk":
			o.req = k.exists(append(ob, core.WithTopK(10))...)
		}
		ops = append(ops, o)
	}
	return ops
}

// sighting is the pdf of an ingested observation: a peak at the sighted
// state over a uniform background. Full support keeps the observation
// consistent with whatever the object's t=0 pdf can reach. The weights
// sum to a power of two, so every probability is exact in binary and
// the server's renormalisation of the wire form changes no bit: the
// oracle and the fleet ingest the same pdf.
func sighting(states, at int) *markov.Distribution {
	total := 1
	for total < 2*states {
		total *= 2
	}
	ids := make([]int, states)
	weights := make([]float64, states)
	for i := range ids {
		ids[i] = i
		weights[i] = 1
	}
	weights[at] = float64(total - (states - 1))
	d, err := markov.WeightedOver(states, ids, weights)
	if err != nil {
		panic(err) // weights are positive and finite
	}
	return d
}

// fleetOps is one round of fleet_mixed, fleetCycles cycles long. Writes
// rotate through the objects with observation times beyond the horizon,
// so no two collide and every query window interpolates between t=0 and
// the new sightings.
func fleetOps(in *inputs, rng *rand.Rand) (round [][]op, warm []op) {
	d := newKeyDrawer(rng, in.params.states)
	popular := d.draw(fleetHot, regionWidth)
	keys := map[string][]key{}
	for _, s := range fleetShares {
		keys[s.class] = append([]key(nil), popular...)
	}
	writes := 0
	cycles := make([][]op, fleetCycles)
	for s := range cycles {
		// A cold key is read once in a run: every cycle draws its own.
		keys["cold"] = d.draw(fleetShares[1].count, regionWidth)
		for _, class := range layout(rng, fleetShares) {
			k := next(keys, class)
			o := op{class: class, kind: kindQuery}
			switch class {
			case "hot":
				o.req = k.exists()
			case "cold":
				o.req = k.exists()
			case "topk":
				o.req = k.exists(core.WithTopK(10))
			case "count":
				o.req = core.NewAggRequest(core.PredicateExists, countSpec(), core.WithStates(k.states()), k.window())
			case "observe":
				o.kind = kindObserve
				o.obj = writes % in.params.objects
				o.obs = core.Observation{
					Time: t1Horizon + 1 + writes/in.params.objects,
					PDF:  sighting(in.params.states, rng.Intn(in.params.states)),
				}
				writes++
			}
			cycles[s] = append(cycles[s], o)
		}
	}
	// Reads of the popular keys only: a write would change the state
	// cycle 0 starts from, and a cold key would no longer be cold.
	return cycles, startingWith(cycles[0], "hot", "topk", "count")
}

// fingerprintOps folds an op list into the inputs' fingerprint.
func fingerprintOps(f *fingerprint, ops []op) error {
	for i := range ops {
		o := &ops[i]
		f.str(o.class)
		f.ints(int(o.kind))
		switch o.kind {
		case kindText:
			f.str(o.text)
		case kindObserve:
			f.ints(o.obj, o.obs.Time)
			f.floats(o.obs.PDF.Vec().RawData()...)
		default:
			enc, err := wire.EncodeRequest(o.req)
			if err != nil {
				return fmt.Errorf("benchmark: op %d (%s) has no wire form: %w", i, o.class, err)
			}
			f.str(string(enc))
		}
	}
	return nil
}
