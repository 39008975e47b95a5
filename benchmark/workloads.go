package main

import (
	"fmt"
	"math/rand"
	"slices"

	"ust/internal/core"
	"ust/internal/service"
	"ust/internal/spatial"
)

// workload is one set of inputs and the deployment they are sent to.
type workload struct {
	name   string
	params t1Params
	// shares are the exact class counts of every cycle.
	shares []share
	// ops returns the cycles of a round, each one pass through the
	// workload's mix, and the untimed warm-up that follows set-up. The
	// first warm-up op is the round's "first correct answer".
	ops func(in *inputs, rng *rand.Rand) (cycles [][]op, warm []op)
	// A round runs its cycles repeats times over, cut into timed slices
	// of sliceOps ops: about a tenth of a second, short enough that the
	// sensor readings on either side of a slice describe the machine
	// during it.
	repeats, sliceOps int
	// exponent is how strongly the workload's time follows the sensor
	// (atReference): the one that brought ten runs with ten seeds, made
	// while the machine went from an ordinary hour to a quiet one,
	// closest together (README.md has the table). Highest for
	// sweep_cold, which is the same kind of loop as the sensor.
	exponent float64
	// setup builds the deployment from the image: the timed set-up.
	setup func(in *inputs, tr *tracer) (deployment, error)
	// options are the engine options of the workload's deployment, and
	// of every rung of its ladder.
	options core.Options
	// hitLo and hitHi bound the score-cache hit ratio of the timed
	// slices, or the workload is not the one it claims to be.
	hitLo, hitHi float64
	// crossCheck lists op classes whose first op is also answered by the
	// other exact strategy and compared within 1e-9; everything else of
	// an engine workload is held to the bits of its first answer.
	crossCheck []string
}

// deployment is a target plus what the validity checks and the ladder
// read from it; a deployment that lacks one of these leaves it nil.
type deployment struct {
	target
	cacheStats func() core.CacheStats
	version    func() (uint64, error) // dataset mutation generation
	service    *service.Service       // the in-process service answering, for its counters
	board      *service.SweepBoard    // the sweep-lease board workers lease from
}

// startingWith returns the ops of the given classes, in op order, with
// the first class's op of the earliest window moved to the front. The
// first warm-up op ends the timed set-up, and an answer costs one pass
// per timestamp up to the end of its window: it must be of one class and
// one window whatever order the seed put the cycle in.
func startingWith(ops []op, classes ...string) []op {
	var out []op
	first := -1
	for _, o := range ops {
		if slices.Contains(classes, o.class) {
			if o.class == classes[0] && (first < 0 || slices.Max(o.req.Times) < slices.Max(out[first].req.Times)) {
				first = len(out)
			}
			out = append(out, o)
		}
	}
	o := out[first]
	copy(out[1:first+1], out[:first])
	out[0] = o
	return out
}

// The dataset sizes. sweep_cold runs at |D|=10^3, |S|=10^4 and not at
// the paper's defaults: the engine keeps a dense |S|-vector per object
// pdf, so |D|=10^4 × |S|=10^5 is an 8 GB database. scan_ob runs at
// |D|=200: a scan of 1000 objects takes 0.2 s here, too long for a
// slice of four to fit between two sensor readings that describe it.
var (
	t1      = t1Params{objects: 1000, states: 10000}
	t1Small = t1Params{objects: 200, states: 10000}
)

var workloads = []workload{
	{
		name: "serve_hot", params: t1, hitLo: 0.95, hitHi: 1, shares: serveHotShares,
		repeats: 3, sliceOps: 50, exponent: 0.7,
		ops: func(in *inputs, rng *rand.Rand) ([][]op, []op) {
			ops := serveHotOps(in, rng)
			return [][]op{ops}, startingWith(ops, "exists", "topk", "threshold", "text", "stream", "region")
		},
		setup: func(in *inputs, tr *tracer) (deployment, error) { return clientDeployment(in, core.Options{}, tr) },
	},
	{
		name: "sweep_cold", params: t1, hitLo: 0, hitHi: 0.05, shares: sweepColdShares,
		repeats: 1, sliceOps: 40, exponent: 0.8,
		crossCheck: []string{"exists", "forall", "ktimes"},
		ops:        sweepColdOps,
		setup: func(in *inputs, tr *tracer) (deployment, error) {
			return engineDeployment(in, core.Options{}, nil, tr)
		},
	},
	{
		name: "scan_ob", params: t1Small, hitLo: 0, hitHi: 0, shares: scanOBShares,
		repeats: 5, sliceOps: 4, exponent: 0.6,
		crossCheck: []string{"exists", "forall", "ktimes"},
		ops: func(in *inputs, rng *rand.Rand) ([][]op, []op) {
			ops := scanOBOps(in, rng)
			// The two ranked ops only: they go through filter–refine in a
			// millisecond or two, so set-up does not end on a scan whose
			// length depends on where the seed put its window.
			return [][]op{ops}, startingWith(ops, "threshold", "topk")[:2]
		},
		options: core.Options{CacheBytes: -1},
		setup: func(in *inputs, tr *tracer) (deployment, error) {
			return engineDeployment(in, core.Options{CacheBytes: -1}, nil, tr)
		},
	},
	{
		name: "fleet_mixed", params: t1, hitLo: 0, hitHi: 1, shares: fleetShares,
		repeats: 1, sliceOps: 10, exponent: 0.7,
		ops: fleetOps,
		setup: func(in *inputs, tr *tracer) (deployment, error) {
			db, err := in.load()
			if err != nil {
				return deployment{}, err
			}
			f, err := newFleet(db, in.resolver(), tr)
			if err != nil {
				return deployment{}, err
			}
			return deployment{target: f, version: func() (uint64, error) {
				info, err := f.coord.Info(datasetName)
				return info.Version, err
			}, cacheStats: func() core.CacheStats {
				var sum core.CacheStats
				for _, w := range f.workers {
					st := w.CacheStats()
					sum.Hits += st.Hits
					sum.Misses += st.Misses
				}
				return sum
			}}, nil
		},
	},
}

// engineDeployment is an engine called directly. The two engine
// workloads send no op that needs a resolver, and do not pay for one in
// their set-up.
func engineDeployment(in *inputs, opts core.Options, res spatial.Resolver, tr *tracer) (deployment, error) {
	db, err := in.load()
	if err != nil {
		return deployment{}, err
	}
	t := newEngineTarget(db, res, opts)
	t.tr = tr
	return deployment{target: t, cacheStats: t.ev.CacheStats, version: func() (uint64, error) {
		return db.Version(), nil
	}}, nil
}

func workloadNamed(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q", name)
}
