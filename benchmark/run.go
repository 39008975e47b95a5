package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ust/internal/core"
	"ust/internal/service"
)

// A run is a sequence of rounds of identical content. A round is a
// fresh set-up from the image to the first correct answer (timed: a
// setup_s sample), an untimed warm-up, a garbage collection, and then
// the workload's timed slices, a sensor reading between every two.
// Rounds are added until the run's time is used up; work per slice
// never changes, so the op counts and the answer digests of a slice are
// the same on both sides of a comparison.

// minRounds: a median of fewer than three slices is not one.
const minRounds = 3

// plan is a workload's generated inputs and the answers expected.
type plan struct {
	w  *workload
	in *inputs
	// round is the timed slices of one round: the workload's cycles,
	// repeated, cut into slices. The first distinct of them differ; the
	// rest repeat those, and share their expected answers.
	round    [][]op
	distinct int
	warm     []op // the untimed warm-up
	// want[s][i] is the oracle's digest of op i of slice s; known says
	// whether it is set yet (engine workloads learn it from the first
	// answer, after the cross-strategy check of a sample).
	want  [][]uint64
	known [][]bool
	// warmWant[n] is the oracle's digest of warm-up op n, answered on the
	// state set-up leaves behind; nil for the engine workloads, whose
	// warm-up answers are only required not to fail.
	warmWant []uint64
	print    string // fingerprint of chain, objects and ops
}

func newPlan(w *workload, seed int64) (*plan, error) {
	in, err := generateT1(w.params, seed)
	if err != nil {
		return nil, err
	}
	p := &plan{w: w, in: in}
	cycles, warm := w.ops(in, rand.New(rand.NewSource(seed^0x5bd1e995)))
	p.warm = warm
	for c, ops := range cycles {
		counts := map[string]int{}
		for i := range ops {
			counts[ops[i].class]++
		}
		for _, sh := range w.shares {
			if counts[sh.class] != sh.count {
				return nil, fmt.Errorf("benchmark: cycle %d of %s has %d %s ops, its share is %d", c, w.name, counts[sh.class], sh.class, sh.count)
			}
			delete(counts, sh.class)
		}
		if len(counts) > 0 {
			return nil, fmt.Errorf("benchmark: cycle %d of %s has ops outside its classes: %v", c, w.name, counts)
		}
		if len(ops)%w.sliceOps != 0 {
			return nil, fmt.Errorf("benchmark: a cycle of %s has %d ops, not a multiple of its slices' %d", w.name, len(ops), w.sliceOps)
		}
		if err := fingerprintOps(&in.hash, ops); err != nil {
			return nil, err
		}
		for lo := 0; lo < len(ops); lo += w.sliceOps {
			p.round = append(p.round, ops[lo:lo+w.sliceOps])
		}
	}
	p.distinct = len(p.round)
	for r := 1; r < w.repeats; r++ {
		p.round = append(p.round, p.round[:p.distinct]...)
	}
	p.print = in.hash.sum()
	if err := p.oracle(); err != nil {
		return nil, err
	}
	return p, nil
}

// release drops what only generating the inputs needed: from here on
// the program gets the image and the ops, and the harness's own copy of
// the objects would only sit in rss_mb.
func (p *plan) release() { p.in.pdfs = nil }

// oracle fills in the expected digests. The serving workloads replay
// the whole round, writes included, on one uncached engine over a
// database built straight from the generated pdfs. The engine
// workloads answer a sample with both exact strategies instead.
func (p *plan) oracle() error {
	ctx := context.Background()
	ref := newEngineTarget(p.in.database(), p.in.resolver(), core.Options{CacheBytes: -1})
	p.want = make([][]uint64, len(p.round))
	p.known = make([][]bool, len(p.round))
	if len(p.w.crossCheck) == 0 {
		for i := range p.warm {
			a, err := ref.do(ctx, &p.warm[i])
			if err != nil {
				return fmt.Errorf("benchmark: oracle, warm-up op %d: %w", i, err)
			}
			p.warmWant = append(p.warmWant, a.digest)
		}
	}
	for s, ops := range p.round {
		if s >= p.distinct {
			p.want[s], p.known[s] = p.want[s%p.distinct], p.known[s%p.distinct]
			continue
		}
		p.want[s], p.known[s] = make([]uint64, len(ops)), make([]bool, len(ops))
		if len(p.w.crossCheck) > 0 {
			continue
		}
		for i := range ops {
			a, err := ref.do(ctx, &ops[i])
			if err != nil {
				return fmt.Errorf("benchmark: oracle, slice %d op %d (%s): %w", s, i, ops[i].class, err)
			}
			p.want[s][i], p.known[s][i] = a.digest, true
		}
	}
	for _, class := range p.w.crossCheck {
		s, i, ok := p.first(class)
		if !ok {
			return fmt.Errorf("benchmark: %s has no %s op to cross-check", p.w.name, class)
		}
		digest, err := crossCheck(ctx, ref.ev, p.round[s][i].req)
		if err != nil {
			return fmt.Errorf("benchmark: cross-strategy check of slice %d op %d (%s): %w", s, i, class, err)
		}
		p.want[s][i], p.known[s][i] = digest, true
	}
	return nil
}

// first finds the round's first op of a class.
func (p *plan) first(class string) (s, i int, ok bool) {
	for s, ops := range p.round[:p.distinct] {
		for i := range ops {
			if ops[i].class == class {
				return s, i, true
			}
		}
	}
	return 0, 0, false
}

// crossCheck answers req as written and with the other exact strategy,
// requires the two to agree within 1e-9, and returns the digest of the
// answer as written.
func crossCheck(ctx context.Context, eng service.Evaluator, req core.Request) (uint64, error) {
	other := core.StrategyObjectBased
	if s, ok := req.StrategyHint(); ok && s == core.StrategyObjectBased {
		other = core.StrategyQueryBased
	}
	got, err := eng.Evaluate(ctx, req)
	if err != nil {
		return 0, err
	}
	alt, err := eng.Evaluate(ctx, req.With(core.WithStrategy(other)))
	if err != nil {
		return 0, err
	}
	if len(got.Results) != len(alt.Results) {
		return 0, fmt.Errorf("%v gave %d results, %v gave %d", got.Strategy, len(got.Results), alt.Strategy, len(alt.Results))
	}
	for i, r := range got.Results {
		a := alt.Results[i]
		if r.ObjectID != a.ObjectID || math.Abs(r.Prob-a.Prob) > 1e-9 || len(r.Dist) != len(a.Dist) {
			return 0, fmt.Errorf("result %d: %v gave %+v, %v gave %+v", i, got.Strategy, r, alt.Strategy, a)
		}
		for k := range r.Dist {
			if math.Abs(r.Dist[k]-a.Dist[k]) > 1e-9 {
				return 0, fmt.Errorf("result %d dist[%d]: %g against %g", i, k, r.Dist[k], a.Dist[k])
			}
		}
	}
	return answerOf(got).digest, nil
}

// runStats is everything one run measured.
type runStats struct {
	sensor    *sensor
	rounds    int
	setups    []setupSample
	rss       []float64 // MiB, the peak of resident memory of every round
	samples   []sliceSample
	attempted int
	failed    int
	firstFail error
	allocated uint64 // bytes allocated during timed slices
	timedOps  int
	hits      uint64 // score-cache traffic of the timed slices
	misses    uint64
	// What the answers of the timed reads reported: sweeps needed, the
	// filter–refine funnel, and results returned.
	reads, sweeps, candidates, pruned, refined, results int
	classLat                                            map[string][]float64 // per-class latency of every timed op, ms
	elapsed                                             time.Duration
}

func newRunStats() *runStats {
	return &runStats{sensor: newSensor(), classLat: map[string][]float64{}}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the resident-set high-water mark, so that a
// round's peak is its own and not that of generating the inputs or of
// an earlier round. Where the kernel refuses, the mark simply stays.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("benchmark: VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("benchmark: no VmHWM in /proc/self/status")
}

// judge says why op i of slice s failed, or nil: an error (a refused
// request is one), an answer that is not the oracle's, or a scan that
// did not return every object. An engine workload's first answer to an
// op becomes what its later answers are held to.
func (p *plan) judge(s, i int, a answer, err error) error {
	o := &p.round[s][i]
	if err == nil && !o.write() && !p.known[s][i] {
		p.want[s][i], p.known[s][i] = a.digest, true
	}
	if ferr := failed(a, err, o, p.want[s][i]); ferr != nil {
		return fmt.Errorf("slice %d op %d: %w", s, i, ferr)
	}
	if o.kind == kindStream && a.results != p.in.params.objects {
		return fmt.Errorf("slice %d op %d: stream returned %d results, |D| is %d", s, i, a.results, p.in.params.objects)
	}
	return nil
}

// timed runs one op of a timed slice and counts it.
func (st *runStats) timed(ctx context.Context, p *plan, t target, s, i int) (answer, time.Duration) {
	start := time.Now()
	a, err := t.do(ctx, &p.round[s][i])
	took := time.Since(start)
	st.attempted++
	if ferr := p.judge(s, i, a, err); ferr != nil {
		st.failed++
		if st.firstFail == nil {
			st.firstFail = ferr
		}
	}
	return a, took
}

// setupSample is one timed set-up.
type setupSample struct {
	seconds  float64
	sensorMs float64 // mean of the sensor readings before and after
}

// setupExponent is how strongly set-up time follows the sensor
// (atReference). Between a quiet hour (sensor 6.6 to 7 ms) and an
// ordinary one (12 to 13 ms) the set-up of every workload, from 20 ms
// to 250 ms, grew by the 0.44th to 0.54th power of the reading.
const setupExponent = 0.5

// setupSeconds is the run's set-up time: the median of its set-ups, at
// the reference sensor reading.
func (st *runStats) setupSeconds() float64 {
	vs := make([]float64, len(st.setups))
	for i, s := range st.setups {
		vs[i] = atReference(s.seconds, s.sensorMs, setupExponent)
	}
	return median(vs)
}

// setUp builds a deployment from the image and asks it the first
// warm-up op; the first correct answer ends the timed set-up.
func (st *runStats) setUp(ctx context.Context, p *plan, build func(*inputs, *tracer) (deployment, error), tr *tracer) (deployment, error) {
	// A server starts in a fresh process, where every page it touches
	// has to be faulted in. What earlier set-ups and rounds left behind
	// is therefore collected and handed back to the system first.
	debug.FreeOSMemory()
	before := st.sensor.read()
	start := time.Now()
	d, err := build(p.in, tr)
	if err != nil {
		return deployment{}, fmt.Errorf("benchmark: set-up: %w", err)
	}
	a, err := d.do(ctx, &p.warm[0])
	if err == nil && p.warmWant != nil {
		err = failed(a, nil, &p.warm[0], p.warmWant[0])
	}
	if err != nil {
		d.close()
		return deployment{}, fmt.Errorf("benchmark: first answer after set-up: %w", err)
	}
	took := time.Since(start).Seconds()
	st.setups = append(st.setups, setupSample{took, (before + st.sensor.read()) / 2})
	return d, nil
}

// oneRound sets the workload's deployment up, warms it, and times the
// slices.
func (st *runStats) oneRound(ctx context.Context, p *plan, round int, tr *tracer) error {
	debug.FreeOSMemory()
	resetPeakRSS()
	d, err := st.setUp(ctx, p, p.w.setup, tr)
	if err != nil {
		return err
	}
	defer d.close()
	if err := st.timeSlices(ctx, p, d, round, len(p.round), tr); err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	st.rss = append(st.rss, rss)
	return nil
}

// timeSlices finishes the warm-up on a deployment that has just been
// set up, and times the first n slices of the round on it.
func (st *runStats) timeSlices(ctx context.Context, p *plan, d deployment, round, n int, tr *tracer) error {
	if tr != nil {
		d.target = tracedTarget{d.target, tr}
		// Spans are recorded in the timed slices only.
		defer tr.enable(false)
	}
	for n := 1; n < len(p.warm); n++ {
		a, err := d.do(ctx, &p.warm[n])
		if err == nil && p.warmWant != nil {
			err = failed(a, nil, &p.warm[n], p.warmWant[n])
		}
		if err != nil {
			return fmt.Errorf("benchmark: warm-up op %d: %w", n, err)
		}
	}
	var versionBefore uint64
	var cacheBefore core.CacheStats
	if d.version != nil {
		v, err := d.version()
		if err != nil {
			return err
		}
		versionBefore = v
	}
	if d.cacheStats != nil {
		cacheBefore = d.cacheStats()
	}
	writes := 0
	runtime.GC()
	before := totalAlloc()
	if tr != nil {
		tr.enable(true)
	}

	reading := st.sensor.read()
	for s, ops := range p.round[:n] {
		lat := make([]float64, len(ops))
		cpu0 := cpuSeconds()
		t0 := time.Now()
		for i := range ops {
			a, took := st.timed(ctx, p, d.target, s, i)
			lat[i] = float64(took) / 1e6
			st.sweeps += a.cache.Hits + a.cache.Misses
			st.candidates += a.filter.Candidates
			st.pruned += a.filter.Pruned
			st.refined += a.filter.Refined
			st.results += a.results
		}
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		after := st.sensor.read()
		st.samples = append(st.samples, sliceSample{round: round, pos: s % p.distinct, wall: wall, cpu: cpu, sensorMs: (reading + after) / 2, lat: lat})
		reading = after
		for i := range ops {
			if ops[i].write() {
				writes++
			} else {
				st.reads++
			}
			st.classLat[ops[i].class] = append(st.classLat[ops[i].class], lat[i])
		}
		st.timedOps += len(ops)
	}

	st.allocated += totalAlloc() - before
	if d.cacheStats != nil {
		cacheAfter := d.cacheStats()
		st.hits += cacheAfter.Hits - cacheBefore.Hits
		st.misses += cacheAfter.Misses - cacheBefore.Misses
	}
	if d.version != nil {
		versionAfter, err := d.version()
		if err != nil {
			return err
		}
		if got := versionAfter - versionBefore; got != uint64(writes) {
			return fmt.Errorf("benchmark: %d writes were sent but the dataset version advanced by %d", writes, got)
		}
	}
	return nil
}

// measure runs rounds for about the given time, and at least minRounds
// of them; with a tracer, every timed op leaves spans.
func measure(ctx context.Context, p *plan, seconds float64, tr *tracer) (*runStats, error) {
	st := newRunStats()
	start := time.Now()
	for {
		if err := st.oneRound(ctx, p, st.rounds, tr); err != nil {
			return nil, err
		}
		st.rounds++
		elapsed := time.Since(start).Seconds()
		perRound := elapsed / float64(st.rounds)
		if st.rounds >= minRounds && elapsed+perRound/2 > seconds {
			break
		}
	}
	st.elapsed = time.Since(start)
	return st, nil
}

// validate holds a run to what its workload claims to be.
func (p *plan) validate(st *runStats) error {
	if total := st.hits + st.misses; total > 0 || p.w.hitLo > 0 {
		ratio := float64(st.hits) / math.Max(float64(total), 1)
		if ratio < p.w.hitLo || ratio > p.w.hitHi {
			return fmt.Errorf("benchmark: %s score-cache hit ratio %.3f is outside [%g, %g]", p.w.name, ratio, p.w.hitLo, p.w.hitHi)
		}
	}
	return nil
}
