package main

import (
	"fmt"
	"math"
	"sort"
)

// The estimator. On a small shared machine identical code runs slower
// for seconds or minutes at a time, so a run is cut into short slices,
// and two things are done to their times:
//
//   - every slice's time is restated at the reference sensor reading
//     (atReference): the machine's slow spells are measured, not guessed;
//   - slices are compared only with slices of identical ops from an
//     identical starting state — the slices at one position of the
//     rounds, a pool — and a pool's time is the median of its slices.
//
// The median is the one estimator here: of slices, of set-ups, of a
// probe's repetitions, of a ladder rung's passes. The mean of the
// fastest quarter, which the benchmark was first built on, spread more
// than the median on every workload when both were replayed over the
// same five-minute recordings (README.md has the table): what disturbs
// this machine is a level that wanders, not a spike that can be cut off.

func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// atReference restates a time measured while the sensor read sensorMs
// as the time at the reference reading. exponent is how strongly the
// workload follows the sensor: 1 when it slows exactly as the sensor
// does, 0 when a slow spell does not touch it.
func atReference(v, sensorMs, exponent float64) float64 {
	return v * math.Pow(sensorRefMs/sensorMs, exponent)
}

// quartiles returns the three cut points of sorted values the way
// Python's statistics.quantiles(values, n=4) does.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	at := func(k int) float64 {
		n := len(sorted)
		j, delta := k*(n+1)/4, float64(k*(n+1)%4)/4
		j = min(max(j, 1), n-1)
		return sorted[j-1]*(1-delta) + sorted[j]*delta
	}
	return at(1), at(2), at(3)
}

// spreadRel is the interquartile range over the median; of fewer than
// four values, which have no quartiles to speak of, the whole range.
func spreadRel(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	if n := len(sorted); n < 4 {
		return (sorted[n-1] - sorted[0]) / median(sorted)
	}
	q1, q2, q3 := quartiles(sorted)
	return (q3 - q1) / q2
}

// percentile returns the q-quantile of sorted samples by nearest rank,
// and refuses when fewer than floor samples lie beyond it: a tail read
// from a handful of samples does not repeat.
func percentile(sorted []float64, q float64, floor int) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < floor {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, fewer than %d", q*100, n, n-rank, floor)
	}
	return sorted[rank-1], nil
}

// sliceSample is one timed slice.
type sliceSample struct {
	round, pos int       // pos says which of the round's distinct slices it is
	wall, cpu  float64   // seconds
	sensorMs   float64   // mean of the sensor readings before and after
	lat        []float64 // per-op latency, milliseconds, in op order
}

// poolsOf groups the slices that may be compared: those with the same
// ops, met in the same state.
func poolsOf(samples []sliceSample) [][]sliceSample {
	byPos := map[int][]sliceSample{}
	for _, s := range samples {
		byPos[s.pos] = append(byPos[s.pos], s)
	}
	out := make([][]sliceSample, 0, len(byPos))
	for p := 0; len(out) < len(byPos); p++ {
		if pool, ok := byPos[p]; ok {
			out = append(out, pool)
		}
	}
	return out
}

// estimate is what the slices of a run say, at the reference sensor
// reading.
type estimate struct {
	passSeconds float64   // one slice of every pool, summed: one pass over the round's distinct slices
	cpuSeconds  float64   // process CPU over the same slices
	latencies   []float64 // every per-op sample, sorted
	spread      float64   // widest pool: interquartile range of slice times over their median
	sensorMs    float64   // the run's median sensor reading
}

func estimateOf(samples []sliceSample, exponent float64) estimate {
	var e estimate
	var readings []float64
	for _, pool := range poolsOf(samples) {
		wall, cpu := make([]float64, len(pool)), make([]float64, len(pool))
		for i, s := range pool {
			wall[i] = atReference(s.wall, s.sensorMs, exponent)
			cpu[i] = atReference(s.cpu, s.sensorMs, exponent)
			for _, l := range s.lat {
				e.latencies = append(e.latencies, atReference(l, s.sensorMs, exponent))
			}
			readings = append(readings, s.sensorMs)
		}
		e.passSeconds += median(wall)
		e.cpuSeconds += median(cpu)
		e.spread = math.Max(e.spread, spreadRel(wall))
	}
	sort.Float64s(e.latencies)
	e.sensorMs = median(readings)
	return e
}
