package main

import (
	"math"
	"math/rand"
	"time"
)

// The machine-speed sensor. This sandbox runs identical code up to 1.7
// times slower for a minute at a time (a neighbour on the same cores),
// and process CPU time rises with wall time, so nothing the process can
// read tells a slow machine from slow code. The sensor does: a fixed
// piece of work that belongs to the benchmark, not to the program,
// timed before and after every timed slice. It is a sparse
// matrix–vector product over a matrix shaped like the Table I chain,
// because that is what the machine's slow spells hit hardest: a loop
// that lives in the second-level cache (0.9 MB). A register-bound loop
// and a loop that streams from memory both stayed within 2 % through
// spells that slowed this one, and the engine, by half.
//
// A slice's time is then stated at a reference sensor reading (see
// atReference in estimator.go). The sensor and its reference are frozen:
// changing either changes every timed metric.

const (
	sensorStates = 10000
	sensorSpread = 5  // entries per row
	sensorStep   = 20 // within this many columns of the diagonal
	sensorWarm   = 10 // untimed products, so the matrix is in cache again
	sensorReps   = 100

	// sensorRefMs is the reading at which times are stated: the middle of
	// what this sandbox reads in an ordinary hour (9 to 12 ms; 5.4 ms on
	// an idle machine, 17 to 19 ms in a slow spell).
	sensorRefMs = 10.0
)

type sensor struct {
	ptr, col []int
	val      []float64
	x, y     []float64
}

func newSensor() *sensor {
	rng := rand.New(rand.NewSource(7))
	s := &sensor{ptr: make([]int, sensorStates+1), x: make([]float64, sensorStates), y: make([]float64, sensorStates)}
	for i := 0; i < sensorStates; i++ {
		for k := 0; k < sensorSpread; k++ {
			j := min(max(i-sensorStep+rng.Intn(2*sensorStep+1), 0), sensorStates-1)
			s.col = append(s.col, j)
			// Rows sum to one, so the vector neither grows nor vanishes.
			s.val = append(s.val, 1.0/sensorSpread)
		}
		s.ptr[i+1] = len(s.col)
	}
	return s
}

func (s *sensor) products(n int) {
	for r := 0; r < n; r++ {
		for i := range s.y {
			sum := 0.0
			for k := s.ptr[i]; k < s.ptr[i+1]; k++ {
				sum += s.val[k] * s.x[s.col[k]]
			}
			s.y[i] = sum
		}
		s.x, s.y = s.y, s.x
	}
}

// read returns how long the sensor's work takes right now, in
// milliseconds.
func (s *sensor) read() float64 {
	for i := range s.x {
		s.x[i] = 1
	}
	s.products(sensorWarm)
	start := time.Now()
	s.products(sensorReps)
	ms := float64(time.Since(start)) / 1e6
	if math.IsNaN(s.x[0]) {
		panic("benchmark: the sensor's vector must stay finite")
	}
	return ms
}
