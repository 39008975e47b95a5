package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ust/internal/sparse"
)

// paperChain is the running example of Section V.
func paperChain(t testing.TB) *Chain {
	t.Helper()
	c, err := FromDense([][]float64{
		{0, 0, 1},
		{0.6, 0, 0.4},
		{0, 0.8, 0.2},
	})
	if err != nil {
		t.Fatalf("paper chain rejected: %v", err)
	}
	return c
}

func TestNewChainRejectsNonStochastic(t *testing.T) {
	_, err := FromDense([][]float64{{0.5, 0.4}, {0, 1}})
	if err == nil {
		t.Fatal("non-stochastic matrix accepted")
	}
}

func TestNewChainRejectsRectangular(t *testing.T) {
	_, err := NewChain(sparse.FromDense([][]float64{{1, 0}}))
	if err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

func TestMustChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustChain did not panic on bad input")
		}
	}()
	MustChain(sparse.FromDense([][]float64{{2}}))
}

func TestChainAccessors(t *testing.T) {
	c := paperChain(t)
	if c.NumStates() != 3 {
		t.Errorf("NumStates = %d", c.NumStates())
	}
	if c.NNZ() != 5 {
		t.Errorf("NNZ = %d, want 5", c.NNZ())
	}
	if got := c.TransitionProb(1, 0); got != 0.6 {
		t.Errorf("TransitionProb(1,0) = %g", got)
	}
	if got := c.OutDegree(2); got != 2 {
		t.Errorf("OutDegree(2) = %d", got)
	}
	var succ []int
	c.Successors(0, func(j int, p float64) { succ = append(succ, j) })
	if len(succ) != 1 || succ[0] != 2 {
		t.Errorf("Successors(0) = %v, want [2]", succ)
	}
}

func TestStepMatchesPaperNumbers(t *testing.T) {
	c := paperChain(t)
	d := PointDistribution(3, 1)
	got := c.Evolve(d.Vec(), 2)
	if math.Abs(got.At(1)-0.32) > 1e-12 || math.Abs(got.At(2)-0.68) > 1e-12 {
		t.Errorf("P(o,2) = %v, want [1:0.32 2:0.68]", got)
	}
}

func TestEvolveZeroSteps(t *testing.T) {
	c := paperChain(t)
	d := PointDistribution(3, 0)
	got := c.Evolve(d.Vec(), 0)
	if got.At(0) != 1 {
		t.Error("Evolve(0) should be the identity")
	}
	// And it must be a copy, not an alias.
	got.Set(0, 0.5)
	if d.P(0) != 1 {
		t.Error("Evolve(0) aliases its input")
	}
}

func TestMStepMatchesEvolveQuick(t *testing.T) {
	f := func(seed int64, stepsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		steps := int(stepsRaw % 8)
		c := randomChain(rng, 4+rng.Intn(12), 3)
		init := sparse.NewVec(c.NumStates())
		init.Set(rng.Intn(c.NumStates()), 1)

		viaEvolve := c.Evolve(init, steps)
		pow := c.MStep(steps)
		viaPow := sparse.NewVec(c.NumStates())
		sparse.VecMat(viaPow, init, pow)
		return viaEvolve.Equal(viaPow, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStepBackAdjointQuick(t *testing.T) {
	// ⟨x·M, y⟩ == ⟨x, y·Mᵀ⟩: forward and backward sweeps are adjoint,
	// which is exactly why OB and QB agree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomChain(rng, 5+rng.Intn(15), 4)
		n := c.NumStates()
		x := randomVec(rng, n)
		y := randomVec(rng, n)
		fwd := sparse.NewVec(n)
		c.Step(fwd, x)
		bwd := sparse.NewVec(n)
		c.StepBack(bwd, y)
		return math.Abs(fwd.Dot(y)-x.Dot(bwd)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReachable(t *testing.T) {
	c := paperChain(t)
	init := sparse.NewVec(3)
	init.Set(0, 1)
	// From s1: one step reaches {s3}, two steps add {s2}.
	r0 := c.Reachable(init, 0)
	if len(r0) != 1 || r0[0] != 0 {
		t.Errorf("Reachable(0 steps) = %v", r0)
	}
	r1 := c.Reachable(init, 1)
	if len(r1) != 2 {
		t.Errorf("Reachable(1 step) = %v, want 2 states", r1)
	}
	r2 := c.Reachable(init, 2)
	if len(r2) != 3 {
		t.Errorf("Reachable(2 steps) = %v, want all 3 states", r2)
	}
}

func TestSampleStepDistributionConverges(t *testing.T) {
	c := paperChain(t)
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	counts := [3]int{}
	for i := 0; i < n; i++ {
		counts[c.SampleStep(1, rng)]++
	}
	if got := float64(counts[0]) / n; math.Abs(got-0.6) > 0.01 {
		t.Errorf("P(s1|s2) sampled as %g, want 0.6", got)
	}
	if got := float64(counts[2]) / n; math.Abs(got-0.4) > 0.01 {
		t.Errorf("P(s3|s2) sampled as %g, want 0.4", got)
	}
	if counts[1] != 0 {
		t.Errorf("impossible transition sampled %d times", counts[1])
	}
}

func TestSamplePathRespectsSupport(t *testing.T) {
	c := paperChain(t)
	rng := rand.New(rand.NewSource(1))
	init := PointDistribution(3, 1)
	for trial := 0; trial < 200; trial++ {
		path := c.SamplePath(init, 5, rng)
		if len(path) != 6 {
			t.Fatalf("path length %d, want 6", len(path))
		}
		if path[0] != 1 {
			t.Fatalf("path start %d, want 1", path[0])
		}
		for t2 := 0; t2 < 5; t2++ {
			if c.TransitionProb(path[t2], path[t2+1]) == 0 {
				t.Fatalf("path uses impossible transition %d->%d", path[t2], path[t2+1])
			}
		}
	}
}

func TestSampleFromZeroMassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleFrom on empty distribution did not panic")
		}
	}()
	SampleFrom(NewDistribution(3), rand.New(rand.NewSource(1)))
}

func TestSampleStepDanglingStateSelfLoops(t *testing.T) {
	// User-supplied matrices may contain dangling rows only if they skip
	// validation; SampleStep must still terminate.
	m := sparse.FromDense([][]float64{{0, 1}, {0, 0}})
	c := &Chain{m: m}
	if got := c.SampleStep(1, rand.New(rand.NewSource(1))); got != 1 {
		t.Errorf("dangling state stepped to %d, want self-loop", got)
	}
}

// randomChain builds a random valid chain with ≤ maxOut successors/state.
func randomChain(rng *rand.Rand, n, maxOut int) *Chain {
	m := sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		k := 1 + rng.Intn(maxOut)
		seen := map[int]bool{}
		var idx []int
		for len(idx) < k {
			j := rng.Intn(n)
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		vals := make([]float64, len(idx))
		s := 0.0
		for p := range vals {
			vals[p] = rng.Float64() + 1e-3
			s += vals[p]
		}
		for p := range vals {
			vals[p] /= s
		}
		return idx, vals
	})
	return MustChain(m)
}

func randomVec(rng *rand.Rand, n int) *sparse.Vec {
	v := sparse.NewVec(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.4 {
			v.Set(i, rng.Float64())
		}
	}
	return v
}
