package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ust/internal/sparse"
)

func TestKTimesAugmentedPaperExample(t *testing.T) {
	chain := paperChainV(t)
	init := paperInit(t)
	dist, err := KTimesOBAugmented(chain, []int{0, 1}, []int{2, 3}, init, 0)
	if err != nil {
		t.Fatalf("KTimesOBAugmented: %v", err)
	}
	want := []float64{0.136, 0.672, 0.192}
	for k, w := range want {
		if math.Abs(dist[k]-w) > tol {
			t.Errorf("P(%d visits) = %.12f, want %g", k, dist[k], w)
		}
	}
}

func paperInit(t testing.TB) *sparse.Vec {
	t.Helper()
	v := sparse.NewVec(3)
	v.Set(1, 1)
	return v
}

func TestKTimesAugmentedMatchesEfficientQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, o, q := randomInstance(rng)
		efficient, err := obDist(e, o, q)
		if err != nil {
			return false
		}
		init := o.First().PDF.Vec().Clone()
		init.Normalize()
		augmented, err := KTimesOBAugmented(e.db.ChainOf(o), q.States, q.Times, init, 0)
		if err != nil {
			return false
		}
		if len(efficient) != len(augmented) {
			return false
		}
		for k := range efficient {
			if math.Abs(efficient[k]-augmented[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKTimesAugmentedBlockStructure(t *testing.T) {
	chain := paperChainV(t)
	aug := NewKTimesAugmented(chain, []int{0, 1}, 2)
	minus, plus := aug.Minus(), aug.Plus()
	// Dimensions: (k+1)·|S| = 9.
	if r, c := minus.Dims(); r != 9 || c != 9 {
		t.Fatalf("M− dims %dx%d, want 9x9", r, c)
	}
	// M− is block diagonal: block 1's s2 row equals the base row,
	// shifted by |S|.
	if minus.At(3+1, 3+0) != 0.6 || minus.At(3+1, 3+2) != 0.4 {
		t.Error("M− block 1 wrong")
	}
	// Cross-block entries in M− must not exist.
	if minus.At(1, 3+0) != 0 {
		t.Error("M− leaks across blocks")
	}
	// M+: s2 -> s1 (in region) moves from block 0 to block 1.
	if plus.At(1, 3+0) != 0.6 {
		t.Error("M+ does not promote in-region arrivals")
	}
	// s2 -> s3 (outside region) stays in block 0.
	if plus.At(1, 2) != 0.4 {
		t.Error("M+ moved an out-of-region arrival")
	}
	// Top block saturates: s2 in block 2 -> s1 stays in block 2.
	if plus.At(2*3+1, 2*3+0) != 0.6 {
		t.Error("top block does not saturate")
	}
	// Both matrices remain stochastic (mass is only re-indexed).
	if err := minus.CheckStochastic(1e-12); err != nil {
		t.Errorf("M− not stochastic: %v", err)
	}
	if err := plus.CheckStochastic(1e-12); err != nil {
		t.Errorf("M+ not stochastic: %v", err)
	}
}

func TestKTimesAugmentedValidation(t *testing.T) {
	chain := paperChainV(t)
	if _, err := KTimesOBAugmented(chain, []int{0}, nil, paperInit(t), 0); err != nil {
		t.Errorf("empty window should return trivially: %v", err)
	}
	if _, err := KTimesOBAugmented(chain, []int{0}, []int{1}, paperInit(t), 5); err == nil {
		t.Error("start after horizon accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero query times did not panic in NewKTimesAugmented")
		}
	}()
	NewKTimesAugmented(chain, []int{0}, 0)
}
