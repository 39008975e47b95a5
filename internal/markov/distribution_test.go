package markov

import (
	"math"
	"testing"

	"ust/internal/sparse"
)

func TestPointDistribution(t *testing.T) {
	d := PointDistribution(5, 2)
	if d.P(2) != 1 {
		t.Errorf("P(2) = %g, want 1", d.P(2))
	}
	if err := d.Validate(0); err != nil {
		t.Errorf("point distribution invalid: %v", err)
	}
	if d.Entropy() != 0 {
		t.Errorf("point distribution entropy = %g, want 0", d.Entropy())
	}
	if s, p := d.Mode(); s != 2 || p != 1 {
		t.Errorf("Mode = (%d, %g), want (2, 1)", s, p)
	}
}

func TestPointDistributionOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range state did not panic")
		}
	}()
	PointDistribution(3, 3)
}

func TestUniformOver(t *testing.T) {
	d := UniformOver(10, []int{1, 3, 5, 7})
	if err := d.Validate(1e-12); err != nil {
		t.Errorf("uniform distribution invalid: %v", err)
	}
	if d.P(3) != 0.25 {
		t.Errorf("P(3) = %g, want 0.25", d.P(3))
	}
	if d.P(0) != 0 {
		t.Errorf("P(0) = %g, want 0", d.P(0))
	}
	wantH := math.Log(4)
	if math.Abs(d.Entropy()-wantH) > 1e-12 {
		t.Errorf("entropy = %g, want %g", d.Entropy(), wantH)
	}
}

func TestUniformOverEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty UniformOver did not panic")
		}
	}()
	UniformOver(5, nil)
}

func TestWeightedOver(t *testing.T) {
	d, err := WeightedOver(4, []int{0, 2}, []float64{1, 3})
	if err != nil {
		t.Fatalf("WeightedOver: %v", err)
	}
	if math.Abs(d.P(0)-0.25) > 1e-15 || math.Abs(d.P(2)-0.75) > 1e-15 {
		t.Errorf("weights not normalized: %v", d)
	}
	if s, p := d.Mode(); s != 2 || math.Abs(p-0.75) > 1e-15 {
		t.Errorf("Mode = (%d, %g)", s, p)
	}
}

func TestWeightedOverErrors(t *testing.T) {
	if _, err := WeightedOver(4, []int{0}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedOver(4, nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := WeightedOver(4, []int{9}, []float64{1}); err == nil {
		t.Error("out-of-range state accepted")
	}
	if _, err := WeightedOver(4, []int{0}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := WeightedOver(4, []int{0, 1}, []float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
}

func TestWeightedOverDuplicateStatesAccumulate(t *testing.T) {
	d, err := WeightedOver(3, []int{1, 1}, []float64{1, 1})
	if err != nil {
		t.Fatalf("WeightedOver: %v", err)
	}
	if d.P(1) != 1 {
		t.Errorf("duplicate states should accumulate: P(1) = %g", d.P(1))
	}
}

func TestValidateDetectsNonUnitMass(t *testing.T) {
	d := FromVec(sparse.NewVecFrom([]float64{0.5, 0, 0}))
	if err := d.Validate(1e-9); err == nil {
		t.Error("half-mass distribution validated")
	}
}

func TestCloneIndependent(t *testing.T) {
	d := UniformOver(5, []int{4, 1})
	c := d.Clone()
	if c == d {
		t.Fatal("Clone returned the receiver")
	}
	for i := range 5 {
		if c.P(i) != d.P(i) {
			t.Fatalf("Clone P(%d) = %g, want %g", i, c.P(i), d.P(i))
		}
	}
}

func TestFromVecCopies(t *testing.T) {
	v := sparse.NewVec(3)
	v.Set(2, 1)
	d := FromVec(v)
	if d.P(2) != 1 {
		t.Error("FromVec lost data")
	}
	v.Set(2, 0.5)
	if d.P(2) != 1 {
		t.Error("FromVec should not retain v")
	}
}

func TestModeTieBreaksLow(t *testing.T) {
	d := UniformOver(5, []int{4, 1})
	if s, _ := d.Mode(); s != 1 {
		t.Errorf("Mode tie broke to %d, want 1", s)
	}
}

func TestSupportAscending(t *testing.T) {
	d := UniformOver(9, []int{8, 0, 4})
	sup := d.Support()
	if len(sup) != 3 || sup[0] != 0 || sup[1] != 4 || sup[2] != 8 {
		t.Errorf("Support = %v", sup)
	}
}
