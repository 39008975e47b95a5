package markov

import (
	"math"
	"slices"
	"testing"
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

// TestWeightedOverSubnormalWeights: weights whose sum is subnormal,
// whose inverse overflows, are divided by the sum instead, so the pdf is
// finite with unit mass where scaling by the inverse gave +Inf.
func TestWeightedOverSubnormalWeights(t *testing.T) {
	tiny := math.Ldexp(1, -1070)
	d, err := WeightedOver(4, []int{3, 1}, []float64{3 * tiny, tiny})
	if err != nil {
		t.Fatal(err)
	}
	if d.P(1) != 0.25 || d.P(3) != 0.75 || d.Mass() != 1 {
		t.Errorf("P(1) %g, P(3) %g, mass %g; want 0.25, 0.75, 1", d.P(1), d.P(3), d.Mass())
	}
}

func TestValidateDetectsNonUnitMass(t *testing.T) {
	d := FromArray([]float64{0.5, 0, 0})
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

// TestFromArray pins the dense-array constructor's one form: past half
// non-zero it adopts the array as the full column, otherwise it keeps
// the ascending non-zeros in fresh columns, the array not retained.
func TestFromArray(t *testing.T) {
	sparseIn := []float64{0, 0.25, 0, 0.75}
	d := FromArray(sparseIn)
	sparseIn[1] = 0.5
	if d.P(1) != 0.25 || d.NNZ() != 2 || d.Bytes() != 24 {
		t.Errorf("sparse: P(1) %g, NNZ %d, %d bytes; want 0.25, 2, 24", d.P(1), d.NNZ(), d.Bytes())
	}
	full := []float64{0.5, 0, 0.25, 0.25}
	d = FromArray(full)
	if d.Bytes() != 32 || d.NNZ() != 3 || d.Mass() != 1 {
		t.Errorf("full: %d bytes, NNZ %d, mass %g; want 32, 3, 1", d.Bytes(), d.NNZ(), d.Mass())
	}
	if got := d.Support(); !slices.Equal(got, []int{0, 2, 3}) {
		t.Errorf("full: Support %v", got)
	}
}

// TestBuildersListOrderFree builds one pdf from its states listed
// ascending, descending and shuffled with a repeat, through every
// builder that takes a list: each visits the states ascending, with the
// same bits.
func TestBuildersListOrderFree(t *testing.T) {
	type entry struct {
		s int
		p float64
	}
	visits := func(d *Distribution) []entry {
		var out []entry
		d.Range(func(s int, p float64) { out = append(out, entry{s, p}) })
		return out
	}
	states := [][]int{{1, 3, 6, 8}, {8, 6, 3, 1}, {6, 1, 8, 3, 6}}
	weights := [][]float64{{0.125, 0.25, 0.375, 0.875}, {0.875, 0.375, 0.25, 0.125}, {0.25, 0.125, 0.875, 0.25, 0.125}}
	var wantW, wantU, wantC []entry
	for k := range states {
		w, err := WeightedOver(10, states[k], weights[k])
		if err != nil {
			t.Fatal(err)
		}
		u := UniformOver(10, states[k][:4])
		idx := make([]int32, len(states[k]))
		for j, s := range states[k] {
			idx[j] = int32(s)
		}
		c := FromColumns(10, idx, slices.Clone(weights[k]))
		if k == 0 {
			wantW, wantU, wantC = visits(w), visits(u), visits(c)
			if !slices.IsSortedFunc(wantW, func(a, b entry) int { return a.s - b.s }) {
				t.Fatalf("ascending build visits %v", wantW)
			}
			continue
		}
		if got := visits(w); !slices.Equal(got, wantW) {
			t.Errorf("WeightedOver %v: %v, want %v", states[k], got, wantW)
		}
		if got := visits(u); !slices.Equal(got, wantU) {
			t.Errorf("UniformOver %v: %v, want %v", states[k][:4], got, wantU)
		}
		if got := visits(c); !slices.Equal(got, wantC) {
			t.Errorf("FromColumns %v: %v, want %v", states[k], got, wantC)
		}
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
