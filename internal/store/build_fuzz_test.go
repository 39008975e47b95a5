package store

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/sparse"
)

// buildWeight is the weight a FuzzDistributionBuild input byte picks
// from (its low three bits): zeros of both signs, a negative weight, a
// subnormal, weights whose sum overflows, and small integers and
// fractions chosen by the byte's high bits.
func buildWeight(b byte) float64 {
	k := float64(b>>3) + 1
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return -k
	case 3:
		return math.Ldexp(k, -1070)
	case 4:
		return 1e306 * k
	case 5:
		return k / 7
	default:
		return k
	}
}

// entry is one (state, mass) pair a pdf visits.
type entry struct {
	s int
	p float64
}

// visits lists the entries d visits, in its order.
func visits(d *markov.Distribution) []entry {
	var out []entry
	d.Range(func(s int, p float64) { out = append(out, entry{s, p}) })
	return out
}

// ascendingWeighted is the pdf WeightedOver must build, the plain way:
// each state's weights summed in the order listed, the states
// ascending, the total summed ascending and every sum scaled by its
// inverse, or divided by a subnormal total, and the entries that
// underflow to zero dropped — an overflowing total leaves no entries. ok
// is false for an input WeightedOver rejects: mismatched or empty
// columns, a state outside [0, n), a negative weight, or weights that
// are all zero.
func ascendingWeighted(n int, states []int, weights []float64) (out []entry, ok bool) {
	if len(states) != len(weights) || len(states) == 0 {
		return nil, false
	}
	sums := map[int]float64{}
	zero := true
	for k, s := range states {
		if s < 0 || s >= n || weights[k] < 0 {
			return nil, false
		}
		sums[s] += weights[k]
		zero = zero && weights[k] == 0
	}
	if zero {
		return nil, false
	}
	for s, w := range sums {
		if w != 0 {
			out = append(out, entry{s, w})
		}
	}
	slices.SortFunc(out, func(a, b entry) int { return cmp.Compare(a.s, b.s) })
	total := 0.0
	for _, e := range out {
		total += e.p
	}
	inv := 1 / total
	if inv == 0 {
		return nil, true
	}
	for k := range out {
		if math.IsInf(inv, 1) {
			out[k].p /= total
		} else {
			out[k].p *= inv
		}
	}
	return slices.DeleteFunc(out, func(e entry) bool { return e.p == 0 }), true
}

// FuzzDistributionBuild builds pdfs from states and weights listed in
// any order, with repeats, through WeightedOver and UniformOver. The
// first byte picks the state space (1..64 states); each following pair
// is a state (one past either end of the space included) and a weight
// (buildWeight). WeightedOver must reject exactly the inputs
// ascendingWeighted rejects; a built pdf must visit its states strictly
// ascending, with ascendingWeighted's bits, bit-identical to the build
// from the same pairs sorted by state; its Sum, Dot and MassOn must be
// the ascending sums; and an observation frame must carry it to the
// same bits, through FromColumns as the store loads it and through
// WeightedSorted as frame ingest builds it, the latter equal to
// WeightedOver over the pdf's entries as JSON ingest builds it.
func FuzzDistributionBuild(f *testing.F) {
	f.Add([]byte{9, 7, 6, 2, 5, 7, 6, 3, 14})
	f.Add([]byte{40, 30, 13, 2, 6, 30, 21, 41, 0, 11, 6})
	f.Add([]byte{3, 0, 4, 1, 4, 2, 4})
	f.Add([]byte{5, 4, 3, 1, 1, 6, 2})
	f.Add([]byte{2, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%64
		var states []int
		var weights []float64
		for k := 1; k+1 < len(data); k += 2 {
			states = append(states, int(data[k])%(n+2)-1)
			weights = append(weights, buildWeight(data[k+1]))
		}
		want, ok := ascendingWeighted(n, states, weights)
		d, err := markov.WeightedOver(n, states, weights)
		if (err == nil) != ok {
			t.Fatalf("WeightedOver(%d, %v, %v): error %v, want rejected %v", n, states, weights, err, !ok)
		}
		if err == nil {
			checkBuilt(t, d, want)
			order := make([]int, len(states))
			for k := range order {
				order[k] = k
			}
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(states[a], states[b]) })
			sortedS, sortedW := make([]int, len(order)), make([]float64, len(order))
			for k, j := range order {
				sortedS[k], sortedW[k] = states[j], weights[j]
			}
			sorted, err := markov.WeightedOver(n, sortedS, sortedW)
			if err != nil || !slices.Equal(visits(sorted), visits(d)) {
				t.Fatalf("the sorted build visits %v (%v), the listed one %v", visits(sorted), err, visits(d))
			}
		}

		var valid []int
		for _, s := range states {
			if s >= 0 && s < n {
				valid = append(valid, s)
			}
		}
		if len(valid) == 0 {
			return
		}
		u := markov.UniformOver(n, valid)
		var wantU []entry
		for _, s := range valid {
			wantU = append(wantU, entry{s, 1 / float64(len(valid))})
		}
		slices.SortFunc(wantU, func(a, b entry) int { return cmp.Compare(a.s, b.s) })
		checkBuilt(t, u, slices.CompactFunc(wantU, func(a, b entry) bool { return a.s == b.s }))
	})
}

// checkBuilt holds a built pdf to its ascending reference entries and
// carries it through an observation frame.
func checkBuilt(t *testing.T, d *markov.Distribution, want []entry) {
	t.Helper()
	got := visits(d)
	for k := 1; k < len(got); k++ {
		if got[k].s <= got[k-1].s {
			t.Fatalf("visits %v: not strictly ascending", got)
		}
	}
	same := func(a, b entry) bool { return a.s == b.s && math.Float64bits(a.p) == math.Float64bits(b.p) }
	if !slices.EqualFunc(got, want, same) {
		t.Fatalf("visits %v, want %v", got, want)
	}
	n := d.NumStates()
	col := make([]float64, n)
	mask := sparse.NewBitset(n)
	for i := range col {
		col[i] = float64(i%5) / 3
		if i%3 != 0 {
			mask.Set(i)
		}
	}
	sum, dot, on := 0.0, 0.0, 0.0
	for _, e := range want {
		sum += e.p
		dot += e.p * col[e.s]
		if mask.Has(e.s) {
			on += e.p
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"Sum", d.Mass(), sum}, {"Dot", d.Dot(col), dot}, {"MassOn", d.MassOn(mask), on}} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s %v, ascending sum %v", c.name, c.got, c.want)
		}
	}
	if len(want) == 0 {
		return // an emptied pdf has no frame
	}

	frame, err := EncodeObservationFrame(1, []core.Observation{{Time: 0, PDF: d}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeObservationFrame(frame, n)
	if err != nil {
		t.Fatal(err)
	}
	fo := f.Observations[0]
	if loaded := markov.FromColumns(n, fo.States, fo.Probs); !slices.EqualFunc(visits(loaded), got, same) {
		t.Fatalf("the frame carries %v, the pdf visits %v", visits(loaded), got)
	}
	states := make([]int, len(fo.States))
	for k, s := range fo.States {
		states[k] = int(s)
	}
	viaJSON, err := markov.WeightedOver(n, states, slices.Clone(fo.Probs))
	if err != nil {
		t.Fatal(err)
	}
	viaFrame, err := markov.WeightedSorted(n, fo.States, fo.Probs)
	if err != nil || !slices.EqualFunc(visits(viaFrame), visits(viaJSON), same) {
		t.Fatalf("frame ingest builds %v (%v), JSON ingest %v", visits(viaFrame), err, visits(viaJSON))
	}
}
