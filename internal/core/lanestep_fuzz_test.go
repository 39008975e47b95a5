package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ust/internal/sparse"
)

// laneStepRef is the plain dense Gustavson step fusedStep must
// reproduce: rows of x in ascending order, a row skipped when its first
// `active` lanes are all zero, and dst[j·K+c] += x[i·K+c]·m[i,j] over
// the row's stored entries in order, for every lane c < active. It
// returns dst and the rows that received an addend.
func laneStepRef(x []float64, m *sparse.CSR, n, K, active int) ([]float64, []bool) {
	dst := make([]float64, n*K)
	got := make([]bool, n)
	if active == 0 {
		return dst, got
	}
	for i := range n {
		xb := x[i*K : i*K+active]
		if !slices.ContainsFunc(xb, func(v float64) bool { return v != 0 }) {
			continue
		}
		cols, vals := m.RowSlices(i)
		for p, j := range cols {
			got[j] = true
			for c, xc := range xb {
				dst[j*K+c] += xc * vals[p]
			}
		}
	}
	return dst, got
}

// laneStepChain draws an n×n CSR: banded rows (successors within ±w of
// the row, the id locality of a synthetic chain) or scattered ones
// (successors anywhere, a road network's ids), some rows empty.
func laneStepChain(rng *rand.Rand, n int, banded bool) *sparse.CSR {
	w := 1 + rng.Intn(70)
	return sparse.FromRows(n, n, func(i int) ([]int, []float64) {
		seen := map[int]bool{}
		var idx []int
		var vals []float64
		for range rng.Intn(7) {
			j := rng.Intn(n)
			if banded {
				j = min(n-1, max(0, i-w+rng.Intn(2*w+1)))
			}
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
				vals = append(vals, rng.Float64()+1e-3)
			}
		}
		return idx, vals
	})
}

// fillLanes writes random rows into b's current buffer through row (so
// they are live): about one row in `every`, each lane zero with
// probability one half, so live rows hold exact zeros and some live rows
// are zero on every lane.
func fillLanes(rng *rand.Rand, b *laneBlock, every int) {
	for s := range b.n {
		if rng.Intn(every) != 0 {
			continue
		}
		row := b.row(s)
		for c := range row {
			if rng.Intn(2) == 0 {
				row[c] = rng.Float64()
			}
		}
	}
}

// FuzzLaneStep holds one step of the lane kernel (laneBlock.step, that
// is fusedStep) to laneStepRef on random chains, banded and scattered,
// n up to 300 (rarely a multiple of 64, so the tail word is reached), K
// from 1 to 4 and active from 0 to K, over a spare buffer left dirty by
// an earlier block state. The step must give bit-identical lanes, a live
// set that is exactly the rows that received an addend, zeros on every
// other row, and, once the block is put back, both buffers zero over
// their whole capacity and both live sets empty.
func FuzzLaneStep(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0), uint8(1), true, uint8(3))
	f.Add(int64(2), uint16(257), uint8(2), uint8(2), false, uint8(1))
	f.Add(int64(3), uint16(64), uint8(3), uint8(4), true, uint8(8))
	f.Add(int64(4), uint16(191), uint8(1), uint8(1), false, uint8(30))
	f.Add(int64(5), uint16(5), uint8(3), uint8(0), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, kRaw, activeRaw uint8, banded bool, sparsity uint8) {
		n := 1 + int(nRaw)%300
		K := 1 + int(kRaw)%4
		active := int(activeRaw) % (K + 1)
		every := 1 + int(sparsity)%40
		rng := rand.New(rand.NewSource(seed))
		m := laneStepChain(rng, n, banded)

		pool := &blockPool{}
		b := pool.get(n, K)
		fillLanes(rng, b, 1+rng.Intn(4)) // the state the spare buffer is left in
		b.swap()
		fillLanes(rng, b, every)
		x := slices.Clone(b.cur)

		b.step(m, active)
		want, got := laneStepRef(x, m, n, K, active)
		for i := range want {
			if math.Float64bits(b.cur[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d K=%d active=%d: entry %d (row %d) = %v, want %v", n, K, active, i, i/K, b.cur[i], want[i])
			}
		}
		for s := range n {
			if b.live.Has(s) != got[s] {
				t.Fatalf("n=%d K=%d active=%d: row %d live %v, received an addend %v", n, K, active, s, b.live.Has(s), got[s])
			}
		}
		if words := b.live.Words64(); n&63 != 0 && words[len(words)-1]>>(n&63) != 0 {
			t.Fatalf("n=%d: live bits past the last row", n)
		}
		// The live set above is exact, and want is zero off it; the
		// spare buffer now holds x on its live rows and nothing else.
		for s := range n {
			if !b.spareLive.Has(s) && slices.ContainsFunc(b.spare[s*K:s*K+K], func(v float64) bool { return v != 0 }) {
				t.Fatalf("n=%d K=%d: spare row %d is off its live set but not zero", n, K, s)
			}
		}

		pool.put(b)
		if b.live.Any() || b.spareLive.Any() ||
			slices.ContainsFunc(b.cur[:cap(b.cur)], func(v float64) bool { return v != 0 }) ||
			slices.ContainsFunc(b.spare[:cap(b.spare)], func(v float64) bool { return v != 0 }) {
			t.Fatalf("n=%d K=%d active=%d: a put block is not empty", n, K, active)
		}
	})
}
