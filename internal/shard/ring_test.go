package shard

import "testing"

func TestRingDeterminism(t *testing.T) {
	a, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRing(5)
	for id := -50; id < 1000; id += 7 {
		if a.Owner(id) != b.Owner(id) {
			t.Fatalf("ring assignment not deterministic for id %d", id)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("NewRing(0) accepted")
	}
	r, _ := NewRing(1)
	if _, err := r.Shrunk(0); err == nil {
		t.Error("removing the last shard accepted")
	}
	if _, err := r.Shrunk(9); err == nil {
		t.Error("removing an unknown shard accepted")
	}
	if r.Owner(42) != 0 {
		t.Error("single-shard ring must own everything")
	}
}

func TestRingGrowRelabels(t *testing.T) {
	r, _ := NewRing(3)
	g := r.Grown()
	if g.N() != 4 {
		t.Fatalf("grown ring has %d shards", g.N())
	}
	shrunk, err := g.Shrunk(3)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2000; id++ {
		if shrunk.Owner(id) != r.Owner(id) {
			t.Fatalf("grow+shrink is not the identity for id %d", id)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, _ := NewRing(8)
	counts := make([]int, 8)
	for id := 0; id < 10000; id++ {
		counts[r.Owner(id)]++
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	if lo == 0 || float64(hi)/float64(lo) > 1.5 {
		t.Fatalf("unbalanced ring: min %d max %d (%v)", lo, hi, counts)
	}
}
