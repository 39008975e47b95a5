package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ust/internal/markov"
)

// perturbedChain returns a copy of base with each row's weights jittered
// by up to eps (support preserved, rows renormalized) — a "similar"
// chain in the Section V-C clustering sense.
func perturbedChain(base *markov.Chain, eps float64, rng *rand.Rand) *markov.Chain {
	n := base.NumStates()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		sum := 0.0
		base.Matrix().Row(i, func(j int, x float64) {
			v := x * (1 + eps*(2*rng.Float64()-1))
			rows[i][j] = v
			sum += v
		})
		for j := range rows[i] {
			rows[i][j] /= sum
		}
	}
	return mustCSR(rows)
}

func mustCSR(rows [][]float64) *markov.Chain {
	c, err := markov.FromDense(rows)
	if err != nil {
		panic(err)
	}
	return c
}

func TestIntervalChainEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := paperChainV(t)
	members := []*markov.Chain{base}
	for i := 0; i < 4; i++ {
		members = append(members, perturbedChain(base, 0.2, rng))
	}
	env, err := NewIntervalChain(members)
	if err != nil {
		t.Fatalf("NewIntervalChain: %v", err)
	}
	for i, c := range members {
		if !env.Contains(c) {
			t.Errorf("member %d escapes its own envelope", i)
		}
	}
	// An unrelated chain must not be contained.
	other := mustCSR([][]float64{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
	})
	if env.Contains(other) {
		t.Error("identity chain reported inside the paper-chain envelope")
	}
}

func TestIntervalChainErrors(t *testing.T) {
	if _, err := NewIntervalChain(nil); err == nil {
		t.Error("empty member set accepted")
	}
	a := paperChainV(t)
	b := mustCSR([][]float64{{0.5, 0.5}, {1, 0}})
	if _, err := NewIntervalChain([]*markov.Chain{a, b}); err == nil {
		t.Error("mismatched state counts accepted")
	}
}

func TestClusterBoundsBracketEveryMemberQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := randomChainN(rng, 4+rng.Intn(4), 3)
		members := []*markov.Chain{base}
		for i := 0; i < 3; i++ {
			members = append(members, perturbedChain(base, 0.15, rng))
		}
		env, err := NewIntervalChain(members)
		if err != nil {
			return false
		}
		n := base.NumStates()
		init := markov.PointDistribution(n, rng.Intn(n))
		q := NewQuery([]int{rng.Intn(n)}, []int{1 + rng.Intn(3), 4})
		lo, hi, err := env.ExistsBoundsCluster(init.Vec(), 0, q)
		if err != nil {
			return false
		}
		if lo > hi+1e-12 || lo < -1e-12 || hi > 1+1e-12 {
			return false
		}
		for _, c := range members {
			db := NewDatabase(c)
			o := MustObject(1, nil, Observation{Time: 0, PDF: init.Clone()})
			db.MustAdd(o)
			r, perr := askOne(NewEngine(db, Options{}), o.ID, PredicateExists, q, ob)
			if perr != nil {
				return false
			}
			if p := r.Prob; p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// clusteredExists builds the cluster index for the labels and runs the
// threshold query over it.
func clusteredExists(e *Engine, q Query, tau float64, clusters []int) ([]Result, int, error) {
	idx, err := e.BuildClusterIndex(clusters)
	if err != nil {
		return nil, 0, err
	}
	return e.ExistsThresholdClustered(q, tau, idx)
}

func TestClusteredExistsMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randomChainN(rng, 8, 3)
	db := NewDatabase(base)
	// Cluster 0: the base chain family. Cluster 1: a drifted family.
	drifted := perturbedChain(base, 0.4, rng)
	var clusters []int
	for id := 0; id < 20; id++ {
		var ch *markov.Chain
		cid := id % 2
		if cid == 0 {
			ch = perturbedChain(base, 0.05, rng)
		} else {
			ch = perturbedChain(drifted, 0.05, rng)
		}
		o := MustObject(id, ch, Observation{Time: 0, PDF: markov.PointDistribution(8, rng.Intn(8))})
		db.MustAdd(o)
		clusters = append(clusters, cid)
	}
	e := NewEngine(db, Options{})
	q := NewQuery([]int{2, 3}, []int{2, 3, 4})
	const tau = 0.3

	got, pruned, err := clusteredExists(e, q, tau, clusters)
	if err != nil {
		t.Fatalf("clustered exists: %v", err)
	}
	if pruned < 0 {
		t.Fatalf("negative pruned count %d", pruned)
	}
	// Reference: exact per-object evaluation.
	want := map[int]float64{}
	for id, p := range probs(t, e, PredicateExists, q, ob) {
		if p >= tau {
			want[id] = p
		}
	}
	gotIDs := map[int]bool{}
	for _, r := range got {
		gotIDs[r.ObjectID] = true
		wp, ok := want[r.ObjectID]
		if !ok {
			t.Errorf("object %d qualified but exact P = below threshold", r.ObjectID)
			continue
		}
		if math.Abs(r.Prob-wp) > 1e-9 {
			t.Errorf("object %d: clustered P %g != exact %g", r.ObjectID, r.Prob, wp)
		}
	}
	for id := range want {
		if !gotIDs[id] {
			t.Errorf("object %d missing from clustered result", id)
		}
	}
}

func TestClusteredExistsLabelMismatch(t *testing.T) {
	db, _ := paperDB(t)
	e := NewEngine(db, Options{})
	if _, _, err := clusteredExists(e, paperQueryV(), 0.5, []int{0, 1}); err == nil {
		t.Error("wrong label count accepted")
	}
}

func TestTightEnvelopePrunesEffectively(t *testing.T) {
	// Identical chains → zero-width envelope → every single-observation
	// object is decided by the bounds.
	db := NewDatabase(paperChainV(t))
	var clusters []int
	for id := 0; id < 10; id++ {
		state := id % 3
		db.MustAdd(MustObject(id, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, state)}))
		clusters = append(clusters, 0)
	}
	e := NewEngine(db, Options{})
	_, pruned, err := clusteredExists(e, paperQueryV(), 0.5, clusters)
	if err != nil {
		t.Fatalf("clustered exists: %v", err)
	}
	if pruned != 10 {
		t.Errorf("pruned = %d, want 10 (zero-width envelope decides everything)", pruned)
	}
}
