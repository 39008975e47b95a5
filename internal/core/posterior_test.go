package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ust/internal/markov"
)

// bruteForcePosterior computes P(o(t) = s | all observations) by full
// path enumeration — the reference for PosteriorAt's smoothing pass.
func bruteForcePosterior(chain *markov.Chain, obs []Observation, t int) ([]float64, error) {
	end := t
	if last := obs[len(obs)-1].Time; last > end {
		end = last
	}
	obsAt := map[int]*markov.Distribution{}
	for _, ob := range obs[1:] {
		obsAt[ob.Time] = ob.PDF
	}
	n := chain.NumStates()
	post := make([]float64, n)
	total := 0.0
	var walk func(tau, state int, prob float64, atT int)
	walk = func(tau, state int, prob float64, atT int) {
		if pdf, ok := obsAt[tau]; ok {
			prob *= pdf.P(state)
			if prob == 0 {
				return
			}
		}
		if tau == t {
			atT = state
		}
		if tau == end {
			post[atT] += prob
			total += prob
			return
		}
		chain.Successors(state, func(next int, p float64) {
			walk(tau+1, next, prob*p, atT)
		})
	}
	init, _ := obs[0].PDF.Normalized()
	init.Range(func(s int, p float64) { walk(obs[0].Time, s, p, s) })
	if total == 0 {
		return nil, errZeroMass(0)
	}
	for i := range post {
		post[i] /= total
	}
	return post, nil
}

func TestPosteriorBetweenObservationsMatchesBruteForceQuick(t *testing.T) {
	// PosteriorAt at a time strictly between two observations exercises
	// the backward likelihood sweep; it must agree with exhaustive
	// enumeration.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		chain := randomChainN(rng, n, 2+rng.Intn(2))
		obs := []Observation{
			{Time: 0, PDF: markov.UniformOver(n, rng.Perm(n)[:1+rng.Intn(2)])},
			{Time: 4, PDF: markov.UniformOver(n, rng.Perm(n)[:1+rng.Intn(n-1)])},
		}
		o, err := NewObject(1, nil, obs...)
		if err != nil {
			return false
		}
		for _, tt := range []int{1, 2, 3} {
			got, gotErr := PosteriorAt(chain, o.Observations, tt)
			want, wantErr := bruteForcePosterior(chain, o.Observations, tt)
			if (gotErr == nil) != (wantErr == nil) {
				return false
			}
			if gotErr != nil {
				continue // inconsistent observations: both agree
			}
			for s := 0; s < n; s++ {
				if math.Abs(got.P(s)-want[s]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPosteriorAtObservationTimes(t *testing.T) {
	// At the exact time of a point observation, the posterior must be
	// that point.
	chain := paperChainVI(t)
	obs := []Observation{
		{Time: 0, PDF: markov.PointDistribution(3, 0)},
		{Time: 3, PDF: markov.PointDistribution(3, 1)},
	}
	for _, c := range []struct {
		t    int
		s    int
		want float64
	}{
		{0, 0, 1},
		{3, 1, 1},
	} {
		post, err := PosteriorAt(chain, obs, c.t)
		if err != nil {
			t.Fatalf("PosteriorAt(%d): %v", c.t, err)
		}
		if math.Abs(post.P(c.s)-c.want) > 1e-12 {
			t.Errorf("posterior(t=%d) P(s%d) = %g, want %g", c.t, c.s+1, post.P(c.s), c.want)
		}
	}
}

func TestPosteriorBeforeFirstObservationErrors(t *testing.T) {
	chain := paperChainV(t)
	obs := []Observation{{Time: 5, PDF: markov.PointDistribution(3, 0)}}
	if _, err := PosteriorAt(chain, obs, 2); err == nil {
		t.Error("backward inference before the first observation accepted")
	}
	if _, err := PosteriorAt(chain, nil, 2); err == nil {
		t.Error("no observations accepted")
	}
}

func TestPosteriorInconsistentObservationsError(t *testing.T) {
	// s1 -> s3 deterministically; an observation of s2 at t=1 is
	// impossible.
	chain := paperChainV(t)
	obs := []Observation{
		{Time: 0, PDF: markov.PointDistribution(3, 0)},
		{Time: 1, PDF: markov.PointDistribution(3, 1)},
	}
	if _, err := PosteriorAt(chain, obs, 1); err == nil {
		t.Error("impossible observation sequence accepted")
	}
}

func TestQueryHelpers(t *testing.T) {
	q := NewQuery([]int{1}, []int{2})
	if q.Empty() {
		t.Error("non-empty query reported Empty")
	}
	if !(Query{}).Empty() || !NewQuery(nil, []int{1}).Empty() || !NewQuery([]int{1}, nil).Empty() {
		t.Error("empty query not reported Empty")
	}
	if s := q.String(); s != "Query{|S|=1, T=[2]}" {
		t.Errorf("String = %q", s)
	}
}

func TestMonteCarloStdDev(t *testing.T) {
	// The paper's formula: sqrt(p(1-p)/n); at p=0.5, n=100 -> 0.05.
	if got := MonteCarloStdDev(0.5, 100); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("stddev = %g, want 0.05", got)
	}
	if got := MonteCarloStdDev(0, 100); got != 0 {
		t.Errorf("stddev at p=0 should be 0, got %g", got)
	}
	if got := MonteCarloStdDev(0.5, 0); !math.IsInf(got, 1) {
		t.Errorf("stddev with no samples = %g, want +Inf", got)
	}
}

func TestIntervalChainAccessors(t *testing.T) {
	env, err := NewIntervalChain([]*markov.Chain{paperChainV(t)})
	if err != nil {
		t.Fatal(err)
	}
	if env.Lo() == nil || env.Hi() == nil {
		t.Fatal("nil bound matrices")
	}
	// Singleton envelope: lo == hi == the chain itself.
	if !env.Lo().Equal(paperChainV(t).Matrix(), 1e-12) {
		t.Error("singleton lower bound differs from member")
	}
	if !env.Hi().Equal(paperChainV(t).Matrix(), 1e-12) {
		t.Error("singleton upper bound differs from member")
	}
}

func TestEngineDatabaseAccessor(t *testing.T) {
	db, _ := paperDB(t)
	e := NewEngine(db, Options{})
	if e.Database() != db {
		t.Error("Database() does not return the engine's database")
	}
}

func TestNewEngineNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil database accepted")
		}
	}()
	NewEngine(nil, Options{})
}

func TestMustAddPanics(t *testing.T) {
	db, _ := paperDB(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate MustAdd did not panic")
		}
	}()
	db.MustAdd(MustObject(1, nil, Observation{Time: 0, PDF: markov.PointDistribution(3, 0)}))
}
