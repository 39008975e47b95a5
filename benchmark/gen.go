package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"ust/internal/core"
	"ust/internal/markov"
	"ust/internal/sparse"
	"ust/internal/spatial"
	"ust/internal/store"
)

// The benchmark's own copy of the paper's Table I generator. It is
// deliberately not internal/gen: a later change to that package must not
// change what the benchmark measures.

// t1Params are the Table I parameters every workload uses except for
// the two sizes.
type t1Params struct {
	objects, states int
}

const (
	t1ObjectSpread = 5  // states in an object's initial pdf
	t1StateSpread  = 5  // successors per state
	t1MaxStep      = 40 // successors lie within ±max_step/2 state ids
	t1Horizon      = 30 // query windows stay inside [1, horizon]
)

// inputs is everything a run hands to the program under test: the
// store-v2 image of the dataset, the grid its state ids are laid on,
// and the op list. The synthetic database is kept only to build
// oracles and probes from.
type inputs struct {
	params t1Params
	chain  *markov.Chain
	pdfs   []*markov.Distribution
	grid   *spatial.Grid
	image  []byte
	// fingerprint covers the chain, the pdfs and (once added) the ops.
	hash fingerprint
}

// fingerprint is a running SHA-256 over the generated inputs; the zero
// value is ready to use.
type fingerprint struct{ h hash.Hash }

func (f *fingerprint) word(v uint64) {
	if f.h == nil {
		f.h = sha256.New()
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:]) // hash.Hash never returns an error
}

func (f *fingerprint) ints(vs ...int) {
	for _, v := range vs {
		f.word(uint64(v))
	}
}

func (f *fingerprint) floats(vs ...float64) {
	for _, v := range vs {
		f.word(math.Float64bits(v))
	}
}

func (f *fingerprint) str(s string) {
	f.word(uint64(len(s)))
	f.h.Write([]byte(s))
}

func (f *fingerprint) sum() string { return fmt.Sprintf("%x", f.h.Sum(nil)[:8]) }

// generateT1 builds the dataset of Section VIII-A: every state moves to
// state_spread random states within ±max_step/2 with random normalised
// weights, and every object starts on object_spread consecutive states
// at a random anchor, observed once at t=0.
func generateT1(p t1Params, seed int64) (*inputs, error) {
	side := int(math.Round(math.Sqrt(float64(p.states))))
	if side*side != p.states {
		return nil, fmt.Errorf("benchmark: |S|=%d is not a square grid", p.states)
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{params: p, grid: spatial.NewGrid(side, side)}
	in.hash.ints(p.objects, p.states)

	half := t1MaxStep / 2
	window := make([]int, 0, t1MaxStep+1)
	m := sparse.FromRows(p.states, p.states, func(i int) ([]int, []float64) {
		lo, hi := max(i-half, 0), min(i+half, p.states-1)
		window = window[:0]
		for s := lo; s <= hi; s++ {
			window = append(window, s)
		}
		k := min(t1StateSpread, len(window))
		idx := make([]int, k)
		vals := make([]float64, k)
		sum := 0.0
		for c := 0; c < k; c++ {
			pick := c + rng.Intn(len(window)-c)
			window[c], window[pick] = window[pick], window[c]
			idx[c] = window[c]
			vals[c] = rng.Float64() + 1e-3
			sum += vals[c]
		}
		for c := range vals {
			vals[c] /= sum
		}
		in.hash.ints(idx...)
		in.hash.floats(vals...)
		return idx, vals
	})
	chain, err := markov.NewChain(m)
	if err != nil {
		return nil, fmt.Errorf("benchmark: generated chain: %w", err)
	}
	in.chain = chain

	in.pdfs = make([]*markov.Distribution, p.objects)
	for o := range in.pdfs {
		anchor := min(rng.Intn(p.states), p.states-t1ObjectSpread)
		states := make([]int, t1ObjectSpread)
		weights := make([]float64, t1ObjectSpread)
		for k := range states {
			states[k] = anchor + k
			weights[k] = rng.Float64() + 1e-3
		}
		d, err := markov.WeightedOver(p.states, states, weights)
		if err != nil {
			return nil, fmt.Errorf("benchmark: object %d: %w", o, err)
		}
		in.hash.ints(states...)
		in.hash.floats(weights...)
		in.pdfs[o] = d
	}

	var buf bytes.Buffer
	if err := store.SaveDatabase(&buf, in.database()); err != nil {
		return nil, fmt.Errorf("benchmark: encoding the image: %w", err)
	}
	in.image = buf.Bytes()
	return in, nil
}

// database builds a fresh database straight from the generated pdfs,
// without going through the store: what oracles and probes run on.
func (in *inputs) database() *core.Database {
	db := core.NewDatabase(in.chain)
	for id, pdf := range in.pdfs {
		if err := db.AddSimple(id, pdf); err != nil {
			panic(err) // ids are unique and pdfs normalised by construction
		}
	}
	return db
}

// load decodes a private copy of the image the way a server does at
// start-up; the mapped loader adopts the buffer it is given.
func (in *inputs) load() (*core.Database, error) {
	return store.LoadDatabaseMapped(bytes.Clone(in.image))
}

// resolver indexes the grid with the R-tree servers ground regions on.
func (in *inputs) resolver() spatial.Resolver { return spatial.IndexSpace(in.grid, 0) }
