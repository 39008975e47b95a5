// Command ustgen generates datasets — the synthetic workloads of the
// paper's Table I or road-network-backed databases — and persists them
// in the library's binary store format, version 2.
//
// Usage:
//
//	ustgen -out data.ustd [-kind synthetic|munich|na]
//	       [-objects N] [-states N] [-object-spread N] [-state-spread N]
//	       [-max-step N] [-network-scale N] [-seed N]
//
// -o is shorthand for -out, which only names the file: whatever its
// extension, the image is exactly what `ustserve -dataset name=file.ust`
// loads and what `PUT /v1/datasets/{name}` accepts, so generated
// workloads feed the server directly.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"ust/internal/core"
	"ust/internal/gen"
	"ust/internal/markov"
	"ust/internal/network"
	"ust/internal/store"
)

func main() {
	out := flag.String("out", "", "output file (required)")
	flag.StringVar(out, "o", "", "shorthand for -out")
	kind := flag.String("kind", "synthetic", "synthetic | munich | na")
	objects := flag.Int("objects", 10000, "|D|: number of objects")
	states := flag.Int("states", 100000, "|S|: number of states (synthetic only)")
	objectSpread := flag.Int("object-spread", 5, "states per object's initial pdf")
	stateSpread := flag.Int("state-spread", 5, "successors per state (synthetic only)")
	maxStep := flag.Int("max-step", 40, "locality window (synthetic only)")
	netScale := flag.Int("network-scale", 10, "divide network node/edge counts by this factor")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	var db *core.Database
	var err error
	switch *kind {
	case "synthetic":
		db, err = genSynthetic(gen.Params{
			NumObjects:   *objects,
			NumStates:    *states,
			ObjectSpread: *objectSpread,
			StateSpread:  *stateSpread,
			MaxStep:      *maxStep,
			Seed:         *seed,
		})
	case "munich":
		db, err = genNetwork(network.MunichSpec(*seed).Scaled(*netScale), *objects, *objectSpread)
	case "na":
		db, err = genNetwork(network.NorthAmericaSpec(*seed).Scaled(*netScale), *objects, *objectSpread)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := store.SaveDatabase(f, db); err != nil {
		fatal(err)
	}
	info, _ := f.Stat()
	var size int64
	if info != nil {
		size = info.Size()
	}
	fmt.Printf("wrote %s: %d objects, %d states, %d transitions (%d bytes)\n",
		*out, db.Len(), db.DefaultChain().NumStates(), db.DefaultChain().NNZ(), size)
}

func genSynthetic(p gen.Params) (*core.Database, error) {
	ds, err := gen.Generate(p)
	if err != nil {
		return nil, err
	}
	db := core.NewDatabase(ds.Chain)
	for i, o := range ds.Objects {
		if err := db.AddSimple(i, o); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func genNetwork(spec network.RoadNetworkSpec, objects, spread int) (*core.Database, error) {
	g, err := network.Generate(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	chain, err := markov.NewChain(g.TransitionMatrix(rng))
	if err != nil {
		return nil, err
	}
	db := core.NewDatabase(chain)
	n := g.NumNodes()
	for id := 0; id < objects; id++ {
		anchor := rng.Intn(n)
		states := []int{anchor}
		g.Successors(anchor, func(v int) {
			if len(states) < spread {
				states = append(states, v)
			}
		})
		if err := db.AddSimple(id, markov.UniformOver(n, states)); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ustgen:", err)
	os.Exit(1)
}
