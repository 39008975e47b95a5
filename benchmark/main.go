// Command benchmark is the repository's benchmark: four fixed-work
// workloads sent by one closed-loop client in one process, seven
// end-to-end metrics each, timed against a sensor of the machine's own
// speed, every answer checked against an oracle, and a traced run that
// times each layer from outside. README.md in this directory says what
// every name means and why.
//
//	benchmark -workload serve_hot -seed 1 -seconds 30 -trace 0
//	benchmark -workload fleet_mixed -trace 1
//	benchmark -aa 5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "serve_hot, sweep_cold, scan_ob or fleet_mixed")
	seed := flag.Int64("seed", 1, "seed of the dataset and the op list")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	aa := flag.Int("aa", 0, "run two interleaved sets of this many runs per workload and compare them")
	flag.Parse()

	// One client and two cores at most: the load this process generates
	// must be a shape the machine can express.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	if err := run(*name, *seed, *seconds, *trace != 0, *aa, procs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, aa, procs int) error {
	// Run from the root of a checkout, the manifest is there to be held
	// to; a copy of the program run elsewhere has none.
	if m, err := readManifest("BENCHMARK.json"); err == nil {
		if err := m.agrees(); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if aa > 0 {
		return runAA(aa, seed)
	}
	w, err := workloadNamed(name)
	if err != nil {
		return err
	}
	ctx := context.Background()
	p, err := newPlan(w, seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  |D|=%d |S|=%d  GOMAXPROCS=%d  one closed-loop client\n",
		w.name, seed, w.params.objects, w.params.states, procs)
	fmt.Printf("inputs %s  (chain, objects, ops)  image %d bytes\n", p.print, len(p.in.image))

	var res result
	if trace {
		res, err = traced(ctx, p, seconds)
	} else {
		res, err = untraced(ctx, p, seconds)
	}
	if err != nil {
		return err
	}
	if err := emit(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("benchmark: %d of %d ops failed", res.Failed, res.Attempted)
	}
	return nil
}

// untraced is the measuring run: the end-to-end metrics.
func untraced(ctx context.Context, p *plan, seconds float64) (result, error) {
	p.release()
	st, err := measure(ctx, p, seconds, nil)
	if err != nil {
		return result{}, err
	}
	if err := p.validate(st); err != nil {
		return result{}, err
	}
	metrics, diagnostics, err := endToEnd(p, st)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%d rounds of %d slices in %.1f s; %d ops attempted, %d failed\n",
		st.rounds, len(p.round), st.elapsed.Seconds(), st.attempted, st.failed)
	if st.firstFail != nil {
		fmt.Printf("first failure: %v\n", st.firstFail)
	}
	printRounds(os.Stdout, st)
	if err := writeSlices(traceDir, p.w.name, st); err != nil {
		return result{}, fmt.Errorf("benchmark: writing the slice file: %w", err)
	}
	printMetrics(os.Stdout, "end to end", metrics)
	printMetrics(os.Stdout, "diagnostics (not gated)", diagnostics)
	return result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: metrics}, nil
}
