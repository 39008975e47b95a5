package main

import (
	"context"
	"fmt"
	"os"
)

// perLayerNames are the per-layer metrics a traced run reports, the
// same on every workload; BENCHMARK.json lists them with their units.
var perLayerNames = []string{
	"sparse.stepback_ns_per_nnz", "sparse.step_ns_per_nnz", "sparse.vecmat_alloc_b_per_call",
	"core.evaluate_ms", "core.cache_hit_ratio", "core.sweeps_per_op", "core.refined_per_candidate",
	"core.pruned_ratio", "core.alloc_kb_per_op", "core.ingest_us",
	"agg.count_pmf_ms", "agg.factors_per_op",
	"spatial.resolve_us", "spatial.states_per_region",
	"query.parse_us",
	"wire.encode_request_us", "wire.decode_request_us", "wire.encode_response_us_per_result",
	"wire.decode_response_us_per_result", "wire.response_bytes_per_result", "wire.factors_bytes_per_op",
	"service.self_us", "service.coalesced_ratio", "service.rejected_total", "service.observe_us",
	"http.query_self_us", "http.stream_us_per_result", "http.stream_to_query_ratio", "http.server_mean_ms",
	"shard.fanout_self_us", "shard.merge_us_per_result",
	"dist.hop_self_us", "dist.observe_us", "dist.sweep_lease_adopted_ratio", "dist.import_ms",
	"store.load_ms", "store.load_mapped_ms", "store.save_ms", "store.image_bytes_per_object", "store.load_alloc_mb",
	"noise.slice_spread_rel", "trace.overhead_rel", "ladder.coverage_rel",
}

// traceDir is where span files go, relative to the directory the
// benchmark is started from: the root of the repository.
const traceDir = "benchmark/out"

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced is the traced run. It measures the workload without and with
// spans, in alternating rounds, for the tracing overhead and the span
// table; climbs the ladder for about seconds; and probes each layer on
// its own.
func traced(ctx context.Context, p *plan, seconds float64) (result, error) {
	const rounds = 2
	tr := newTracer()
	plain, st := newRunStats(), newRunStats()
	for round := 0; round < rounds; round++ {
		if err := plain.oneRound(ctx, p, round, nil); err != nil {
			return result{}, err
		}
		if err := st.oneRound(ctx, p, round, tr); err != nil {
			return result{}, err
		}
	}
	plain.rounds, st.rounds = rounds, rounds
	if err := p.validate(st); err != nil {
		return result{}, err
	}
	path, err := tr.write(traceDir, p.w.name)
	if err != nil {
		return result{}, fmt.Errorf("benchmark: writing the span file: %w", err)
	}
	fmt.Printf("traced %d rounds, %d ops, %d failed; spans in %s\n", st.rounds, st.attempted, st.failed, path)
	if st.firstFail != nil {
		fmt.Printf("first failure: %v\n", st.firstFail)
	}
	printLayerTable(os.Stdout, tr.spans)

	l := newLadder(p)
	if err := l.climb(ctx, p, seconds); err != nil {
		return result{}, err
	}
	l.print(os.Stdout)

	// The deployments the probes run on, side by side: nothing here is
	// set against the workload's own times.
	opts := p.w.options
	var standing [4]deployment
	for i, build := range []func() (deployment, error){
		func() (deployment, error) { return engineDeployment(p.in, opts, p.in.resolver(), nil) },
		func() (deployment, error) { return serviceDeployment(p.in, opts) },
		func() (deployment, error) { return clientDeployment(p.in, opts, nil) },
		func() (deployment, error) { return distDeployment(p.in, opts) },
	} {
		d, err := build()
		if err != nil {
			return result{}, err
		}
		defer d.close()
		standing[i] = d
	}
	engineD, serviceD, clientD, distD := standing[0], standing[1], standing[2], standing[3]
	engineT := engineD.target.(*evalTarget)

	out := map[string]metric{}
	wireUs, err := probeWire(ctx, p, engineT, out)
	if err != nil {
		return result{}, err
	}
	engine, shardR, distR := l.rung("engine"), l.rung("shard"), l.rung("dist")
	out["core.evaluate_ms"] = metric{engine.opUs / 1e3, "ms"}
	out["core.alloc_kb_per_op"] = metric{float64(engine.st.allocated) / 1024 / float64(engine.st.timedOps), "KiB"}
	out["service.self_us"] = metric{l.self("service"), "us"}
	out["http.query_self_us"] = metric{l.self("client") - wireUs, "us"}
	out["shard.fanout_self_us"] = metric{l.self("shard"), "us"}
	out["dist.hop_self_us"] = metric{l.self("dist"), "us"}
	// What shipping the objects to the workers adds to a set-up.
	out["dist.import_ms"] = metric{1e3 * (distR.st.setupSeconds() - shardR.st.setupSeconds()), "ms"}
	// What two shards cost over one engine over a pass, per result
	// returned.
	out["shard.merge_us_per_result"] = metric{ratio(
		1e6*(estimateOf(shardR.st.samples, p.w.exponent).passSeconds-estimateOf(engine.st.samples, p.w.exponent).passSeconds),
		float64(engine.st.results)/float64(l.passes)), "us"}
	out["dist.sweep_lease_adopted_ratio"] = metric{ratio(float64(distR.leases.Served), float64(distR.leases.Served+distR.leases.Leases)), "ratio"}
	stats := l.rung("service").stats
	out["service.coalesced_ratio"] = metric{ratio(float64(stats.Coalesced), float64(stats.Requests)), "ratio"}
	out["service.rejected_total"] = metric{float64(stats.Rejected), "count"}

	// What the traced workload itself saw of the engine.
	out["core.cache_hit_ratio"] = metric{ratio(float64(st.hits), float64(st.hits+st.misses)), "ratio"}
	out["core.sweeps_per_op"] = metric{ratio(float64(st.sweeps), float64(st.reads)), "count"}
	out["core.refined_per_candidate"] = metric{ratio(float64(st.refined), float64(st.candidates)), "ratio"}
	out["core.pruned_ratio"] = metric{ratio(float64(st.pruned), float64(st.candidates)), "ratio"}

	// The rung that is the workload's own deployment, set against the
	// same slices inside the workload's plain rounds: how much of an op's
	// time the ladder's self times add up to.
	ops := 0
	for _, slice := range p.round[:p.distinct] {
		ops += len(slice)
	}
	measured := 1e6 * estimateOf(plain.samples, p.w.exponent).passSeconds / float64(ops)
	coverage := l.own.opUs / measured
	out["ladder.coverage_rel"] = metric{coverage, "ratio"}
	fmt.Printf("ladder top rung (%s) %.1f us per op; the same slices in the workload's plain rounds %.1f us; coverage %.2f\n",
		l.own.name, l.own.opUs, measured, coverage)
	if coverage < 0.85 || coverage > 1.15 {
		fmt.Println("the ladder is off the workload by more than 15 %: its self times do not explain this run")
	}

	for _, probe := range []func() error{
		func() error { return probeSparse(p, out) },
		func() error { return probeAgg(ctx, p, engineT, out) },
		func() error { return probeSpatialAndQuery(p, out) },
		func() error { return probeStore(p, out) },
		func() error { return probeHTTP(ctx, p, clientD.target.(*clientTarget), out) },
		func() error { return probeIngest(ctx, p, engineD, serviceD, distD, out) },
	} {
		if err := probe(); err != nil {
			return result{}, err
		}
	}

	// Traced and plain rounds alternate, so all their slices are set
	// against one another.
	wall := func(st *runStats) float64 {
		sum := 0.0
		for _, s := range st.samples {
			sum += s.wall
		}
		return sum
	}
	out["trace.overhead_rel"] = metric{wall(st)/wall(plain) - 1, "ratio"}
	out["noise.slice_spread_rel"] = metric{estimateOf(st.samples, p.w.exponent).spread, "ratio"}

	metrics := map[string]metric{}
	for _, name := range perLayerNames {
		m, ok := out[name]
		if !ok {
			return result{}, fmt.Errorf("benchmark: the traced run did not produce %s", name)
		}
		metrics[name] = m
	}
	printMetrics(os.Stdout, "per layer", metrics)
	printMetrics(os.Stdout, "op classes of the traced workload (not gated)", classMedians(st))

	attempted, failures := plain.attempted+st.attempted, plain.failed+st.failed
	for _, r := range l.rungs {
		attempted += r.st.attempted
		failures += r.st.failed
	}
	return result{Correct: failures == 0, Attempted: attempted, Failed: failures, Metrics: metrics}, nil
}
