package main

import (
	"context"
	"errors"
	"math"
	"os"
	"testing"
)

// Half of the slices run 1.5 times slower, as they do when a neighbour
// takes the machine, and the sensor reads 2.25 times its reference
// while they do: at exponent 0.5 the estimate must still be the clean
// value. A quarter of the clean slices are hit by a spike the sensor
// does not see; the median must not follow them.
func TestEstimateIsStatedAtTheReferenceReading(t *testing.T) {
	const clean = 0.400
	var samples []sliceSample
	for i := 0; i < 24; i++ {
		wall := clean * (1 + 0.01*float64(i%5)/5) // up to 1 % of jitter
		reading := sensorRefMs
		switch {
		case i%2 == 1:
			wall *= 1.5
			reading *= 2.25
		case i%8 == 0:
			wall *= 3
		}
		samples = append(samples, sliceSample{round: i, pos: 0, wall: wall, cpu: wall, sensorMs: reading, lat: []float64{1e3 * wall}})
	}
	e := estimateOf(samples, 0.5)
	if rel := math.Abs(e.passSeconds-clean) / clean; rel > 0.02 {
		t.Fatalf("estimate %.4f s is %.1f %% off the clean %.3f s", e.passSeconds, 100*rel, clean)
	}
	if rel := math.Abs(e.cpuSeconds-clean) / clean; rel > 0.02 {
		t.Fatalf("CPU estimate %.4f s is %.1f %% off the clean %.3f s", e.cpuSeconds, 100*rel, clean)
	}
	if raw := estimateOf(samples, 0).passSeconds; math.Abs(raw-clean)/clean < 0.1 {
		t.Fatalf("without the sensor the estimate %.4f s should have been pulled up by the slow half", raw)
	}
	if got := atReference(3, 4*sensorRefMs, 0.5); got != 1.5 {
		t.Fatalf("3 s at four times the reference reading, exponent 0.5: got %g s, want 1.5", got)
	}
	if got := median([]float64{5, 1, 4, 2, 3, 60}); got != 3.5 {
		t.Fatalf("median of six values: got %g, want 3.5", got)
	}
}

// Where writes accumulate, slice p of a round is slower than slice p-1
// by construction: only slices at the same position are compared.
func TestPoolsKeepSlicePositionsApart(t *testing.T) {
	var samples []sliceSample
	for round := 0; round < 6; round++ {
		for pos := 0; pos < 3; pos++ {
			samples = append(samples, sliceSample{round: round, pos: pos, wall: float64(1 + pos), cpu: 1, sensorMs: sensorRefMs, lat: []float64{1}})
		}
	}
	pools := poolsOf(samples)
	if len(pools) != 3 {
		t.Fatalf("got %d pools, want one per position", len(pools))
	}
	for p, pool := range pools {
		if len(pool) != 6 {
			t.Fatalf("pool %d has %d slices, want 6", p, len(pool))
		}
		for _, s := range pool {
			if s.pos != p {
				t.Fatalf("pool %d holds a slice of position %d", p, s.pos)
			}
		}
	}
	// One slice of every position: 1 + 2 + 3 seconds.
	if e := estimateOf(samples, 1); e.passSeconds != 6 {
		t.Fatalf("per-position estimate sums to %g s, want 6", e.passSeconds)
	}
}

func TestPercentileRefusedBelowItsFloor(t *testing.T) {
	sorted := make([]float64, 99)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if _, err := percentile(sorted, 0.90, 10); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it and must be refused")
	}
	sorted = append(sorted, 100)
	got, err := percentile(sorted, 0.90, 10)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %g, %v; want 90", got, err)
	}
	if got, err := percentile(sorted, 0.50, 10); err != nil || got != 50 {
		t.Fatalf("p50 of 1..100 = %g, %v; want 50", got, err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(vs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g", q1, q2, q3)
	}
	if got := spreadRel(vs); got != 1 {
		t.Fatalf("spread = %g, want (8.25-2.75)/5.5", got)
	}
}

// wrongTarget answers every op with the same digest.
type wrongTarget struct {
	digest uint64
	err    error
}

func (w wrongTarget) do(context.Context, *op) (answer, error) {
	return answer{digest: w.digest, results: 3}, w.err
}
func (wrongTarget) close() {}

func TestDigestMismatchIsAFailedOp(t *testing.T) {
	p := &plan{
		w:        &workload{name: "test"},
		in:       &inputs{params: t1Params{objects: 3, states: 4}},
		round:    [][]op{{{class: "exists"}, {class: "stream", kind: kindStream}}},
		distinct: 1,
		want:     [][]uint64{{42, 42}},
		known:    [][]bool{{true, true}},
	}
	ctx := context.Background()
	st := &runStats{}
	st.timed(ctx, p, wrongTarget{digest: 42}, 0, 0)
	st.timed(ctx, p, wrongTarget{digest: 42}, 0, 1)
	if st.attempted != 2 || st.failed != 0 {
		t.Fatalf("two right answers: attempted %d failed %d", st.attempted, st.failed)
	}
	st.timed(ctx, p, wrongTarget{digest: 41}, 0, 0)
	if st.failed != 1 || st.firstFail == nil {
		t.Fatalf("a wrong digest must count as a failed op: failed %d, %v", st.failed, st.firstFail)
	}
	st.timed(ctx, p, wrongTarget{digest: 42, err: errors.New("429")}, 0, 0)
	if st.failed != 2 {
		t.Fatalf("an error must count as a failed op: failed %d", st.failed)
	}
	// A scan that does not return every object fails even with the right
	// digest.
	p.in.params.objects = 4
	st.timed(ctx, p, wrongTarget{digest: 42}, 0, 1)
	if st.failed != 3 {
		t.Fatalf("a short stream must count as a failed op: failed %d", st.failed)
	}
}

func TestSpanSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Op: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http", Op: 1, Start: 10, End: 90},
		// Two workers answering in parallel: their overlap counts once.
		{ID: 3, Parent: 2, Name: "worker", Op: 1, Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "worker", Op: 1, Start: 40, End: 80},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 20, 3: 40, 4: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	_, perOp, ops := layerTable(spans)
	if ops != 1 || perOp["worker"] != 0.08 {
		t.Errorf("layer table: %d ops, worker %g us", ops, perOp["worker"])
	}
}

func TestTracerParentsSpansByLayer(t *testing.T) {
	tr := newTracer()
	if id := tr.start("op", "", "x"); id != 0 {
		t.Fatal("a tracer that is off must record nothing")
	}
	tr.enable(true)
	root := tr.start("op", "", "exists")
	srv := tr.start("server.http", "op", "")
	eng := tr.start("core.evaluate", "server.http", "")
	tr.end(eng)
	tr.end(srv)
	tr.end(root)
	next := tr.start("op", "", "topk")
	tr.end(next)
	if got := tr.spans[srv-1].Parent; got != root {
		t.Errorf("handler span's parent = %d, want the op span %d", got, root)
	}
	if got := tr.spans[eng-1].Parent; got != srv {
		t.Errorf("engine span's parent = %d, want the handler span %d", got, srv)
	}
	if tr.spans[eng-1].Op != 1 || tr.spans[next-1].Op != 2 {
		t.Errorf("op ids: %d, %d", tr.spans[eng-1].Op, tr.spans[next-1].Op)
	}
}

// The manifest at the root of the repository and the program must name
// the same workloads and metrics.
func TestManifestNamesWhatTheProgramReports(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := m.agrees(); err != nil {
		t.Error(err)
	}
	// The bounds the benchmark was defined with; a later change may
	// tighten one, not widen it.
	widest := map[string]float64{"setup_s": 0.25, "throughput_ops_s": 0.10, "latency_p50_ms": 0.10, "latency_p90_ms": 0.15,
		"cpu_ms_per_op": 0.10, "alloc_kb_per_op": 0.02, "rss_mb": 0.05}
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > widest[e.Name] {
			t.Errorf("%s: bound %g outside (0, %g]", e.Name, e.Bound, widest[e.Name])
		}
	}
}
