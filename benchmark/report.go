package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends its standard output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sampleFloor is how many samples must lie beyond a reported percentile.
const sampleFloor = 10

// endToEnd turns a run's samples into the seven end-to-end metrics,
// and the diagnostics printed beside them.
func endToEnd(p *plan, st *runStats) (metrics, diagnostics map[string]metric, err error) {
	e := estimateOf(st.samples, p.w.exponent)
	ops := 0.0
	for _, slice := range p.round[:p.distinct] {
		ops += float64(len(slice))
	}
	p50, err := percentile(e.latencies, 0.50, sampleFloor)
	if err != nil {
		return nil, nil, fmt.Errorf("benchmark: latency_p50_ms: %w", err)
	}
	p90, err := percentile(e.latencies, 0.90, sampleFloor)
	if err != nil {
		return nil, nil, fmt.Errorf("benchmark: latency_p90_ms: %w", err)
	}
	metrics = map[string]metric{
		"setup_s":          {st.setupSeconds(), "s"},
		"throughput_ops_s": {ops / e.passSeconds, "ops/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p90_ms":   {p90, "ms"},
		"cpu_ms_per_op":    {1e3 * e.cpuSeconds / ops, "ms"},
		"alloc_kb_per_op":  {float64(st.allocated) / 1024 / float64(st.timedOps), "KiB"},
		"rss_mb":           {median(st.rss), "MiB"},
	}
	// A run is disturbed when the machine spent it far from the
	// reference reading: its times were restated over a long distance.
	disturbed := 0.0
	if e.sensorMs > 1.5*sensorRefMs || e.sensorMs < sensorRefMs/1.5 {
		disturbed = 1
	}
	diagnostics = map[string]metric{
		"noise.slice_spread_rel": {e.spread, "ratio"},
		"noise.sensor_ms":        {e.sensorMs, "ms"},
		"noise.disturbed":        {disturbed, "bool"},
		"latency.samples":        {float64(len(e.latencies)), "count"},
	}
	if p99, perr := percentile(e.latencies, 0.99, sampleFloor); perr == nil {
		diagnostics["tail.latency_p99_ms"] = metric{p99, "ms"}
	}
	for name, m := range classMedians(st) {
		diagnostics[name] = m
	}
	return metrics, diagnostics, nil
}

// classMedians is the median latency of every op class over all timed
// ops of a run.
func classMedians(st *runStats) map[string]metric {
	out := map[string]metric{}
	for class, lat := range st.classLat {
		sorted := append([]float64(nil), lat...)
		sort.Float64s(sorted)
		out["class."+class+".p50_ms"] = metric{sorted[(len(sorted)-1)/2], "ms"}
	}
	return out
}

// printRounds prints what every round measured, one line each: what a
// run that calls itself disturbed was disturbed by.
func printRounds(w io.Writer, st *runStats) {
	// cpu/wall falls when the process is kept off its cores, which the
	// sensor, a single thread, does not see.
	fmt.Fprintln(w, "round  set-up (s)  slices (s)  cpu/wall  sensor (ms)  peak rss (MiB)")
	for r := 0; r < st.rounds; r++ {
		wall, cpu, readings := 0.0, 0.0, []float64(nil)
		for _, s := range st.samples {
			if s.round == r {
				wall += s.wall
				cpu += s.cpu
				readings = append(readings, s.sensorMs)
			}
		}
		fmt.Fprintf(w, "%5d  %10.4f  %10.4f  %8.3f  %11.2f  %14.1f\n", r, st.setups[r].seconds, wall, cpu/wall, median(readings), st.rss[r])
	}
}

// writeSlices stores every timed slice of a measuring run beside the
// span files: what a disturbed run looked like from the inside, and what
// a workload's exponent is fitted on.
func writeSlices(dir, workload string, st *runStats) error {
	type slice struct {
		Round    int       `json:"round"`
		Pos      int       `json:"pos"`
		Wall     float64   `json:"wall_s"`
		CPU      float64   `json:"cpu_s"`
		SensorMs float64   `json:"sensor_ms"`
		Lat      []float64 `json:"latency_ms"`
	}
	out := make([]slice, len(st.samples))
	for i, s := range st.samples {
		out[i] = slice{s.round, s.pos, s.wall, s.cpu, s.sensorMs, s.lat}
	}
	type setup struct {
		Seconds  float64 `json:"s"`
		SensorMs float64 `json:"sensor_ms"`
	}
	setups := make([]setup, len(st.setups))
	for i, s := range st.setups {
		setups[i] = setup{s.seconds, s.sensorMs}
	}
	data, err := json.Marshal(struct {
		Setups []setup   `json:"setups"`
		RSS    []float64 `json:"rss_mib"`
		Slices []slice   `json:"slices"`
	}{setups, st.rss, out})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "slices-"+workload+".json"), data, 0o644)
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// emit prints the result as the last line of standard output.
func emit(w io.Writer, r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
