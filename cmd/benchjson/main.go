// Command benchjson converts a `go test -json -bench` event stream
// (stdin) into a machine-readable benchmark summary (BENCH.json), so the
// performance trajectory of the engine can be tracked across commits.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchtime=1x -json . | benchjson -o BENCH.json
//
// Benchmark output lines are echoed to stderr as they arrive, so the
// human-readable stream is preserved. The JSON artifact is an array of
//
//	{"name": ..., "package": ..., "iterations": N, "ns_per_op": ...,
//	 "metrics": {"B/op": ..., "allocs/op": ..., ...}}
//
// entries, one per benchmark result.
//
// With -baseline and -gate, benchjson doubles as a regression gate:
//
//	go test -run '^$' -bench 'BenchmarkIngest' -benchmem -benchtime=100x -json ./internal/core |
//	    benchjson -o '' -baseline BENCH.json -gate BenchmarkIngest
//
// compares the gated benchmarks' allocs/op (see -gate-metric) against
// the matching entries of the baseline summary and exits nonzero when a
// result regresses past -tolerance. A missing baseline file, baseline
// entry or gated benchmark is a notice, not a failure, so the gate is
// safe on fresh checkouts. -o ” suppresses the summary artifact (a
// gate run is usually a narrow benchmark selection that should not
// clobber the full BENCH.json).
//
// With -load, results come from a BENCH_LOAD.json report (cmd/ustload)
// instead of stdin — each workload class at each offered rate becomes a
// pseudo-benchmark named Load/<class>@<rate> carrying p50/p99/p999
// latency metrics, so the same gate machinery covers latency under
// load:
//
//	benchjson -load BENCH_LOAD.new.json -o '' \
//	    -baseline BENCH_LOAD.json -gate Load -gate-metric p99_ms
//
// The -baseline for a -load gate may be either a prior benchjson
// summary or a raw BENCH_LOAD.json report (auto-detected).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"ust/internal/load"
)

// testEvent is the subset of the `go test -json` event schema we need.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkFoo/sub-8   	     123	   4567 ns/op	  89 B/op	  2 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// procsSuffix is the -GOMAXPROCS suffix `go test` appends to benchmark
// names when GOMAXPROCS > 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// gateKey identifies a result across runs: package and name, a
// benchmark's without its -GOMAXPROCS suffix — the gated allocation
// counts do not depend on it, and a baseline recorded on a one-CPU box
// carries none.
func gateKey(r Result) string {
	name := r.Name
	if strings.HasPrefix(name, "Benchmark") {
		name = procsSuffix.ReplaceAllString(name, "")
	}
	return r.Package + " " + name
}

func main() {
	out := flag.String("o", "BENCH.json", "output path for the JSON summary ('' = don't write)")
	baseline := flag.String("baseline", "", "prior summary to gate against")
	gate := flag.String("gate", "", "benchmark name (prefix) whose results must not regress vs -baseline")
	gateMetric := flag.String("gate-metric", "allocs/op", "metric compared by the gate")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional regression before the gate fails")
	loadPath := flag.String("load", "", "read results from a BENCH_LOAD.json report (cmd/ustload) instead of stdin")
	flag.Parse()

	var results []Result
	if *loadPath != "" {
		r, err := load.ReadReport(*loadPath)
		if err != nil {
			fatal(err)
		}
		results = loadResults(r)
	} else {
		results = stdinResults()
	}

	sort.Slice(results, func(a, b int) bool {
		if results[a].Package != results[b].Package {
			return results[a].Package < results[b].Package
		}
		return results[a].Name < results[b].Name
	})
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d result(s) to %s\n", len(results), *out)
	}
	if *gate != "" {
		if err := runGate(results, *baseline, *gate, *gateMetric, *tolerance); err != nil {
			fatal(err)
		}
	}
}

// stdinResults parses a `go test -json -bench` event stream from stdin.
func stdinResults() []Result {
	var results []Result
	// `go test -json` emits output in fragments (a benchmark's name and
	// its measurements arrive as separate events), so reassemble full
	// lines per package before parsing.
	partial := map[string]string{}
	flush := func(pkg, frag string) {
		buf := partial[pkg] + frag
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			line := buf[:nl]
			buf = buf[nl+1:]
			if strings.HasPrefix(line, "Benchmark") || strings.HasPrefix(line, "ok ") ||
				strings.HasPrefix(line, "PASS") || strings.HasPrefix(line, "FAIL") ||
				strings.HasPrefix(line, "--- ") {
				fmt.Fprintln(os.Stderr, line)
			}
			if r, ok := parseBench(line, pkg); ok {
				results = append(results, r)
			}
		}
		partial[pkg] = buf
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			// Tolerate plain-text lines (the stream may be piped through
			// other tools); try to parse them directly.
			ev = testEvent{Action: "output", Output: sc.Text() + "\n"}
		}
		if ev.Action != "output" {
			continue
		}
		flush(ev.Package, ev.Output)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	for pkg, rest := range partial {
		if rest != "" {
			flush(pkg, "\n")
		}
	}
	return results
}

// loadResults converts a BENCH_LOAD.json report into pseudo-benchmark
// results so the existing gate machinery applies to latency under load:
// one result per (class, offered rate), metrics carrying the quantiles.
// The schema version is baked into the package key: a v1 baseline and a
// v2 candidate then share no keys, so the gate reports "no baseline
// entry" instead of silently comparing quantiles whose semantics
// changed between versions.
func loadResults(r *load.Report) []Result {
	var out []Result
	for _, s := range r.Steps {
		classes := make([]string, 0, len(s.Classes))
		for c := range s.Classes {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			cs := s.Classes[c]
			out = append(out, Result{
				Name:       fmt.Sprintf("Load/%s@%g", c, s.OfferedRate),
				Package:    fmt.Sprintf("ust/internal/load/v%d", r.Version),
				Iterations: int64(cs.Count),
				NsPerOp:    cs.MeanMs * 1e6,
				Metrics: map[string]float64{
					"p50_ms":           cs.P50Ms,
					"p90_ms":           cs.P90Ms,
					"p99_ms":           cs.P99Ms,
					"p999_ms":          cs.P999Ms,
					"max_ms":           cs.MaxMs,
					"intended_p99_ms":  cs.IntendedP99Ms,
					"intended_p999_ms": cs.IntendedP999Ms,
					"overloaded":       float64(cs.Overloaded),
					"dropped":          float64(cs.Dropped),
				},
			})
		}
	}
	return out
}

// gated reports whether a result name belongs to the gated benchmark:
// the name itself, a sub-benchmark, or either with a -GOMAXPROCS
// suffix.
func gated(name, gate string) bool {
	if !strings.HasPrefix(name, gate) {
		return false
	}
	rest := name[len(gate):]
	return rest == "" || rest[0] == '/' || rest[0] == '-'
}

// runGate compares the gated results' metric against the baseline
// summary. Missing pieces (no baseline file, no baseline entry, no
// gated result, no metric) produce notices and pass; a metric exceeding
// baseline·(1+tolerance) fails.
func runGate(results []Result, baselinePath, gate, metric string, tolerance float64) error {
	if baselinePath == "" {
		return fmt.Errorf("-gate requires -baseline")
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchjson: gate skipped: baseline %s does not exist\n", baselinePath)
			return nil
		}
		return err
	}
	var base []Result
	if err := json.Unmarshal(raw, &base); err != nil {
		// Not a benchjson summary array — accept a raw BENCH_LOAD.json
		// report as the baseline for -load gates.
		var lr load.Report
		if lerr := json.Unmarshal(raw, &lr); lerr != nil || len(lr.Steps) == 0 {
			return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
		}
		base = loadResults(&lr)
	}
	byKey := map[string]Result{}
	for _, r := range base {
		byKey[gateKey(r)] = r
	}

	checked := 0
	var failures []string
	for _, r := range results {
		if !gated(r.Name, gate) {
			continue
		}
		got, ok := r.Metrics[metric]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: gate notice: %s has no %q metric (run with -benchmem?)\n", r.Name, metric)
			continue
		}
		b, ok := byKey[gateKey(r)]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: gate notice: %s not in baseline, skipped\n", r.Name)
			continue
		}
		want, ok := b.Metrics[metric]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: gate notice: baseline %s has no %q metric, skipped\n", r.Name, metric)
			continue
		}
		checked++
		limit := want * (1 + tolerance)
		if got > limit {
			failures = append(failures,
				fmt.Sprintf("%s: %s %.6g exceeds baseline %.6g by more than %.0f%%",
					r.Name, metric, got, want, tolerance*100))
			continue
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate ok: %s %s %.6g (baseline %.6g, limit %.6g)\n",
			r.Name, metric, got, want, limit)
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate notice: no %s results compared (benchmark or baseline missing)\n", gate)
	}
	return nil
}

// parseBench parses one benchmark result line into a Result.
func parseBench(line, pkg string) (Result, bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: m[1], Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
	// The tail is whitespace-separated (value, unit) pairs.
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
		} else {
			r.Metrics[unit] = v
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return r, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
