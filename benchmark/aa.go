package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// The A/A check: two sets of runs of the same code, interleaved
// (ABAB…), each run a process of its own as the driver's runs are. A
// metric whose two medians differ by more than half its bound cannot
// carry that bound.

// manifest is the part of BENCHMARK.json the A/A check reads: run
// length, metric names, which way is better, and the bounds.
type manifest struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark: the manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	return &m, nil
}

// endToEndNames are the end-to-end metrics every measuring run reports.
var endToEndNames = []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op", "alloc_kb_per_op", "rss_mb"}

// agrees says where the manifest and the program name different
// workloads or metrics. Every run checks it: the benchmark is a module
// of its own, so the repository's tests do not.
func (m *manifest) agrees() error {
	same := func(what string, got, want []string) error {
		g, w := append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(g)
		sort.Strings(w)
		if !slices.Equal(g, w) {
			return fmt.Errorf("benchmark: %s: BENCHMARK.json has %v, the program reports %v", what, g, w)
		}
		return nil
	}
	var ws, es, ls, program []string
	for _, w := range m.Workloads {
		ws = append(ws, w.Name)
	}
	for _, e := range m.EndToEnd {
		es = append(es, e.Name)
	}
	for _, l := range m.PerLayer {
		ls = append(ls, l.Name)
	}
	for _, w := range workloads {
		program = append(program, w.name)
	}
	return errors.Join(same("workloads", ws, program), same("end-to-end metrics", es, endToEndNames), same("per-layer metrics", ls, perLayerNames))
}

// aaRow is one metric of one workload in AA.json.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	// WorseRel is how much worse set B's median is than set A's, as a
	// share of A's; negative when B is better.
	WorseRel float64 `json:"worse_rel"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within_half_bound"`
}

// child runs one measuring run in a process of its own and returns its
// result line.
func child(workload string, seed int64, seconds float64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("benchmark: run of %s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("benchmark: result line of %s: %w", workload, err)
	}
	return r, nil
}

// runAA makes its runs as long as the manifest says the driver's are.
func runAA(n int, seed int64) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	seconds := m.RunSeconds
	var rows []aaRow
	ok := true
	for _, w := range m.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			r, err := child(w.Name, seed, seconds)
			if err != nil {
				return err
			}
			if !r.Correct {
				return fmt.Errorf("benchmark: %s: %d of %d ops failed", w.Name, r.Failed, r.Attempted)
			}
			for name, v := range r.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
			fmt.Printf("%s run %d/%d (set %c) done\n", w.Name, i+1, 2*n, 'A'+rune(i%2))
		}
		for _, e := range m.EndToEnd {
			row := aaRow{Workload: w.Name, Metric: e.Name, Unit: e.Unit, A: sets[0][e.Name], B: sets[1][e.Name], Bound: e.Bound}
			if len(row.A) == 0 || len(row.B) == 0 {
				return fmt.Errorf("benchmark: %s did not report %s", w.Name, e.Name)
			}
			row.MedianA, row.MedianB = median(row.A), median(row.B)
			row.WorseRel = (row.MedianB - row.MedianA) / row.MedianA
			if e.Better == "higher" {
				row.WorseRel = -row.WorseRel
			}
			row.Within = row.WorseRel <= e.Bound/2 && -row.WorseRel <= e.Bound/2
			ok = ok && row.Within
			rows = append(rows, row)
			fmt.Printf("  %-12s %-18s A %12.6g  B %12.6g  %+7.2f %%  bound %4.1f %%  %v\n",
				w.Name, e.Name, row.MedianA, row.MedianB, 100*row.WorseRel, 100*e.Bound, row.Within)
		}
	}
	data, err := json.MarshalIndent(struct {
		Runs    int     `json:"runs_per_set"`
		Seed    int64   `json:"seed"`
		Seconds float64 `json:"seconds"`
		Rows    []aaRow `json:"rows"`
	}{n, seed, seconds, rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("benchmark/AA.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("benchmark: some metric's two medians differ by more than half its bound; see benchmark/AA.json")
	}
	return nil
}
