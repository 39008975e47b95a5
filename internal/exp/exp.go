// Package exp is the experiment harness: it regenerates every figure of
// the paper's evaluation (Section VIII) as a table of measurements, at
// configurable scale. cmd/ustbench is its CLI and its only caller: the
// root bench_test.go's BenchmarkFig* series builds its own figure
// workloads rather than running these experiments. ROADMAP item 10
// plans one driver for both.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleTiny sizes experiments for unit tests: everything finishes in
	// well under a second.
	ScaleTiny Scale = iota
	// ScaleSmall is the default: minutes for the full suite, preserving
	// every qualitative shape of the paper's figures.
	ScaleSmall
	// ScalePaper uses the paper's dataset sizes (|S| up to 100,000,
	// road networks at full size). Expect long runs.
	ScalePaper
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return ScaleTiny, nil
	case "small", "default", "":
		return ScaleSmall, nil
	case "paper", "full":
		return ScalePaper, nil
	default:
		return 0, fmt.Errorf("exp: unknown scale %q (tiny|small|paper)", s)
	}
}

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Config parameterizes a harness run.
type Config struct {
	Scale Scale
	Seed  int64
}

// Row is one x-position of a figure with one measured value per series.
type Row struct {
	X      float64
	Values []float64
}

// Report is the regenerated form of one paper figure: a titled table
// with one column per series (e.g. MC/OB/QB runtimes).
type Report struct {
	ID      string // e.g. "fig8a"
	Title   string
	XLabel  string
	Series  []string // column names
	Rows    []Row
	Notes   []string
	Elapsed time.Duration
}

// AddRow appends a measurement row; values must match Series in length.
func (r *Report) AddRow(x float64, values ...float64) {
	if len(values) != len(r.Series) {
		panic(fmt.Sprintf("exp: row with %d values for %d series", len(values), len(r.Series)))
	}
	r.Rows = append(r.Rows, Row{X: x, Values: values})
}

// Render writes an aligned text table.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s (elapsed %s)\n", r.ID, r.Title, r.Elapsed.Round(time.Millisecond)); err != nil {
		return err
	}
	headers := append([]string{r.XLabel}, r.Series...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(headers))
		cells[ri][0] = formatNum(row.X)
		for ci, v := range row.Values {
			cells[ri][ci+1] = formatNum(v)
		}
		for ci, c := range cells[ri] {
			if len(c) > widths[ci] {
				widths[ci] = len(c)
			}
		}
	}
	line := func(fields []string) string {
		parts := make([]string, len(fields))
		for i, f := range fields {
			parts[i] = fmt.Sprintf("%*s", widths[i], f)
		}
		return "  " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(headers)); err != nil {
		return err
	}
	for _, row := range cells {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values with a header line.
func (r *Report) CSV(w io.Writer) error {
	headers := append([]string{r.XLabel}, r.Series...)
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for _, row := range r.Rows {
		fields := make([]string, 0, len(headers))
		fields = append(fields, formatNum(row.X))
		for _, v := range row.Values {
			fields = append(fields, formatNum(v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(fields, ",")); err != nil {
			return err
		}
	}
	return nil
}

func formatNum(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v != 0 && (v < 1e-3 || v >= 1e6):
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.6g", v)
	}
}

// Experiment is a runnable paper figure. Run honors ctx cancellation:
// a cancelled context aborts the measurement loops within one work
// item and surfaces ctx.Err().
type Experiment struct {
	ID          string
	Description string
	Run         func(context.Context, Config) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(id)]
	return e, ok
}

// All returns every registered experiment, ordered by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// timeIt measures the wall-clock seconds taken by fn.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
