// Command ustquery evaluates a probabilistic spatio-temporal query
// against a stored dataset (see ustgen) — either in-process through the
// unified Request/Evaluate API, or against a running ustserve with
// -remote (results are byte-identical either way; the request travels
// in its canonical text form, package ust/query).
//
// Usage:
//
//	ustquery -db data.ustd -states 100-120 -times 20-25
//	         [-predicate exists|forall|ktimes|eventually]
//	         [-strategy auto|qb|ob|mc] [-workers N]
//	         [-threshold P] [-top N] [-stream] [-json]
//	         [-no-cache] [-no-filter]
//	ustquery -db data.ustd -q 'exists(states(100-120) @ [20,25]) and
//	         not forall(states(7) @ [5,9]) where tau=0.3'
//	ustquery -remote http://localhost:8080 -dataset fleet
//	         -states 100-120 -times 20-25 [same query flags]
//
// -q takes a complete query in the text query language (see
// ust/query/README.md), including compound and/or/not/then expressions
// over per-atom windows — evaluated exactly, correlations included. It
// replaces the window/predicate/tuning flags; parse errors are reported
// with a caret under the offending column.
//
// Aggregate queries — count(...) and occupancy(...) — answer with one
// distribution instead of per-object rows:
//
//	ustquery -db data.ustd -q 'count(exists(states(100-120) @ [20,25])) where min=10'
//
// prints the exact count PMF with its moments (and P(count ≥ 10)); with
// -stream the PMF arrives as NDJSON rows {"count":k,"p":…} (occupancy:
// one row per timestep), with -json as a single document.
//
// Object-based threshold and top-k queries run through the engine's
// filter–refine path (query-based answers are dot products and are not
// filtered), and repeated evaluations share backward sweeps via the
// score cache; the per-query cache/filter statistics are reported on
// stderr. -no-cache / -no-filter disable either (results are identical;
// with -strategy ob, -no-filter also runs the paper's unclipped forward
// pass, whose answers agree with the clipped ones to 1e-12).
//
// State and time ranges accept "lo-hi" intervals or comma-separated
// lists ("100-120" or "5,9,13" or a mix: "1-3,7"). -times is optional
// for -predicate eventually (the unbounded-horizon query ignores it).
// Ctrl-C cancels the evaluation cleanly mid-scan.
//
// -stream emits results one object at a time as they are produced
// (NDJSON with -json), without materializing the full result set —
// use it for scans over very large databases.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"ust/client"
	"ust/internal/core"
	"ust/internal/store"
	"ust/query"
)

func main() {
	dbPath := flag.String("db", "", "dataset file written by ustgen (required unless -remote)")
	queryText := flag.String("q", "", "complete query in the text query language (replaces -states/-times/-predicate/-strategy/... flags)")
	remote := flag.String("remote", "", "ustserve base URL; query a server instead of a local file")
	dataset := flag.String("dataset", "default", "dataset name on the server (with -remote)")
	statesArg := flag.String("states", "", "query region, e.g. 100-120 (required)")
	timesArg := flag.String("times", "", "query times, e.g. 20-25 (required unless -predicate eventually)")
	predicate := flag.String("predicate", "exists", "exists | forall | ktimes | eventually")
	strategyArg := flag.String("strategy", "qb", "auto | qb | ob | mc")
	workers := flag.Int("workers", 1, "parallel workers for ob/mc strategies (0 = GOMAXPROCS)")
	threshold := flag.Float64("threshold", 0, "only report objects with P ≥ threshold")
	top := flag.Int("top", 20, "report at most N objects: ranked in batch mode, first N in -stream mode (0 = all)")
	mcSamples := flag.Int("mc-samples", 100, "samples per object for -strategy mc")
	stream := flag.Bool("stream", false, "stream results as they are produced (unranked)")
	asJSON := flag.Bool("json", false, "emit JSON (NDJSON with -stream) instead of a table")
	noCache := flag.Bool("no-cache", false, "bypass the engine score cache")
	noFilter := flag.Bool("no-filter", false, "disable filter–refine pruning for threshold/top-k and reach-cone clipping of object-based passes")
	flag.Parse()

	if (*dbPath == "") == (*remote == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *queryText != "" {
		// -q carries the whole question; reject conflicting flag usage
		// instead of silently ignoring it.
		conflicting := map[string]bool{
			"states": true, "times": true, "predicate": true, "strategy": true,
			"workers": true, "threshold": true, "mc-samples": true,
			"no-cache": true, "no-filter": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if conflicting[f.Name] {
				fatal(fmt.Errorf("-%s conflicts with -q; put it in the query's where-clause", f.Name))
			}
		})
	} else if *statesArg == "" || (*timesArg == "" && *predicate != "eventually") {
		flag.Usage()
		os.Exit(2)
	}
	var states, times []int
	var err error
	if *queryText == "" {
		states, err = parseIntSet(*statesArg)
		if err != nil {
			fatal(fmt.Errorf("-states: %w", err))
		}
		if *timesArg != "" {
			times, err = parseIntSet(*timesArg)
			if err != nil {
				fatal(fmt.Errorf("-times: %w", err))
			}
		}
	}

	var engine *core.Engine
	if *remote == "" {
		f, ferr := os.Open(*dbPath)
		if ferr != nil {
			fatal(ferr)
		}
		db, lerr := store.LoadDatabase(f)
		f.Close()
		if lerr != nil {
			fatal(lerr)
		}
		engine = core.NewEngine(db, core.Options{})
	}

	// Ctrl-C / SIGTERM cancels the evaluation within one work item.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var req core.Request
	if *queryText != "" {
		req, err = query.Parse(*queryText)
		if err != nil {
			fatalParse(*queryText, err)
		}
	} else {
		opts := []core.RequestOption{core.WithStates(states), core.WithTimes(times)}
		switch *strategyArg {
		case "auto":
			opts = append(opts, core.WithAutoPlan())
		case "qb":
			opts = append(opts, core.WithStrategy(core.StrategyQueryBased))
		case "ob":
			opts = append(opts, core.WithStrategy(core.StrategyObjectBased))
		case "mc":
			opts = append(opts, core.WithStrategy(core.StrategyMonteCarlo), core.WithMonteCarloBudget(*mcSamples, 0))
		default:
			fatal(fmt.Errorf("unknown strategy %q", *strategyArg))
		}
		if *workers != 1 {
			opts = append(opts, core.WithParallelism(*workers))
		}
		if *threshold > 0 {
			opts = append(opts, core.WithThreshold(*threshold))
		}
		if *noCache {
			opts = append(opts, core.WithCache(false))
		}
		if *noFilter {
			opts = append(opts, core.WithFilterRefine(false))
		}
		var pred core.Predicate
		switch *predicate {
		case "exists":
			pred = core.PredicateExists
		case "forall":
			pred = core.PredicateForAll
		case "ktimes":
			pred = core.PredicateKTimes
		case "eventually":
			pred = core.PredicateEventually
		default:
			fatal(fmt.Errorf("unknown predicate %q", *predicate))
		}
		if *top > 0 && pred != core.PredicateKTimes && !*stream {
			opts = append(opts, core.WithTopK(*top))
		}
		req = core.NewRequest(pred, opts...)
	}
	pred := req.Predicate
	ranked := req.TopKHint() > 0

	// Buffered stdout: batch output flushes once at the end; -stream
	// flushes per result so a consumer at the end of a pipe sees each
	// NDJSON line as it is produced, not when the buffer happens to
	// fill.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if spec, isAgg := req.AggregateHint(); isAgg {
		// count(...)/occupancy(...) answer with one distribution, so
		// they go through the batch entry point even under -stream;
		// -stream only changes the rendering (NDJSON rows per count or
		// timestep instead of one document).
		var resp *core.Response
		if *remote != "" {
			resp, err = client.New(*remote, nil).Query(ctx, *dataset, req)
		} else {
			resp, err = engine.Evaluate(ctx, req)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ustquery: strategy %s, aggregate %s\n", resp.Strategy, spec.Kind)
		emitAggregate(out, resp.Agg, spec, *stream, *asJSON)
		return
	}

	if *stream {
		if *remote != "" {
			streamResults(out, remoteSeq(ctx, *remote, *dataset, req), pred, *top, *asJSON)
		} else {
			streamResults(out, engine.EvaluateSeq(ctx, req), pred, *top, *asJSON)
		}
		return
	}

	var resp *core.Response
	if *remote != "" {
		resp, err = client.New(*remote, nil).Query(ctx, *dataset, req)
	} else {
		resp, err = engine.Evaluate(ctx, req)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ustquery: strategy %s, %d result(s)\n", resp.Strategy, len(resp.Results))
	if resp.Cache.Hits+resp.Cache.Misses > 0 {
		fmt.Fprintf(os.Stderr, "ustquery: score cache %d hit(s), %d miss(es)\n", resp.Cache.Hits, resp.Cache.Misses)
	}
	if resp.Filter.Candidates > 0 {
		fmt.Fprintf(os.Stderr, "ustquery: filter pruned %d of %d object(s), %d refined exactly\n",
			resp.Filter.Pruned, resp.Filter.Candidates, resp.Filter.Refined)
	}
	results := resp.Results
	if !ranked && pred != core.PredicateKTimes {
		// -top 0 means "all", still reported best-first like every other
		// batch table (WithTopK already ranked the ranked case).
		sort.Slice(results, func(a, b int) bool {
			if results[a].Prob != results[b].Prob {
				return results[a].Prob > results[b].Prob
			}
			return results[a].ObjectID < results[b].ObjectID
		})
	}
	if !ranked && *top > 0 && len(results) > *top {
		results = results[:*top]
	}
	if *asJSON {
		emitJSON(out, results)
		return
	}
	if pred == core.PredicateKTimes {
		for _, r := range results {
			fmt.Fprintf(out, "object %d:\n", r.ObjectID)
			for k, p := range r.Dist {
				if p > 1e-9 {
					fmt.Fprintf(out, "  P(%d visits) = %.6f\n", k, p)
				}
			}
		}
		return
	}
	fmt.Fprintf(out, "%-10s  %s\n", "object", "probability")
	for _, r := range results {
		fmt.Fprintf(out, "%-10d  %.6f\n", r.ObjectID, r.Prob)
	}
}

// fatalParse reports a text-query syntax error with a caret under the
// offending column.
func fatalParse(q string, err error) {
	var pe *query.ParseError
	if errors.As(err, &pe) && pe.Pos <= len(q) {
		fmt.Fprint(os.Stderr, caretError(q, pe))
		os.Exit(2)
	}
	fatal(err)
}

// caretError renders a parse error with the query echoed and a caret
// under the offending column.
func caretError(q string, pe *query.ParseError) string {
	return fmt.Sprintf("ustquery: parse error at column %d: %s\n  %s\n  %s^\n",
		pe.Pos+1, pe.Msg, q, strings.Repeat(" ", pe.Pos))
}

// errStopStream signals an early consumer stop through the remote
// stream callback.
var errStopStream = fmt.Errorf("stop")

// remoteSeq adapts the client's callback streaming to the same result
// sequence the local EvaluateSeq yields.
func remoteSeq(ctx context.Context, remote, dataset string, req core.Request) func(yield func(core.Result, error) bool) {
	return func(yield func(core.Result, error) bool) {
		cl := client.New(remote, nil)
		err := cl.QueryStream(ctx, dataset, req, func(r core.Result) error {
			if !yield(r, nil) {
				return errStopStream
			}
			return nil
		})
		if err != nil && err != errStopStream {
			yield(core.Result{}, err)
		}
	}
}

// streamResults drains a result sequence (local EvaluateSeq or a remote
// NDJSON stream), printing each result as it is produced: NDJSON with
// -json, the plain table otherwise. Every result is flushed through the
// buffered writer immediately, so a pipe consumer (jq, a dashboard
// tailer) sees lines as they are computed — stdout being a pipe rather
// than a terminal must not batch them up. top > 0 caps the output at
// the first N results in evaluation order (streaming cannot rank).
func streamResults(out *bufio.Writer, results func(yield func(core.Result, error) bool), pred core.Predicate, top int, asJSON bool) {
	enc := json.NewEncoder(out)
	if !asJSON && pred != core.PredicateKTimes {
		fmt.Fprintf(out, "%-10s  %s\n", "object", "probability")
	}
	n := 0
	for r, err := range results {
		if err != nil {
			out.Flush()
			fatal(err)
		}
		if top > 0 && n == top {
			fmt.Fprintf(os.Stderr, "ustquery: stopped after %d result(s); -top 0 streams all\n", top)
			break
		}
		n++
		switch {
		case asJSON:
			if err := enc.Encode(r); err != nil {
				fatal(err)
			}
		case pred == core.PredicateKTimes:
			fmt.Fprintf(out, "object %d:\n", r.ObjectID)
			for k, p := range r.Dist {
				if p > 1e-9 {
					fmt.Fprintf(out, "  P(%d visits) = %.6f\n", k, p)
				}
			}
		default:
			fmt.Fprintf(out, "%-10d  %.6f\n", r.ObjectID, r.Prob)
		}
		if err := out.Flush(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "ustquery: streamed %d result(s)\n", n)
}

// emitAggregate renders an aggregate answer. -stream emits one NDJSON
// row per PMF entry ({"count":k,"p":…}) or occupancy timestep; -json
// emits the aggregate as a single document; the default is a table with
// the moments summarized first.
func emitAggregate(out *bufio.Writer, a *core.AggResult, spec core.AggSpec, stream, asJSON bool) {
	if a == nil {
		fatal(fmt.Errorf("aggregate request returned no aggregate"))
	}
	if stream {
		enc := json.NewEncoder(out)
		if a.Kind == core.AggOccupancy {
			for _, pt := range a.Profile {
				row := struct {
					Time     int     `json:"time"`
					Mean     float64 `json:"mean"`
					Variance float64 `json:"variance"`
					Tail     float64 `json:"tail,omitempty"`
				}{pt.Time, pt.Mean, pt.Variance, pt.Tail}
				if err := enc.Encode(row); err != nil {
					fatal(err)
				}
				out.Flush()
			}
			fmt.Fprintf(os.Stderr, "ustquery: streamed %d timestep(s)\n", len(a.Profile))
			return
		}
		for k, p := range a.PMF {
			row := struct {
				Count int     `json:"count"`
				P     float64 `json:"p"`
			}{k, p}
			if err := enc.Encode(row); err != nil {
				fatal(err)
			}
			out.Flush()
		}
		fmt.Fprintf(os.Stderr, "ustquery: streamed %d count(s)\n", len(a.PMF))
		return
	}
	if asJSON {
		emitJSON(out, a)
		return
	}
	if a.Kind == core.AggOccupancy {
		fmt.Fprintf(out, "%-8s  %-12s  %-12s", "time", "mean", "variance")
		if spec.MinCount > 0 {
			fmt.Fprintf(out, "  P(count>=%d)", spec.MinCount)
		}
		fmt.Fprintln(out)
		for _, pt := range a.Profile {
			fmt.Fprintf(out, "%-8d  %-12.6f  %-12.6f", pt.Time, pt.Mean, pt.Variance)
			if spec.MinCount > 0 {
				fmt.Fprintf(out, "  %.6f", pt.Tail)
			}
			fmt.Fprintln(out)
		}
		return
	}
	fmt.Fprintf(out, "E[count] = %.6f  Var = %.6f  mode = %d\n", a.Mean, a.Variance, a.ModeCount)
	if spec.MinCount > 0 {
		fmt.Fprintf(out, "P(count >= %d) = %.6f\n", spec.MinCount, a.Tail)
	}
	fmt.Fprintf(out, "%-8s  %s\n", "count", "probability")
	for k, p := range a.PMF {
		if p > 1e-9 {
			fmt.Fprintf(out, "%-8d  %.6f\n", k, p)
		}
	}
}

func emitJSON(out *bufio.Writer, v any) {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// parseIntSet parses "1-3,7,10-12" into an id list.
func parseIntSet(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(strings.TrimSpace(lo))
			if err != nil {
				return nil, fmt.Errorf("bad interval %q", part)
			}
			b, err := strconv.Atoi(strings.TrimSpace(hi))
			if err != nil {
				return nil, fmt.Errorf("bad interval %q", part)
			}
			if b < a {
				return nil, fmt.Errorf("inverted interval %q", part)
			}
			for v := a; v <= b; v++ {
				out = append(out, v)
			}
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty set")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ustquery:", err)
	os.Exit(1)
}
