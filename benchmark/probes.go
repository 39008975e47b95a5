package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ust/internal/agg"
	"ust/internal/core"
	"ust/internal/sparse"
	"ust/internal/spatial"
	"ust/internal/store"
	"ust/internal/wire"
	"ust/query"
)

// Probes time the public functions of one layer at a time, from
// outside, on the workload's own chain, objects and requests. Each is
// repeated probeReps times and reported as the median, like everything
// else here.

const probeReps = 8

// totalAlloc is the number of bytes the process has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// medianTime runs f probeReps times and returns the median of its
// duration in microseconds.
func medianTime(f func() error) (float64, error) {
	times := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start))/1e3)
	}
	return median(times), nil
}

// firstRead returns the round's first plain scan, an unranked exists
// request over state ids that answers with every object: the key the
// dataset-level probes use.
func firstRead(p *plan) core.Request {
	for _, slice := range p.round[:p.distinct] {
		for _, o := range slice {
			_, ranked := o.req.ThresholdHint()
			_, aggregate := o.req.AggregateHint()
			if o.kind == kindQuery && o.req.Predicate == core.PredicateExists && len(o.req.States) > 0 &&
				!ranked && !aggregate && o.req.TopKHint() == 0 {
				return o.req
			}
		}
	}
	panic("benchmark: workload without a plain exists op")
}

// probeSparse times the two kernels every query reduces to, on the
// workload's chain: a backward sweep from the key's region and a
// forward pass from an object's pdf, per matrix entry touched.
func probeSparse(p *plan, out map[string]metric) error {
	const steps = 25
	chain := p.in.chain
	n := chain.NumStates()
	req := firstRead(p)
	kernels := []struct {
		name string
		m    *sparse.CSR
		seed func(*sparse.Vec)
		step func(dst, x *sparse.Vec)
	}{
		{"sparse.stepback_ns_per_nnz", chain.Transposed(), func(v *sparse.Vec) {
			for _, s := range req.States {
				v.Set(s, 1)
			}
		}, chain.StepBack},
		{"sparse.step_ns_per_nnz", chain.Matrix(), func(v *sparse.Vec) {
			v.CopyFrom(p.in.pdfs[0].Vec())
		}, chain.Step},
	}
	var calls int
	var allocated uint64
	for _, k := range kernels {
		touched := 0
		x, dst := sparse.NewVec(n), sparse.NewVec(n)
		run := func(count bool) {
			x.Reset()
			k.seed(x)
			for s := 0; s < steps; s++ {
				if count {
					x.Range(func(i int, _ float64) { touched += k.m.RowNNZ(i) })
				}
				dst.Reset()
				k.step(dst, x)
				x, dst = dst, x
			}
		}
		run(true)
		before := totalAlloc()
		us, _ := medianTime(func() error { run(false); return nil })
		allocated += totalAlloc() - before
		calls += probeReps * steps
		out[k.name] = metric{1e3 * us / float64(touched), "ns"}
	}
	out["sparse.vecmat_alloc_b_per_call"] = metric{float64(allocated) / float64(calls), "B"}
	return nil
}

// probeAgg times the count-distribution fold on the factors the engine
// produces for a count(...) over the key.
func probeAgg(ctx context.Context, p *plan, eng *evalTarget, out map[string]metric) error {
	req := firstRead(p).With(core.WithAggregate(countSpec()))
	fs, err := eng.ev.(*core.Engine).AggregateFactors(ctx, req)
	if err != nil {
		return err
	}
	us, err := medianTime(func() error {
		_, err := agg.CountPMF(fs.Factors)
		return err
	})
	if err != nil {
		return err
	}
	w, err := wire.FromFactorSet(fs)
	if err != nil {
		return err
	}
	enc, err := json.Marshal(w)
	if err != nil {
		return err
	}
	out["agg.count_pmf_ms"] = metric{us / 1e3, "ms"}
	out["agg.factors_per_op"] = metric{float64(len(fs.Factors)), "count"}
	out["wire.factors_bytes_per_op"] = metric{float64(len(enc)), "B"}
	return nil
}

// probeSpatialAndQuery times grounding a rectangle of the grid into
// state ids through the R-tree, and parsing the text form of the key.
func probeSpatialAndQuery(p *plan, out map[string]metric) error {
	res := p.in.resolver()
	side := float64(p.in.grid.W)
	states := 0
	us, _ := medianTime(func() error {
		states = 0
		for y := 0.0; y < 8; y++ {
			states += len(res.StatesIn(spatial.NewRect(10, y*side/8, side-10, y*side/8+2)))
		}
		return nil
	})
	out["spatial.resolve_us"] = metric{us / 8, "us"}
	out["spatial.states_per_region"] = metric{float64(states) / 8, "count"}

	req := firstRead(p)
	text, err := query.Format(req)
	if err != nil {
		return err
	}
	us, err = medianTime(func() error {
		_, err := query.Parse(text)
		return err
	})
	out["query.parse_us"] = metric{us, "us"}
	return err
}

// wireSample is how many of the round's first requests the codecs are
// timed on.
const wireSample = 40

// probeWire times the request and response codecs on the round's first
// requests and the engine's answers to them. It returns the four codec
// times summed per op, which the HTTP rung's self time leaves out.
func probeWire(ctx context.Context, p *plan, eng *evalTarget, out map[string]metric) (perOpUs float64, err error) {
	var reqs []core.Request
	var resps []*core.Response
	results := 0
	for _, slice := range p.round[:p.distinct] {
		for _, o := range slice {
			if o.kind == kindText || o.kind == kindObserve || len(reqs) == wireSample {
				continue
			}
			req := o.req
			if req.NeedsResolver() {
				req = req.AttachResolver(eng.res)
			}
			resp, err := eng.ev.Evaluate(ctx, req)
			if err != nil {
				return 0, err
			}
			reqs, resps = append(reqs, o.req), append(resps, resp)
			results += len(resp.Results)
		}
	}
	results = max(results, 1)
	encReqs := make([][]byte, len(reqs))
	encReq, err := medianTime(func() error {
		for i, r := range reqs {
			if encReqs[i], err = wire.EncodeRequest(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	decReq, err := medianTime(func() error {
		for _, b := range encReqs {
			if _, err := wire.DecodeRequest(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	encResps := make([][]byte, len(resps))
	encResp, err := medianTime(func() error {
		for i, r := range resps {
			w, err := wire.FromResponse(r)
			if err != nil {
				return err
			}
			if encResps[i], err = json.Marshal(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	decResp, err := medianTime(func() error {
		for _, b := range encResps {
			if _, err := wire.DecodeResponse(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	size := 0
	for _, b := range encResps {
		size += len(b)
	}
	n := float64(len(reqs))
	out["wire.encode_request_us"] = metric{encReq / n, "us"}
	out["wire.decode_request_us"] = metric{decReq / n, "us"}
	out["wire.encode_response_us_per_result"] = metric{encResp / float64(results), "us"}
	out["wire.decode_response_us_per_result"] = metric{decResp / float64(results), "us"}
	out["wire.response_bytes_per_result"] = metric{float64(size) / float64(results), "B"}
	return (encReq + decReq + encResp + decResp) / n, nil
}

// probeStore times the store codec on the workload's image.
func probeStore(p *plan, out map[string]metric) error {
	image := p.in.image
	load, err := medianTime(func() error {
		_, err := store.LoadDatabase(bytes.NewReader(image))
		return err
	})
	if err != nil {
		return err
	}
	before := totalAlloc()
	mapped, err := medianTime(func() error {
		_, err := p.in.load()
		return err
	})
	if err != nil {
		return err
	}
	allocated := totalAlloc() - before
	db := p.in.database()
	save, err := medianTime(func() error { return store.SaveDatabase(io.Discard, db) })
	if err != nil {
		return err
	}
	out["store.load_ms"] = metric{load / 1e3, "ms"}
	out["store.load_mapped_ms"] = metric{mapped / 1e3, "ms"}
	out["store.save_ms"] = metric{save / 1e3, "ms"}
	out["store.image_bytes_per_object"] = metric{float64(len(image)) / float64(p.in.params.objects), "B"}
	out["store.load_alloc_mb"] = metric{float64(allocated) / probeReps / (1 << 20), "MiB"}
	return nil
}

// probeIngest times one new observation at three depths: the database
// alone, the service in process, and the dist router (which ships the
// object to its worker).
func probeIngest(ctx context.Context, p *plan, engine, svc, router deployment, out map[string]metric) error {
	// The router ships the dataset to its workers on first use.
	if _, err := router.do(ctx, &p.warm[0]); err != nil {
		return fmt.Errorf("benchmark: first answer of the dist router: %w", err)
	}
	pdf := sighting(p.in.params.states, p.in.params.states/2)
	for _, s := range []struct {
		name string
		t    target
	}{{"core.ingest_us", engine}, {"service.observe_us", svc}, {"dist.observe_us", router}} {
		// Objects from the far end of the id range, at a time no workload
		// write uses.
		o := op{class: "observe", kind: kindObserve, obj: p.in.params.objects, obs: core.Observation{Time: 10 * t1Horizon, PDF: pdf}}
		us, err := medianTime(func() error {
			o.obj--
			_, err := s.t.do(ctx, &o)
			return err
		})
		if err != nil {
			return fmt.Errorf("benchmark: %s: %w", s.name, err)
		}
		out[s.name] = metric{us, "us"}
	}
	return nil
}

// probeHTTP compares a streamed scan with the same scan answered in one
// batch, over loopback HTTP, and reads the server's own view of its
// query latency from /metrics.
func probeHTTP(ctx context.Context, p *plan, t *clientTarget, out map[string]metric) error {
	scan := op{class: "scan", kind: kindQuery, req: firstRead(p)}
	stream := scan
	stream.kind = kindStream
	results := 0
	batchUs, err := medianTime(func() error { _, err := t.do(ctx, &scan); return err })
	if err != nil {
		return err
	}
	streamUs, err := medianTime(func() error {
		a, err := t.do(ctx, &stream)
		results = a.results
		return err
	})
	if err != nil {
		return err
	}
	out["http.stream_us_per_result"] = metric{streamUs / float64(max(results, 1)), "us"}
	out["http.stream_to_query_ratio"] = metric{streamUs / batchUs, "ratio"}

	text, err := t.c.Metrics(ctx)
	if err != nil {
		return err
	}
	sum, count := 0.0, 0.0
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || !strings.Contains(name, `endpoint="query"`) || !strings.Contains(name, `outcome="ok"`) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "ust_request_duration_seconds_sum"):
			sum = v
		case strings.HasPrefix(name, "ust_request_duration_seconds_count"):
			count = v
		}
	}
	if count == 0 {
		return fmt.Errorf("benchmark: /metrics has no ust_request_duration_seconds for endpoint query")
	}
	out["http.server_mean_ms"] = metric{1e3 * sum / count, "ms"}
	return nil
}
