# CI entry points. `make ci` is what the pipeline runs; the individual
# targets are for local iteration.

GO ?= go

# Coverage floor for `make cover`: fail the build when total statement
# coverage drops below this (baseline at the time the gate landed was
# 74.8%; keep a small buffer for flaky branches).
COVER_FLOOR ?= 73.0

.PHONY: ci fmt-check vet staticcheck build test race flake-check examples benchmark-check serve-smoke dist-smoke load-smoke fuzz-smoke bench alloc-gate cover loc clean

# cover runs the full (shuffled) suite with a coverage profile, so ci
# does not also run the plain `test` target — that would execute the
# identical suite twice. `race` is a separate instrumented build.
ci: fmt-check vet staticcheck build cover race flake-check examples benchmark-check alloc-gate serve-smoke dist-smoke load-smoke

# staticcheck runs when the binary is available (CI installs it; local
# boxes without it skip with a notice instead of failing the build).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# fuzz-smoke gives every fuzz target a short budget: parser (text query
# language), wire request codec (the same language), the wire result
# decoders (response and factor set, stream line and update — each
# differential against encoding/json), sparse builder/CSR invariants and
# the VecMat/MatVec/CopyFrom kernels against their naive references,
# shard hash ring (determinism / balance / minimal movement), store image,
# chain, import-frame and observation-frame decoders (each input also
# re-sealed with a valid footer, so the section parser is reached),
# sweep-tier payload decoder, one lane-kernel step against a dense
# Gustavson step (bit-identical lanes, an exact live set, zeros off it),
# the query-based sweeps against their dense references and
# possible-worlds enumeration,
# batch evaluation against sequential evaluation (byte-identical results),
# the scan's filter gate against the ungated scan, and the object-based
# forward passes (exists, forall, ktimes, expressions, multi-observation)
# against the materialized chains and possible-worlds enumeration, with
# every clipped exists/forall pass bit-identical to the unclipped one,
# and the engine's multi-observation exists and forall against the
# two-lane pass called directly (bit for bit, whether the envelope gate
# answered or the pass ran) and the possible worlds, its posterior
# against enumerated worlds too.
# CI runs it after make ci.
fuzz-smoke:
	$(GO) test ./query -run '^$$' -fuzz FuzzParseQuery -fuzztime 20s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 20s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeResponse -fuzztime 15s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeStreamLine -fuzztime 15s
	$(GO) test ./internal/sparse -run '^$$' -fuzz FuzzBuilderCSR -fuzztime 15s
	$(GO) test ./internal/sparse -run '^$$' -fuzz FuzzFromRows -fuzztime 10s
	$(GO) test ./internal/sparse -run '^$$' -fuzz FuzzVecMat -fuzztime 15s
	$(GO) test ./internal/shard -run '^$$' -fuzz FuzzRing -fuzztime 15s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeStoreV2 -fuzztime 15s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeObjectFrame -fuzztime 15s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeObservationFrame -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDecodeSweepValue -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLaneStep -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzQBSweeps -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzEvaluateBatch -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzFilterRefine -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzOBPasses -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzMultiObs -fuzztime 15s

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-parent) execution order so
# inter-test state dependencies cannot hide; failures print the seed to
# reproduce.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# flake-check runs the count aggregate's factor/stream pin 300 times
# (about 2 s). Its quick.Check draws fresh random instances on every
# run, so a defect that breaks the last bit of 3 % of instances passes
# a single shuffled run 97 % of the time; 300 runs catch it.
flake-check:
	$(GO) test ./internal/core -run '^TestExpectedCountAggPin$$' -count=300

# cover runs the (shuffled) suite with statement coverage and fails
# below COVER_FLOOR, so the conformance/shard suites' coverage is
# tracked commit over commit instead of silently eroding. Test output
# is kept and replayed on failure — it carries the failing test and the
# shuffle seed needed to reproduce.
cover:
	@$(GO) test -shuffle=on -coverprofile=.cover.out ./... > .cover.log 2>&1 || \
		{ cat .cover.log; rm -f .cover.out .cover.log; exit 1; }
	@rm -f .cover.log
	@total=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	rm -f .cover.out; \
	echo "coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Compile-check every example binary without running it.
examples:
	@for d in examples/*/; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null "./$$d" || exit 1; \
	done

# benchmark-check vets and tests the repo benchmark (BENCHMARK.json,
# benchmark/): a module of its own, so the root ./... patterns above do
# not reach it.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# serve-smoke exercises the HTTP serving stack for real: generate a
# dataset, start ustserve, query it remotely (ustquery -remote must
# match in-process output byte for byte), run a curl query + subscribe
# round-trip, scrape /metrics, and shut down gracefully.
serve-smoke:
	GO="$(GO)" ./scripts/serve_smoke.sh

# dist-smoke stands up a real multi-process deployment — two worker
# ustserve processes and a coordinator fronting them — and diffs remote
# queries (including a count aggregate) byte-for-byte against
# in-process evaluation, checks /readyz and role metrics, kills a
# worker, and shuts the fleet down gracefully.
dist-smoke:
	GO="$(GO)" ./scripts/dist_smoke.sh

# load-smoke runs the open-loop traffic harness (cmd/ustload) briefly
# against every deployment shape — in-process, in-process -shards 4,
# and a real ustserve -shards 4 over HTTP — then checks the
# BENCH_LOAD.json artifact, the `ustload analyze` round-trip, the
# `benchjson -load` gate, and the server's per-endpoint latency
# histograms.
load-smoke:
	GO="$(GO)" ./scripts/load_smoke.sh

# bench writes BENCH.json (machine-readable, via cmd/benchjson) while
# echoing the usual human-readable lines, so the perf trajectory is
# trackable commit over commit. Two-step through a temp file so a
# benchmark failure fails the target (a pipe would mask go test's exit).
bench:
	@$(GO) test -bench=. -benchtime=20x -benchmem -run '^$$' -json . ./internal/core ./internal/store > .bench.jsonl || { cat .bench.jsonl; rm -f .bench.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o BENCH.json < .bench.jsonl
	@rm -f .bench.jsonl

# alloc-gate re-runs the ingest benchmark, the object-based scan
# benchmark, the HTTP serving benchmark, the fleet write benchmark, the
# client write benchmark, the mapped store load and the store writers
# (database image and write frame) and fails ci when their allocs/op
# regress more than 20% past the BENCH.json baseline — the single-copy
# WithObservation ingest path, the pooled, clone-free forward pass, the
# append-encoded, single-pass result codec, the coordinator's write path
# (catalogue, no shadow database), the client's observation frames (no
# JSON text per write), loaded pdfs that view the image's columns and
# images appended into one presized buffer stay cheap by construction,
# not by convention. The ingest path, the write paths, the load and the
# store writers are gated on B/op too, where an object-sized copy per
# write, a pdf travelling as text, an |S|-wide array per loaded pdf or a
# re-grown image buffer shows, and so are the query-based sweeps, where a per-sweep |S|×K block or a
# per-chain table of M^j·1 vectors would show; the sweeps are gated on
# allocs/op too, so their lane block cannot start allocating per step,
# and the batched evaluation on B/op, where an unpooled fused block
# shows. The three
# consumers of the one exact scan loop — top-k, threshold and the count
# aggregate — are gated on allocs/op, so the loop cannot start
# allocating per object. The multi-observation exists and posterior
# passes are gated on allocs/op and B/op, so their pooled lane blocks
# cannot start allocating per object either, and so is the road-network
# lane benchmark on allocs/op, where a pass on a chain without id
# locality would show it. The engine-level multi-observation benchmark
# is gated on allocs/op, where a two-lane pass for every object whose
# first fix misses the window, instead of the envelope gate's one check
# per object version, would show.
# Missing baseline entries (fresh checkout, renamed benchmark) pass with
# a notice.
alloc-gate:
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkIngest' -benchmem -benchtime=100x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkIngest < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkIngest/columnar -gate-metric B/op < .gate.jsonl
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkScanOB' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkScanOB < .gate.jsonl
	@$(GO) test . -run '^$$' -bench 'BenchmarkServeHTTPQuery' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkServeHTTPQuery < .gate.jsonl
	@$(GO) test . -run '^$$' -bench 'BenchmarkDistributedObserve' -benchmem -benchtime=200x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkDistributedObserve < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkDistributedObserve -gate-metric B/op < .gate.jsonl
	@$(GO) test . -run '^$$' -bench 'BenchmarkClientObserve' -benchmem -benchtime=50x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkClientObserve < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkClientObserve -gate-metric B/op < .gate.jsonl
	@$(GO) test ./internal/store -run '^$$' -bench 'BenchmarkLoadDatabase/v2-mapped$$' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkLoadDatabase/v2-mapped < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkLoadDatabase/v2-mapped -gate-metric B/op < .gate.jsonl
	@$(GO) test ./internal/store -run '^$$' -bench 'BenchmarkSaveDatabase|BenchmarkEncodeFrame' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkSaveDatabase/v2 < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkSaveDatabase/v2 -gate-metric B/op < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkEncodeFrame < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkEncodeFrame -gate-metric B/op < .gate.jsonl
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkQBSweep' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkQBSweep < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkQBSweep -gate-metric B/op < .gate.jsonl
	@$(GO) test . -run '^$$' -bench 'BenchmarkEvaluateBatch/batched$$' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkEvaluateBatch/batched -gate-metric B/op < .gate.jsonl
	@$(GO) test . -run '^$$' -bench 'BenchmarkFilterRefine|BenchmarkAggregateCount/engine$$' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkFilterRefineTopK < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkFilterRefineThreshold < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkAggregateCount/engine < .gate.jsonl
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkMultiObs(Exists|Posterior)/columnar$$' -benchmem -benchtime=200x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkMultiObsExists/columnar < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkMultiObsExists/columnar -gate-metric B/op < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkMultiObsPosterior/columnar < .gate.jsonl
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkMultiObsPosterior/columnar -gate-metric B/op < .gate.jsonl
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkMunichLanes' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkMunichLanes < .gate.jsonl
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkMultiObsEvaluate' -benchmem -benchtime=20x -json > .gate.jsonl || { cat .gate.jsonl; rm -f .gate.jsonl; exit 1; }
	@$(GO) run ./cmd/benchjson -o '' -baseline BENCH.json -gate BenchmarkMultiObsEvaluate < .gate.jsonl
	@rm -f .gate.jsonl

# loc prints the non-test Go lines per package directory and the total
# (benchmark/ excluded): the figure north star 2's deletions are counted
# in. `make loc BASE=<ref>` adds the count at that git ref and the delta.
loc:
	@./scripts/loc.sh $(BASE)

clean:
	$(GO) clean ./...
