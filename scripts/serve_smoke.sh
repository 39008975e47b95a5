#!/bin/sh
# Server smoke: generate a dataset, start ustserve, run a remote query
# (ustquery -remote), a curl query + subscribe round-trip, check
# /metrics, then shut down gracefully via SIGTERM and assert a clean
# exit. `make serve-smoke` runs this; CI runs it after `make ci`.
set -eu

GO=${GO:-go}
PORT=${PORT:-7177}
TMP=$(mktemp -d)
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building"
$GO build -o "$TMP/ustgen" ./cmd/ustgen
$GO build -o "$TMP/ustserve" ./cmd/ustserve
$GO build -o "$TMP/ustquery" ./cmd/ustquery

echo "serve-smoke: generating dataset"
"$TMP/ustgen" -o "$TMP/smoke.ust" -objects 200 -states 2000 -seed 7 >/dev/null

# -shards 4: the server runs the consistent-hash shard router, so every
# remote≡local diff below doubles as an end-to-end conformance check of
# sharded evaluation against the single-engine ustquery output.
"$TMP/ustserve" -addr "127.0.0.1:$PORT" -shards 4 -dataset smoke="$TMP/smoke.ust" 2>"$TMP/server.log" &
SRV_PID=$!
BASE="http://127.0.0.1:$PORT"

echo "serve-smoke: waiting for /healthz"
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i+1))
    if [ "$i" -gt 50 ]; then
        echo "serve-smoke: server never became healthy"; cat "$TMP/server.log"; exit 1
    fi
    kill -0 "$SRV_PID" 2>/dev/null || { echo "serve-smoke: server died"; cat "$TMP/server.log"; exit 1; }
    sleep 0.2
done

echo "serve-smoke: remote query via ustquery"
"$TMP/ustquery" -remote "$BASE" -dataset smoke -states 100-140 -times 10-14 -top 5 >"$TMP/remote.out"
grep -q "object" "$TMP/remote.out"

echo "serve-smoke: remote ustquery matches in-process ustquery"
"$TMP/ustquery" -db "$TMP/smoke.ust" -states 100-140 -times 10-14 -top 5 >"$TMP/local.out"
diff "$TMP/remote.out" "$TMP/local.out"

echo "serve-smoke: curl query"
curl -fsS "$BASE/v1/query" -d '{"dataset":"smoke","query":"exists(states(100,120,140) @ [10,14]) where top=3"}' \
    | grep -q '"strategy":"qb"'

echo "serve-smoke: the same text query end-to-end (-q local, -q remote, curl)"
TQ='exists(states(100-140) @ [10,14]) and not forall(states(100-140) @ [10,12]) where top=5'
"$TMP/ustquery" -db "$TMP/smoke.ust" -q "$TQ" >"$TMP/text-local.out"
"$TMP/ustquery" -remote "$BASE" -dataset smoke -q "$TQ" >"$TMP/text-remote.out"
diff "$TMP/text-local.out" "$TMP/text-remote.out"
curl -fsS "$BASE/v1/query" -d "{\"dataset\":\"smoke\",\"query\":\"$TQ\"}" | grep -q '"results"'

echo "serve-smoke: count(...) aggregate end-to-end (local = sharded remote = curl)"
AQ='count(exists(states(100-140) @ [10,14])) where min=3'
"$TMP/ustquery" -db "$TMP/smoke.ust" -q "$AQ" >"$TMP/agg-local.out"
grep -q 'E\[count\]' "$TMP/agg-local.out"
# The remote side answers through the 4-shard router: a byte-identical
# diff here is the live proof that pooled factors re-folded through the
# canonical tree reproduce the single-engine PMF exactly.
"$TMP/ustquery" -remote "$BASE" -dataset smoke -q "$AQ" >"$TMP/agg-remote.out"
diff "$TMP/agg-local.out" "$TMP/agg-remote.out"
curl -fsS "$BASE/v1/query" -d "{\"dataset\":\"smoke\",\"query\":\"$AQ\"}" | grep -q '"pmf"'
# The NDJSON stream endpoint answers an aggregate as one agg line + done.
curl -fsS "$BASE/v1/query/stream" -d "{\"dataset\":\"smoke\",\"query\":\"$AQ\"}" \
    | head -n 1 | grep -q '"agg"'

echo "serve-smoke: -q parse errors carry a caret"
if "$TMP/ustquery" -db "$TMP/smoke.ust" -q 'exsts(states(1) @ [1,2])' >/dev/null 2>"$TMP/parse-err.out"; then
    echo "serve-smoke: bad -q query was accepted"; exit 1
fi
grep -q '\^' "$TMP/parse-err.out"

echo "serve-smoke: subscribe round-trip (snapshot line + pushed update)"
curl -fsSN --no-buffer "$BASE/v1/subscribe" \
    -d '{"dataset":"smoke","query":"exists(states(100,120,140) @ [10,14])"}' \
    >"$TMP/sub.out" &
SUB_PID=$!
i=0
until [ -s "$TMP/sub.out" ]; do
    i=$((i+1)); [ "$i" -gt 50 ] && { echo "serve-smoke: no subscription snapshot"; exit 1; }
    sleep 0.2
done
grep -q '"full":true' "$TMP/sub.out"
# Track a brand-new object sitting inside the watched region: the
# standing query must push an incremental update containing it.
curl -fsS "$BASE/v1/datasets/smoke/objects" \
    -d '{"id":9999,"observations":[{"time":9,"states":[120],"probs":[1]}]}' >/dev/null
i=0
until [ "$(wc -l < "$TMP/sub.out")" -ge 2 ]; do
    i=$((i+1)); [ "$i" -gt 50 ] && { echo "serve-smoke: no pushed update after ingest"; cat "$TMP/sub.out"; exit 1; }
    sleep 0.2
done
if grep -q '"error"' "$TMP/sub.out"; then
    echo "serve-smoke: subscription errored"; cat "$TMP/sub.out"; exit 1
fi
grep -q '"object":9999' "$TMP/sub.out"
kill "$SUB_PID" 2>/dev/null || true

echo "serve-smoke: upload a v2 dataset via PUT /v1/datasets and query it"
# ustgen writes store format v2, the only database format the store
# writes; the server adopts the columns zero-copy via LoadDatabaseMapped,
# so this exercises the mapped load path end-to-end over HTTP.
"$TMP/ustgen" -o "$TMP/upload.ust" -objects 100 -states 1000 -seed 11 >/dev/null
head -c 8 "$TMP/upload.ust" | od -An -tx1 | grep -q '55 53 54 44 02 00 00 00' # "USTD" v2 magic
curl -fsS -X PUT "$BASE/v1/datasets/uploaded" --data-binary @"$TMP/upload.ust" >/dev/null
curl -fsS "$BASE/v1/datasets" | grep -q '"uploaded"'
"$TMP/ustquery" -remote "$BASE" -dataset uploaded -states 50-80 -times 3-6 -top 5 >"$TMP/upload-remote.out"
"$TMP/ustquery" -db "$TMP/upload.ust" -states 50-80 -times 3-6 -top 5 >"$TMP/upload-local.out"
diff "$TMP/upload-remote.out" "$TMP/upload-local.out"

echo "serve-smoke: metrics"
curl -fsS "$BASE/metrics" >"$TMP/metrics.out"
grep -q "ust_requests_total" "$TMP/metrics.out"
grep -q "ust_singleflight_coalesced_total" "$TMP/metrics.out"
grep -q 'ust_dataset_objects{dataset="smoke"} 201' "$TMP/metrics.out"

echo "serve-smoke: graceful shutdown"
kill -TERM "$SRV_PID"
i=0
while kill -0 "$SRV_PID" 2>/dev/null; do
    i=$((i+1)); [ "$i" -gt 50 ] && { echo "serve-smoke: server ignored SIGTERM"; exit 1; }
    sleep 0.2
done
wait "$SRV_PID" 2>/dev/null && RC=0 || RC=$?
if [ "$RC" -ne 0 ]; then
    echo "serve-smoke: server exited with $RC"; cat "$TMP/server.log"; exit 1
fi
grep -q "bye" "$TMP/server.log"
SRV_PID=""
echo "serve-smoke: OK"
