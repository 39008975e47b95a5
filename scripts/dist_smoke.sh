#!/bin/sh
# Distributed smoke: a real multi-process deployment — two worker
# ustserve processes plus a coordinator fronting them — queried remotely
# and diffed byte-for-byte against in-process evaluation, including a
# count aggregate (factors pooled over the wire, folded coordinator-
# side). Also checks /readyz gating, the ust_role / ust_ring_members
# metrics, that writes through the coordinator stay under a per-write
# byte budget on the workers' import counters, that killing a worker
# yields a clean error (not a hang), and a graceful fleet shutdown. A
# second phase starts a replicated fleet (3 workers, -replicas 2),
# checks every worker is some shard's primary, kills a worker mid-run,
# and requires queries to KEEP succeeding byte-identically — the first
# one through a read failover — while ust_worker_healthy flips, and
# writes after the kill to succeed while ust_shard_stale_replicas
# reports the dead worker's copies.
# `make dist-smoke` runs this; CI runs it via `make ci`.
set -eu

GO=${GO:-go}
W0_PORT=${W0_PORT:-7271}
W1_PORT=${W1_PORT:-7272}
CO_PORT=${CO_PORT:-7273}
R0_PORT=${R0_PORT:-7274}
R1_PORT=${R1_PORT:-7275}
R2_PORT=${R2_PORT:-7276}
RC_PORT=${RC_PORT:-7277}
TMP=$(mktemp -d)
W0_PID=""; W1_PID=""; CO_PID=""
R0_PID=""; R1_PID=""; R2_PID=""; RC_PID=""
cleanup() {
    for pid in "$W0_PID" "$W1_PID" "$CO_PID" "$R0_PID" "$R1_PID" "$R2_PID" "$RC_PID"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "dist-smoke: building"
$GO build -o "$TMP/ustgen" ./cmd/ustgen
$GO build -o "$TMP/ustserve" ./cmd/ustserve
$GO build -o "$TMP/ustquery" ./cmd/ustquery

echo "dist-smoke: generating dataset"
"$TMP/ustgen" -o "$TMP/smoke.ust" -objects 200 -states 2000 -seed 7 >/dev/null

CO_BASE="http://127.0.0.1:$CO_PORT"
W0_BASE="http://127.0.0.1:$W0_PORT"
W1_BASE="http://127.0.0.1:$W1_PORT"

# wait_ready BASE LOG PID: poll /readyz until 200.
wait_ready() {
    i=0
    until curl -fsS "$1/readyz" >/dev/null 2>&1; do
        i=$((i+1))
        if [ "$i" -gt 100 ]; then
            echo "dist-smoke: $1 never became ready"; cat "$2"; exit 1
        fi
        kill -0 "$3" 2>/dev/null || { echo "dist-smoke: process behind $1 died"; cat "$2"; exit 1; }
        sleep 0.2
    done
}

echo "dist-smoke: starting 2 workers (joined to the coordinator's sweep tier)"
# Workers hold the data slices; -sweep-tier points at the coordinator so
# the fleet computes each distinct backward sweep once. The tier
# degrades gracefully while the coordinator is still coming up.
"$TMP/ustserve" -addr "127.0.0.1:$W0_PORT" -sweep-tier "$CO_BASE" 2>"$TMP/w0.log" &
W0_PID=$!
"$TMP/ustserve" -addr "127.0.0.1:$W1_PORT" -sweep-tier "$CO_BASE" 2>"$TMP/w1.log" &
W1_PID=$!
wait_ready "$W0_BASE" "$TMP/w0.log" "$W0_PID"
wait_ready "$W1_BASE" "$TMP/w1.log" "$W1_PID"

echo "dist-smoke: starting the coordinator (loads the dataset, migrates slices to workers)"
"$TMP/ustserve" -addr "127.0.0.1:$CO_PORT" -coordinator \
    -worker "$W0_BASE" -worker "$W1_BASE" \
    -dataset smoke="$TMP/smoke.ust" 2>"$TMP/co.log" &
CO_PID=$!
wait_ready "$CO_BASE" "$TMP/co.log" "$CO_PID"

echo "dist-smoke: workers received their slices"
curl -fsS "$W0_BASE/v1/datasets" | grep -q '"smoke.shard0"'
curl -fsS "$W1_BASE/v1/datasets" | grep -q '"smoke.shard1"'

echo "dist-smoke: remote ustquery through the coordinator matches in-process"
"$TMP/ustquery" -remote "$CO_BASE" -dataset smoke -states 100-140 -times 10-14 -top 5 >"$TMP/remote.out"
grep -q "object" "$TMP/remote.out"
"$TMP/ustquery" -db "$TMP/smoke.ust" -states 100-140 -times 10-14 -top 5 >"$TMP/local.out"
diff "$TMP/remote.out" "$TMP/local.out"

echo "dist-smoke: compound text query end-to-end"
TQ='exists(states(100-140) @ [10,14]) and not forall(states(100-140) @ [10,12]) where top=5'
"$TMP/ustquery" -db "$TMP/smoke.ust" -q "$TQ" >"$TMP/text-local.out"
"$TMP/ustquery" -remote "$CO_BASE" -dataset smoke -q "$TQ" >"$TMP/text-remote.out"
diff "$TMP/text-local.out" "$TMP/text-remote.out"

echo "dist-smoke: count(...) aggregate — factors pooled from workers, folded coordinator-side"
AQ='count(exists(states(100-140) @ [10,14])) where min=3'
"$TMP/ustquery" -db "$TMP/smoke.ust" -q "$AQ" >"$TMP/agg-local.out"
grep -q 'E\[count\]' "$TMP/agg-local.out"
"$TMP/ustquery" -remote "$CO_BASE" -dataset smoke -q "$AQ" >"$TMP/agg-remote.out"
diff "$TMP/agg-local.out" "$TMP/agg-remote.out"

echo "dist-smoke: roles and ring size in /metrics"
curl -fsS "$CO_BASE/metrics" >"$TMP/co-metrics.out"
grep -q 'ust_role{role="coordinator"} 1' "$TMP/co-metrics.out"
grep -q 'ust_ring_members 2' "$TMP/co-metrics.out"
curl -fsS "$W0_BASE/metrics" | grep -q 'ust_role{role="worker"} 1'

echo "dist-smoke: the sweep tier was really used — a second process adopted a sweep over HTTP"
# Both workers answered slices of the same queries above, so each distinct
# sweep was leased by one of them and served to the other.
for m in ust_sweep_board_leases_total ust_sweep_board_served_total; do
    n=$(awk -v m="$m" '$1 == m {print $2}' "$TMP/co-metrics.out")
    [ "${n:-0}" -ge 1 ] || { echo "dist-smoke: $m = ${n:-missing}, want >= 1"; exit 1; }
done

echo "dist-smoke: ingest through the coordinator ships objects, not the chain"
# Every write reaches its worker as an import frame that names the chain
# by fingerprint. The workers' own counters must show it: the bytes the
# writes below add stay under a per-write budget that the 2000-state
# chain (~170 KB encoded) would blow through many times over.
WRITES=8
WRITE_BUDGET=4096
import_total() {
    b0=$(curl -fsS "$W0_BASE/metrics" | awk -v m="$1" '$1 == m {print $2}')
    b1=$(curl -fsS "$W1_BASE/metrics" | awk -v m="$1" '$1 == m {print $2}')
    echo $((b0 + b1))
}
BYTES_BEFORE=$(import_total ust_import_bytes_total)
OBJS_BEFORE=$(import_total ust_import_objects_total)
w=0
while [ "$w" -lt "$WRITES" ]; do
    curl -fsS -X POST "$CO_BASE/v1/datasets/smoke/observe" \
        -d "{\"object\": $((w * 7)), \"time\": 40, \"states\": [$((100 + w)), $((900 + w))], \"probs\": [0.5, 0.5]}" >/dev/null
    w=$((w+1))
done
BYTES=$(( $(import_total ust_import_bytes_total) - BYTES_BEFORE ))
OBJS=$(( $(import_total ust_import_objects_total) - OBJS_BEFORE ))
if [ "$OBJS" -ne "$WRITES" ]; then
    echo "dist-smoke: $WRITES writes imported $OBJS objects on the workers"; exit 1
fi
if [ "$BYTES" -le 0 ] || [ "$BYTES" -gt $((WRITES * WRITE_BUDGET)) ]; then
    echo "dist-smoke: $WRITES writes shipped $BYTES bytes, budget $WRITE_BUDGET per write"; exit 1
fi
curl -fsS "$W0_BASE/metrics" | grep -q '^ust_import_duration_seconds_count '
curl -fsS "$CO_BASE/metrics" | grep -q 'ust_shard_import_failures_total{dataset="smoke",shard="0"} 0'

echo "dist-smoke: killing worker 1 — queries fail cleanly, the fleet stays up"
kill -9 "$W1_PID"; W1_PID=""
RC=0
"$TMP/ustquery" -remote "$CO_BASE" -dataset smoke -states 100-140 -times 10-14 -top 5 \
    >"$TMP/degraded.out" 2>&1 || RC=$?
if [ "$RC" -eq 0 ]; then
    echo "dist-smoke: query over a dead worker unexpectedly succeeded"; exit 1
fi
# The coordinator itself survives and still answers liveness/readiness.
curl -fsS "$CO_BASE/healthz" >/dev/null
curl -fsS "$CO_BASE/readyz" >/dev/null

echo "dist-smoke: graceful fleet shutdown"
for pair in "CO:$CO_PID" "W0:$W0_PID"; do
    pid=${pair#*:}
    kill -TERM "$pid"
done
for pair in "co:$CO_PID:$TMP/co.log" "w0:$W0_PID:$TMP/w0.log"; do
    name=$(echo "$pair" | cut -d: -f2)
    log=$(echo "$pair" | cut -d: -f3-)
    i=0
    while kill -0 "$name" 2>/dev/null; do
        i=$((i+1)); [ "$i" -gt 50 ] && { echo "dist-smoke: process ignored SIGTERM"; exit 1; }
        sleep 0.2
    done
    wait "$name" 2>/dev/null && RC=0 || RC=$?
    if [ "$RC" -ne 0 ]; then
        echo "dist-smoke: process exited with $RC"; cat "$log"; exit 1
    fi
    grep -q "bye" "$log"
done
CO_PID=""; W0_PID=""

# ---------------------------------------------------------------------
# Phase 2: replicated fleet. 3 workers, -replicas 2 — every shard lives
# on two workers, so killing ONE worker mid-run must cost nothing:
# queries keep succeeding, results stay byte-identical to in-process
# evaluation, and the coordinator's health probe flips
# ust_worker_healthy for the victim.
# ---------------------------------------------------------------------
R0_BASE="http://127.0.0.1:$R0_PORT"
R1_BASE="http://127.0.0.1:$R1_PORT"
R2_BASE="http://127.0.0.1:$R2_PORT"
RC_BASE="http://127.0.0.1:$RC_PORT"

echo "dist-smoke: starting replicated fleet (3 workers, replicas=2)"
"$TMP/ustserve" -addr "127.0.0.1:$R0_PORT" 2>"$TMP/r0.log" &
R0_PID=$!
"$TMP/ustserve" -addr "127.0.0.1:$R1_PORT" 2>"$TMP/r1.log" &
R1_PID=$!
"$TMP/ustserve" -addr "127.0.0.1:$R2_PORT" 2>"$TMP/r2.log" &
R2_PID=$!
wait_ready "$R0_BASE" "$TMP/r0.log" "$R0_PID"
wait_ready "$R1_BASE" "$TMP/r1.log" "$R1_PID"
wait_ready "$R2_BASE" "$TMP/r2.log" "$R2_PID"

"$TMP/ustserve" -addr "127.0.0.1:$RC_PORT" -coordinator -replicas 2 \
    -probe-interval 100ms \
    -worker "$R0_BASE" -worker "$R1_BASE" -worker "$R2_BASE" \
    -dataset smoke="$TMP/smoke.ust" 2>"$TMP/rc.log" &
RC_PID=$!
wait_ready "$RC_BASE" "$TMP/rc.log" "$RC_PID"

echo "dist-smoke: all workers report healthy"
i=0
until curl -fsS "$RC_BASE/metrics" | grep -c 'ust_worker_healthy{worker="[^"]*"} 1' | grep -qx 3; do
    i=$((i+1)); [ "$i" -gt 50 ] && { echo "dist-smoke: workers never all healthy"; cat "$TMP/rc.log"; exit 1; }
    sleep 0.2
done

echo "dist-smoke: replicated fleet matches in-process before the kill"
"$TMP/ustquery" -remote "$RC_BASE" -dataset smoke -states 100-140 -times 10-14 -top 5 >"$TMP/rep-before.out"
diff "$TMP/rep-before.out" "$TMP/local.out"

# reads BASE: the evaluations a worker has served (ust_requests_total).
reads() {
    curl -fsS "$1/metrics" | awk '$1 == "ust_requests_total" {print $2}'
}
echo "dist-smoke: every worker is a shard's primary — each served a read"
# Replica j of shard l lives on worker (l+j) mod 3, so the query above
# reached all three workers, one shard each.
for base in "$R0_BASE" "$R1_BASE" "$R2_BASE"; do
    n=$(reads "$base")
    [ "${n:-0}" -ge 1 ] || { echo "dist-smoke: $base served ${n:-no} reads, want >= 1"; exit 1; }
done

echo "dist-smoke: killing a replica-holding worker — queries must KEEP succeeding"
kill -9 "$R2_PID"; R2_PID=""
R0_BEFORE=$(reads "$R0_BASE")
"$TMP/ustquery" -remote "$RC_BASE" -dataset smoke -states 100-140 -times 10-14 -top 5 >"$TMP/rep-after.out"
diff "$TMP/rep-after.out" "$TMP/local.out"
# R0 answers its own shard 0 and shard 2, whose primary (R2) just died:
# the query crossed a read failover.
R0_READS=$(( $(reads "$R0_BASE") - R0_BEFORE ))
if [ "$R0_READS" -ne 2 ]; then
    echo "dist-smoke: R0 served $R0_READS reads for one query after the kill, want 2 (own shard + failover)"; exit 1
fi
"$TMP/ustquery" -remote "$RC_BASE" -dataset smoke -q "$TQ" >"$TMP/rep-text.out"
diff "$TMP/rep-text.out" "$TMP/text-local.out"
"$TMP/ustquery" -remote "$RC_BASE" -dataset smoke -q "$AQ" >"$TMP/rep-agg.out"
diff "$TMP/rep-agg.out" "$TMP/agg-local.out"

echo "dist-smoke: health probe flips ust_worker_healthy for the victim"
i=0
until curl -fsS "$RC_BASE/metrics" | grep -q "ust_worker_healthy{worker=\"$R2_BASE\"} 0"; do
    i=$((i+1)); [ "$i" -gt 50 ] && { echo "dist-smoke: probe never declared the victim dead"; curl -fsS "$RC_BASE/metrics" | grep ust_worker_healthy; exit 1; }
    sleep 0.2
done
curl -fsS "$RC_BASE/metrics" | grep -q "ust_worker_healthy{worker=\"$R0_BASE\"} 1"

echo "dist-smoke: queries still succeed after the probe declared the death"
"$TMP/ustquery" -remote "$RC_BASE" -dataset smoke -states 100-140 -times 10-14 -top 5 >"$TMP/rep-dead.out"
diff "$TMP/rep-dead.out" "$TMP/local.out"

echo "dist-smoke: writes after the kill succeed and report the victim's replicas stale"
# Shard 0 lives on R0 and R1; shards 1 and 2 each keep one replica on the
# dead R2, which misses these writes and is never read again.
w=0
while [ "$w" -lt 8 ]; do
    curl -fsS -X POST "$RC_BASE/v1/datasets/smoke/observe" \
        -d "{\"object\": $((w * 7)), \"time\": 40, \"states\": [$((100 + w)), $((900 + w))], \"probs\": [0.5, 0.5]}" >/dev/null
    w=$((w+1))
done
curl -fsS "$RC_BASE/metrics" >"$TMP/rc-metrics.out"
grep -q 'ust_shard_stale_replicas{dataset="smoke",shard="0"} 0' "$TMP/rc-metrics.out"
grep -q 'ust_shard_stale_replicas{dataset="smoke",shard="[12]"} 1' "$TMP/rc-metrics.out" ||
    { echo "dist-smoke: no stale replica reported"; grep ust_shard_ "$TMP/rc-metrics.out"; exit 1; }

for pid in "$RC_PID" "$R0_PID" "$R1_PID"; do
    kill -TERM "$pid" 2>/dev/null || true
done
RC_PID=""; R0_PID=""; R1_PID=""
echo "dist-smoke: OK"
