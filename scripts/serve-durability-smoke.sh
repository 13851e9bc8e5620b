#!/usr/bin/env bash
# chaos-serve durability smoke: start -> register -> job (with /metrics
# scrape + /events SSE stream) -> kill -> restart -> cache hit, with
# /metrics re-scraped on the recovered process. Both sides of the
# restart also check the latency histograms and the pprof debug
# listener, so the observability surface is exercised on a recovered
# process too, not just a fresh one. The job is submitted under a
# caller-chosen traceparent, and its lifecycle trace tree is asserted
# complete (request root -> queued -> run -> done, no orphan spans)
# before the restart, after the graceful restart, and after a final
# SIGKILL restart that leaves recovery nothing but the journal. The
# process killed runs -snapshot-every 1 and registers an upload first, so
# compactions run around that registration; both graphs must come back.
set -euo pipefail
BIN=${1:-./chaos-serve}
DIR=$(mktemp -d)
ADDR=127.0.0.1:18080
BASE=http://$ADDR
DEBUG_ADDR=127.0.0.1:18081
DEBUG=http://$DEBUG_ADDR

# check_observability: the latency-histogram families are present and
# internally consistent (queue-wait count matches at least one executed
# job when $1 jobs have run), and the operator listener answers a heap
# profile.
check_observability() {
  local min_jobs=$1 m
  m=$(curl -sf $BASE/metrics)
  for fam in chaos_http_request_duration_seconds chaos_job_queue_wait_seconds chaos_job_wall_seconds; do
    grep -q "^# TYPE $fam histogram" <<<"$m" || { echo "metrics missing histogram $fam" >&2; exit 1; }
    grep -q "^${fam}_bucket.*le=\"+Inf\"" <<<"$m" || { echo "$fam has no +Inf bucket" >&2; exit 1; }
  done
  # POST /v1/jobs was hit on this process by the time we scrape.
  grep -q "^chaos_http_request_duration_seconds_count{route=\"POST /v1/jobs\"} [1-9]" <<<"$m" \
    || { echo "no request-duration samples for POST /v1/jobs" >&2; exit 1; }
  grep -q "^chaos_job_queue_wait_seconds_count [$min_jobs-9]" <<<"$m" \
    || { echo "queue-wait histogram missing executed jobs" >&2; exit 1; }
  # Capture, then grep: piping straight into grep -q would close the
  # pipe on the first match and fail curl under pipefail.
  local heap
  heap=$(curl -sf "$DEBUG/debug/pprof/heap?debug=1" || true)
  grep -q '^heap profile' <<<"$heap" \
    || { echo "pprof heap profile not served on $DEBUG_ADDR" >&2; exit 1; }
}

# check_trace: the job's journaled lifecycle trace is complete and
# whole — the caller's trace id survived, the request root and the
# queued -> run -> done chain are present, and no span is orphaned.
check_trace() {
  local t
  t=$(curl -sf $BASE/v1/jobs/$JOB/trace)
  grep -q "\"traceId\": \"$TRACE_ID\"" <<<"$t" \
    || { echo "trace id drifted: $t" >&2; exit 1; }
  for name in 'POST /v1/jobs' queued run done; do
    grep -q "\"name\": \"$name\"" <<<"$t" \
      || { echo "trace tree missing '$name' span: $t" >&2; exit 1; }
  done
  grep -q '"orphans": 0' <<<"$t" \
    || { echo "trace tree has orphan spans: $t" >&2; exit 1; }
}

# wait_done JOB: poll the job until it ends; fail unless it ends done.
wait_done() {
  local state
  for i in $(seq 1 200); do
    state=$(curl -sf $BASE/v1/jobs/$1 | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
    [ "$state" = done ] && return 0
    [ "$state" = failed ] && { echo "job $1 failed" >&2; exit 1; }
    sleep 0.1
  done
  echo "job $1 never finished: $state" >&2; exit 1
}

wait_up() {
  for i in $(seq 1 100); do
    curl -sf $BASE/healthz >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "server did not come up" >&2; return 1
}

cleanup() {
  kill -TERM "${PID:-}" 2>/dev/null || true
  wait "${PID:-}" 2>/dev/null || true
  rm -rf "$DIR"
}

"$BIN" -addr $ADDR -debug-addr $DEBUG_ADDR -workers 2 -chunk-kb 1 -data-dir "$DIR/state" &
PID=$!
# Installed before the first request: a failure anywhere must not leak
# the server (holding the port for the next run) or the temp dir.
trap cleanup EXIT
wait_up

curl -sf -XPOST $BASE/v1/graphs -d '{"name":"smoke","type":"rmat","scale":7,"weighted":true,"seed":42}' >/dev/null
# Submit under our own W3C trace context; the server must adopt the
# trace id and echo it in a traceparent response header.
TRACE_ID=aaaabbbbccccddddeeeeffff00112233
HDRS="$DIR/submit-headers.txt"
JOB=$(curl -sf -D "$HDRS" -XPOST $BASE/v1/jobs \
  -H "traceparent: 00-$TRACE_ID-0123456789abcdef-01" \
  -d '{"graph":"smoke","algorithm":"PR","options":{"machines":2,"seed":7}}' | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')
grep -qi "^traceparent: 00-$TRACE_ID-" "$HDRS" \
  || { echo "inbound traceparent not adopted/echoed" >&2; cat "$HDRS" >&2; exit 1; }
# Stream the job's SSE feed while it runs; the handler closes the
# stream at the terminal state, so this curl exits on its own.
EVENTS="$DIR/events.txt"
curl -sN -m 60 $BASE/v1/jobs/$JOB/events > "$EVENTS" &
SSE=$!
wait_done $JOB
wait $SSE || { echo "event stream did not terminate with the job" >&2; exit 1; }
grep -q '^event: state' "$EVENTS" || { echo "no state events in SSE stream" >&2; cat "$EVENTS" >&2; exit 1; }
grep -q '"state":"done"' "$EVENTS" || { echo "SSE stream missed the done transition" >&2; cat "$EVENTS" >&2; exit 1; }

# /metrics serves Prometheus text exposition with the serving, catalog
# and WAL counter families.
METRICS=$(curl -sf $BASE/metrics)
grep -q '^# TYPE chaos_jobs gauge' <<<"$METRICS" || { echo "metrics missing TYPE preamble" >&2; exit 1; }
grep -q '^chaos_jobs{state="done"} [1-9]' <<<"$METRICS" || { echo "metrics missing done-job count" >&2; echo "$METRICS" >&2; exit 1; }
grep -q '^chaos_wal_records_total [1-9]' <<<"$METRICS" || { echo "metrics missing WAL records" >&2; exit 1; }
grep -q '^chaos_persist_healthy 1' <<<"$METRICS" || { echo "persistence not healthy" >&2; exit 1; }
# The catalog counts the edge slice the job ran on.
grep -q '^chaos_catalog_bytes{kind="edges"} [1-9]' <<<"$METRICS" || { echo "catalog bytes miss the resident edges" >&2; exit 1; }
# One job has executed here: histograms fed, pprof answering.
check_observability 1
# The executing process serves the full tree, trace-id lookup included.
check_trace
# Capture, then grep (see check_observability: grep -q + pipefail).
BYTRACE=$(curl -sf $BASE/v1/traces/$TRACE_ID)
grep -q "\"id\": \"$JOB\"" <<<"$BYTRACE" \
  || { echo "trace id does not resolve to the job" >&2; exit 1; }

# SIGTERM: graceful shutdown snapshots before exit.
kill -TERM $PID; wait $PID || true

# This process compacts after every journal record.
"$BIN" -addr $ADDR -debug-addr $DEBUG_ADDR -workers 2 -chunk-kb 1 -data-dir "$DIR/state" -snapshot-every 1 &
PID=$!
wait_up

# The graph survived the restart... (every check below captures before
# grepping: grep -q exits on the first match, and under pipefail the
# SIGPIPE that gives curl would fail the whole pipeline.)
GRAPHS=$(curl -sf $BASE/v1/graphs)
grep -q '"id": "smoke"' <<<"$GRAPHS" || { echo "graph lost" >&2; exit 1; }
# ...and the identical submission is an immediate cache hit served from
# the disk result store (the fresh process's memory cache was empty).
HIT=$(curl -sf -XPOST $BASE/v1/jobs -d '{"graph":"smoke","algorithm":"PR","options":{"machines":2,"seed":7}}')
grep -q '"state": "done"' <<<"$HIT" || { echo "resubmission not served from cache: $HIT" >&2; exit 1; }
grep -q '"cacheHit": true' <<<"$HIT" || { echo "no cacheHit flag: $HIT" >&2; exit 1; }
STATS=$(curl -sf $BASE/v1/stats)
grep -q '"diskHits": [1-9]' <<<"$STATS" || { echo "no disk hit recorded" >&2; exit 1; }
# The recovered process exposes the restored history on /metrics (two
# done jobs now: the pre-crash run and the cache-hit resubmission).
METRICS=$(curl -sf $BASE/metrics)
grep -q '^chaos_jobs{state="done"} [2-9]' <<<"$METRICS" || { echo "recovered metrics missing job history" >&2; exit 1; }
# The restored graph stays cold: the resubmission never ran, so no
# edge slice is resident.
grep -q '^chaos_catalog_bytes{kind="edges"} 0$' <<<"$METRICS" || { echo "a cold restored graph counts resident edges" >&2; exit 1; }
# The SSE stream of a job finished before the crash replays as a single
# terminal snapshot on the recovered process.
REPLAY=$(curl -sN -m 10 $BASE/v1/jobs/$JOB/events)
grep -q '"state":"done"' <<<"$REPLAY" || { echo "no terminal snapshot for recovered job" >&2; exit 1; }
# Observability after recovery: the histogram families come back
# pre-seeded (0 is a real value — the cache-hit resubmission never
# executed, so queue-wait legitimately has no new samples) and the
# debug listener serves profiles on the recovered process too.
check_observability 0
# The lifecycle trace rode the journal across the graceful restart.
check_trace

# An upload of four edges (compact records: little-endian uint32 source
# and destination), registered where every record trips a compaction.
UPLOAD=$(printf '\0\0\0\0\1\0\0\0\1\0\0\0\2\0\0\0\2\0\0\0\3\0\0\0\3\0\0\0\0\0\0\0' | base64 -w0)
curl -sf -XPOST $BASE/v1/graphs -d "{\"name\":\"up\",\"type\":\"upload\",\"vertices\":4,\"data\":\"$UPLOAD\"}" >/dev/null \
  || { echo "upload registration failed" >&2; exit 1; }

# SIGKILL: no snapshot, no drain — the journal alone must rebuild the
# trace. Sleep past the fsync batching window first so the journal
# holds everything the dead process acknowledged.
sleep 0.3
kill -KILL $PID; wait $PID 2>/dev/null || true
"$BIN" -addr $ADDR -debug-addr $DEBUG_ADDR -workers 2 -chunk-kb 1 -data-dir "$DIR/state" &
PID=$!
wait_up
# Both graphs survived the compactions and the kill, with their edge
# counts (the rmat graph's 2^7 x 16 edges; the upload's four).
GRAPHS=$(curl -sf $BASE/v1/graphs)
for want in '"id": "smoke"' '"edges": 2048' '"id": "up"' '"edges": 4,'; do
  grep -q "$want" <<<"$GRAPHS" || { echo "graph list after the kill lacks $want: $GRAPHS" >&2; exit 1; }
done
UPJOB=$(curl -sf -XPOST $BASE/v1/jobs -d '{"graph":"up","algorithm":"PR","options":{"machines":2,"seed":7}}' \
  | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')
wait_done $UPJOB
check_trace
# Engine spans are execution-scoped: the restored trace reports the
# tier absent with a reason instead of inventing a recording.
RESTORED=$(curl -sf $BASE/v1/jobs/$JOB/trace)
grep -q '"engineAbsent"' <<<"$RESTORED" \
  || { echo "restored trace claims an engine recording" >&2; exit 1; }
echo "SMOKE OK"
