#!/usr/bin/env bash
# Serving benchmark with observability-overhead measurement
# (DESIGN.md §16). Trains a small model into a serving bundle, then
# measures the same closed-loop workload twice:
#   1. against a daemon with --observe=false (bare-metal baseline),
#   2. against a daemon with the observability layer on (per-stage
#      histograms, /debug ring, sampled JSONL access log),
# and writes the loadgen summary of the observed run — including the
# server-side stage breakdown scraped from /debug/stages, the
# client-vs-server latency reconciliation, and the measured QPS
# overhead relative to the baseline — to BENCH_serving.json. Every
# process runs the default `fast` backend (ET_BACKEND is cleared so a
# stray override cannot skew the record).
#
# Usage: scripts/bench_serving.sh [build-dir] [out.json]
#   build-dir  defaults to build (a release build; do NOT point this
#              at build-asan — sanitizer timings are meaningless)
#   out.json   defaults to BENCH_serving.json at the repo root
set -euo pipefail
cd "$(dirname "$0")/.."

unset ET_BACKEND
BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_serving.json}"
THREADS="${BENCH_THREADS:-8}"
REQUESTS="${BENCH_REQUESTS:-250}"

for tool in equitensor_train equitensor_serve loadgen scrape_check; do
  if [[ ! -x "$BUILD_DIR/tools/$tool" ]]; then
    echo "bench_serving.sh: $BUILD_DIR/tools/$tool not built" >&2
    exit 1
  fi
done

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in ${pids[@]+"${pids[@]}"}; do kill -INT "$pid" 2>/dev/null || true; done
  for pid in ${pids[@]+"${pids[@]}"}; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== train model -> serving bundle =="
"$BUILD_DIR"/tools/equitensor_train \
  --width=12 --height=10 --days=10 --epochs=2 --steps=4 --batch=4 \
  --output_z="$workdir/z.etck" --output_serving="$workdir/serving.etck" \
  >"$workdir/train.log" 2>&1 || { cat "$workdir/train.log"; exit 1; }

# start_server <name> <extra flags...>; sets <name>_pid and <name>_port.
start_server() {
  local name=$1; shift
  "$BUILD_DIR"/tools/equitensor_serve --checkpoint="$workdir/serving.etck" \
    --port=0 --task_epochs=1 --task_steps=4 "$@" \
    >"$workdir/$name.log" 2>&1 &
  local pid=$!
  pids+=("$pid")
  local port=""
  for _ in $(seq 1 300); do
    port=$(sed -n 's/^Serving on port \([0-9]*\)$/\1/p' "$workdir/$name.log" | head -n1)
    [ -n "$port" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "$name daemon died:"; cat "$workdir/$name.log"; exit 1
    fi
    sleep 0.1
  done
  [ -n "$port" ] || { echo "$name never printed its port"; cat "$workdir/$name.log"; exit 1; }
  eval "${name}_pid=$pid"
  eval "${name}_port=$port"
  echo "   $name on port $port (pid $pid)"
}

qps_of() {  # extract the top-level qps from a loadgen summary
  grep -o '"qps":[0-9.eE+-]*' "$1" | head -n1 | cut -d: -f2
}

run_loadgen() {  # run_loadgen <port> <log> <out.json> <extra flags...>
  local port=$1 log=$2 out=$3; shift 3
  # Short warmup so connection setup and cold caches don't skew either
  # side of the comparison, then best-of-N measured runs — a single
  # run's QPS moves several percent with scheduler noise, which would
  # swamp the overhead we are trying to measure; the max of N runs
  # converges to the unimpeded throughput on both sides.
  "$BUILD_DIR"/tools/loadgen --port="$port" --threads="$THREADS" \
    --requests=25 --post >/dev/null 2>&1
  rm -f "$out"  # never best-of against a stale summary
  local runs="${BENCH_RUNS:-3}"
  for run in $(seq 1 "$runs"); do
    "$BUILD_DIR"/tools/loadgen --port="$port" --threads="$THREADS" \
      --requests="$REQUESTS" --post --embed_every=5 --out="$out.run" "$@" \
      >"$log" 2>&1 || { cat "$log"; exit 1; }
    if [[ ! -f "$out" ]] || awk -v a="$(qps_of "$out.run")" \
         -v b="$(qps_of "$out")" 'BEGIN { exit !(a > b) }'; then
      mv "$out.run" "$out"
    fi
  done
  rm -f "$out.run"
}

echo "== baseline: --observe=false =="
start_server baseline --observe=false
run_loadgen "$baseline_port" "$workdir/loadgen_baseline.log" \
  "$workdir/baseline.json"
kill -INT "$baseline_pid"
wait "$baseline_pid" || { echo "baseline daemon exited non-zero"; exit 1; }

echo "== observed: histograms + /debug ring + access log =="
# Sampled access log (every 10th request + every slow one): the
# production shape — logging every request is an fsync-free but still
# syscall-per-request cost that the sampler exists to amortize.
start_server observed --access_log="$workdir/access.jsonl" \
  --access_log_every=10 --slow_ms=250
run_loadgen "$observed_port" "$workdir/loadgen_observed.log" \
  "$OUT" --baseline="$workdir/baseline.json"

# The access log of the observed run must be strict JSONL.
"$BUILD_DIR"/tools/scrape_check --file="$workdir/access.jsonl" \
  --format=jsonl

kill -INT "$observed_pid"
wait "$observed_pid" || { echo "observed daemon exited non-zero"; exit 1; }
pids=()

for field in '"server_stages"' '"reconciliation"' '"observability_overhead"'; do
  grep -q "$field" "$OUT" \
    || { echo "bench summary is missing $field"; cat "$OUT"; exit 1; }
done

echo "== summary =="
grep -o '"qps":[0-9.eE+-]*' "$workdir/baseline.json" | head -n1 \
  | sed 's/^/   baseline /'
grep -o '"qps":[0-9.eE+-]*' "$OUT" | head -n1 | sed 's/^/   observed /'
grep -o '"overhead_pct":-\{0,1\}[0-9.eE+-]*' "$OUT" \
  | sed 's/^/   /'
echo "Wrote $OUT"
