#!/usr/bin/env bash
# Sanitizer + test gate. Builds the suite with ASan+UBSan, self-tests
# the runner (a deliberately failing test must turn the exit status
# red), then runs the labeled ctest suites. Any sanitizer report or
# failing test fails the script — ctest's exit status is propagated,
# never swallowed behind a pipeline or `|| true`.
#
# Usage: scripts/check.sh [--quick] [build-dir]
#   --quick    run only tests labeled `unit` (seconds, not minutes)
#   build-dir  defaults to build-asan
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    -*) echo "unknown flag: $arg" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
BUILD_DIR="${BUILD_DIR:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S . \
  -DEQUITENSOR_SANITIZE=ON \
  -DEQUITENSOR_BUILD_BENCHMARKS=ON \
  -DEQUITENSOR_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"

export ASAN_OPTIONS=detect_leaks=0:abort_on_error=1
export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1

# Self-test the harness before trusting a green run: the forced-failure
# hook in metrics_test must come back as a non-zero ctest exit. This
# guards against runner regressions where a red test is reported as
# success (e.g. a status-masking pipeline).
echo "=== runner self-test (a forced failure must propagate) ==="
if ET_FORCE_TEST_FAILURE=1 ctest --test-dir "$BUILD_DIR" \
     -R 'MetricsSmokeTest\.FailsWhenForced' --output-on-failure \
     --no-tests=error >/dev/null 2>&1; then
  echo "check.sh: forced failure came back green — the runner is broken" >&2
  exit 1
fi
echo "runner self-test OK: failure propagated as non-zero exit."

LABEL_ARGS=()
if [[ "$QUICK" == 1 ]]; then
  LABEL_ARGS=(-L unit)
  echo "=== unit tests (ASan+UBSan, --quick) ==="
else
  echo "=== full suite (ASan+UBSan) ==="
fi
ctest --test-dir "$BUILD_DIR" "${LABEL_ARGS[@]+"${LABEL_ARGS[@]}"}" \
  --output-on-failure --no-tests=error -j "$JOBS"
echo "All sanitizer checks passed."

# Telemetry-endpoint smoke test (DESIGN.md §12): a short live run with
# --serve=0 must answer all four endpoints with well-formed payloads.
# /metrics is checked by the Prometheus-text validator, /status and
# /fairness by the strict JSON parser (both via tools/scrape_check).
# Skipped under --quick; run against the sanitizer build so a race or
# UB in the server path fails the gate.
if [[ "$QUICK" != 1 ]]; then
  echo "=== telemetry endpoint smoke test ==="
  SMOKE_LOG="$(mktemp)"
  "$BUILD_DIR"/tools/equitensor_train \
    --width=6 --height=5 --days=4 --epochs=2 --steps=3 --batch=2 \
    --fairness=adversarial --trace --serve=0 --serve_linger=60 \
    --output_z="$(mktemp -u).etck" >"$SMOKE_LOG" 2>&1 &
  SMOKE_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/^Telemetry server listening on port \([0-9]*\)$/\1/p' \
      "$SMOKE_LOG")"
    [[ -n "$PORT" ]] && break
    if ! kill -0 "$SMOKE_PID" 2>/dev/null; then
      echo "check.sh: smoke run died before binding its port" >&2
      cat "$SMOKE_LOG" >&2
      exit 1
    fi
    sleep 0.2
  done
  if [[ -z "$PORT" ]]; then
    echo "check.sh: no port line in the smoke-run log" >&2
    cat "$SMOKE_LOG" >&2
    kill "$SMOKE_PID" 2>/dev/null || true
    exit 1
  fi
  # Let training finish (the linger keeps serving) so /status and
  # /fairness carry real epoch data, not the waiting placeholder.
  for _ in $(seq 1 300); do
    grep -q "^Serving telemetry" "$SMOKE_LOG" && break
    sleep 0.2
  done
  SMOKE_OK=1
  "$BUILD_DIR"/tools/scrape_check --port="$PORT" --path=/metrics \
    --format=prom || SMOKE_OK=0
  "$BUILD_DIR"/tools/scrape_check --port="$PORT" --path=/status \
    --format=json || SMOKE_OK=0
  "$BUILD_DIR"/tools/scrape_check --port="$PORT" --path=/fairness \
    --format=json || SMOKE_OK=0
  # /healthz is plain text; a healthy run must answer 200.
  "$BUILD_DIR"/tools/scrape_check --port="$PORT" --path=/healthz \
    --format=text --expect_status=200 || SMOKE_OK=0
  # Graceful teardown: SIGINT must end the linger with exit 0 and no
  # leaked listener.
  kill -INT "$SMOKE_PID"
  if ! wait "$SMOKE_PID"; then
    echo "check.sh: smoke run exited non-zero after SIGINT" >&2
    cat "$SMOKE_LOG" >&2
    exit 1
  fi
  if [[ "$SMOKE_OK" != 1 ]]; then
    echo "check.sh: telemetry endpoint smoke test failed" >&2
    cat "$SMOKE_LOG" >&2
    exit 1
  fi
  echo "Telemetry endpoints OK (port $PORT)."
fi

# Backend self-verification smoke (DESIGN.md §13): a short training run
# under --backend=check executes every conv/matmul kernel — including
# the fused conv+bias+act dispatches — through the fast path AND a
# reference decomposition, and aborts on any mismatch beyond the
# shape-scaled tolerance, so a broken vector or fused kernel cannot
# hide behind a green unit suite. Runs against the sanitizer build.
# Both tools must reject the retired backend names (and any other bad
# name) with the usage exit code and the registry's name list, not a
# crash.
if [[ "$QUICK" != 1 ]]; then
  echo "=== backend=check self-verification smoke ==="
  "$BUILD_DIR"/tools/equitensor_train \
    --width=6 --height=5 --days=4 --epochs=1 --steps=2 --batch=2 \
    --backend=check --output_z="$(mktemp -u).etck" >/dev/null
  for tool in equitensor_train equitensor_serve; do
    for name in parallel simd fused definitely-not-a-backend; do
      status=0
      err=$("$BUILD_DIR"/tools/$tool --backend="$name" 2>&1 >/dev/null) \
        || status=$?
      if [[ "$status" != 2 ]]; then
        echo "check.sh: $tool --backend=$name exited $status (want 2)" >&2
        exit 1
      fi
      if [[ "$err" != *"is not a backend (reference | fast | check)"* ]]; then
        echo "check.sh: $tool --backend=$name error lacks the backend" \
          "list: $err" >&2
        exit 1
      fi
    done
  done
  echo "Backend check mode OK (fast vs reference parity held)."

  # Default-backend smoke (DESIGN.md §15): the same tiny run through
  # the fast backend's static graph schedule (fused conv+bias+act
  # kernels, concat folded into the shared encoder's gather) under the
  # sanitizers, observed by the per-step numerics sentinel's hook so
  # the labeled-node observation path (§11) runs too.
  echo "=== backend=fast graph-schedule smoke ==="
  "$BUILD_DIR"/tools/equitensor_train \
    --width=6 --height=5 --days=4 --epochs=1 --steps=2 --batch=2 \
    --backend=fast --nan_check=step --output_z="$(mktemp -u).etck" \
    >/dev/null
  echo "Fast backend OK (observed graph schedule trained end to end)."

  # Serving smoke (DESIGN.md §14/§16): train a tiny model with a
  # serving bundle, bring up equitensor_serve under the sanitizers with
  # the observability layer on (JSONL access log, /debug endpoints),
  # validate /healthz, /metrics (including a real multi-bucket stage
  # histogram), /debug/requests, /debug/slow, and a real /predict with
  # scrape_check, then SIGHUP hot-reload and require a second predict
  # from generation 2. SIGINT must end the daemon with exit 0, after
  # which the access log must be well-formed JSONL.
  echo "=== serving daemon smoke test ==="
  SERVE_LOG="$(mktemp)"
  SERVE_ACCESS_LOG="$(mktemp -u).jsonl"
  SERVE_CKPT="$(mktemp -u).etck"
  "$BUILD_DIR"/tools/equitensor_train \
    --width=6 --height=5 --days=6 --epochs=2 --steps=2 --batch=2 \
    --output_z="$(mktemp -u).etck" --output_serving="$SERVE_CKPT" >/dev/null
  "$BUILD_DIR"/tools/equitensor_serve --checkpoint="$SERVE_CKPT" --port=0 \
    --task_epochs=1 --task_steps=4 \
    --access_log="$SERVE_ACCESS_LOG" --slow_ms=500 >"$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  SERVE_PORT=""
  for _ in $(seq 1 300); do
    SERVE_PORT="$(sed -n 's/^Serving on port \([0-9]*\)$/\1/p' "$SERVE_LOG")"
    [[ -n "$SERVE_PORT" ]] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
      echo "check.sh: serving daemon died before binding its port" >&2
      cat "$SERVE_LOG" >&2
      exit 1
    fi
    sleep 0.2
  done
  if [[ -z "$SERVE_PORT" ]]; then
    echo "check.sh: serving daemon never printed its port" >&2
    cat "$SERVE_LOG" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  SERVE_OK=1
  "$BUILD_DIR"/tools/scrape_check --port="$SERVE_PORT" --path=/healthz \
    --format=text --expect_status=200 || SERVE_OK=0
  # The smoke bundle has >24 target hours, so t=25 is always in range.
  "$BUILD_DIR"/tools/scrape_check --port="$SERVE_PORT" \
    --path='/predict?t=25' --format=json || SERVE_OK=0
  # With a /predict observed, /metrics must expose the forward stage as
  # a real multi-bucket histogram, and the /debug endpoints serve the
  # live timelines.
  "$BUILD_DIR"/tools/scrape_check --port="$SERVE_PORT" --path=/metrics \
    --format=prom \
    --require_histogram=et_serving_stage_seconds_forward || SERVE_OK=0
  "$BUILD_DIR"/tools/scrape_check --port="$SERVE_PORT" \
    --path=/debug/requests --format=json || SERVE_OK=0
  "$BUILD_DIR"/tools/scrape_check --port="$SERVE_PORT" \
    --path=/debug/slow --format=json || SERVE_OK=0
  "$BUILD_DIR"/tools/scrape_check --port="$SERVE_PORT" \
    --path=/debug/stages --format=json || SERVE_OK=0
  kill -HUP "$SERVE_PID"
  RELOADED=""
  for _ in $(seq 1 300); do
    grep -q "Reloaded generation 2" "$SERVE_LOG" && { RELOADED=1; break; }
    sleep 0.2
  done
  if [[ -z "$RELOADED" ]]; then
    echo "check.sh: SIGHUP hot reload never completed" >&2
    cat "$SERVE_LOG" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  "$BUILD_DIR"/tools/scrape_check --port="$SERVE_PORT" \
    --path='/predict?t=25' --format=json || SERVE_OK=0
  kill -INT "$SERVE_PID"
  if ! wait "$SERVE_PID"; then
    echo "check.sh: serving daemon exited non-zero after SIGINT" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  if [[ "$SERVE_OK" != 1 ]]; then
    echo "check.sh: serving endpoint smoke test failed" >&2
    cat "$SERVE_LOG" >&2
    exit 1
  fi
  # Every access-log line must round-trip through the strict JSON
  # parser (the log sampled every request: scrapes + predicts).
  if ! "$BUILD_DIR"/tools/scrape_check --file="$SERVE_ACCESS_LOG" \
       --format=jsonl; then
    echo "check.sh: serving access log is not valid JSONL" >&2
    cat "$SERVE_ACCESS_LOG" >&2
    exit 1
  fi
  echo "Serving daemon OK (port $SERVE_PORT, hot reload to generation 2," \
    "access log valid)."

  # Bench smoke: the kernel benchmarks double as integration coverage
  # for the fast hot paths (packed GEMM, fused conv forward, arena
  # leases, graph-schedule train steps) under ASan+UBSan. One short
  # pass — we want "runs clean", not timings, so min_time is tiny.
  if [[ -x "$BUILD_DIR"/bench/bench_kernels ]]; then
    echo "=== bench smoke (Fast benches under sanitizers) ==="
    "$BUILD_DIR"/bench/bench_kernels --benchmark_filter='Fast' \
      --benchmark_min_time=0.01 >/dev/null
    echo "Bench smoke OK."
  else
    echo "bench_kernels not built in $BUILD_DIR; skipping bench smoke."
  fi

  # Profiler smoke (DESIGN.md §17): the SIGPROF sampling profiler under
  # ASan — the handler interrupting instrumented code is the exact
  # hazard its signal-safety contract covers. Two passes:
  #
  # 1. Whole-run capture: train 2 epochs with --profile + --counters.
  #    While it lingers, /debug/profile must answer 409 (the flag's
  #    capture already owns the one profiler session — the collision
  #    guard, not a crash) and /debug/counters must serve valid JSON.
  #    After SIGINT (which must exit 0), the written profile must be
  #    non-empty parseable folded stacks and profile_report must render
  #    a table from it.
  echo "=== profiler smoke test (ASan, --profile + /debug endpoints) ==="
  PROF_LOG="$(mktemp)"
  PROF_FOLDED="$(mktemp -u).folded"
  "$BUILD_DIR"/tools/equitensor_train \
    --width=6 --height=5 --days=4 --epochs=2 --steps=3 --batch=2 \
    --profile="$PROF_FOLDED" --profile_hz=499 --counters \
    --serve=0 --serve_linger=60 \
    --output_z="$(mktemp -u).etck" >"$PROF_LOG" 2>&1 &
  PROF_PID=$!
  PROF_PORT=""
  for _ in $(seq 1 100); do
    PROF_PORT="$(sed -n 's/^Telemetry server listening on port \([0-9]*\)$/\1/p' \
      "$PROF_LOG")"
    [[ -n "$PROF_PORT" ]] && break
    if ! kill -0 "$PROF_PID" 2>/dev/null; then
      echo "check.sh: profiler smoke run died before binding its port" >&2
      cat "$PROF_LOG" >&2
      exit 1
    fi
    sleep 0.2
  done
  if [[ -z "$PROF_PORT" ]]; then
    echo "check.sh: no port line in the profiler smoke log" >&2
    cat "$PROF_LOG" >&2
    kill "$PROF_PID" 2>/dev/null || true
    exit 1
  fi
  PROF_OK=1
  "$BUILD_DIR"/tools/scrape_check --port="$PROF_PORT" \
    --path='/debug/profile?seconds=1' --format=text \
    --expect_status=409 || PROF_OK=0
  "$BUILD_DIR"/tools/scrape_check --port="$PROF_PORT" \
    --path=/debug/counters --format=json || PROF_OK=0
  # Let training finish so the capture has sampled real kernel work.
  for _ in $(seq 1 300); do
    grep -q "^Serving telemetry" "$PROF_LOG" && break
    sleep 0.2
  done
  kill -INT "$PROF_PID"
  if ! wait "$PROF_PID"; then
    echo "check.sh: profiler smoke run exited non-zero after SIGINT" >&2
    cat "$PROF_LOG" >&2
    exit 1
  fi
  if ! "$BUILD_DIR"/tools/scrape_check --file="$PROF_FOLDED" \
       --format=folded; then
    echo "check.sh: --profile wrote invalid or empty folded stacks" >&2
    cat "$PROF_LOG" >&2
    exit 1
  fi
  if ! "$BUILD_DIR"/tools/profile_report --file="$PROF_FOLDED" --top=5 \
       >/dev/null; then
    echo "check.sh: profile_report could not render the capture" >&2
    exit 1
  fi
  if [[ "$PROF_OK" != 1 ]]; then
    echo "check.sh: profiler smoke endpoint checks failed" >&2
    cat "$PROF_LOG" >&2
    exit 1
  fi

  # 2. On-demand capture of a live process: a run without --profile
  #    must serve a 1 s /debug/profile capture as parseable non-empty
  #    folded stacks while training is busy, then exit 0 on SIGINT.
  PROF2_LOG="$(mktemp)"
  "$BUILD_DIR"/tools/equitensor_train \
    --width=6 --height=5 --days=4 --epochs=2 --steps=3 --batch=2 \
    --serve=0 --serve_linger=60 \
    --output_z="$(mktemp -u).etck" >"$PROF2_LOG" 2>&1 &
  PROF2_PID=$!
  PROF2_PORT=""
  for _ in $(seq 1 100); do
    PROF2_PORT="$(sed -n 's/^Telemetry server listening on port \([0-9]*\)$/\1/p' \
      "$PROF2_LOG")"
    [[ -n "$PROF2_PORT" ]] && break
    if ! kill -0 "$PROF2_PID" 2>/dev/null; then
      echo "check.sh: live-capture smoke run died before binding its port" >&2
      cat "$PROF2_LOG" >&2
      exit 1
    fi
    sleep 0.2
  done
  # Capture immediately: training is still running, so the sampler has
  # busy threads to attribute.
  if ! "$BUILD_DIR"/tools/scrape_check --port="$PROF2_PORT" \
       --path='/debug/profile?seconds=1&hz=499' --format=folded; then
    echo "check.sh: live /debug/profile capture was empty or malformed" >&2
    cat "$PROF2_LOG" >&2
    kill "$PROF2_PID" 2>/dev/null || true
    exit 1
  fi
  kill -INT "$PROF2_PID"
  if ! wait "$PROF2_PID"; then
    echo "check.sh: live-capture smoke run exited non-zero after SIGINT" >&2
    cat "$PROF2_LOG" >&2
    exit 1
  fi
  echo "Profiler smoke OK (whole-run capture valid, 409 collision guard," \
    "live /debug/profile folded stacks, clean SIGINT exits)."
fi

# Opt-in perf-regression gate (DESIGN.md §17 tooling): with
# ET_BENCH_COMPARE=1, diff the repo-root BENCH_kernels.json against the
# committed baseline and fail on per-benchmark regressions. Opt-in
# because the artifacts come from a Release bench run
# (bench_results/run_all.sh), not from this sanitizer build — both
# inputs must carry the release build-type stamp or the compare
# refuses them.
if [[ "${ET_BENCH_COMPARE:-0}" == 1 ]]; then
  echo "=== bench regression gate (ET_BENCH_COMPARE=1) ==="
  scripts/bench_compare.sh
fi
