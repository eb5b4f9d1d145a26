#!/bin/bash
cd /root/repo/bench_results
export ET_BENCH_SCALE=1 ET_BENCH_SEEDS=3
for b in bench_fig5_weight_curves bench_fig4_alpha_sweep bench_table3_utility bench_fig6_lambda_sweep bench_table4_adversary bench_table5_fairness; do
  echo "=== RUNNING $b ($(date +%H:%M:%S)) ==="
  /root/repo/build/bench/$b > $b.log 2>&1
  echo "=== DONE $b exit=$? ($(date +%H:%M:%S)) ==="
done
# JSON (not just the human-readable log) so the kernel-perf trajectory
# is machine-comparable across PRs. The installed google-benchmark
# expects a plain double for --benchmark_min_time.
/root/repo/build/bench/bench_kernels --benchmark_min_time=0.2 \
  --benchmark_format=json > BENCH_kernels.json 2> bench_kernels.log
/root/repo/build/bench/bench_kernels --benchmark_min_time=0.2 \
  >> bench_kernels.log 2>&1
# Training telemetry trajectory (per-epoch losses/weights + run summary
# with kernel timings) in the machine-readable JSONL schema of
# DESIGN.md §10 — comparable across PRs like BENCH_kernels.json. The
# same run captures the chrome://tracing artifact (DESIGN.md §11) and
# streams per-layer stats into the epoch records.
/root/repo/build/tools/equitensor_train --days=10 --epochs=4 \
  --weighting=dwa --fairness=adversarial --trace --layer_stats=true \
  --chrome_trace=BENCH_chrome_trace.json \
  --metrics_jsonl=BENCH_train_telemetry.jsonl > bench_train_telemetry.log 2>&1
# Sentinel-enabled smoke run: per-step NaN/Inf checking on a short
# healthy run must finish clean (exit 0, no trip) — guards the sentinel
# hot path against false positives.
/root/repo/build/tools/equitensor_train --days=6 --epochs=2 \
  --nan_check=step > bench_sentinel_smoke.log 2>&1
echo "sentinel smoke exit=$? (0 = no trip)" >> bench_sentinel_smoke.log
# Hooks-disabled overhead probe (DESIGN.md §11 acceptance: inactive
# observation points keep conv3d forward within ~2% of the bare
# kernel). Compares BM_Conv3dForwardObserved/0 to BM_Conv3dForwardFast/1
# from BENCH_kernels.json; reported, not fatal — single-core CI noise
# can exceed the bar even when the code path is a single relaxed load.
awk -F'"' '
  /"name": "BM_Conv3dForwardFast\/1\/process_time\/real_time"/ { want_base = 1 }
  /"name": "BM_Conv3dForwardObserved\/0\/process_time\/real_time"/ { want_obs = 1 }
  /"real_time":/ {
    split($0, parts, ":"); gsub(/[ ,]/, "", parts[2])
    if (want_base) { base = parts[2] + 0; want_base = 0 }
    else if (want_obs) { obs = parts[2] + 0; want_obs = 0 }
  }
  END {
    if (base > 0 && obs > 0) {
      pct = (obs / base - 1.0) * 100.0
      printf "hooks-disabled conv3d overhead: %+.2f%% (bar: 2%%)\n", pct
      if (pct > 2.0) print "WARNING: overhead above 2% bar"
    } else {
      print "WARNING: probe benches missing from BENCH_kernels.json"
    }
  }
' BENCH_kernels.json > bench_hook_overhead.log 2>&1
cat bench_hook_overhead.log
# Telemetry-serving overhead probe (DESIGN.md §12 acceptance: an idle
# --serve endpoint keeps training within ~2% of a server-less run).
# Two identical short runs; compared by the "Trained in X s" line.
# Reported, not fatal — same CI-noise caveat as the hook probe.
/root/repo/build/tools/equitensor_train --days=6 --epochs=3 \
  --output_z=/tmp/bench_serve_probe_z.etck > bench_serve_off.log 2>&1
/root/repo/build/tools/equitensor_train --days=6 --epochs=3 --serve=0 \
  --output_z=/tmp/bench_serve_probe_z.etck > bench_serve_on.log 2>&1
base=$(awk '/^Trained in / {print $3}' bench_serve_off.log)
served=$(awk '/^Trained in / {print $3}' bench_serve_on.log)
awk -v base="$base" -v served="$served" 'BEGIN {
  if (base > 0 && served > 0) {
    pct = (served / base - 1.0) * 100.0
    printf "telemetry-serving overhead: %+.2f%% (bar: 2%%)\n", pct
    if (pct > 2.0) print "WARNING: serving overhead above 2% bar"
  } else {
    print "WARNING: serve-probe timings missing"
  }
}' > bench_serve_overhead.log 2>&1
cat bench_serve_overhead.log
# Profiler / hardware-counter overhead probes (DESIGN.md §17
# acceptance: active 97 Hz sampling and per-span counter reads each
# keep conv3d forward within 2%). Reported, not fatal — same
# single-core CI-noise caveat as the hook probe above.
python3 - BENCH_kernels.json > bench_profiler_overhead.log 2>&1 <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
t = {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])
     if "aggregate_name" not in b}
for probe, base, active in [
    ("profiler-active conv3d",
     "BM_Conv3dForwardProfiled/0/process_time/real_time",
     "BM_Conv3dForwardProfiled/1/process_time/real_time"),
    ("perf-counters conv3d",
     "BM_Conv3dForwardCounters/0/process_time/real_time",
     "BM_Conv3dForwardCounters/1/process_time/real_time"),
]:
    if base in t and active in t and t[base] > 0:
        pct = (t[active] / t[base] - 1.0) * 100.0
        print(f"{probe} overhead: {pct:+.2f}% (bar: 2%)")
        if pct > 2.0:
            print("WARNING: overhead above 2% bar")
    else:
        print(f"WARNING: {probe} probe benches missing")
EOF
cat bench_profiler_overhead.log
# Publish the machine-comparable trajectory artifacts at the repo root
# (the cross-PR diff tooling reads BENCH_*.json from there, not from
# bench_results/): the kernel-bench JSON verbatim, and the training
# run summary (last JSONL line, a complete JSON object with kernel
# timings + metrics) as BENCH_train_telemetry.json.
#
# Gate: only a Release-built bench run may publish to the repo root.
# The "equitensor_build_type" context key is stamped by bench_kernels'
# own main (the library's "library_build_type" describes the installed
# google-benchmark package, not our code — it reads "debug" even for
# Release kernel builds and must be ignored). A Debug run keeps its
# artifacts in bench_results/ so nothing downstream compares against
# unoptimized numbers.
build_type=$(python3 -c "import json,sys; \
  print(json.load(open(sys.argv[1]))['context'].get('equitensor_build_type','missing'))" \
  BENCH_kernels.json 2>/dev/null)
if [ "$build_type" = "release" ]; then
  cp BENCH_kernels.json /root/repo/BENCH_kernels.json
else
  echo "REFUSING to publish BENCH_kernels.json to repo root:" \
       "equitensor_build_type=\"$build_type\" (want \"release\")"
fi
tail -n 1 BENCH_train_telemetry.jsonl > /root/repo/BENCH_train_telemetry.json
echo ALL_BENCHES_DONE
