#!/bin/bash
# Compare a fresh bench_kernels JSON run against the committed baseline
# and fail on per-benchmark regressions (DESIGN.md §17 / ISSUE PR 10).
#
#   scripts/bench_compare.sh [current.json] [baseline.json] [threshold_pct]
#
#   current.json    defaults to BENCH_kernels.json at the repo root
#   baseline.json   defaults to BENCH_kernels_baseline.json
#   threshold_pct   per-benchmark real_time regression bar (default 25;
#                   generous because CI runs on one noisy shared core —
#                   tighten locally with e.g. `... cur base 5`)
#
# Both inputs must carry context.equitensor_build_type == "release"
# (stamped by bench_kernels' own main). The installed google-benchmark
# library reports its OWN build type as "library_build_type" — that key
# says "debug" even for fully optimized kernel builds and is ignored
# here. Artifacts without the release stamp are rejected: comparing a
# Debug run against a Release baseline (or vice versa) produces
# meaningless 10-50x deltas that once poisoned the committed baseline.
#
# Exit codes: 0 = no regression, 1 = regression or tainted artifact,
# 2 = usage/IO error.
set -u
cd "$(dirname "$0")/.."

CURRENT="${1:-BENCH_kernels.json}"
BASELINE="${2:-BENCH_kernels_baseline.json}"
THRESHOLD="${3:-25}"

for f in "$CURRENT" "$BASELINE"; do
  if [ ! -f "$f" ]; then
    echo "bench_compare: missing $f" >&2
    exit 2
  fi
done

python3 - "$CURRENT" "$BASELINE" "$THRESHOLD" <<'EOF'
import json
import sys

current_path, baseline_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])


def load(path):
    with open(path) as f:
        doc = json.load(f)
    build_type = doc.get("context", {}).get("equitensor_build_type", "missing")
    if build_type != "release":
        print(f"bench_compare: {path} is tainted: "
              f'equitensor_build_type="{build_type}" (want "release"); '
              "re-record from a Release build via bench_results/run_all.sh")
        sys.exit(1)
    # Real iteration rows only — skip _mean/_median/_stddev aggregates.
    return {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])
            if "aggregate_name" not in b and "real_time" in b}

# Benchmarks renamed when the simd and fused backends became `fast`:
# artifacts recorded before the rename compare under the new names.
# (The rows of the deleted `parallel` backend have no successor.)
RENAMED = {
    "BM_Conv2dForwardSimd/": "BM_Conv2dForwardFast/",
    "BM_Conv3dForwardSimd/": "BM_Conv3dForwardFast/",
    "BM_Conv3dTrainStepSimd/": "BM_Conv3dTrainStepFast/",
    "BM_ConvBiasActSimd/": "BM_ConvBiasActFastEager/",
    "BM_ConvBiasActFused/": "BM_ConvBiasActFast/",
    "BM_CdaeTrainStepFused/": "BM_CdaeTrainStepFast/",
    "BM_GemmRowMajorSimd/": "BM_GemmRowMajorFast/",
}


def renamed(name):
    for old, new in RENAMED.items():
        if name.startswith(old):
            return new + name[len(old):]
    return name


current = {renamed(name): t for name, t in load(current_path).items()}
baseline = {renamed(name): t for name, t in load(baseline_path).items()}

regressions = []
improvements = 0
compared = 0
for name in sorted(baseline):
    if name not in current:
        print(f"  MISSING  {name} (in baseline, not in current run)")
        continue
    base, cur = baseline[name], current[name]
    if base <= 0:
        continue
    compared += 1
    pct = (cur / base - 1.0) * 100.0
    if pct > threshold:
        regressions.append((name, base, cur, pct))
        print(f"  REGRESS  {name}: {base:.0f} -> {cur:.0f} ns ({pct:+.1f}%)")
    elif pct < -threshold:
        improvements += 1
        print(f"  IMPROVE  {name}: {base:.0f} -> {cur:.0f} ns ({pct:+.1f}%)")

only_current = sorted(set(current) - set(baseline))
if only_current:
    print(f"  (+{len(only_current)} benchmarks not in baseline: "
          + ", ".join(only_current[:4])
          + (" ..." if len(only_current) > 4 else "") + ")")

print(f"bench_compare: {compared} benchmarks vs {baseline_path}, "
      f"threshold {threshold:.0f}%: "
      f"{len(regressions)} regression(s), {improvements} improvement(s)")
sys.exit(1 if regressions else 0)
EOF
