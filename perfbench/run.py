#!/usr/bin/env python3
"""Runs one EquiTensors benchmark workload and prints its result.

    python3 perfbench/run.py --workload serve_predict --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first run configures and
builds the program (Release, the repository's defaults) and the harness
into .bench_build/cmake; later runs rebuild incrementally. The harness
generates every input from --seed, measures, and checks the program's
outputs. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (the traced run also writes its
spans to .bench_out/). The line before it holds the full result with
provenance; a copy is kept in .bench_out/results/ for compare.py.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HARNESS_LIMIT_S = 165.0  # a run must end within 180 s once the build is done
HELD_OUT_SEED = 90210  # kept for checking a later claim; do not tune on it
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
OUT = os.path.join(ROOT, ".bench_out")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds the harness and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"{ROOT} is not a source checkout (no CMakeLists.txt / src)", 2)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target",
             "perfbench_harness", "perfbench_selftest", "equitensor_serve"]
        )
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}", 2)


def source_digest():
    """Revision of the checkout: git HEAD when available, plus a digest
    of the sources (checkouts the benchmark runs in are not repos)."""
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = head.stdout.strip() if head.returncode == 0 else "none"
    except OSError:
        commit = "none"
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return f"{commit}+src:{digest.hexdigest()[:16]}"


def harness_args(workload, seed, seconds, trace, work_dir):
    return [
        f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
        f"--trace={'true' if trace else 'false'}", f"--work_dir={work_dir}",
        f"--commit={source_digest()}",
        "--serve_bin=" + os.path.join(BUILD, "equitensor", "tools", "equitensor_serve"),
    ]


def run_harness(flags):
    """Runs the harness in its own process group so a timeout also
    stops any daemon it spawned; returns its last stdout line."""
    proc = subprocess.Popen(
        [os.path.join(BUILD, "perfbench_harness")] + flags,
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=HARNESS_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness exceeded {HARNESS_LIMIT_S:.0f} s")
    finally:
        try:  # reap anything the harness left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        fail("harness printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode)

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}", 2)
    if args.seed == HELD_OUT_SEED:
        print("perfbench: note: seed is the held-out claim-check seed", file=sys.stderr)
    seconds = args.seconds if args.seconds else bench["run_seconds"]

    work_dir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        result = run_harness(
            harness_args(args.workload, args.seed, seconds, args.trace, work_dir)
        )
        spans = os.path.join(work_dir, "spans.jsonl")
        if os.path.isfile(spans):
            kept = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            shutil.move(spans, kept)
            result["detail"]["spans_file"] = os.path.relpath(kept, ROOT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    prov = result["provenance"]
    if prov["build_type"] != "Release" or prov["sanitizer"]:
        fail(f"refusing to record a {prov['build_type']} "
             f"{'sanitizer ' if prov['sanitizer'] else ''}build", 3)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in declared:
        got = result["metrics"].get(spec["name"])
        if got is None or not math.isfinite(got["value"]):
            fail(f"metric {spec['name']} missing or not finite")
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} in {got['unit']}, declared {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = os.path.join(
        OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
