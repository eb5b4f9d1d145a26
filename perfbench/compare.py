#!/usr/bin/env python3
"""Compares two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (the copies in
.bench_out/results/, one per workload and seed). For every workload and
end-to-end metric it prints both medians with their quartiles, the
change, and whether the new median is worse than the base by more than
the metric's bound in BENCHMARK.json. It refuses to compare results
taken with a different nproc, or from a non-Release or sanitizer build.
Exits 1 when any metric regressed beyond its bound.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {metric: [values]}} plus the set of nproc values."""
    by_workload, nprocs = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as handle:
            result = json.load(handle)
        prov = result["provenance"]
        if prov["build_type"] != "Release" or prov["sanitizer"]:
            sys.exit(f"compare: {path} is from a {prov['build_type']} build; refusing")
        nprocs.add(prov["nproc"])
        metrics = by_workload.setdefault(prov["workload"], {})
        for name, entry in result["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return by_workload, nprocs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        specs = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    base, base_nproc = load(sys.argv[1])
    new, new_nproc = load(sys.argv[2])
    if len(base_nproc | new_nproc) > 1:
        sys.exit(f"compare: results span nproc {sorted(base_nproc | new_nproc)}; "
                 "refusing to compare runs from different CPU counts")
    regressed = False
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        for name, spec in specs.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b1, b2, b3 = quartiles(base[workload][name])
            n1, n2, n3 = quartiles(new[workload][name])
            change = (n2 - b2) / b2 if b2 else float("inf")
            worse = change > spec["bound"] if spec["better"] == "lower" else (
                -change > spec["bound"])
            regressed |= worse
            print(f"  {name:20s} base {b2:12.5g} [{b1:.4g}, {b3:.4g}]  "
                  f"new {n2:12.5g} [{n1:.4g}, {n3:.4g}]  {change:+7.1%}  "
                  f"bound {spec['bound']:.0%} {'REGRESSED' if worse else 'ok'}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
