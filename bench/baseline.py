"""Measure the baseline recorded in ``baseline.json``.

    python3 bench/baseline.py

For every workload in BENCHMARK.json: ten untraced runs with seeds
1 to 10 (one process at a time), then one traced run with seed
0.  Records each end-to-end metric's ten values, median, quartiles and
spread (interquartile distance over median), the traced per-layer
metrics, the seed-0 sweep digest, and the Python version, CPU count
and date.  Exits non-zero if any run is incorrect or any spread other
than setup_s's exceeds a third of its bound.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "golden_seed0.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "date": datetime.date.today().isoformat(),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for w in spec["workloads"]:
        name = w["name"]
        values = {m: [] for m in bounds}
        for seed in range(1, SEEDS + 1):
            res = run(name, seed, spec["run_seconds"], 0)
            steady &= res["correct"]
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        e2e = {}
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            e2e[m] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                      "spread": spread, "values": v}
            if m != "setup_s" and spread > bounds[m] / 3:
                steady = False
                print(f"{name}: {m} spread {spread:.4f} exceeds a third of {bounds[m]}")
        traced = run(name, 0, spec["run_seconds"], 1)
        steady &= traced["correct"]
        out["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "seed0_sweep_sha256": hashlib.sha256("".join(golden[name]).encode()).hexdigest(),
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
