#!/usr/bin/env python3
"""Records the benchmark's baseline: perfbench/BASELINE.json.

    python3 perfbench/record.py --runs 10 --seconds 20 [--commit SHA]

Runs every workload BENCHMARK.json lists --runs times with --trace 0, seeds 1..runs, and once
with --trace 1 (seed 1), then writes, per workload, the median and the
interquartile spread (as a share of the median) of every end-to-end
metric, the traced run's per-layer numbers, the reason the workload
exists and the per-layer metrics it predicts will stay flat, plus the
host facts the figures depend on. Later changes confirm claims on the
second seed set, CONFIRM_SEEDS, which the baseline never used.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from serve import KERNEL  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
CONFIRM_SEEDS = list(range(101, 111))


def run(workload, seed, seconds, trace):
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace}: "
          f"{time.perf_counter() - started:.1f} s", flush=True)
    return metrics, result["attempted"]


def spread(values):
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (quartiles[2] - quartiles[0]) / median if median else 0.0


def host_facts():
    cpuinfo = Path("/proc/cpuinfo").read_text()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                if line.startswith("model name")), "")
    avx2 = " avx2 " in cpuinfo and " fma " in cpuinfo
    return {
        "nproc": os.cpu_count(),
        "kernel_release": platform.release(),
        "cpu": cpu,
        "distance_kernel_flag": f"--kernel={KERNEL}",
        "distance_kernel_active": KERNEL if avx2 else "blocked",
        "selection": "auto (KNNSHAP_SELECT unset): full-rank requests sort, "
                     "truncated requests select the top K*",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--commit", default="")
    args = parser.parse_args()

    why = {w["name"]: w["why"] for w in
           json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]}
    seeds = list(range(1, args.runs + 1))
    baseline = {"commit": args.commit, "host": host_facts(), "seeds": seeds,
                "confirm_seeds": CONFIRM_SEEDS, "seconds": args.seconds,
                "workloads": {}}
    for workload in BENCHMARKED:
        spec = WORKLOADS[workload]
        samples, attempted = {}, []
        for seed in seeds:
            metrics, ops = run(workload, seed, args.seconds, 0)
            attempted.append(ops)
            for name, value in metrics.items():
                samples.setdefault(name, []).append(value)
        end_to_end = {}
        for name, values in samples.items():
            median, iqr = spread(values)
            end_to_end[name] = {"median": median, "iqr_share": iqr,
                                "values": values}
            print(f"{workload:14s} {name:16s} median {median:10.4f} "
                  f"spread {iqr:.4f}", flush=True)
        baseline["workloads"][workload] = {
            "why": why[workload],
            "predicted_flat": spec["flat"],
            "attempted_ops": attempted,
            "end_to_end": end_to_end,
            "per_layer_seed_1": run(workload, 1, args.seconds, 1)[0],
        }
    (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
