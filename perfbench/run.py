#!/usr/bin/env python3
"""The knnshap serving benchmark: one command, closed-loop workloads.

    python3 perfbench/run.py --workload fullrank --seed 1 --seconds 20 --trace 0

Builds knnshap_serve and the per-layer harness from the source tree that
contains this directory (into .bench_build/), generates the workload's
inputs from --seed, and drives the server over its JSONL stdin/stdout
protocol with 4 closed-loop clients. Every value reply is checked: it must
be ok and byte-identical to the reply an unsharded reference server gives
when it replays the same request stream afterwards.

--trace 0 prints the end-to-end metrics (tracing off). --trace 1 prints the
per-layer metrics: it times traced against untraced requests on the
server, scrapes its shard counters, and runs perfbench_layers, which times
calls into each module's public functions on the same inputs.

The last stdout line is one JSON object:
{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from serve import (Server, closed_loop, digest, replay, start_workers,  # noqa: E402
                   stop)
from workloads import WORKLOADS, Inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CLIENTS = 4
SETUP_REPS = 3
WARM_REQUESTS = 2  # requests 0 and 1 fit both parameter sets in set-up
MIN_VALUES = 120  # value requests per run, so >= 11 timed ones lie beyond p90
LAYER_REQUESTS = 600  # request lines handed to perfbench_layers
SHARD_COUNTERS = ("full_loads", "delta_blocks", "failovers")

# Metrics and their units; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "queries_per_s": "1/s", "ok_share": "share", "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "json.parse_ms": "ms", "json.load_parse_ms": "ms",
    "json.serialize_ms": "ms", "json.response_bytes": "B",
    "serve.handle_ms": "ms", "serve.append_ms": "ms",
    "engine.value_ms": "ms", "engine.fit_ms": "ms",
    "engine.cache_hit_ratio": "ratio", "engine.fit_reuse_ratio": "ratio",
    "knn.distance_ms_per_query": "ms", "knn.sort_ms_per_query": "ms",
    "knn.select_ms_per_query": "ms", "knn.merge_ms_per_query": "ms",
    "core.recursion_ms_per_query": "ms",
    "shard.encode_ms": "ms", "shard.decode_ms": "ms",
    "shard.worker_ms_per_query": "ms", "shard.wire_ms_per_query": "ms",
    "shard.candidates_ms_per_query": "ms", "shard.fanout_ms_per_query": "ms",
    "shard.wire_bytes_per_query": "B", "shard.sync_s": "s",
    "shard.full_loads": "count", "shard.delta_blocks": "count",
    "shard.failovers": "count",
    "self.json_ms": "ms", "self.serve_ms": "ms", "self.engine_ms": "ms",
    "self.knn_ms": "ms", "self.core_ms": "ms", "self.shard_ms": "ms",
    "obs.trace_overhead_pct": "%",
    "accounting.residual_pct": "%", "accounting.worst_self_pct": "%",
    "accounting.fanout_gap_pct": "%",
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the serve binary and the layer harness."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: no knnshap source tree next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "knnshap_serve", "perfbench_layers"], check=True, **quiet)
    return BUILD / "knnshap" / "knnshap_serve", BUILD / "perfbench_layers"


def start_sut(serve_bin, inputs, run_dir):
    """Spawns the system under test, loads the corpus and answers the
    warm requests. Returns (server, seconds from spawn, warm reply hashes)."""
    server = Server(serve_bin, run_dir, inputs.spec["shards"])
    try:
        if not server.call(inputs.load_line).startswith(b'{"ok":true'):
            raise RuntimeError("corpus load failed")
        hashes = {}
        for j in range(WARM_REQUESTS):
            reply = server.call(inputs.request(j)[2])
            if not reply.startswith(b'{"ok":true'):
                raise RuntimeError(f"warm request {j} failed: {reply[:200]!r}")
            hashes[j] = digest(reply)
        return server, time.perf_counter() - server.spawned_at, hashes
    except BaseException:
        server.close()
        raise


def reference_hashes(serve_bin, inputs, run_dir, last_j):
    """Reply hashes of an unsharded reference server for requests < last_j."""
    ref = Server(serve_bin, run_dir, 0)
    try:
        if not ref.call(inputs.load_line).startswith(b'{"ok":true'):
            raise RuntimeError("reference corpus load failed")
        return replay(ref, inputs, last_j)
    finally:
        ref.close()


def check(records, warm, reference):
    """Counts failed ops: error replies, and value replies whose bytes
    differ from the reference's. `warm` holds (j, hash) pairs."""
    failed = 0
    for j, h in warm:
        failed += reference.get(j) != h
    for rec in records:
        if not rec.ok:
            failed += 1
        elif rec.kind == "value" and reference.get(rec.j) != rec.hash:
            failed += 1
    return failed


def end_to_end(serve_bin, inputs, run_dir, seconds):
    """SETUP_REPS fresh servers each answer the stream from request
    WARM_REQUESTS on for a share of the window, so per-process effects
    (memory placement, worker start-up) average out within one run."""
    setups, records, timed, rss, warm_all = [], [], [], 0.0, []
    for rep in range(SETUP_REPS):
        server, setup_s, warm = start_sut(serve_bin, inputs, run_dir)
        setups.append(setup_s)
        warm_all += warm.items()
        try:
            part = closed_loop(
                server, inputs, WARM_REQUESTS, seconds / SETUP_REPS, CLIENTS,
                min_values=-(-MIN_VALUES // SETUP_REPS))
            rss = max(rss, server.peak_rss_mb())
        finally:
            server.close()
        records += part
        # The first round runs while each pool thread first touches its
        # scratch buffers: checked, but not timed.
        timed += part[CLIENTS:]
        log(f"server {rep}: set-up {setup_s:.3f} s, median latency "
            f"{statistics.median(r.latency for r in part[CLIENTS:]) * 1e3:.1f} ms")
    log("measured; checking against the reference")
    last_j = max(r.j for r in records) + 1
    failed = check(records, warm_all,
                   reference_hashes(serve_bin, inputs, run_dir, last_j))
    values = [r for r in timed if r.kind == "value" and r.ok]
    lat_ms = [r.latency * 1e3 for r in values]
    attempted = len(records) + len(warm_all)
    log(f"{len(values)} value replies "
        f"({len(lat_ms) - int(0.9 * len(lat_ms))} beyond p90); "
        f"setups {', '.join('%.3f' % s for s in setups)} s; failed {failed}")
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    measured = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": deciles[4],
        "latency_p90_ms": deciles[8],
        # Little's law: CLIENTS ops are always in flight, so throughput is
        # CLIENTS over the mean op latency. Unlike a count over the window
        # it does not depend on where the window cuts the last requests.
        "queries_per_s": CLIENTS * sum(r.queries for r in values) /
        sum(r.latency for r in timed),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
    }
    metrics = {name: (measured[name], unit)
               for name, unit in END_TO_END.items()}
    return attempted, failed, metrics


def scrape_shard_counters(server):
    """The knnshap_shard_* counters, read through the metrics op."""
    text = json.loads(server.call(b'{"op":"metrics"}\n'))["text"]
    counts = dict.fromkeys(SHARD_COUNTERS, 0.0)
    for entry in text.splitlines():
        for name in SHARD_COUNTERS:
            if entry.startswith(f"knnshap_shard_{name}_total "):
                counts[name] = float(entry.split()[1])
    return counts


def run_layers(layers_bin, inputs, run_dir, seconds):
    """perfbench_layers on this workload's inputs, against fresh shard
    workers when the workload has them."""
    requests = run_dir / "requests.jsonl"
    with open(requests, "wb") as out:
        out.write(inputs.load_line)
        for j in range(LAYER_REQUESTS):
            out.write(inputs.request(j)[2])
    argv = [str(layers_bin), f"--requests={requests}", f"--seconds={seconds}"]
    workers = []
    try:
        if inputs.spec["shards"]:
            workers, endpoints = start_workers(layers_bin.parent / "knnshap" /
                                               "knnshap_serve", run_dir,
                                               inputs.spec["shards"])
            argv.append("--shard-remote=" + ";".join(endpoints))
        result = subprocess.run(argv, stdout=subprocess.PIPE, check=True,
                                timeout=170)
    finally:
        stop(workers)
        requests.unlink()
    return json.loads(result.stdout)


def traced_run(serve_bin, layers_bin, inputs, run_dir, seconds):
    """A closed loop in which the value requests of every other period of
    the stream ask for a trace echo (their per-query service times give
    the tracing overhead), the shard counters, then the per-layer harness."""
    period = inputs.spec["period"]

    def traced(j):
        # Whole periods alternate, so both sets hold the same mix of
        # methods and the same positions after an append.
        return j // period % 2 == 1

    server, _, warm = start_sut(serve_bin, inputs, run_dir)
    try:
        records = closed_loop(server, inputs, WARM_REQUESTS, seconds / 2,
                              CLIENTS, traced=traced)
        counters = scrape_shard_counters(server)
    finally:
        server.close()
    last_j = max(r.j for r in records) + 1
    failed = check(records, warm.items(),
                   reference_hashes(serve_bin, inputs, run_dir, last_j))
    # With a fixed number of clients, throughput is the inverse of the
    # per-query service time, so the service-time ratio is the qps ratio.
    per_query = {}
    for flag in (False, True):
        done = [r for r in records[CLIENTS:]
                if r.kind == "value" and r.ok and traced(r.j) == flag]
        per_query[flag] = (sum(r.latency for r in done) /
                           sum(r.queries for r in done))
    layers = run_layers(layers_bin, inputs, run_dir, seconds / 2)
    layers["obs.trace_overhead_pct"] = 100.0 * (per_query[True] /
                                                per_query[False] - 1.0)
    for name, count in counters.items():
        layers[f"shard.{name}"] = count
    log(f"accounting: residual {layers['accounting.residual_pct']:.2f}%, "
        f"worst self {layers['accounting.worst_self_pct']:.2f}%, "
        f"fan-out gap {layers['accounting.fanout_gap_pct']:.2f}%")
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    return len(records) + len(warm), failed, metrics


def main():
    # Raised priority, inherited by every server and worker, keeps unrelated
    # processes on the host from landing in the measurement; without the
    # privilege the run goes on at normal priority.
    try:
        os.nice(-10)
    except OSError:
        pass
    # A SIGTERM unwinds like an error, so every server and worker
    # started so far is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    serve_bin, layers_bin = build()
    log(f"built in {time.perf_counter() - started:.1f} s")
    run_dir = BUILD / "run" / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(args.workload, args.seed)
    inputs.prepare(WORKLOADS[args.workload]["ahead"])
    log(f"inputs generated at {time.perf_counter() - started:.1f} s")
    if args.trace:
        attempted, failed, metrics = traced_run(
            serve_bin, layers_bin, inputs, run_dir, args.seconds)
    else:
        attempted, failed, metrics = end_to_end(serve_bin, inputs, run_dir,
                                                args.seconds)
    log(f"done at {time.perf_counter() - started:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
