"""Benchmark of the qdeco experiment engines, one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/``.  The seed makes the workload's config file (``workloads.py``); the
program reads only that file.  Every child process gets pinned thread
settings: one experiment thread and as many BLAS/OpenMP threads as there are
cores, at most two, so nothing depends on the caller's environment.

``--trace 0`` prints the end-to-end metrics:
  samples_per_s  samples per op divided by the median op wall time
                 (``experiments.run`` + ``write_outputs``, after a warm-up)
  setup_s        median over fresh ``python -m qdeco.cli`` processes of the
                 time to finish the smallest run of the workload's kind
  peak_rss_mb    peak resident memory of the process that ran the ops
``--trace 1`` prints the per-layer metrics of ``tracing.PER_LAYER`` and
writes the spans to ``bench/.out/<workload>/trace.json``.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  Exits non-zero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3
TIME_LIMIT_S = 170.0  # the whole call, probes included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EXP_") and k != "QDECO_BACKEND"}
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def child(argv, env, timeout: float, what: str) -> subprocess.CompletedProcess:
    """Run a child to completion; a timeout kills it and waits for it."""
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return proc


def setup_time(kind: str, config: Path, out: Path, env, deadline: float) -> float:
    """Median wall time of fresh CLI processes running the smallest config."""
    times = []
    for _ in range(SETUP_PROBES):
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        child([sys.executable, "-m", "qdeco.cli", kind, "--config", str(config)],
              env, deadline - time.monotonic(), "set-up run")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "qdeco" / "experiments.py").is_file():
        raise BenchError(f"no qdeco sources under {SRC}; run from a checkout")
    workload = WORKLOADS[args.workload]
    work = HERE / ".out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seed = args.seed % (1 << 32)
    config, probe = work / "config.ini", work / "smallest.ini"
    config.write_text(config_text(workload.fields(seed, str(work / "op"))))
    probe.write_text(config_text(workload.fields(seed, str(work / "smallest"), True)))
    env = pinned_env()

    metrics = {}
    if not args.trace:
        setup_s = setup_time(workload.kind, probe, work / "smallest", env, deadline)
        metrics["setup_s"] = (setup_s, "s")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
            "--config", str(config), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--trace-file", str(work / "trace.json")]
    proc = child(argv, env, deadline - time.monotonic(), "workload process")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    print("settings: " + json.dumps(res["settings"], sort_keys=True))
    if not res["walls"]:
        raise BenchError("no op succeeded")
    if args.trace:
        if "per_layer" not in res:
            raise BenchError("no traced op succeeded")
        for name in res["absent"]:
            print(f"absent trace target: {name}")
        metrics = {k: (res["per_layer"][k], unit) for k, unit in PER_LAYER.items()}
    else:
        wall = statistics.median(res["walls"])
        metrics = {"samples_per_s": (res["samples_per_op"] / wall, "samples/s"),
                   **metrics,
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
        print(f"ops: {len(res['walls'])} timed, median {wall:.4f} s, "
              f"{res['samples_per_op']} samples each")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {"correct": not res["reference_failures"],
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
