"""One workload in a fresh process: warm-up, timed ops, checks, result.

Started by ``run.py`` with pinned thread settings and the generated config
file.  An op is one ``experiments.run`` plus ``experiments.write_outputs``;
only that call pair is timed.  Each op's written outputs are then checked
(and must be byte-identical to the first op's, since config and seed are the
same).  After the timed ops the process reads its peak resident memory, and
only then runs the reference checks, whose dense matrices would else count.

With ``--trace 1`` untraced and traced ops alternate; the traced ones give
the per-layer self times (see ``tracing``) and the overhead of tracing.
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import qdeco  # noqa: E402
from qdeco import experiments as xp  # noqa: E402
from qdeco import kicked_ising, linear_response, qstate, rmt_models  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 3  # timed ops per run, however long they take


class Runner:
    def __init__(self, workload, cfg):
        self.workload = workload
        self.cfg = cfg
        self.out = Path(cfg.out)
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.output_bytes = 0

    def op(self, tracer=None):
        """One checked op; returns its wall time, or None if it failed."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            tables, summary = xp.run(self.cfg)
            paths = xp.write_outputs(self.cfg, tables, summary)
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        fails = self.check(paths)
        if fails:
            print(f"op {self.attempted} failed: " + "; ".join(fails), file=sys.stderr)
            self.failed += 1
            return None
        return wall

    def check(self, paths) -> list[str]:
        h = hashlib.sha256()
        size = 0
        for p in sorted(paths):
            data = Path(p).read_bytes()
            h.update(Path(p).name.encode() + b"\0" + data)
            size += len(data)
        try:
            fails = self.workload.check_outputs(self.cfg, self.out)
        except Exception as err:  # a missing or malformed output file
            fails = [f"outputs unreadable: {err!r}"]
        if self.digest is None:
            self.digest, self.output_bytes = h.hexdigest(), size
        elif h.hexdigest() != self.digest:
            fails.append("outputs differ from the first op's (same config and seed)")
        return fails


def settings(cfg) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    kernels = sys.modules.get("qdeco._kernels")
    return {
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
        | {"config.threads": cfg.threads, "cores": len(os.sched_getaffinity(0))},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_backend": (kernels.active_backend()
                           if hasattr(kernels, "active_backend") else None),
        "qdeco": str(Path(qdeco.__file__).parent),
    }


def timed_loop(step, seconds: float):
    """Call ``step`` until the measured time reaches ``seconds`` and at
    least MIN_OPS calls were made; ``step`` returns the time it measured."""
    measured, calls = 0.0, 0
    while measured < seconds or calls < MIN_OPS:
        measured += step()
        calls += 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    if Path(qdeco.__file__).resolve().parent != (SRC / "qdeco").resolve():
        sys.exit(f"qdeco imported from {qdeco.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    cfg = xp.load_config(args.config)
    runner = Runner(workload, cfg)
    runner.op()  # warm-up: caches, lazy imports, first-call costs
    walls, traced_walls = [], []
    tracer = tracing.Tracer() if args.trace else None
    traced_ops = 0

    def step():
        nonlocal traced_ops
        start = time.perf_counter()
        wall = runner.op()
        if wall is not None:
            walls.append(wall)
        if tracer is None:
            return wall or time.perf_counter() - start
        traced_ops += 1
        wall = runner.op(tracer)
        if wall is not None:
            traced_walls.append(wall)
        return time.perf_counter() - start

    timed_loop(step, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    q = SimpleNamespace(rng=qstate.rng, qstate=qstate, rmt_models=rmt_models,
                        kicked_ising=kicked_ising, linear_response=linear_response)
    try:
        reference_failures = workload.check_reference(cfg, q)
    except Exception:
        reference_failures = ["reference check raised:\n" + traceback.format_exc()]
    for line in reference_failures:
        print(f"reference check failed: {line}", file=sys.stderr)

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "walls": walls,
        "samples_per_op": workload.samples(cfg),
        "peak_rss_mb": peak_rss_mb,
        "reference_failures": reference_failures,
        "settings": settings(cfg),
    }
    if tracer is not None and traced_walls and walls:
        result["per_layer"] = tracing.per_layer_metrics(
            tracer, traced_ops, traced_walls, walls, runner.output_bytes)
        result["absent"] = tracer.absent
        if args.trace_file:
            tracer.dump(args.trace_file, {"workload": args.workload,
                                          "settings": result["settings"]})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
