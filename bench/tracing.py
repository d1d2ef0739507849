"""Spans around the program's public layer functions, recorded from outside.

A :class:`Tracer` replaces each target function, wherever a ``qdeco`` module
binds it, with a wrapper that records one span per call: name, start, end
and parent span.  Spans stay in memory until :meth:`Tracer.dump`.  A
target missing from the program (renamed or deleted by a later change) is
listed in ``Tracer.absent`` and its layer reads zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_OBSERVABLES = ("purity", "concurrence", "von_neumann", "offdiagonal_decay",
                "unitality_distance")
_PREDICTIONS = ("purity_lr", "exponentiate", "sigma_purity",
                "concurrence_prediction", "nqubit_sum_rule", "rmtki_prediction")
SPIN_COUNTS = (14, 16)


def _states_out(result) -> int:
    return int(np.size(result) // np.shape(result)[-1])


def _spins_label(args, kwargs) -> str:
    model = args[1] if len(args) > 1 else kwargs["model"]
    return f".n{model.num_spins}"


# (module, attribute path, layer, work counted from the result, label)
TARGETS = (
    [("experiments", "run", "experiments.run_self", None, None),
     ("experiments", "write_outputs", "experiments.write", None, None),
     ("rmt", "sample_matrix", "rmt.sample", None, None),
     ("rmt", "sample_gaussian", "rmt.gaussian", None, None),
     ("rmt_models", "draw_realization", "rmt_models.draw", None, None),
     ("rmt_models", "Propagator.__init__", "rmt_models.diagonalize", None, None),
     ("rmt_models", "Propagator.states", "rmt_models.propagate", _states_out, None),
     ("rmt_models", "reduce_central", "rmt_models.reduce", None, None),
     ("qstate", "partial_trace", "qstate.partial_trace", None, None),
     ("qstate", "random_state", "qstate.random_state", None, None),
     ("kicked_ising", "floquet_step", "kicked_ising.period", None, _spins_label),
     ("kicked_ising", "initial_state", "kicked_ising.init", None, None),
     ("kicked_ising", "evolve_ki", "kicked_ising.evolve_self", None, None)]
    + [("metrics", name, "metrics.observables", None, None) for name in _OBSERVABLES]
    + [("linear_response", name, "linear_response.predict", None, None)
       for name in _PREDICTIONS]
)

# per-layer metric -> unit; times are self times per op, counts are per op
PER_LAYER = {
    "experiments.run_self_s": "s",
    "experiments.write_s": "s",
    "experiments.output_bytes": "bytes",
    "rmt.sample_s": "s",
    "rmt.sample_calls": "count",
    "rmt_models.draw_s": "s",
    "rmt_models.diagonalize_s": "s",
    "rmt_models.hamiltonians": "count",
    "rmt_models.propagate_s": "s",
    "rmt_models.states_out": "count",
    "rmt_models.reduce_s": "s",
    "metrics.observables_s": "s",
    "metrics.samples": "count",
    "qstate.partial_trace_s": "s",
    "qstate.random_state_s": "s",
    **{f"kicked_ising.{m}.n{n}": u for n in SPIN_COUNTS
       for m, u in (("period_s", "s"), ("periods", "count"), ("period_ms", "ms"))},
    "kicked_ising.init_s": "s",
    "kicked_ising.evolve_self_s": "s",
    "linear_response.predict_s": "s",
    "trace.wall_s": "s",
    "trace.accounted_pct": "%",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, work)
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, work, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            full = name + label(args, kwargs) if label else name
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append((sid, full, start, end, parent,
                               work(result) if work else 1))
            return result
        return traced

    def install(self):
        """Wrap every target; record missing ones in ``absent``."""
        self.absent = []
        modules = {k: v for k, v in sys.modules.items()
                   if k.startswith("qdeco.") and v is not None}
        for mod_name, path, layer, work, label in TARGETS:
            home = modules.get(f"qdeco.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{path}")
                continue
            wrapped = self._wrap(fn, layer, work, label)
            if owner_name:  # a method: patch the class only
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules.values():  # every binding, re-exports included
                if mod.__dict__.get(attr) is fn:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------
    def layer_totals(self):
        """Self time and call/work count per layer name."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        count = defaultdict(int)
        for sid, name, start, end, _, work in self.spans:
            self_s[name] += (end - start) - child_time[sid]
            count[name] += work
        return self_s, count

    def dump(self, path, extra: dict):
        t0 = min((s[2] for s in self.spans), default=0.0)
        spans = [{"id": sid, "name": name, "start": start - t0,
                  "end": end - t0, "parent": parent, "work": work}
                 for sid, name, start, end, parent, work in
                 sorted(self.spans, key=lambda s: s[0])]
        with open(path, "w") as fh:
            json.dump({**extra, "absent": self.absent, "spans": spans}, fh)


def per_layer_metrics(tracer: Tracer, n_ops: int, traced_walls, untraced_walls,
                      output_bytes: int) -> dict:
    """Per-op per-layer metrics from the spans of ``n_ops`` traced ops."""
    self_s, count = tracer.layer_totals()

    def t(layer):
        return self_s.get(layer, 0.0) / n_ops

    def c(layer):
        return count.get(layer, 0) / n_ops

    out = {
        "experiments.run_self_s": t("experiments.run_self"),
        "experiments.write_s": t("experiments.write"),
        "experiments.output_bytes": output_bytes,
        "rmt.sample_s": t("rmt.sample") + t("rmt.gaussian"),
        "rmt.sample_calls": c("rmt.sample"),
        "rmt_models.draw_s": t("rmt_models.draw"),
        "rmt_models.diagonalize_s": t("rmt_models.diagonalize"),
        "rmt_models.hamiltonians": c("rmt_models.diagonalize"),
        "rmt_models.propagate_s": t("rmt_models.propagate"),
        "rmt_models.states_out": c("rmt_models.propagate"),
        "rmt_models.reduce_s": t("rmt_models.reduce"),
        "metrics.observables_s": t("metrics.observables"),
        "metrics.samples": c("metrics.observables"),
        "qstate.partial_trace_s": t("qstate.partial_trace"),
        "qstate.random_state_s": t("qstate.random_state"),
        "kicked_ising.init_s": t("kicked_ising.init"),
        "kicked_ising.evolve_self_s": t("kicked_ising.evolve_self"),
        "linear_response.predict_s": t("linear_response.predict"),
    }
    for n in SPIN_COUNTS:
        layer = f"kicked_ising.period.n{n}"
        out[f"kicked_ising.period_s.n{n}"] = t(layer)
        out[f"kicked_ising.periods.n{n}"] = c(layer)
        out[f"kicked_ising.period_ms.n{n}"] = (
            1e3 * t(layer) / c(layer) if c(layer) else 0.0)
    wall = float(np.mean(traced_walls))
    out["trace.wall_s"] = wall
    out["trace.accounted_pct"] = 100.0 * sum(self_s.values()) / n_ops / wall
    out["trace.overhead_pct"] = 100.0 * (
        float(np.median(traced_walls)) / float(np.median(untraced_walls)) - 1.0)
    out["trace.spans"] = len(tracer.spans) / n_ops
    return out
