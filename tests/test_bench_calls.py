"""The benchmark under ``bench/`` reaches into ``qdeco`` by name, so a
renamed function or a dropped keyword would first show up as a failed
benchmark run.  These checks parse ``bench/workloads.py`` and
``bench/worker.py`` (read only, never imported) and resolve each such name
and keyword against the package."""

import ast
import inspect
from pathlib import Path

import pytest

import qdeco
# importing a submodule binds it on the package, as ``q`` binds it in bench
from qdeco import experiments, kicked_ising, linear_response, qstate, rmt_models  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"
# what the benchmark binds to the package: ``q`` holds its modules (and
# ``rng``), ``ki`` is kicked_ising and ``xp`` experiments
ROOTS = {"q": qdeco, "ki": kicked_ising, "xp": experiments}


def _chain(node):
    """(root name, attribute names) of an attribute chain that starts at one
    of ``ROOTS``, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if attrs and isinstance(node, ast.Name) and node.id in ROOTS:
        return node.id, attrs[::-1]
    return None


def _resolve(root, attrs):
    obj = ROOTS[root]
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name", ["workloads.py", "worker.py"])
def test_bench_calls_resolve_in_package(name):
    tree = ast.parse((BENCH / name).read_text())
    failures, keywords = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qdeco":
            failures += [f"from qdeco import {a.name}" for a in node.names
                         if not hasattr(qdeco, a.name)]
        chain = _chain(node)
        if chain is not None:
            try:
                _resolve(*chain)
            except AttributeError:
                dotted = ".".join([chain[0], *chain[1]])
                failures.append(f"{name}:{node.lineno}: {dotted} is missing")
        if isinstance(node, ast.Call) and (chain := _chain(node.func)):
            try:
                params = inspect.signature(_resolve(*chain)).parameters
            except AttributeError:
                continue  # reported with the chain itself
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                keywords.add((chain[1][-1], kw.arg))
                if kw.arg not in params:
                    failures.append(f"{name}:{node.lineno}: {chain[1][-1]}() "
                                    f"takes no keyword {kw.arg!r}")
    assert not failures, "\n".join(failures)
    if name == "workloads.py":
        # the walk reaches the calls the benchmark depends on
        assert {("monte_carlo", "params_sampler"),
                ("monte_carlo", "collect_samples"),
                ("build_env_config", "j_env")} <= keywords
