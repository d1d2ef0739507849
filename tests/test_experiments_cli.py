import ctypes
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qdeco.experiments as xp
from qdeco import kicked_ising as ki
from qdeco import linear_response as lr
from qdeco import metrics, qstate
from qdeco import rmt_models as rm
from qdeco.cli import main
from qdeco.errors import ConfigError
from qdeco.trajectory import average


def tiny_decay_cfg(**kw):
    base = xp.ExperimentConfig(
        kind="rmt-decay", configuration="spectator", n_env=12, coupling=0.05,
        delta=(0.0,), n_hamiltonians=2, n_initials=2, n_times=5, seed=3)
    return replace(base, **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        xp.ExperimentConfig(kind="no-such-thing")
    with pytest.raises(ConfigError):
        xp.apply_overrides(xp.ExperimentConfig(), ["bogus=1"])
    cfg = xp.apply_overrides(xp.ExperimentConfig(), ["n_env=64", "delta=0,8"])
    assert cfg.n_env == 64 and cfg.delta == (0.0, 8.0)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\nkind = rmt-decay\nseed = 11\n"
        "[model]\nn_env = 16\ncoupling = 0.02\n[times]\nn_times = 4\n")
    cfg = xp.load_config(path)
    assert (cfg.kind, cfg.seed, cfg.n_env, cfg.n_times) == ("rmt-decay", 11, 16, 4)
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nnot_a_key = 3\n")
    with pytest.raises(ConfigError):
        xp.load_config(bad)
    bad2 = tmp_path / "bad2.ini"
    bad2.write_text("[nowhere]\nn_env = 4\n")
    with pytest.raises(ConfigError):
        xp.load_config(bad2)


def test_config_sections_cover_every_key_once(tmp_path):
    keys = [k for section in xp._SECTIONS.values() for k in section]
    assert sorted(keys) == sorted(f.name for f in fields(xp.ExperimentConfig))
    assert len(keys) == len(set(keys))
    cfg = replace(
        xp.ExperimentConfig(), kind="ki-decay", seed=8, threads=1, out="elsewhere",
        configuration="joint", ensemble="GOE", n_env=64, coupling=0.02,
        delta=(0.1, 0.2), delta2=0.3, theta=0.5, phi=0.6, gamma=0.1,
        env_spectrum="raw", n_hamiltonians=3, n_initials=4, t_max_over_tauh=1.5,
        n_times=9, ki_kind="a", q_env=6, j_prime=0.01, j_env=0.7,
        field="integrable", steps=10, stride=2, n_realizations=3, ring_spins=8,
        memory_qubits=2, positions=(1.0, 2.0), mem_coupling=0.01,
        n_env_list=(8.0, 16.0), sigma_time_factor=1.1, bin_width=0.01,
        fit_window=(1.0, 5.0), source="goe", rmt_dim=50, rmt_draws=10,
        ki_spins=8, k2_points=10)
    default = xp.ExperimentConfig()
    text = ""
    for section, keys in xp._SECTIONS.items():
        text += f"[{section}]\n"
        for key in keys:
            value = getattr(cfg, key)
            # threads has one legal value, the default: runs are serial
            assert value != getattr(default, key) or key == "threads", key
            if isinstance(value, tuple):
                value = ", ".join(map(repr, value))
            text += f"{key} = {value}\n"
    path = tmp_path / "every-key.ini"
    path.write_text(text)
    assert xp.load_config(path) == cfg


def test_lambda_zero_purity_column_is_one():
    tables, summary = xp.run(tiny_decay_cfg(coupling=0.0))
    p = tables["rmt-decay"].column("P_mean")
    assert np.max(np.abs(p - 1.0)) < 1e-10
    assert summary["kind"] == "rmt-decay"


def test_decay_table_column_contract():
    tables, _ = xp.run(tiny_decay_cfg())
    cols = tables["rmt-decay"].columns
    assert cols == ["t", "P_mean", "P_std", "C_mean", "C_std", "S_mean",
                    "D_mean", "analytic_P", "elr_P", "analytic_C"]
    one, _ = xp.run(tiny_decay_cfg(configuration="one-qubit", theta=0.0))
    assert one["rmt-decay"].columns == ["t", "P_mean", "P_std", "S_mean",
                                        "D_mean", "analytic_P", "elr_P"]


def test_multi_delta_variants():
    tables, summary = xp.run(tiny_decay_cfg(delta=(0.0, 8.0)))
    assert set(tables) == {"rmt-decay-delta0", "rmt-decay-delta8"}
    assert len(summary["variants"]) == 2


@pytest.mark.parametrize("configuration", ["spectator", "joint"])
def test_analytic_concurrence_starts_at_pair_concurrence(configuration):
    # a pair at theta = 0.3 starts at C = sin 0.6: the spectator curve starts
    # there; no curve applies when both qubits of such a pair are coupled
    cfg = tiny_decay_cfg(configuration=configuration, n_env=32, theta=0.3,
                         seed=5)
    tables, summary = xp.run(cfg)
    table, variant = tables["rmt-decay"], summary["variants"][0]
    assert abs(table.column("C_mean")[0] - math.sin(0.6)) < 1e-12
    c = table.column("analytic_C")
    if configuration == "spectator":
        assert abs(c[0] - math.sin(0.6)) < 1e-12
        assert not any("analytic_C" in w for w in variant["lr_warnings"])
    else:
        assert np.all(np.isnan(c))
        assert variant["sudden_death_time"] is None
        assert any("analytic_C is NaN" in w for w in variant["lr_warnings"])


def test_second_qubit_prediction_uses_its_own_params():
    # qubit 1 starts with phi = eta = 0 and splitting delta2, in the
    # simulation and in the prediction alike
    cfg = tiny_decay_cfg(configuration="separate", n_env=8, theta=0.3,
                         delta=(0.5,), delta2=0.0)
    table = xp.run(cfg)[0]["rmt-decay"]
    t = table.column("t")
    tau = 2.0 * math.sqrt(8)
    lrc = lr.LRConfig("separate", (2, 2), (tau, tau), (0.05, 0.05), (0.5, 0.0),
                      n_env=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = lr.purity_lr(lrc, lr.InitParams(theta=0.3, phi=cfg.phi), t,
                            params2=lr.InitParams(theta=0.3))
    assert np.max(np.abs(table.column("analytic_P") - want)) < 1e-14


def test_spectator_splitting_moves_no_purity():
    # the spectator is uncoupled, so its splitting is a local unitary: the
    # prediction reads only the coupled qubit's splitting, and the simulated
    # purity and concurrence do not see it either
    runs = [xp.run(tiny_decay_cfg(delta=(0.4,), delta2=d2))[0]["rmt-decay"]
            for d2 in (0.0, 0.9)]
    for name in ("analytic_P", "elr_P", "analytic_C"):
        assert runs[0].column(name).tobytes() == runs[1].column(name).tobytes()
    for name in ("P_mean", "C_mean"):
        assert np.max(np.abs(runs[0].column(name) - runs[1].column(name))) < 1e-12


# one tiny config of each runner kind
TINY = {
    "rmt-decay": dict(configuration="spectator", n_env=12, coupling=0.05,
                      n_hamiltonians=2, n_initials=2, n_times=5),
    "rmt-cp": dict(configuration="spectator", n_env=16, coupling=0.1,
                   n_hamiltonians=2, n_initials=2, n_times=6),
    "rmt-sigma": dict(configuration="one-qubit", ensemble="GOE", coupling=1e-3,
                      gamma=0.0, n_env_list=(8, 16), n_hamiltonians=2,
                      n_initials=2),
    "unitality": dict(configuration="one-qubit", coupling=0.1,
                      n_env_list=(8, 16), n_realizations=2, n_times=3),
    "ki-decay": dict(ki_kind="e", q_env=4, j_prime=0.05, steps=12, stride=2,
                     n_realizations=2),
    "ki-cp": dict(ki_kind="e", q_env=4, j_prime=0.05, steps=30, stride=2,
                  n_realizations=2),
    "ki-vs-rmt": dict(ki_kind="d", q_env=6, j_prime=0.005, steps=16, stride=2,
                      n_realizations=2, fit_window=(2.0, 12.0)),
    "memory-sumrule": dict(ring_spins=6, memory_qubits=3, positions=(0, 2, 2),
                           mem_coupling=0.05, field="chaotic-soft", steps=20,
                           stride=5, n_realizations=2),
    "spectral-stats": dict(source="gue", rmt_dim=40, rmt_draws=4, k2_points=5),
}
# the 16-spin ring plus register, whose reduced block has 2^16 amplitudes
REGISTER = dict(ring_spins=12, memory_qubits=4, positions=(0, 3, 6, 9),
                mem_coupling=0.02, field="chaotic-soft", steps=4, stride=2,
                n_realizations=1)


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_byte_identical_outputs(tmp_path):
    # every CSV and the summary of each kind, byte for byte, over two runs of
    # one config and seed; the larger GOE rmt-sigma runs numpy's dsyevd at
    # sizes where each call spreads over BLAS threads
    configs = list(TINY.items()) + [
        ("rmt-sigma", dict(TINY["rmt-sigma"], n_env_list=(128, 256),
                           n_hamiltonians=4, n_initials=4))]
    for i, (kind, kw) in enumerate(configs):
        runs = []
        for run in (0, 1):
            out = tmp_path / f"{i}-{kind}" / str(run)
            cfg = xp.ExperimentConfig(kind=kind, seed=3, out=str(out), **kw)
            xp.write_outputs(cfg, *xp.run(cfg))
            runs.append(outputs(out))
        assert f"{kind}-summary.json" in runs[0]
        assert runs[0] == runs[1], kind


def test_runs_import_only_the_scipy_they_call(tmp_path):
    # scipy is imported where it is called, and no run calls it: kicked-Ising
    # runs at any size, spectral-stats and random-matrix runs of both
    # ensembles (``_lapack`` and numpy's BLAS) load none of it.  Nor do they
    # load numpy.ma (np.unique and np.union1d would)
    script = (
        "import ast, sys\n"
        "import qdeco.experiments as xp\n"
        "kind, kw = ast.literal_eval(sys.argv[2])\n"
        "cfg = xp.ExperimentConfig(kind=kind, seed=3, out=sys.argv[1], **kw)\n"
        "xp.write_outputs(cfg, *xp.run(cfg))\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.startswith('scipy') or m == 'numpy.ma')))\n")
    src = str(Path(xp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    configs = {
        "ki-decay": ("ki-decay", TINY["ki-decay"]),
        "memory-sumrule": ("memory-sumrule", dict(REGISTER, steps=2)),
        "spectral-stats-gue": ("spectral-stats", TINY["spectral-stats"]),
        "spectral-stats-ki": ("spectral-stats",
                              dict(source="ki-chaotic", ki_spins=8)),
        "rmt-decay-goe": ("rmt-decay", dict(TINY["rmt-decay"], ensemble="GOE")),
        "rmt-sigma-goe": ("rmt-sigma", TINY["rmt-sigma"]),
        "unitality-goe": ("unitality", dict(TINY["unitality"], ensemble="GOE")),
        "rmt-decay": ("rmt-decay", dict(TINY["rmt-decay"], ensemble="GUE")),
        "rmt-decay-joint": ("rmt-decay", dict(TINY["rmt-decay"], ensemble="GUE",
                                              configuration="joint")),
        "rmt-cp": ("rmt-cp", TINY["rmt-cp"]),
        "unitality": ("unitality", dict(TINY["unitality"], ensemble="GUE")),
    }
    for name, config in configs.items():
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / name), repr(config)],
            env=env, check=True, capture_output=True, text=True)
        assert run.stdout.split() == [], name


def test_random_matrix_runs_send_large_lapack_calls_through_lapack_module(
        monkeypatch, tmp_path):
    # every bath spectrum and block of either ensemble is diagonalized in
    # place by ``_lapack``; numpy's own copying eigh and eigvalsh see only
    # the 4x4 reduced states.  On one usable core every Hamiltonian runs in
    # this process, where the calls are recorded; a run fanned out over two
    # cores writes the same bytes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sizes = {"numpy": [], "_lapack": []}

    def recording(fn, where):
        def wrapped(a, *args, **kw):
            sizes[where].append(np.shape(a)[-1])
            return fn(a, *args, **kw)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            recording(getattr(np.linalg, name), "numpy"))
        monkeypatch.setattr(rm._lapack, name,
                            recording(getattr(rm._lapack, name), "_lapack"))
    for ensemble in ("GOE", "GUE"):
        cfg = xp.ExperimentConfig(kind="rmt-decay", seed=3,
                                  out=str(tmp_path / ensemble),
                                  **dict(TINY["rmt-decay"], ensemble=ensemble,
                                         n_env=64))
        assert xp._workers(cfg) == 1
        xp.write_outputs(cfg, *xp.run(cfg))
    assert sizes["numpy"] and max(sizes["numpy"]) <= 4
    # per Hamiltonian and ensemble: the 64-level bath, then the 128-dim block
    assert sizes["_lapack"] == [64, 128] * 2 * TINY["rmt-decay"]["n_hamiltonians"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for ensemble in ("GOE", "GUE"):
        cfg = xp.ExperimentConfig(kind="rmt-decay", seed=3,
                                  out=str(tmp_path / "fanned" / ensemble),
                                  **dict(TINY["rmt-decay"], ensemble=ensemble,
                                         n_env=64))
        assert xp._workers(cfg) == 2
        xp.write_outputs(cfg, *xp.run(cfg))
        assert outputs(tmp_path / "fanned" / ensemble) == outputs(tmp_path / ensemble)
    # spectral-stats draws its Gaussian levels through the same calls
    sizes["_lapack"].clear()
    for source in ("gue", "goe"):
        cfg = xp.ExperimentConfig(kind="spectral-stats", seed=3,
                                  out=str(tmp_path / source),
                                  **dict(TINY["spectral-stats"], source=source))
        xp.write_outputs(cfg, *xp.run(cfg))
    spectra = TINY["spectral-stats"]
    assert sizes["_lapack"] == [spectra["rmt_dim"]] * 2 * spectra["rmt_draws"]
    assert max(sizes["numpy"]) <= 4


def _runs_across_threads_and_cores(tmp_path, configs, settings):
    """Outputs and worker counts of each config, run in a child process for
    each (OPENBLAS_NUM_THREADS, cores) setting: cores 'all' the child's own,
    'one-core' pinned to one, 'four' four usable cores faked."""
    script = (
        "import ast, os, sys\n"
        "if sys.argv[3] == 'one-core':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "if sys.argv[3] == 'four':\n"
        "    os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
        "import qdeco.experiments as xp\n"
        "for i, (kind, kw) in enumerate(ast.literal_eval(sys.argv[2])):\n"
        "    cfg = xp.ExperimentConfig(kind=kind, seed=3,\n"
        "                              out=f'{sys.argv[1]}/{i}', **kw)\n"
        "    print(xp._workers(cfg))\n"
        "    xp.write_outputs(cfg, *xp.run(cfg))\n")
    src = str(Path(xp.__file__).resolve().parents[1])
    runs, workers = [], []
    for threads, cores in settings:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"{threads}-{cores}"
        run = subprocess.run(
            [sys.executable, "-c", script, str(out), repr(configs), cores],
            env=env, check=True, capture_output=True, text=True)
        workers.append([int(w) for w in run.stdout.split()])
        runs.append([outputs(out / str(i)) for i in range(len(configs))])
    assert all(len(files) == 2 for files in runs[0])
    return runs, workers


def test_kicked_ising_outputs_independent_of_blas_threads(tmp_path):
    # The kicked-Ising time evolutions match byte for byte across BLAS thread
    # counts, the 16-spin register's large reduced block included, and
    # between a child pinned to one core, which steps its evolutions
    # serially, and one that fans them out over every core.  Left out on
    # purpose: spectral-stats with a kicked-ring source (zgeev's eigenvalues
    # change with the thread count).
    configs = [(kind, TINY[kind])
               for kind in ("ki-decay", "ki-cp", "ki-vs-rmt", "memory-sumrule")]
    configs.append(("memory-sumrule", REGISTER))
    runs, workers = _runs_across_threads_and_cores(
        tmp_path, configs, (("1", "all"), ("2", "all"), ("2", "one-core")))
    assert runs[0] == runs[1] == runs[2]
    # the pinned child steps serially; every config has at least two
    # evolutions, which the others spread over the cores there are
    assert workers[2] == [1] * len(configs)
    cores = len(os.sched_getaffinity(0))
    assert all(w >= min(cores, 2) for w in workers[0] + workers[1])


def test_several_hamiltonian_outputs_independent_of_cores_and_blas_threads(
        tmp_path):
    # A random-matrix run with several Hamiltonians runs each on one BLAS
    # thread, serially or forked, so its outputs match byte for byte across
    # OPENBLAS_NUM_THREADS and one, two and four usable cores: rmt-decay in
    # every layout a config reaches, both ensembles, with blocks of 128 to
    # 512 rows, where OpenBLAS spreads a call over its threads; rmt-cp and
    # unitality.  Left out on purpose: single-Hamiltonian calls, which keep
    # the library's threads (rmt-sigma with n_hamiltonians = 1).
    decay = dict(coupling=0.05, n_hamiltonians=3, n_initials=2, n_times=5)
    configs = [("rmt-decay", dict(decay, configuration=layout, ensemble=ensemble,
                                  n_env=64 if layout == "separate" else 128))
               for layout in ("one-qubit", "spectator", "separate", "joint")
               for ensemble in ("GOE", "GUE")]
    configs += [("rmt-cp", dict(TINY["rmt-cp"], n_env=128, n_hamiltonians=3)),
                ("unitality", dict(TINY["unitality"], n_env_list=(64, 256),
                                   n_realizations=3))]
    runs, workers = _runs_across_threads_and_cores(
        tmp_path, configs,
        (("1", "all"), ("2", "all"), ("2", "one-core"), ("2", "four")))
    assert runs[0] == runs[1] == runs[2] == runs[3]
    assert workers[2] == [1] * len(configs)
    assert workers[3] == [3] * len(configs)
    cores = len(os.sched_getaffinity(0))
    assert all(w == min(cores, 3) for w in workers[0] + workers[1])


def _plan(cfg) -> int:
    """The kind's plan at the run's worker count, which ``run`` checks."""
    return xp._PLANS[cfg.kind](cfg, xp._workers(cfg))


def _openblas_threads() -> int:
    return ki._lapack._routine("scipy_openblas_get_num_threads64_", (),
                               ctypes.c_int)()


def _evolutions(cfg) -> int:
    return cfg.n_realizations * len(xp._ki_dims(cfg))


@pytest.mark.parametrize("fan_out", [True, False])
@pytest.mark.parametrize("fails", [False, True])
def test_fan_out_restores_blas_threads(monkeypatch, fails, fan_out):
    # OpenBLAS runs on one thread in every process of the fan-out (four
    # usable cores faked), and in the serial loop of a small register (one
    # core faked), and on its previous count after the run, also when an
    # evolution raises; a child that finds another count raises, and its
    # error reaches the parent
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3} if fan_out else {0})
    parent, pids = os.getpid(), []
    evolve_ki = ki.evolve_ki

    def recording(*args, **kw):
        if _openblas_threads() != 1:
            raise RuntimeError(f"OpenBLAS on {_openblas_threads()} threads")
        pids.append(os.getpid())
        if fails:
            raise RuntimeError("evolution failed")
        return evolve_ki(*args, **kw)

    monkeypatch.setattr(ki, "evolve_ki", recording)
    before = _openblas_threads()
    for kind in ("ki-decay", "memory-sumrule"):
        cfg = xp.ExperimentConfig(kind=kind, seed=3, **TINY[kind])
        assert (xp._workers(cfg) > 1) == fan_out
        pids.clear()
        if fails:
            with pytest.raises(RuntimeError, match="evolution failed"):
                xp.run(cfg)
        else:
            xp.run(cfg)
            # the parent steps only its own share of a fan-out
            assert (len(pids) < _evolutions(cfg)) == fan_out, kind
        assert pids and set(pids) == {parent}
        assert _openblas_threads() == before, kind


def test_fan_out_steps_serially_without_blas_thread_control(monkeypatch):
    # where OpenBLAS exports no thread control the evolutions run one after
    # another in the calling process, with the same results
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    cfg = xp.ExperimentConfig(kind="memory-sumrule", seed=3,
                              **TINY["memory-sumrule"])
    fanned = xp.run(cfg)[0]["memory-sumrule"]
    routine = ki._lapack._routine

    def without_thread_control(symbol, *args):
        if "num_threads" in symbol:
            raise ImportError(symbol)
        return routine(symbol, *args)

    pids = []
    evolve_ki = ki.evolve_ki

    def recording(*args, **kw):
        pids.append(os.getpid())
        return evolve_ki(*args, **kw)

    monkeypatch.setattr(ki._lapack, "_routine", without_thread_control)
    monkeypatch.setattr(ki, "evolve_ki", recording)
    serial = xp.run(cfg)[0]["memory-sumrule"]
    assert pids == [os.getpid()] * _evolutions(cfg)
    assert serial.rows.tobytes() == fanned.rows.tobytes()


# one Hamiltonian, as the benchmark's rmt-goe-sigma has, and still two
# realizations per bath size
ONE_HAMILTONIAN = [("rmt-sigma", dict(TINY["rmt-sigma"], n_hamiltonians=1)),
                   ("rmt-decay", dict(TINY["rmt-decay"], n_hamiltonians=1))]


def test_only_runs_with_several_jobs_fan_out(monkeypatch, tmp_path):
    # every kind with several Hamiltonians, realizations or evolutions (each
    # TINY config but spectral-stats) enters the fan-out, which sets the BLAS
    # thread count; a single Hamiltonian and spectral-stats touch neither
    entered = []

    def recording(fn, name):
        def wrapped(*args, **kw):
            entered.append(name)
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(xp._lapack, "fan_out", recording(xp._lapack.fan_out, "fan-out"))
    monkeypatch.setattr(xp._lapack, "blas_threads",
                        recording(xp._lapack.blas_threads, "blas"))
    for kind, kw in list(TINY.items()) + ONE_HAMILTONIAN:
        entered.clear()
        cfg = xp.ExperimentConfig(kind=kind, seed=3, out=str(tmp_path / kind), **kw)
        xp.write_outputs(cfg, *xp.run(cfg))
        if kind == "spectral-stats" or kw.get("n_hamiltonians") == 1:
            assert entered == [], kind
        else:
            assert "fan-out" in entered and "blas" in entered, kind


def test_csv_serialization_precision(tmp_path):
    t = xp._table(["x"], [1.0 / 3.0])
    t.to_csv(tmp_path / "x.csv")
    text = (tmp_path / "x.csv").read_text().splitlines()
    assert text[0] == "x"
    assert float(text[1]) == 1.0 / 3.0  # 17 significant digits round-trip


def test_memory_sumrule_runner():
    cfg = xp.ExperimentConfig(
        kind="memory-sumrule", ring_spins=6, memory_qubits=2, positions=(0, 3),
        mem_coupling=0.02, field="chaotic-soft", steps=40, stride=5,
        n_realizations=1, seed=5)
    tables, summary = xp.run(cfg)
    cols = tables["memory-sumrule"].columns
    assert cols[:4] == ["t", "P_full", "P_sumrule", "residual"]
    assert "P_sp_0" in cols and "P_sp_1" in cols
    resid = tables["memory-sumrule"].column("residual")
    assert np.all(resid >= 0)


def test_memory_sumrule_runs_each_site_once(monkeypatch):
    # three register qubits at one site: the full model plus one variant
    calls = []

    def counted(jobs, *args, **kw):
        calls.extend(model.num_spins for model, _ in jobs)
        return evolve_many(jobs, *args, **kw)

    evolve_many = ki.evolve_many
    monkeypatch.setattr(ki, "evolve_many", counted)
    cfg = xp.ExperimentConfig(
        kind="memory-sumrule", ring_spins=6, memory_qubits=3, positions=(1, 1, 1),
        mem_coupling=0.05, field="chaotic-soft", steps=20, stride=5,
        n_realizations=1, seed=5)
    table = xp.run(cfg)[0]["memory-sumrule"]
    assert calls == [9, 8]
    assert 1 - table.column("P_sp_0")[-1] > 1e-4
    for i in (1, 2):
        assert np.array_equal(table.column(f"P_sp_{i}"), table.column("P_sp_0"))


def test_memory_sumrule_variants_share_bath_states():
    # with one register qubit the only spectator variant is the full model;
    # started from the same states it must reproduce P_full exactly
    cfg = xp.ExperimentConfig(
        kind="memory-sumrule", ring_spins=6, memory_qubits=1, positions=(2,),
        mem_coupling=0.05, field="chaotic-soft", steps=20, stride=5,
        n_realizations=2, seed=5)
    table = xp.run(cfg)[0]["memory-sumrule"]
    assert table.column("P_full")[-1] < 1.0 - 1e-6
    assert np.array_equal(table.column("P_sp_0"), table.column("P_full"))


@pytest.mark.parametrize("positions", [(0, 2, 4), (1, 1, 1)])
def test_memory_sumrule_spectators_match_full_register_variants(positions):
    # the runner runs each one-coupling variant on the ring plus two register
    # qubits; here it runs on the whole register with the other couplings zeroed
    cfg = xp.ExperimentConfig(
        kind="memory-sumrule", ring_spins=6, memory_qubits=3, positions=positions,
        mem_coupling=0.05, field="chaotic-soft", steps=60, stride=3,
        n_realizations=2, seed=5)
    table = xp.run(cfg)[0]["memory-sumrule"]
    full = ki.build_memory_model(6, 3, positions, 0.05,
                                 ki.FIELD_PRESETS["chaotic-soft"], axis="x")
    psi0s = [ki.initial_state(full, qstate.ghz_state(3), g)
             for g in qstate.rng(5).spawn(2)]
    for i in range(3):
        jm = full.couplings.copy()
        for k, (a, b) in enumerate(full.coupling_pairs):
            if k != i:
                jm[a, b] = jm[b, a] = 0.0
        variant = replace(full, couplings=jm)
        p_i = average([ki.evolve_ki(variant, psi0, 60, 3) for psi0 in psi0s]).purity
        assert 1 - p_i[-1] > 1e-3
        assert np.max(np.abs(table.column(f"P_sp_{i}") - p_i)) < 1e-12


def test_spectral_stats_runner_small():
    cfg = xp.ExperimentConfig(kind="spectral-stats", source="gue", rmt_dim=80,
                              rmt_draws=30, k2_points=8, seed=2)
    tables, summary = xp.run(cfg)
    assert abs(summary["bulk_mean_spacing"] - 1.0) < 0.05
    assert summary["brody_omega"] > 0.7
    cols = tables["spectral-stats"].columns
    assert cols == ["t_over_tauh", "K2_mean", "K2_std", "K2_theory"]


def test_rmt_cp_runner_small():
    cfg = xp.ExperimentConfig(kind="rmt-cp", configuration="spectator",
                              n_env=16, coupling=0.1, delta=(0.0,),
                              n_hamiltonians=3, n_initials=3, n_times=10,
                              t_max_over_tauh=1.5, seed=4)
    tables, summary = xp.run(cfg)
    assert summary["cp_distance_werner"] >= 0
    # the offset law takes the coupling in mean level spacings, pi/sqrt(N)
    assert summary["deviation_estimate"] == pytest.approx(
        metrics.werner_deviation_estimate(0.1 * math.sqrt(16) / math.pi, 16))
    assert tables["rmt-cp"].columns == ["P_bin", "C_mean", "count", "werner_C"]


def test_rmt_sigma_runner_small():
    cfg = xp.ExperimentConfig(kind="rmt-sigma", configuration="one-qubit",
                              ensemble="GOE", coupling=1e-3, gamma=0.0,
                              n_env_list=(8, 16), n_hamiltonians=4,
                              n_initials=3, sigma_time_factor=1.2, seed=6)
    tables, summary = xp.run(cfg)
    t = tables["rmt-sigma"]
    assert t.columns == ["n_env", "sigma_fixed_gamma", "sigma_random_gamma",
                         "plateau_prediction"]
    assert np.all(t.column("sigma_fixed_gamma") > 0)
    assert "loglog_slope_fixed_gamma" in summary


def test_rmt_sigma_diagonalizes_each_hamiltonian_once(monkeypatch):
    # both angle families are evolved from one propagator per Hamiltonian;
    # on one usable core every Hamiltonian is built in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    built = []

    class Counting(rm.Propagator):
        def __init__(self, *args, **kw):
            built.append(args[0].env_dims)
            super().__init__(*args, **kw)

    monkeypatch.setattr(rm, "Propagator", Counting)
    cfg = xp.ExperimentConfig(kind="rmt-sigma", configuration="one-qubit",
                              ensemble="GOE", coupling=1e-3, gamma=0.0,
                              n_env_list=(8, 16), n_hamiltonians=3,
                              n_initials=2, seed=6)
    xp.run(cfg)
    assert built == [(8,)] * 3 + [(16,)] * 3


def test_unitality_runner_small():
    cfg = xp.ExperimentConfig(kind="unitality", configuration="one-qubit",
                              coupling=0.1, n_env_list=(8, 16),
                              n_realizations=4, n_times=4,
                              t_max_over_tauh=0.5, seed=7)
    tables, summary = xp.run(cfg)
    assert tables["unitality"].columns == ["n_env", "t", "distance"]
    assert summary["loglog_slope_final_time"] < 0


def test_ki_runners_small():
    base = xp.ExperimentConfig(kind="ki-decay", ki_kind="e", q_env=4,
                               j_prime=0.05, field="chaotic", steps=12,
                               stride=2, n_realizations=2, seed=8)
    tables, summary = xp.run(base)
    assert tables["ki-decay"].columns == ["t", "P_mean", "P_std", "C_mean",
                                          "S_mean", "D_mean"]
    assert summary["j_normalized"] == 0.05
    tables, summary = xp.run(replace(base, kind="ki-cp", steps=30))
    assert summary["cp_distance_werner"] >= 0
    tables, summary = xp.run(replace(base, kind="ki-vs-rmt", ki_kind="d",
                                     q_env=6, j_prime=0.005, steps=16,
                                     fit_window=(2.0, 12.0)))
    assert tables["ki-vs-rmt"].columns == ["t", "P_mean", "P_std",
                                           "rmt_reference", "rmt_fitted"]
    assert summary["alpha_fitted"] > 0
    assert isinstance(summary["linear_beats_quadratic"], bool)


def test_presets():
    cfg = xp.preset("fig-holeone")
    assert cfg.kind == "rmt-decay" and cfg.coupling == 0.01
    assert cfg.delta == (0.0, 8.0) and cfg.n_env == 1024
    cfg = xp.preset("fig-kichaos")
    assert cfg.kind == "memory-sumrule" and cfg.mem_coupling == 0.005
    assert cfg.ring_spins == 12 and cfg.positions == (0, 3, 6, 9)
    cfg = xp.preset("fig-comparisonKIRMT")  # case-insensitive
    assert cfg.ki_kind == "d" and cfg.j_prime == 0.0005
    with pytest.raises(ConfigError) as err:
        xp.preset("fig-missing")
    assert "fig-holeone" in str(err.value)


def test_cli_run_and_exit_codes(tmp_path):
    runner = CliRunner()
    out = tmp_path / "res"
    ok = runner.invoke(main, [
        "rmt-decay", "--seed", "3", "--out", str(out),
        "--set", "n_env=12", "--set", "coupling=0.0",
        "--set", "n_hamiltonians=1", "--set", "n_initials=1",
        "--set", "n_times=3"])
    assert ok.exit_code == 0, ok.output
    assert (out / "rmt-decay.csv").exists()
    summary = json.loads((out / "rmt-decay-summary.json").read_text())
    assert summary["seed"] == 3
    bad = runner.invoke(main, ["rmt-decay", "--set", "bogus=1"])
    assert bad.exit_code == 2
    # a run picks its own thread count: threads = 1 is the only value, and
    # --threads is gone
    serial = tmp_path / "threads.ini"
    serial.write_text("[experiment]\nkind = rmt-decay\nthreads = 2\n")
    for args in (["--set", "threads=2"], ["--config", str(serial)]):
        threaded = runner.invoke(main, ["rmt-decay", *args])
        assert threaded.exit_code == 2, (args, threaded.output)
        assert "a run picks its own thread count" in threaded.output
    no_option = runner.invoke(main, ["rmt-decay", "--threads", "2"])
    assert no_option.exit_code == 2, no_option.output
    assert "No such option" in no_option.output
    assert "--threads" in no_option.output
    refused = runner.invoke(main, [
        "rmt-decay", "--set", "configuration=one-qubit", "--set", "n_env=9999"])
    assert refused.exit_code == 3
    mismatch = runner.invoke(main, ["rmt-decay", "--preset", "fig-kichaos"])
    assert mismatch.exit_code == 2
    tiny = "n_env=8 n_hamiltonians=1 n_initials=1 n_times=3"
    cases = [("rmt-decay", f"{tiny} {value}")
             for value in ("n_env=abc", "theta=2", "coupling=-0.1", "delta=",
                           "t_max_over_tauh=-1")]
    cases += [("ki-decay", "stride=0"), ("ki-decay", "steps=-1"),
              ("ki-decay", "n_realizations=0"), ("unitality", "n_realizations=0"),
              ("spectral-stats", "rmt_draws=0"),
              ("spectral-stats", "rmt_dim=20 rmt_draws=1"),
              ("spectral-stats", "source=ki-chaotic ki_spins=4"),
              ("rmt-cp", "bin_width=-1"), ("rmt-cp", "bin_width=0"),
              ("rmt-sigma", "n_env_list="), ("ki-vs-rmt", "steps=5 q_env=4"),
              ("ki-decay", "field=foo")]
    # non-finite numbers; NaN means "unset" in gamma and fit_window only
    cases += [("rmt-decay", f"{tiny} {value}")
              for value in ("coupling=nan", "delta=nan", "delta2=nan",
                            "t_max_over_tauh=inf", "gamma=inf")]
    ring = "steps=16 q_env=4 n_realizations=1"
    cases += [("ki-vs-rmt", f"{ring} {value}")
              for value in ("fit_window=5", "fit_window=1,2,3",
                            "fit_window=nan,inf")]
    cases += [("ki-decay", f"{ring} field=nan,1,1"),
              ("ki-decay", f"{ring} j_prime=inf")]
    # finite numbers so large that the models or predictions overflow
    cases += [("rmt-decay", f"{tiny} {value}")
              for value in ("t_max_over_tauh=1e300", "coupling=1e308",
                            "delta=1e308")]
    cases += [("ki-decay", f"{ring} {value}")
              for value in ("j_env=1e308", "j_prime=1e308", "field=1e200,1,0")]
    cases += [("rmt-sigma", "ensemble=GOE configuration=one-qubit n_env_list=8,16 "
               "n_hamiltonians=1 n_initials=2 sigma_time_factor=1e300")]
    unital = "n_realizations=1 n_times=3"
    cases += [("unitality", f"{unital} n_env_list=nan"),
              ("unitality", f"{unital} n_env_list=inf")]
    # bath sizes are never truncated, and one-splitting kinds take one value
    goe = "ensemble=GOE n_hamiltonians=1 n_initials=2"
    cases += [("unitality", f"{unital} n_env_list=8.7"),
              ("rmt-sigma", f"{goe} n_env_list=16.5"),
              ("unitality", f"{unital} n_env_list=8 delta=0,5"),
              ("rmt-sigma", f"{goe} n_env_list=16 delta=0,0.01"),
              ("rmt-cp", f"{tiny} delta=0,5")]
    # a concurrence-purity curve needs a qubit pair
    cases += [("rmt-cp", f"{tiny} configuration=one-qubit")]
    # a ring position is a site number, never truncated to one
    one = "memory_qubits=1 ring_spins=6"
    cases += [("memory-sumrule", f"{one} positions=1.5"),
              ("memory-sumrule", f"{one} positions=-0.5")]
    # a level count below one, or a spectrum ring without its two impurity
    # sites, is refused before any array is shaped by it
    cases += [("spectral-stats", "source=poisson rmt_dim=-5"),
              ("spectral-stats", "source=gue rmt_dim=0"),
              ("spectral-stats", "source=ki-chaotic ki_spins=-3"),
              ("spectral-stats", "source=ki-chaotic ki_spins=1")]
    # rmt-sigma compares with the GOE formula in the degenerate limit only
    sigma = "n_hamiltonians=1 n_initials=1"
    cases += [("rmt-sigma", f"{sigma} n_env_list=16"),
              ("rmt-sigma", f"{sigma} ensemble=GOE n_env_list=256 delta=0.01"),
              ("rmt-sigma", f"{sigma} ensemble=GOE n_env_list=16 delta=1"),
              # a spread of one realization is zero, and its log NaN
              ("rmt-sigma", f"{sigma} ensemble=GOE n_env_list=16,32"),
              # a zero coupling, or one whose square underflows, predicts a
              # zero spread: no plateau ratio
              ("rmt-sigma", "ensemble=GOE configuration=one-qubit "
               "n_env_list=16,32 n_hamiltonians=2 n_initials=2 coupling=0"),
              ("rmt-sigma", "ensemble=GOE configuration=one-qubit "
               "n_env_list=16,32 n_hamiltonians=2 n_initials=2 coupling=1e-200")]
    for kind, values in cases:
        args = [arg for value in values.split() for arg in ("--set", value)]
        bad_value = runner.invoke(main, [kind, *args])
        assert bad_value.exit_code == 2, (kind, values, bad_value.output)
        assert "configuration error" in bad_value.output
    # at theta = pi/4 the spectator's predicted spread is rounding of theta
    # (cos^2(2 theta) = 3.7e-33), which the plateau ratio would divide by
    pi_4 = runner.invoke(main, [
        "rmt-sigma", "--seed", "3", *[arg for value in (
            "ensemble=GOE", "configuration=spectator", "theta=0.7853981633974483",
            "n_env_list=16,32", "n_hamiltonians=2", "n_initials=2", "coupling=0.001")
            for arg in ("--set", value)]])
    assert pi_4.exit_code == 2, pi_4.output
    assert "purity spread vanishes at theta = pi/4" in pi_4.output
    nan_coupling = runner.invoke(main, ["memory-sumrule", "--set", "mem_coupling=nan"])
    assert nan_coupling.exit_code == 2
    assert "mem_coupling = nan: values must be finite" in nan_coupling.output
    # the register cap refuses before any 2^L allocation
    too_big = runner.invoke(main, ["ki-decay", "--set", "q_env=40"])
    assert too_big.exit_code == 3, too_big.output
    # as does the quadrature cap, before any 2e9-point grid
    long = runner.invoke(main, ["rmt-decay", *[arg for value in tiny.split()
                                               for arg in ("--set", value)],
                                "--set", "t_max_over_tauh=1e6"])
    assert long.exit_code == 3, long.output
    assert "quadrature grid" in long.output
    # spectral-stats refuses a huge level set or form-factor array before
    # any draw
    for values, message in (("rmt_dim=1000000 rmt_draws=2", "bath cap"),
                            ("source=poisson rmt_dim=4096", "bath cap"),
                            ("rmt_dim=2048 rmt_draws=2 k2_points=1000",
                             "form-factor phases")):
        args = [arg for value in values.split() for arg in ("--set", value)]
        huge = runner.invoke(main, ["spectral-stats", *args])
        assert huge.exit_code == 3, (values, huge.output)
        assert message in huge.output


@pytest.mark.parametrize("kind, kw, tight_steps", [
    ("ki-decay", dict(q_env=18, n_realizations=500, steps=10), 85_000),
    ("memory-sumrule", dict(ring_spins=16, memory_qubits=4, positions=(0, 4, 8, 12),
                            n_realizations=100, steps=10), 55_000),
])
def test_ki_worker_count_fits_plan_budget(monkeypatch, kind, kw, tight_steps):
    # on 64 cores a 20-spin run cannot give each core its state vectors: the
    # count is the largest whose plan fits, and the kind's plan is that one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    cfg = xp.ExperimentConfig(kind=kind, **kw)
    workers = xp._workers(cfg)
    assert 1 < workers < 64
    assert xp._plan_ki(cfg, workers) <= xp.MAX_PLAN_BYTES
    assert xp._plan_ki(cfg, workers + 1) > xp.MAX_PLAN_BYTES
    assert _plan(cfg) == xp._plan_ki(cfg, workers)
    # a run whose long series fit beside one thread's vectors, not beside
    # two, runs on one thread and is not refused
    tight = replace(cfg, n_realizations=16, steps=tight_steps, stride=1)
    assert xp._plan_ki(tight, 1) <= xp.MAX_PLAN_BYTES < xp._plan_ki(tight, 2)
    assert xp._workers(tight) == 1
    assert _plan(tight) <= xp.MAX_PLAN_BYTES


@pytest.mark.parametrize("kind, kw", [
    ("ki-decay", dict(ki_kind="c", q_env=12, j_prime=0.001, steps=8,
                      n_realizations=4)),
    ("memory-sumrule", dict(REGISTER, ring_spins=10, n_realizations=2)),
    ("memory-sumrule", dict(REGISTER, ring_spins=12, memory_qubits=1,
                            positions=(0,), n_realizations=2)),
])
@pytest.mark.parametrize("cores", [1, 2])
def test_ki_plan_bounds_fan_out_peak(monkeypatch, tmp_path, kind, kw, cores):
    _check_plan_bounds_fan_out_peak(monkeypatch, tmp_path, kind, kw, cores)


@pytest.mark.parametrize("kind, kw", [
    ("rmt-decay", dict(TINY["rmt-decay"], n_env=64, n_hamiltonians=3)),
    ("rmt-decay", dict(TINY["rmt-decay"], configuration="joint", ensemble="GOE",
                       n_env=32, n_hamiltonians=3)),
    ("rmt-cp", dict(TINY["rmt-cp"], n_env=64, n_hamiltonians=3)),
    # one bath size each: the children of one Monte Carlo call run together
    ("rmt-sigma", dict(TINY["rmt-sigma"], n_env_list=(64,), n_hamiltonians=3)),
    ("unitality", dict(TINY["unitality"], n_env_list=(64,), n_realizations=3)),
])
@pytest.mark.parametrize("cores", [1, 2])
def test_rmt_plan_bounds_fan_out_peak(monkeypatch, tmp_path, kind, kw, cores):
    _check_plan_bounds_fan_out_peak(monkeypatch, tmp_path, kind, kw, cores)


def _check_plan_bounds_fan_out_peak(monkeypatch, tmp_path, kind, kw, cores):
    # the plan at the run's worker count bounds the traced peak of the
    # parent plus each child's own traced peak, what it allocated beyond
    # its memory at the fork
    import tracemalloc
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    cfg = xp.ExperimentConfig(kind=kind, seed=3, **kw)
    assert xp._workers(cfg) == cores
    xp.run(cfg)  # first-call costs: lazy imports, caches
    fork, dumps, at_fork = os.fork, xp._lapack.pickle.dumps, []

    def forked():
        pid = fork()
        if not pid:
            at_fork.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return pid

    def sending(results):
        # a child's last allocation: the pickle of its results
        data = dumps(results)
        own = tracemalloc.get_traced_memory()[1] - at_fork[0]
        (tmp_path / str(os.getpid())).write_text(str(own))
        return data

    monkeypatch.setattr(os, "fork", forked)
    monkeypatch.setattr(xp._lapack.pickle, "dumps", sending)
    tracemalloc.start()
    try:
        xp.run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    children = [int(p.read_text()) for p in tmp_path.iterdir()]
    assert len(children) == cores - 1
    assert peak + sum(children) <= _plan(cfg)


def test_rmt_worker_count_fits_plan_budget(monkeypatch, tmp_path):
    # a one-qubit GUE run at the 2048 bath cap holds a 4096-row complex
    # block and its eigenvectors, half the budget, in each process: two
    # Hamiltonians fit on one worker, not on two, and are not refused
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cap = xp.ExperimentConfig(configuration="one-qubit", n_env=2048,
                              n_hamiltonians=2, n_initials=1, n_times=2)
    assert xp._plan_rmt_decay(cap, 1) <= xp.MAX_PLAN_BYTES < xp._plan_rmt_decay(cap, 2)
    assert xp._workers(cap) == 1
    assert _plan(cap) <= xp.MAX_PLAN_BYTES
    # the same under a budget small enough to run: a config that fits on one
    # worker, not on two, runs in this process and exits 0; one that does
    # not fit on one worker exits 3
    cfg = xp.ExperimentConfig(kind="rmt-decay", **TINY["rmt-decay"])
    one, two = xp._plan_rmt_decay(cfg, 1), xp._plan_rmt_decay(cfg, 2)
    args = ["rmt-decay", "--out", str(tmp_path)]
    for key, value in TINY["rmt-decay"].items():
        args += ["--set", f"{key}={value}"]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked over the budget"))
    runner = CliRunner()
    for budget, code in (((one + two) // 2, 0), (one - 1, 3)):
        monkeypatch.setattr(xp, "MAX_PLAN_BYTES", budget)
        assert xp._workers(cfg) == 1
        result = runner.invoke(main, args)
        assert result.exit_code == code, result.output


@pytest.mark.parametrize("kind, kw, sixteen", [
    ("ki-decay", dict(q_env=12, n_realizations=2, steps=2), False),
    ("ki-decay", dict(q_env=14, n_realizations=2, steps=2), True),
    ("memory-sumrule", dict(REGISTER, ring_spins=10), False),
    ("memory-sumrule", REGISTER, True),
])
def test_small_ki_registers_step_serially(monkeypatch, kind, kw, sixteen):
    # registers of 14 and 16 spins, where the fan-out on threads used to
    # start: each fans out over four faked cores, and on one core steps
    # serially, on one OpenBLAS thread
    cfg = xp.ExperimentConfig(kind=kind, seed=3, **kw)
    assert (xp._ki_dims(cfg)[0] == 1 << 16) == sixteen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert xp._workers(cfg) > 1
    assert _plan(cfg) == xp._plan_ki(cfg, xp._workers(cfg))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert xp._workers(cfg) == 1
    pids, seen, evolve_ki = [], [], ki.evolve_ki

    def recording(*args, **kw):
        pids.append(os.getpid())
        seen.append(_openblas_threads())
        return evolve_ki(*args, **kw)

    monkeypatch.setattr(ki, "evolve_ki", recording)
    xp.run(cfg)
    assert pids == [os.getpid()] * _evolutions(cfg)
    assert seen == [1] * _evolutions(cfg)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the threads in /proc/self/task")
def test_runs_with_several_jobs_fork_with_one_thread(monkeypatch, tmp_path):
    # every fork of a run with several Hamiltonians, realizations or
    # kicked-Ising evolutions happens with one OS thread in the process,
    # OpenBLAS's idle threads stopped; a single Hamiltonian and
    # spectral-stats never fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    fork, threads = os.fork, []

    def counted():
        threads.append(len(os.listdir("/proc/self/task")))
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    for kind, kw in list(TINY.items()) + ONE_HAMILTONIAN:
        threads.clear()
        np.ones((256, 256)) @ np.ones((256, 256))  # wakes OpenBLAS's threads
        cfg = xp.ExperimentConfig(kind=kind, seed=3, out=str(tmp_path / kind), **kw)
        xp.write_outputs(cfg, *xp.run(cfg))
        if kind == "spectral-stats" or kw.get("n_hamiltonians") == 1:
            assert threads == [], kind
        else:
            assert threads and set(threads) == {1}, kind


def test_child_results_larger_than_a_pipe_buffer_arrive_intact(monkeypatch):
    # a child's realization of 4001 sampled steps pickles to about 160 KB,
    # more than a pipe holds: it arrives whole, and the run writes what the
    # serial run writes
    cfg = xp.ExperimentConfig(kind="ki-decay", seed=3,
                              **dict(TINY["ki-decay"], steps=4000, stride=1))

    def stuck(signum, frame):
        raise TimeoutError("a child's result did not arrive within 60 s")

    runs = []
    handler = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)  # a forked child does not inherit it
    try:
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: c)
            assert xp._workers(cfg) == len(cores)
            tables, summary = xp.run(cfg)
            runs.append((tables["ki-decay"].rows.tobytes(), summary))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert runs[0] == runs[1]


def test_ki_runs_without_sched_getaffinity_or_fork(monkeypatch):
    # os.sched_getaffinity exists on Linux only: elsewhere a run counts
    # os.cpu_count() cores; where os.fork is missing it steps serially
    cfg = xp.ExperimentConfig(kind="ki-decay", seed=3, **TINY["ki-decay"])
    want = xp.run(cfg)[0]["ki-decay"].rows.tobytes()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert xp._workers(cfg) == 2
    assert xp.run(cfg)[0]["ki-decay"].rows.tobytes() == want
    monkeypatch.delattr(os, "fork")
    assert xp._workers(cfg) == 1
    pids, evolve_ki = [], ki.evolve_ki

    def recording(*args, **kw):
        pids.append(os.getpid())
        return evolve_ki(*args, **kw)

    monkeypatch.setattr(ki, "evolve_ki", recording)
    assert xp.run(cfg)[0]["ki-decay"].rows.tobytes() == want
    # evolve_many itself steps serially, whatever worker count it is given
    model, _ = xp._build_ki(cfg)
    jobs = [(model, partial(ki.initial_state, model, qstate.ghz_state(2),
                            qstate.rng(i))) for i in range(4)]
    ki.evolve_many(jobs, 2, workers=4)
    assert pids == [os.getpid()] * 6


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# each kind's base config with the integer keys that size its run; seed,
# threads and stride size nothing (threads other than 1 exits 2, a large
# stride only thins the samples)
OVERSIZED = {
    name: (name, TINY[name], keys) for name, keys in (
        ("rmt-decay", ("n_env", "n_hamiltonians", "n_initials", "n_times")),
        ("rmt-cp", ("n_env", "n_hamiltonians", "n_initials", "n_times")),
        ("rmt-sigma", ("n_env_list", "n_hamiltonians", "n_initials")),
        ("unitality", ("n_env_list", "n_realizations", "n_times")),
        ("ki-decay", ("q_env", "steps", "n_realizations")),
        ("ki-cp", ("q_env", "steps", "n_realizations")),
        ("ki-vs-rmt", ("q_env", "steps", "n_realizations")),
        ("memory-sumrule", ("ring_spins", "memory_qubits", "steps",
                            "n_realizations")),
        ("spectral-stats", ("rmt_dim", "rmt_draws", "k2_points")))}
OVERSIZED["spectral-stats-poisson"] = (
    "spectral-stats", dict(source="poisson", rmt_dim=40, rmt_draws=4),
    ("rmt_dim", "rmt_draws"))
OVERSIZED["spectral-stats-ki"] = (
    "spectral-stats", dict(source="ki-chaotic", ki_spins=8), ("ki_spins",))


@pytest.mark.parametrize("kind, key", [
    (name, key) for name, (_, _, keys) in OVERSIZED.items() for key in keys])
def test_cli_refuses_oversized_random_matrix_counts(tmp_path, kind, key):
    # every count a run reads, at 2e9, is refused from its plan before any
    # draw: in a 2 GB address space it exits 3, quickly, with one line and no
    # MemoryError traceback
    kind, base, _ = OVERSIZED[kind]
    args = []
    for name, value in dict(base, **{key: 2_000_000_000}).items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else value
        args += ["--set", f"{name}={text}"]
    src = str(Path(xp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "qdeco.cli", kind, "--out", str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    assert run.returncode == 3, run.stderr
    assert run.stderr.startswith("refused: ") and run.stderr.count("\n") == 1


def test_presets_plan_under_budget():
    plans = [_plan(cfg) for cfg in map(xp.preset, xp.preset_names())]
    assert len(plans) == 11
    assert max(plans) < xp.MAX_PLAN_BYTES
    # so do each kind's defaults, a one-qubit GUE run at the 2048 bath cap,
    # and a kicked-ring spectrum at its 12-spin cap
    for kind in xp.EXPERIMENT_KINDS:
        assert _plan(xp.ExperimentConfig(kind=kind)) < xp.MAX_PLAN_BYTES
    cap = replace(xp.ExperimentConfig(), configuration="one-qubit", n_env=2048)
    assert _plan(cap) < xp.MAX_PLAN_BYTES
    spectrum = xp.ExperimentConfig(kind="spectral-stats", source="ki-chaotic",
                                   ki_spins=ki.MAX_SPECTRUM_SPINS)
    assert _plan(spectrum) < xp.MAX_PLAN_BYTES


@pytest.mark.parametrize("kind, values, key", [
    ("unitality", "n_env_list=16 n_realizations=2 n_times=3",
     "loglog_slope_final_time"),
    ("ki-decay", "steps=1 q_env=4 n_realizations=2", "early_linear_slope"),
])
def test_cli_slope_of_one_point_is_null(tmp_path, kind, values, key):
    args = [arg for value in values.split() for arg in ("--set", value)]
    res = CliRunner().invoke(main, [kind, "--out", str(tmp_path), *args])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / f"{kind}-summary.json").read_text())
    assert summary[key] is None


def test_cli_summary_keeps_linear_response_warnings(tmp_path):
    tiny = ["--set", "n_env=12", "--set", "n_hamiltonians=1",
            "--set", "n_initials=1", "--set", "n_times=5"]
    runs = {}
    for coupling in ("0.01", "0.5"):
        out = tmp_path / coupling
        res = CliRunner().invoke(main, [
            "rmt-decay", "--seed", "3", "--out", str(out), *tiny,
            "--set", f"coupling={coupling}", "--set", "t_max_over_tauh=2"])
        assert res.exit_code == 0, res.output
        summary = json.loads((out / "rmt-decay-summary.json").read_text())
        runs[coupling] = summary["variants"][0]["lr_warnings"]
    assert runs["0.01"] == []
    assert any("1 - P exceeds 0.3" in m for m in runs["0.5"])


@pytest.mark.parametrize("configuration", ["joint", "separate"])
def test_cli_two_qubit_bath_layouts_finish(tmp_path, configuration):
    # the asymptotic purity takes its coupling layout from the run's own
    # linear-response config, which carries both couplings
    res = CliRunner().invoke(main, [
        "rmt-decay", "--preset", "fig-cpdecay", "--out", str(tmp_path),
        "--set", "n_env=8", "--set", "n_hamiltonians=1", "--set", "n_initials=1",
        "--set", f"configuration={configuration}"])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "rmt-decay-summary.json").read_text())
    assert summary["variants"][0]["p_infinity"] == 0.25


def test_cli_env_var_override(tmp_path):
    # only the documented name sets the seed; the per-command name that a
    # click prefix would derive is not read
    runner = CliRunner()
    default = xp.ExperimentConfig().seed
    for name, value, want in (("EXP_SEED", "77", 77),
                              ("EXP_RMT_DECAY_SEED", "5", default)):
        out = tmp_path / name
        res = runner.invoke(main, [
            "rmt-decay", "--out", str(out), "--set", "n_env=12",
            "--set", "coupling=0.0", "--set", "n_hamiltonians=1",
            "--set", "n_initials=1", "--set", "n_times=3"],
            env={name: value})
        assert res.exit_code == 0, res.output
        summary = json.loads((out / "rmt-decay-summary.json").read_text())
        assert summary["seed"] == want, name


def test_cli_presets_listing():
    res = CliRunner().invoke(main, ["presets"])
    assert res.exit_code == 0
    assert "fig-holeone: rmt-decay" in res.output


def test_cli_help_documents_schema():
    res = CliRunner().invoke(main, ["memory-sumrule", "--help"])
    assert "P_sumrule" in res.output
