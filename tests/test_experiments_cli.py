import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qdeco.experiments as xp
from qdeco import kicked_ising as ki
from qdeco import linear_response as lr
from qdeco import metrics, qstate
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
        xp.ExperimentConfig(), kind="ki-decay", seed=8, threads=2, out="elsewhere",
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
            assert value != getattr(default, key), key
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


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_byte_identical_outputs(tmp_path):
    # every CSV and the summary of each kind, byte for byte, whatever --threads
    for kind, kw in TINY.items():
        runs = []
        for threads in (1, 2):
            out = tmp_path / kind / str(threads)
            cfg = xp.ExperimentConfig(kind=kind, seed=3, threads=threads,
                                      out=str(out), **kw)
            xp.write_outputs(cfg, *xp.run(cfg))
            runs.append(outputs(out))
        assert f"{kind}-summary.json" in runs[0]
        assert runs[0] == runs[1], kind


def test_kicked_ising_outputs_independent_of_blas_threads(tmp_path):
    # The kicked-Ising time evolutions match byte for byte across BLAS thread
    # counts.  Left out on purpose: the random-matrix kinds (LAPACK's
    # eigenvectors change with the thread count) and spectral-stats with a
    # kicked-ring source (so do zgeev's eigenvalues).
    kinds = ["ki-decay", "ki-cp", "ki-vs-rmt", "memory-sumrule"]
    script = (
        "import ast, sys\n"
        "import qdeco.experiments as xp\n"
        "for kind, kw in ast.literal_eval(sys.argv[2]).items():\n"
        "    cfg = xp.ExperimentConfig(kind=kind, seed=3, out=sys.argv[1], **kw)\n"
        "    xp.write_outputs(cfg, *xp.run(cfg))\n")
    src = str(Path(xp.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", script, str(out),
                        repr({k: TINY[k] for k in kinds})],
                       env=env, check=True)
        runs.append(outputs(out))
    assert len(runs[0]) == 2 * len(kinds)
    assert runs[0] == runs[1]


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

    def counted(*args, **kw):
        calls.append(args[0].num_spins)
        return evolve_ki(*args, **kw)

    evolve_ki = ki.evolve_ki
    monkeypatch.setattr(ki, "evolve_ki", counted)
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
    # rmt-sigma compares with the GOE formula in the degenerate limit only
    sigma = "n_hamiltonians=1 n_initials=1"
    cases += [("rmt-sigma", f"{sigma} n_env_list=16"),
              ("rmt-sigma", f"{sigma} ensemble=GOE n_env_list=256 delta=0.01"),
              ("rmt-sigma", f"{sigma} ensemble=GOE n_env_list=16 delta=1"),
              # a spread of one realization is zero, and its log NaN
              ("rmt-sigma", f"{sigma} ensemble=GOE n_env_list=16,32")]
    for kind, values in cases:
        args = [arg for value in values.split() for arg in ("--set", value)]
        bad_value = runner.invoke(main, [kind, *args])
        assert bad_value.exit_code == 2, (kind, values, bad_value.output)
        assert "configuration error" in bad_value.output
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
    runner = CliRunner()
    out = tmp_path / "env"
    res = runner.invoke(main, [
        "rmt-decay", "--out", str(out), "--set", "n_env=12",
        "--set", "coupling=0.0", "--set", "n_hamiltonians=1",
        "--set", "n_initials=1", "--set", "n_times=3"],
        env={"EXP_SEED": "77"})
    assert res.exit_code == 0, res.output
    summary = json.loads((out / "rmt-decay-summary.json").read_text())
    assert summary["seed"] == 77


def test_cli_presets_listing():
    res = CliRunner().invoke(main, ["presets"])
    assert res.exit_code == 0
    assert "fig-holeone: rmt-decay" in res.output


def test_cli_help_documents_schema():
    res = CliRunner().invoke(main, ["memory-sumrule", "--help"])
    assert "P_sumrule" in res.output
