import json
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import qdeco.experiments as xp
from qdeco import metrics
from qdeco.cli import main
from qdeco.errors import ConfigError


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


def test_byte_identical_outputs(tmp_path):
    cfg = tiny_decay_cfg(out=str(tmp_path / "a"))
    xp.write_outputs(cfg, *xp.run(cfg))
    cfg2 = replace(cfg, out=str(tmp_path / "b"), threads=2)
    xp.write_outputs(cfg2, *xp.run(cfg2))
    a = (tmp_path / "a" / "rmt-decay.csv").read_bytes()
    b = (tmp_path / "b" / "rmt-decay.csv").read_bytes()
    assert a == b
    sa = (tmp_path / "a" / "rmt-decay-summary.json").read_bytes()
    sb = (tmp_path / "b" / "rmt-decay-summary.json").read_bytes()
    assert sa == sb


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
              ("rmt-sigma", "n_env_list="), ("ki-vs-rmt", "steps=5 q_env=4")]
    for kind, values in cases:
        args = [arg for value in values.split() for arg in ("--set", value)]
        bad_value = runner.invoke(main, [kind, *args])
        assert bad_value.exit_code == 2, (kind, values, bad_value.output)
        assert "configuration error" in bad_value.output
    # the register cap refuses before any 2^L allocation
    too_big = runner.invoke(main, ["ki-decay", "--set", "q_env=40"])
    assert too_big.exit_code == 3, too_big.output


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
