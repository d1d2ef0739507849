"""Command line front end: one subcommand per experiment kind.

Exit codes: 0 success, 2 configuration error, 3 resource refusal.  Four
flags can also be set through environment variables: EXP_SEED, EXP_OUT,
EXP_CONFIG and EXP_PRESET.  No option sets a thread count: a run's
independent Hamiltonians or evolutions go to one forked process per usable
core, each on one BLAS thread; a single Hamiltonian uses the BLAS threads.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click

from . import experiments as xp
from .errors import ConfigError, ResourceLimitError

_SCHEMAS = {
    "rmt-decay": "t, P_mean, P_std[, C_mean, C_std], S_mean, D_mean, "
                 "analytic_P, elr_P[, analytic_C]; one CSV per splitting value",
    "rmt-cp": "P_bin, C_mean, count, werner_C",
    "rmt-sigma": "n_env, sigma_fixed_gamma, sigma_random_gamma, plateau_prediction",
    "unitality": "n_env, t, distance",
    "ki-decay": "t, P_mean, P_std, C_mean, S_mean, D_mean",
    "ki-cp": "P_bin, C_mean, count, werner_C",
    "ki-vs-rmt": "t, P_mean, P_std, rmt_reference, rmt_fitted",
    "memory-sumrule": "t, P_full, P_sumrule, residual, P_sp_0..P_sp_{n-1}",
    "spectral-stats": "K2 grid (t_over_tauh, K2_mean, K2_std, K2_theory) for "
                      "Gaussian ensembles; eigenphases for kicked-ring sources",
}


@click.group()
def main():
    """Decoherence experiments: seeded, deterministic, CSV out.

    Every run writes one CSV table per result plus <kind>-summary.json into
    --out.  Identical config and seed give byte-identical files.
    """


def _make_command(kind: str):
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  envvar="EXP_CONFIG", help="sectioned key = value file")
    @click.option("--preset", "preset_name", default=None, envvar="EXP_PRESET",
                  help="named reference configuration")
    @click.option("--seed", type=int, default=None, envvar="EXP_SEED")
    @click.option("--out", "out_dir", default=None, envvar="EXP_OUT")
    @click.option("--set", "overrides", multiple=True,
                  help="extra key=value overrides (repeatable)")
    def command(config_path, preset_name, seed, out_dir, overrides):
        try:
            cfg = xp.ExperimentConfig(kind=kind)
            if preset_name:
                cfg = xp.preset(preset_name)
                if cfg.kind != kind:
                    raise ConfigError(
                        f"preset {preset_name!r} is a {cfg.kind} experiment, "
                        f"not {kind}")
            if config_path:
                cfg = xp.load_config(config_path, base=cfg)
                if cfg.kind != kind:
                    raise ConfigError(
                        f"config file sets kind={cfg.kind!r}, not {kind}")
            if overrides:
                cfg = xp.apply_overrides(cfg, overrides)
            updates = {}
            if seed is not None:
                updates["seed"] = seed
            if out_dir is not None:
                updates["out"] = out_dir
            if updates:
                cfg = replace(cfg, **updates)
            tables, summary = xp.run(cfg)
            written = xp.write_outputs(cfg, tables, summary)
        except ConfigError as err:
            click.echo(f"configuration error: {err}", err=True)
            sys.exit(2)
        except ResourceLimitError as err:
            click.echo(f"refused: {err}", err=True)
            sys.exit(3)
        for path in written:
            click.echo(path)

    command.__name__ = kind.replace("-", "_")
    command.__doc__ = (
        f"Run the {kind} experiment.\n\nCSV columns: {_SCHEMAS[kind]}."
    )
    return main.command(name=kind)(command)


for _kind in xp.EXPERIMENT_KINDS:
    _make_command(_kind)


@main.command(name="presets")
def list_presets():
    """List the named reference configurations."""
    for name in xp.preset_names():
        cfg = xp.preset(name)
        click.echo(f"{name}: {cfg.kind}")


if __name__ == "__main__":
    main()
