"""Reproducible experiment runners behind the command line.

Each experiment kind maps a validated :class:`ExperimentConfig` to one or
more CSV tables plus a JSON-able summary.  Same config + seed gives byte
identical output, independent of the thread count.
"""

from __future__ import annotations

import configparser
import json
import math
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import kicked_ising as ki
from . import linear_response as lr
from . import metrics, qstate, rmt
from . import rmt_models as rm
from .errors import ConfigError
from .qstate import rng
from .trajectory import average

# bound on every number a config sets: a product of four stays finite
MAX_MAGNITUDE = 1e50


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat bag of every knob; ``_SECTIONS`` groups them into the sections
    of a config file.

    ``coupling`` is in code units: a coupling lambda is lambda sqrt(N)/pi in
    mean level spacings of an N-level bath.  The separate and joint layouts
    give both qubits the same coupling, and ``separate`` both baths ``n_env``
    levels; qubit 1 starts with phi = eta = 0 and has splitting ``delta2``.
    """

    kind: str = "rmt-decay"
    seed: int = 7
    threads: int = 1
    out: str = "results"
    # model
    configuration: str = "spectator"
    ensemble: str = "GUE"
    n_env: int = 128
    coupling: float = 0.01
    delta: tuple[float, ...] = (0.0,)
    delta2: float = 0.0
    theta: float = math.pi / 4
    phi: float = math.pi / 4
    gamma: float = math.nan  # set -> equatorial initial family
    env_spectrum: str = "unfolded"
    n_hamiltonians: int = 15
    n_initials: int = 15
    # times
    t_max_over_tauh: float = 2.0
    n_times: int = 41
    # kicked Ising
    ki_kind: str = "d"
    q_env: int = 12
    j_prime: float = 0.0005
    j_env: float = 1.0
    field: str = "chaotic"
    steps: int = 400
    stride: int = 4
    n_realizations: int = 8
    # memory register
    ring_spins: int = 12
    memory_qubits: int = 4
    positions: tuple[float, ...] = (0, 3, 6, 9)
    mem_coupling: float = 0.005
    # sweeps
    n_env_list: tuple[float, ...] = (64, 128, 256, 512)
    sigma_time_factor: float = 1.3
    # analysis
    bin_width: float = 0.005
    fit_window: tuple[float, ...] = (float("nan"), float("nan"))
    # spectral statistics
    source: str = "gue"
    rmt_dim: int = 200
    rmt_draws: int = 100
    ki_spins: int = 12
    k2_points: int = 25

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; choices: {EXPERIMENT_KINDS}")
        if self.threads < 1 or self.n_times < 2:
            raise ConfigError("threads must be >= 1 and n_times >= 2")
        for name in ("steps", "stride", "n_realizations", "rmt_draws", "k2_points"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("bin_width", "t_max_over_tauh"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not (self.delta and self.n_env_list):
            raise ConfigError("delta and n_env_list need at least one value")
        # NaN means "unset" in gamma and fit_window, and only there
        for name, value in vars(self).items():
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not abs(v) <= MAX_MAGNITUDE and not (
                        math.isnan(v) and name in ("gamma", "fit_window")):
                    raise ConfigError(f"{name} = {value!r}: values must be "
                                      f"finite and at most {MAX_MAGNITUDE:g} in size")
        if len(self.fit_window) != 2:
            raise ConfigError("fit_window takes two values, lo and hi")
        if any(n % 1 for n in self.n_env_list):
            raise ConfigError("n_env_list holds bath sizes: whole numbers only")
        if self.kind in ("rmt-cp", "rmt-sigma", "unitality") and len(self.delta) > 1:
            raise ConfigError(f"{self.kind} runs one splitting; delta has "
                              f"{len(self.delta)} values")


_SECTIONS = {
    "experiment": ("kind", "seed", "threads", "out"),
    "model": ("configuration", "ensemble", "n_env", "coupling", "delta",
              "delta2", "theta", "phi", "gamma", "env_spectrum",
              "n_hamiltonians", "n_initials"),
    "times": ("t_max_over_tauh", "n_times"),
    "ki": ("ki_kind", "q_env", "j_prime", "j_env", "field", "steps", "stride",
           "n_realizations"),
    "memory": ("ring_spins", "memory_qubits", "positions", "mem_coupling"),
    "sweep": ("n_env_list", "sigma_time_factor"),
    "analysis": ("bin_width", "fit_window"),
    "spectra": ("source", "rmt_dim", "rmt_draws", "ki_spins", "k2_points"),
}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    typ = _FIELD_TYPES[name]
    raw = raw.strip()
    try:
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        if typ.startswith("tuple"):
            return tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"{name} = {raw!r} is not a valid {typ}") from None
    return raw


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read a sectioned ``key = value`` file; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    updates = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            updates[key] = _parse_value(key, raw)
    base = base if base is not None else ExperimentConfig()
    return replace(base, **updates)


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _parse_value(key, raw)
    return replace(cfg, **updates)


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

@dataclass
class ResultTable:
    columns: list[str]
    rows: np.ndarray  # (n_rows, n_columns)

    def to_csv(self, path):
        lines = [",".join(self.columns)]
        for row in np.atleast_2d(self.rows):
            lines.append(",".join("%.17g" % v for v in row))
        Path(path).write_text("\n".join(lines) + "\n")

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _table(columns, *arrays) -> ResultTable:
    rows = np.column_stack([np.asarray(a, dtype=float) for a in arrays])
    return ResultTable(list(columns), rows)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _init_params(cfg: ExperimentConfig) -> lr.InitParams:
    theta = 0.0 if cfg.configuration == "one-qubit" else cfg.theta
    if not math.isnan(cfg.gamma):
        return lr.InitParams.equatorial(theta, cfg.gamma)
    return lr.InitParams(theta=theta, phi=cfg.phi)


def _model_spec(cfg: ExperimentConfig, delta: float) -> rm.ModelSpec:
    deltas = delta if cfg.configuration == "one-qubit" else (delta, cfg.delta2)
    return rm.ModelSpec(cfg.configuration, cfg.n_env, cfg.ensemble,
                        cfg.coupling, deltas, env_spectrum=cfg.env_spectrum)


def _lr_config(spec: rm.ModelSpec) -> lr.LRConfig:
    k = spec.num_coupled
    beta = 1 if spec.ensemble == "GOE" else 2
    taus = tuple(spec.nominal_tau_h(spec.env_of_coupling(i)) for i in range(k))
    return lr.LRConfig(spec.configuration, (beta,) * k, taus, spec.couplings,
                       spec.deltas[:k], n_env=spec.env_dims[0])


def _field_triple(name_or_triple: str):
    if name_or_triple in ki.FIELD_PRESETS:
        return ki.FIELD_PRESETS[name_or_triple]
    try:
        parts = tuple(float(x) for x in name_or_triple.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 3 or not all(abs(x) <= MAX_MAGNITUDE for x in parts):
        raise ConfigError(f"field {name_or_triple!r}: use a preset name or three "
                          f"numbers 'par,t1,t2' of size at most {MAX_MAGNITUDE:g}")
    return parts


def _fit_window(cfg: ExperimentConfig, default):
    lo, hi = cfg.fit_window
    return (default[0] if math.isnan(lo) else lo,
            default[1] if math.isnan(hi) else hi)


def _linear_slope(t, y):
    """Least-squares slope, or None when fewer than two distinct abscissae
    leave it undetermined."""
    if len(np.unique(t)) < 2:
        return None
    a = np.vstack([t, np.ones_like(t)]).T
    return float(np.linalg.lstsq(a, y, rcond=None)[0][0])


# ---------------------------------------------------------------------------
# the runners
# ---------------------------------------------------------------------------

def _concurrence_analytic(cfg: ExperimentConfig, params, p_elr, times):
    """``rmt-decay``'s analytic_C and sudden-death time: a pair at
    C = sin 2 theta with one qubit depolarized (spectator), or a Bell pair
    with both qubits coupled, whose curve at c0 = 1 is the Werner curve; no
    curve fits a partly entangled pair with both qubits coupled."""
    if cfg.configuration != "spectator" and params.theta < math.pi / 4 - 1e-12:
        warnings.warn(f"no concurrence curve for a {cfg.configuration} pair "
                      "below theta = pi/4; analytic_C is NaN")
        return np.full_like(times, np.nan), None
    return lr.concurrence_prediction(p_elr, math.sin(2.0 * params.theta),
                                     times=times)


def _run_rmt_decay(cfg: ExperimentConfig, gen):
    tables, summary = {}, {"variants": []}
    params = _init_params(cfg)
    for delta in cfg.delta:
        spec = _model_spec(cfg, delta)
        tau = spec.nominal_tau_h()
        times = np.linspace(0.0, cfg.t_max_over_tauh * tau, cfg.n_times)
        # predict first: an oversized quadrature grid is refused before any run
        lrc = _lr_config(spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p_lr = lr.purity_lr(lrc, params, times)
            p_inf = lr.asymptotic_purity(lrc, params)
            p_elr = lr.exponentiate(p_lr, p_inf)
            c_elr, t_star = (_concurrence_analytic(cfg, params, p_elr, times)
                             if spec.num_qubits == 2 else (None, None))
        avg = rm.monte_carlo(spec, params, times, cfg.n_hamiltonians,
                             cfg.n_initials, gen, threads=cfg.threads)
        cols = ["t", "P_mean", "P_std", "S_mean", "D_mean", "analytic_P", "elr_P"]
        arrays = [times, avg.purity, avg.purity_std, avg.entropy, avg.offdiag,
                  p_lr, p_elr]
        if c_elr is not None:
            cols = cols[:3] + ["C_mean", "C_std"] + cols[3:] + ["analytic_C"]
            arrays = (arrays[:3] + [avg.concurrence, avg.concurrence_std]
                      + arrays[3:] + [c_elr])
        name = f"rmt-decay-delta{delta:g}" if len(cfg.delta) > 1 else "rmt-decay"
        tables[name] = _table(cols, *arrays)
        summary["variants"].append({
            "delta": delta,
            "tau_h": tau,
            "p_infinity": p_inf,
            "early_slope_1mP": _linear_slope(times[1:8], 1 - avg.purity[1:8]),
            "final_P": float(avg.purity[-1]),
            "sudden_death_time": t_star,
            "n_realizations": avg.n_realizations,
            "lr_warnings": sorted({str(w.message) for w in caught}),
        })
    return tables, summary


def _cp_outputs(cfg: ExperimentConfig, p, c, **summary):
    """The table of purity-binned (P, C) samples that ``rmt-cp`` and
    ``ki-cp`` write, with the summary keys they share added to ``summary``."""
    curve = metrics.bin_cp_samples(p, c, cfg.bin_width)
    table = _table(["P_bin", "C_mean", "count", "werner_C"], curve.purity,
                   curve.concurrence, curve.counts,
                   metrics.werner_curve(curve.purity))
    summary.update(cp_distance_werner=metrics.cp_distance(curve),
                   p_min=float(curve.purity.min()))
    return {cfg.kind: table}, summary


def _run_rmt_cp(cfg: ExperimentConfig, gen):
    delta = cfg.delta[0]
    spec = _model_spec(cfg, delta)
    if spec.num_qubits != 2:
        raise ConfigError("concurrence-purity curves need a two-qubit center")
    params = _init_params(cfg)
    n_env = spec.env_dims[0]
    times = np.linspace(0.0, cfg.t_max_over_tauh * spec.nominal_tau_h(),
                        cfg.n_times)
    _, samples = rm.monte_carlo(spec, params, times, cfg.n_hamiltonians,
                                cfg.n_initials, gen, threads=cfg.threads,
                                collect_samples=True)
    return _cp_outputs(
        cfg, samples["purity"], samples["concurrence"],
        deviation_estimate=metrics.werner_deviation_estimate(
            cfg.coupling * math.sqrt(n_env) / math.pi, n_env),
        unital_area=metrics.UNITAL_AREA,
        n_samples=samples["purity"].size)


def _run_rmt_sigma(cfg: ExperimentConfig, gen):
    sizes = [int(n) for n in cfg.n_env_list]
    t_fix = cfg.sigma_time_factor * 2.0 * math.sqrt(max(sizes))
    times = np.array([0.0, t_fix])
    params = lr.InitParams.equatorial(
        0.0 if cfg.configuration == "one-qubit" else cfg.theta,
        0.0 if math.isnan(cfg.gamma) else cfg.gamma)

    def sampler(g):
        gamma = math.asin(g.uniform(-1.0, 1.0))
        return lr.InitParams.equatorial(params.theta, gamma)

    specs = [_model_spec(replace(cfg, n_env=n), cfg.delta[0]) for n in sizes]
    # refuses ensembles, layouts and splittings the formula does not cover
    # before any Monte Carlo run
    preds = [lr.sigma_purity(_lr_config(spec), params, t_fix)
             for spec in specs]
    if cfg.n_hamiltonians * cfg.n_initials < 2:
        raise ConfigError("the purity spread needs at least two realizations "
                          "per bath size (n_hamiltonians x n_initials)")
    rows = []
    for n, spec, pred in zip(sizes, specs, preds):
        fixed = rm.monte_carlo(spec, params, times, cfg.n_hamiltonians,
                               cfg.n_initials, gen, threads=cfg.threads)
        random_g = rm.monte_carlo(spec, params, times, cfg.n_hamiltonians,
                                  cfg.n_initials, gen, threads=cfg.threads,
                                  params_sampler=sampler)
        rows.append((n, fixed.purity_std[-1], random_g.purity_std[-1], pred))
    arr = np.array(rows)
    table = _table(["n_env", "sigma_fixed_gamma", "sigma_random_gamma",
                    "plateau_prediction"], *arr.T)
    slope = _linear_slope(np.log(arr[:, 0]), np.log(arr[:, 1]))
    summary = {
        "t_fixed": t_fix,
        "loglog_slope_fixed_gamma": slope,
        "plateau_ratio_largest": float(arr[-1, 2] / arr[-1, 3]),
    }
    return {"rmt-sigma": table}, summary


def _run_unitality(cfg: ExperimentConfig, gen):
    sizes = [int(n) for n in cfg.n_env_list]
    rows = []
    finals = []
    for n in sizes:
        spec = rm.ModelSpec("one-qubit", n, cfg.ensemble, cfg.coupling,
                            cfg.delta[0], env_spectrum=cfg.env_spectrum)
        tau = spec.nominal_tau_h()
        times = np.linspace(0.0, cfg.t_max_over_tauh * tau, cfg.n_times)
        dist = rm.unitality_experiment(spec, times, cfg.n_realizations, gen,
                                       threads=cfg.threads)
        finals.append(dist[-1])
        for t, d in zip(times, dist):
            rows.append((n, t, d))
    table = _table(["n_env", "t", "distance"], *np.array(rows).T)
    slope = _linear_slope(np.log(np.array(sizes, dtype=float)),
                          np.log(np.array(finals)))
    summary = {"loglog_slope_final_time": slope,
               "final_distances": dict(zip(map(str, sizes), map(float, finals)))}
    return {"unitality": table}, summary


def _ki_trajectories(cfg: ExperimentConfig, gen, model, central):
    trs = []
    for g in gen.spawn(cfg.n_realizations):
        psi0 = ki.initial_state(model, central, g)
        trs.append(ki.evolve_ki(model, psi0, cfg.steps, cfg.stride))
    return trs


def _build_ki(cfg: ExperimentConfig):
    b = _field_triple(cfg.field)
    return ki.build_env_config(cfg.ki_kind, cfg.q_env, cfg.j_prime, b, b,
                               j_env=cfg.j_env)


def _run_ki_decay(cfg: ExperimentConfig, gen):
    model, env = _build_ki(cfg)
    avg = average(_ki_trajectories(cfg, gen, model, qstate.ghz_state(2)))
    t, p = avg.times, avg.purity
    table = _table(["t", "P_mean", "P_std", "C_mean", "S_mean", "D_mean"],
                   t, p, avg.purity_std, avg.concurrence, avg.entropy, avg.offdiag)
    jc = env.j_normalized
    early = (t >= 1) & (t <= max(10, cfg.steps // 20))
    summary = {
        "tau_h_estimate": env.tau_h_estimate,
        "j_normalized": jc,
        "early_linear_slope": _linear_slope(t[early], 1 - p[early]),
        "guide_linear_slope": 3 * jc**2,
        "guide_quadratic_coeff": 2 * jc**2,
        "n_realizations": cfg.n_realizations,
    }
    return {"ki-decay": table}, summary


def _run_ki_cp(cfg: ExperimentConfig, gen):
    model, env = _build_ki(cfg)
    trs = _ki_trajectories(cfg, gen, model, qstate.ghz_state(2))
    return _cp_outputs(cfg, np.concatenate([tr.purity for tr in trs]),
                       np.concatenate([tr.concurrence for tr in trs]),
                       tau_h_estimate=env.tau_h_estimate)


def _run_ki_vs_rmt(cfg: ExperimentConfig, gen):
    model, env = _build_ki(cfg)
    avg = average(_ki_trajectories(cfg, gen, model, qstate.ghz_state(2)))
    t, p = avg.times, avg.purity
    tau = env.tau_h_estimate
    lo, hi = _fit_window(cfg, (10.0, min(tau / 10.0, float(cfg.steps))))
    win = (t >= lo) & (t <= hi)
    if win.sum() < 3:
        raise ConfigError(f"fit window [{lo:g}, {hi:g}] holds {win.sum()} sampled "
                          "steps; the fits need at least 3")
    shape = 1.0 - lr.rmtki_prediction(t, cfg.j_prime, cfg.q_env, tau,
                                      alpha=1.0)
    om = 1 - p
    alpha = float(np.sum(om[win] * shape[win]) / np.sum(shape[win] ** 2))
    ref = lr.rmtki_prediction(t, cfg.j_prime, cfg.q_env, tau)
    fit = 1.0 - alpha * shape
    table = _table(["t", "P_mean", "P_std", "rmt_reference", "rmt_fitted"],
                   t, p, avg.purity_std, ref, fit)
    a1 = np.vstack([np.ones(win.sum()), t[win]]).T
    a2 = np.vstack([np.ones(win.sum()), t[win] ** 2]).T
    ssr_lin = float(np.linalg.lstsq(a1, om[win], rcond=None)[1][0])
    ssr_quad = float(np.linalg.lstsq(a2, om[win], rcond=None)[1][0])
    summary = {
        "tau_h_estimate": tau,
        "alpha_fitted": alpha,
        "alpha_reference": lr.RMTKI_ALPHA,
        "fit_window": [lo, hi],
        "ssr_linear": ssr_lin,
        "ssr_quadratic": ssr_quad,
        "linear_beats_quadratic": ssr_lin < ssr_quad,
    }
    return {"ki-vs-rmt": table}, summary


def _run_memory_sumrule(cfg: ExperimentConfig, gen):
    n = cfg.memory_qubits
    b = _field_triple(cfg.field)
    full = ki.build_memory_model(cfg.ring_spins, n, cfg.positions, cfg.mem_coupling,
                                 b, j_env=cfg.j_env)
    positions = [p for _, p in full.coupling_pairs]
    # every model starts from the same ring states, so only the couplings differ
    rings = [ki.random_environment_state(full, g)
             for g in gen.spawn(cfg.n_realizations)]

    def averaged(model, register):
        psi0s = (qstate.tensor_product(register, ring, model.central_mask)
                 for ring in rings)
        avg = average([ki.evolve_ki(model, psi0, cfg.steps, cfg.stride)
                       for psi0 in psi0s])
        return avg.times, avg.purity

    def spectator(p):
        # Variant i couples register qubit i alone.  The others then feel only
        # their own kicks, local unitaries that leave the register purity as
        # it is, and the GHZ state has Schmidt rank 2 across {others | qubit i,
        # ring}.  So one uncoupled partner qubit stands in for all of them.
        pair = ki.build_memory_model(cfg.ring_spins, 2, (p, p), cfg.mem_coupling,
                                     b, j_env=cfg.j_env)
        jm = pair.couplings.copy()
        a_, b_ = pair.coupling_pairs[1]
        jm[a_, b_] = jm[b_, a_] = 0.0
        return averaged(replace(pair, couplings=jm), qstate.ghz_state(2))[1]

    t, p_full = averaged(full, qstate.ghz_state(n))
    # one register qubit leaves no others for a partner to stand in for: the
    # only variant is the full model.  Variants at one site are one model
    # started from the same states, so each site runs once.
    by_site = ({p: spectator(p) for p in dict.fromkeys(positions)} if n > 1
               else {positions[0]: p_full})
    spectator_p = [by_site[p] for p in positions]
    p_rule = lr.nqubit_sum_rule(spectator_p)
    resid = np.abs((1 - p_full) - (1 - p_rule))
    cols = ["t", "P_full", "P_sumrule", "residual"] + [f"P_sp_{i}" for i in range(n)]
    table = _table(cols, t, p_full, p_rule, resid, *spectator_p)
    window = (1 - p_full > 0.01) & (1 - p_full <= 0.1)
    summary = {
        "positions": positions,
        "max_relative_residual_window": (
            float(np.max(resid[window] / (1 - p_full[window]))) if window.any() else None),
        "window_points": int(window.sum()),
        "final_1mP": float(1 - p_full[-1]),
    }
    return {"memory-sumrule": table}, summary


def _ki_spectrum_model(cfg: ExperimentConfig, chaotic: bool):
    spins = cfg.ki_spins
    j = np.zeros((spins, spins))
    for a in range(spins):
        j[a, (a + 1) % spins] = j[(a + 1) % spins, a] = cfg.j_env
    b = ki.FIELD_PRESETS["chaotic" if chaotic else "intermediate"]
    fields = np.tile(ki.field_to_cartesian(b, "z"), (spins, 1))
    # two unequal impurity kicks kill translation and reflection symmetry
    fields[0] *= 0.95
    fields[1] *= 1.05
    return ki.KIModel(spins, j, fields, axis="z", central_sites=(0, 1))


def _run_spectral_stats(cfg: ExperimentConfig, gen):
    summary: dict = {"source": cfg.source}
    if cfg.source in ("gue", "goe"):
        if cfg.rmt_draws < 2:
            raise ConfigError("the form factor's spread needs rmt_draws >= 2")
        spec = rmt.EnsembleSpec(cfg.source.upper(), cfg.rmt_dim)
        unfolded, clamped = [], 0
        for _ in range(cfg.rmt_draws):
            e = np.linalg.eigvalsh(rmt.sample_matrix(spec, gen))
            u = rmt.unfold(e)
            unfolded.append(u.energies)
            clamped += int(u.clamped.sum())
        spacings, omega = rmt.spacing_statistics(unfolded)
        bulk = [np.diff(u)[len(u) // 10: -max(len(u) // 10, 1)] for u in unfolded]
        mean_bulk = float(np.mean(np.concatenate(bulk)))
        tau = 2.0 * math.pi  # unfolded spectra have unit mean spacing
        tgrid = np.linspace(0.08, 2.0, cfg.k2_points) * tau
        k2s = np.array([rmt.form_factor(u, tgrid) for u in unfolded])
        k2, k2_std = np.mean(k2s, axis=0), np.std(k2s, axis=0, ddof=1)
        theory = rmt.k2_average(spec.beta, tgrid, tau)
        table = _table(["t_over_tauh", "K2_mean", "K2_std", "K2_theory"],
                       tgrid / tau, k2, k2_std, theory)
        summary.update({
            "brody_omega": omega,
            "bulk_mean_spacing": mean_bulk,
            "clamped_levels": clamped,
            "k2_max_sigmas_off": float(np.max(
                np.abs(k2 - theory) / (k2_std / math.sqrt(cfg.rmt_draws)))),
        })
        return {"spectral-stats": table}, summary
    if cfg.source == "poisson":
        levels = [np.sort(gen.uniform(0.0, cfg.rmt_dim, cfg.rmt_dim))
                  for _ in range(cfg.rmt_draws)]
        _, omega = rmt.spacing_statistics(levels)
        summary["brody_omega"] = omega
        return {"spectral-stats": _table(["brody_omega"], [omega])}, summary
    if cfg.source in ("ki-chaotic", "ki-intermediate"):
        model = _ki_spectrum_model(cfg, cfg.source == "ki-chaotic")
        phases = ki.floquet_spectrum(model)
        scaled = phases * model.dim / (2.0 * math.pi)  # unit mean spacing
        _, omega = rmt.spacing_statistics(scaled)
        summary.update({"brody_omega": omega, "spins": cfg.ki_spins})
        table = _table(["eigenphase"], phases)
        return {"spectral-stats": table}, summary
    raise ConfigError(f"unknown spectra source {cfg.source!r}")


_RUNNERS = {
    "rmt-decay": _run_rmt_decay,
    "rmt-cp": _run_rmt_cp,
    "rmt-sigma": _run_rmt_sigma,
    "unitality": _run_unitality,
    "ki-decay": _run_ki_decay,
    "ki-cp": _run_ki_cp,
    "ki-vs-rmt": _run_ki_vs_rmt,
    "memory-sumrule": _run_memory_sumrule,
    "spectral-stats": _run_spectral_stats,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig):
    """Execute the configured experiment; returns (tables, summary)."""
    gen = rng(cfg.seed)
    tables, summary = _RUNNERS[cfg.kind](cfg, gen)
    summary["kind"] = cfg.kind
    summary["seed"] = cfg.seed
    return tables, summary


def write_outputs(cfg: ExperimentConfig, tables, summary) -> list[str]:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, table in tables.items():
        path = out / f"{name}.csv"
        table.to_csv(path)
        written.append(str(path))
    spath = out / f"{cfg.kind}-summary.json"
    spath.write_text(json.dumps(summary, sort_keys=True, indent=2, default=float)
                     + "\n")
    written.append(str(spath))
    return written


# ---------------------------------------------------------------------------
# presets mirroring the reference figures, capped to desk scale
# ---------------------------------------------------------------------------

def _preset_configs():
    base = ExperimentConfig()
    return {
        # one qubit, broken time reversal, splitting on/off; bath capped 1024
        "fig-holeone": replace(
            base, kind="rmt-decay", configuration="one-qubit", coupling=0.01,
            n_env=1024, delta=(0.0, 8.0), phi=math.pi / 4),
        # entangled vs separable pair against one bath
        "fig-holetwo": replace(
            base, kind="rmt-decay", configuration="spectator", coupling=0.03,
            n_env=1024, delta=(0.0, 0.8), theta=math.pi / 4, phi=math.pi / 4),
        # time-reversal-invariant initial-state spread
        "fig-decaygoe": replace(
            base, kind="rmt-sigma", configuration="one-qubit", ensemble="GOE",
            coupling=1e-3, gamma=0.0, n_env_list=(64, 128, 256, 512),
            n_hamiltonians=16, n_initials=12),
        # concurrence-purity accumulation onto the Werner curve; coupling
        # 0.14 is about 1.0 mean level spacing at N=512
        "fig-transicion": replace(
            base, kind="rmt-cp", configuration="spectator", coupling=0.14,
            n_env=512, delta=(1.0,), t_max_over_tauh=0.35, n_times=60),
        # concurrence decay in the strong-coupling (golden rule) regime, at a
        # coupling where the exact rate still follows the second-order one
        "fig-cpdecay": replace(
            base, kind="rmt-decay", configuration="joint", coupling=0.05,
            n_env=512, delta=(0.1,), delta2=0.1, t_max_over_tauh=0.2,
            n_times=41),
        # Bloch-vector distance from the fully mixed state vs bath size
        "fig-unitality": replace(
            base, kind="unitality", configuration="one-qubit", coupling=0.1,
            n_env_list=(16, 32, 64, 128, 256), n_realizations=24,
            t_max_over_tauh=0.5, n_times=9),
        # kicked-ring purity decay, chaotic kicks, symmetric coupling
        "fig-timeevolution": replace(
            base, kind="ki-decay", ki_kind="d", q_env=12,
            j_prime=0.005 / math.sqrt(12), field="chaotic", steps=120, stride=2),
        # open-chain bath revivals under transverse kicks
        "fig-longcp": replace(
            base, kind="ki-decay", ki_kind="a", q_env=12, j_prime=0.02,
            field="integrable", steps=320, stride=2),
        # random-matrix purity law against the kicked ring
        "fig-comparisonkirmt": replace(
            base, kind="ki-vs-rmt", ki_kind="d", q_env=12, j_prime=0.0005,
            field="chaotic", steps=160, stride=2, n_realizations=8),
        # four-qubit register on a chaotic ring: additivity of decoherence
        "fig-kichaos": replace(
            base, kind="memory-sumrule", ring_spins=12, memory_qubits=4,
            positions=(0, 3, 6, 9), mem_coupling=0.005, field="chaotic-soft",
            steps=1000, stride=25, n_realizations=4),
        # intermediate kick statistics (level repulsion without full chaos)
        "fig-intermediate": replace(
            base, kind="spectral-stats", source="ki-intermediate", ki_spins=11),
    }


def preset(name: str) -> ExperimentConfig:
    """Named experiment configurations mirroring the reference figures, with
    bath sizes capped to the desk limits."""
    cfgs = _preset_configs()
    key = name.lower()
    if key not in cfgs:
        raise ConfigError(
            f"unknown preset {name!r}; valid presets: {', '.join(sorted(cfgs))}")
    return cfgs[key]


def preset_names():
    return sorted(_preset_configs())
