"""The four benchmark workloads: reduced-scale ``qdeco`` presets.

Each workload turns the benchmark seed into a config file (the program sees
only that file), counts the samples a run produces, checks a run's written
outputs, and checks the program's engine against a reference computed apart
from it (``references``).  Checks compare with independent computations or
with properties the method must have, never with stored output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import references as ref

# config key -> section of the program's config file format
_SECTION = {
    "kind": "experiment", "seed": "experiment", "threads": "experiment",
    "out": "experiment",
    "configuration": "model", "ensemble": "model", "n_env": "model",
    "coupling": "model", "delta": "model", "theta": "model", "phi": "model",
    "gamma": "model", "n_hamiltonians": "model", "n_initials": "model",
    "t_max_over_tauh": "times", "n_times": "times",
    "ki_kind": "ki", "q_env": "ki", "j_prime": "ki", "field": "ki",
    "steps": "ki", "stride": "ki", "n_realizations": "ki",
    "ring_spins": "memory", "memory_qubits": "memory", "positions": "memory",
    "mem_coupling": "memory",
    "n_env_list": "sweep",
}

EPS = 1e-12  # rounding slack on physical bounds


def config_text(fields: dict) -> str:
    """Sectioned ``key = value`` text, the format ``qdeco --config`` reads."""
    sections: dict[str, list[str]] = {}
    for key, value in fields.items():
        if isinstance(value, (tuple, list)):
            value = ", ".join(repr(v) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        sections.setdefault(_SECTION[key], []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n"
                   for name, lines in sections.items())


def _csv(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    rows = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    return {name: rows[:, i] for i, name in enumerate(header)}


def _in_range(fails, name, values, lo, hi):
    if not np.all(np.isfinite(values)):
        fails.append(f"{name} has non-finite entries")
    elif values.min() < lo - EPS or values.max() > hi + EPS:
        fails.append(f"{name} outside [{lo}, {hi}]: "
                     f"[{values.min():.6g}, {values.max():.6g}]")


def _close(fails, name, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:
        fails.append(f"{name}: deviation {err:.3g} > {tol:g}")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    params: dict    # config keys of a measured op
    smallest: dict  # overrides for the set-up run: fewest samples, largest size

    def fields(self, seed: int, out: str, smallest: bool = False) -> dict:
        over = self.smallest if smallest else {}
        return {"kind": self.kind, "seed": seed, "threads": 1, "out": out,
                **self.params, **over}

    def samples(self, cfg) -> int:
        """Reduced states one op produces; fixed by the config."""
        raise NotImplementedError

    def check_outputs(self, cfg, out: Path) -> list[str]:
        """Failures found in the files one op wrote to ``out``."""
        raise NotImplementedError

    def check_reference(self, cfg, q) -> list[str]:
        """Failures of the engine against ``references``; ``q`` holds the
        program's modules."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# random-matrix workloads
# ---------------------------------------------------------------------------

def _expm_check(q, spec, seed: int, times) -> list[str]:
    """Propagator states of one realization against expm of the dense H
    assembled here from the same draws (seeded alike)."""
    env_energies, couplings = q.rmt_models.draw_realization(spec, q.rng(seed))
    prop = q.rmt_models.Propagator(spec, q.rng(seed))
    h = ref.rmt_hamiltonian(spec.deltas, env_energies[0], spec.couplings[0],
                            couplings[0])
    psi0 = np.random.default_rng(seed).standard_normal((2, h.shape[0]))
    psi0 = (psi0[0] + 1j * psi0[1]) / np.linalg.norm(psi0)
    dt = times[1] - times[0]
    want = ref.expm_states(h, psi0, dt, len(times) - 1)
    got = prop.states(psi0, dt * np.arange(len(times)))
    fails = []
    _close(fails, "Propagator.states vs expm", got, want, 1e-10)
    return fails


class RMTSpectator(Workload):
    def samples(self, cfg) -> int:
        return cfg.n_hamiltonians * cfg.n_initials * cfg.n_times * len(cfg.delta)

    def check_outputs(self, cfg, out):
        t = _csv(out / "rmt-decay.csv")
        fails = []
        _close(fails, "P(0)", t["P_mean"][0], 1.0, 1e-12)
        _close(fails, "C(0)", t["C_mean"][0], math.sin(2 * cfg.theta), 1e-12)
        _in_range(fails, "P_mean", t["P_mean"], 0.25, 1.0)
        _in_range(fails, "C_mean", t["C_mean"], 0.0, 1.0)
        early = t["elr_P"] >= 0.6
        gap = np.abs(t["P_mean"][early] / t["elr_P"][early] - 1.0)
        if not early.any() or gap.max() > 0.05:
            fails.append(f"P_mean vs elr_P where elr_P >= 0.6: "
                         f"{gap.max() if early.any() else 'no points'} > 0.05")
        return fails

    def check_reference(self, cfg, q):
        spec = q.rmt_models.ModelSpec(
            cfg.configuration, cfg.n_env, cfg.ensemble, cfg.coupling,
            (cfg.delta[0], cfg.delta2), env_spectrum=cfg.env_spectrum)
        tau = spec.nominal_tau_h()
        times = np.linspace(0.0, cfg.t_max_over_tauh * tau, cfg.n_times)
        return _expm_check(q, spec, cfg.seed, times)


# Criterion 2b asks 1 +- 0.2 of 15 x 14 samples; one Hamiltonian here gives
# the ratio a standard deviation of 0.090 over seeds (mean 1.011, 40 seeds,
# range 0.82-1.22), so the check allows more than four of them.
PLATEAU_TOL = 0.4


class RMTSigma(Workload):
    def samples(self, cfg) -> int:
        # per bath size: fixed-angle and random-angle Monte Carlo, two times
        return len(cfg.n_env_list) * 2 * cfg.n_hamiltonians * cfg.n_initials * 2

    def check_outputs(self, cfg, out):
        t = _csv(out / "rmt-sigma.csv")
        summary = json.loads((out / "rmt-sigma-summary.json").read_text())
        fails = []
        _close(fails, "n_env column", t["n_env"], cfg.n_env_list, 0.0)
        for col in ("sigma_fixed_gamma", "sigma_random_gamma", "plateau_prediction"):
            _in_range(fails, col, t[col], 0.0, 0.5)
        ratio = summary["plateau_ratio_largest"]
        if not abs(ratio - 1.0) <= PLATEAU_TOL:
            fails.append(f"plateau_ratio_largest {ratio:.4f} outside 1 +- {PLATEAU_TOL}")
        return fails

    def check_reference(self, cfg, q):
        n = int(min(cfg.n_env_list))  # the cheaper dense check
        spec = q.rmt_models.ModelSpec(cfg.configuration, n, cfg.ensemble,
                                      cfg.coupling, cfg.delta[0],
                                      env_spectrum=cfg.env_spectrum)
        t_fix = cfg.sigma_time_factor * 2.0 * math.sqrt(n)
        fails = _expm_check(q, spec, cfg.seed, np.array([0.0, t_fix]))
        # sigma(0) = 0 and P in [1/2, 1], on the random-angle family
        params = q.linear_response.InitParams.equatorial(0.0, 0.0)

        def sampler(g):
            return q.linear_response.InitParams.equatorial(
                0.0, math.asin(g.uniform(-1.0, 1.0)))

        avg, samples = q.rmt_models.monte_carlo(
            spec, params, np.array([0.0, t_fix]), 1, cfg.n_initials,
            q.rng(cfg.seed), params_sampler=sampler, collect_samples=True)
        _close(fails, "sigma(0)", avg.purity_std[0], 0.0, 1e-12)
        _in_range(fails, "sampled P", samples["purity"], 0.5, 1.0)
        return fails


# ---------------------------------------------------------------------------
# kicked-Ising workloads
# ---------------------------------------------------------------------------

def _recorded_times(cfg) -> int:
    return len(range(0, cfg.steps + 1, cfg.stride)) + (cfg.steps % cfg.stride != 0)


def _cartesian(b, axis):
    par, t1, t2 = b
    return (t1, t2, par) if axis == "z" else (par, t1, t2)


def _period_check(q, model, couplings, fields, axis, central, seed) -> list[str]:
    """Three periods of the program against the independent period, on the
    state and on the central purity ``evolve_ki`` records."""
    fails = []
    _close(fails, "Ising couplings", model.couplings, couplings, 0.0)
    _close(fails, "kick fields", model.fields, fields, 1e-15)
    period = ref.KIPeriod(couplings, fields, axis)
    psi0 = q.kicked_ising.initial_state(model, central, q.rng(seed))
    got, want = psi0.copy(), psi0.copy()
    purity = [ref.reduced_purity(want, model.central_sites, model.num_spins)]
    for k in range(3):
        got = q.kicked_ising.floquet_step(got, model)
        want = period.apply(want)
        _close(fails, f"state after period {k + 1}", got, want, 1e-10)
        purity.append(ref.reduced_purity(want, model.central_sites, model.num_spins))
    traj = q.kicked_ising.evolve_ki(model, psi0, 3, 1)
    _close(fails, "evolve_ki purity", traj.purity, purity, 1e-10)
    return fails


class KIRing(Workload):
    def samples(self, cfg) -> int:
        return cfg.n_realizations * _recorded_times(cfg)

    def check_outputs(self, cfg, out):
        t = _csv(out / "ki-decay.csv")
        fails = []
        _close(fails, "P(0)", t["P_mean"][0], 1.0, 1e-12)
        _close(fails, "C(0)", t["C_mean"][0], 1.0, 1e-12)
        _in_range(fails, "P_mean", t["P_mean"], 0.25, 1.0)
        _in_range(fails, "C_mean", t["C_mean"], 0.0, 1.0)
        return fails

    def check_reference(self, cfg, q):
        # wiring (d): ring of bath spins 2..L-1, qubit 1 coupled to each
        ki = q.kicked_ising
        b = ki.FIELD_PRESETS[cfg.field]
        model, _ = ki.build_env_config(cfg.ki_kind, cfg.q_env, cfg.j_prime, b, b,
                                       j_env=cfg.j_env)
        size = cfg.q_env + 2
        j = np.zeros((size, size))
        env = list(range(2, size))
        for a, c in zip(env, env[1:] + env[:1]):
            j[a, c] = j[c, a] = cfg.j_env
        for e in env:
            j[1, e] = j[e, 1] = cfg.j_prime
        fields = np.tile(_cartesian(b, "z"), (size, 1))
        return _period_check(q, model, j, fields, "z", q.qstate.ghz_state(2),
                             cfg.seed)


class KIRegister(Workload):
    def samples(self, cfg) -> int:
        variants = 1 + cfg.memory_qubits  # full register + each qubit alone
        return cfg.n_realizations * variants * _recorded_times(cfg)

    def check_outputs(self, cfg, out):
        t = _csv(out / "memory-sumrule.csv")
        summary = json.loads((out / "memory-sumrule-summary.json").read_text())
        fails = []
        _close(fails, "P_full(0)", t["P_full"][0], 1.0, 1e-12)
        _in_range(fails, "P_full", t["P_full"], 1.0 / 2**cfg.memory_qubits, 1.0)
        resid = summary["max_relative_residual_window"]
        points = summary["window_points"]
        if resid is None or points < 5 or resid > 0.10:
            fails.append(f"sum rule: residual {resid} over {points} window "
                         "points (want <= 0.10 over >= 5)")
        return fails

    def check_reference(self, cfg, q):
        # ring 0..R-1, register qubit R+i coupled to ring site positions[i]
        ki = q.kicked_ising
        b = ki.FIELD_PRESETS[cfg.field]
        positions = [int(p) for p in cfg.positions]
        model = ki.build_memory_model(cfg.ring_spins, cfg.memory_qubits, positions,
                                      cfg.mem_coupling, b, j_env=cfg.j_env)
        ring, size = cfg.ring_spins, cfg.ring_spins + cfg.memory_qubits
        j = np.zeros((size, size))
        for a in range(ring):
            c = (a + 1) % ring
            j[a, c] = j[c, a] = cfg.j_env
        for i, p in enumerate(positions):
            j[ring + i, p] = j[p, ring + i] = cfg.mem_coupling
        fields = np.tile(_cartesian(b, "x"), (size, 1))
        return _period_check(q, model, j, fields, "x",
                             q.qstate.ghz_state(cfg.memory_qubits), cfg.seed)


WORKLOADS = {w.name: w for w in (
    RMTSpectator(
        "rmt-spectator", "rmt-decay",
        "GUE bath with a spectator qubit: propagation and per-sample "
        "observables dominate; no real-GOE eigh",
        {"configuration": "spectator", "ensemble": "GUE", "n_env": 256,
         "coupling": 0.01, "delta": (0.8,), "theta": math.pi / 4,
         "phi": math.pi / 4, "n_hamiltonians": 8, "n_initials": 15,
         "t_max_over_tauh": 2.0, "n_times": 41},
        {"n_hamiltonians": 1, "n_initials": 1, "n_times": 2}),
    RMTSigma(
        "rmt-goe-sigma", "rmt-sigma",
        "GOE purity spread at two bath sizes: the ensemble draw and "
        "diagonalization dominate; almost no propagation or measurement",
        {"configuration": "one-qubit", "ensemble": "GOE", "coupling": 1e-3,
         "gamma": 0.0, "n_env_list": (256.0, 512.0), "n_hamiltonians": 1,
         "n_initials": 128},
        {"n_env_list": (512.0,), "n_initials": 2}),
    KIRing(
        "ki-ring", "ki-decay",
        "14-spin kicked ring, z-axis Ising: diagonal pair phases and kicks "
        "every period, reduced state every step; no random-matrix layer",
        {"ki_kind": "d", "q_env": 12, "j_prime": 0.005 / math.sqrt(12),
         "field": "chaotic", "steps": 160, "stride": 1, "n_realizations": 2},
        {"steps": 1, "n_realizations": 1}),
    KIRegister(
        "ki-register", "memory-sumrule",
        "16-spin ring plus register, x-axis Ising pair mixing, 5 coupling "
        "variants sharing one kick layer; measurement is a small share",
        {"ring_spins": 12, "memory_qubits": 4, "positions": (0.0, 3.0, 6.0, 9.0),
         "mem_coupling": 0.02, "field": "chaotic-soft", "steps": 40,
         "stride": 2, "n_realizations": 1},
        {"steps": 1, "stride": 1}),
)}
