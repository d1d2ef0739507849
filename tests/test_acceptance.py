"""Acceptance suite: every criterion at its stated tolerance.

One test per criterion clause; each records a PASS/FAIL line that pytest
prints in a closing "acceptance criteria" section.  It takes about 7 minutes
on two cores; Monte Carlo sizes follow the criteria (seeds fixed, so reruns
are bit-identical).

Three clauses compare with a formula only inside the regime the formula
claims; the tolerances are the criteria's own:

* criterion 1, linear-response clause: the second-order formula misses the
  exact decay by its truncation error ~(1-P)/(2(1-P_inf)) relative, which is
  1-P for one qubit (the gap to the exponentiated curve, which clause 1b
  checks to <1%).  The window ends where that gap, computed from the
  formulas alone, reaches half the tolerance (1-P_lr ~ 0.05); early time
  points put ten grid points inside it.
* criterion 4, couplings in units of the bath's mean level spacing
  pi/sqrt(N) (lambda_code = lambda pi/sqrt(N)): only at fixed lambda in those
  units does the regime lambda^2 tau_H^2 stay put as N grows, so only there
  can the offset be asked not to shrink.  ``metrics.werner_deviation_estimate``
  takes the same units.  The curves are sampled until 1-P_lr = 2.2.
* criterion 5, concurrence-match clause: past second order the exact rate
  falls below the second-order rate that ``purity_lr`` gives.  The deficit
  grows with lambda itself, as the coupling's spectral width ~lambda sqrt(N)
  nears the bath band pi sqrt(N): exact/second-order rate ratios ~0.8 at
  lambda = 0.1 and ~0.9 at lambda = 0.05, for N = 64 to 256.  The clause runs
  at lambda = 0.05 (lambda sqrt(N)/pi = 0.36 at N = 512, sudden death near
  0.06 tau_H, still the golden-rule regime) on the lambda = 0.1 time grid
  scaled by (0.1/lambda)^2.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import integrate
from scipy.optimize import brentq

import qdeco
import qdeco.experiments as xp
from qdeco import kicked_ising as ki
from qdeco import linear_response as lr
from qdeco import metrics, qstate, rmt
from qdeco import rmt_models as rm

from conftest import ACCEPTANCE_LINES

warnings.filterwarnings("ignore", message=".*unreliable.*")


def record(cid, ok, detail):
    ACCEPTANCE_LINES.append(f"{'PASS' if ok else 'FAIL'}: {cid} — {detail}")
    assert ok, f"{cid}: {detail}"


def linear_slope(t, y):
    a = np.vstack([t, np.ones_like(t)]).T
    return float(np.linalg.lstsq(a, y, rcond=None)[0][0])


# ---------------------------------------------------------------------------
# criterion 1: one-qubit, broken time reversal, degenerate limit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def c1_run():
    ne, lam = 512, 0.01
    tau = 2 * np.sqrt(ne)
    spec = rm.ModelSpec("one-qubit", ne, "GUE", lam, 0.0)
    params = lr.InitParams(theta=0.0, phi=np.pi / 4)
    # 41 points on [0, 2 tau_H] and 31 on [0, tau_H / 4], in steps of
    # tau_H / 120; the early ones resolve clause 1a's leading-order window
    times = tau / 120 * np.union1d(np.arange(0, 241, 6), np.arange(31))
    avg = rm.monte_carlo(spec, params, times, 15, 15, qdeco.rng(101))
    cfg = lr.LRConfig("one-qubit", (2,), (tau,), (lam,), (0.0,))
    p_lr = lr.purity_lr(cfg, params, times)
    return times, avg, p_lr, lr.exponentiate(p_lr, 0.5)


def lr_window_edge(p_inf, rel_gap):
    """1 - P_lr at which the exponentiated curve falls rel_gap (relative, on
    1 - P) below the bare leading order: the truncation error of the leading
    order reaches rel_gap there."""
    def gap(om):
        return 1 - (1 - lr.exponentiate(1 - om, p_inf)) / om - rel_gap
    return brentq(gap, 1e-6, 1 - p_inf)


def test_criterion_1_linear_response_window(c1_run):
    times, avg, p_lr, _ = c1_run
    om = 1 - p_lr
    edge = lr_window_edge(0.5, 0.05)
    window = (om >= 0.02) & (om <= edge)
    rel = np.abs((1 - avg.purity) - om) / np.where(om > 0, om, 1.0)
    worst = rel[window].max()
    record(
        "criterion 1a (225 realizations vs degenerate-limit formula)",
        window.sum() >= 5 and worst <= 0.10,
        f"max rel err on 1-P over the leading-order window [0.02, {edge:.4f}] "
        f"({window.sum()} points, want >= 5): {worst:.3f} (tol 0.10); the "
        "window ends where the formula's own truncation error, its gap to the "
        "exponentiated curve, reaches half the tolerance",
    )


def test_criterion_1_exponentiated_match(c1_run):
    _, avg, _, p_elr = c1_run
    good = p_elr >= 0.6
    worst = (np.abs(avg.purity - p_elr) / p_elr)[good].max()
    record("criterion 1b (exponentiated curve down to P~0.6)",
           worst <= 0.05, f"max rel err on P: {worst:.4f} (tol 0.05)")


# ---------------------------------------------------------------------------
# criterion 2: time-reversal-invariant initial-state dependence
# ---------------------------------------------------------------------------

def test_criterion_2_quadratic_coefficient_ratio():
    ne, lam = 512, 0.0015
    tau = 2 * np.sqrt(ne)
    times = np.linspace(0.0, 2 * tau, 33)
    base = lam**2 * (2 * times * tau - 2 * rmt.b2_double_integral(1, times, tau))
    coef = {}
    for gamma in (0.0, np.pi / 2):
        spec = rm.ModelSpec("one-qubit", ne, "GOE", lam, 0.0)
        params = lr.InitParams.equatorial(0.0, gamma)
        avg = rm.monte_carlo(spec, params, times, 12, 10, qdeco.rng(17))
        resid = (1 - avg.purity) - base
        coef[gamma] = float(np.sum(resid[1:] * times[1:] ** 2)
                            / np.sum(times[1:] ** 4))
    ratio = coef[np.pi / 2] / coef[0.0]
    record("criterion 2a (t^2 coefficient ratio pi/2 vs 0)",
           abs(ratio - 2.0) <= 0.30,
           f"ratio {ratio:.3f} (expect 2 within 15%)")


def test_criterion_2_sigma_scaling_and_plateau():
    lam = 1e-3
    sizes = (128, 256, 512, 1024)
    t_fix = 1.05 * 2 * np.sqrt(1024)  # >= tau_H of every size in the sweep
    sig = []
    for n in sizes:
        spec = rm.ModelSpec("one-qubit", n, "GOE", lam, 0.0)
        avg = rm.monte_carlo(spec, lr.InitParams.equatorial(0.0, 0.0),
                             np.array([0.0, t_fix]), 20, 12, qdeco.rng(23))
        sig.append(avg.purity_std[-1])
    slope = np.polyfit(np.log(sizes), np.log(sig), 1)[0]

    def sampler(g):
        return lr.InitParams.equatorial(0.0, np.arcsin(g.uniform(-1.0, 1.0)))

    spec = rm.ModelSpec("one-qubit", 512, "GOE", lam, 0.0)
    t_plateau = 1.3 * 2 * np.sqrt(512)
    avg = rm.monte_carlo(spec, lr.InitParams.equatorial(0.0, 0.0),
                         np.array([0.0, t_plateau]), 15, 14, qdeco.rng(29),
                         params_sampler=sampler)
    plateau = lr.sigma_purity(lr.LRConfig("one-qubit", (1,), (2 * np.sqrt(512),),
                                          (lam,), (0.0,)),
                              lr.InitParams.equatorial(0.0, 0.0), t_plateau)
    ratio = avg.purity_std[-1] / plateau
    ok = (-0.6 <= slope <= -0.4) and (0.8 <= ratio <= 1.2)
    record("criterion 2b (purity-spread scaling)", ok,
           f"fixed-angle log-log slope {slope:.3f} (want -0.5±0.1); "
           f"random-angle spread / predicted plateau {ratio:.3f} (want 1±0.2)")


# ---------------------------------------------------------------------------
# criterion 3: entanglement enhances decoherence (3/2 rate ratio)
# ---------------------------------------------------------------------------

def test_criterion_3_bell_vs_separable_rate():
    ne, lam = 512, 0.01
    tau = 2 * np.sqrt(ne)
    times = np.linspace(0.0, 0.35 * tau, 8)
    slopes = {}
    for label, theta in (("bell", np.pi / 4), ("separable", 0.0)):
        spec = rm.ModelSpec("spectator", ne, "GUE", lam, 0.0)
        params = lr.InitParams(theta=theta, phi=np.pi / 4)
        avg = rm.monte_carlo(spec, params, times, 10, 10, qdeco.rng(41))
        slopes[label] = linear_slope(times[1:], 1 - avg.purity[1:])
    ratio = slopes["bell"] / slopes["separable"]
    record("criterion 3 (Bell/separable early decay-rate ratio)",
           abs(ratio - 1.5) <= 0.15,
           f"ratio {ratio:.3f} (expect 3/2 within 10%)")


# ---------------------------------------------------------------------------
# criterion 4: accumulation on the Werner curve
# ---------------------------------------------------------------------------

def lr_depth_time(cfg, params, depth):
    """Time at which the leading-order loss 1 - P_lr reaches ``depth``.  For
    the Bell-like pair the golden-rule time depth/(3 lambda^2 tau_H) bounds
    it from above."""
    lam, tau = cfg.couplings[0], cfg.tau_h[0]
    return brentq(lambda t: 1 - lr.purity_lr(cfg, params, t) - depth,
                  0.0, depth / (3 * lam**2 * tau))


def _cp_distance_run(ne, lam, n_h, n_i, seed):
    """Werner-curve distance at coupling ``lam`` in units of the mean level
    spacing pi/sqrt(N), sampled until 1 - P_lr = 2.2; returns the distance
    and t_max/tau_H."""
    tau = 2 * np.sqrt(ne)
    lam_code = lam * np.pi / np.sqrt(ne)
    spec = rm.ModelSpec("spectator", ne, "GUE", lam_code, (1.0, 0.0))
    params = lr.InitParams(theta=np.pi / 4, phi=np.pi / 4)
    cfg = lr.LRConfig("spectator", (2,), (tau,), (lam_code,), (1.0,))
    t_max = lr_depth_time(cfg, params, 2.2)
    times = np.linspace(0.0, t_max, 56)
    _, samples = rm.monte_carlo(spec, params, times, n_h, n_i, qdeco.rng(seed),
                                collect_samples=True)
    curve = metrics.bin_cp_samples(samples["purity"], samples["concurrence"])
    return metrics.cp_distance(curve), t_max / tau


def test_criterion_4_strong_coupling_on_werner_curve():
    d, depth = _cp_distance_run(512, 0.14, 15, 15, 51)
    record("criterion 4a (strong coupling hugs the Werner curve)",
           d <= 5e-3, f"lambda sqrt(N)/pi = 0.14, N=512, t_max/tau_H "
           f"{depth:.2f}: curve distance {d:.5f} (tol 5e-3; empirical "
           f"estimate {metrics.werner_deviation_estimate(0.14, 512):.5f})")


def test_criterion_4_weak_coupling_offset():
    d_512, depth_512 = _cp_distance_run(512, 0.02, 12, 12, 52)
    d_1024, depth_1024 = _cp_distance_run(1024, 0.02, 10, 8, 53)
    ok = (d_512 > 2e-3) and (d_1024 > 2e-3) and (d_1024 >= 0.7 * d_512)
    record(
        "criterion 4b (weak-coupling finite offset)", ok,
        f"lambda sqrt(N)/pi = 0.02: distance {d_512:.5f} at N=512 "
        f"(t_max/tau_H {depth_512:.2f}, empirical estimate "
        f"{metrics.werner_deviation_estimate(0.02, 512):.5f}), {d_1024:.5f} "
        f"at N=1024 (t_max/tau_H {depth_1024:.2f}, estimate "
        f"{metrics.werner_deviation_estimate(0.02, 1024):.5f}); want both "
        "> 2e-3 and N=1024 >= 0.7 x N=512 at fixed coupling in level spacings",
    )


# ---------------------------------------------------------------------------
# criterion 5: concurrence-decay formula in the golden-rule regime
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def c5_run():
    ne, lam = 512, 0.05
    tau = 2 * np.sqrt(ne)
    spec = rm.ModelSpec("joint", ne, "GUE", (lam, lam), (0.1, 0.1))
    params = lr.InitParams(theta=np.pi / 4, phi=np.pi / 4)
    # the decay rate goes as lambda^2: the grid of the lambda = 0.1 run, scaled
    times = np.linspace(0.0, 1.6 * (0.1 / lam) ** 2, 33)
    avg = rm.monte_carlo(spec, params, times, 12, 8, qdeco.rng(61),
                         params2=params)
    cfg = lr.LRConfig("joint", (2, 2), (tau, tau), (lam, lam), (0.1, 0.1))
    p_elr = lr.exponentiate(lr.purity_lr(cfg, params, times, params2=params),
                            0.25)
    c_elr, t_star = lr.concurrence_prediction(p_elr, times=times)
    return times, avg, c_elr, t_star, lam * np.sqrt(ne) / np.pi


def test_criterion_5_concurrence_match(c5_run):
    times, avg, c_elr, _, lam_ls = c5_run
    dead = np.flatnonzero(avg.concurrence < 0.01)
    k = dead[0] if dead.size else len(times)
    gap = np.max(np.abs(avg.concurrence[:k] - c_elr[:k]))
    record(
        "criterion 5a (concurrence prediction, golden-rule regime)",
        gap <= 0.05,
        f"lambda sqrt(N)/pi = {lam_ls:.2f}, N=512: max |C - prediction| "
        f"before sudden death {gap:.3f} (tol 0.05); the coupling's width "
        "stays well inside the bath band, where the second-order rate holds",
    )


def test_criterion_5_sudden_death_time(c5_run):
    times, avg, _, t_star, _ = c5_run
    dead = np.flatnonzero(avg.concurrence < 0.01)
    assert dead.size and t_star is not None
    t_mc = times[dead[0]]
    rel = abs(t_mc - t_star) / t_star
    record("criterion 5b (sudden-death time)", rel <= 0.15,
           f"predicted {t_star:.3f}, observed {t_mc:.3f}, rel dev {rel:.3f} "
           "(tol 0.15)")


# ---------------------------------------------------------------------------
# criterion 6: exact oracle equivalences
# ---------------------------------------------------------------------------

def test_criterion_6_oracle_equivalences():
    g = qdeco.rng(71)
    # pure-state concurrence equals sin(2 theta)
    worst_c = max(
        abs(metrics.concurrence(np.outer(p, p.conj())) - np.sin(2 * th))
        for th in np.linspace(0, np.pi / 4, 9)
        for p in [qstate.two_qubit_pair(th, g.uniform(0, np.pi / 2))])
    # forward vs echo purity on a dense model
    spec = rm.ModelSpec("spectator", 8, "GUE", 0.3, (0.9, 0.0))
    h, _ = rm.build_hamiltonian(spec, qdeco.rng(72))
    h0, _ = rm.build_hamiltonian(replace(spec, coupling=0.0), qdeco.rng(72))
    psi0 = rm.initial_state(spec, rm.central_state(
        spec, lr.InitParams(theta=0.5, phi=0.6)), qdeco.rng(73))
    worst_echo = 0.0
    for t in (0.3, 0.9, 1.7, 2.9, 4.1):
        u = sla.expm(-1j * h * t)
        m = sla.expm(-1j * h0 * t).conj().T @ u
        worst_echo = max(worst_echo, abs(
            metrics.purity(rm.reduce_central(spec, u @ psi0))
            - metrics.purity(rm.reduce_central(spec, m @ psi0))))
    # closed repeated form-factor integral vs quadrature
    tau = 5.3
    worst_b2 = max(
        abs(rmt.b2_double_integral(2, t, tau)
            - integrate.quad(lambda u: (t - u) * rmt.b2(2, u / tau), 0, t,
                             points=[tau] if tau < t else None,
                             epsabs=1e-13, limit=200)[0])
        for t in g.uniform(0.1, 3 * tau, 12))
    # bitwise kernels vs the dense period operator at 8 spins
    jmat = np.zeros((8, 8))
    for _ in range(9):
        a, b = g.integers(0, 8, 2)
        if a != b:
            jmat[a, b] = jmat[b, a] = g.uniform(-1, 1)
    model = ki.KIModel(8, jmat, g.uniform(-1, 1, (8, 3)))
    u = ki.floquet_matrix(model)
    worst_ki = max(
        np.max(np.abs(ki.floquet_step(psi.copy(), model) - u @ psi))
        for psi in (qstate.random_state(256, g) for _ in range(10)))
    # partial trace vs dense projector trace
    psi = qstate.random_state(256, g)
    keep = 0b01000010
    # kept bits 1 and 6 packed in order into i_a; the other six bits, left
    # in place, label the traced-out index
    i_a = [((mu >> 1) & 1) | ((mu >> 6) & 1) << 1 for mu in range(256)]
    i_b = [mu & ~keep for mu in range(256)]
    proj = np.outer(psi, psi.conj())
    dense = np.zeros((4, 4), dtype=complex)
    for mu in range(256):
        for nu in range(256):
            if i_b[mu] == i_b[nu]:
                dense[i_a[mu], i_a[nu]] += proj[mu, nu]
    worst_pt = np.max(np.abs(qstate.partial_trace(psi, keep) - dense))
    worst = max(worst_c, worst_echo, worst_b2, worst_ki, worst_pt)
    record("criterion 6 (exact oracle equivalences)", worst <= 1e-10,
           f"worst deviation {worst:.2e} (tol 1e-10): concurrence {worst_c:.1e}, "
           f"echo {worst_echo:.1e}, form-factor integral {worst_b2:.1e}, "
           f"kernels {worst_ki:.1e}, partial trace {worst_pt:.1e}")


# ---------------------------------------------------------------------------
# criterion 7: kicked ring, chaotic vs integrable
# ---------------------------------------------------------------------------

def _mean_om(model, steps, stride, reps, seed, central=None):
    central = qstate.ghz_state(2) if central is None else central
    oms = []
    for s in range(reps):
        g = qdeco.rng(seed + s)
        psi0 = ki.initial_state(model, central, g)
        tr = ki.evolve_ki(model, psi0, steps, stride)
        oms.append(1 - tr.purity)
    return tr.times, np.mean(oms, axis=0)


def test_criterion_7_chaotic_linear_and_rmt_alpha():
    q_e, jp = 12, 0.0005
    # the softer chaotic kick set; the harder set is reported alongside
    model, env = ki.build_env_config("d", q_e, jp, (0.9, 0.9, 0.0),
                                     (0.9, 0.9, 0.0), j_env=0.7)
    tau = env.tau_h_estimate
    t, om = _mean_om(model, 40, 2, 10, 300)
    win = (t >= 10) & (t <= tau / 10)
    shape = 1 - lr.rmtki_prediction(t, jp, q_e, tau, alpha=1.0)
    alpha = float(np.sum(om[win] * shape[win]) / np.sum(shape[win] ** 2))
    a1 = np.vstack([np.ones(win.sum()), t[win]]).T
    a2 = np.vstack([np.ones(win.sum()), t[win] ** 2]).T
    ssr_lin = np.linalg.lstsq(a1, om[win], rcond=None)[1][0]
    ssr_quad = np.linalg.lstsq(a2, om[win], rcond=None)[1][0]
    hard, env_h = ki.build_env_config("d", q_e, jp, (1.4, 1.4, 0.0),
                                      (1.4, 1.4, 0.0), j_env=1.0)
    t2, om2 = _mean_om(hard, 40, 2, 6, 330)
    alpha_hard = float(np.sum(om2[win] * shape[win]) / np.sum(shape[win] ** 2))
    ok = (ssr_lin < ssr_quad) and (0.1 <= alpha <= 0.35)
    record("criterion 7a (chaotic ring: linear law and adapted-formula fit)",
           ok,
           f"alpha {alpha:.3f} in [0.1, 0.35] (reference 0.21; the harder "
           f"kick set gives {alpha_hard:.3f} at this size), linear SSR "
           f"{ssr_lin:.2e} < quadratic {ssr_quad:.2e}")


def test_criterion_7_integrable_quadratic():
    q_e, jp = 12, 0.0005
    model, env = ki.build_env_config("d", q_e, jp, (0.0, 1.53, 0.0),
                                     (0.0, 1.53, 0.0))
    jc = env.j_normalized
    t, om = _mean_om(model, 10, 1, 6, 360)
    win = (t >= 2) & (t <= 8)
    coeff = float(np.sum(om[win] * t[win] ** 2) / np.sum(t[win] ** 4))
    rel = abs(coeff / (2 * jc**2) - 1.0)
    record("criterion 7b (integrable ring: early quadratic law)",
           rel <= 0.20,
           f"fitted coefficient / 2 Jc^2 = {coeff / (2 * jc**2):.3f} "
           "(want 1 within 20%)")


def test_criterion_7_open_chain_revivals():
    worst = 1.0
    details = []
    for kind in ("a", "b", "c"):
        model, _ = ki.build_env_config(kind, 10, 0.02, (0.0, 1.53, 0.0),
                                       (0.0, 1.53, 0.0))
        psi0 = ki.initial_state(model, qstate.ghz_state(2), qdeco.rng(370))
        tr = ki.evolve_ki(model, psi0, 260, 1)
        p = tr.purity
        imin = int(np.argmin(p[:120]))
        recovery = (p[imin:].max() - p[imin]) / (1 - p[imin])
        worst = min(worst, recovery)
        details.append(f"({kind}) {recovery:.3f}")
    record("criterion 7c (full revivals for open-chain baths)",
           worst >= 0.9, "recovered fraction of the drop: " + ", ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: additivity of register decoherence
# ---------------------------------------------------------------------------

def _sumrule_run(positions, seed, reps=2):
    n = 4
    full = ki.build_memory_model(12, n, positions, 0.005, (0.9, 0.9, 0.0))
    oms_full, oms_rule = [], []
    for s in range(reps):
        g = qdeco.rng(seed + s)
        psi0 = ki.initial_state(full, qstate.ghz_state(n), g)
        trf = ki.evolve_ki(full, psi0, 1000, 25)
        sp = []
        for i in range(n):
            jm = full.couplings.copy()
            for k, (a_, b_) in enumerate(full.coupling_pairs):
                if k != i:
                    jm[a_, b_] = jm[b_, a_] = 0.0
            mod = replace(full, couplings=jm)
            psi0i = ki.initial_state(mod, qstate.ghz_state(n), qdeco.rng(seed + s))
            sp.append(ki.evolve_ki(mod, psi0i, 1000, 25).purity)
        oms_full.append(1 - trf.purity)
        oms_rule.append(1 - lr.nqubit_sum_rule(sp))
    om = np.mean(oms_full, axis=0)
    rule = np.mean(oms_rule, axis=0)
    window = (om > 0.01) & (om <= 0.1)
    return float(np.max(np.abs(om - rule)[window] / om[window]))


def test_criterion_8_sum_rule_and_negative_control():
    resid = _sumrule_run((0, 3, 6, 9), 400)
    resid_same = _sumrule_run((0, 0, 0, 0), 420, reps=1)
    ok = (resid <= 0.10) and (resid_same > 0.30)
    record("criterion 8a (register additivity on a chaotic ring)", ok,
           f"max relative residual {resid:.3f} (tol 0.10) for separated "
           f"couplings; {resid_same:.3f} (> 0.30 expected) when every qubit "
           "shares one spin")


def test_criterion_8_rmt_analogue():
    # four qubits, one bath, independent couplings: additivity formula with
    # the register's single-qubit purities at 1/2
    n, ne, lam = 4, 128, 0.004
    tau = 2 * np.sqrt(ne)
    spec = rm.ModelSpec("n-qubit", ne, "GUE", lam, (0.0,) * n, n_qubits=n)
    times = np.linspace(0.0, 2 * tau, 21)
    avg = rm.monte_carlo(spec, lr.InitParams(), times, 12, 12, qdeco.rng(81))
    pred = 1 - lr.f_heisenberg(times, tau) * n * lam**2 * 1.5
    om = 1 - pred
    window = (om >= 0.02) & (om <= 0.1)
    rel = np.abs((1 - avg.purity) - om) / np.where(om > 0, om, 1.0)
    worst = rel[window].max()
    record("criterion 8b (additivity formula, random-matrix bath)",
           worst <= 0.10,
           f"max rel err on 1-P over the leading-order window: {worst:.3f} "
           "(tol 0.10)")


# ---------------------------------------------------------------------------
# criterion 9: spectral statistics
# ---------------------------------------------------------------------------

def test_criterion_9_gaussian_ensembles():
    g = qdeco.rng(91)
    unfolded = []
    for _ in range(100):
        e = np.linalg.eigvalsh(rmt.sample_matrix(rmt.EnsembleSpec("GUE", 200), g))
        unfolded.append(rmt.unfold(e).energies)
    bulk = np.concatenate([np.diff(u)[20:-20] for u in unfolded])
    spacing = float(np.mean(bulk))
    tau = 2 * np.pi
    tgrid = np.linspace(0.1, 2.0, 20) * tau
    k2 = np.array([rmt.form_factor(u, tgrid) for u in unfolded])
    sigmas = np.abs(k2.mean(axis=0) - rmt.k2_average(2, tgrid, tau)) \
        / (k2.std(axis=0, ddof=1) / np.sqrt(len(unfolded)))
    goe = []
    for _ in range(100):
        e = np.linalg.eigvalsh(rmt.sample_matrix(rmt.EnsembleSpec("GOE", 200), g))
        goe.append(rmt.unfold(e).energies)
    _, omega = rmt.spacing_statistics(goe)
    ok = (abs(spacing - 1.0) <= 0.03) and (sigmas.max() <= 5.0) \
        and (0.9 <= omega <= 1.05)
    record("criterion 9a (Gaussian-ensemble statistics)", ok,
           f"bulk spacing {spacing:.4f} (1±0.03), form-factor hole within "
           f"{sigmas.max():.2f} sigma (tol 5), Brody {omega:.3f} "
           "(want [0.9, 1.05])")


def test_criterion_9_kicked_ring_spectra():
    cfg = xp.ExperimentConfig(kind="spectral-stats", source="ki-chaotic",
                              ki_spins=12)
    model = xp._ki_spectrum_model(cfg, chaotic=True)
    # the period operator is unitary: 16 of its columns are orthonormal
    cols = ki.floquet_matrix(model)[:, :16].copy()
    assert np.max(np.abs(cols.conj().T @ cols - np.eye(16))) < 1e-10
    del cols
    phases = ki.floquet_spectrum(model)
    _, om_chaotic = rmt.spacing_statistics(phases * model.dim / (2 * np.pi))
    cfg = xp.ExperimentConfig(kind="spectral-stats", source="ki-intermediate",
                              ki_spins=11)
    model = xp._ki_spectrum_model(cfg, chaotic=False)
    phases = ki.floquet_spectrum(model)
    _, om_inter = rmt.spacing_statistics(phases * model.dim / (2 * np.pi))
    ok = (om_chaotic > 0.8) and (0.15 <= om_inter <= 0.55)
    record("criterion 9b (kicked-ring level repulsion)", ok,
           f"chaotic 12-spin Brody {om_chaotic:.3f} (> 0.8), intermediate "
           f"11-spin Brody {om_inter:.3f} (want [0.15, 0.55] desk-scale proxy)")
