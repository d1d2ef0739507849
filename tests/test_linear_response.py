import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from qdeco import linear_response as lr
from qdeco import qstate
from qdeco import rmt_models as rm
from qdeco.errors import ConfigError

TAU = 6.0


def cfg_single(configuration, beta, lam=0.01, tau=TAU, delta=0.0, n_env=None):
    return lr.LRConfig(configuration, (beta,), (tau,), (lam,), (delta,), n_env=n_env)


def test_f_heisenberg_values():
    assert lr.f_heisenberg(0.0, TAU) == 0.0
    assert abs(lr.f_heisenberg(TAU, TAU) - 8.0 / 3.0 * TAU**2) < 1e-12


def test_f_heisenberg_smooth_at_crossover():
    # continuous with continuous first derivative at t = tau_H
    h = 1e-6
    left = (lr.f_heisenberg(TAU, TAU) - lr.f_heisenberg(TAU - h, TAU)) / h
    right = (lr.f_heisenberg(TAU + h, TAU) - lr.f_heisenberg(TAU, TAU)) / h
    assert abs(lr.f_heisenberg(TAU + h, TAU) - lr.f_heisenberg(TAU - h, TAU)) < 1e-4
    assert abs(left - right) < 1e-4


def test_geometric_factors():
    gp, gt, g1, g2 = lr.geometric_factors(lr.InitParams(theta=0.0, phi=np.pi / 4))
    assert abs(gp - 0.5) < 1e-12
    gp0, _, g1_0, g2_0 = lr.geometric_factors(lr.InitParams(theta=0.0, phi=0.0))
    assert gp0 == 1.0 and abs(g1_0) < 1e-12 and abs(g2_0 - 1.0) < 1e-12
    _, _, g1b, g2b = lr.geometric_factors(lr.InitParams(theta=np.pi / 4, phi=np.pi / 4))
    assert abs(g1b - 0.5) < 1e-12 and abs(g2b - 1.0) < 1e-12


def test_geometric_factor_monotone_in_theta():
    # more entanglement never lowers either susceptibility factor
    for phi in np.linspace(0, np.pi / 2, 7):
        thetas = np.linspace(0, np.pi / 4, 30)
        g1s, g2s = [], []
        for th in thetas:
            _, _, g1, g2 = lr.geometric_factors(lr.InitParams(theta=th, phi=phi))
            g1s.append(g1)
            g2s.append(g2)
        assert np.all(np.diff(g1s) >= -1e-12)
        assert np.all(np.diff(g2s) >= -1e-12)


def dense_correlations(params, delta, taus):
    """Re C1, S1 and S1' of the coupled qubit with splitting ``delta``, from
    its initial state (the Schmidt weights on the (phi, eta) pair) evolved
    densely."""
    a, b = qstate.schmidt_pair(params.phi, params.eta)
    rho1 = (np.cos(params.theta) ** 2 * np.outer(a, a.conj())
            + np.sin(params.theta) ** 2 * np.outer(b, b.conj()))
    h1 = np.diag([delta / 2, -delta / 2])
    out = []
    for t in taus:
        u = sla.expm(-1j * h1 * t)
        rt = u @ rho1 @ u.conj().T
        c1 = sum(np.exp(-1j * (h1[m, m] - h1[i, i]) * t) * rho1[i, i].real
                 for i in range(2) for m in range(2))
        out.append((c1.real, np.trace(rt @ rho1).real, np.trace(rt @ rho1.T).real))
    return np.array(out).T


def kernel_weights(params, d, taus):
    """What the purity kernel integrates, from the geometric factors:
    g1 + g2 cos(Delta tau) = Re C1 - S1, and for time-reversal-invariant
    couplings g1 - (1 - g2) cos(Delta tau - 2 eta) = 1 - S1'."""
    _, _, g1, g2 = lr.geometric_factors(params)
    return (g1 + g2 * np.cos(d * taus),
            g1 - (1 - g2) * np.cos(d * taus - 2 * params.eta))


def test_correlations_eigenstate_and_bell():
    tau = np.linspace(0, 7, 30)
    eigen = lr.InitParams(theta=0.0, phi=0.0)
    re_c1, s1, _ = dense_correlations(eigen, 1.3, tau)
    assert np.allclose(s1, 1.0)
    assert np.allclose(kernel_weights(eigen, 1.3, tau)[0], re_c1 - 1.0)
    # Bell pair with degenerate splitting: 1 - S1' is gamma independent = 1/2
    for gamma in (-0.8, 0.0, 0.4, 1.2):
        p = lr.InitParams.equatorial(np.pi / 4, gamma)
        _, _, s1p = dense_correlations(p, 0.0, tau)
        assert np.allclose(1 - s1p, 0.5)
        assert np.allclose(kernel_weights(p, 0.0, tau)[1], 0.5)


def test_correlations_vs_dense_qubit():
    params = lr.InitParams(theta=0.31, phi=0.52, eta=0.83)
    taus = np.linspace(0.0, 9.0, 31)
    re_c1, s1, s1p = dense_correlations(params, 1.7, taus)
    weights, weights_tri = kernel_weights(params, 1.7, taus)
    assert np.max(np.abs(re_c1 - s1 - weights)) < 1e-10
    assert np.max(np.abs(1 - s1p - weights_tri)) < 1e-10


def test_initial_qubit_density_properties():
    # the coupled qubit of the pair a run starts from: unit trace and Schmidt
    # weights sin^2 theta, cos^2 theta
    p = lr.InitParams(theta=0.3, phi=0.7, eta=1.1)
    spec = rm.ModelSpec("spectator", 8)
    rho = qstate.partial_trace(rm.central_state(spec, p), 0b01)
    assert abs(np.trace(rho) - 1) < 1e-12
    ev = np.sort(np.linalg.eigvalsh(rho))
    assert np.allclose(ev, [np.sin(0.3) ** 2, np.cos(0.3) ** 2], atol=1e-12)


def test_purity_lr_t0_and_validation():
    cfg = cfg_single("spectator", 2)
    p = lr.InitParams(theta=0.4, phi=0.3)
    assert lr.purity_lr(cfg, p, 0.0) == 1.0
    with pytest.raises(ValueError):
        lr.purity_lr(cfg_single("one-qubit", 2), p, 1.0)  # theta != 0


def test_purity_lr_matches_degenerate_closed_form():
    cfg = cfg_single("one-qubit", 2)
    p = lr.InitParams(theta=0.0, phi=0.3)
    t = np.linspace(0.0, 2 * TAU, 9)
    quad = lr.purity_lr(cfg, p, t)
    closed = lr.closed_forms(cfg, p, t)
    assert np.max(np.abs(quad - closed)) < 1e-8


def test_purity_lr_matches_goe_closed_form():
    cfg = cfg_single("one-qubit", 1)
    p = lr.InitParams.equatorial(0.0, 0.7)
    t = np.linspace(0.0, 2 * TAU, 9)
    assert np.max(np.abs(lr.purity_lr(cfg, p, t) - lr.closed_forms(cfg, p, t))) < 1e-6
    cfgs = cfg_single("spectator", 1)
    ps = lr.InitParams.equatorial(0.5, -0.4)
    assert np.max(np.abs(lr.purity_lr(cfgs, ps, t) - lr.closed_forms(cfgs, ps, t))) < 1e-6


def test_purity_lr_limits_against_fast_form():
    # splitting far above the mean level spacing approaches the fast form
    cfg = cfg_single("spectator", 2, delta=1000.0 / TAU)
    t = np.linspace(0.5, 2 * TAU, 8)
    p = lr.InitParams(theta=0.3, phi=0.4)
    quad = lr.purity_lr(cfg, p, t, points_per_tauh=20000)
    closed = lr.closed_forms(cfg, p, t)
    assert np.max(np.abs((1 - quad) - (1 - closed)) / (1 - closed)) < 0.01


def test_cumulative_trapezoid_matches_scipy_bit_for_bit():
    from scipy.integrate import cumulative_trapezoid

    g = np.random.default_rng(4)
    for n in (2, 3, 1000):
        x = np.sort(g.uniform(0.0, 40.0, n))  # non-uniform grid
        y = np.cos(x) * g.standard_normal(n)
        got = lr.cumulative_trapezoid(y, x)
        want = cumulative_trapezoid(y, x, initial=0)
        assert got.tobytes() == want.tobytes()


def test_closed_forms_regime_errors():
    p = lr.InitParams(theta=0.3, phi=0.4)
    with pytest.raises(ValueError, match="violates"):
        lr.closed_forms(cfg_single("spectator", 2, delta=1.0 / TAU), p, 1.0)
    with pytest.raises(ValueError):
        lr.closed_forms(cfg_single("spectator", 1, delta=100.0 / TAU), p, 1.0)


def test_closed_forms_named_values():
    t = np.linspace(0.0, 2 * TAU, 7)
    # spectator, Bell: prefactor 3/2; separable: 1; ratio of decay rates 3/2
    cfg = cfg_single("spectator", 2, lam=0.02)
    bell = lr.closed_forms(cfg, lr.InitParams(theta=np.pi / 4, phi=np.pi / 4), t)
    sep = lr.closed_forms(cfg, lr.InitParams(theta=0.0, phi=np.pi / 4), t)
    f = lr.f_heisenberg(t, TAU)
    assert np.max(np.abs((1 - bell) - 1.5 * 0.02**2 * f)) < 1e-14
    assert np.max(np.abs((1 - sep) - 0.02**2 * f)) < 1e-14
    # eigenstate in the fast limit: purely linear decay 2 lam^2 t tau
    cfg1 = cfg_single("one-qubit", 2, lam=0.02, delta=100.0 / TAU)
    fast = lr.closed_forms(cfg1, lr.InitParams(theta=0.0, phi=0.0), t)
    assert np.max(np.abs((1 - fast) - 2 * 0.02**2 * t * TAU)) < 1e-14


def test_fast_always_above_degenerate():
    t = np.linspace(0.01, 3 * TAU, 40)
    for theta, phi in ((0.0, 0.3), (0.4, 0.9), (np.pi / 4, np.pi / 4)):
        p = lr.InitParams(theta=theta, phi=phi)
        deg = lr.closed_forms(cfg_single("spectator", 2), p, t)
        fast = lr.closed_forms(cfg_single("spectator", 2, delta=1e4 / TAU), p, t)
        assert np.all(fast - deg > -1e-15)
        assert np.all(fast[t > TAU / 2] > deg[t > TAU / 2])


def test_separate_and_joint_forms():
    t = np.linspace(0.0, 4.0, 5)
    p1 = lr.InitParams(theta=0.3, phi=0.2)
    p2 = lr.InitParams(theta=0.3, phi=0.8)
    cfg = lr.LRConfig("separate", (2, 2), (4.0, 7.0), (0.01, 0.02), (0.0, 0.0))
    out = lr.closed_forms(cfg, p1, t, params2=p2)
    _, gt, _, _ = lr.geometric_factors(p1)
    expect = 1 - (2 - gt) * (0.01**2 * lr.f_heisenberg(t, 4.0)
                             + 0.02**2 * lr.f_heisenberg(t, 7.0))
    assert np.max(np.abs(out - expect)) < 1e-14
    # joint with one degenerate and one fast splitting
    cfj = lr.LRConfig("joint", (2, 2), (TAU, TAU), (0.01, 0.02), (0.0, 1e3 / TAU))
    outj = lr.closed_forms(cfj, p1, t, params2=p2)
    _, _, g1b, g2b = lr.geometric_factors(p2)
    expectj = 1 - 0.01**2 * (2 - gt) * lr.f_heisenberg(t, TAU) \
        - 0.02**2 * (g1b * lr.f_heisenberg(t, TAU) + 2 * TAU * g2b * t)
    assert np.max(np.abs(outj - expectj)) < 1e-14
    # quadrature kernel agrees with the separate-environment sum
    quad = lr.purity_lr(cfg, p1, t, params2=p2)
    assert np.max(np.abs(quad - expect)) < 1e-7


def test_sigma_purity():
    cfg = cfg_single("one-qubit", 1)
    t = 3.0
    base = 4.0 / (3 * np.sqrt(5.0)) * 0.01**2 * t**2
    assert abs(lr.sigma_purity(cfg, lr.InitParams(), t) - base) < 1e-15
    cfgs = cfg_single("spectator", 1)
    assert lr.sigma_purity(cfgs, lr.InitParams(theta=np.pi / 4), t) < 1e-12
    assert abs(lr.sigma_purity(cfgs, lr.InitParams(theta=0.0), t) - base) < 1e-15
    with pytest.raises(ValueError):
        lr.sigma_purity(cfg_single("one-qubit", 2), lr.InitParams(), t)


def test_sigma_coefficient_from_bloch_average():
    # variance of cos(2 gamma) over the uniform sphere measure cos(gamma)/2
    from scipy.integrate import quad
    w = lambda g: np.cos(g) / 2
    mean, _ = quad(lambda g: np.cos(2 * g) * w(g), -np.pi / 2, np.pi / 2)
    var, _ = quad(lambda g: (np.cos(2 * g) - mean) ** 2 * w(g),
                  -np.pi / 2, np.pi / 2)
    assert abs(var - 16.0 / 45.0) < 1e-12
    assert abs(np.sqrt(var) - 4.0 / (3 * np.sqrt(5.0))) < 1e-12


def test_asymptotic_purity():
    assert lr.asymptotic_purity(cfg_single("one-qubit", 2), lr.InitParams()) == 0.5
    bell = lr.InitParams(theta=np.pi / 4)
    assert abs(lr.asymptotic_purity(cfg_single("spectator", 2), bell) - 0.25) < 1e-12
    sep = lr.InitParams(theta=0.0)
    assert abs(lr.asymptotic_purity(cfg_single("spectator", 2), sep) - 0.5) < 1e-12
    cfgj = lr.LRConfig("joint", (2, 2), (TAU, TAU), (0.01, 0.01), (0.0, 0.0))
    assert lr.asymptotic_purity(cfgj, bell) == 0.25


def test_exponentiate():
    assert lr.exponentiate(1.0, 0.5) == 1.0
    assert abs(lr.exponentiate(-1e6, 0.25) - 0.25) < 1e-12
    with pytest.raises(ValueError):
        lr.exponentiate(1.0, 1.0)
    # stays within first-order distance of the input curve at high purity
    p_lr = np.linspace(0.9, 1.0, 20)
    p_elr = lr.exponentiate(p_lr, 0.25)
    bound = (1 - p_lr) ** 2 / (1 - 0.25)
    assert np.all(np.abs(p_elr - p_lr) <= bound + 1e-12)


def test_concurrence_prediction_modes():
    times = np.linspace(0.0, 4.0, 200)
    p = 1.0 - 0.3 * times
    c, t_star = lr.concurrence_prediction(p, times=times)
    assert np.all(c[p <= 1.0 / 3.0] == 0.0)
    assert t_star is not None
    # sudden death where the purity crosses 1/3
    assert abs(t_star - (1 - 1.0 / 3.0) / 0.3) < 0.03
    ones = np.ones_like(times)
    c0_curve, t0 = lr.concurrence_prediction(ones, c0=0.6, times=times)
    assert np.allclose(c0_curve, 0.6)
    assert t0 is None
    with pytest.raises(ValueError):
        lr.concurrence_prediction(p, c0=1.5)


def test_nqubit_sum_rule():
    p = np.linspace(1.0, 0.9, 5)
    assert np.array_equal(lr.nqubit_sum_rule([p]), p)
    assert np.allclose(lr.nqubit_sum_rule([np.ones(5)] * 4), 1.0)
    total = lr.nqubit_sum_rule([p, p, p])
    assert np.allclose(1 - total, 3 * (1 - p))


def test_lrconfig_refuses_nqubit_layout():
    # one initial state cannot describe n coupled qubits: an n-qubit register
    # composes from one-qubit predictions through the sum rule instead
    with pytest.raises(ConfigError, match="nqubit_sum_rule"):
        lr.LRConfig("n-qubit", (2,) * 3, (TAU,) * 3, (0.01, 0.02, 0.015),
                    (0.0,) * 3)


def test_rmtki_prediction():
    assert lr.rmtki_prediction(0.0, 5e-4, 12, 300.0) == 1.0
    t = np.linspace(0.0, 3.0, 7)
    out = lr.rmtki_prediction(t, 5e-4, 12, 300.0, alpha=0.21)
    # 1 - P = alpha (J'/sqrt q)^2 (3 t tau + 4 t^2 / tau): no b2 term
    expect = 0.21 * (5e-4 / np.sqrt(12)) ** 2 * (3 * t * 300.0 + 4 * t**2 / 300.0)
    assert np.max(np.abs((1 - out) - expect)) < 1e-15
    # leading small-t slope of the uncorrelated form: 3 alpha tau (J'/sqrt q)^2
    eps = 1e-4
    slope = (1 - lr.rmtki_prediction(eps, 5e-4, 12, 300.0, alpha=0.21)) / eps
    expect = 3 * 0.21 * 300.0 * (5e-4 / np.sqrt(12)) ** 2
    assert abs(slope / expect - 1.0) < 1e-3


def test_lrconfig_validation():
    with pytest.raises(ValueError):
        lr.LRConfig("joint", (2, 2), (3.0, 4.0), (0.1, 0.1), (0.0, 0.0))  # taus differ
    with pytest.raises(ValueError):
        lr.LRConfig("spectator", (2, 2), (3.0, 3.0), (0.1, 0.1), (0.0, 0.0))
    with pytest.raises(ValueError):
        lr.LRConfig("separate", (2, 2), (3.0, 3.0), (0.1, 0.1), (0.0,))
    with pytest.raises(ValueError):
        cfg_single("nowhere", 2, 0.1, 3.0)
    with pytest.raises(ValueError):
        cfg_single("spectator", 3, 0.1, 3.0)


def test_splitting_near_coherence_width_warns():
    # the analytic diagonal treatment needs the splitting to sit well below
    # the inverse width of the coherent spike (~ n_env / tau_H)
    cfg = cfg_single("one-qubit", 2, 0.001, delta=0.9 * 16 * 2 * np.pi / TAU,
                     n_env=16)
    p = lr.InitParams(theta=0.0, phi=0.3)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        lr.purity_lr(cfg, p, np.array([0.5]))
    assert any("coherence width" in str(x.message) for x in w)


def test_large_decay_warns():
    cfg = cfg_single("spectator", 2, lam=0.2)
    p = lr.InitParams(theta=np.pi / 4, phi=np.pi / 4)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        lr.purity_lr(cfg, p, np.array([5 * TAU]))
    assert any("unreliable" in str(x.message) for x in w)
