import numpy as np
import pytest
from scipy import integrate, optimize, special

import qdeco
from qdeco import rmt


def test_sample_gaussian_moments():
    g = qdeco.rng(1)
    z = rmt.sample_gaussian(0.7, 1.5, g, 10**5)
    # mean -> x0 within 3 sigma of the mean estimator
    assert abs(z.mean() - 1.5) < 3 * 0.7 * np.sqrt(2.0 / 10**5)
    # real part has variance sigma^2 (this is what makes the ensemble
    # second moments below come out right)
    assert abs(np.var(z.real) - 0.49) < 0.01
    assert abs(np.var(z.imag) - 0.49) < 0.01


def test_sample_gaussian_sigma_zero_limit():
    g = qdeco.rng(2)
    z = rmt.sample_gaussian(1e-12, 2.0, g, 100)
    assert np.allclose(z, 2.0, atol=1e-9)
    with pytest.raises(ValueError):
        rmt.sample_gaussian(0.0, 0.0, g)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        rmt.EnsembleSpec("GSE", 10)
    with pytest.raises(ValueError):
        rmt.EnsembleSpec("GUE", 1)
    assert rmt.EnsembleSpec("GOE", 4).beta == 1


def full_draw_sample_matrix(spec, gen):
    """The draw by its definition: a full complex Gaussian matrix of which
    the strictly upper triangle is kept."""
    n = spec.dim
    if spec.kind == "GUE":
        diag = rmt.sample_gaussian(1.0, 0.0, gen, n).real
        off = rmt.sample_gaussian(1.0 / np.sqrt(2.0), 0.0, gen, (n, n))
    else:
        diag = rmt.sample_gaussian(np.sqrt(2.0), 0.0, gen, n).real
        off = rmt.sample_gaussian(1.0, 0.0, gen, (n, n)).real
    m = np.zeros((n, n), dtype=off.dtype)
    iu = np.triu_indices(n, k=1)
    m[iu] = off[iu]
    m = m + m.conj().T
    m[np.diag_indices(n)] = diag
    return m


@pytest.mark.parametrize("kind, dtype", [("GOE", np.float64), ("GUE", np.complex128)])
@pytest.mark.parametrize("n", [2, 3, 17, 256])
def test_sample_matrix_equals_full_draw(kind, dtype, n):
    # the random stream is pinned: any change to it fails here
    spec = rmt.EnsembleSpec(kind, n)
    for seed in (0, 41):
        got = rmt.sample_matrix(spec, qdeco.rng(seed))
        want = full_draw_sample_matrix(spec, qdeco.rng(seed))
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
    # and the generator is left where the full draw leaves it
    g1, g2 = qdeco.rng(7), qdeco.rng(7)
    rmt.sample_matrix(spec, g1)
    full_draw_sample_matrix(spec, g2)
    assert g1.random() == g2.random()


def test_gue_second_moments():
    g = qdeco.rng(3)
    off, diag = [], []
    for _ in range(400):
        m = rmt.sample_matrix(rmt.EnsembleSpec("GUE", 6), g)
        assert np.max(np.abs(m - m.conj().T)) == 0.0
        off.append(abs(m[0, 1]) ** 2)
        diag.append(m[0, 0].real ** 2)
    assert abs(np.mean(off) - 1.0) < 0.15
    assert abs(np.mean(diag) - 1.0) < 0.15


def test_goe_second_moments():
    g = qdeco.rng(4)
    off, diag = [], []
    for _ in range(400):
        m = rmt.sample_matrix(rmt.EnsembleSpec("GOE", 6), g)
        assert np.max(np.abs(m - m.T)) == 0.0
        off.append(m[0, 1] ** 2)
        diag.append(m[0, 0] ** 2)
    assert abs(np.mean(off) - 1.0) < 0.15
    assert abs(np.mean(diag) - 2.0) < 0.3


def test_semicircle_density_values():
    # unfolding counts the levels below E, so its slope is the semicircle
    # density sqrt(N)/pi sqrt(1 - E^2/4N)
    n, h = 100, 1e-5
    e = np.linspace(-19.0, 19.0, 41)
    slope = (rmt.unfold(e + h, dim=n).energies
             - rmt.unfold(e - h, dim=n).energies) / (2 * h)
    density = np.sqrt(n) / np.pi * np.sqrt(1.0 - e * e / (4.0 * n))
    assert np.max(np.abs(slope - density)) < 1e-6


def test_unfold_endpoints_and_flags():
    n = 50
    edge = 2.0 * np.sqrt(n)
    out = rmt.unfold(np.array([-edge, 0.0, edge, edge * 1.01]), dim=n)
    assert abs(out.energies[0] + n / 2) < 1e-12
    assert abs(out.energies[1]) < 1e-12
    assert abs(out.energies[2] - n / 2) < 1e-12
    assert list(out.clamped) == [False, False, False, True]


def test_unfold_gives_unit_bulk_spacing():
    g = qdeco.rng(5)
    spacings = []
    for _ in range(20):
        e = np.linalg.eigvalsh(rmt.sample_matrix(rmt.EnsembleSpec("GUE", 200), g))
        u = np.sort(rmt.unfold(e).energies)
        spacings.append(np.diff(u)[20:-20])
    mean = np.mean(np.concatenate(spacings))
    assert abs(mean - 1.0) < 0.03


def test_form_factor_t0_is_dim():
    e = np.linspace(-1, 1, 37)
    assert abs(rmt.form_factor(e, 0.0) - 37) < 1e-12


def test_form_factor_poisson_background():
    g = qdeco.rng(6)
    t = np.linspace(1.0, 4.0, 7)
    k2 = np.mean([rmt.form_factor(np.sort(g.uniform(0, 200, 200)), t)
                  for _ in range(300)], axis=0)
    assert np.all(np.abs(k2 - 1.0) < 5.0 / np.sqrt(300))


def test_form_factor_gue_hole():
    g = qdeco.rng(7)
    tau = 2 * np.pi
    vals = []
    for _ in range(150):
        e = np.linalg.eigvalsh(rmt.sample_matrix(rmt.EnsembleSpec("GUE", 200), g))
        vals.append(rmt.form_factor(rmt.unfold(e).energies, tau / 2))
    mean, err = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(mean - 0.5) < 5 * err


def test_b2_values():
    assert rmt.b2(2, 0.5) == 0.5
    assert rmt.b2(1, 0.0) == 1.0
    assert rmt.b2(2, 100.0) == 0.0
    # orthogonal-ensemble tail decays as 1/(12 t^2): 8.3e-6 at t=100
    assert abs(rmt.b2(1, 100.0) - 1.0 / (12 * 100.0**2)) < 1e-9
    with pytest.raises(ValueError):
        rmt.b2(3, 1.0)


def test_b2_double_integral_gue_closed_form():
    tau = 3.7
    assert abs(rmt.b2_double_integral(2, tau, tau) - tau**2 / 3.0) < 1e-12
    assert rmt.b2_double_integral(2, 0.0, tau) == 0.0
    g = qdeco.rng(8)
    for t in g.uniform(0.05, 4 * tau, 20):
        direct, _ = integrate.quad(
            lambda u: (t - u) * rmt.b2(2, u / tau), 0.0, t,
            points=[tau] if tau < t else None, epsabs=1e-13, limit=200)
        assert abs(rmt.b2_double_integral(2, t, tau) - direct) < 1e-10


def test_b2_double_integral_goe_vs_grid():
    tau = 2.0
    t = 2 * tau
    grid = np.linspace(0.0, t, 800001)
    brute = 2.0 * np.trapezoid((t - grid) * rmt.b2(1, grid / tau), grid)
    assert abs(rmt.b2_double_integral(1, t, tau) - brute) < 1e-8


def test_b2_double_integral_goe_closed_form():
    # the closed form against a tight adaptive quadrature, from 1e-7 to 100
    # Heisenberg times: to 1e-12 relative from 2e-3 up; below, the
    # cancelling terms leave a rounding error that grows as x falls
    tau = 2 * np.sqrt(512)
    assert rmt.b2_double_integral(1, 0.0, tau) == 0.0
    for x in np.concatenate([np.geomspace(1e-7, 2e-3, 8, endpoint=False),
                             np.geomspace(2e-3, 100.0, 40), [1.0]]):
        t = x * tau
        direct, _ = integrate.quad(
            lambda u: (t - u) * rmt.b2(1, u / tau), 0.0, t,
            points=[tau] if tau < t else None, epsabs=0.0, epsrel=2e-14,
            limit=400)
        rel = abs(rmt.b2_double_integral(1, t, tau) / (2 * direct) - 1.0)
        assert rel < (1e-12 if x >= 2e-3 else 1e-9), x


def test_brody_fit_goe():
    g = qdeco.rng(9)
    spectra = []
    for _ in range(100):
        e = np.linalg.eigvalsh(rmt.sample_matrix(rmt.EnsembleSpec("GOE", 200), g))
        spectra.append(rmt.unfold(e).energies)
    _, omega = rmt.spacing_statistics(spectra)
    assert 0.9 <= omega <= 1.05


def test_brody_fit_poisson():
    g = qdeco.rng(10)
    spectra = [np.sort(g.uniform(0, 500, 500)) for _ in range(40)]
    _, omega = rmt.spacing_statistics(spectra)
    assert -0.05 <= omega <= 0.1


def test_fit_brody_matches_bounded_minimizer():
    # the golden-section fit against scipy's bounded Brent at a tight xatol,
    # on GOE and Poisson spacings
    g = qdeco.rng(9)
    goe = [rmt.unfold(np.linalg.eigvalsh(
        rmt.sample_matrix(rmt.EnsembleSpec("GOE", 200), g))).energies
        for _ in range(20)]
    poisson = [np.sort(g.uniform(0, 500, 500)) for _ in range(20)]
    for spectra in (goe, poisson):
        s, omega = rmt.spacing_statistics(spectra)
        s = s / s.mean()

        def neg_loglik(w):
            b = special.gamma((w + 2.0) / (w + 1.0)) ** (w + 1.0)
            return -np.sum(np.log(w + 1.0) + np.log(b) + w * np.log(s)
                           - b * s ** (w + 1.0))

        want = optimize.minimize_scalar(neg_loglik, bounds=(-0.3, 1.5),
                                        method="bounded",
                                        options={"xatol": 1e-12}).x
        assert abs(omega - want) < 1e-7


def test_spacing_statistics_needs_levels():
    with pytest.raises(ValueError):
        rmt.spacing_statistics(np.arange(10.0))


def test_fit_brody_recovers_omega():
    # draws from the Brody density (w+1) b s^w exp(-b s^(w+1)), whose CDF
    # 1 - exp(-b s^(w+1)) inverts in closed form; b gives unit mean spacing
    g = qdeco.rng(41)
    for omega in (0.0, 0.33, 1.0):
        b = special.gamma((omega + 2.0) / (omega + 1.0)) ** (omega + 1.0)
        s = (-np.log1p(-g.random(20000)) / b) ** (1.0 / (omega + 1.0))
        assert abs(s.mean() - 1.0) < 0.02
        assert abs(rmt.fit_brody(s) - omega) < 0.03
