import math

import numpy as np
import pytest
from scipy.integrate import quad

from metriclab import growth as GR
from metriclab import maps as MP
from metriclab import metrics as M
from metriclab.errors import DivergentValueError, InsufficientDataError


@pytest.fixture(scope="module")
def hyp():
    return M.hyperbolic_density()


@pytest.fixture(scope="module")
def cusp50():
    return MP.PowerCusp(0.0, 0.25, 0.5)


def quad_mean_oracle(f, omega, r, p):
    """Integral mean of f* on the circle of radius r by direct quadrature."""

    def integrand(t):
        return float(MP.weighted_derivative(f, omega, r * np.exp(1j * t))) ** p

    val, _ = quad(integrand, 0.0, np.pi, limit=400)
    return (val / np.pi) ** (1 / p)


# ---------------------------------------------------------------------------
# integral means


def test_means_constant_function():
    assert GR.integral_means(lambda z: np.full(z.shape, 5.0), 0.3, 1.0, 128) == 5.0
    assert GR.integral_means(lambda z: np.full(z.shape, 5.0), 0.9, 7.0, 128) == pytest.approx(5.0)


def test_means_modulus_of_identity():
    assert GR.integral_means(np.abs, 0.7, 2.0, 256) == pytest.approx(0.7)


def test_means_sup_variant():
    vals = GR.integral_means(lambda z: z.real + 2.0, 0.5, math.inf, 256)
    assert vals == pytest.approx(2.5)


def test_means_parameter_validation():
    with pytest.raises(ValueError):
        GR.integral_means(np.abs, 1.2, 1.0, 128)
    with pytest.raises(ValueError):
        GR.integral_means(np.abs, 0.5, 0.5, 128)
    with pytest.raises(ValueError):
        GR.integral_means(np.abs, 0.5, 1.0, 32)


def test_means_divergent_propagates():
    def g(z):
        with np.errstate(divide="ignore"):
            return 1.0 / (1.0 - np.abs(z) ** 0)  # identically inf

    with pytest.raises(DivergentValueError):
        GR.integral_means(g, 0.5, 1.0, 128)


def test_means_cusp_against_quadrature_oracle(hyp, cusp50):
    g = lambda zs: MP.weighted_derivative(cusp50, hyp, zs)
    for r in (0.9, 0.99):
        for p in (1.0, 2.0):
            oracle = quad_mean_oracle(cusp50, hyp, r, p)
            got = GR.integral_means(g, r, p, 4096)
            assert got == pytest.approx(oracle, rel=2e-3), (r, p)


# ---------------------------------------------------------------------------
# moduli


def test_sup_modulus_constant_trace():
    tr = MP.boundary_trace(MP.from_name("const_25"), 512)
    assert GR.sup_lipschitz_modulus(tr, M.scaled_euclidean_evaluator(1.0), 0.3) == 0.0
    assert GR.mean_lipschitz_modulus(tr, M.scaled_euclidean_evaluator(1.0), 2.0, 0.3) == 0.0


def test_sup_modulus_identity_chord():
    tr = MP.boundary_trace(MP.from_name("identity"), 4096)
    h = 0.2
    got = GR.sup_lipschitz_modulus(tr, M.scaled_euclidean_evaluator(1.0), h)
    # gaps are strictly below h on the sample grid, so the sup sits one
    # angular step under the chord bound 2 sin(h/2)
    assert 2 * math.sin(h / 2) * (1 - 2 * 2 * np.pi / 4096 / h) <= got <= 2 * math.sin(h / 2)


def test_mean_modulus_scaled_circle():
    eps = 0.3
    n, h = 4096, 0.2
    tr = MP.boundary_trace(MP.PolynomialMap((0.0, eps)), n)
    # |phi(t+s) - phi(t)| = 2 eps sin(s/2), constant in t; the sup sits at
    # the largest ladder shift, rounded to the trace's angular grid
    s_eff = round(h * n / (2 * np.pi)) * 2 * np.pi / n
    for p in (1.0, 2.0, 3.5):
        got = GR.mean_lipschitz_modulus(tr, M.scaled_euclidean_evaluator(1.0), p, h)
        assert got == pytest.approx(2 * eps * math.sin(s_eff / 2), rel=1e-12)


def test_small_circle_hyperbolic_modulus_slope_one(hyp):
    eps = 0.3
    n = 32768
    tr = MP.boundary_trace(MP.PolynomialMap((0.0, eps)), n)
    d = M.hyperbolic_distance_closed
    hs = 2.0 ** -np.arange(3, 9)
    curve = GR.modulus_curve(tr, d, hs, math.inf)
    fit = GR.fit_exponent(curve)
    assert fit.slope == pytest.approx(1.0, abs=0.02)
    # the sup sits at the largest representable gap below h; against the
    # closed form there, agreement is exact
    gap = 2 * np.pi / n
    K = math.ceil(hs[-1] / gap) - 1
    exact = M.hyperbolic_distance_closed(eps * np.exp(1j * K * gap), eps)
    assert curve.values[-1] == pytest.approx(exact, rel=1e-12)
    # density limit along the circle: weighted chord ~ eps/(1-eps^2) * s
    assert curve.values[-1] / (K * gap) == pytest.approx(
        eps / (1 - eps ** 2), rel=5e-3)


def test_modulus_divergence_reported(hyp):
    tr = MP.boundary_trace(MP.from_name("identity"), 1024)
    with pytest.raises(DivergentValueError):
        GR.sup_lipschitz_modulus(tr, M.hyperbolic_distance_closed, 0.1)
    with pytest.raises(DivergentValueError):
        GR.mean_lipschitz_modulus(tr, M.hyperbolic_distance_closed, 1.0, 0.1)


def test_modulus_monotone_in_h(cusp50):
    tr = MP.boundary_trace(cusp50, 2048)
    d = M.scaled_euclidean_evaluator(1.0)
    sups = [GR.sup_lipschitz_modulus(tr, d, h) for h in (0.05, 0.1, 0.2, 0.4)]
    assert np.all(np.diff(sups) >= 0)
    means = [GR.mean_lipschitz_modulus(tr, d, 1.5, h) for h in (0.05, 0.1, 0.2, 0.4)]
    assert np.all(np.diff(means) >= 0)


def test_mean_modulus_below_sup_and_p_monotone(cusp50):
    tr = MP.boundary_trace(cusp50, 2048)
    d = M.scaled_euclidean_evaluator(1.0)
    h = 0.2
    sup = GR.sup_lipschitz_modulus(tr, d, h)
    prev = 0.0
    for p in (1.0, 2.0, 4.0, 8.0):
        mean = GR.mean_lipschitz_modulus(tr, d, p, h)
        assert mean <= sup + 1e-12
        assert mean >= prev - 1e-12
        prev = mean


def test_modulus_step_validation(cusp50):
    tr = MP.boundary_trace(cusp50, 64)
    with pytest.raises(ValueError):
        GR.sup_lipschitz_modulus(tr, M.scaled_euclidean_evaluator(1.0), 4.0)
    with pytest.raises(ValueError):
        GR.sup_lipschitz_modulus(tr, M.scaled_euclidean_evaluator(1.0), 0.01)  # below grid


# ---------------------------------------------------------------------------
# exponent fitting


def test_fit_exact_power_laws():
    r = np.array([0.9, 0.99, 0.999, 0.9999, 0.99999])
    curve = GR.MeansCurve(1.0, r, (1 - r) ** -0.5)
    fit = GR.fit_exponent(curve)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.max_residual < 1e-12
    hs = 2.0 ** -np.arange(3, 9)
    mfit = GR.fit_exponent(GR.ModulusCurve(1.0, hs, 3.0 * hs))
    assert mfit.slope == pytest.approx(1.0, abs=1e-12)
    assert mfit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_excludes_zero_values():
    hs = 2.0 ** -np.arange(2, 9)
    vals = 2.0 * hs
    vals[3] = 0.0
    fit = GR.fit_exponent(GR.ModulusCurve(1.0, hs, vals))
    assert fit.n_excluded == 1
    assert fit.n_points == hs.size - 1
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        GR.fit_exponent(GR.ModulusCurve(1.0, np.array([0.1, 0.05, 0.001]),
                                        np.array([1.0, 2.0, 3.0])))
    with pytest.raises(InsufficientDataError):
        # five points but only one decade of span
        GR.fit_exponent(GR.ModulusCurve(
            1.0, np.geomspace(0.1, 0.01, 5), np.geomspace(1, 2, 5)))


def test_means_curve_and_modulus_curve_builders(hyp, cusp50):
    g = lambda zs: MP.weighted_derivative(cusp50, hyp, zs)
    radii = 1 - 2.0 ** -np.arange(2, 10)
    mc = GR.means_curve(g, radii, math.inf, 512)
    assert mc.values.size == radii.size
    fit = GR.fit_exponent(mc)
    # sup means of the alpha = 1/2 cusp grow like (1-r)^(-1/2)
    assert fit.slope == pytest.approx(-0.5, abs=0.05)


def test_modulus_fit_stable_under_sampling(hyp, cusp50):
    # shift quantization at the smallest ladder step dominates the spread,
    # which stays well inside the 0.1 exponent tolerances used downstream
    d = M.hyperbolic_distance_closed
    hs = 2.0 ** -np.arange(3, 9)
    slopes = []
    for n in (4096, 16384):
        tr = MP.boundary_trace(cusp50, n)
        slopes.append(GR.fit_exponent(GR.modulus_curve(tr, d, hs, 1.0)).slope)
    assert slopes[0] == pytest.approx(slopes[1], abs=0.05)
