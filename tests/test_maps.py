import math
import warnings

import numpy as np
import pytest

from metriclab import geometry as G
from metriclab import maps as MP
from metriclab import metrics as M
from metriclab.errors import DivergentValueError, DomainError


@pytest.fixture(scope="module")
def hyp():
    return M.hyperbolic_density()


def test_identity_eval_and_derivative():
    f = MP.from_name("identity")
    z = 0.3 + 0.1j
    assert f(z) == pytest.approx(z)
    assert f.derivative(z) == pytest.approx(1.0)


def test_power_cusp_values():
    f = MP.PowerCusp(0.0, 0.25, 0.5)
    assert f(0.0) == pytest.approx(0.25)
    assert f.derivative(0.0) == pytest.approx(-0.125)
    with pytest.raises(DivergentValueError):
        f.derivative(1.0)
    # alpha = 1 has a finite derivative everywhere on the closed disc
    g = MP.PowerCusp(0.0, 0.25, 1.0)
    assert g.derivative(1.0) == pytest.approx(-0.25)
    for alpha in (0.0, 1.5):
        with pytest.raises(ValueError, match="cusp exponent"):
            MP.PowerCusp(0.0, 0.25, alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
def test_power_cusp_derivative_from_its_one_power(alpha):
    # f' = -alpha c u / (1 - z) with u = (1 - z)^alpha, against the direct
    # power (1 - z)^(alpha - 1).  On these 100,000 seed-7 points the gap
    # reaches 4.0, 4.0, 3.5 and 1.1 eps at alpha 0.3, 0.5, 0.7 and 1
    f = MP.PowerCusp(0.1 - 0.2j, 0.25 + 0.05j, alpha)
    rng = np.random.default_rng(7)
    z = (1 - 2.0**-9) * np.sqrt(rng.random(100_000)) * np.exp(2j * np.pi * rng.random(100_000))
    val, der = f.value_and_derivative(z)
    direct = -alpha * f.c * (1.0 - z) ** (alpha - 1.0)
    assert np.max(np.abs(der / direct - 1)) <= 16 * np.finfo(float).eps
    assert np.array_equal(val, f(z))
    assert np.array_equal(der, f.derivative(z))
    v0, d0 = f.value_and_derivative(0.5j)
    assert isinstance(v0, complex) and isinstance(d0, complex)
    assert d0 == f.derivative(0.5j)


# the polar route's cusps: the catalog's two, and complex w0 and c
POLAR_CUSPS = [(0.0, 0.25, 0.3), (0.0, 0.25, 0.7), (0.1 - 0.2j, 0.25 + 0.05j, 0.37)]


def _cusp_samples():
    # r = 1 - 2^-k for k = 2..9 at 64 angles, and the boundary at 256
    # angles with z = 1 and its two neighbours of a 4096-sample trace
    t = 2 * np.pi * np.arange(64) / 64 + 0.1
    inner = ((1 - 2.0 ** -np.arange(2, 10))[:, None] * np.exp(1j * t)).ravel()
    edge = np.exp(2j * np.pi * np.r_[0, 1, -1, np.arange(1, 256) * 16 + 3] / 4096)
    return np.concatenate([inner, edge])


@pytest.mark.parametrize("w0, c, alpha", POLAR_CUSPS)
def test_power_cusp_polar_route_is_accurate(w0, c, alpha):
    mpmath = pytest.importorskip("mpmath")
    f = MP.PowerCusp(w0, c, alpha)
    z = _cusp_samples()
    val, der = f(z), f.derivative(z[z != 1])
    with mpmath.workprec(120):
        a, mw0, mc = mpmath.mpf(alpha), mpmath.mpc(w0), mpmath.mpc(c)
        err = [0.0]
        for zk, got in zip(z, val):
            want = mw0 + mc * (1 - mpmath.mpc(zk)) ** a
            if want == 0:  # f(1) = w0 = 0
                assert got == 0
            else:
                err.append(abs(mpmath.mpc(got) - want) / abs(want))
        for zk, got in zip(z[z != 1], der):
            want = -a * mc * (1 - mpmath.mpc(zk)) ** (a - 1)
            err.append(abs(mpmath.mpc(got) - want) / abs(want))
    assert float(max(err)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_power_cusp_keeps_numpy_exact_powers(alpha):
    w0, c = 0.1 - 0.2j, 0.25 + 0.05j
    f = MP.PowerCusp(w0, c, alpha)
    z = _cusp_samples()
    u = np.sqrt(1 - z) if alpha == 0.5 else 1 - z
    assert np.array_equal(f(z), w0 + c * u)


@pytest.mark.parametrize("w0, c, alpha", POLAR_CUSPS)
def test_power_cusp_polar_route_does_not_depend_on_the_batch(w0, c, alpha):
    # numpy's SIMD loops take a batch's tail apart from its body: a point
    # must round alike alone, in 7 points and anywhere in 65,536
    f = MP.PowerCusp(w0, c, alpha)
    rng = np.random.default_rng(31)
    batch = np.sqrt(rng.random(65536)) * np.exp(2j * np.pi * rng.random(65536))
    for z in _cusp_samples()[::37]:
        alone = f(z), (f.derivative(z) if z != 1 else None)
        for pos in (3, 0, 4095, 65535):
            zz = batch[:7].copy() if pos == 3 else batch.copy()
            zz[pos] = z
            assert f(zz)[pos] == alone[0]
            if z != 1:
                assert f.value_and_derivative(zz)[1][pos] == alone[1]


@pytest.mark.parametrize("alpha", [0.3, 0.37, 0.5, 0.7, 1.0])
def test_power_cusp_warns_nowhere_at_z_1(alpha):
    f = MP.PowerCusp(0.0, 0.25, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f(1.0) == 0 and f(np.array([1.0, 0.5]))[0] == 0
        assert MP.boundary_trace(f, 64)[0] == 0
        if alpha == 1.0:
            assert f.derivative(1.0) == -0.25
        else:
            with pytest.raises(DivergentValueError):
                f.value_and_derivative(np.array([0.5, 1.0]))


@pytest.mark.parametrize("name", ["identity", "square", "blaschke_pair", "const_25", "cusp_a70"])
def test_value_and_derivative_equals_the_two_calls(name, ellipse15):
    # the default route and the affine squeeze return exactly f(z) and f'(z)
    rng = np.random.default_rng(8)
    z = 0.999 * np.sqrt(rng.random(4096)) * np.exp(2j * np.pi * rng.random(4096))
    for f in (MP.from_name(name), MP.from_name(name, ellipse15)):
        val, der = f.value_and_derivative(z)
        assert np.array_equal(val, f(z)) and np.array_equal(der, f.derivative(z))
        assert f.value_and_derivative(0.3 - 0.4j) == (f(0.3 - 0.4j), f.derivative(0.3 - 0.4j))


def test_blaschke_conventions():
    b = MP.BlaschkeProduct((0.0,))
    assert b(0.37 + 0.1j) == pytest.approx(0.37 + 0.1j)
    rng = np.random.default_rng(64)
    zs = 0.95 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    assert np.all(b.derivative(zs) == 1.0)
    assert b.derivative(0.0) == 1.0
    b2 = MP.BlaschkeProduct((0.5, -0.3j))
    # derivative at a zero of the product
    fd = (b2(0.5 + 1e-8) - b2(0.5)) / 1e-8
    assert b2.derivative(0.5) == pytest.approx(fd, abs=1e-6)
    with pytest.raises(ValueError):
        MP.BlaschkeProduct((1.0,))


def test_map_validation_rejects_escaping_image():
    with pytest.raises(DomainError):
        MP.PolynomialMap((0.0, 3.0))  # 3z leaves the unit disc

    class Doubled(MP.PolynomialMap):
        def value_and_derivative(self, z):
            val, der = super().value_and_derivative(z)
            return val, 2 * der

    with pytest.raises(ValueError, match="disagrees with finite differences"):
        Doubled((0.0, 0.5))


def test_affine_into_compact_image(ellipse15):
    f = MP.AffineInto(ellipse15, MP.PolynomialMap((0.0, 1.0)), 0.5)
    rng = np.random.default_rng(9)
    zs = np.exp(2j * np.pi * rng.random(64)) * np.sqrt(rng.random(64))
    img = np.asarray(f(zs))
    assert bool(G.contains(ellipse15, img).all())
    assert float(G.curve_distance(ellipse15, img).min()) > 0.4
    with pytest.raises(ValueError):
        MP.AffineInto(ellipse15, MP.PolynomialMap((0.0, 1.0)), 1.5)
    with pytest.raises(ValueError, match="values in the unit disc"):
        MP.AffineInto(ellipse15, MP.PolynomialMap((0.0, 1.0), ellipse15), 0.5)


def test_weighted_derivative_values(hyp):
    ident = MP.from_name("identity")
    assert MP.weighted_derivative(ident, hyp, 0.0) == pytest.approx(1.0)
    sq = MP.from_name("square")
    assert MP.weighted_derivative(sq, hyp, 0.5) == pytest.approx(
        1.0 / (1 - 0.0625), abs=1e-12)


def test_weighted_derivative_outside_target(disc):
    qh = M.quasihyperbolic_density(G.ellipse(0.2, 0.1))
    ident = MP.from_name("identity")
    with pytest.raises(DomainError):
        MP.weighted_derivative(ident, qh, 0.5)


def test_hyperbolic_derivative_modulus_exact(hyp):
    rng = np.random.default_rng(123)
    zs = 0.85 * np.sqrt(rng.random(128)) * np.exp(2j * np.pi * rng.random(128))
    for name in ("identity", "square", "cusp_a50", "blaschke_pair"):
        f = MP.from_name(name)
        gap = np.abs(MP.weighted_derivative(f, hyp, zs)
                     - MP.hyperbolic_derivative_modulus(f, zs))
        assert float(gap.max()) < 1e-15


def test_limit_quotient_matches_weighted_derivative(hyp):
    # d_omega(f(z), f(z+h))/h -> f*(z); solver quotient at h = 0.02 within 5%
    h = 0.02
    points = (0.0, 0.3 + 0.1j, -0.25 - 0.2j)
    for name in ("identity", "scale_50", "cusp_a50", "cusp_a70", "blaschke_pair"):
        f = MP.from_name(name)
        for z in points:
            fstar = MP.weighted_derivative(f, hyp, z)
            fz, fw = complex(f(z)), complex(f(z + h))
            if fz == fw:
                continue
            q = M.weighted_distance(hyp, fz, fw, 1e-3).distance / h
            assert q == pytest.approx(fstar, rel=0.05), (name, z)


def test_limit_quotient_vanishing_derivative(hyp):
    # f(z) = z^2 at z = 0: f* = 0 and the quotient decays linearly in h,
    # q(h) = artanh(h^2)/h ~ h
    f = MP.from_name("square")
    assert MP.weighted_derivative(f, hyp, 0.0) == 0.0
    qs = []
    for h in (0.08, 0.04, 0.02):
        q = M.weighted_distance(hyp, complex(f(0.0)), complex(f(h)), 1e-3).distance / h
        assert q == pytest.approx(h, rel=1e-3)
        qs.append(q)
    assert qs[0] > qs[1] > qs[2]


def _path_upper_bound_check(f, omega, z, w, resolution=0.01):
    """(lhs, rhs) with lhs = d_omega(f(z), f(w)) from the geodesic solver and
    rhs = int over the straight segment [z, w] of f* |dx|; the analytic bound
    says lhs <= rhs up to solver tolerance."""
    z, w = complex(z), complex(w)
    if z == w:
        return 0.0, 0.0
    lhs = M.weighted_distance(omega, complex(f(z)), complex(f(w)), resolution).distance
    fstar = M.MetricDensity(G.unit_disc(), lambda pts: MP.weighted_derivative(f, omega, pts),
                            blows_up=True)
    rhs = float(M._line_quad(fstar, np.array([z]), np.array([w]))[0])
    return lhs, rhs


def test_path_upper_bound_examples(hyp):
    ident = MP.from_name("identity")
    lhs, rhs = _path_upper_bound_check(ident, hyp, 0.0, 0.5)
    assert rhs == pytest.approx(math.atanh(0.5), abs=1e-9)
    assert lhs == pytest.approx(rhs, rel=1e-2)
    assert _path_upper_bound_check(ident, hyp, 0.3j, 0.3j) == (0.0, 0.0)
    sq = MP.from_name("square")
    lhs, rhs = _path_upper_bound_check(sq, hyp, -0.4, 0.4)
    assert lhs == 0.0
    assert rhs > 0.0


def test_path_upper_bound_random_triples(hyp):
    rng = np.random.default_rng(2718)
    names = ("identity", "square", "scale_50", "cusp_a50", "blaschke_pair")
    checked = 0
    while checked < 100:
        name = names[int(rng.integers(len(names)))]
        f = MP.from_name(name)
        z = complex(*(1.4 * (rng.random(2) - 0.5)))
        w = complex(*(1.4 * (rng.random(2) - 0.5)))
        if abs(z) > 0.75 or abs(w) > 0.75:
            continue
        fz, fw = complex(f(z)), complex(f(w))
        if abs(fz - fw) < 5e-3:
            continue
        checked += 1
        lhs, rhs = _path_upper_bound_check(f, hyp, z, w, resolution=0.02)
        assert lhs <= rhs * 1.01 + 1e-12, (name, z, w)


def test_boundary_trace_values():
    ident = MP.from_name("identity")
    tr = MP.boundary_trace(ident, 8, 1.0)
    assert np.allclose(tr[::2], [1, 1j, -1, -1j])
    const = MP.from_name("const_25")
    trc = MP.boundary_trace(const, 16)
    assert np.allclose(trc, 0.25)
    cusp = MP.boundary_trace(MP.PowerCusp(0.0, 0.25, 0.5), 16, 1.0)
    assert cusp[0] == pytest.approx(0.0, abs=1e-12)
    assert cusp[8] == pytest.approx(0.25 * math.sqrt(2), abs=1e-12)
    # compactly contained image: the whole trace stays strictly inside
    assert bool(G.contains(G.unit_disc(), cusp).all())


def test_boundary_trace_validation():
    ident = MP.from_name("identity")
    with pytest.raises(ValueError):
        MP.boundary_trace(ident, 4)
    with pytest.raises(ValueError):
        MP.boundary_trace(ident, 16, 1.5)
    approx = MP.boundary_trace(ident, 16, 1 - 1e-4)
    assert np.allclose(approx, (1 - 1e-4) * MP.boundary_trace(ident, 16), rtol=0, atol=1e-15)
    # (1 + 1e-5) z keeps the validation's sample, |z| <= 1 - 1e-4, inside
    # the disc; its exact trace does not
    with pytest.raises(DomainError, match="leaves the closure"):
        MP.boundary_trace(MP.PolynomialMap((0.0, 1 + 1e-5)), 16)


@pytest.mark.parametrize("n", [64, 4096, 8192])
@pytest.mark.parametrize("r_b", [1.0, 1 - 1e-4])
def test_boundary_trace_even_samples_of_the_doubled_trace(n, r_b):
    # angle 2j of 2n samples rounds exactly like angle j of n, so the
    # n-sample trace is the 2n-sample one's even samples, bit for bit
    for name, f in MP.catalog().items():
        assert np.array_equal(MP.boundary_trace(f, 2 * n, r_b)[::2],
                              MP.boundary_trace(f, n, r_b)), name


@pytest.mark.parametrize("target", [None, G.ellipse(1.5, 1)])
def test_map_values_do_not_depend_on_the_batch_size(target):
    # 40,000 points make temporaries of 625 KiB, which numpy may reuse in
    # place; 1,000-point blocks make none.  Each value must not care
    rng = np.random.default_rng(29)
    z = np.sqrt(rng.random(40000)) * np.exp(2j * np.pi * rng.random(40000))
    blocks = [z[i:i + 1000] for i in range(0, z.size, 1000)]
    for name, f in MP.catalog(target).items():
        pair = f.value_and_derivative(z)
        for got, method in ((f(z), f), (f.derivative(z), f.derivative),
                            (pair[0], f), (pair[1], f.derivative)):
            assert np.array_equal(got, np.concatenate([method(b) for b in blocks])), name


def test_catalog_resolution(ellipse15):
    cat = MP.catalog()
    assert set(cat) >= {"identity", "square", "cusp_a50"}
    f = MP.from_name("cusp_a50", ellipse15)
    assert f.variant == "affine_into"
    rng = np.random.default_rng(1)
    zs = np.sqrt(rng.random(32)) * np.exp(2j * np.pi * rng.random(32))
    assert bool(G.contains(ellipse15, np.asarray(f(zs))).all())
    with pytest.raises(ValueError):
        MP.from_name("no_such_map")


def test_catalog_searches_a_polygon_anchor_once(monkeypatch):
    # every AffineInto map asks for its target's anchor; a polygon's is
    # searched once and kept on the domain, so a 9-map catalog on the
    # smoothed L prices the lattice as often as one search does
    calls = []
    lattice = G._lattice
    monkeypatch.setattr(G, "_lattice", lambda *args: calls.append(1) or lattice(*args))
    vertices = [0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]
    G.interior_anchor(G.smoothed_polygon(vertices, 0.15))
    one_search = len(calls)
    assert one_search >= 1
    calls.clear()
    lshape = G.smoothed_polygon(vertices, 0.15)
    cat = MP.catalog(lshape)
    assert len(cat) == 9 and all(f.anchor == cat["identity"].anchor for f in cat.values())
    assert len(calls) == one_search
    assert G.interior_anchor(lshape) == cat["identity"].anchor and len(calls) == one_search
