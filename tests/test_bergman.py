import importlib.util
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial import cKDTree

from metriclab import bergman as B
from metriclab import geometry as G
from metriclab.errors import DomainError, FactorizationError, KernelInstabilityError
from metriclab.maps import BlaschkeProduct
from metriclab.metrics import bergman_metric_density, density_eval


def disc_kernel_exact(z, w, degree=None):
    """The disc's Bergman kernel 1/(pi (1 - z conj(w))^2), or with ``degree``
    its exact degree-N part sum_{n <= N} (n + 1) (z conj(w))^n / pi."""
    t = z * np.conj(w)
    if degree is None:
        return 1.0 / (math.pi * (1.0 - t) ** 2)
    return sum((n + 1) * t ** n for n in range(degree + 1)) / math.pi


def disc_density_exact(z):
    return math.sqrt(2) / (1.0 - abs(z) ** 2)


# ---------------------------------------------------------------------------
# kernel fit


def test_fit_kernel_disc_basis(disc):
    model = B.fit_kernel_model(disc, degree=10, resolution=0.02)
    assert model.coefficients[0, 0] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-4)
    assert model.coefficients[5, 5] == pytest.approx(math.sqrt(6 / math.pi), abs=1e-3)
    assert model.orthonormality_defect < 1e-8


def _fit_on(monkeypatch, rule, domain, degree):
    # the fit of ``domain`` on a given ``rule``, whatever its degree
    monkeypatch.setattr(B, "boundary_rule", lambda *args: rule)
    return B.fit_kernel_model(domain, degree)


def test_factorization_failure_reports_degree(monkeypatch, disc):
    # more monomials than the rule resolves: the disc's trapezoid rule made
    # for degree 8 has 20 nodes, on which the primitive z^10 / 10 of z^9 is
    # the Nyquist mode, which the FFT drops.  So degree 9's <v, v> is
    # rounding, far under its relative rank threshold
    rule = G.boundary_rule(disc, 8, 10.0)
    assert rule.nodes.size == 20
    for degree in (10, 16):
        with pytest.raises(FactorizationError) as err:
            _fit_on(monkeypatch, rule, disc, degree)
        assert err.value.degree == 9


def test_rank_deficient_overlap_reports_degree(monkeypatch, disc, trapezoid_rule):
    # 21 nodes, an odd count: no Nyquist mode, but z^11 takes the values of
    # z^-10 on the nodes, so the FFT reads the primitive z^11 / 11 of z^10
    # as -z^11 / 10 and degree 10's <v, v> comes out negative: the rule's
    # inner product is indefinite from degree 10 on
    rule = trapezoid_rule(disc, 21)
    for degree in (10, 14):
        with pytest.raises(FactorizationError) as err:
            _fit_on(monkeypatch, rule, disc, degree)
        assert err.value.degree == 10


def test_far_from_orthonormal_basis_raises():
    # the 3x1 ellipse: degree 60 ends at a defect of 4.2e-3 of the stored
    # monomial basis, far above 1e-6; degree 30 at 1.7e-10
    dom = G.ellipse(3, 1)
    with pytest.raises(KernelInstabilityError,
                       match=r"orthonormality defect \S+ exceeds 1e-06; .* from degree (\d+) on") as err:
        B.fit_kernel_model(dom, degree=60, resolution=0.2)
    assert 30 < int(re.search(r"degree (\d+)", str(err.value)).group(1)) <= 60
    assert B.fit_kernel_model(dom, degree=30, resolution=0.2).orthonormality_defect <= 1e-6


def _gram_cholesky_model(domain, rule, degree):
    # independent reference: assemble the monomial Gram matrix
    # G[j, k] = <zeta^k, zeta^j> under the rule, with the primitives
    # scale zeta^(k+1) / (k+1), and factor G = L L^H.  The basis phi = V B^T
    # is orthonormal when conj(B) G B^T = I, so its coefficients are
    # B = conj(L^{-1})
    center, scale = domain.center, G.capacity_radius(domain)
    V = np.vander((rule.nodes - center) / scale, degree + 2, increasing=True)
    prims = V[:, 1:] * (scale / np.arange(1, degree + 2))
    gram = np.stack([rule.area_inner(p, prims) for p in V[:, :-1].T], axis=1)
    L = np.linalg.cholesky(0.5 * (gram + gram.conj().T))
    coeffs = solve_triangular(L, np.eye(degree + 1, dtype=complex), lower=True).conj()
    return B.KernelModel(degree, coeffs, domain, center=center, scale=scale)


def test_arnoldi_and_cholesky_routes_agree(disc):
    # the fit's route (Arnoldi on the boundary rule) against the Gram-
    # Cholesky reference under the same rule
    rule = G.boundary_rule(disc, 16, 0.02)
    via_gram = _gram_cholesky_model(disc, rule, 16)
    via_arnoldi = B.fit_kernel_model(disc, degree=16, resolution=0.02)
    zs = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6])
    K1 = B.kernel_eval(via_gram, zs[:, None], zs[None, :])
    K2 = B.kernel_eval(via_arnoldi, zs[:, None], zs[None, :])
    assert np.max(np.abs(K1 - K2)) < 1e-9


def _assert_same_kernel(model, ref, z):
    K_ref, K = B.kernel_eval(ref, z, z).real, B.kernel_eval(model, z, z).real
    assert np.max(np.abs(K / K_ref - 1)) < 1e-10
    rho_ref, rho = B.bergman_density(ref, z), B.bergman_density(model, z)
    assert np.max(np.abs(rho / rho_ref - 1)) < 1e-9


def test_node_block_changes_the_kernel_only_by_rounding(monkeypatch, trapezoid_rule):
    # the rule is exact at every node count it allows, so how the boundary
    # is cut into nodes moves the kernel by its rounding only: the non-convex
    # hexagon in 6 and 25 panels of 22 nodes, K by 4.6e-14 and rho by
    # 8.4e-14; the degree-48 2 x 1 ellipse on its 100 trapezoid nodes and
    # on 969 built by hand, K by 3.9e-11 and rho by 2.7e-10 (200 points
    # with d >= 0.1)
    hexagon = G.polygon([0, 2, 2.5 + 1.5j, 1 + 1j, 0.5 + 2.5j, -0.5 + 1j])
    ref, model = (B.fit_kernel_model(hexagon, 20, h) for h in (0.2, 0.02))
    assert ref.grid_descriptor != model.grid_descriptor
    _assert_same_kernel(model, ref, _seeded_points(hexagon, 5, 200, 0.1))
    ellipse = G.ellipse(2, 1)
    model = B.fit_kernel_model(ellipse, 48, 0.01)
    ref = _fit_on(monkeypatch, trapezoid_rule(ellipse, 969), ellipse, 48)
    assert (model.grid_descriptor, ref.grid_descriptor) == (
        "trapezoid:100:ellipse:2.0:1.0", "trapezoid:969:ellipse:2.0:1.0")
    _assert_same_kernel(model, ref, _seeded_points(ellipse, 5, 200, 0.1))


def test_fit_sweeps_at_most_once(monkeypatch, disc):
    # Gram-Schmidt with one reorthogonalization: each of the n = degree + 1
    # Arnoldi steps takes one primitive and four inner-product sweeps over
    # the nodes (<v, v> before, two subtractions, <v, v> after), and the
    # defect one more per basis function.  The defects: 4.0e-9 for the
    # degree-48 2 x 1 ellipse and 1.0e-15 for the degree-10 disc
    calls = {"primitive": 0, "area_inner": 0}
    for name in calls:
        real = getattr(G.BoundaryRule, name)

        def counting(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(G.BoundaryRule, name, counting)
    for dom, degree, bound in ((G.ellipse(2, 1), 48, 1e-8), (disc, 10, 1e-10)):
        calls.update(primitive=0, area_inner=0)
        model = B.fit_kernel_model(dom, degree, 0.02)
        assert calls == {"primitive": degree + 1, "area_inner": 5 * (degree + 1)}
        assert model.orthonormality_defect <= bound


@pytest.fixture(scope="module")
def lshape_fit():
    # the rounded L is symmetric under the swap (x, y) -> (y, x) but not
    # under conjugation, so a kernel of the mirror image conj(domain) shows
    dom = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
    return dom, G.boundary_rule(dom, 20, 0.02), B.fit_kernel_model(dom, degree=20, resolution=0.02)


def test_lshape_kernel_is_symmetric_under_the_swap(lshape_fit):
    # the swap maps 1.5 + 0.5i to 0.5 + 1.5i.  The kernel of the mirror
    # image read 1.100 and 2.116 there; the kernel of the L reads 2.331 at both
    dom, rule, model = lshape_fit
    rho = B.bergman_density(model, np.array([1.5 + 0.5j, 0.5 + 1.5j]))
    assert abs(rho[0] / rho[1] - 1) < 1e-10
    assert rho[0] == pytest.approx(2.331, abs=1e-3)
    # against the kernel assembled from the Gram matrix
    zs = np.array([1.5 + 0.5j, 0.5 + 1.5j, 0.3 + 0.3j, 1.2 + 0.8j])
    ref = _gram_cholesky_model(dom, rule, 20)
    K = B.kernel_eval(model, zs[:, None], zs[None, :])
    K_ref = B.kernel_eval(ref, zs[:, None], zs[None, :])
    assert np.max(np.abs(K / K_ref - 1)) < 1e-8


def test_lshape_density_is_invariant_under_a_quarter_turn(lshape_fit):
    # the quarter turn z -> c + i (z - c) about the bounding-box center c
    # maps the L onto an L with the same bounding box, and its boundary
    # rule onto the turned L's: each node lands within 1e-12 of its own
    # node there, whose weight dz is i times its own.  The mirror-image
    # kernel missed by 92%
    dom, rule, model = lshape_fit
    c = dom.center
    turned = G.smoothed_polygon([c + 1j * (v - c) for v in dom.vertices], 0.15)
    assert turned.bounding_box == dom.bounding_box
    turned_rule = G.boundary_rule(turned, 20, 0.02)
    image = c + 1j * (rule.nodes - c)
    gap, k = cKDTree(np.c_[turned_rule.nodes.real, turned_rule.nodes.imag]).query(
        np.c_[image.real, image.imag])
    assert np.unique(k).size == image.size == turned_rule.nodes.size
    assert gap.max() < 1e-12
    assert np.max(np.abs(turned_rule.dz[k] - 1j * rule.dz)) < 1e-12 * np.abs(rule.dz).max()
    z = np.array([1.5 + 0.5j, 0.5 + 1.5j, 0.3 + 0.3j, 1.2 + 0.8j, 0.6 + 0.9j])
    rho = B.bergman_density(model, z)
    rho_turned = B.bergman_density(B.fit_kernel_model(turned, 20, 0.02), c + 1j * (z - c))
    assert np.max(np.abs(rho_turned / rho - 1)) < 1e-10


@pytest.mark.parametrize("coeffs", [[0, 2j, 0, 1], [1, -1, 0.5j], [0, 0, 0, 0, 0, 0, 0, 1 - 1j]])
def test_lshape_kernel_reproduces_polynomials(lshape_fit, coeffs):
    # 2iz + z^3, 1 - z + iz^2/2 and (1 - i) z^7: the mirror-image kernel
    # left a residual of 884 for the first at degree 10
    dom, rule, model = lshape_fit
    for z in (1.5 + 0.5j, 0.5 + 1.5j, 0.4 + 0.3j):
        assert B.reproducing_residual(model, rule, coeffs, z) < 1e-10


# ---------------------------------------------------------------------------
# kernel evaluation and density


def test_kernel_fit_peak_memory_is_bounded(ellipse15):
    # traced peak of the degree-72 fit of the 1.5 x 1 ellipse, on its 148
    # nodes: 0.74 MB, the fit's own arrays of 148 x 74 complex (0.18 MB
    # each).  The model held 1.8 MB of density block buffers until they
    # went; the grid fit held its 6.2 MiB grid and two 4.8 MB block buffers
    tracemalloc.start()
    try:
        model = B.fit_kernel_model(ellipse15, degree=72, resolution=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_kernel_disc_oracle_values(disc_kernel):
    assert abs(B.kernel_eval(disc_kernel, 0.0, 0.0) - 1 / math.pi) < 1e-6
    assert abs(B.kernel_eval(disc_kernel, 0.5, 0.5)
               - disc_kernel_exact(0.5, 0.5)) < 1e-5


def test_disc_kernel_matches_the_exact_degree_40_kernel(disc_kernel):
    # the production fit against the exact degree-40 kernel on 2,000 seeded
    # points with |z| <= 0.9: 8.2e-15 relative
    rng = np.random.default_rng(97)
    z = 0.9 * np.sqrt(rng.uniform(0, 1, 2000)) * np.exp(2j * np.pi * rng.uniform(0, 1, 2000))
    K = B.kernel_eval(disc_kernel, z, z).real
    assert np.max(np.abs(K / disc_kernel_exact(z, z, degree=40).real - 1)) < 3e-6


def test_kernel_hermitian_symmetry(disc_kernel):
    z, w = 0.31 + 0.2j, -0.12 + 0.55j
    assert B.kernel_eval(disc_kernel, z, w) == pytest.approx(
        np.conj(B.kernel_eval(disc_kernel, w, z)), abs=1e-14)


def test_kernel_diagonal_positive(disc_kernel):
    rng = np.random.default_rng(5)
    zs = 0.95 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    vals = np.real(B.kernel_eval(disc_kernel, zs, zs))
    assert np.all(vals > 0)


def test_density_disc_oracle(disc_kernel):
    assert B.bergman_density(disc_kernel, 0.0) == pytest.approx(math.sqrt(2), abs=1e-3)
    assert B.bergman_density(disc_kernel, 0.5) == pytest.approx(
        disc_density_exact(0.5), abs=1e-3)


def test_density_radial_symmetry(disc_kernel):
    for r0 in (0.3, 0.5):
        base = B.bergman_density(disc_kernel, r0 + 0j)
        # quarter turns map the lattice onto itself: machine-level agreement
        for k in range(1, 4):
            assert B.bergman_density(disc_kernel, r0 * 1j ** k) == pytest.approx(
                base, abs=1e-11)
        # generic rotations: limited only by quadrature error
        for theta in (np.pi / 7, 1.0, 2.2):
            assert B.bergman_density(
                disc_kernel, r0 * np.exp(1j * theta)) == pytest.approx(base, abs=1e-6)


def test_density_boundary_blowup(disc_kernel, ellipse15):
    for model, direction in ((disc_kernel, np.exp(0.3j)),):
        vals = [B.bergman_density(model, (1 - d) * direction)
                for d in (0.4, 0.2, 0.1, 0.05, 0.025)]
        assert np.all(np.diff(vals) > 0)
    emodel = B.fit_kernel_model(ellipse15, degree=32, resolution=0.015)
    vals = []
    for d in (0.4, 0.2, 0.1, 0.05):
        z = 1j * (1 - d)
        vals.append(B.bergman_density(emodel, z))
    assert np.all(np.diff(vals) > 0)


def _one_batch_density(model, z):
    """bergman_density as one batch (the oracle of the blocked form): the
    Vandermonde of zeta for every point at once, one product with
    [B^T | D], and the same sums over its (points, 2, N+1) view."""
    zz = np.asarray(z, dtype=complex)
    n = model.degree + 1
    V = np.vander((zz.ravel() - model.center) / model.scale, n, increasing=True)
    bt = model.coefficients.T
    d = np.zeros_like(bt)
    for m in range(n - 1):
        d[m] = (m + 1) * bt[m + 1] / model.scale
    out = (V @ np.hstack([bt, d])).reshape(zz.size, 2, n)
    flat = out.view(float)
    A = np.einsum("ij,ij->i", flat[:, 0], flat[:, 0])
    Azz = np.einsum("ij,ij->i", flat[:, 1], flat[:, 1])
    Az = np.vecdot(out[:, 0], out[:, 1])
    rho = np.sqrt((A * Azz - (Az * np.conj(Az)).real) / (A * A))
    return rho.reshape(zz.shape)


def _two_product_density(model, z):
    """The density by two full products with the Vandermonde and its
    derivative matrix (the formula before the stacked coefficients)."""
    zz = np.asarray(z, dtype=complex)
    n = model.degree + 1
    V = np.vander(model._zeta(zz).ravel(), n, increasing=True)
    phi = V @ model.coefficients.T
    V[:, 1:] = V[:, :-1] * np.arange(1, n)
    V[:, 0] = 0.0
    dphi = V @ model.coefficients.T
    dphi /= model.scale
    A = np.einsum("...j,...j->...", phi, np.conj(phi)).real
    Az = np.einsum("...j,...j->...", dphi, np.conj(phi))
    Azz = np.einsum("...j,...j->...", dphi, np.conj(dphi)).real
    return np.sqrt((A * Azz - (Az * np.conj(Az)).real) / (A * A)).reshape(zz.shape)


@pytest.fixture(scope="module")
def ellipse15_kernel16(ellipse15):
    return B.fit_kernel_model(ellipse15, degree=16, resolution=0.03)


def _ellipse_points(n, seed):
    # uniform in the 1.5 x 1 ellipse
    rng = np.random.default_rng(seed)
    r = 0.98 * np.sqrt(rng.random(n))
    t = 2 * np.pi * rng.random(n)
    return r * (1.5 * np.cos(t) + 1j * np.sin(t))


def test_blocked_density_is_bit_identical(ellipse15_kernel16):
    model = ellipse15_kernel16
    block = B._DENSITY_BLOCK
    z = _ellipse_points(2 * block + 1, 41)
    for n in (2, 3, block - 1, block, block + 1, 2 * block + 1):
        assert np.array_equal(B.bergman_density(model, z[:n]),
                              _one_batch_density(model, z[:n])), n
    # a multi-dimensional batch is evaluated like its flat copy
    assert np.array_equal(B.bergman_density(model, z[:2 * block].reshape(-1, 8)),
                          _one_batch_density(model, z[:2 * block]).reshape(-1, 8))


def test_density_of_a_point_does_not_depend_on_a_large_batch(ellipse15_kernel16):
    # 131,073 points: no 1-point tail block, whose 1-row matmul rounds
    # differently (a 1-point tail gives this last point another value)
    model = ellipse15_kernel16
    z = _ellipse_points(131073, 45)
    omega = bergman_metric_density(model)
    assert omega.eval_array(z)[-1] == B.bergman_density(model, z[-2:])[-1]


def test_density_of_a_point_does_not_depend_on_how_it_is_passed(ellipse15_kernel16):
    # a scalar, a 0-d array, a 1-point array, density_eval and a batch give
    # one value per point
    model = ellipse15_kernel16
    omega = bergman_metric_density(model)
    z = _ellipse_points(300, 61)
    batch = B.bergman_density(model, z)
    for p, want in zip(z, batch):
        assert B.bergman_density(model, complex(p)) == want
        assert B.bergman_density(model, np.asarray(p)) == want
        assert B.bergman_density(model, np.array([p]))[0] == want
        assert density_eval(omega, p) == want


def test_density_peak_memory_is_bounded(ellipse15_kernel16):
    z = _ellipse_points(131072, 47)
    tracemalloc.start()
    try:
        B.bergman_density(ellipse15_kernel16, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.fixture(scope="module")
def ellipse15_kernel48(ellipse15):
    return B.fit_kernel_model(ellipse15, degree=48, resolution=0.015)


def test_panel_density_matches_the_two_product_formula(ellipse15, ellipse15_kernel48):
    # the stacked coefficients change only the rounding:
    # 2,000 points at least 0.01 from the boundary, degree 48
    model = ellipse15_kernel48
    rng = np.random.default_rng(67)
    z = rng.uniform(-1.5, 1.5, 6000) + 1j * rng.uniform(-1, 1, 6000)
    z = z[G.contains(ellipse15, z) & (G.curve_distance(ellipse15, z) >= 0.01)][:2000]
    assert z.size == 2000
    rho = B.bergman_density(model, z)
    assert np.max(np.abs(rho / _two_product_density(model, z) - 1)) < 1e-7


def test_density_block_allocates_its_two_block_arrays(ellipse15_kernel48):
    # a full block holds its 512 x 49 powers of zeta (401 KB) and their
    # 512 x 98 product with [B^T | D] (803 KB), and little else: 1.24 MB
    # traced at its peak
    model = ellipse15_kernel48
    n = model.degree + 1
    z = _ellipse_points(B._DENSITY_BLOCK, 73)
    B.bergman_density(model, z)
    tracemalloc.start()
    try:
        B.bergman_density(model, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= B._DENSITY_BLOCK * 3 * n * 16 + 64 * 2**10


def test_a_kernel_model_equals_only_itself(disc):
    # two fits hold equal but distinct arrays, which == compared elementwise
    a, b = (B.fit_kernel_model(disc, degree=8, resolution=0.05) for _ in range(2))
    assert a == a and a != b and a in [b, a]


def _chebyshev_u_kernel(a, b, degree, z):
    """Exact degree-N kernel diagonal and density of the ellipse with foci
    +-c: the U_n(z/c) are area-orthogonal with squared norms
    pi c^2 (R^(2n+2) - R^(-2n-2)) / (4 (n+1)), R = (a+b)/c."""
    c = math.sqrt(a * a - b * b)
    R = (a + b) / c
    k = np.arange(degree + 1)
    h = math.pi * c * c * (R ** (2 * k + 2) - R ** (-2 * k - 2)) / (4 * (k + 1))
    x = np.asarray(z, dtype=complex) / c
    u = np.empty(x.shape + (degree + 1,), dtype=complex)
    du = np.empty_like(u)
    u[..., 0], du[..., 0] = 1.0, 0.0
    u[..., 1], du[..., 1] = 2.0 * x, 2.0
    for n in range(1, degree):
        u[..., n + 1] = 2.0 * x * u[..., n] - u[..., n - 1]
        du[..., n + 1] = 2.0 * u[..., n] + 2.0 * x * du[..., n] - du[..., n - 1]
    p = u / np.sqrt(h)
    dp = du / (c * np.sqrt(h))
    K = np.sum(np.abs(p) ** 2, axis=-1)
    Kz = np.sum(dp * np.conj(p), axis=-1)
    Kzz = np.sum(np.abs(dp) ** 2, axis=-1)
    return K, np.sqrt((K * Kzz - np.abs(Kz) ** 2) / (K * K))


def test_ellipse_kernel_against_chebyshev_oracle(ellipse15, ellipse15_kernel16):
    model = ellipse15_kernel16
    rng = np.random.default_rng(53)
    z = rng.uniform(-1.5, 1.5, 2000) + 1j * rng.uniform(-1, 1, 2000)
    z = z[G.contains(ellipse15, z) & (G.curve_distance(ellipse15, z) >= 0.1)][:200]
    assert z.size == 200
    K, rho = _chebyshev_u_kernel(1.5, 1.0, 16, z)
    assert np.max(np.abs(B.kernel_eval(model, z, z).real / K - 1)) < 1e-4
    assert np.max(np.abs(B.bergman_density(model, z) / rho - 1)) < 1e-4


def test_density_positivity_floor_guard(monkeypatch, disc_kernel):
    # K(z, z) lowered to the positivity floor at the second point
    terms = B._density_terms

    def floored(model, z):
        A, Az, Azz = terms(model, z)
        A = A.copy()
        A[1] = B._POSITIVITY_FLOOR
        return A, Az, Azz

    z = np.array([0.1, 0.2 + 0.3j, -0.4j])
    monkeypatch.setattr(B, "_density_terms", floored)
    with pytest.raises(KernelInstabilityError, match="at or below positivity floor 1.0e-12"):
        B.bergman_density(disc_kernel, z)
    monkeypatch.undo()
    assert np.all(B.bergman_density(disc_kernel, z) > 0)


def test_negative_radicand_is_reported_not_clamped(monkeypatch, disc_kernel_coarse):
    # K_zzbar shrunk at the second point until the curvature radicand
    # (K K_zzbar - |K_z|^2) / K^2 is negative there
    terms = B._density_terms

    def shrunk(model, z):
        A, Az, Azz = terms(model, z)
        Azz = Azz.copy()
        Azz[1] = 0.5 * (Az[1] * np.conj(Az[1])).real / A[1]
        return A, Az, Azz

    z = np.array([0.1, 0.2 + 0.3j, -0.4j])
    A, Az, Azz = shrunk(disc_kernel_coarse, z)
    rad = (A * Azz - (Az * np.conj(Az)).real) / (A * A)
    assert rad[1] < 0 and rad[0] > 0 and rad[2] > 0
    monkeypatch.setattr(B, "_density_terms", shrunk)
    message = re.escape(f"negative curvature radicand {rad[1]:.3e};")
    with pytest.raises(KernelInstabilityError, match=message):
        B.bergman_density(disc_kernel_coarse, z)
    monkeypatch.undo()
    assert np.all(B.bergman_density(disc_kernel_coarse, z) > 0)


def test_reproducing_residual(disc, disc_kernel):
    rule = G.boundary_rule(disc, 40, 0.01)
    assert B.reproducing_residual(disc_kernel, rule, [1.0], 0.0) < 1e-4
    assert B.reproducing_residual(disc_kernel, rule, [0.0], 0.37 + 0.1j) == 0.0
    assert B.reproducing_residual(disc_kernel, rule, [0, 0, 0, 1.0], 0.3) < 1e-4
    with pytest.raises(DomainError, match="not inside the kernel's domain"):
        B.reproducing_residual(disc_kernel, rule, [1.0], 1.2)
    with pytest.raises(ValueError):
        B.reproducing_residual(disc_kernel, rule, np.ones(disc_kernel.degree + 2), 0.0)


def test_conformal_derivative_lemma():
    # |phi'(z)| (1 - |z|^2) = 1 - |phi(z)|^2 for disc automorphisms, here
    # the one-zero Blaschke factors: the conformal-invariance identity
    # specialized to the disc density
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        a = 0.95 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        phi = BlaschkeProduct((a,))
        lhs = abs(phi.derivative(z)) * (1 - abs(z) ** 2)
        rhs = 1 - abs(phi(z)) ** 2
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_kernel_save_load_roundtrip(tmp_path, disc, disc_kernel_coarse):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    loaded = B.load_kernel(path, domain=disc)
    assert loaded.degree == disc_kernel_coarse.degree
    assert loaded.scale == disc_kernel_coarse.scale
    assert np.array_equal(loaded.coefficients, disc_kernel_coarse.coefficients)
    z = 0.3 + 0.4j
    assert B.kernel_eval(loaded, z, z) == B.kernel_eval(disc_kernel_coarse, z, z)


@pytest.mark.parametrize("keep", ["bytes", "lines", "header"])
def test_load_kernel_truncated_names_path_and_line(tmp_path, disc, disc_kernel_coarse, keep):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    lines = path.read_text().splitlines(keepends=True)
    cut = {"bytes": "".join(lines)[:3000],     # ends inside a coefficient row
           "lines": "".join(lines[:20]),       # coefficient rows missing
           "header": "".join(lines[:3])}[keep]
    path.write_text(cut)
    # the first line that is short or missing
    with pytest.raises(ValueError, match=rf"model\.txt, line {cut.count(chr(10)) + 1}:"):
        B.load_kernel(path, disc)


def test_load_kernel_bad_magic_and_malformed_number(tmp_path, disc, disc_kernel_coarse):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("metriclab-model 1\n" + "".join(lines[1:]))
    with pytest.raises(ValueError, match=r"model\.txt, line 1: not a kernel model file"):
        B.load_kernel(path, disc)
    for i, tok in ((3, 1), (9, 3)):    # the scale, a coefficient
        toks = lines[i].split()
        toks[tok] = "0.5x"
        path.write_text("".join(lines[:i]) + " ".join(toks) + "\n" + "".join(lines[i + 1:]))
        with pytest.raises(ValueError, match=rf"model\.txt, line {i + 1}: malformed number"):
            B.load_kernel(path, disc)


def test_load_kernel_rejects_other_formats_and_trailing_lines(tmp_path, disc, disc_kernel_coarse):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    text = path.read_text()
    for head, shown in (("metriclab-kernel 2", "'2'"), ("metriclab-kernel", "''")):
        path.write_text(text.replace("metriclab-kernel 1", head, 1))
        with pytest.raises(ValueError,
                           match=rf"model\.txt, line 1: kernel file format {shown}, not 1"):
            B.load_kernel(path, disc)
    # the line after row N, the last coefficient row
    last = 7 + disc_kernel_coarse.degree + 1
    for extra in ("0.5 0.5\n", "\n"):
        path.write_text(text + extra)
        with pytest.raises(ValueError, match=rf"model\.txt, line {last + 1}: unexpected line"):
            B.load_kernel(path, disc)


def test_load_kernel_checks_the_domain_line(tmp_path, disc, ellipse15, disc_kernel_coarse):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    # the disc is the ellipse with semi-axes 1 and 1
    text = path.read_text()
    assert "\ndomain ellipse:1.0:1.0\n" in text
    with pytest.raises(ValueError, match=r"model\.txt, line 6: .*'ellipse:1\.0:1\.0'"):
        B.load_kernel(path, domain=ellipse15)
    assert B.load_kernel(path, domain=disc).domain is disc
    # a '-' line, which no model writes, names no domain and loads on none
    path.write_text(text.replace("\ndomain ellipse:1.0:1.0\n", "\ndomain -\n"))
    with pytest.raises(ValueError, match=r"model\.txt, line 6: kernel fitted on '-'"):
        B.load_kernel(path, domain=disc)
    # the stored benchmark kernel belongs to the 1.5x1 ellipse, not the disc
    stored = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "ellipse_1.5x1_deg72_h0.01.kernel")
    with pytest.raises(ValueError, match=r"kernel, line 6: .*'ellipse:1.5:1.0'"):
        B.load_kernel(stored, domain=disc)
    assert B.load_kernel(stored, domain=ellipse15).degree == 72


def _perfbench_oracle():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "oracle.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ellipse_kernel_oracle


def _seeded_points(dom, seed, count, min_dist):
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = dom.bounding_box
    z = rng.uniform(xmin, xmax, 4 * count) + 1j * rng.uniform(ymin, ymax, 4 * count)
    z = z[G.clear_of_boundary(dom, z, min_dist)][:count]
    assert z.size == count
    return z


def test_fit_matches_the_exact_degree_n_kernels(ellipse15, disc, disc_kernel):
    # the boundary rule is exact, so the fit is the exact degree-N kernel
    # up to the rounding of its monomial basis.  Degree-72 E(1.5, 1) on its
    # 148 nodes, on 2,000 points with d >= 0.01: K within 1.5e-9 and rho
    # within 4.2e-9 of perfbench's oracle (the grid fit: 1.7e-6 and 4.9e-6
    # at d >= 0.1)
    z = _seeded_points(ellipse15, 1, 2000, 0.01)
    K, rho = _perfbench_oracle()(1.5, 1.0, 72, z)
    model = B.fit_kernel_model(ellipse15, degree=72, resolution=0.01)
    assert np.max(np.abs(B.kernel_eval(model, z, z).real / K - 1)) <= 1e-7
    assert np.max(np.abs(B.bergman_density(model, z) / rho - 1)) <= 1e-7
    # the degree-40 disc against 1/(pi (1 - z conj(w))^2) truncated at
    # degree 40, at pairs of points with d >= 0.01: 3.7e-13
    z = _seeded_points(disc, 2, 2000, 0.01)
    w = z[::-1]
    got = B.kernel_eval(disc_kernel, z, w)
    assert np.max(np.abs(got - disc_kernel_exact(z, w, degree=40))
                  / np.abs(disc_kernel_exact(z, w, degree=40))) <= 1e-12


def test_fit_does_not_depend_on_the_blas_thread_count():
    # each product of the fit sums every entry in one BLAS dot product, so
    # one and two OpenBLAS threads give the same bits; so do the density's
    # blocks, on 1,025 seeded points 0.01 or more inside (two full blocks
    # and a 1-point tail)
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from metriclab import bergman as B, geometry as G\n"
        "for dom, degree in ((G.ellipse(1.5, 1), 72),\n"
        "                    (G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15), 24)):\n"
        "    m = B.fit_kernel_model(dom, degree, 0.01)\n"
        "    x0, x1, y0, y1 = dom.bounding_box\n"
        "    rng = np.random.default_rng(29)\n"
        "    z = rng.uniform(x0, x1, 4000) + 1j * rng.uniform(y0, y1, 4000)\n"
        "    z = z[G.contains(dom, z) & (G.curve_distance(dom, z) >= 0.01)][:1025]\n"
        "    assert z.size == 1025\n"
        "    print(hashlib.sha256(m.coefficients.tobytes()).hexdigest(),\n"
        "          m.orthonormality_defect.hex(),\n"
        "          hashlib.sha256(B.bergman_density(m, z).tobytes()).hexdigest())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        out.append(run.stdout)
    assert out[0] == out[1] and len(out[0].splitlines()) == 2


def test_ellipse_kernel_defect_within_tolerance(ellipse15_kernel48):
    assert ellipse15_kernel48.orthonormality_defect < 1e-8
