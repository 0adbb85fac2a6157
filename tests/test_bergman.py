import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from metriclab import bergman as B
from metriclab import geometry as G
from metriclab.errors import FactorizationError, KernelInstabilityError


def disc_kernel_exact(z, w):
    return 1.0 / (math.pi * (1.0 - z * np.conj(w)) ** 2)


def disc_density_exact(z):
    return math.sqrt(2) / (1.0 - abs(z) ** 2)


# ---------------------------------------------------------------------------
# kernel fit


def test_fit_kernel_disc_basis(disc):
    grid = G.gauss_quadrature_grid(disc, 0.02)
    model = B.fit_kernel_model(disc, degree=10, grid=grid)
    assert model.coefficients[0, 0] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-4)
    assert model.coefficients[5, 5] == pytest.approx(math.sqrt(6 / math.pi), abs=1e-3)
    assert model.orthonormality_defect < 1e-8


def test_factorization_failure_reports_degree(disc):
    # more monomials than quadrature nodes: the weighted Vandermonde is
    # rank-deficient, the first unresolved degree is the node count.  A
    # midpoint rule on the inside cell centers of a coarse lattice keeps the
    # grid at 26 nodes (the Gauss grid's boundary band runs to thousands)
    h = 0.35
    centers = G._lattice(disc, h)
    nodes = centers[G.contains(disc, centers)]
    grid = G.QuadratureGrid(nodes, np.full(nodes.size, h * h), h)
    with pytest.raises(FactorizationError) as err:
        B.fit_kernel_model(disc, degree=grid.nodes.size + 2, grid=grid)
    assert err.value.degree == grid.nodes.size


def test_tsqr_and_cholesky_routes_agree(disc):
    # independent reference: assemble the Gram matrix V^H W V, Cholesky
    # G = L L^H, basis coefficients B = L^{-1}
    grid = G.gauss_quadrature_grid(disc, 0.02)
    center, scale = disc.center, G.capacity_radius(disc)
    V = np.vander((grid.nodes - center) / scale, 17, increasing=True)
    gram = V.conj().T @ (grid.weights[:, None] * V)
    L = np.linalg.cholesky(0.5 * (gram + gram.conj().T))
    coeffs = solve_triangular(L, np.eye(17, dtype=complex), lower=True)
    via_gram = B.KernelModel(16, coeffs, center=center, scale=scale)
    via_qr = B.fit_kernel_model(disc, degree=16, grid=grid)
    zs = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6])
    K1 = B.kernel_cross(via_gram, zs, zs)
    K2 = B.kernel_cross(via_qr, zs, zs)
    assert np.max(np.abs(K1 - K2)) < 1e-9


# ---------------------------------------------------------------------------
# kernel evaluation and density


def test_kernel_disc_oracle_values(disc_kernel):
    assert abs(B.kernel_eval(disc_kernel, 0.0, 0.0) - 1 / math.pi) < 1e-6
    assert abs(B.kernel_eval(disc_kernel, 0.5, 0.5)
               - disc_kernel_exact(0.5, 0.5)) < 1e-5


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


def test_density_positivity_floor_guard(disc_kernel):
    with pytest.raises(KernelInstabilityError):
        B.bergman_density(disc_kernel, 0.0, floor=1e9)


def test_reproducing_residual(disc, disc_kernel):
    grid = G.gauss_quadrature_grid(disc, 0.01)
    assert B.reproducing_residual(disc_kernel, grid, [1.0], 0.0) < 1e-4
    assert B.reproducing_residual(disc_kernel, grid, [0.0], 0.37 + 0.1j) == 0.0
    assert B.reproducing_residual(disc_kernel, grid, [0, 0, 0, 1.0], 0.3) < 1e-4
    with pytest.raises(ValueError):
        B.reproducing_residual(disc_kernel, grid, np.ones(disc_kernel.degree + 2), 0.0)


def test_conformal_derivative_lemma():
    # |phi'(z)| (1 - |z|^2) = 1 - |phi(z)|^2 for disc automorphisms: the
    # conformal-invariance identity specialized to the disc density
    from metriclab.metrics import disc_automorphism

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        a = 0.95 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        theta = 2 * np.pi * rng.random()
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        phi = disc_automorphism(a, theta)
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


def test_ellipse_kernel_defect_within_tolerance(ellipse15):
    model = B.fit_kernel_model(ellipse15, degree=48, resolution=0.015)
    assert model.orthonormality_defect < 1e-8
