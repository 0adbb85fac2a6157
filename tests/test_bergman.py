import dataclasses
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import qr, solve_triangular
from scipy.linalg.blas import zherk
from scipy.spatial import cKDTree

from metriclab import bergman as B
from metriclab import geometry as G
from metriclab.errors import FactorizationError, KernelInstabilityError
from metriclab.metrics import DiscAutomorphism, bergman_metric_density, density_eval


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
    grid = G.gauss_quadrature_grid(disc, 0.02)
    model = B.fit_kernel_model(disc, degree=10, grid=grid)
    assert model.coefficients[0, 0] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-4)
    assert model.coefficients[5, 5] == pytest.approx(math.sqrt(6 / math.pi), abs=1e-3)
    assert model.orthonormality_defect < 1e-8


def test_factorization_failure_reports_degree(disc):
    # more monomials than quadrature nodes: the weighted Vandermonde is
    # rank-deficient, the first unresolved degree is the node count.  A
    # midpoint rule on the inside cell centers of a coarse lattice keeps the
    # grid at 26 nodes (the Gauss grid has 1,850 here)
    h = 0.35
    centers = G._lattice(disc, h)
    nodes = centers[G.contains(disc, centers)]
    grid = G.QuadratureGrid(nodes, np.full(nodes.size, h * h), h)
    with pytest.raises(FactorizationError) as err:
        B.fit_kernel_model(disc, degree=grid.nodes.size + 2, grid=grid)
    assert err.value.degree == grid.nodes.size


def test_rank_deficient_overlap_reports_degree(disc):
    # more nodes than monomials, but each of the 26 inside cell centers of
    # the h = 0.35 lattice taken three times: rank 26.  Householder QR
    # leaves a rounding-sized diagonal entry, not a zero: at degree 26 it
    # reads 9.4e-17 of R's largest, the next one up 6.0e-6
    h = 0.35
    centers = G._lattice(disc, h)
    nodes = np.repeat(centers[G.contains(disc, centers)], 3)
    assert nodes.size == 78
    grid = G.QuadratureGrid(nodes, np.full(nodes.size, h * h), h)
    for degree in (26, 31):
        with pytest.raises(FactorizationError) as err:
            B.fit_kernel_model(disc, degree=degree, grid=grid)
        assert err.value.degree == 26


def test_far_from_orthonormal_basis_raises():
    # the 3x1 ellipse on a coarse grid: degree 60 ends its sweep at a
    # defect of 7.7e-4 to 1.4e-3 (one or two BLAS threads), far above 1e-6;
    # degree 30 ends below 1e-10
    dom = G.ellipse(3, 1)
    with pytest.raises(KernelInstabilityError,
                       match=r"orthonormality defect \S+ exceeds 1e-06; .* from degree (\d+) on") as err:
        B.fit_kernel_model(dom, degree=60, resolution=0.2)
    assert 30 < int(re.search(r"degree (\d+)", str(err.value)).group(1)) <= 60
    assert B.fit_kernel_model(dom, degree=30, resolution=0.2).orthonormality_defect <= 1e-6


def _gram_cholesky_model(domain, grid, degree):
    # independent reference: assemble the Gram matrix G = V^H W V and factor
    # G = L L^H.  The basis phi = V B^T is orthonormal when conj(B) G B^T =
    # I, so its coefficients are B = conj(L^{-1})
    center, scale = domain.center, G.capacity_radius(domain)
    V = np.vander((grid.nodes - center) / scale, degree + 1, increasing=True)
    gram = V.conj().T @ (grid.weights[:, None] * V)
    L = np.linalg.cholesky(0.5 * (gram + gram.conj().T))
    coeffs = solve_triangular(L, np.eye(degree + 1, dtype=complex), lower=True).conj()
    return B.KernelModel(degree, coeffs, center=center, scale=scale)


def test_tsqr_and_cholesky_routes_agree(disc):
    grid = G.gauss_quadrature_grid(disc, 0.02)
    via_gram = _gram_cholesky_model(disc, grid, 16)
    via_qr = B.fit_kernel_model(disc, degree=16, grid=grid)
    zs = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.6])
    K1 = B.kernel_cross(via_gram, zs, zs)
    K2 = B.kernel_cross(via_qr, zs, zs)
    assert np.max(np.abs(K1 - K2)) < 1e-9


@pytest.fixture(scope="module")
def lshape_fit():
    # the rounded L is symmetric under the swap (x, y) -> (y, x) but not
    # under conjugation, so a kernel of the mirror image conj(domain) shows
    dom = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
    grid = G.gauss_quadrature_grid(dom, 0.02)
    return dom, grid, B.fit_kernel_model(dom, degree=20, grid=grid)


def test_lshape_kernel_is_symmetric_under_the_swap(lshape_fit):
    # the swap maps 1.5 + 0.5i to 0.5 + 1.5i.  The kernel of the mirror
    # image read 1.100 and 2.116 there; the kernel of the L reads 2.331 at both
    dom, grid, model = lshape_fit
    rho = B.bergman_density(model, np.array([1.5 + 0.5j, 0.5 + 1.5j]))
    assert abs(rho[0] / rho[1] - 1) < 1e-10
    assert rho[0] == pytest.approx(2.331, abs=1e-3)
    # against the kernel assembled from the Gram matrix
    zs = np.array([1.5 + 0.5j, 0.5 + 1.5j, 0.3 + 0.3j, 1.2 + 0.8j])
    ref = _gram_cholesky_model(dom, grid, 20)
    K, K_ref = B.kernel_cross(model, zs, zs), B.kernel_cross(ref, zs, zs)
    assert np.max(np.abs(K / K_ref - 1)) < 1e-8


def test_lshape_density_is_invariant_under_a_quarter_turn(lshape_fit):
    # the quarter turn z -> c + i (z - c) about the bounding-box center c
    # maps the L onto an L with the same bounding box, and its grid onto
    # the turned L's grid: each node lands within 1e-12 of its own node
    # there, of the same weight.  The mirror-image kernel missed by 92%
    dom, grid, model = lshape_fit
    c = dom.center
    turned = G.smoothed_polygon([c + 1j * (v - c) for v in dom.vertices], 0.15)
    assert turned.bounding_box == dom.bounding_box
    turned_grid = G.gauss_quadrature_grid(turned, 0.02)
    image = c + 1j * (grid.nodes - c)
    gap, k = cKDTree(np.c_[turned_grid.nodes.real, turned_grid.nodes.imag]).query(
        np.c_[image.real, image.imag])
    assert np.unique(k).size == image.size == turned_grid.nodes.size
    assert gap.max() < 1e-12
    assert np.max(np.abs(turned_grid.weights[k] - grid.weights)) < 1e-12 * grid.weights.max()
    z = np.array([1.5 + 0.5j, 0.5 + 1.5j, 0.3 + 0.3j, 1.2 + 0.8j, 0.6 + 0.9j])
    rho = B.bergman_density(model, z)
    rho_turned = B.bergman_density(B.fit_kernel_model(turned, 20, grid=turned_grid), c + 1j * (z - c))
    assert np.max(np.abs(rho_turned / rho - 1)) < 1e-10


@pytest.mark.parametrize("coeffs", [[0, 2j, 0, 1], [1, -1, 0.5j], [0, 0, 0, 0, 0, 0, 0, 1 - 1j]])
def test_lshape_kernel_reproduces_polynomials(lshape_fit, coeffs):
    # 2iz + z^3, 1 - z + iz^2/2 and (1 - i) z^7: the mirror-image kernel
    # left a residual of 884 for the first at degree 10
    dom, grid, model = lshape_fit
    for z in (1.5 + 0.5j, 0.5 + 1.5j, 0.4 + 0.3j):
        assert B.reproducing_residual(model, grid, coeffs, z) < 1e-10


# ---------------------------------------------------------------------------
# kernel evaluation and density


def _vander_65536(zeta, sw, n):
    # the Vandermonde of the 65,536-row route: np.vander, then weighted
    return sw[:, None] * np.vander(zeta, n, increasing=True)


def _vander_by_columns(zeta, sw, n):
    # the fit's Vandermonde: column k is sw zeta^k, one product per column
    out = np.empty((zeta.size, n), dtype=complex, order="F")
    out[:, 0] = sw
    for k in range(1, n):
        np.multiply(out[:, k - 1], zeta, out=out[:, k])
    return out


def _gram_65536(Q):
    return Q.conj().T @ Q


def _gram_by_zherk(Q):
    U = zherk(1.0, Q.T)
    return np.triu(U).conj() + np.triu(U, 1).T


def _economic_q_route(grid, degree, center, scale, chunk, vander, gram):
    # reference route: each chunk of ``chunk`` nodes stacked under R with
    # np.vstack and factorized with an explicit economic Q; ``vander`` and
    # ``gram`` give a chunk's weighted Vandermonde and Q^H Q.  The basis
    # values Q = A R^{-1} = A B^T give B = R^{-T}.  A defect above 1e-10
    # takes one re-orthonormalization sweep Q <- Q L^{-H} with S = L L^H;
    # returns (B, defect, whether it swept)
    n = degree + 1
    zeta = (grid.nodes - center) / scale
    sw = np.sqrt(grid.weights)
    R = None
    for start in range(0, zeta.size, chunk):
        sl = slice(start, start + chunk)
        A = vander(zeta[sl], sw[sl], n)
        block = A if R is None else np.vstack([R, A])
        R = qr(block, mode="economic")[1]
    diag = np.diag(R)
    R = R * np.conj(diag / np.abs(diag))[:, None]
    Bc = solve_triangular(R, np.eye(n, dtype=complex), lower=False).T

    def grid_overlap(Bcur):
        S = np.zeros((n, n), dtype=complex)
        for start in range(0, zeta.size, chunk):
            sl = slice(start, start + chunk)
            S += gram(vander(zeta[sl], sw[sl], n) @ Bcur.T)
        return S

    S = grid_overlap(Bc)
    defect = float(np.max(np.abs(S - np.eye(n))))
    swept = defect > 1e-10
    if swept:
        L = np.linalg.cholesky(0.5 * (S + S.conj().T))
        Bc = solve_triangular(L.conj(), Bc, lower=True)
        defect = float(np.max(np.abs(grid_overlap(Bc) - np.eye(n))))
    return Bc, defect, swept


@pytest.fixture(scope="module")
def ellipse21_grid():
    # 30,528 nodes: 8 node blocks of the fit, one 65,536-node chunk
    return G.gauss_quadrature_grid(G.ellipse(2, 1), 0.05)


def _clear_points(dom):
    # 200 seeded points at least 0.1 inside the domain
    rng = np.random.default_rng(59)
    xmin, xmax, ymin, ymax = dom.bounding_box
    z = rng.uniform(xmin, xmax, 2000) + 1j * rng.uniform(ymin, ymax, 2000)
    z = z[G.contains(dom, z) & (G.curve_distance(dom, z) >= 0.1)][:200]
    assert z.size == 200
    return z


def _assert_same_kernel(model, ref, z):
    K_ref, K = B.kernel_eval(ref, z, z).real, B.kernel_eval(model, z, z).real
    assert np.max(np.abs(K / K_ref - 1)) < 1e-10
    rho_ref, rho = B.bergman_density(ref, z), B.bergman_density(model, z)
    assert np.max(np.abs(rho / rho_ref - 1)) < 1e-9


def test_r_only_stacked_qr_matches_the_explicit_q_route(ellipse21_grid):
    # the fit merges each node block into R with ztpqrt, starting from R = 0;
    # the reference stacks R on each node block with np.vstack and runs
    # geqrf with an explicit economic Q.  Both do Householder QR of the same
    # rows, so the kernels differ by rounding only: K by 8.8e-12 and rho by
    # 4.2e-10, defects 8.6e-9 against 3.8e-9 (one BLAS thread)
    dom = G.ellipse(2, 1)
    assert ellipse21_grid.nodes.size > 2 * B._NODE_CHUNK
    want, want_defect, swept = _economic_q_route(
        ellipse21_grid, 48, dom.center, G.capacity_radius(dom),
        B._NODE_CHUNK, _vander_by_columns, _gram_by_zherk)
    assert swept
    ref = B.KernelModel(48, want, center=dom.center, scale=G.capacity_radius(dom))
    model = B.fit_kernel_model(dom, degree=48, grid=ellipse21_grid)
    _assert_same_kernel(model, ref, _clear_points(dom))
    assert max(model.orthonormality_defect, want_defect) < 1e-8


def test_stacked_r_matches_a_one_shot_qr(disc):
    # independent oracle: one QR of the whole weighted Vandermonde.  R is
    # unique up to the phases of its rows, so both are taken with a
    # positive real diagonal.  The h = 0.05 grid has 17,980 nodes, so the
    # stack merges 5 blocks
    grid = G.gauss_quadrature_grid(disc, 0.05)
    assert grid.nodes.size > 2 * B._NODE_CHUNK
    n = 17
    sw = np.sqrt(grid.weights)
    want = qr(sw[:, None] * np.vander(grid.nodes, n, increasing=True), mode="r")[0][:n]
    buf = np.empty(B._NODE_CHUNK * n, dtype=complex)
    got = B._stacked_r(B._weighted_vander_blocks(grid, 0.0, 1.0, buf), n)
    assert np.all(np.tril(got, -1) == 0)

    def positive_diagonal(R):
        d = np.diag(R)
        return R * np.conj(d / np.abs(d))[:, None]

    err = np.abs(positive_diagonal(got) - positive_diagonal(want))
    assert np.max(err / np.abs(np.diag(want))[:, None]) < 1e-13


def test_node_block_changes_the_kernel_only_by_rounding(ellipse21_grid):
    # the fit in 65,536-node chunks (here one) with np.vander and a gemm
    # Q^H Q against the fit in cache-sized node blocks.  Any re-blocking
    # moves this degree-48 monomial kernel by its rounding noise: the
    # reference itself in 16,384-node chunks moves K by 1.4e-11 and rho by
    # 3.1e-10, the cache-sized blocks merged by ztpqrt by 1.4e-11 and 6.2e-10
    dom = G.ellipse(2, 1)
    coeffs, _, _ = _economic_q_route(
        ellipse21_grid, 48, dom.center, G.capacity_radius(dom),
        65536, _vander_65536, _gram_65536)
    ref = B.KernelModel(48, coeffs, center=dom.center, scale=G.capacity_radius(dom))
    model = B.fit_kernel_model(dom, degree=48, grid=ellipse21_grid)
    _assert_same_kernel(model, ref, _clear_points(dom))


def _count_grid_passes(monkeypatch, fit):
    # every node block of a grid_overlap pass makes one zherk call
    calls = []

    def counting_zherk(*args, **kwargs):
        calls.append(1)
        return zherk(*args, **kwargs)

    monkeypatch.setattr(B, "zherk", counting_zherk)
    return fit(), len(calls)


def test_fit_sweeps_at_most_once(monkeypatch, ellipse21_grid, disc):
    # the degree-48 fit's QR defect (3.4e-8) is above 1e-10: one sweep,
    # so two overlap passes (defect 8.6e-9 with one BLAS thread); a second
    # sweep would only move the defect about within its rounding noise
    dom = G.ellipse(2, 1)
    blocks = math.ceil(ellipse21_grid.nodes.size / B._NODE_CHUNK)
    model, calls = _count_grid_passes(
        monkeypatch, lambda: B.fit_kernel_model(dom, degree=48, grid=ellipse21_grid))
    assert calls == 2 * blocks
    assert model.orthonormality_defect < 1e-8
    # the disc at degree 10 needs no sweep: one pass (defect 1.1e-15)
    grid = G.gauss_quadrature_grid(disc, 0.02)
    model, calls = _count_grid_passes(
        monkeypatch, lambda: B.fit_kernel_model(disc, degree=10, grid=grid))
    assert calls == math.ceil(grid.nodes.size / B._NODE_CHUNK)
    assert model.orthonormality_defect <= 1e-10


def test_kernel_fit_peak_memory_is_bounded(ellipse21_grid):
    # traced peak of the degree-48 fit on 30,528 nodes: 6.55 MiB, its two
    # 4,096 x 49 block buffers (6.1 MiB) and small change.  Forming zeta and
    # sqrt(w) for the whole grid, with separate QR and overlap buffers and a
    # fresh basis block per overlap block, peaked at 10.1 MiB; the reference
    # route's one 65,536-node chunk at 72.9 MB
    tracemalloc.start()
    try:
        B.fit_kernel_model(G.ellipse(2, 1), degree=48, grid=ellipse21_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * B._NODE_CHUNK * 49 * 16 + 2**20


def test_kernel_disc_oracle_values(disc_kernel):
    assert abs(B.kernel_eval(disc_kernel, 0.0, 0.0) - 1 / math.pi) < 1e-6
    assert abs(B.kernel_eval(disc_kernel, 0.5, 0.5)
               - disc_kernel_exact(0.5, 0.5)) < 1e-5


def test_disc_kernel_matches_the_exact_degree_40_kernel(disc_kernel):
    # the production fit against the exact degree-40 kernel on 2,000 seeded
    # points with |z| <= 0.9: 1.9e-6 relative (the clipped band; 1.6e-5
    # with 7 halvings and a midpoint leaf rule)
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
    powers of zeta by doubling for every point at once, one product per
    degree panel with [B^T | D] written into an array laid out like the
    workspace's, and the same sums over it."""
    zz = np.asarray(z, dtype=complex)
    p, n, k = zz.size, model.degree + 1, B._DENSITY_PANELS
    w = -(-n // k)
    V = np.empty((p, n), dtype=complex, order="F")
    V[:, 0] = 1.0
    V[:, 1] = zz.ravel() - model.center
    V[:, 1] /= model.scale
    s = 2
    while s < n:
        e = min(2 * s - 1, n)
        # written in place: a product into a fresh array may round otherwise
        np.multiply(V[:, 1:e - s + 1], V[:, s - 1:s], out=V[:, s:e])
        s = e
    bt = np.zeros((n, k * w), dtype=complex)
    bt[:, :n] = model.coefficients.T
    d = np.zeros_like(bt)
    for m in range(n - 1):
        d[m] = (m + 1) * bt[m + 1] / model.scale
    out = np.empty((p, k, 2, w), dtype=complex)
    for j in range(k):
        hi = min((j + 1) * w, n)
        cols = slice(j * w, (j + 1) * w)
        out[:, j] = (V[:, :hi] @ np.hstack([bt[:hi, cols], d[:hi, cols]])).reshape(p, 2, w)
    flat = out.view(float)
    A = np.einsum("ikj,ikj->i", flat[:, :, 0], flat[:, :, 0])
    Azz = np.einsum("ikj,ikj->i", flat[:, :, 1], flat[:, :, 1])
    Az = np.vecdot(out[:, :, 0], out[:, :, 1]).sum(axis=1)
    rho = np.sqrt((A * Azz - (Az * np.conj(Az)).real) / (A * A))
    return rho.reshape(zz.shape)


def _two_product_density(model, z):
    """The density by two full products with the Vandermonde and its
    derivative matrix (the formula before the stacked panels)."""
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
    # the stacked panels and the doubled powers change only the rounding:
    # 2,000 points at least 0.01 from the boundary, degree 48
    model = ellipse15_kernel48
    rng = np.random.default_rng(67)
    z = rng.uniform(-1.5, 1.5, 6000) + 1j * rng.uniform(-1, 1, 6000)
    z = z[G.contains(ellipse15, z) & (G.curve_distance(ellipse15, z) >= 0.01)][:2000]
    assert z.size == 2000
    rho = B.bergman_density(model, z)
    assert np.max(np.abs(rho / _two_product_density(model, z) - 1)) < 1e-7


def test_density_block_allocates_no_block_arrays(monkeypatch, ellipse15_kernel48):
    # one 512 x 49 complex block array is 401 KB; after the first call the
    # powers, products and conjugates live in the model's workspace
    built = []
    make = B._density_workspace
    monkeypatch.setattr(B, "_density_workspace", lambda m: built.append(m) or make(m))
    model = dataclasses.replace(ellipse15_kernel48)
    z = _ellipse_points(2 * B._DENSITY_BLOCK + 1, 73)
    B.bergman_density(model, z[:B._DENSITY_BLOCK])
    workspace = model._workspace
    tracemalloc.start()
    try:
        B.bergman_density(model, z[:B._DENSITY_BLOCK])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10
    for zs in (z[0], z[:12], z):
        B.bergman_density(model, zs)
    assert model._workspace is workspace and built == [model]
    # a copy of the model builds its own
    other = dataclasses.replace(model)
    assert other._workspace is None
    B.bergman_density(other, z[:3])
    assert len(built) == 2 and other._workspace is not workspace


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


def test_density_positivity_floor_guard(disc_kernel):
    with pytest.raises(KernelInstabilityError):
        B.bergman_density(disc_kernel, 0.0, floor=1e9)


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
    grid = G.gauss_quadrature_grid(disc, 0.01)
    assert B.reproducing_residual(disc_kernel, grid, [1.0], 0.0) < 1e-4
    assert B.reproducing_residual(disc_kernel, grid, [0.0], 0.37 + 0.1j) == 0.0
    assert B.reproducing_residual(disc_kernel, grid, [0, 0, 0, 1.0], 0.3) < 1e-4
    with pytest.raises(ValueError):
        B.reproducing_residual(disc_kernel, grid, np.ones(disc_kernel.degree + 2), 0.0)


def test_conformal_derivative_lemma():
    # |phi'(z)| (1 - |z|^2) = 1 - |phi(z)|^2 for disc automorphisms: the
    # conformal-invariance identity specialized to the disc density
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        a = 0.95 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        theta = 2 * np.pi * rng.random()
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        phi = DiscAutomorphism(a, theta)
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
def test_load_kernel_truncated_names_path_and_line(tmp_path, disc_kernel_coarse, keep):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    lines = path.read_text().splitlines(keepends=True)
    cut = {"bytes": "".join(lines)[:3000],     # ends inside a coefficient row
           "lines": "".join(lines[:20]),       # coefficient rows missing
           "header": "".join(lines[:3])}[keep]
    path.write_text(cut)
    # the first line that is short or missing
    with pytest.raises(ValueError, match=rf"model\.txt, line {cut.count(chr(10)) + 1}:"):
        B.load_kernel(path)


def test_load_kernel_bad_magic_and_malformed_number(tmp_path, disc_kernel_coarse):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("metriclab-model 1\n" + "".join(lines[1:]))
    with pytest.raises(ValueError, match=r"model\.txt, line 1: not a kernel model file"):
        B.load_kernel(path)
    for i, tok in ((3, 1), (9, 3)):    # the scale, a coefficient
        toks = lines[i].split()
        toks[tok] = "0.5x"
        path.write_text("".join(lines[:i]) + " ".join(toks) + "\n" + "".join(lines[i + 1:]))
        with pytest.raises(ValueError, match=rf"model\.txt, line {i + 1}: malformed number"):
            B.load_kernel(path)


def test_load_kernel_rejects_other_formats_and_trailing_lines(tmp_path, disc_kernel_coarse):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    text = path.read_text()
    for head, shown in (("metriclab-kernel 2", "'2'"), ("metriclab-kernel", "''")):
        path.write_text(text.replace("metriclab-kernel 1", head, 1))
        with pytest.raises(ValueError,
                           match=rf"model\.txt, line 1: kernel file format {shown}, not 1"):
            B.load_kernel(path)
    # the line after row N, the last coefficient row
    last = 7 + disc_kernel_coarse.degree + 1
    for extra in ("0.5 0.5\n", "\n"):
        path.write_text(text + extra)
        with pytest.raises(ValueError, match=rf"model\.txt, line {last + 1}: unexpected line"):
            B.load_kernel(path)


def test_load_kernel_checks_the_domain_line(tmp_path, disc, ellipse15, disc_kernel_coarse):
    path = tmp_path / "model.txt"
    B.save_kernel(disc_kernel_coarse, path)
    # the disc is the ellipse with semi-axes 1 and 1
    assert "\ndomain ellipse:1.0:1.0\n" in path.read_text()
    with pytest.raises(ValueError, match=r"model\.txt, line 6: .*'ellipse:1\.0:1\.0'"):
        B.load_kernel(path, domain=ellipse15)
    assert B.load_kernel(path).domain is None
    # a model saved without a domain writes '-' and loads on any domain
    B.save_kernel(dataclasses.replace(disc_kernel_coarse, domain=None), path)
    assert "\ndomain -\n" in path.read_text()
    assert B.load_kernel(path, domain=ellipse15).domain is ellipse15
    # the stored benchmark kernel belongs to the 1.5x1 ellipse, not the disc
    stored = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "ellipse_1.5x1_deg72_h0.01.kernel")
    with pytest.raises(ValueError, match=r"kernel, line 6: .*'ellipse:1.5:1.0'"):
        B.load_kernel(stored, domain=disc)
    assert B.load_kernel(stored, domain=ellipse15).degree == 72


def test_ellipse_kernel_defect_within_tolerance(ellipse15_kernel48):
    assert ellipse15_kernel48.orthonormality_defect < 1e-8
