import math

import numpy as np
import pytest

from metriclab import geometry as G
from metriclab.errors import DomainError, GridError


def brute_force_boundary_distance(domain, z, n=200001):
    t = np.linspace(0.0, 2 * np.pi, n)
    return float(np.abs(z - G.boundary_point(domain, t)).min())


def test_contains_trivials(disc, square):
    assert G.contains(disc, 0.0)
    assert not G.contains(disc, 1.0)
    assert G.contains(G.ellipse(2, 1), 1.9)
    assert G.contains(square, 0.5)
    assert not G.contains(square, 1.5 + 0.2j)


def test_contains_vectorized_shapes(disc):
    pts = np.array([[0.0, 2.0], [0.5j, 0.99]])
    out = G.contains(disc, pts)
    assert out.shape == (2, 2)
    assert out.tolist() == [[True, False], [True, True]]


def test_boundary_distance_trivials(disc, square):
    assert G.boundary_distance(disc, 0.0) == pytest.approx(1.0)
    assert G.boundary_distance(square, 0.5) == pytest.approx(0.5)
    assert G.boundary_distance(G.ellipse(2, 1), 0.0) == pytest.approx(1.0)


def test_boundary_distance_requires_interior(disc):
    with pytest.raises(DomainError):
        G.boundary_distance(disc, 1.2)


@pytest.mark.parametrize("z", [0.1 + 0j, 1.2 + 0.3j, -0.5 + 0.8j, 0.0 + 0.95j,
                               -1.3 - 0.1j, 0.02 + 0.01j])
def test_ellipse_footpoint_against_scan(z):
    e = G.ellipse(2, 1)
    assert G.curve_distance(e, z) == pytest.approx(
        brute_force_boundary_distance(e, z), abs=1e-8)


def test_boundary_distance_below_any_boundary_point(disc, ellipse15, square):
    rng = np.random.default_rng(11)
    sp = G.smoothed_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 0.3)
    t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    for dom in (disc, ellipse15, square, sp):
        gamma = G.boundary_point(dom, t)
        hits = 0
        while hits < 12:
            xmin, xmax, ymin, ymax = dom.bounding_box
            z = complex(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
            if not G.contains(dom, z):
                continue
            hits += 1
            assert G.boundary_distance(dom, z) <= np.abs(z - gamma).min() + 1e-12


def test_boundary_point_trivials(disc):
    assert G.boundary_point(disc, 0.0) == pytest.approx(1.0)
    assert G.boundary_point(disc, np.pi / 2) == pytest.approx(1j)
    assert G.boundary_point(G.ellipse(2, 1), 0.0) == pytest.approx(2.0)


def test_boundary_point_periodic_and_ccw(square):
    sp = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
    for dom in (square, sp, G.ellipse(1.5, 1)):
        t = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
        g = G.boundary_point(dom, t)
        assert G.boundary_point(dom, 1.0) == pytest.approx(
            G.boundary_point(dom, 1.0 + 2 * np.pi))
        # counterclockwise traversal has positive enclosed (shoelace) area
        area2 = np.sum(g.real * np.roll(g.imag, -1) - g.imag * np.roll(g.real, -1))
        assert area2 > 0


def test_polygon_validation():
    with pytest.raises(ValueError, match="counterclockwise"):
        G.polygon([1 + 1j, 1 - 1j, -1 - 1j, -1 + 1j])  # clockwise
    with pytest.raises(ValueError, match="simple"):
        G.polygon([0, 3, 3 + 2j, 1 - 1j, 2j])  # ccw but self-intersecting
    with pytest.raises(ValueError, match="3 vertices"):
        G.polygon([0, 1])


def test_smoothed_polygon_radius_guard():
    with pytest.raises(ValueError, match="too large"):
        G.smoothed_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 1.2)


def test_smoothed_polygon_area_formula():
    r = 0.3
    sp = G.smoothed_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], r)
    # square minus four corner cuts of area r^2 (tan(pi/4) - pi/4) each
    assert sp.area() == pytest.approx(4 - (4 - math.pi) * r * r, rel=1e-12)
    grid = G.gauss_quadrature_grid(sp, 0.02)
    assert grid.total_weight() == pytest.approx(sp.area(), abs=2e-4)


def test_smoothed_polygon_membership_consistent_with_boundary():
    sp = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)  # reflex corner
    t = np.linspace(0, 2 * np.pi, 997)
    bp = G.boundary_point(sp, t)
    assert float(np.max(G.curve_distance(sp, bp))) < 1e-12
    anchor = G.interior_anchor(sp)
    inward = bp + 1e-6 * (anchor - bp) / np.abs(anchor - bp)
    outward = bp - 1e-6 * (anchor - bp) / np.abs(anchor - bp)
    assert bool(G.contains(sp, inward).all())
    assert not bool(G.contains(sp, outward).any())
    grid = G.gauss_quadrature_grid(sp, 0.01)
    assert grid.total_weight() == pytest.approx(sp.area(), abs=2e-4)


def test_quadrature_square_exact(square):
    grid = G.quadrature_grid(square, 0.5)
    assert grid.total_weight() == pytest.approx(4.0, abs=1e-12)
    assert np.all(grid.weights > 0)
    assert bool(G.contains(square, grid.nodes).all())


def test_quadrature_refinement_convergence(disc, ellipse15, square):
    for dom in (disc, ellipse15, square):
        errs = []
        for h in (0.1, 0.05, 0.025):
            grid = G.quadrature_grid(dom, h)
            assert np.all(grid.weights > 0)
            assert bool(G.contains(dom, grid.nodes).all())
            errs.append(abs(grid.total_weight() - dom.area()))
        # monotone decrease within 5% slack along the dyadic sequence
        assert errs[1] <= errs[0] * 1.05
        assert errs[2] <= errs[1] * 1.05
        # O(h): error at most proportional to h with a generous constant
        assert errs[2] <= 2.0 * dom.area() * 0.025


def test_gauss_grid_accuracy(disc, ellipse15, square):
    # higher-order rule: the area error sits at the boundary-band noise
    # floor, orders of magnitude under the midpoint rule at the same h
    for dom in (disc, ellipse15, square):
        for h in (0.1, 0.05):
            grid = G.gauss_quadrature_grid(dom, h)
            assert np.all(grid.weights > 0)
            assert bool(G.contains(dom, grid.nodes).all())
            assert abs(grid.total_weight() - dom.area()) < 1e-4 * dom.area()


def test_gauss_grid_disc_moments(disc):
    # oracle: int_disc z^j conj(z)^k dA = pi / (j+1) if j == k else 0
    grid = G.gauss_quadrature_grid(disc, 0.02)
    V = np.vander(grid.nodes, 9, increasing=True)
    moments = V.T @ (grid.weights[:, None] * V.conj())
    jj = np.arange(9)
    assert np.max(np.abs(np.diag(moments).real - np.pi / (jj + 1))) < 1e-5
    off = moments - np.diag(np.diag(moments))
    assert np.max(np.abs(off)) < 1e-5


def test_quadrature_too_coarse_raises():
    tiny = G.polygon([0, 0.01, 0.01 + 0.01j])
    with pytest.raises(GridError):
        G.quadrature_grid(tiny, 5.0)


def test_grids_deterministic(disc):
    g1 = G.quadrature_grid(disc, 0.07)
    g2 = G.quadrature_grid(disc, 0.07)
    assert np.array_equal(g1.nodes, g2.nodes)
    assert np.array_equal(g1.weights, g2.weights)


def test_capacity_radius(disc, ellipse15):
    assert G.capacity_radius(disc) == 1.0
    assert G.capacity_radius(ellipse15) == pytest.approx(1.25)
    # geometric-mean proxy for the square of side 2: between in/circumradius
    sq = G.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    assert 1.0 < G.capacity_radius(sq) < math.sqrt(2)


def test_interior_anchor(disc, ellipse15):
    assert G.interior_anchor(disc) == 0
    assert G.interior_anchor(ellipse15) == 0
    lshape = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    anchor = G.interior_anchor(lshape)
    assert G.contains(lshape, anchor)
