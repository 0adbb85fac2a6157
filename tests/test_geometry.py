import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from metriclab import bergman
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


def brentq_ellipse_distance(a, b, z):
    """Oracle: every root of D(t) = (b^2-a^2) sin t cos t + a x sin t - b y cos t
    on [0, pi/2] found by brentq from a sign change of a dense scan, plus both
    endpoints; the nearest of those boundary points gives the distance."""
    x, y = abs(z.real), abs(z.imag)

    def D(t):
        return (b * b - a * a) * math.sin(t) * math.cos(t) + a * x * math.sin(t) \
            - b * y * math.cos(t)

    ts = np.linspace(0.0, np.pi / 2, 4097)
    vals = [D(t) for t in ts]
    roots = [0.0, np.pi / 2]
    for t0, t1, v0, v1 in zip(ts[:-1], ts[1:], vals[:-1], vals[1:]):
        if v0 == 0.0:
            roots.append(t0)
        elif v0 * v1 < 0:
            roots.append(brentq(D, t0, t1, xtol=1e-15))
    return min(math.hypot(a * math.cos(t) - x, b * math.sin(t) - y) for t in roots)


@pytest.mark.parametrize("a, b", [(1.5, 1.0), (2.0, 1.0), (3.0, 1.0)])
def test_ellipse_distance_against_brentq_oracle(a, b):
    e = G.ellipse(a, b)
    evolute = (a * a - b * b) / a
    rng = np.random.default_rng(17)
    t = rng.uniform(0, 2 * np.pi, 12)
    g = G.boundary_point(e, t)
    normal = 1j * (-a * np.sin(t) + 1j * b * np.cos(t))
    normal /= np.abs(normal)
    pts = np.concatenate([
        [0j],
        evolute * np.array([-0.9, -0.5, 0.3, 0.7, 0.99]),      # major axis, inside the evolute
        evolute * np.array([1.2, 1.0, -1.1]),                  # major axis, on or past it
        1j * b * np.array([-0.8, -0.2, 0.4, 0.9]),             # minor axis
        g + 5e-7 * normal, g - 5e-7 * normal,                  # within 1e-6 of the boundary
        g * (1 + rng.uniform(0.05, 1.0, 12)),                  # outside
        rng.uniform(-a, a, 30) + 1j * rng.uniform(-b, b, 30),  # bounding box
    ])
    got = G.curve_distance(e, pts)
    want = np.array([brentq_ellipse_distance(a, b, z) for z in pts])
    assert np.max(np.abs(got - want)) < 1e-14


def _axis_inside_the_evolute(a, b):
    """x = +-(1 - 10^-k) c^2 / a, k = 2..8: the major axis just inside the
    evolute, where the footpoint root is the pole u = 0."""
    k = np.arange(2, 9)
    return np.concatenate([1 - 10.0 ** -k, 10.0 ** -k - 1]) * (a - b) * (a + b) / a


def _ellipse_hard_points(a, b):
    """The inputs where the footpoint root is hardest to reach: the major
    axis just inside the evolute, just off the axis at the evolute, the
    minor axis, points within 1e-9 of the boundary and points 100 times
    outside."""
    e = G.ellipse(a, b)
    t = np.linspace(0.1, 2 * np.pi, 12)
    g, normal = G.boundary_point(e, t), _inward_normal(e, t)
    evolute = (a - b) * (a + b) / a
    return np.concatenate([
        _axis_inside_the_evolute(a, b) + 0j,
        evolute * np.array([1.0, -1.0, 1 + 1e-8]) + 1j * np.array([1e-300, -1e-16, 1e-8]),
        1j * b * np.array([-1.0, -0.5, 0.0, 0.7, 1 - 1e-12]),
        g + 1e-9 * normal, g - 1e-9 * normal,
        100 * g,
    ])


@pytest.mark.parametrize("a", [1.5, 3.0, 10.0])
def test_ellipse_distance_on_the_axis_inside_the_evolute(a):
    # the root of y = 0, a x <= c^2 is the pole u = 0: the footpoint leaves
    # the axis at x' = a^2 x / c^2, and d = b sqrt(1 - x^2 / c^2).  A root
    # search that stops on the axis there returns |x - a|, off by up to
    # 5e-8 at a = 10
    b = 1.0
    x = _axis_inside_the_evolute(a, b)
    want = b * np.sqrt(1 - x * x / ((a - b) * (a + b)))
    assert np.max(np.abs(G.curve_distance(G.ellipse(a, b), x + 0j) - want)) <= 1e-15


@pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
def test_ellipse_distance_independent_of_batch(a):
    # each point stops its Newton root on its own, so one call per point
    # and one call for the whole batch agree bit for bit
    e = G.ellipse(a, 1)
    rng = np.random.default_rng(29)
    n = 20000
    hard = _ellipse_hard_points(a, 1.0)
    z = np.concatenate([hard, rng.uniform(-1.3 * a, 1.3 * a, n) + 1j * rng.uniform(-1.3, 1.3, n)])
    batch = G.curve_distance(e, z)
    idx = np.concatenate([np.arange(hard.size), np.arange(hard.size, z.size, 10)])
    single = np.array([G.curve_distance(e, complex(z[i])) for i in idx])
    assert np.array_equal(single, batch[idx])
    assert np.array_equal(G.curve_distance(e, hard), batch[:hard.size])


def _inward_normal(domain, t):
    # unit inward normal i * gamma'(t) by a central difference
    dt = 1e-6
    tangent = G.boundary_point(domain, t + dt) - G.boundary_point(domain, t - dt)
    return 1j * tangent / np.abs(tangent)


_CLEARANCE_DOMAINS = {
    "ellipse-1.5": G.ellipse(1.5, 1), "ellipse-2": G.ellipse(2, 1),
    "ellipse-3": G.ellipse(3, 1), "disc": G.unit_disc(),
    "lshape": G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]),
    "rounded-lshape": G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15),
}


@pytest.mark.parametrize("name", list(_CLEARANCE_DOMAINS))
@pytest.mark.parametrize("margin", [0.003, 0.025, 0.1])
def test_clear_of_boundary_matches_curve_distance(name, margin):
    dom = _CLEARANCE_DOMAINS[name]
    rng = np.random.default_rng(61)
    xmin, xmax, ymin, ymax = dom.bounding_box
    box = (rng.uniform(1.2 * xmin - 0.1, 1.2 * xmax + 0.1, 4000)
           + 1j * rng.uniform(1.2 * ymin - 0.1, 1.2 * ymax + 0.1, 4000))
    # points margin +- 1e-13 from the boundary along the inward normal,
    # away from sharp corners, where the normal is not defined
    t = rng.uniform(0, 2 * np.pi, 400)
    g = G.boundary_point(dom, t)
    if name == "lshape":   # the one domain with sharp corners
        keep = np.min(np.abs(g[:, None] - np.array(dom.vertices)[None, :]), axis=1) > 0.2
        t, g = t[keep], g[keep]
    nrm = _inward_normal(dom, t)
    z = np.concatenate([box, g + (margin + 1e-13) * nrm, g + (margin - 1e-13) * nrm,
                        g + margin * nrm])
    want = G.contains(dom, z) & (G.curve_distance(dom, z) >= margin)
    assert np.array_equal(G.clear_of_boundary(dom, z, margin), want)
    for p in z[:50]:
        assert G.clear_of_boundary(dom, complex(p), margin) == \
            (G.contains(dom, complex(p)) and float(G.curve_distance(dom, complex(p))) >= margin)


@pytest.mark.parametrize("name", list(_CLEARANCE_DOMAINS))
def test_clear_of_boundary_takes_a_margin_per_point(name):
    # a margin array broadcast against z answers as each point's own margin
    dom = _CLEARANCE_DOMAINS[name]
    rng = np.random.default_rng(62)
    xmin, xmax, ymin, ymax = dom.bounding_box
    z = rng.uniform(xmin, xmax, (300, 3)) + 1j * rng.uniform(ymin, ymax, (300, 3))
    margins = np.array([0.0, 0.025, 0.1])[rng.integers(0, 3, 300)][:, None]
    got = G.clear_of_boundary(dom, z, margins)
    for m in (0.0, 0.025, 0.1):
        rows = margins[:, 0] == m
        assert np.array_equal(got[rows], G.clear_of_boundary(dom, z[rows], m))


@pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
def test_clear_of_boundary_skips_footpoints_the_bound_clears(monkeypatch, a):
    e = G.ellipse(a, 1)
    rng = np.random.default_rng(67)
    z = rng.uniform(-1.1 * a, 1.1 * a, 5000) + 1j * rng.uniform(-1.1, 1.1, 5000)
    margin = 0.025
    want = G.contains(e, z) & (G.curve_distance(e, z) >= margin)
    seen = []
    real_curve_distance = G.curve_distance

    def counting(domain, pts):
        seen.append(np.asarray(pts).copy())
        return real_curve_distance(domain, pts)

    monkeypatch.setattr(G, "curve_distance", counting)
    assert np.array_equal(G.clear_of_boundary(e, z, margin), want)
    reached = np.concatenate(seen)
    # the inner bound (1 - s) b, s = sqrt((x/a)^2 + y^2): what it clears never
    # reaches the footpoint iteration, and it clears most points
    cleared = (1 - np.sqrt((z.real / a) ** 2 + z.imag ** 2)) >= margin + 1e-12
    assert np.array_equal(np.sort_complex(reached),
                          np.sort_complex(z[G.contains(e, z) & ~cleared]))
    assert cleared.sum() > 0.5 * want.sum()


@pytest.mark.parametrize("a, h", [(1.5, 0.05), (2.0, 0.05), (3.0, 0.1)])
def test_grid_build_skips_footpoints_the_bound_settles(monkeypatch, a, h):
    # the bound |1 - s| b settles a point's distance against a threshold,
    # inside or outside, without the footpoint iteration; the kernel fit's
    # boundary rule needs no distance at all: its nodes are the curve's own
    # points, so building it reaches neither the bound nor a footpoint
    e = G.ellipse(a, 1)
    rng = np.random.default_rng(79)
    z = rng.uniform(-1.5 * a, 1.5 * a, 4000) + 1j * rng.uniform(-1.5, 1.5, 4000)
    for threshold in (1e-3, 0.01, 0.1, 0.3):
        settled = e._clears(z, threshold)
        assert settled.any() and (settled & ~G.contains(e, z)).any()
        assert np.all(G.curve_distance(e, z[settled]) > threshold)
    reached = []
    monkeypatch.setattr(G, "curve_distance", lambda domain, pts: reached.append(pts))
    monkeypatch.setattr(e, "_clears", lambda pts, threshold: reached.append(pts))
    rule = G.boundary_rule(e, 20, h)
    assert reached == []
    assert np.max(np.abs((rule.nodes.real / a) ** 2 + rule.nodes.imag ** 2 - 1)) < 1e-14


def test_ellipse_distance_allocates_sixteen_floats_per_point():
    # the 150 quadrature points of one query's 25 graph connectors.  x, y,
    # u, the active indices and the Newton loop's temporaries peak at about
    # 12 floats per point: 1,472,080 bytes for 15,000 points, 16,780 here
    e = G.ellipse(1.5, 1)
    rng = np.random.default_rng(83)
    z = rng.uniform(-1.5, 1.5, 150) + 1j * rng.uniform(-1, 1, 150)
    G.curve_distance(e, z)
    tracemalloc.start()
    try:
        G.curve_distance(e, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= z.size * 16 * 8 + 8 * 2**10


@pytest.mark.parametrize("name", list(_CLEARANCE_DOMAINS))
def test_clear_of_boundary_is_inside_and_clear(monkeypatch, name):
    dom = _CLEARANCE_DOMAINS[name]
    rng = np.random.default_rng(71)
    xmin, xmax, ymin, ymax = dom.bounding_box
    z = (rng.uniform(1.2 * xmin - 0.1, 1.2 * xmax + 0.1, 3000)
         + 1j * rng.uniform(1.2 * ymin - 0.1, 1.2 * ymax + 0.1, 3000))
    inside = G.contains(dom, z)
    assert 0 < inside.sum() < z.size
    seen = []
    real_curve_distance = G.curve_distance

    def counting(domain, pts):
        seen.append(np.asarray(pts).copy())
        return real_curve_distance(domain, pts)

    monkeypatch.setattr(G, "curve_distance", counting)
    for margin in (-1.0, 0.0, 1e-9, 0.05, 0.4):
        clear = G.clear_of_boundary(dom, z, margin)
        # an outside point is never clear, whatever the margin
        assert not clear[~inside].any()
        if margin <= 0:
            assert np.array_equal(clear, inside)
        for p in z[:20]:
            assert G.clear_of_boundary(dom, complex(p), margin) is bool(clear[z == p][0])
    # the footpoint iteration sees inside points only
    assert seen and all(G.contains(dom, pts).all() for pts in seen)


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


def test_polygon_must_not_touch_itself():
    # vertex 2 lies on the edge 0 -> 4: two triangles pinched at a point
    with pytest.raises(ValueError, match="simple"):
        G.polygon([0, 4, 4 + 4j, 2, 4j])
    # two squares sharing the corner 1+1j, visited twice
    with pytest.raises(ValueError, match="simple"):
        G.polygon([0, 1, 1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j, 1 + 1j, 1j])
    # adjacent edges folding back along one line
    with pytest.raises(ValueError, match="simple"):
        G.polygon([0, 2, 1, 1 + 1j])
    with pytest.raises(ValueError, match="simple"):
        G.polygon([0, 2, 2 + 2j, 2 + 1j, 2 + 3j, 3j])
    # collinear adjacent edges that go on forward are simple
    assert G.polygon([0, 1, 2, 2 + 1j, 1j]).area() == pytest.approx(2.0)


def test_segments_meet_boundary_exact(square):
    a = np.array([0.0, 0.0, 0.0, 0.5 + 0.5j, 1 + 1j, 0.5j, 0.9 + 1j, 2 + 1j])
    b = np.array([0.5, 2.0, 1 + 1j, 0.5 + 0.5j, 2 + 2j, 1 + 0.5j, 3 + 1j, 3 + 1j])
    # inside; crosses an edge; ends on a vertex; a point; starts on a vertex;
    # ends on an edge; overlaps an edge along its line; collinear with an
    # edge but past its end
    expected = [False, True, True, False, True, True, True, False]
    assert G.segments_meet_boundary(square, a, b).tolist() == expected
    # the smoothed L's arcs: the convex one at 0 (center 0.15+0.15j) and the
    # reflex one at 1+1j (center 1.15+1.15j, its lower-left quarter), each
    # clear of every segment.  Crosses the convex arc; crosses the reflex
    # arc; cuts the reflex arc's circle twice outside its angle range; a
    # zero-length chord inside that circle
    lshape = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
    a = np.array([0.3 + 0.3j, 0.4 + 1.7j, 1.1 + 1.3j, 1.05 + 1.05j])
    b = np.array([0.02 + 0.02j, 1.7 + 0.4j, 1.3 + 1.1j, 1.05 + 1.05j])
    assert G.segments_meet_boundary(lshape, a, b).tolist() == [True, True, False, False]
    assert G.segments_meet_boundary(lshape, b, a).tolist() == [True, True, False, False]
    # in floating point q - p and r - p round and the determinant is 0; the
    # exact determinant is -12 * 2**-52
    p, q, r = np.array([0.5 + 2.0**-52 + 0.5j]), np.array([12 + 12j]), np.array([24 + 24j])
    det = (q - p).real * (r - p).imag - (q - p).imag * (r - p).real
    assert det.tolist() == [0.0]
    assert G._orient_sign(p, q, r).tolist() == [-1.0]
    assert G._orient_sign(p, r, q).tolist() == [1.0]


def test_smoothed_polygon_radius_guard():
    with pytest.raises(ValueError, match="too large"):
        G.smoothed_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 1.2)


def test_smoothed_polygon_area_formula():
    r = 0.3
    sp = G.smoothed_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], r)
    # square minus four corner cuts of area r^2 (tan(pi/4) - pi/4) each
    assert sp.area() == pytest.approx(4 - (4 - math.pi) * r * r, rel=1e-12)
    assert _rule_area(sp, 0.02) == pytest.approx(sp.area(), abs=2e-4)


def test_smoothed_polygon_membership_consistent_with_boundary():
    sp = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)  # reflex corner
    t = np.linspace(0, 2 * np.pi, 997)
    bp = G.boundary_point(sp, t)
    assert float(np.max(G.curve_distance(sp, bp))) < 1e-12
    # inward normal i*gamma'(t) of the counterclockwise parametrization
    dt = 1e-6
    tangent = G.boundary_point(sp, t + dt) - G.boundary_point(sp, t - dt)
    normal = 1j * tangent / np.abs(tangent)
    inward = bp + 1e-6 * normal
    outward = bp - 1e-6 * normal
    assert bool(G.contains(sp, inward).all())
    assert not bool(G.contains(sp, outward).any())
    assert _rule_area(sp, 0.01) == pytest.approx(sp.area(), abs=2e-4)


def test_contains_decides_rounded_corner_edges_by_the_circle():
    # a point on a polygon edge inside a corner's triangle lies on the arc's
    # side that the circle gives, not the polygon test's half-open side
    rounded = G.smoothed_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 0.3)
    outside = np.array([-0.99 - 1j, -1 - 0.99j])      # on both edges of a corner
    assert not G.contains(rounded, outside).any()
    assert np.all(np.abs(G.curve_distance(rounded, outside) - 0.117) < 1e-3)
    lshape = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
    inside = np.array([1.05 + 1j, 1 + 1.05j])          # in the reflex fillet
    assert G.contains(lshape, inside).all()
    assert np.all(np.abs(G.curve_distance(lshape, inside) - 0.030) < 1e-3)


_GRID_DOMAINS = {
    "disc": G.unit_disc(),
    "ellipse": G.ellipse(1.5, 1),
    "square": G.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]),
    "rounded square": G.smoothed_polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 0.3),
    # the rounded square with a straight vertex, which gets no arc
    "straight vertex": G.smoothed_polygon([1 + 1j, -1 + 1j, -1 - 1j, -1j, 1 - 1j], 0.3),
    "smoothed L": G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15),
    "sharp L": G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]),
    # non-convex and not symmetric under conjugation
    "hexagon": G.polygon([0, 2, 2.5 + 1.5j, 1 + 1j, 0.5 + 2.5j, -0.5 + 1j]),
}


def _rule_area(dom, h, degree=0):
    # <1, 1> under the boundary rule: (1/2i) oint conj(z) dz
    rule = G.boundary_rule(dom, degree, h)
    one = np.ones(rule.nodes.size, dtype=complex)
    return float(rule.area_inner(one, rule.primitive(one)).real)


def _rule_moments(rule, center, scale, n):
    # M[j, k] = <zeta^k, zeta^j> under the rule, zeta = (z - center) / scale,
    # each primitive from the rule's own running integral
    V = np.vander((rule.nodes - center) / scale, n, increasing=True)
    prims = np.stack([rule.primitive(col) for col in V.T], axis=1)
    return np.stack([rule.area_inner(col, prims) for col in V.T], axis=1)


def _fan_moments(dom, center, scale, n, order):
    # the exact moments as a sum over the triangles (c, v_i, v_(i+1)) of a
    # fan around the bounding-box center c, signed by orientation, each
    # integrated by a Duffy-collapsed tensor Gauss rule: z = c + u (a - c)
    # + u t (b - a) on the unit square, dA = 2 |T| u du dt.  Exact for
    # the degree-2(n - 1) integrands, with order >= n + 1 nodes a side
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = 0.5 * (x + 1), 0.5 * w
    u, t = np.meshgrid(x, x, indexing="ij")
    wt = np.outer(w, w) * u
    c = dom.center
    v = np.asarray(dom.vertices)
    M = np.zeros((n, n), dtype=complex)
    for a, b in zip(v, np.roll(v, -1)):
        z = (c + u * (a - c) + u * t * (b - a)).ravel()
        area2 = ((a - c).real * (b - c).imag - (a - c).imag * (b - c).real)
        V = np.vander((z - center) / scale, n, increasing=True)
        M += (V.conj().T * (area2 * wt.ravel())) @ V
    return M


@pytest.mark.parametrize("name", ["sharp L", "hexagon"])
def test_boundary_rule_moments_match_triangle_fans(name):
    # a sharp polygon's rule is exact: its moments <zeta^j, zeta^k>,
    # j, k <= 20, match the Duffy fan's within 1e-12 of the largest (6.8e-14
    # and 5.7e-14 of 3.1e6 and 1.4e6)
    dom = _GRID_DOMAINS[name]
    center, scale = dom.center, G.capacity_radius(dom)
    got = _rule_moments(G.boundary_rule(dom, 20, 0.01), center, scale, 21)
    want = _fan_moments(dom, center, scale, 21, 2 * 20 + 4)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


def test_boundary_rule_arcs_converge():
    # the corner arcs are the rule's only approximation: at degree 24,
    # halving the smoothed L's resolution from 0.02 (22 panels) to 0.01 (32)
    # moves rho by 6.8e-13 at 500 points with d >= 0.05, the rounding of
    # the fit
    dom = _GRID_DOMAINS["smoothed L"]
    rng = np.random.default_rng(83)
    z = rng.uniform(0, 2, 4000) + 1j * rng.uniform(0, 2, 4000)
    z = z[G.clear_of_boundary(dom, z, 0.05)][:500]
    assert z.size == 500
    coarse, fine = (bergman.bergman_density(bergman.fit_kernel_model(dom, 24, h), z)
                    for h in (0.02, 0.01))
    assert np.max(np.abs(fine / coarse - 1)) <= 1e-10


def _poly_primitive_error(rule, center, scale):
    # the rule's running integral of a fixed polynomial f against its exact
    # antiderivative F, up to the constant the two start from, relative
    # to max |F|
    coeffs = np.array([0.3 - 1j, 2, -1j, 0.5, 1 + 1j, 0, -0.25j, 0.75])
    zeta = (rule.nodes - center) / scale
    f = np.polynomial.polynomial.polyval(zeta, coeffs)
    F = scale * np.polynomial.polynomial.polyval(zeta, np.polynomial.polynomial.polyint(coeffs))
    diff = rule.primitive(f) - F
    return np.max(np.abs(diff - diff[0])) / np.abs(F).max()


def _per_call_divisor(n):
    # the trapezoid primitive's Fourier divisor as it was once rebuilt on
    # every call
    k = np.fft.fftfreq(n, 1.0 / n)
    inv = np.zeros(n, dtype=complex)
    inv[1:] = n / (2 * np.pi) / (1j * k[1:])
    if n % 2 == 0:
        inv[n // 2] = 0.0
    return inv


@pytest.mark.parametrize("n", [148, 21])
def test_trapezoid_rule_builds_the_per_call_divisor_once(ellipse15, trapezoid_rule, n):
    # bit for bit, on an even node count (Nyquist mode zeroed) and an odd
    # one; a hand-built rule gets the divisor too, and the primitive of a
    # fixed polynomial keeps its bits
    rule = trapezoid_rule(ellipse15, n)
    inv = _per_call_divisor(n)
    assert rule.divisor.tobytes() == inv.tobytes()
    f = np.polynomial.polynomial.polyval(rule.nodes / 1.25, [0.3 - 1j, 2, -1j, 0.5, 1 + 1j])
    want = np.fft.ifft(np.fft.fft(f * rule.dz) * inv)
    assert rule.primitive(f).tobytes() == want.tobytes()
    if n % 2 == 0:
        built = G.boundary_rule(ellipse15, (n - 4) // 2, 0.01)
        for name in ("nodes", "dz", "divisor"):
            assert getattr(built, name).tobytes() == getattr(rule, name).tobytes()
        assert built.descriptor == rule.descriptor
    assert G.boundary_rule(_GRID_DOMAINS["square"], 8, 0.5).divisor is None


def test_a_boundary_rule_equals_only_itself(ellipse15):
    # two builds hold equal but distinct node arrays, which == compared
    # elementwise
    a, b = (G.boundary_rule(ellipse15, 8, 1.0) for _ in range(2))
    assert a == a and a != b and a in [b, a]


@pytest.mark.parametrize("name", ["disc", "ellipse", "square", "rounded square",
                                  "smoothed L", "sharp L"])
def test_clipped_band_grid_invariants(name):
    # the boundary rule, which replaced the clipped-band area grid: every
    # node on the boundary curve, the contour closed (oint dz = 0), the
    # area (1/2i) oint conj(z) dz and a degree-7 primitive exact, the
    # trapezoid rule on an ellipse and m = degree + 2 Gauss-Legendre nodes
    # a panel on a polygon
    dom = _GRID_DOMAINS[name]
    center, scale = dom.center, G.capacity_radius(dom)
    for h in (0.05, 0.02):
        rule = G.boundary_rule(dom, 20, h)
        if name in ("disc", "ellipse"):
            assert rule.descriptor.startswith(f"trapezoid:{rule.nodes.size}:")
            assert rule.panel is None
        else:
            assert rule.descriptor.startswith(f"gauss-legendre:22x{rule.nodes.size // 22}:")
            assert rule.nodes.size % 22 == 0 and rule.panel.shape == (22, 22)
        assert np.max(G.curve_distance(dom, rule.nodes)) < 1e-14
        assert np.all(rule.dz != 0)
        assert abs(rule.dz.sum()) < 1e-13
        assert abs((np.conj(rule.nodes) @ rule.dz / 2j) - dom.area()) < 1e-13 * dom.area()
        assert _poly_primitive_error(rule, center, scale) < 1e-13


@pytest.mark.parametrize("name", ["rounded square", "smoothed L"])
def test_clipped_band_area_error_is_second_order(name):
    # on a polygon, resolution alone must resolve what the rule's degree
    # does not: the weighted areas <zeta^j, zeta^j> = int int |zeta|^2j dA,
    # j <= 96, under the rule made for degree 0, against the rule made for
    # degree 96, fall at least as h^2, (0.02 / 0.05)^2 = 0.16, from h 0.05
    # to 0.02; the two-node Gauss panels fall by 0.07 and 0.11.  An
    # ellipse's trapezoid rule has the degree's 2 degree + 4 nodes at any
    # resolution
    dom = _GRID_DOMAINS[name]
    center, scale = dom.center, G.capacity_radius(dom)

    def weighted_areas(rule):
        V = np.vander((rule.nodes - center) / scale, 97, increasing=True)
        return np.array([rule.area_inner(col, rule.primitive(col)).real for col in V.T])

    want = weighted_areas(G.boundary_rule(dom, 96, 0.005))
    coarse, fine = (np.max(np.abs(weighted_areas(G.boundary_rule(dom, 0, h)) / want - 1))
                    for h in (0.05, 0.02))
    assert fine < 0.2 * coarse


def test_quadrature_square_exact(square):
    rule = G.boundary_rule(square, 4, 0.5)
    assert _rule_area(square, 0.5, 4) == pytest.approx(4.0, abs=1e-12)
    assert np.max(G.curve_distance(square, rule.nodes)) == 0.0


def test_gauss_grid_accuracy():
    # the Gauss-Legendre panels give the area to rounding on segments and
    # spectrally on the arcs, already with one panel per piece
    for name in ("square", "sharp L", "rounded square", "smoothed L"):
        dom = _GRID_DOMAINS[name]
        for h in (10.0, 0.05):
            assert abs(_rule_area(dom, h, 8) - dom.area()) < 1e-12 * dom.area()


def test_gauss_grid_disc_moments(disc):
    # oracle: int_disc z^j conj(z)^k dA = pi / (j+1) if j == k else 0; the
    # trapezoid rule is exact through its degree
    moments = _rule_moments(G.boundary_rule(disc, 8, 0.02), 0.0, 1.0, 9)
    jj = np.arange(9)
    assert np.max(np.abs(moments - np.diag(np.pi / (jj + 1)))) < 1e-13


def test_boundary_rule_node_counts(ellipse15):
    # the trapezoid rule: 2 degree + 4 nodes, whatever the resolution (the
    # 1.5 x 1 ellipse's perimeter is 7.9327); a polygon piece:
    # ceil(length / ((degree + 2) resolution)) panels, at least one
    assert G.boundary_rule(ellipse15, 72, 0.01).descriptor == "trapezoid:148:ellipse:1.5:1.0"
    for h in (1.0, 0.01, 0.001):
        assert G.boundary_rule(ellipse15, 72, h).nodes.size == 2 * 72 + 4
    assert G.boundary_rule(ellipse15, 400, 0.01).nodes.size == 804
    square = _GRID_DOMAINS["square"]
    assert G.boundary_rule(square, 8, 0.1).descriptor.startswith("gauss-legendre:10x8:polygon:")
    assert G.boundary_rule(square, 8, 10.0).nodes.size == 40
    with pytest.raises(ValueError, match="resolution must be positive"):
        G.boundary_rule(square, 8, 0.0)


def test_grids_deterministic(disc):
    for dom in (disc, _GRID_DOMAINS["smoothed L"]):
        r1, r2 = G.boundary_rule(dom, 20, 0.07), G.boundary_rule(dom, 20, 0.07)
        assert np.array_equal(r1.nodes, r2.nodes)
        assert np.array_equal(r1.dz, r2.dz)


# sha256 of the boundary rules' nodes' and weights' bytes at degree 20
_GRID_DIGESTS = {
    ("ellipse", 0.01): (
        "b4642c2bb9addf7eba9a4adf15373eb4a846a991bebf376fe7773d75c597bcee",
        "c0e05e20c612f8b84f4514ba7683db8bc1b99125d83ca8464195472211aed38d"),
    ("sharp L", 0.02): (
        "6efaef13f5ebc786174091b5b70aba42b084d898475ce1b0cd3644ae339010f4",
        "2621a4dd3548ec90f642b3932d5ca9dedb1caa1fd77f42db34806cfd0111dfda"),
    ("smoothed L", 0.02): (
        "084bd55959662f22bdbf65ffba439b7d9f50bd4fa8511b7e3b3793de368ebbff",
        "a4974d6fe11c15a06e6d5756e081654c46d1e89edf57e1e17c280fac783b5583"),
}


@pytest.mark.parametrize("name, h", list(_GRID_DIGESTS))
def test_grid_is_bit_identical_to_its_recorded_digest(name, h):
    rule = G.boundary_rule(_GRID_DOMAINS[name], 20, h)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (rule.nodes, rule.dz))
    assert digests == _GRID_DIGESTS[name, h]


def test_grid_build_peak_memory_is_bounded(ellipse15):
    # the boundary rule of the degree-72 fit of the 1.5 x 1 ellipse: 148
    # nodes and their divisor in 7 KB, a traced peak of 15 KB.  The
    # clipped-band grid of the same fit peaked at 13.2 MiB
    tracemalloc.start()
    try:
        rule = G.boundary_rule(ellipse15, 72, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rule.nodes.nbytes + rule.dz.nbytes + rule.divisor.nbytes + 2**14


def test_capacity_radius(disc, ellipse15):
    assert G.capacity_radius(disc) == 1.0
    assert G.capacity_radius(ellipse15) == pytest.approx(1.25)
    # geometric-mean proxy for the square of side 2: between in/circumradius
    sq = G.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    assert 1.0 < G.capacity_radius(sq) < math.sqrt(2)


def test_interior_anchor(disc, ellipse15):
    # where the bounding-box center is the deepest point it stays the anchor
    assert G.interior_anchor(disc) == 0
    assert G.interior_anchor(ellipse15) == 0
    assert G.interior_anchor(G.ellipse(2, 1)) == 0
    # the ellipse shortcut skips the lattice search, which would agree
    for e in (disc, ellipse15, G.ellipse(2, 1), G.ellipse(3, 0.5)):
        lattice = G._lattice(e, e.half_diagonal / 16)
        lattice = lattice[G.contains(e, lattice)]
        assert np.max(G.curve_distance(e, lattice)) < G.curve_distance(e, 0j)
    vertices = [0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]
    for lshape in (G.polygon(vertices), G.smoothed_polygon(vertices, 0.15)):
        anchor = G.interior_anchor(lshape)
        assert G.contains(lshape, anchor)
        # the deepest lattice center, not a point hugging the reflex corner:
        # the smoothed L's center 1+1j lies in its fillet, 0.062 from the
        # boundary
        assert float(G.curve_distance(lshape, anchor)) > 0.5
    # a thin L along two sides of the unit square: the center is outside,
    # and the first lattice misses an L 0.003 wide, which the lattice at a
    # quarter of its step meets; every lattice misses an L 1e-4 wide
    thin = G.polygon([0, 1, 1 + 1j, 0.997 + 1j, 0.997 + 0.003j, 0.003j])
    assert G.contains(thin, G.interior_anchor(thin))
    with pytest.raises(GridError, match="interior anchor"):
        G.interior_anchor(G.polygon([0, 1, 1 + 1j, 0.9999 + 1j, 0.9999 + 1e-4j, 1e-4j]))


def test_polygon_boundary_points_are_outside(tmp_path):
    # membership is exact on a polygon's edges: every edge point is outside,
    # and a point 1e-12 off an edge keeps its side
    square = G.polygon([0, 1, 1 + 1j, 1j])
    v = np.array(square.vertices)
    mids = 0.5 * (v + np.roll(v, -1))
    assert not G.contains(square, np.concatenate([v, mids])).any()
    rounded = G.smoothed_polygon([0, 1, 1 + 1j, 1j], 0.2)
    # the straight pieces run from 0.2 to 0.8 along each edge
    assert not G.contains(rounded, mids).any()
    inward = 1j * (np.roll(v, -1) - v)
    for dom in (square, rounded):
        assert G.contains(dom, mids + 1e-12 * inward).all()
        assert not G.contains(dom, mids - 1e-12 * inward).any()
    with pytest.raises(DomainError):
        G.boundary_distance(square, 0.5j)
    # the quasihyperbolic density at an edge point is a domain error, not 1/0
    cfg = tmp_path / "edge.txt"
    cfg.write_text("experiment = hl1\ndomain = polygon 0 0 1 0 1 1 0 1\n"
                   "density = quasihyperbolic\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(G.__file__)))
    proc = subprocess.run([sys.executable, "-m", "metriclab.cli", "density", "eval", "0.5j",
                           "--config", str(cfg)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["disc", "ellipse", "sharp L", "smoothed L", "rounded square",
                                  "straight vertex"])
def test_boundary_pieces_form_a_closed_chain(name):
    dom = _GRID_DOMAINS[name]
    pieces = dom._pieces
    size = dom.half_diagonal
    # each piece ends where the next starts, and the last where the first does
    for piece, after in zip(pieces, pieces[1:] + pieces[:1]):
        assert abs(piece.point(piece.span) - after.point(0.0)) <= 1e-15 * size
    # the derivative against a central difference of the point
    for piece in pieces:
        s = piece.span * np.linspace(0.05, 0.95, 7)
        step = 1e-6 * piece.span
        diff = (piece.point(s + step) - piece.point(s - step)) / (2 * step)
        assert np.max(np.abs(piece.derivative(s) - diff)) <= 1e-8 * np.max(np.abs(diff))
    # the lengths against the boundary polyline through 2**16 points
    g = G.boundary_point(dom, np.linspace(0, 2 * np.pi, 2**16 + 1))
    length = sum(piece.length for piece in pieces)
    assert abs(np.sum(np.abs(np.diff(g))) - length) <= 1e-8 * length
    # the area from the pieces' Green's-theorem terms: pi a b on an ellipse,
    # the shoelace sum on a sharp polygon, and each of the four convex
    # corners of side-2 rounded squares and the L cutting r^2 (1 - pi/4),
    # which the L's reflex corner gives back once
    want = {"disc": math.pi, "ellipse": 1.5 * math.pi, "sharp L": 3.0,
            "smoothed L": 3 - (4 - math.pi) * 0.15**2,
            "rounded square": 4 - (4 - math.pi) * 0.3**2,
            "straight vertex": 4 - (4 - math.pi) * 0.3**2}[name]
    assert abs(dom.area() - want) <= 1e-13 * want


def test_building_an_ellipse_allocates_no_boundary_samples():
    # the perimeter is summed on first use: building the domain, which an
    # hl run does thousands of times, samples nothing
    G.ellipse(1.5, 1)
    tracemalloc.start()
    try:
        G.ellipse(1.5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
