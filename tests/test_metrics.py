import gc
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from metriclab import experiments as E
from metriclab import geometry as G
from metriclab import maps as MP
from metriclab import metrics as M
from metriclab.bergman import fit_kernel_model, load_kernel
from metriclab.errors import (
    DivergentDistanceError,
    DomainError,
    InvalidPathError,
    KernelInstabilityError,
    ResolutionTooCoarseError,
)
from metriclab.experiments import _sample_interior


@pytest.fixture(scope="module")
def hyp():
    return M.hyperbolic_density()


# ---------------------------------------------------------------------------
# densities


def test_density_eval_trivials(hyp, disc):
    assert M.density_eval(hyp, 0.0) == pytest.approx(1.0)
    assert M.density_eval(hyp, 0.5) == pytest.approx(4 / 3)
    qh = M.quasihyperbolic_density(disc)
    assert M.density_eval(qh, 0.0) == pytest.approx(1.0)
    assert M.density_eval(qh, 0.5) == pytest.approx(2.0)
    const = M.constant_density(disc, 2.5)
    assert M.density_eval(const, 0.3 + 0.1j) == pytest.approx(2.5)


def test_density_eval_outside_raises(hyp):
    with pytest.raises(DomainError):
        M.density_eval(hyp, 1.5)


def test_hyperbolic_density_is_finite_wherever_the_disc_contains(hyp):
    # points on the circle and a few ulps inside it.  The disc is the
    # ellipse with a = b = 1, whose membership test on a circle is |z| < 1,
    # so 1 - |z|^2 > 0 wherever it holds; x^2 + y^2 < 1 held at 10.7% of
    # the points e^{it} with 1 - |z|^2 rounding to 0
    rng = np.random.default_rng(89)
    t = rng.uniform(0, 2 * np.pi, 100_000)
    circle = np.exp(1j * t)
    z = np.concatenate([circle, (1 - rng.uniform(0, 4e-16, t.size)) * circle])
    inside = G.contains(G.unit_disc(), z)
    assert 0 < inside.sum() < z.size
    with np.errstate(divide="raise"):
        rho = hyp.eval_array(z[inside])
    assert np.all(np.isfinite(rho) & (rho > 0))


def test_a_density_equals_only_itself(disc, disc_kernel_coarse):
    # two densities built alike are still two densities, each with its own
    # graph cache; comparing them never looks at their arrays
    a, b = (M.bergman_metric_density(disc_kernel_coarse) for _ in range(2))
    assert a == a and a != b
    assert M.constant_density(disc, 2.0) != M.constant_density(disc, 2.0)


@pytest.mark.parametrize("c", [0, -1, math.inf, math.nan])
def test_constant_density_needs_a_finite_positive_value(disc, c):
    with pytest.raises(ValueError, match="0 < c < inf"):
        M.constant_density(disc, c)


def test_bergman_density_wrapper(disc_kernel_coarse):
    omega = M.bergman_metric_density(disc_kernel_coarse)
    assert M.density_eval(omega, 0.0) == pytest.approx(math.sqrt(2), abs=5e-3)


# ---------------------------------------------------------------------------
# paths and lengths


def test_path_length_hyperbolic_segment(hyp, disc):
    path = M.PolylinePath(disc, np.array([0.0, 0.5]))
    assert M.path_length(hyp, path) == pytest.approx(math.atanh(0.5), abs=1e-8)


def test_path_length_constant_is_euclidean(disc):
    const = M.constant_density(disc, 1.0)
    path = M.PolylinePath(disc, np.array([0.0, 0.3 + 0.4j, 0.6]))
    assert M.path_length(const, path) == pytest.approx(
        0.5 + abs(0.6 - (0.3 + 0.4j)), abs=1e-12)


def test_single_point_path(hyp, disc):
    assert M.path_length(hyp, M.PolylinePath(disc, np.array([0.2j]))) == 0.0
    with pytest.raises(ValueError, match="at least one vertex"):
        M.PolylinePath(disc, np.array([]))


def test_invalid_path_rejected(disc):
    with pytest.raises(InvalidPathError):
        M.PolylinePath(disc, np.array([0.0, 2.0]))
    lshape = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    with pytest.raises(InvalidPathError):
        # both endpoints inside, but the chord crosses the notch
        M.PolylinePath(lshape, np.array([1.8 + 0.5j, 0.5 + 1.8j]))
    with pytest.raises(InvalidPathError):
        # the chord touches the reflex vertex 1+1j between two samples
        M.PolylinePath(lshape, np.array([1.5 + 0.5j, 0.5 + 1.5j]))
    M.PolylinePath(lshape, np.array([1.5 + 0.5j, 0.5 + 1.2j]))  # passes below it
    # on the smoothed L the chord cuts the reflex arc
    # (its midpoint 1.05+1.05j is 0.141 from the arc's center 1.15+1.15j)
    smooth = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
    assert G.segments_meet_boundary(smooth, 0.4 + 1.7j, 1.7 + 0.4j)
    with pytest.raises(InvalidPathError):
        M.PolylinePath(smooth, np.array([0.4 + 1.7j, 1.7 + 0.4j]))


def _recursive_line_quad(fun, a, b):
    """The depth-first adaptive quadrature of one segment: each half
    refined in turn, one ``fun`` call per 12-node interval."""
    def gl(lo, hi):
        pts = lo + 0.5 * (M._GL_X12 + 1.0) * (hi - lo)
        return 0.5 * float(np.abs(hi - lo)) * float(np.sum(fun(pts) * M._GL_W12))

    def split(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left, right = gl(lo, mid), gl(mid, hi)
        if abs(whole - (left + right)) <= 1e-12 * (abs(left + right) + 1e-30) or depth >= 24:
            return left + right
        return split(lo, mid, left, depth + 1) + split(mid, hi, right, depth + 1)

    return split(a, b, gl(a, b), 0)


def test_path_length_matches_the_recursive_quadrature(monkeypatch, hyp, ellipse15,
                                                      disc_kernel_coarse):
    lshape = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    cases = [
        hyp,
        M.quasihyperbolic_density(ellipse15),
        M.quasihyperbolic_density(lshape),
        M.constant_density(lshape, 1.5),
        M.bergman_metric_density(disc_kernel_coarse),
    ]
    for seed, omega in enumerate(cases):
        for z, w in _seeded_pairs(omega.domain, 2, 70 + seed):
            # a certificate path of the solver
            path = M.weighted_distance(omega, z, w, 0.05, max_sweeps=2).path
            v = path.vertices
            want = sum(_recursive_line_quad(omega.eval_array, v[i], v[i + 1])
                       for i in range(v.size - 1))
            batches = _count_points(monkeypatch, omega)
            assert M.path_length(omega, path) == want, (omega.domain.grid_key(), z, w)
            assert len(batches) <= 26
            monkeypatch.undo()
    # a density with a jump: the segment across it splits down to the
    # depth cap, so the path takes all 25 bisection levels in 26 calls
    const = M.constant_density(lshape, 1.0)
    monkeypatch.setattr(const, "eval_array", lambda z: np.where(np.real(z) < 0.7, 1.0, 2.0))
    path = M.PolylinePath(lshape, np.array([0.2 + 0.5j, 1.5 + 0.5j, 1.7 + 0.3j, 0.5 + 0.2j]))
    v = path.vertices
    want = sum(_recursive_line_quad(const.eval_array, v[i], v[i + 1]) for i in range(v.size - 1))
    batches = _count_points(monkeypatch, const)
    assert M.path_length(const, path) == want
    assert len(batches) == 26


# ---------------------------------------------------------------------------
# closed forms


def test_hyperbolic_distance_closed_forms():
    assert M.hyperbolic_distance_closed(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    assert M.hyperbolic_distance_closed(0.0, 0.5) == pytest.approx(math.atanh(0.5))
    assert math.isinf(M.hyperbolic_distance_closed(1.0, np.exp(0.5j)))
    with pytest.raises(DomainError):
        M.hyperbolic_distance_closed(1.2, 0.0)


def test_hyperbolic_distance_mobius_invariance():
    rng = np.random.default_rng(7)
    phi = MP.BlaschkeProduct((0.3,))
    z = 0.8 * (rng.random(32) - 0.5 + 1j * (rng.random(32) - 0.5))
    w = 0.8 * (rng.random(32) - 0.5 + 1j * (rng.random(32) - 0.5))
    gap = np.abs(M.hyperbolic_distance_closed(phi(z), phi(w))
                 - M.hyperbolic_distance_closed(z, w))
    assert float(gap.max()) < 1e-12


# ---------------------------------------------------------------------------
# geodesic solver


def test_weighted_distance_hyperbolic_oracle(hyp):
    res = M.weighted_distance(hyp, 0.0, 0.5, 0.01)
    assert res.distance == pytest.approx(math.atanh(0.5), rel=1e-2)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 10:
        z = complex(*(1.6 * (rng.random(2) - 0.5)))
        w = complex(*(1.6 * (rng.random(2) - 0.5)))
        if abs(z) > 0.8 or abs(w) > 0.8:
            continue
        checked += 1
        got = M.weighted_distance(hyp, z, w, 0.01).distance
        assert got == pytest.approx(M.hyperbolic_distance_closed(z, w), rel=1e-2)


def test_weighted_distance_same_point(hyp):
    res = M.weighted_distance(hyp, 0.3 + 0.1j, 0.3 + 0.1j, 0.05)
    assert res.distance == 0.0
    assert res.path.vertices.size == 1


def test_weighted_distance_symmetric(hyp):
    a = M.weighted_distance(hyp, 0.3 + 0.2j, -0.4 + 0.1j, 0.02)
    b = M.weighted_distance(hyp, -0.4 + 0.1j, 0.3 + 0.2j, 0.02)
    assert abs(a.distance - b.distance) < 1e-6
    assert np.array_equal(a.path.vertices, b.path.vertices[::-1])


def test_weighted_distance_is_its_path_length(hyp):
    res = M.weighted_distance(hyp, 0.3 + 0.2j, -0.4 + 0.5j, 0.02)
    assert abs(M.path_length(hyp, res.path) - res.distance) < 1e-12
    assert res.path.vertices[0] == 0.3 + 0.2j
    assert res.path.vertices[-1] == -0.4 + 0.5j


def test_weighted_distance_triangle_inequality(hyp):
    rng = np.random.default_rng(3)
    for _ in range(4):
        z, u, w = (complex(*v) for v in 1.4 * (rng.random((3, 2)) - 0.5))
        dzw = M.weighted_distance(hyp, z, w, 0.02).distance
        dzu = M.weighted_distance(hyp, z, u, 0.02).distance
        duw = M.weighted_distance(hyp, u, w, 0.02).distance
        assert dzw <= dzu + duw + 1e-6


def test_weighted_distance_monotone_under_halving(hyp):
    pairs = [(0.3 + 0.2j, -0.4 + 0.5j), (0.7 + 0.1j, -0.2 - 0.6j),
             (-0.5 - 0.5j, 0.6 + 0.2j)]
    for z, w in pairs:
        coarse = M.weighted_distance(hyp, z, w, 0.02).distance
        fine = M.weighted_distance(hyp, z, w, 0.01).distance
        assert fine <= coarse + 1e-6


def test_weighted_distance_divergent_near_boundary(hyp, disc):
    with pytest.raises(DivergentDistanceError):
        M.weighted_distance(hyp, 0.0, 1.0 + 0j, 0.01)
    with pytest.raises(DivergentDistanceError):
        M.weighted_distance(hyp, 0.9995, 0.0, 0.01)
    # constant densities stay finite near the boundary
    const = M.constant_density(disc, 1.0)
    got = M.weighted_distance(const, 0.995, 0.0, 0.002).distance
    assert got == pytest.approx(0.995, rel=1e-3)


def test_weighted_distance_outside_domain(hyp):
    with pytest.raises(DomainError):
        M.weighted_distance(hyp, 1.5, 0.0, 0.01)


def test_endpoint_just_outside_is_outside_not_divergent(hyp, disc, ellipse15):
    # closer to the boundary than one resolution step, but outside
    for z, w in ((1.01, 0.2), (0.2, 1.01), (0.3, -1.0001j)):
        with pytest.raises(DomainError, match="not inside the domain"):
            M.weighted_distance(hyp, z, w, 0.05)
    with pytest.raises(DomainError, match="not inside the domain"):
        M.weighted_distance(M.quasihyperbolic_density(ellipse15), 1.51, 0.0, 0.05)
    # a boundary point, exactly or off it by rounding, stays divergent
    rounded = np.exp(0.7j) * (1 + 2.0 ** -52)
    assert not G.contains(disc, rounded)
    for z in (1.0, 1j, rounded):
        with pytest.raises(DivergentDistanceError):
            M.weighted_distance(hyp, z, 0.2, 0.05)
    # and a constant density has no divergence: its boundary point is outside
    with pytest.raises(DomainError):
        M.weighted_distance(M.constant_density(disc, 1.0), 1.0, 0.2, 0.05)
    # the evaluator raises on an outside point, not reading it as inf
    d = M.geodesic_evaluator(hyp, 0.05, max_sweeps=4)
    with pytest.raises(DomainError):
        d(np.array([0.0, 1.01]), np.array([0.3, 0.2]))


def test_weighted_distance_resolution_too_coarse(disc):
    # blow-up margin excludes every lattice node at this resolution while
    # the endpoints themselves remain admissible
    qh = M.quasihyperbolic_density(disc)
    with pytest.raises(ResolutionTooCoarseError):
        M.weighted_distance(qh, 0.05, -0.05, 0.9)
    with pytest.raises(ValueError, match="resolution must be positive"):
        M.weighted_distance(qh, 0.05, -0.05, 0.0)
    # the unit square with a spike 0.002 wide on its right side, and that
    # spike leading on to a second square.  At h = 0.02 no node clears the
    # spike's walls by h / 8: an endpoint deep in the spike has no node
    # within two cells, one at its root reaches only nodes behind its
    # walls, and the two squares' graphs do not meet
    spike = [0, 1, 1 + 0.5j, 1.5 + 0.5j, 1.5 + 0.502j, 1 + 0.502j, 1 + 1j, 1j]
    joined = [0, 1, 1 + 0.5j, 1.5 + 0.5j, 1.5, 2.5, 2.5 + 1j, 1.5 + 1j, 1.5 + 0.502j,
              1 + 0.502j, 1 + 1j, 1j]
    for vertices, z, w, match in [
            (spike, 1.45 + 0.501j, 0.5 + 0.5j, "no grid node within reach"),
            (spike, 1.03 + 0.501j, 0.5 + 0.5j, "connectors leave the domain"),
            (joined, 0.5 + 0.2j, 2 + 0.8j, "does not connect the endpoints")]:
        const = M.constant_density(G.polygon(vertices), 1.0)
        with pytest.raises(ResolutionTooCoarseError, match=match):
            M.weighted_distance(const, z, w, 0.02)


def test_difference_quotient_limit_hyperbolic(hyp):
    z = 0.3 + 0j
    omega = 1 / (1 - abs(z) ** 2)
    gaps = []
    for h in (0.08, 0.02):
        res = M.weighted_distance(hyp, z, z + h * np.exp(0.9j), max(h / 20, 1e-3))
        gaps.append(abs(res.distance / h - omega) / omega)
    assert gaps[-1] < 0.05
    assert gaps[-1] < gaps[0]


def test_quasihyperbolic_geodesic_on_disc(disc):
    # ring geodesics for 1/d(z) cost: value must at least beat the chord
    qh = M.quasihyperbolic_density(disc)
    res = M.weighted_distance(qh, 0.5, 0.5j, 0.01)
    chord_cost = M.path_length(qh, M.PolylinePath(disc, np.array([0.5, 0.5j])))
    assert res.distance <= chord_cost + 1e-9


def test_nonconvex_domain_routes_around_notch():
    lshape = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    const = M.constant_density(lshape, 1.0)
    z, w = 1.8 + 0.5j, 0.5 + 1.8j
    res = M.weighted_distance(const, z, w, 0.02)
    assert res.distance > abs(z - w)  # straight chord is not admissible
    # shortest path bends around the inner corner (1, 1)
    corner_route = abs(z - (1 + 1j)) + abs(w - (1 + 1j))
    assert res.distance <= corner_route + 0.02
    assert bool(G.contains(lshape, res.path.vertices).all())


def test_lshape_certificate_stays_inside_around_corner():
    # sampled segment checks alone let a graph edge cut the reflex corner
    # 1+1j here (distance 1.600274, 1,216 of 20,001 samples of one segment
    # outside); no distance may fall below the route around the corner
    lshape = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    z, w = 1.6210536606344903 + 0.27352810308516307j, 0.8378073018263703 + 1.6305125559900913j
    res = M.weighted_distance(M.constant_density(lshape, 1.0), z, w, 0.04)
    assert res.distance >= abs(z - (1 + 1j)) + abs(w - (1 + 1j))
    v = res.path.vertices
    t = np.linspace(0.0, 1.0, 20001)
    samples = v[:-1, None] + t * (v[1:] - v[:-1])[:, None]
    assert bool(G.contains(lshape, samples.ravel()).all())


def test_chords_meet_no_piece_on_convex_domains(disc, ellipse15):
    # a chord between interior points of the disc or an ellipse lies
    # inside: nothing is sampled, and the result is all-False in the
    # broadcast shape
    rng = np.random.default_rng(31)
    for dom in (disc, ellipse15):
        x0, x1, y0, y1 = dom.bounding_box
        pts = x0 + (x1 - x0) * rng.random(4000) + 1j * (y0 + (y1 - y0) * rng.random(4000))
        pts = pts[G.contains(dom, pts)]
        a, b = pts[:60, None], pts[None, 60:100]
        ok = ~G.segments_meet_boundary(dom, a, b)
        assert ok.shape == (60, 40) and ok.all()
        assert G.segments_meet_boundary(dom, a[0, 0], b[0, 0]).shape == ()


@pytest.mark.parametrize("name", ["disc", "ellipse", "rounded square"])
def test_convex_chords_clear_the_margin_of_their_ends(name):
    # the boundary distance is concave on a convex domain, so a chord whose
    # ends clear a margin clears it at every point: 256 points along each of
    # 2,000 seeded chords per margin, so no chord needs sampling
    dom = {"disc": G.unit_disc(), "ellipse": G.ellipse(1.5, 1.0),
           "rounded square": G.smoothed_polygon([0, 2, 2 + 2j, 2j], 0.3)}[name]
    rng = np.random.default_rng(36)
    x0, x1, y0, y1 = dom.bounding_box
    t = np.linspace(0.0, 1.0, 256)
    for m in (0.01, 0.04):
        pts = x0 + (x1 - x0) * rng.random(8000) + 1j * (y0 + (y1 - y0) * rng.random(8000))
        pts = pts[G.clear_of_boundary(dom, pts, m + 1e-9)]
        a, b = pts[:2000, None], pts[2000:4000, None]
        assert b.size == 2000
        assert G.clear_of_boundary(dom, a + t * (b - a), m).all()


@pytest.mark.parametrize("vertices, r, convex", [
    ([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15, False),
    ([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j], 0.3, True),
])
def test_chord_rule_matches_a_dense_membership_oracle(vertices, r, convex):
    # a chord between interior points stays inside exactly when it meets no
    # boundary piece: the margin-0 rule against 4,096 contains points along
    # each of 2,000 seeded chords; on the convex rounded square every chord
    # stays inside, on the L some cut the notch
    dom = G.smoothed_polygon(vertices, r)
    rng = np.random.default_rng(35)
    x0, x1, y0, y1 = dom.bounding_box
    pts = x0 + (x1 - x0) * rng.random(8000) + 1j * (y0 + (y1 - y0) * rng.random(8000))
    pts = pts[G.contains(dom, pts)]
    a, b = pts[:2000], pts[2000:4000]
    t = (np.arange(4096) + 0.5) / 4096
    want = np.array([G.contains(dom, p + t * (q - p)).all() for p, q in zip(a, b)])
    assert want.all() if convex else 0 < want.sum() < want.size
    assert np.array_equal(~G.segments_meet_boundary(dom, a, b), want)


# seed-7 pair 15 of the polygon solver probe (tools/solver_probe.py): the
# sharp L at h 0.04 and the smoothed L (r 0.15) at h 0.02
_POLYGON_CERTIFICATES = {
    ("sharp", "bergman"): "0x1.a5d3f99cfab5ap+1",
    ("sharp", "qh"): "0x1.293480be8d8fap+2",
    ("smoothed", "bergman"): "0x1.b0aa38f78dafep+1",
    ("smoothed", "qh"): "0x1.204c67b09ae5ep+2",
}


def test_polygon_certificates_are_pinned():
    # every chord of these paths, the shortcut's jumps among them, passes
    # the exact piece test; the sharp L's Bergman path passes within 1e-3
    # of the reflex corner 1+1j
    vertices = [0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]
    for shape, dom, h in (("sharp", G.polygon(vertices), 0.04),
                          ("smoothed", G.smoothed_polygon(vertices, 0.15), 0.02)):
        pts = _sample_interior(dom, np.random.default_rng(7), 40, max(2 * h, 0.1))
        z, w = pts[0::2][15], pts[1::2][15]
        densities = {"bergman": M.bergman_metric_density(fit_kernel_model(dom, 40, 0.02)),
                     "qh": M.quasihyperbolic_density(dom)}
        for label, omega in densities.items():
            res = M.weighted_distance(omega, z, w, h, max_sweeps=16)
            assert res.distance.hex() == _POLYGON_CERTIFICATES[shape, label], (shape, label)
            M.PolylinePath(dom, res.path.vertices)


def test_graphs_live_and_die_with_their_density(disc):
    omega = M.quasihyperbolic_density(disc)
    graph = M._build_graph(omega, 0.05, disc.bounding_box)
    assert M._build_graph(omega, 0.05, disc.bounding_box) is graph
    ref = weakref.ref(graph)
    del graph, omega
    gc.collect()
    assert ref() is None


def test_density_keeps_its_eight_newest_graphs(disc):
    omega = M.quasihyperbolic_density(disc)
    windows = [(-0.5 + 0.1 * k, 0.5, -0.5, 0.5) for k in range(9)]
    graphs = [M._build_graph(omega, 0.1, win) for win in windows]
    kept = list(omega._graphs.values())
    assert len(kept) == 8
    assert all(a is b for a, b in zip(kept, graphs[1:]))
    assert M._build_graph(omega, 0.1, windows[0]) is not graphs[0]


def _four_branch_edges(omega, graph):
    """(vals, (rows, cols)) of the graph's lattice edges by the per-offset
    slicing with a branch per sign of dj and a guard for offsets wider than
    the window, from the graph's own ids and nodes."""
    ids, nodes = graph.ids, graph.nodes
    rows, cols, vals = [], [], []
    for di, dj in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)]:
        ni, nj = ids.shape
        if di >= ni or abs(dj) >= nj:
            continue
        if dj >= 0:
            src, dst = ids[: ni - di, : nj - dj], ids[di:, dj:]
        else:
            src, dst = ids[: ni - di, -dj:], ids[di:, : nj + dj]
        ok = (src >= 0) & (dst >= 0)
        s, d = src[ok], dst[ok]
        if s.size == 0:
            continue
        keep = ~G.segments_meet_boundary(omega.domain, nodes[s], nodes[d])
        s, d = s[keep], d[keep]
        rows.append(s)
        cols.append(d)
        vals.append(M._segment_cost(omega.eval_array, nodes[s], nodes[d], M._GL_X6, M._GL_W6))
    if not rows:
        return np.zeros(0), (np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    return (np.concatenate(vals + vals),
            (np.concatenate(rows + cols), np.concatenate(cols + rows)))


_LSHAPE = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
_ROUNDED_L = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
# (domain, window, lattice shape): the whole box, windows clipped at each
# side of the box, and windows one and two cells wide
_GRAPH_WINDOWS = [
    (G.unit_disc(), (-1, 1, -1, 1), (21, 21)),
    (G.unit_disc(), (-2, 0.3, -0.4, 0.5), (14, 11)),
    (G.unit_disc(), (-0.3, 2, -0.4, 0.5), (15, 11)),
    (G.unit_disc(), (-0.4, 0.5, -2, 0.3), (11, 14)),
    (G.unit_disc(), (-0.4, 0.5, -0.3, 2), (11, 15)),
    (G.unit_disc(), (-0.45, -0.45, -0.45, -0.45), (1, 1)),
    (G.unit_disc(), (-0.44, -0.44, -0.45, -0.45), (2, 1)),
    (G.unit_disc(), (-0.5, 0.5, -0.45, -0.45), (12, 1)),
    (G.unit_disc(), (-0.45, -0.45, -0.5, 0.5), (1, 12)),
    (G.unit_disc(), (-0.5, 0.5, -0.44, -0.44), (12, 2)),
    (G.ellipse(1.5, 1), (-1.5, 1.5, -1, 1), (31, 21)),
    (G.ellipse(1.5, 1), (-3, -0.2, -2, 0.1), (14, 12)),
    (G.ellipse(1.5, 1), (0.9, 0.9, -0.6, 0.6), (2, 14)),
    (_LSHAPE, (0, 2, 0, 2), (21, 21)),
    (_LSHAPE, (0.5, 3, 0.5, 3), (17, 17)),
    (_LSHAPE, (-1, 0.15, -1, 1.5), (2, 16)),
    (_ROUNDED_L, (0, 2, 0, 2), (21, 21)),
    (_ROUNDED_L, (0.5, 3, 0.5, 3), (17, 17)),
    (_ROUNDED_L, (-1, 0.15, -1, 1.5), (2, 16)),
]


@pytest.mark.parametrize("dom, window, shape", _GRAPH_WINDOWS)
def test_graph_edges_match_the_four_branch_slicing(dom, window, shape):
    omega = M.quasihyperbolic_density(dom)
    graph = M._build_graph(omega, 0.1, window)
    assert graph.ids.shape == shape
    n = graph.nodes.size
    nbr, cost = graph.nbr, graph.cost
    assert nbr.shape == cost.shape == (n + 1, 16) and nbr.dtype == np.int32
    # a slot holds an edge or the pad (n, inf); row n, the sentinel's, only pads
    real = nbr < n
    assert np.array_equal(real, np.isfinite(cost)) and not real[n].any()
    assert np.all(nbr >= 0)
    # each row holds its (neighbour, cost) pairs of the four-branch slicing,
    # both directions of each edge, none twice, in rising neighbour order
    vals, (rows, cols) = _four_branch_edges(omega, graph)
    order = np.lexsort((cols, rows))
    r, c = np.nonzero(real)
    assert np.array_equal(r, rows[order]) and np.array_equal(nbr[r, c], cols[order])
    assert cost[r, c].tobytes() == vals[order].tobytes()
    assert graph.least.tobytes() == cost.min(axis=1).tobytes()


def test_graph_build_peaks_under_two_and_a_half_graphs(ellipse15):
    # nt-bounds' whole-domain graph (7,228 nodes, 112,916 lattice entries)
    # under the stored degree-72 kernel.  Assembled from COO, sorted and
    # grown by two np.append copies, its CSR matrix's build peaked at 4.4
    # times the graph's own bytes (6.67 MiB of tracemalloc for 1.51 MiB)
    stored = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "ellipse_1.5x1_deg72_h0.01.kernel")
    omega = M.bergman_metric_density(load_kernel(stored, ellipse15))
    tracemalloc.start()
    try:
        graph = M._build_graph(omega, 0.025, ellipse15.bounding_box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (graph.nodes, graph.ids, graph.nbr, graph.cost, graph.least))
    assert graph.nodes.size == 7228 and np.isfinite(graph.cost).sum() == 112916
    assert peak < 2.5 * own


def _n_plus_2_graph_path(omega, z, w, resolution):
    """The search the solver ran while its graph was an edge list: z and w
    are nodes n and n + 1, every endpoint edge and the direct edge go both
    ways, and each query converts its own (n + 2)-node COO list to CSR."""
    domain = omega.domain
    graph = M._build_graph(omega, resolution, M._graph_window(domain, z, w, resolution))
    n = graph.nodes.size
    real = graph.nbr[:n] < n
    rows, cols, vals = [np.nonzero(real)[0]], [graph.nbr[:n][real]], [graph.cost[:n][real]]
    for j, p in enumerate((z, w)):
        idx = graph.nearby_ids(p)
        c = idx[~G.segments_meet_boundary(domain, np.full(idx.shape, p), graph.nodes[idx])]
        cost = M._segment_cost(omega.eval_array, np.full(c.shape, p), graph.nodes[c],
                               M._GL_X6, M._GL_W6)
        rows += [np.full(c.size, n + j), c]
        cols += [c, np.full(c.size, n + j)]
        vals += [cost, cost]
    if not G.segments_meet_boundary(domain, np.array([z]), np.array([w]))[0]:
        cost = float(M._segment_cost(omega.eval_array, z, w, M._GL_X6, M._GL_W6))
        rows += [[n], [n + 1]]
        cols += [[n + 1], [n]]
        vals += [[cost], [cost]]
    full = csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n + 2, n + 2))
    dist, pred = dijkstra(full, indices=n, return_predecessors=True)
    chain = [n + 1]
    while chain[-1] != n:
        chain.append(int(pred[chain[-1]]))
    pts = np.array([z, *graph.nodes[chain[-2:0:-1]], w], dtype=complex)
    return pts, float(dist[n + 1])


def _graph_path_cases():
    """(density, resolution, pairs) covering each domain kind and density
    kind, on the whole domain's graph and, at h 0.01 (40,000 cells of the
    box, past _WHOLE_DOMAIN), on the pair's window."""
    disc = G.unit_disc()
    qh_disc = M.quasihyperbolic_density(disc)
    # exact ties along the diagonal of the quasihyperbolic disc, on the
    # whole disc and on a window symmetric about that diagonal
    diagonal = [(0.2 + 0.2j, -0.2 - 0.2j)]
    cases = [(qh_disc, h, diagonal) for h in (0.05, 0.04, 0.02)]
    cases += [(qh_disc, 0.01, [(0.05 + 0.05j, -0.05 - 0.05j)])]
    # endpoints closer than a lattice cell: the direct edge is the search's path
    cases += [(qh_disc, 0.05, [(0.1 + 0.1j, 0.12 + 0.11j)]),
              (qh_disc, 0.01, [(0.1 + 0.1j, 0.105 + 0.103j)])]
    # a window holding the L's reflex corner, which cuts the pair's chord
    cases += [(M.quasihyperbolic_density(_LSHAPE), 0.01, [(0.95 + 1.05j, 1.05 + 0.95j)])]
    for omega, h in ((M.hyperbolic_density(), 0.05), (qh_disc, 0.04),
                     (M.constant_density(disc, 1.0), 0.05),
                     (M.quasihyperbolic_density(G.ellipse(1.5, 1)), 0.05),
                     (M.quasihyperbolic_density(_LSHAPE), 0.05),
                     (M.constant_density(_LSHAPE, 1.0), 0.05)):
        cases.append((omega, h, _seeded_pairs(omega.domain, 4, 40 + len(cases))))
    return cases


def test_graph_path_matches_the_n_plus_2_node_search():
    direct = routed = 0
    for omega, h, pairs in _graph_path_cases():
        for z, w in pairs:
            want = _n_plus_2_graph_path(omega, z, w, h)
            got = M._graph_path(omega, z, w, h)
            assert np.array_equal(got[0], want[0]), (omega.domain.grid_key(), h, z, w)
            assert got[1] == want[1]
            direct += got[0].size == 2
            routed += got[0].size > 2
    assert direct and routed


def test_the_graph_covers_the_whole_domain_up_to_its_cell_budget():
    # a pair 8 cells apart, whose padded window is a small part of the box.
    # At the searching configs' and the solver probe's resolutions the
    # search builds the box's graph, cached under the box's key; at
    # criterion 3's (h 0.01 on the disc, 40,000 cells) and criterion 4's
    # (h / 20 for h = 0.08, 0.04, 0.02), the pair's window
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    configs = [E.parse_config_file(os.path.join(root, "configs", f"{name}.txt"))
               for name in ("nt_bounds_ellipse", "nt_bounds_smoothed_lshape",
                            "qh_compare_disc_quick", "qh_compare_ellipse")]
    spec = importlib.util.spec_from_file_location(
        "solver_probe", os.path.join(root, "tools", "solver_probe.py"))
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    whole = [(cfg.domain, cfg.resolution) for cfg in configs]
    whole += [(dom, h) for dom in probe.domains().values() for h in (0.04, 0.02)]
    window = [(G.unit_disc(), h) for h in (0.01, 0.004, 0.002, 0.001)]
    for dom, h in whole + window:
        omega = M.constant_density(dom, 1.0)
        z = G.interior_anchor(dom)
        M._graph_path(omega, z, z + 8 * h, h)
        (graph,) = omega._graphs.values()
        if (dom, h) in whole:
            assert graph.i0 == graph.j0 == 0, (dom.grid_key(), h)
            assert M._build_graph(omega, h, dom.bounding_box) is graph
        else:
            assert graph.i0 > 0 and graph.j0 > 0 and graph.ids.size < 4096, h


def test_search_bounded_by_the_direct_edge_returns_the_unbounded_path(monkeypatch):
    # the same points and cost with the direct edge's limit and with
    # limit=inf, on a convex domain, where every search is bounded, and on a
    # non-convex one, where a chord that leaves it (the last pair's) leaves
    # the search unbounded
    searches = []
    search = M._search

    def unbounded(graph, cz, cost_z, limit):
        return search(graph, cz, cost_z, math.inf)

    def bounded(graph, cz, cost_z, limit):
        dist, pred = search(graph, cz, cost_z, limit)
        searches.append((limit, np.isfinite(dist[:-1]).sum() < dist.size - 1))
        return dist, pred

    for omega, h, pairs in (
            (M.quasihyperbolic_density(G.ellipse(1.5, 1)), 0.05,
             _seeded_pairs(G.ellipse(1.5, 1), 8, 81)),
            (M.quasihyperbolic_density(_ROUNDED_L), 0.05,
             _seeded_pairs(_ROUNDED_L, 8, 82) + [(0.5 + 1.8j, 1.8 + 0.5j)])):
        for z, w in pairs:
            monkeypatch.setattr(M, "_search", unbounded)
            want = M._graph_path(omega, z, w, h)
            monkeypatch.setattr(M, "_search", bounded)
            got = M._graph_path(omega, z, w, h)
            assert np.array_equal(got[0], want[0]), (omega.domain.grid_key(), z, w)
            assert got[1] == want[1]
    assert all(math.isfinite(limit) for limit, _ in searches[:-1])
    assert math.isinf(searches[-1][0])
    assert sum(pruned for _, pruned in searches) > len(searches) // 2


def _scipy_search(graph, cz, cost_z, limit):
    """SciPy's Dijkstra from z on the (n + 1)-node CSR matrix of the graph's
    table, z as node n; an unreached node's predecessor reads -1."""
    n = graph.nodes.size
    real = graph.nbr < n
    rows = np.concatenate([np.nonzero(real)[0], np.full(cz.size, n)])
    cols = np.concatenate([graph.nbr[real], cz])
    vals = np.concatenate([graph.cost[real], cost_z])
    dist, pred = dijkstra(csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)), indices=n,
                          return_predecessors=True, limit=limit)
    return dist, np.where(pred == -9999, -1, pred)


def test_search_matches_scipy_dijkstra_bit_for_bit(stored_ellipse_density):
    # nt-bounds' whole-domain graph of the stored fit, priced by its guide,
    # and the sharp L under its quasihyperbolic and constant densities
    cases = [(stored_ellipse_density, 0.025, 6),
             (M.quasihyperbolic_density(_LSHAPE), 0.05, 8),
             (M.constant_density(_LSHAPE, 1.0), 0.05, 8)]
    for seed, (omega, h, count) in enumerate(cases):
        graph = M._build_graph(omega, h, omega.domain.bounding_box)
        price = omega.eval_array if graph.guide is None else graph.guide
        n = graph.nodes.size
        for z, w in _seeded_pairs(omega.domain, count, 60 + seed):
            idx = graph.nearby_ids(z)
            cz = idx[~G.segments_meet_boundary(omega.domain, np.full(idx.shape, z),
                                               graph.nodes[idx])]
            cost_z = M._segment_cost(price, np.full(cz.shape, z), graph.nodes[cz],
                                     M._GL_X6, M._GL_W6)
            direct = float(M._segment_cost(price, z, w, M._GL_X6, M._GL_W6))
            for limit in (direct, math.inf):
                dist, pred = M._search(graph, cz, cost_z, limit)
                want_dist, want_pred = _scipy_search(graph, cz, cost_z, limit)
                assert dist[:n].tobytes() == want_dist[:n].tobytes(), (seed, z, limit)
                assert np.array_equal(pred[:n], want_pred[:n]), (seed, z, limit)
                assert math.isinf(dist[n]) and pred[n] == -1


@pytest.mark.parametrize("dom, z, w", [
    (G.ellipse(1.5, 1), -0.9 + 0.2j, 0.7 - 0.4j),
    (_LSHAPE, 0.3 + 1.6j, 1.7 + 0.4j),
])
def test_query_table_matches_the_coo_route(monkeypatch, dom, z, w):
    omega = M.quasihyperbolic_density(dom)
    graph = M._build_graph(omega, 0.1, dom.bounding_box)
    built = [a.copy() for a in (graph.nbr, graph.cost, graph.least)]
    seen = []
    search = M._search

    def capture(g, cz, cost_z, limit):
        seen.append((g, cz, cost_z))
        return search(g, cz, cost_z, limit)

    monkeypatch.setattr(M, "_search", capture)
    got = M._graph_path(omega, z, w, 0.1)
    ((searched, cz, cost_z),) = seen
    # the search runs on the graph's cached table, not a per-query copy
    assert searched is graph
    # z's connectors and their costs, and nothing of w
    idx = graph.nearby_ids(z)
    c = idx[~G.segments_meet_boundary(dom, np.full(idx.shape, z), graph.nodes[idx])]
    cost = M._segment_cost(omega.eval_array, np.full(c.shape, z), graph.nodes[c],
                           M._GL_X6, M._GL_W6)
    assert np.array_equal(cz, c)
    assert np.array_equal(cost_z, cost)
    # the query leaves the cached table as built
    for before, after in zip(built, (graph.nbr, graph.cost, graph.least)):
        assert before.tobytes() == after.tobytes()
    # the path and its cost are those of the (n + 2)-node COO route
    want_pts, want_cost = _n_plus_2_graph_path(omega, z, w, 0.1)
    assert np.array_equal(got[0], want_pts)
    assert got[1] == want_cost


def test_no_run_or_solve_loads_scipy(tmp_path, stored_ellipse_density):
    # pytest has scipy loaded already, so a fresh interpreter runs a
    # closed-form hl1 config, one search under the hyperbolic density and
    # one under the stored fit's Bergman density
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    stored = os.path.join(root, "perfbench", "ellipse_1.5x1_deg72_h0.01.kernel")
    z, w = 0.3 + 0.2j, -0.4 - 0.5j
    script = (
        "import json, sys\n"
        "from metriclab import experiments as E, geometry as G, metrics as M\n"
        "from metriclab.bergman import load_kernel\n"
        "E.run_experiment(E.parse_config_file(sys.argv[1], {'out': sys.argv[2]}))\n"
        f"d = M.weighted_distance(M.hyperbolic_density(), {z!r}, {w!r}, 0.05).distance\n"
        "omega = M.bergman_metric_density(load_kernel(sys.argv[3], G.ellipse(1.5, 1)))\n"
        f"b = M.weighted_distance(omega, {z!r}, {w!r}, 0.05).distance\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "                  d.hex(), b.hex()]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    run = subprocess.run([sys.executable, "-c", script,
                          os.path.join(root, "configs", "hl1_cusp50.txt"), str(tmp_path), stored],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded, d, b = json.loads(run.stdout.splitlines()[-1])
    assert loaded == []
    assert d == M.weighted_distance(M.hyperbolic_density(), z, w, 0.05).distance.hex()
    assert b == M.weighted_distance(stored_ellipse_density, z, w, 0.05).distance.hex()


def test_warm_whole_domain_query_allocates_no_graph_sized_array(ellipse15):
    # nt-bounds' graph (7,228 nodes) under the stored degree-72 kernel, which
    # needs no fit, and under the quasihyperbolic density.  A query seeds z's
    # connectors into its own distance array; a per-query copy of the
    # graph's edges peaked at 4.9 MB.  The quasihyperbolic query peaks at
    # 188 KB, its boundary distances included
    stored = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "ellipse_1.5x1_deg72_h0.01.kernel")
    for omega in (M.bergman_metric_density(load_kernel(stored, ellipse15)),
                  M.quasihyperbolic_density(ellipse15)):
        M._graph_path(omega, -0.9 + 0.2j, 0.7 - 0.4j, 0.025)
        tracemalloc.start()
        try:
            M._graph_path(omega, -0.3 - 0.6j, 1.1 + 0.3j, 0.025)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**10


def test_nearby_ids_match_a_cell_scan(disc):
    # reference: scan the 5 x 5 cells around z's cell, keep lattice nodes
    graph = M._build_graph(M.quasihyperbolic_density(disc), 0.1, (0.2, 0.6, -0.3, 0.4))
    rng = np.random.default_rng(3)
    for z in rng.uniform(-1.2, 1.2, 300) + 1j * rng.uniform(-1.2, 1.2, 300):
        ci = int(np.floor((z.real - graph.xmin) / graph.h - 0.5)) - graph.i0
        cj = int(np.floor((z.imag - graph.ymin) / graph.h - 0.5)) - graph.j0
        ref = sorted(graph.ids[i, j]
                     for i in range(ci - 2, ci + 3) for j in range(cj - 2, cj + 3)
                     if 0 <= i < graph.ids.shape[0] and 0 <= j < graph.ids.shape[1]
                     and graph.ids[i, j] >= 0)
        assert graph.nearby_ids(z).tolist() == ref


def test_geodesic_evaluator_divergence_to_inf(hyp):
    d = M.geodesic_evaluator(hyp, 0.02, max_sweeps=40)
    out = d(np.array([0.0, 0.0]), np.array([0.3, 1.0 + 0j]))
    assert out[0] == pytest.approx(math.atanh(0.3), rel=1e-2)
    assert math.isinf(out[1])


def test_write_path_file(tmp_path, hyp):
    res = M.weighted_distance(hyp, 0.0, 0.5, 0.05)
    out = tmp_path / "path.dat"
    M.write_path_file(res.path, out)
    data = np.loadtxt(out)
    assert np.array_equal(data[:, 0] + 1j * data[:, 1], res.path.vertices)


def test_bergman_distance_invariance_small(disc_kernel_coarse):
    omega = M.bergman_metric_density(disc_kernel_coarse)
    phi = MP.BlaschkeProduct((0.3,))
    z, w = 0.4 + 0.1j, -0.3 + 0.2j
    d0 = M.weighted_distance(omega, z, w, 0.02).distance
    d1 = M.weighted_distance(omega, complex(phi(z)), complex(phi(w)), 0.02).distance
    assert abs(d1 - d0) / d0 < 0.03


# ---------------------------------------------------------------------------
# refinement pricing


def _full_pricing_sweep_level(price, domain, pts, step0, margin, budget):
    """Oracle: the pattern search that prices all 9 candidates of every
    vertex in every sweep and recomputes the path cost after each sweep."""
    def path_cost(p):
        return float(np.sum(M._segment_cost(price, p[:-1], p[1:])))

    dirs = np.array([1, -1, 1j, -1j,
                     (1 + 1j) / math.sqrt(2), (1 - 1j) / math.sqrt(2),
                     (-1 + 1j) / math.sqrt(2), (-1 - 1j) / math.sqrt(2)])
    step = step0
    total = path_cost(pts)
    while step > step0 / 64 and (budget is None or budget[0] > 0):
        improved_level = False
        for _ in range(8):
            if budget is not None:
                if budget[0] <= 0:
                    break
                budget[0] -= 1
            before = total
            for parity in (1, 2):
                idx = np.arange(parity, pts.size - 1, 2)
                if idx.size == 0:
                    continue
                P = pts[idx]
                prev_pts = pts[idx - 1]
                next_pts = pts[idx + 1]
                cand = np.concatenate([P[:, None], P[:, None] + step * dirs[None, :]],
                                      axis=1)
                ok = G.contains(domain, cand.ravel())
                if margin > 0:
                    ok &= G.curve_distance(domain, cand.ravel()) >= margin
                ok = ok.reshape(cand.shape)
                ok &= ~G.segments_meet_boundary(domain, prev_pts[:, None], cand)
                ok &= ~G.segments_meet_boundary(domain, cand, next_pts[:, None])
                cost = (M._segment_cost(price, prev_pts[:, None], cand)
                        + M._segment_cost(price, cand, next_pts[:, None]))
                cost = np.where(ok, cost, np.inf)
                best = np.argmin(cost, axis=1)
                pts[idx] = cand[np.arange(idx.size), best]
            total = path_cost(pts)
            if before - total > 1e-8 * max(total, 1e-300):
                improved_level = True
            else:
                break
        if not improved_level:
            step /= 2
    return pts


def _full_pricing_refine(price, domain, pts, resolution, margin, max_sweeps):
    """Oracle: one path refined alone, on the multiscale schedule of the
    solver, each spacing swept by :func:`_full_pricing_sweep_level`."""
    L = float(np.sum(np.abs(np.diff(pts))))
    budget = None if max_sweeps is None else [max_sweeps]
    deltas = [L / 8.0]
    while deltas[-1] > 4.0 * resolution:
        deltas.append(deltas[-1] / 2)
    deltas.append(2.0 * resolution)
    for delta in deltas:
        if delta >= L:
            continue
        cand = M._resample(pts, delta)
        if G.segments_meet_boundary(domain, cand[:-1], cand[1:]).any():
            cand = pts
        pts = _full_pricing_sweep_level(price, domain, cand, delta / 2.0, margin, budget)
        if budget is not None and budget[0] <= 0:
            break
    return pts


def _seeded_pairs(domain, count, seed):
    """Seeded endpoint pairs at least 0.15 from the boundary."""
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = domain.bounding_box
    pairs = []
    while len(pairs) < count:
        z, w = (complex(x0 + (x1 - x0) * rng.random(), y0 + (y1 - y0) * rng.random())
                for _ in range(2))
        if all(G.contains(domain, p) and float(G.curve_distance(domain, p)) >= 0.15
               for p in (z, w)):
            pairs.append((z, w))
    return pairs


def test_refine_matches_full_pricing_bit_for_bit(hyp, ellipse15, disc_kernel_coarse,
                                                  stored_ellipse_density):
    # one lockstep refinement of a case's pairs against the oracle that
    # prices every candidate of one path alone
    lshape = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    cases = [   # density, h, sweep budgets
        (hyp, 0.04, (None, 6)),
        (M.quasihyperbolic_density(ellipse15), 0.05, (None, 6)),
        # non-convex: segment checks run
        (M.quasihyperbolic_density(lshape), 0.05, (None, 6)),
        (M.constant_density(lshape, 1.0), 0.05, (None, 6)),
        (M.bergman_metric_density(disc_kernel_coarse), 0.05, (None, 6)),
        # nt-pairs' own search: the whole domain's guide of the stored fit
        (stored_ellipse_density, 0.025, (16,)),
    ]
    for seed, (omega, h, budgets) in enumerate(cases):
        jobs = []
        for z, w in _seeded_pairs(omega.domain, 2, seed):
            # the Bergman density's search prices with its graph's guide
            pts, _, price = M._graph_path(omega, z, w, h)
            end = min(float(G.curve_distance(omega.domain, p)) for p in (z, w))
            margin = min(h, 0.999 * end) if omega.blows_up else min(h / 8, 0.5 * end)
            jobs.append((price, M._shortcut(price, omega.domain, pts), margin))
        for max_sweeps in budgets:
            want = [_full_pricing_refine(price, omega.domain, pts.copy(), h, margin, max_sweeps)
                    for price, pts, margin in jobs]
            got = M._refine(omega.domain, jobs, h, max_sweeps)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (omega.domain.grid_key(), max_sweeps)


@pytest.mark.parametrize("case", ["ellipse_fit", "smoothed_L_qh", "disc_hyperbolic"])
def test_batch_solves_each_pair_as_it_solves_alone(case, hyp, stored_ellipse_density):
    smoothed_l = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
    h = {"ellipse_fit": 0.025, "smoothed_L_qh": 0.04, "disc_hyperbolic": 0.04}[case]
    omega = {"ellipse_fit": stored_ellipse_density,
             "smoothed_L_qh": M.quasihyperbolic_density(smoothed_l),
             "disc_hyperbolic": hyp}[case]
    dom = omega.domain
    pairs = _seeded_pairs(dom, 4, 17)
    # w half a step from the boundary diverges; z == w is a point path
    near = {"ellipse_fit": 1.5 - 0.5 * h, "smoothed_L_qh": 1.5 + 0.5j * h,
            "disc_hyperbolic": 1 - 0.5 * h}[case]
    pairs[2:2] = [(pairs[0][0], near), (pairs[1][1], pairs[1][1])]
    if case == "smoothed_L_qh":
        # an endpoint 1.0005 h above the bottom edge: its margin is 0.9995 h,
        # the others' h
        pairs.append((1.5 + 1.0005j * h, pairs[0][1]))
        margins = {min(h, 0.999 * min(float(G.curve_distance(dom, p)) for p in pair))
                   for k, pair in enumerate(pairs) if k not in (2, 3)}
        assert len(margins) == 2
    batch = M.weighted_distances(omega, [z for z, _ in pairs], [w for _, w in pairs], h,
                                 max_sweeps=16)
    assert len(batch) == len(pairs)
    assert isinstance(batch[2], DivergentDistanceError)
    assert batch[3].distance == 0.0 and batch[3].path.vertices.size == 1
    for (z, w), got in zip(pairs, batch):
        if isinstance(got, Exception):
            with pytest.raises(type(got)) as alone:
                M.weighted_distance(omega, z, w, h, max_sweeps=16)
            assert str(alone.value) == str(got)
            continue
        alone = M.weighted_distance(omega, z, w, h, max_sweeps=16)
        assert got.distance.hex() == alone.distance.hex()
        assert got.path.vertices.tobytes() == alone.path.vertices.tobytes()
        assert got.refinement_gain.hex() == alone.refinement_gain.hex()
        assert (got.path.vertices[0], got.path.vertices[-1]) == (z, w)


def test_a_lockstep_keeps_each_pairs_own_margin():
    # constant density around the smoothed L's reflex corner: each path
    # hugs the corner down to its own margin, h / 8 = 0.005 for the first
    # pair and half the second's endpoint clearance, 0.003, for the second
    smoothed_l = G.smoothed_polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j], 0.15)
    omega = M.constant_density(smoothed_l, 1.0)
    zs, ws = [1.8 + 0.8j, 1.8 + 0.8j], [0.8 + 1.8j, 0.006 + 1.8j]
    batch = M.weighted_distances(omega, zs, ws, 0.04, max_sweeps=16)
    for z, w, got in zip(zs, ws, batch):
        alone = M.weighted_distance(omega, z, w, 0.04, max_sweeps=16)
        assert got.distance.hex() == alone.distance.hex()
        assert got.path.vertices.tobytes() == alone.path.vertices.tobytes()
    # the second path passes the corner closer than the first one's margin
    clearance = float(G.curve_distance(smoothed_l, batch[1].path.vertices[1:-1]).min())
    assert 0.003 <= clearance < 0.005


def test_a_refinement_error_is_only_its_own_pairs():
    # a density that fails near the origin once refinement starts: the pair
    # whose path crosses it reports the error, the other solves as alone
    disc = G.unit_disc()
    refining = [False]

    def values(z):
        if refining[0] and np.any(np.abs(z) < 0.05):
            raise KernelInstabilityError("forced near the origin")
        return np.ones(z.shape)

    omega = M.MetricDensity(disc, values, blows_up=False)
    real = M._refine

    def armed(*args, **kwargs):
        refining[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            refining[0] = False

    zs, ws = [-0.5 + 0.01j, 0.3 + 0.4j], [0.5 - 0.01j, 0.6 + 0.5j]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "_refine", armed)
        crossing, aside = M.weighted_distances(omega, zs, ws, 0.05, max_sweeps=6)
        alone = M.weighted_distance(omega, zs[1], ws[1], 0.05, max_sweeps=6)
    assert isinstance(crossing, KernelInstabilityError)
    assert aside.distance == alone.distance
    assert aside.path.vertices.tobytes() == alone.path.vertices.tobytes()


def test_nt_batch_certificates_reprice_to_their_distances(stored_ellipse_density):
    # every result of an nt batch is its path's own length, bit for bit,
    # on a valid in-domain path between the pair's endpoints
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    cfg = E.parse_config_file(os.path.join(root, "configs", "nt_bounds_ellipse.txt"))
    omega = stored_ellipse_density
    pairs = list(itertools.islice(E._seeded_pairs(cfg, 400), 12))
    batch = M.weighted_distances(omega, [z for z, _ in pairs], [w for _, w in pairs],
                                 cfg.resolution, max_sweeps=cfg.refine_sweeps)
    for (z, w), res in zip(pairs, batch):
        assert isinstance(res, M.GeodesicResult)
        v = res.path.vertices
        assert (v[0], v[-1]) == (z, w)
        M.PolylinePath(omega.domain, v)
        assert M.path_length(omega, res.path).hex() == res.distance.hex()


# ---------------------------------------------------------------------------
# the search guide


@pytest.fixture(scope="module")
def stored_ellipse_density():
    """The degree-72 E(1.5, 1) fit stored for the benchmark, as a density."""
    dom = G.ellipse(1.5, 1)
    stored = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "ellipse_1.5x1_deg72_h0.01.kernel")
    return M.bergman_metric_density(load_kernel(stored, dom))


def _guide_points(domain, count, seed, box=None):
    """``count`` seeded points inside the domain, drawn from ``box``
    (default: the domain's bounding box)."""
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = box or domain.bounding_box
    out = np.zeros(0, dtype=complex)
    while out.size < count:
        z = x0 + (x1 - x0) * rng.random(4 * count) + 1j * (y0 + (y1 - y0) * rng.random(4 * count))
        out = np.concatenate([out, z[G.contains(domain, z)]])
    return out[:count]


def _stencil_admitted(guide, z):
    """Whether z's 4 x 4 stencil lies on the guide's lattice with every
    node admitted, by a scan of the nodes around z."""
    nx, ny = guide.logs.shape[0] - 4, guide.logs.shape[1] - 4
    i = math.floor((z.real - guide.x0) / guide.step)
    j = math.floor((z.imag - guide.y0) / guide.step)
    return all(0 <= a < nx and 0 <= b < ny and math.isfinite(guide.logs[a + 2, b + 2])
               for a in range(i - 1, i + 3) for b in range(j - 1, j + 3))


def test_only_a_bergman_graph_carries_a_guide(disc, disc_kernel_coarse):
    for omega in (M.hyperbolic_density(), M.quasihyperbolic_density(disc),
                  M.constant_density(disc, 1.0)):
        assert M._build_graph(omega, 0.1, disc.bounding_box).guide is None
    omega = M.bergman_metric_density(disc_kernel_coarse)
    graph = M._build_graph(omega, 0.1, (-0.5, 0.2, -0.3, 0.4))
    # the lattice of step 0.4 h covers the window's cells
    assert graph.guide.step == pytest.approx(0.04)
    assert (graph.guide.x0, graph.guide.y0) == (-1 + graph.i0 * 0.1, -1 + graph.j0 * 0.1)
    ni, nj = graph.ids.shape
    assert graph.guide.logs.shape == (math.ceil(ni / 0.4) + 5, math.ceil(nj / 0.4) + 5)


def test_a_wrong_guide_leaves_the_certificate_the_fits_length(stored_ellipse_density):
    # the guide only steers the search: with a wrong constant in its place
    # the solve still returns the fit's length of a valid in-domain path
    omega = stored_ellipse_density
    dom = omega.domain
    z, w = -0.9 + 0.2j, 0.7 - 0.4j
    guided = M.weighted_distance(omega, z, w, 0.05, max_sweeps=16)
    graph = M._build_graph(omega, 0.05, dom.bounding_box)
    graph.guide = lambda p: np.full(np.shape(p), 3.0)
    try:
        res = M.weighted_distance(omega, z, w, 0.05, max_sweeps=16)
    finally:
        omega._graphs.clear()
    assert isinstance(res.path, M.PolylinePath)
    M.PolylinePath(dom, res.path.vertices)
    assert res.distance == M.path_length(omega, res.path)
    assert guided.distance == M.path_length(omega, guided.path)
    assert not np.array_equal(res.path.vertices, guided.path.vertices)


def test_guide_falls_back_to_the_fit_off_its_lattice(stored_ellipse_density):
    # a window reaching the boundary on two sides, and points drawn from a
    # box larger than it: stencils leave the lattice or touch nodes not
    # admitted, and there the guide is the fit bit for bit
    omega = stored_ellipse_density
    graph = M._build_graph(omega, 0.025, (0.2, 1.5, -0.3, 1.0))
    guide = graph.guide
    pts = _guide_points(omega.domain, 3000, 91, (0.0, 1.5, -0.5, 1.0))
    admitted = np.array([_stencil_admitted(guide, z) for z in pts])
    assert 500 < admitted.sum() < pts.size - 500
    got = guide(pts)
    fit = omega.eval_array(pts)
    assert got[~admitted].tobytes() == fit[~admitted].tobytes()
    assert np.all(got[admitted] != fit[admitted])


def test_guide_value_does_not_depend_on_its_batch(stored_ellipse_density):
    omega = stored_ellipse_density
    guide = M._build_graph(omega, 0.025, (0.2, 1.5, -0.3, 1.0)).guide
    pts = _guide_points(omega.domain, 513, 92, (0.0, 1.5, -0.5, 1.0))
    batch = guide(pts)
    alone = np.array([guide(np.array([z]))[0] for z in pts])
    assert batch.tobytes() == alone.tobytes()
    assert guide(pts[7]).shape == () and guide(pts[7]) == batch[7]
    assert guide(pts.reshape(27, 19)).tobytes() == batch.tobytes()


def _four_term_guide_read(guide, z):
    """Oracle: the guide's read with its stencil offsets and clamp formed per
    call, the corner in floats and the 4 x 4 products summed term by term."""
    flat = np.asarray(z, dtype=complex).ravel()
    fx, fy = guide.logs.shape
    uv = np.stack((flat.real - guide.x0, flat.imag - guide.y0)) / guide.step
    base = np.fmin(np.fmax(np.floor(uv), -1.0), [[fx - 5.0], [fy - 5.0]])
    w = M._cubic_weights(uv - base)
    i, j = base.astype(np.intp) + 1
    offsets = (fy * np.arange(4)[:, None] + np.arange(4)).reshape(16, 1)
    vals = guide.logs.take(offsets + i * fy + j).reshape(4, 4, flat.size)
    vals *= w[:, 1]
    rows = vals[:, 0] + vals[:, 1] + vals[:, 2] + vals[:, 3]
    rows *= w[:, 0]
    out = np.exp(rows[0] + rows[1] + rows[2] + rows[3])
    off = np.flatnonzero(np.isnan(out))
    out[off] = guide.values(flat[off])
    return out


def test_guide_read_matches_the_four_term_read(stored_ellipse_density):
    # the window of the fallback test: seeded points off the lattice, on it
    # (the admitted nodes and some not admitted) and falling back
    omega = stored_ellipse_density
    guide = M._build_graph(omega, 0.025, (0.2, 1.5, -0.3, 1.0)).guide
    off = _guide_points(omega.domain, 4000, 94, (0.0, 1.5, -0.5, 1.0))
    nx, ny = guide.logs.shape[0] - 4, guide.logs.shape[1] - 4
    rng = np.random.default_rng(95)
    i, j = rng.integers(0, nx, 2000), rng.integers(0, ny, 2000)
    on = (guide.x0 + i * guide.step) + 1j * (guide.y0 + j * guide.step)
    on = on[G.contains(omega.domain, on)]
    falls = np.array([not _stencil_admitted(guide, z) for z in off])
    assert 500 < falls.sum() < off.size - 500
    assert np.isnan(guide.logs[i + 2, j + 2]).any() and np.isfinite(guide.logs[i + 2, j + 2]).any()
    for pts in (off, on, off[falls], off[:8], on[:1]):
        assert guide(pts).tobytes() == _four_term_guide_read(guide, pts).tobytes()


def test_guide_is_within_1e_3_of_the_fit_a_step_from_the_boundary(stored_ellipse_density):
    # nt-bounds' whole-domain graph at h 0.025; at the lattice step 0.01 the
    # interpolant's largest relative error was 2.3e-4 for d in [0.025,
    # 0.05) and 2.2e-5 for d >= 0.1
    omega = stored_ellipse_density
    dom = omega.domain
    guide = M._build_graph(omega, 0.025, dom.bounding_box).guide
    pts = _guide_points(dom, 6000, 93)
    pts = pts[G.curve_distance(dom, pts) >= 0.025][:2000]
    assert pts.size == 2000
    assert np.max(np.abs(guide(pts) / omega.eval_array(pts) - 1)) <= 1e-3


def _count_points(monkeypatch, omega):
    """Wrap ``omega.eval_array``; returns the list of every priced batch."""
    batches = []
    real = omega.eval_array

    def spy(z):
        batches.append(np.asarray(z, dtype=complex).ravel())
        return real(z)

    monkeypatch.setattr(omega, "eval_array", spy)
    return batches


def test_hyperbolic_solve_density_point_count(monkeypatch):
    omega = M.hyperbolic_density()
    batches = _count_points(monkeypatch, omega)
    rng = np.random.default_rng(11)
    z, w = (complex(*0.75 * (2 * rng.random(2) - 1)) for _ in range(2))
    M.weighted_distance(omega, z, w, 0.02)
    # each sweep prices both sides of every admissible move once; full
    # pricing of every sweep candidate took 529,070 points
    assert sum(b.size for b in batches) == 501342


def test_lshape_solves_price_only_points_inside(monkeypatch):
    lshape = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    omega = M.quasihyperbolic_density(lshape)
    batches = _count_points(monkeypatch, omega)
    for z, w in [(1.8 + 0.5j, 0.5 + 1.8j), (1.5 + 0.8j, 0.8 + 1.5j),
                 (0.7 + 1.7j, 1.6 + 0.4j)]:
        M.weighted_distance(omega, z, w, 0.05)
    priced = np.concatenate(batches)
    outside = priced[~G.contains(lshape, priced)]
    assert priced.size > 0
    assert outside.size == 0, outside[:5]
