import gc
import math
import weakref

import numpy as np
import pytest

from metriclab import geometry as G
from metriclab import metrics as M
from metriclab.errors import (
    DivergentDistanceError,
    DomainError,
    InvalidPathError,
    ResolutionTooCoarseError,
)


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


def test_hyperbolic_density_needs_disc(ellipse15):
    with pytest.raises(ValueError):
        M.MetricDensity(ellipse15, M.HYPERBOLIC)


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


def test_invalid_path_rejected(disc):
    with pytest.raises(InvalidPathError):
        M.PolylinePath(disc, np.array([0.0, 2.0]))
    lshape = G.polygon([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j])
    with pytest.raises(InvalidPathError):
        # both endpoints inside, but the chord crosses the notch
        M.PolylinePath(lshape, np.array([1.8 + 0.5j, 0.5 + 1.8j]))


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
    phi = M.disc_automorphism(0.3, 1.0)
    z = 0.8 * (rng.random(32) - 0.5 + 1j * (rng.random(32) - 0.5))
    w = 0.8 * (rng.random(32) - 0.5 + 1j * (rng.random(32) - 0.5))
    gap = np.abs(M.hyperbolic_distance_closed(phi(z), phi(w))
                 - M.hyperbolic_distance_closed(z, w))
    assert float(gap.max()) < 1e-12


def test_disc_automorphism_basics():
    neg = M.disc_automorphism(0.0, 0.0)
    assert neg(0.4 + 0.1j) == pytest.approx(-(0.4 + 0.1j))
    assert abs(neg.derivative(0.2)) == pytest.approx(1.0)
    phi = M.disc_automorphism(0.5, 0.7)
    assert phi(0.5) == pytest.approx(0.0)
    assert abs(M.disc_automorphism(0.5).derivative(0.0)) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        M.disc_automorphism(1.0)


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


def test_weighted_distance_resolution_too_coarse(disc):
    # blow-up margin excludes every lattice node at this resolution while
    # the endpoints themselves remain admissible
    qh = M.quasihyperbolic_density(disc)
    with pytest.raises(ResolutionTooCoarseError):
        M.weighted_distance(qh, 0.05, -0.05, 0.9)


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
    d = M.geodesic_evaluator(hyp, 0.02)
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
    phi = M.disc_automorphism(0.3, 1.0)
    z, w = 0.4 + 0.1j, -0.3 + 0.2j
    d0 = M.weighted_distance(omega, z, w, 0.02, full_window=True).distance
    d1 = M.weighted_distance(omega, complex(phi(z)), complex(phi(w)), 0.02,
                             full_window=True).distance
    assert abs(d1 - d0) / d0 < 0.03
