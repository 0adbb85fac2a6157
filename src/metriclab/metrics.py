"""Metric densities, weighted path lengths, and weighted geodesic distances.

A metric density is a positive weight on a domain; the induced distance is
the infimum of weighted path lengths over connecting paths.  Distances are
computed by a shortest-path search on a grid graph (8-connected plus knight
moves, so 16 neighbors) followed by local polyline refinement; the result is
an upper bound on the true distance that converges as the resolution goes
to zero, and the returned path is its certificate.  A graph keeps its edges
in a padded table, searched by an exact round-based Dijkstra (:func:`_search`).

The search only chooses the path, so it may price with a cheaper stand-in
for the density: a Bergman density's graph carries a guide, the cubic
interpolant of log rho on a lattice of step 0.4 h over the graph's window
(:class:`_Guide`), and every other density's search prices with the
density itself.  The returned distance is always the adaptive-quadrature
length of the returned path under the density itself (:func:`path_length`).

The solver's one entry is :func:`weighted_distances`, a batch of pairs;
:func:`weighted_distance` is its one-pair case.  Each pair is searched,
shortcut and priced on its own, and the refinement sweeps of all of a
batch's pairs run in lockstep (:func:`_refine`), one set of numpy calls
per half-sweep.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bergman import KernelModel, bergman_density
from .errors import (
    DivergentDistanceError,
    DomainError,
    InvalidPathError,
    MetricLabError,
    ResolutionTooCoarseError,
)
from .geometry import (
    DomainSpec,
    clear_of_boundary,
    contains,
    curve_distance,
    segments_meet_boundary,
    unit_disc,
)


# ---------------------------------------------------------------------------
# densities


@dataclass(eq=False)
class MetricDensity:
    """Positive weight on a domain; pointwise finite and > 0 inside.

    Built by :func:`hyperbolic_density`, :func:`quasihyperbolic_density`,
    :func:`bergman_metric_density` or :func:`constant_density`, each of which
    fixes once its values, whether it blows up at the boundary, its
    closed-form distance ``closed_form(u, v)`` (None: only the geodesic
    solver measures it), the ``sup_screen`` that goes with that distance
    (None: every pair is priced) and whether its searches price with a
    lattice guide (:class:`_Guide`; False: with its own values).  A density
    equals only itself.

    The density owns the geodesic grid graphs built under it, at most 8
    (see :func:`_build_graph`), so they live and die with it.
    """

    domain: DomainSpec
    _values: Callable = field(repr=False)   # of a complex array inside the domain
    blows_up: bool
    closed_form: Callable | None = None
    sup_screen: Callable | None = None
    guided: bool = False
    _graphs: dict = field(default_factory=dict, init=False, repr=False)

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """Pointwise density on points assumed to lie inside the domain."""
        return self._values(np.asarray(z, dtype=complex))


def hyperbolic_density() -> MetricDensity:
    """1 / (1 - |z|^2) on the unit disc, with its closed-form distance and
    that distance's triangle-inequality sup screen."""
    return MetricDensity(unit_disc(), lambda z: 1.0 / (1.0 - np.abs(z) ** 2), blows_up=True,
                         closed_form=hyperbolic_distance_closed,
                         sup_screen=hyperbolic_sup_screen)


def quasihyperbolic_density(domain: DomainSpec) -> MetricDensity:
    """1 / d(z), the reciprocal boundary distance."""
    return MetricDensity(domain, lambda z: 1.0 / curve_distance(domain, z), blows_up=True)


def bergman_metric_density(model: KernelModel) -> MetricDensity:
    """The metric density of a fitted kernel, on the model's domain; its
    searches price with a lattice guide of its log (:class:`_Guide`)."""
    return MetricDensity(model.domain,
                         lambda z: bergman_density(model, z.ravel()).reshape(z.shape),
                         blows_up=True, guided=True)


def constant_density(domain: DomainSpec, value: float) -> MetricDensity:
    """The constant c, 0 < c < inf.  Its distance is c |u - v| between
    points whose chord lies inside the domain (any two points of a convex
    one), which every trace of a catalog map keeps: into a domain other than
    the disc, ``maps.AffineInto`` maps into a disc inside it."""
    c = float(value)
    if not 0 < c < math.inf:
        raise ValueError(f"constant density needs 0 < c < inf, not {value}")
    return MetricDensity(domain, lambda z: np.full(z.shape, c), blows_up=False,
                         closed_form=scaled_euclidean_evaluator(c))


def density_eval(omega: MetricDensity, z) -> float | np.ndarray:
    """Pointwise density with a domain-membership check."""
    inside = contains(omega.domain, z)
    if not np.all(inside):
        raise DomainError(f"density evaluated outside the domain at {z}")
    out = np.asarray(omega.eval_array(np.asarray(z, dtype=complex)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# paths and weighted length


@dataclass
class PolylinePath:
    """Ordered polyline with all vertices (and segments) inside the domain."""

    domain: DomainSpec
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("path needs at least one vertex")
        self.vertices = v
        if not np.all(contains(self.domain, v)):
            raise InvalidPathError("path vertex outside the domain")
        if v.size > 1 and segments_meet_boundary(self.domain, v[:-1], v[1:]).any():
            raise InvalidPathError("path segment leaves the domain")


_GL_X12, _GL_W12 = np.polynomial.legendre.leggauss(12)
_GL_X8, _GL_W8 = np.polynomial.legendre.leggauss(8)
_GL_X6, _GL_W6 = np.polynomial.legendre.leggauss(6)


def _segment_cost(price: Callable, a, b, nodes=_GL_X8, weights=_GL_W8):
    """Gauss-Legendre estimate of int_[a,b] price |dz|, vectorized over
    endpoint arrays of any matching shape; ``price`` is a density's
    ``eval_array`` or a search's guide."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    t = 0.5 * (nodes + 1.0)
    pts = a[..., None] + t * (b - a)[..., None]
    vals = price(pts)
    return 0.5 * np.abs(b - a) * np.sum(vals * weights, axis=-1)


def _line_quad(omega: MetricDensity, a, b) -> np.ndarray:
    """Adaptive 12-point Gauss-Legendre estimates of int_[a_k,b_k] omega |dz|
    for the segments between matching entries of the endpoint arrays.

    Each interval is split in two until the halves agree with the whole to
    1e-12 relative (or 24 levels deep); a half is evaluated once and handed
    down as the whole of its own split.  The segments are refined breadth
    first, so each bisection level of all of them is one
    :func:`_segment_cost` call on ``omega.eval_array``, and the leaves are
    summed back in the depth-first recursion's order.  A closed-form
    density's value does not depend on its batch, so its estimates are bit
    for bit those of each segment refined alone; a fit's value is
    batch-independent only under this CPU's OpenBLAS kernel (ROADMAP item
    19), so a solve prices one path per call.
    """
    lo, hi = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    whole = _segment_cost(omega.eval_array, lo, hi, _GL_X12, _GL_W12)
    levels = []
    for depth in range(25):
        mid = 0.5 * (lo + hi)
        halves = _segment_cost(omega.eval_array, np.concatenate([lo, mid]),
                               np.concatenate([mid, hi]), _GL_X12, _GL_W12)
        left, right = halves[:lo.size], halves[lo.size:]
        both = left + right
        split = ~(np.abs(whole - both) <= 1e-12 * (np.abs(both) + 1e-30)) & (depth < 24)
        levels.append((both, split))
        # the split intervals' halves, each left half before its right
        lo = np.stack([lo[split], mid[split]], axis=1).ravel()
        hi = np.stack([mid[split], hi[split]], axis=1).ravel()
        whole = np.stack([left[split], right[split]], axis=1).ravel()
        if not lo.size:
            break
    value = levels[-1][0]
    for both, split in reversed(levels[:-1]):
        both[split] = value[0::2] + value[1::2]
        value = both
    return value


def path_length(omega: MetricDensity, path: PolylinePath) -> float:
    """Weighted length of a polyline; composite adaptive Gauss quadrature."""
    v = path.vertices
    if v.size < 2:
        return 0.0
    return float(sum(_line_quad(omega, v[:-1], v[1:]).tolist()))


# ---------------------------------------------------------------------------
# closed forms on the disc


def hyperbolic_distance_closed(z, w):
    """Hyperbolic distance on the unit disc,
    (1/2) log((|1-conj(z)w| + |z-w|) / (|1-conj(z)w| - |z-w|)).

    Returns +inf where the denominator vanishes (both points on the
    boundary); inputs with modulus beyond 1 are rejected.
    """
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    if np.any(np.abs(z) > 1 + 1e-12) or np.any(np.abs(w) > 1 + 1e-12):
        raise DomainError("hyperbolic distance needs points in the closed disc")
    cross = np.abs(1.0 - np.conj(z) * w)
    sep = np.abs(z - w)
    gap = cross - sep
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * np.log((cross + sep) / gap)
    out = np.where(sep == 0.0, 0.0, out)
    out = np.where(gap <= 0.0, np.inf, out)
    return float(out) if out.ndim == 0 else out


_SCREEN_RADIUS = 0.99
_SCREEN_TAU = 1e-8
_SCREEN_ETA = 1e-12
# pairs per screen cell.  A cell's bound spans the block's inner steps on
# top of the k steps of a pair, so small blocks prune tighter, but the bound
# table has one entry per shift and block.  On the default ladder and its
# doubled check over the circle and the catalog cusps (2-core Xeon), blocks
# of 32, 64 and 128 pairs take 19.6, 18.6 and 17.6 ms and price 282k, 316k
# and 398k pairs; 16 and 256 take 28 and 23 ms.
_SCREEN_BLOCK = 64


def _cell_bounds(step, K: int) -> np.ndarray:
    """Upper bounds on the closed form of every pair of each screen cell.

    ``step`` holds the closed form of the consecutive pairs,
    step[t] = d(z[t + 1], z[t]), indices mod n.  Cell (k - 1, b) holds the
    pairs (z[t + k], z[t]) of shift k <= K for t in block b, the t in
    [a, e] with a = 64 b and e = min(a + 64, n) - 1.  By the triangle
    inequality such a pair is at most the steps a .. e + k - 1 summed, and
    at most k times their largest.  Both run on margined steps
    u = (1 + tau) step + eta, the sums on their running sums P, so the bound is
    min(P[e + k] - P[a], k max u) + 4 (m + 1) eps P[m], m = n + K
    (see :func:`hyperbolic_sup_screen` for the margins and the slack).
    """
    n = step.size
    u = step * (1.0 + _SCREEN_TAU) + _SCREEN_ETA
    k = np.arange(1, K + 1)[:, None]
    ext = np.concatenate([u, np.resize(u, K)])  # ext[j] = u[j % n]
    P = np.concatenate([[0.0], np.cumsum(ext)])
    a = np.arange(0, n, _SCREEN_BLOCK)
    e = np.minimum(a + _SCREEN_BLOCK, n) - 1
    top = np.maximum(np.maximum.accumulate(ext[e + k - 1], axis=0),
                     np.maximum.reduceat(u, a))
    span = np.minimum(P[e + k] - P[a], k * top)
    return span + 4.0 * (ext.size + 1) * np.finfo(float).eps * P[-1]


def _prefix_floors(z, step, tops) -> list[float]:
    """L_K for each prefix top K: the largest closed form over shift 1 and
    the tops up to K, each priced in full; a computed value of the prefix's
    sup, so it needs no margin."""
    best = float(step.max())
    floors = []
    for K in tops:
        if K != 1:
            best = max(best, float(hyperbolic_distance_closed(np.roll(z, -K), z).max()))
        floors.append(best)
    return floors


def hyperbolic_sup_screen(values, tops) -> dict[int, float] | None:
    """Largest hyperbolic distance of a trace's pairs over each prefix of
    shifts, bit-identical to pricing every pair with the closed form.

    For shift k the pairs are (values[(t + k) % n], values[t]).  Each shift
    K of ``tops`` ends a prefix; the result maps it to the max over the
    pairs of the shifts k = 1 .. K.  The consecutive pairs (shift 1's full
    pass) bound every cell of 64 pairs through the triangle inequality
    (:func:`_cell_bounds`), and each top's full pass, carried upward, gives
    its prefix a computed floor L_K (:func:`_prefix_floors`).  A cell of
    shift k is priced only when its bound reaches the floor of the
    smallest prefix holding k, in chunks of at most n pairs; every other
    pair lies strictly below a value the prefix attains.

    Error bound, for |z|, |w| <= 0.99 and eps = 2^-52: the closed form
    :func:`hyperbolic_distance_closed` is within 2 eps + 1e5 eps d of the
    true distance d.  The 1e5 eps d comes from about 8 eps of rounding in
    |1 - conj(z) w| and |z - w|, amplified by at most
    |1 - conj(z) w|^2 / ((1 - |z|^2)(1 - |w|^2)) <= 1e4; the 2 eps comes
    from rounding the ratio near 1, the closed form's eps/d relative error
    at tiny distances.  (Seeded pairs near the boundary, against 40-digit
    arithmetic, reach 2.5e3 eps d and 26 eps d.)

    Margins.  A true step is at most (step + 2 eps) / (1 - 1e5 eps), and by
    the triangle inequality a pair's true distance is at most the true
    steps it spans, summed.  So the closed form of a pair spanning k steps
    is at most (1 + 2.0001e5 eps) sum step + 4.0001 k eps.  tau = 1e-8
    covers the relative part (4.4e-11) 225 times and eta = 1e-12 the
    absolute part (8.9e-16 per step) 1,100 times, with room for the two
    roundings of u.  Slack.  The running sum P of the m = n + max(tops)
    margined steps is within m eps / 2 P[m] of exact at every index; the
    difference of two sums, the product k max u, the min and adding the
    slack round by at most 2 eps P[m] more.  So (m + 2) eps P[m] bounds
    every rounding after the steps, and the slack 4 (m + 1) eps P[m]
    covers it more than 3 times.  The floors L_K are computed values of
    pairs in their prefix and need no margin.

    Returns None when some |value| exceeds 0.99 or is not finite: outside
    that guard the bound fails, and pairs may diverge or leave the disc.
    """
    z = np.asarray(values, dtype=complex).ravel()
    if not np.all(np.abs(z) <= _SCREEN_RADIUS):
        return None
    n = z.size
    tops = sorted({int(K) for K in tops})
    step = hyperbolic_distance_closed(np.roll(z, -1), z)
    best = np.array(_prefix_floors(z, step, tops))
    # row k - 1 holds shift k; shift 1 and the tops are priced by the floors
    group = np.searchsorted(tops, np.arange(1, tops[-1] + 1))
    live = _cell_bounds(step, tops[-1]) >= best[group][:, None]
    live[np.subtract([1, *tops], 1)] = False
    rows, cols = np.nonzero(live)
    a = cols[:, None] * _SCREEN_BLOCK
    per = max(1, n // _SCREEN_BLOCK)
    for lo in range(0, rows.size, per):
        r, c = rows[lo:lo + per], a[lo:lo + per]
        # a short last block repeats its last pair, which leaves its max
        t = np.minimum(c + np.arange(_SCREEN_BLOCK), np.minimum(c + _SCREEN_BLOCK, n) - 1)
        dist = hyperbolic_distance_closed(z[(t + 1 + r[:, None]) % n], z[t])
        np.maximum.at(best, group[r], dist.max(axis=1))
    return dict(zip(tops, np.maximum.accumulate(best).tolist()))


# ---------------------------------------------------------------------------
# geodesic solver


@dataclass
class GeodesicResult:
    """A solve's distance, the path that certifies it and its resolution.

    ``refinement_gain`` is (graph cost - distance) / graph cost, where the
    graph cost is the search's price of its path: under the graph's guide
    for a guided density, so the gain then also carries the guide's error.
    """

    distance: float
    path: PolylinePath
    resolution: float
    refinement_gain: float


# the 8 forward offsets, each to a neighbour with a higher id (ids run
# row-major), in falling (di, dj) order; their negatives are the backward 8.
# A table row holds offset k's backward neighbour in column k and its forward
# one in column 15 - k, so its columns rise by (di, dj), and so by id
_NEIGHBOR_OFFSETS = np.array([
    (2, 1), (2, -1), (1, 2), (1, 1), (1, 0), (1, -1), (1, -2), (0, 1),
])
# segments priced per call of a price: a graph build's edges, 1,536 points,
# and a sweep's moves, 2,048 points (:func:`_price`).  On
# nt-bounds' 7,228-node guided build (one BLAS thread, 2-core Xeon) it
# peaked at 2.84 MiB (tracemalloc); 1,024-edge chunks, with 4 times the
# guide's stencil temporaries, at 4.56 MiB and no faster
_PRICE_CHUNK = 256
# bounding-box cells of side h up to which the search's graph covers the
# whole domain, one graph for every pair; past it, each pair's window.  Cold
# builds at 2^15 cells took at most 0.96 s and 9.1 MiB (BENCH_45)
_WHOLE_DOMAIN = 2 ** 15
# a guide's lattice step, in units of the graph's h, and the lattice nodes
# its build evaluates per density call
_GUIDE_STEP = 0.4
_GUIDE_BLOCK = 4096


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    """((4,) + t.shape): the cubic Lagrange weights of the nodes -1, 0, 1,
    2 at t, each formed elementwise."""
    a, c, d = t + 1.0, t - 1.0, t - 2.0
    ab, cd = a * t, c * d
    w = np.empty((4,) + t.shape)
    np.multiply(t * cd, -1.0 / 6.0, out=w[0])
    np.multiply(a * cd, 0.5, out=w[1])
    np.multiply(ab * d, -0.5, out=w[2])
    np.multiply(ab * c, 1.0 / 6.0, out=w[3])
    return w


@dataclass(eq=False)
class _Guide:
    """A search's stand-in for a density: log rho at the lattice nodes
    x0 + i step + 1j (y0 + j step), 0 <= i < nx and 0 <= j < ny, that
    clear the boundary by the step, read back at a point by the
    tensor-product cubic Lagrange interpolant on the 4 x 4 nodes around
    it.  Where that stencil leaves the lattice or touches a node not
    admitted, the point gets the density's own value, ``values``.

    ``logs`` holds node (i, j) at [i + 2, j + 2], nan at the nodes not
    admitted and on a frame two nodes wide, so a stencil clamped into the
    frame reads a nan and its point falls back.  A lattice read is formed
    by elementwise operations, with no BLAS call, so it does not depend on
    its batch under any kernel.  A fallback value is the density's own:
    for the fit, batch-independent only under this CPU's OpenBLAS kernel
    (ROADMAP item 19), and a lockstep refinement batches it across pairs.
    """

    values: Callable = field(repr=False)   # the density's own, on a complex array
    logs: np.ndarray                       # (nx + 4, ny + 4)
    x0: float
    y0: float
    step: float

    def __post_init__(self):
        fx, fy = self.logs.shape   # nx + 4, ny + 4
        self._flat = self.logs.ravel()
        # stencil node (a, b) of the floor (i, j) is logs[i + 1 + a, j + 1 + b]
        self._offsets = (fy * np.arange(1, 5)[:, None] + np.arange(1, 5)).reshape(16, 1)
        self._top = np.array([[fx - 5.0], [fy - 5.0]])

    def __call__(self, z) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        flat = zz.ravel()
        uv = np.stack((flat.real - self.x0, flat.imag - self.y0)) / self.step
        # the stencil's nodes run from floor - 1 to floor + 2, with floor
        # held in [-1, n - 1] so they stay in the frame; fmax sends nan there
        base = np.fmin(np.fmax(np.floor(uv), -1.0), self._top)
        w = _cubic_weights(uv - base)
        corner, j = base.astype(np.intp)
        corner *= self.logs.shape[1]
        corner += j
        # vals[a, b, k]: node (a, b) of point k's stencil
        vals = self._flat.take(self._offsets + corner).reshape(4, 4, flat.size)
        # along y in each of the stencil's 4 rows, then along x
        vals *= w[:, 1]
        rows = np.add.reduce(vals, axis=1)
        rows *= w[:, 0]
        out = np.exp(np.add.reduce(rows, axis=0))
        off = np.flatnonzero(np.isnan(out))
        if off.size:
            out[off] = self.values(flat[off])
        return out.reshape(zz.shape)


def _build_guide(omega: MetricDensity, x0: float, y0: float, step: float,
                 nx: int, ny: int) -> _Guide:
    """The guide of ``omega`` on the nx x ny lattice from x0 + 1j y0, its
    nodes evaluated in row-major blocks of at most _GUIDE_BLOCK; a density
    error at a node raises."""
    logs = np.full(nx * ny, np.nan)
    for lo in range(0, logs.size, _GUIDE_BLOCK):
        k = np.arange(lo, min(lo + _GUIDE_BLOCK, logs.size))
        P = (x0 + (k // ny) * step) + 1j * (y0 + (k % ny) * step)
        ok = clear_of_boundary(omega.domain, P, step)
        logs[k[ok]] = np.log(omega.eval_array(P[ok]))
    framed = np.pad(logs.reshape(nx, ny), 2, constant_values=np.nan)
    return _Guide(omega._values, framed, x0, y0, step)


@dataclass
class _GridGraph:
    nodes: np.ndarray            # complex positions
    ids: np.ndarray              # 2d int array over the window lattice (-1 = none)
    i0: int
    j0: int
    h: float
    nbr: np.ndarray              # (n + 1, 16) int32 neighbour ids, n where none
    cost: np.ndarray             # (n + 1, 16) their edge costs, inf where none
    least: np.ndarray            # (n + 1,) each row's least cost
    xmin: float
    ymin: float
    guide: _Guide | None         # the search's price; None: the density's own

    def nearby_ids(self, z: complex) -> np.ndarray:
        """Sorted ids of the nodes at most 2 lattice cells from z's cell."""
        ci = int(np.floor((z.real - self.xmin) / self.h - 0.5)) - self.i0
        cj = int(np.floor((z.imag - self.ymin) / self.h - 0.5)) - self.j0
        block = self.ids[max(ci - 2, 0):max(ci + 3, 0), max(cj - 2, 0):max(cj + 3, 0)]
        return np.sort(block[block >= 0])


def _build_graph(omega: MetricDensity, resolution: float, window) -> _GridGraph:
    domain = omega.domain
    h = resolution
    xmin, xmax, ymin, ymax = domain.bounding_box
    wx0, wx1, wy0, wy1 = window
    i0 = max(0, int(math.floor((wx0 - xmin) / h - 0.5)))
    j0 = max(0, int(math.floor((wy0 - ymin) / h - 0.5)))
    i1 = max(i0, int(math.ceil((min(wx1, xmax) - xmin) / h - 0.5)))
    j1 = max(j0, int(math.ceil((min(wy1, ymax) - ymin) / h - 0.5)))

    key = (h, i0, i1, j0, j1)
    cached = omega._graphs.get(key)
    if cached is not None:
        return cached

    xs = xmin + (np.arange(i0, i1 + 1) + 0.5) * h
    ys = ymin + (np.arange(j0, j1 + 1) + 0.5) * h
    P = xs[:, None] + 1j * ys
    mask = clear_of_boundary(domain, P, h if omega.blows_up else h / 8.0)

    ids = np.full(P.shape, -1, dtype=int)
    ids[mask] = np.arange(int(mask.sum()))
    nodes = P[mask]
    if nodes.size == 0:
        raise ResolutionTooCoarseError("no admissible grid node in the search window")
    # a guided density's search prices on a lattice over the window's cells
    # (cell (i, j) spans xmin + [i, i + 1] h): about 6 density points per
    # graph node, where its edges would take 48
    guide = None
    if omega.guided:
        guide = _build_guide(omega, xmin + i0 * h, ymin + j0 * h, _GUIDE_STEP * h,
                             math.ceil((i1 - i0 + 1) / _GUIDE_STEP) + 1,
                             math.ceil((j1 - j0 + 1) / _GUIDE_STEP) + 1)
    price = omega.eval_array if guide is None else guide

    # pad[2 + i + di, 2 + j + dj] is cell (i, j)'s neighbour at (di, dj), -1 off
    # the window; src, its centre, is ids
    ni, nj = ids.shape
    pad = np.pad(ids.astype(np.int32), 2, constant_values=-1)
    src = pad[2:2 + ni, 2:2 + nj]
    n = nodes.size
    nbr = np.full((n + 1, 16), n, dtype=np.int32)
    cost = np.full((n + 1, 16), np.inf)
    for k, (di, dj) in enumerate(_NEIGHBOR_OFFSETS):
        dst = pad[2 + di:2 + di + ni, 2 + dj:2 + dj + nj]
        ok = (src >= 0) & (dst >= 0)
        meet = segments_meet_boundary(domain, nodes[src[ok]], nodes[dst[ok]])
        ok[ok] = np.logical_not(meet, out=meet)
        s, d = src[ok], dst[ok]
        nbr[s, 15 - k], nbr[d, k] = d, s
        # each edge priced once, from its lower id, in chunks of bounded memory
        for lo in range(0, s.size, _PRICE_CHUNK):
            c = slice(lo, lo + _PRICE_CHUNK)
            cost[s[c], 15 - k] = cost[d[c], k] = _segment_cost(
                price, nodes[s[c]], nodes[d[c]], _GL_X6, _GL_W6)
    graph = _GridGraph(nodes=nodes, ids=ids, i0=i0, j0=j0, h=h, nbr=nbr, cost=cost,
                       least=cost.min(axis=1), xmin=xmin, ymin=ymin, guide=guide)
    if len(omega._graphs) >= 8:   # oldest first out
        omega._graphs.pop(next(iter(omega._graphs)))
    omega._graphs[key] = graph
    return graph


def _search(graph: _GridGraph, cz, cost_z, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from z, whose edges go to the nodes cz at the costs cost_z:
    each node's distance and predecessor (n: z; inf and -1 past ``limit``).
    A round settles every open node within the least open distance plus its
    own least edge cost, or within the least, over open u, of dist[u] plus
    u's (Crauser, Mehlhorn, Meyer and Sanders, 1998): rounding is monotone,
    so no later candidate is smaller.  The predecessor is, of the neighbours
    u with dist[u] + cost == the distance, the one of least dist[u], then of
    least id (z, at 0, first); each such u settles by the end of the round."""
    n = graph.nodes.size
    dist = np.full(n + 1, np.inf)
    dist[cz] = cost_z
    pred = np.full(n + 1, -1, dtype=np.int32)   # -1 until settled
    cap = min(limit, np.finfo(float).max)   # an inf distance is not reached
    while (live := np.flatnonzero((dist <= cap) & (pred < 0))).size:
        d, lv = dist.take(live), graph.least.take(live)
        settle = live[d <= np.maximum(lv + d.min(), (d + lv).min())]
        rows, edge = graph.nbr.take(settle, axis=0), graph.cost.take(settle, axis=0)
        own = dist.take(settle)[:, None]
        via = dist.take(rows)
        via[via + edge != own] = np.inf
        pred[settle] = rows[np.arange(settle.size), via.argmin(axis=1)]
        # minima do not depend on the order of duplicate targets
        edge += own
        np.minimum.at(dist, rows.ravel(), edge.ravel())
    dist[pred < 0] = np.inf
    pred[cz[dist[cz] == cost_z]] = n
    return dist, pred


def _endpoint_admissible(omega: MetricDensity, z: complex, resolution: float) -> float:
    """The endpoint's boundary distance, once the endpoint is checked to lie
    inside and, for a blow-up density, one resolution step clear.  A point
    off the boundary by no more than rounding counts as a boundary point,
    where a blow-up density's distance diverges; any other point that
    ``contains`` rejects is outside the domain."""
    d = float(curve_distance(omega.domain, z))
    inside = contains(omega.domain, z)
    inside_or_on = inside or d <= 1e-12 * max(1.0, abs(z))
    if omega.blows_up and d < resolution and inside_or_on:
        raise DivergentDistanceError(
            f"endpoint {z} is within one resolution step ({resolution}) of the "
            f"boundary; the weighted distance diverges for a blow-up density"
        )
    if not inside:
        raise DomainError(f"endpoint {z} is not inside the domain")
    return d


def _graph_window(domain: DomainSpec, z: complex, w: complex, h: float):
    """The search graph's window: the domain's bounding box up to
    _WHOLE_DOMAIN cells, else the pair's box padded by max(3 |z - w|, 4 h)."""
    x0, x1, y0, y1 = box = domain.bounding_box
    pad = max(3.0 * abs(z - w), 4.0 * h)
    return box if (x1 - x0) * (y1 - y0) <= _WHOLE_DOMAIN * h * h else (
        min(z.real, w.real) - pad, max(z.real, w.real) + pad,
        min(z.imag, w.imag) - pad, max(z.imag, w.imag) + pad)


def _graph_path(omega: MetricDensity, z: complex, w: complex,
                resolution: float) -> tuple[np.ndarray, float, Callable]:
    """The search's path from z to w on the graph of :func:`_graph_window`,
    its cost under the search's price and that price: the graph's guide, or
    the density's own values."""
    domain = omega.domain
    graph = _build_graph(omega, resolution, _graph_window(domain, z, w, resolution))
    price = omega.eval_array if graph.guide is None else graph.guide

    # the search starts from z's connectors; w is reached after it, through
    # its connectors or the direct edge
    conn = []
    for p in (z, w):
        idx = graph.nearby_ids(p)
        if idx.size == 0:
            raise ResolutionTooCoarseError(
                f"no grid node within reach of endpoint {p} at resolution {resolution}")
        meet = segments_meet_boundary(domain, p, graph.nodes[idx])
        conn.append(idx[np.logical_not(meet, out=meet)])
    cz, cw = conn
    if cz.size == 0 or cw.size == 0:
        raise ResolutionTooCoarseError(
            f"endpoint connectors leave the domain at resolution {resolution}")
    cost_z, cost_w = (_segment_cost(price, np.full(c.shape, p), graph.nodes[c], _GL_X6, _GL_W6)
                      for p, c in ((z, cz), (w, cw)))
    meet = segments_meet_boundary(domain, z, w)
    direct = math.inf if meet else float(_segment_cost(price, z, w, _GL_X6, _GL_W6))
    # a node beyond the direct edge's cost keeps dist inf, and a connector
    # there would lose to the direct edge anyway; a chord that leaves the
    # domain leaves the search unbounded
    dist, pred = _search(graph, cz, cost_z, direct)
    # the cheapest reach of w; on a tie the connector nearest z (the one
    # Dijkstra settles first), and the direct edge before any
    reach = dist[cw] + cost_w
    best = np.lexsort((dist[cw], reach))[0]
    if math.isinf(min(direct, reach[best])):
        raise ResolutionTooCoarseError(
            f"grid graph at resolution {resolution} does not connect the endpoints")
    if direct <= reach[best]:
        return np.array([z, w]), direct, price
    chain = [int(cw[best])]
    while chain[-1] != graph.nodes.size:
        chain.append(int(pred[chain[-1]]))
    pts = np.array([z, *graph.nodes[chain[-2::-1]], w], dtype=complex)
    return pts, float(reach[best]), price


def _shortcut(price: Callable, domain: DomainSpec, pts: np.ndarray) -> np.ndarray:
    """Replace subpaths by straight segments wherever that does not cost
    more; greedy forward scan, always taking the farthest jump that meets
    no boundary piece (:func:`segments_meet_boundary`; the vertices are
    inside, so such a jump is inside)."""
    n = pts.size
    if n <= 2:
        return pts
    cum = np.concatenate([[0.0], np.cumsum(_segment_cost(price, pts[:-1], pts[1:]))])
    out = [0]
    i = 0
    while i < n - 1:
        js = np.arange(i + 2, n)
        j = i + 1
        if js.size:   # only jumps that stay inside are priced
            meet = segments_meet_boundary(domain, pts[i], pts[js])
            js = js[np.logical_not(meet, out=meet)]
        if js.size:
            seg = _segment_cost(price, np.full(js.size, pts[i]), pts[js])
            good = seg <= (cum[js] - cum[i]) * (1 + 1e-12)
            if good.any():
                j = int(js[np.nonzero(good)[0][-1]])
        out.append(j)
        i = j
    return pts[np.array(out)]


def _resample(pts: np.ndarray, target: float) -> np.ndarray:
    """Redistribute vertices along the polyline at equal arclength spacing
    close to ``target``, but no finer than 1/400 of the length (coarsening
    or subdividing as needed); endpoints are kept exactly and interior
    vertices stay on the original polyline."""
    seglen = np.abs(np.diff(pts))
    total = float(seglen.sum())
    target = max(target, total / 400)
    k = max(1, int(math.ceil(total / target)))
    s = np.linspace(0.0, total, k + 1)
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, seglen.size - 1)
    frac = (s - cum[idx]) / np.maximum(seglen[idx], 1e-300)
    out = pts[idx] + frac * (pts[idx + 1] - pts[idx])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


# the probe directions of a sweep: the 4 axes, then the 4 diagonals
_DIRS = np.array([1, -1, 1j, -1j,
                  (1 + 1j) / math.sqrt(2), (1 - 1j) / math.sqrt(2),
                  (-1 + 1j) / math.sqrt(2), (-1 - 1j) / math.sqrt(2)])


def _price(price: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_segment_cost` of the segments [a_k, b_k] (1-d arrays), in
    calls of at most _PRICE_CHUNK segments; no cost depends on its chunk."""
    return np.concatenate([
        _segment_cost(price, a[lo:lo + _PRICE_CHUNK], b[lo:lo + _PRICE_CHUNK])
        for lo in range(0, a.size, _PRICE_CHUNK)])


@dataclass(eq=False)
class _Relaxation:
    """One path's state in a lockstep refinement (:func:`_refine`)."""

    price: Callable
    margin: float
    budget: float                # sweeps left (inf: unbounded)
    pts: np.ndarray
    seg: np.ndarray | None = None   # seg[i] is the cost of [pts[i], pts[i + 1]]
    step: float = 0.0            # the probe step of its next sweep


def _relax(r: _Relaxation, domain: DomainSpec, resolution: float):
    """One path's multiscale relaxation: the global shape is settled on a
    coarsened polyline first (few vertices relax in few sweeps), then the
    spacing is halved down to the grid scale.  This keeps convergence
    independent of the vertex count, so finer resolutions strictly tighten
    the result.

    At each spacing, red-black pattern-search sweeps run with the probe step
    shrinking geometrically from half the spacing; a sweep counts as an
    improvement when it cuts the path cost by more than 1e-8 relative.  The
    generator yields "price" when ``r.seg`` must be priced for ``r.pts`` and
    "sweep" before each sweep at ``r.step``; :func:`_refine` does both."""
    L = float(np.sum(np.abs(np.diff(r.pts))))
    target = 2.0 * resolution
    deltas = [L / 8.0]
    while deltas[-1] > target * 2:
        deltas.append(deltas[-1] / 2)
    deltas.append(target)
    for delta in deltas:
        if delta >= L:
            continue
        cand = _resample(r.pts, delta)
        # coarsening that would leave the domain keeps the mesh
        if not segments_meet_boundary(domain, cand[:-1], cand[1:]).any():
            r.pts = cand
        yield "price"
        step0 = r.step = delta / 2.0
        total = float(np.sum(r.seg))
        while r.step > step0 / 64 and r.budget > 0:
            improved_level = False
            for _ in range(8):
                if r.budget <= 0:
                    break
                r.budget -= 1
                before = total
                yield "sweep"
                total = float(np.sum(r.seg))
                if before - total > 1e-8 * max(total, 1e-300):
                    improved_level = True
                else:
                    break
            if not improved_level:
                r.step /= 2
        if r.budget <= 0:
            break


def _sweep(price: Callable, domain: DomainSpec, group: list[_Relaxation]) -> None:
    """One red-black sweep of each path of ``group``, all priced by
    ``price``.  A half-sweep takes every path's vertices of one parity at
    once: their 9 candidates (stay, then a probe step along each of _DIRS)
    pass one clearance test at each path's margin and one chord test per
    side, and both sides of every admissible move are priced by
    :func:`_price`.  The stay column keeps seg, and each vertex takes its
    cheapest candidate, the first on a tie."""
    n = np.array([r.pts.size for r in group])
    ends = np.cumsum(n)
    pts = np.concatenate([r.pts for r in group])
    seg = np.concatenate([r.seg for r in group])
    owner = np.repeat(np.arange(n.size), n)
    local = np.arange(pts.size) - np.repeat(ends - n, n)
    inner = (local >= 1) & (local <= n[owner] - 2)
    step = np.array([r.step for r in group])[owner]
    margin = np.array([r.margin for r in group])[owner]
    for parity in (1, 0):
        idx = np.flatnonzero(inner & (local % 2 == parity))
        if idx.size == 0:
            continue
        # path k's segments sit k places before its vertices in seg: a
        # vertex's left one at lo, its right one at hi
        hi = idx - owner[idx]
        lo = hi - 1
        P, prev_pts, next_pts = pts[idx], pts[idx - 1], pts[idx + 1]
        cand = np.concatenate([P[:, None], P[:, None] + step[idx, None] * _DIRS], axis=1)
        ok = clear_of_boundary(domain, cand, margin[idx, None])
        # segments count only where ok holds, so both ends are inside
        meet = segments_meet_boundary(domain, prev_pts[:, None], cand)
        meet |= segments_meet_boundary(domain, cand, next_pts[:, None])
        ok &= np.logical_not(meet, out=meet)
        left, right = np.full((2,) + cand.shape, np.inf)
        left[:, 0], right[:, 0] = seg[lo], seg[hi]
        r, c = np.nonzero(ok[:, 1:])
        if r.size:
            moves = cand[r, c + 1]
            both = _price(price, np.concatenate([prev_pts[r], moves]),
                          np.concatenate([moves, next_pts[r]]))
            left[r, c + 1], right[r, c + 1] = both[:r.size], both[r.size:]
        cost = np.where(ok, left + right, np.inf)
        best = np.argmin(cost, axis=1)
        pick = np.arange(idx.size)
        pts[idx] = cand[pick, best]
        seg[lo] = left[pick, best]
        seg[hi] = right[pick, best]
    for path, p, s in zip(group, np.split(pts, ends[:-1]),
                          np.split(seg, ends[:-1] - np.arange(1, n.size))):
        path.pts, path.seg = p, s


def _by_price(paths: list[_Relaxation]):
    """The paths grouped by their price, in first-seen order."""
    groups = {}
    for r in paths:
        groups.setdefault(r.price, []).append(r)
    return groups.items()


def _refine(domain: DomainSpec, jobs, resolution: float,
            max_sweeps: int | None = None) -> list[np.ndarray]:
    """Each (price, pts, margin) job's path relaxed by :func:`_relax`, all
    of them in lockstep.  Each round advances every path once: the paths
    that start a spacing have their segments priced together, and those
    that sweep run one :func:`_sweep` per price.  A path keeps its own
    points, step, budget and gain test, and leaves when its relaxation
    ends.  Where no price value depends on its batch (a closed-form
    density, a guide's lattice read; the fit under this CPU's OpenBLAS
    kernel, see :class:`_Guide`), each path is bit for bit the one it gets
    refined alone."""
    budget = math.inf if max_sweeps is None else max_sweeps
    paths = [_Relaxation(price, margin, budget, pts) for price, pts, margin in jobs]
    live = [(r, _relax(r, domain, resolution)) for r in paths]
    while live:
        asked = {"price": [], "sweep": []}
        for item in live:
            ask = next(item[1], None)
            if ask is not None:
                asked[ask].append(item)
        for price, group in _by_price([r for r, _ in asked["price"]]):
            cost = _price(price, np.concatenate([r.pts[:-1] for r in group]),
                          np.concatenate([r.pts[1:] for r in group]))
            ends = np.cumsum([r.pts.size - 1 for r in group])
            for r, seg in zip(group, np.split(cost, ends[:-1])):
                r.seg = seg
        for price, group in _by_price([r for r, _ in asked["sweep"]]):
            _sweep(price, domain, group)
        live = asked["price"] + asked["sweep"]
    return [r.pts for r in paths]


# pairs refined in one lockstep, which bounds a half-sweep's arrays: on
# nt-bounds' pairs with 16 sweeps, one pair's refinement peaked at 0.27
# MiB, 100 pairs' at 1.45 MiB and 256 pairs' at 2.56 MiB (tracemalloc)
_LOCKSTEP_PAIRS = 256


def _refine_each(domain: DomainSpec, jobs, resolution: float, max_sweeps) -> list:
    """:func:`_refine` of the jobs, _LOCKSTEP_PAIRS at a time, each job's
    entry its refined points or the MetricLabError that its refinement
    raised.  When a lockstep raises one, its jobs are refined again one at
    a time, so the error is its own pair's."""
    out = []
    for lo in range(0, len(jobs), _LOCKSTEP_PAIRS):
        block = jobs[lo:lo + _LOCKSTEP_PAIRS]
        try:
            out += _refine(domain, block, resolution, max_sweeps)
        except MetricLabError:
            for job in block:
                try:
                    out += _refine(domain, [job], resolution, max_sweeps)
                except MetricLabError as err:
                    out.append(err)
    return out


def weighted_distances(omega: MetricDensity, zs, ws, resolution: float,
                       max_sweeps: int | None = None) -> list:
    """Weighted geodesic distances of the pairs (zs[k], ws[k]) via grid
    search plus local refinement: entry k is pair k's
    :class:`GeodesicResult`, or the :class:`MetricLabError` it raised.  Any
    other exception propagates.

    Each pair's endpoint checks, search, shortcut and final quadrature run
    on their own; the refinement sweeps of all pairs run in lockstep
    (:func:`_refine`), so each entry is bit for bit that pair's solve
    alone wherever :func:`_refine`'s paths are.  The search (graph,
    shortcut and refinement) prices with the graph's guide when the
    density has one, but the returned distance is the adaptive-quadrature
    length of the returned path under the density itself, hence always an
    upper bound on the true infimum; halving the resolution tightens it.
    Endpoints within one resolution step of the boundary yield
    :class:`DivergentDistanceError` for blow-up densities.  The search's
    graph covers the whole domain while its bounding box holds at most
    _WHOLE_DOMAIN cells of side ``resolution``, else the pair's window.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    domain = omega.domain
    out, solved, jobs = [], [], []
    for k, (z, w) in enumerate(zip(zs, ws)):
        z, w = complex(z), complex(w)
        try:
            endpoint_dist = min(_endpoint_admissible(omega, z, resolution),
                                _endpoint_admissible(omega, w, resolution))
            if z == w:
                out.append(GeodesicResult(0.0, PolylinePath(domain, np.array([z])),
                                          resolution, 0.0))
                continue
            swapped = (w.real, w.imag) < (z.real, z.imag)
            pts, graph_cost, price = _graph_path(omega, *((w, z) if swapped else (z, w)),
                                                 resolution)
            pts = _shortcut(price, domain, pts)
        except MetricLabError as err:
            out.append(err)
            continue
        if omega.blows_up:
            margin = min(resolution, 0.999 * endpoint_dist)
        else:
            # small clearance keeps refined paths off corners of the open domain
            margin = min(resolution / 8.0, 0.5 * endpoint_dist)
        out.append(None)
        solved.append((k, swapped, graph_cost))
        jobs.append((price, pts, margin))
    for (k, swapped, graph_cost), pts in zip(solved, _refine_each(domain, jobs, resolution,
                                                                   max_sweeps)):
        if isinstance(pts, MetricLabError):
            out[k] = pts
            continue
        try:
            path = PolylinePath(domain, pts[::-1].copy() if swapped else pts)
            distance = path_length(omega, path)
        except MetricLabError as err:
            out[k] = err
            continue
        gain = (graph_cost - distance) / graph_cost if graph_cost > 0 else 0.0
        out[k] = GeodesicResult(distance, path, resolution, gain)
    return out


def weighted_distance(omega: MetricDensity, z: complex, w: complex,
                      resolution: float, max_sweeps: int | None = None) -> GeodesicResult:
    """The one-pair case of :func:`weighted_distances`; raises the pair's
    MetricLabError."""
    (res,) = weighted_distances(omega, [z], [w], resolution, max_sweeps)
    if isinstance(res, MetricLabError):
        raise res
    return res


# ---------------------------------------------------------------------------
# distance evaluators injected into the growth-analysis layer


def scaled_euclidean_evaluator(c: float):
    """c |u - v|: the distance of the constant density c between points
    whose chord lies inside the domain (see :func:`constant_density`)."""

    def d(u, v):
        return c * np.abs(np.asarray(u, dtype=complex) - np.asarray(v, dtype=complex))

    return d


def geodesic_evaluator(omega: MetricDensity, resolution: float, max_sweeps: int | None):
    """Distance evaluator backed by the geodesic solver (slow).

    Each call's pairs are one :func:`weighted_distances` batch with the
    refinement budget ``max_sweeps``.  Divergent pairs evaluate to +inf so
    that modulus computations can report them instead of crashing; any
    other MetricLabError is raised, the first in pair order.
    """

    def d(u, v):
        uu = np.asarray(u, dtype=complex).ravel()
        vv = np.asarray(v, dtype=complex).ravel()
        out = np.empty(uu.shape, dtype=float)
        for k, res in enumerate(weighted_distances(omega, uu, vv, resolution, max_sweeps)):
            if isinstance(res, DivergentDistanceError):
                out[k] = np.inf
            elif isinstance(res, MetricLabError):
                raise res
            else:
                out[k] = res.distance
        shape = np.asarray(u).shape
        return out.reshape(shape) if shape else float(out[0])

    return d


def write_path_file(path: PolylinePath, file_path) -> None:
    """Two-column (x, y) text export of a geodesic certificate path."""
    with open(file_path, "w") as fh:
        for v in path.vertices:
            fh.write(f"{float(v.real):.17g} {float(v.imag):.17g}\n")
