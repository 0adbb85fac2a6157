"""Metric densities, weighted path lengths, and weighted geodesic distances.

A metric density is a positive weight on a domain; the induced distance is
the infimum of weighted path lengths over connecting paths.  Distances are
computed by a shortest-path search on a grid graph (8-connected plus knight
moves, so 16 neighbors) followed by local polyline refinement; the result is
an upper bound on the true distance that converges as the resolution goes
to zero, and the returned path is its certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .bergman import KernelModel, bergman_density
from .errors import (
    DivergentDistanceError,
    DomainError,
    InvalidPathError,
    ResolutionTooCoarseError,
)
from .geometry import UNIT_DISC, DomainSpec, contains, curve_distance

HYPERBOLIC = "hyperbolic"
QUASIHYPERBOLIC = "quasihyperbolic"
BERGMAN = "bergman"
CONSTANT = "constant"

_BLOW_UP_KINDS = (HYPERBOLIC, QUASIHYPERBOLIC, BERGMAN)


# ---------------------------------------------------------------------------
# densities


@dataclass
class MetricDensity:
    """Positive weight on a domain; pointwise finite and > 0 inside.

    The density owns the geodesic grid graphs built under it, at most 8
    (see :func:`_build_graph`), so they live and die with it.
    """

    domain: DomainSpec
    kind: str
    model: KernelModel | None = None
    value: float | None = None
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == HYPERBOLIC and self.domain.kind != UNIT_DISC:
            raise ValueError("the hyperbolic density lives on the unit disc only")
        if self.kind == BERGMAN and self.model is None:
            raise ValueError("bergman density needs a fitted KernelModel")
        if self.kind == CONSTANT and not (self.value and self.value > 0):
            raise ValueError("constant density needs value > 0")

    @property
    def blows_up(self) -> bool:
        return self.kind in _BLOW_UP_KINDS

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """Pointwise density on points assumed to lie inside the domain."""
        z = np.asarray(z, dtype=complex)
        if self.kind == HYPERBOLIC:
            return 1.0 / (1.0 - np.abs(z) ** 2)
        if self.kind == QUASIHYPERBOLIC:
            return 1.0 / curve_distance(self.domain, z)
        if self.kind == BERGMAN:
            flat = z.ravel()
            out = np.empty(flat.shape, dtype=float)
            for start in range(0, flat.size, 131072):
                sl = slice(start, start + 131072)
                out[sl] = bergman_density(self.model, flat[sl])
            return out.reshape(z.shape)
        return np.full(z.shape, self.value, dtype=float)


def hyperbolic_density() -> MetricDensity:
    from .geometry import unit_disc

    return MetricDensity(unit_disc(), HYPERBOLIC)


def quasihyperbolic_density(domain: DomainSpec) -> MetricDensity:
    return MetricDensity(domain, QUASIHYPERBOLIC)


def bergman_metric_density(model: KernelModel) -> MetricDensity:
    if model.domain is None:
        raise ValueError("kernel model must carry its domain")
    return MetricDensity(model.domain, BERGMAN, model=model)


def constant_density(domain: DomainSpec, value: float) -> MetricDensity:
    return MetricDensity(domain, CONSTANT, value=float(value))


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
        if v.size > 1:
            a, b = v[:-1], v[1:]
            t = (np.arange(16) + 0.5) / 16.0
            samples = a[:, None] + t[None, :] * (b - a)[:, None]
            if not np.all(contains(self.domain, samples.ravel())):
                raise InvalidPathError("path segment leaves the domain")

    @property
    def euclidean_length(self) -> float:
        return float(np.sum(np.abs(np.diff(self.vertices))))


_GL_X12, _GL_W12 = np.polynomial.legendre.leggauss(12)
_GL_T12 = 0.5 * (_GL_X12 + 1.0)
_GL_X8, _GL_W8 = np.polynomial.legendre.leggauss(8)
_GL_X6, _GL_W6 = np.polynomial.legendre.leggauss(6)


def _segment_cost(omega: MetricDensity, a, b, nodes=_GL_X8, weights=_GL_W8):
    """Gauss-Legendre estimate of int_[a,b] omega |dz|, vectorized over
    endpoint arrays of any matching shape."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    t = 0.5 * (nodes + 1.0)
    pts = a[..., None] + t * (b - a)[..., None]
    vals = omega.eval_array(pts)
    return 0.5 * np.abs(b - a) * np.sum(vals * weights, axis=-1)


def _line_quad(fun, a: complex, b: complex) -> float:
    """Adaptive 12-point Gauss-Legendre estimate of int_[a,b] fun |dz|.

    Each interval is split in two until the halves agree with the whole to
    1e-12 relative (or 24 levels deep); a half is evaluated once and handed
    down as the whole of its own split.
    """
    def gl(lo, hi):
        pts = lo + _GL_T12 * (hi - lo)
        return 0.5 * float(np.abs(hi - lo)) * float(np.sum(fun(pts) * _GL_W12))

    def split(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left, right = gl(lo, mid), gl(mid, hi)
        if abs(whole - (left + right)) <= 1e-12 * (abs(left + right) + 1e-30) or depth >= 24:
            return left + right
        return split(lo, mid, left, depth + 1) + split(mid, hi, right, depth + 1)

    return split(a, b, gl(a, b), 0)


def path_length(omega: MetricDensity, path: PolylinePath) -> float:
    """Weighted length of a polyline; composite adaptive Gauss quadrature."""
    v = path.vertices
    if v.size < 2:
        return 0.0
    return float(sum(_line_quad(omega.eval_array, v[i], v[i + 1])
                     for i in range(v.size - 1)))


# ---------------------------------------------------------------------------
# closed forms on the disc


def hyperbolic_distance_closed(z, w):
    """Hyperbolic distance on the unit disc,
    (1/2) log((|1-conj(z)w| + |z-w|) / (|1-conj(z)w| - |z-w|)).

    Returns +inf where the denominator vanishes (both points on the
    boundary); inputs with modulus beyond 1 are rejected.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(z) > 1 + 1e-12) or np.any(np.abs(w) > 1 + 1e-12):
        raise DomainError("hyperbolic distance needs points in the closed disc")
    cross = np.abs(1.0 - np.conj(z) * w)
    sep = np.abs(z - w)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * np.log((cross + sep) / (cross - sep))
    out = np.where(sep == 0.0, 0.0, out)
    out = np.where(cross - sep <= 0.0, np.inf, out)
    return float(out) if out.ndim == 0 else out


@dataclass
class DiscAutomorphism:
    """Moebius self-map of the disc: phi(z) = e^{i theta}(a - z)/(1 - conj(a) z)."""

    a: complex
    theta: float = 0.0

    def __post_init__(self):
        self.a = complex(self.a)
        if abs(self.a) >= 1:
            raise ValueError("automorphism parameter needs |a| < 1")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.exp(1j * self.theta) * (self.a - z) / (1.0 - np.conj(self.a) * z)
        return complex(out) if out.ndim == 0 else out

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        out = (np.exp(1j * self.theta) * (abs(self.a) ** 2 - 1.0)
               / (1.0 - np.conj(self.a) * z) ** 2)
        return complex(out) if out.ndim == 0 else out


def disc_automorphism(a: complex, theta: float = 0.0) -> DiscAutomorphism:
    return DiscAutomorphism(a, theta)


# ---------------------------------------------------------------------------
# geodesic solver


@dataclass
class GeodesicResult:
    distance: float
    path: PolylinePath
    resolution: float
    refinement_gain: float


_NEIGHBOR_OFFSETS = np.array([
    (1, 0), (0, 1), (1, 1), (1, -1),
    (2, 1), (1, 2), (2, -1), (1, -2),
])


@dataclass
class _GridGraph:
    nodes: np.ndarray            # complex positions
    ids: np.ndarray              # 2d int array over the window lattice (-1 = none)
    i0: int
    j0: int
    h: float
    matrix: csr_matrix
    xmin: float
    ymin: float

    def nearby_ids(self, z: complex) -> np.ndarray:
        """Sorted ids of the nodes at most 2 lattice cells from z's cell."""
        ci = int(np.floor((z.real - self.xmin) / self.h - 0.5)) - self.i0
        cj = int(np.floor((z.imag - self.ymin) / self.h - 0.5)) - self.j0
        block = self.ids[max(ci - 2, 0):max(ci + 3, 0), max(cj - 2, 0):max(cj + 3, 0)]
        return np.sort(block[block >= 0])


def _convex_kind(domain: DomainSpec) -> bool:
    return domain.kind in (UNIT_DISC, "ellipse")


def _segment_inside(domain: DomainSpec, a, b, margin: float, n_samples: int = 8):
    """Vectorized check that segments [a,b] stay inside with clearance."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    t = (np.arange(n_samples) + 0.5) / n_samples
    pts = a[..., None] + t * (b - a)[..., None]
    flat = pts.ravel()
    ok = contains(domain, flat)
    if margin > 0:
        ok &= curve_distance(domain, flat) >= margin
    return ok.reshape(pts.shape).all(axis=-1)


def _build_graph(omega: MetricDensity, resolution: float, window) -> _GridGraph:
    domain = omega.domain
    h = resolution
    xmin, xmax, ymin, ymax = domain.bounding_box
    wx0, wx1, wy0, wy1 = window
    i0 = max(0, int(math.floor((wx0 - xmin) / h - 0.5)))
    j0 = max(0, int(math.floor((wy0 - ymin) / h - 0.5)))
    i1 = int(math.ceil((min(wx1, xmax) - xmin) / h - 0.5))
    j1 = int(math.ceil((min(wy1, ymax) - ymin) / h - 0.5))
    i1 = max(i1, i0)
    j1 = max(j1, j0)

    key = (h, i0, i1, j0, j1)
    cached = omega._graphs.get(key)
    if cached is not None:
        return cached

    xs = xmin + (np.arange(i0, i1 + 1) + 0.5) * h
    ys = ymin + (np.arange(j0, j1 + 1) + 0.5) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    P = X + 1j * Y
    mask = contains(domain, P.ravel()).reshape(P.shape)
    margin = h if omega.blows_up else h / 8.0
    dist = curve_distance(domain, P.ravel()).reshape(P.shape)
    mask &= dist >= margin

    ids = np.full(P.shape, -1, dtype=int)
    ids[mask] = np.arange(int(mask.sum()))
    nodes = P[mask]

    rows, cols, vals = [], [], []
    check_segments = not _convex_kind(domain)
    for di, dj in _NEIGHBOR_OFFSETS:
        ni, nj = ids.shape
        if di >= ni or abs(dj) >= nj:
            continue
        if dj >= 0:
            src = ids[: ni - di, : nj - dj]
            dst = ids[di:, dj:]
        else:
            src = ids[: ni - di, -dj:]
            dst = ids[di:, : nj + dj]
        ok = (src >= 0) & (dst >= 0)
        s, d = src[ok], dst[ok]
        if s.size == 0:
            continue
        if check_segments:
            keep = _segment_inside(domain, nodes[s], nodes[d], 0.0)
            s, d = s[keep], d[keep]
            if s.size == 0:
                continue
        cost = _segment_cost(omega, nodes[s], nodes[d], _GL_X6, _GL_W6)
        rows.append(s)
        cols.append(d)
        vals.append(cost)

    if nodes.size == 0:
        raise ResolutionTooCoarseError("no admissible grid node in the search window")
    n = nodes.size
    if rows:
        r = np.concatenate(rows + cols)
        c = np.concatenate(cols + rows)
        v = np.concatenate(vals + vals)
    else:
        r = c = np.zeros(0, dtype=int)
        v = np.zeros(0)
    graph = _GridGraph(
        nodes=nodes, ids=ids, i0=i0, j0=j0, h=h,
        matrix=csr_matrix((v, (r, c)), shape=(n, n)),
        xmin=xmin, ymin=ymin,
    )
    if len(omega._graphs) >= 8:   # oldest first out
        omega._graphs.pop(next(iter(omega._graphs)))
    omega._graphs[key] = graph
    return graph


def _endpoint_admissible(omega: MetricDensity, z: complex, resolution: float) -> None:
    inside = contains(omega.domain, z)
    if omega.blows_up:
        d = float(curve_distance(omega.domain, z))
        if inside and d >= resolution:
            return
        if d < resolution:
            raise DivergentDistanceError(
                f"endpoint {z} is within one resolution step ({resolution}) of the "
                f"boundary; the weighted distance diverges for a blow-up density"
            )
    if not inside:
        raise DomainError(f"endpoint {z} is not inside the domain")


def _graph_path(omega: MetricDensity, z: complex, w: complex,
                resolution: float, full_window: bool = False) -> tuple[np.ndarray, float]:
    domain = omega.domain
    if full_window:
        window = domain.bounding_box
    else:
        pad = max(3.0 * abs(z - w), 4.0 * resolution)
        window = (min(z.real, w.real) - pad, max(z.real, w.real) + pad,
                  min(z.imag, w.imag) - pad, max(z.imag, w.imag) + pad)
    graph = _build_graph(omega, resolution, window)

    conn = [graph.nearby_ids(p) for p in (z, w)]
    sample_check = not _convex_kind(domain)
    direct_ok = True
    for p, idx in zip((z, w), conn):
        if idx.size == 0:
            raise ResolutionTooCoarseError(
                f"no grid node within reach of endpoint {p} at resolution {resolution}")
    if sample_check:
        keep0 = _segment_inside(domain, np.full(conn[0].shape, z), graph.nodes[conn[0]], 0.0)
        keep1 = _segment_inside(domain, np.full(conn[1].shape, w), graph.nodes[conn[1]], 0.0)
        conn = [conn[0][keep0], conn[1][keep1]]
        direct_ok = bool(_segment_inside(domain, np.array([z]), np.array([w]), 0.0)[0])
        if conn[0].size == 0 or conn[1].size == 0:
            raise ResolutionTooCoarseError(
                f"endpoint connectors leave the domain at resolution {resolution}")

    n = graph.nodes.size
    cost_z = _segment_cost(omega, np.full(conn[0].shape, z), graph.nodes[conn[0]], _GL_X6, _GL_W6)
    cost_w = _segment_cost(omega, np.full(conn[1].shape, w), graph.nodes[conn[1]], _GL_X6, _GL_W6)
    rows = np.concatenate([np.full(conn[0].size, n), conn[0],
                           np.full(conn[1].size, n + 1), conn[1]])
    cols = np.concatenate([conn[0], np.full(conn[0].size, n),
                           conn[1], np.full(conn[1].size, n + 1)])
    vals = np.concatenate([cost_z, cost_z, cost_w, cost_w])
    if direct_ok:
        dcost = float(_segment_cost(omega, z, w, _GL_X6, _GL_W6))
        rows = np.concatenate([rows, [n, n + 1]])
        cols = np.concatenate([cols, [n + 1, n]])
        vals = np.concatenate([vals, [dcost, dcost]])

    m = graph.matrix.tocoo()
    full = csr_matrix(
        (np.concatenate([m.data, vals]),
         (np.concatenate([m.row, rows]), np.concatenate([m.col, cols]))),
        shape=(n + 2, n + 2),
    )
    dist, pred = dijkstra(full, indices=n, return_predecessors=True)
    if not np.isfinite(dist[n + 1]):
        raise ResolutionTooCoarseError(
            f"grid graph at resolution {resolution} does not connect the endpoints")
    chain = [n + 1]
    while chain[-1] != n:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    pts = np.array([z] + [graph.nodes[i] for i in chain[1:-1]] + [w], dtype=complex)
    return pts, float(dist[n + 1])


def _path_cost(omega: MetricDensity, pts: np.ndarray) -> float:
    if pts.size < 2:
        return 0.0
    return float(np.sum(_segment_cost(omega, pts[:-1], pts[1:])))


def _shortcut(omega: MetricDensity, pts: np.ndarray, margin: float) -> np.ndarray:
    """Replace subpaths by straight segments wherever that does not cost
    more; greedy forward scan, always taking the farthest admissible jump."""
    n = pts.size
    if n <= 2:
        return pts
    cum = np.concatenate([[0.0], np.cumsum(_segment_cost(omega, pts[:-1], pts[1:]))])
    out = [0]
    i = 0
    while i < n - 1:
        js = np.arange(i + 2, n)
        j = i + 1
        if js.size:
            a = np.full(js.size, pts[i])
            ok = _segment_inside(omega.domain, a, pts[js], margin, 16)
            if ok.any():
                seg = _segment_cost(omega, a, pts[js])
                good = ok & (seg <= (cum[js] - cum[i]) * (1 + 1e-12))
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
    if total == 0 or pts.size < 2:
        return pts
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


def _sweep_level(omega: MetricDensity, pts: np.ndarray, step0: float,
                 margin: float, budget) -> np.ndarray:
    """Red-black pattern-search sweeps at one vertex spacing, with the probe
    step shrinking geometrically from step0; a sweep counts as an
    improvement when it cuts the path cost by more than 1e-8 relative."""
    domain = omega.domain
    dirs = np.array([1, -1, 1j, -1j,
                     (1 + 1j) / math.sqrt(2), (1 - 1j) / math.sqrt(2),
                     (-1 + 1j) / math.sqrt(2), (-1 - 1j) / math.sqrt(2)])
    check_segments = not _convex_kind(domain)
    step = step0
    total = _path_cost(omega, pts)
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
                ok = contains(domain, cand.ravel())
                if margin > 0:
                    ok &= curve_distance(domain, cand.ravel()) >= margin
                ok = ok.reshape(cand.shape)
                if check_segments:
                    ok &= _segment_inside(domain, prev_pts[:, None], cand, 0.0, 16)
                    ok &= _segment_inside(domain, cand, next_pts[:, None], 0.0, 16)
                cost = (_segment_cost(omega, prev_pts[:, None], cand)
                        + _segment_cost(omega, cand, next_pts[:, None]))
                cost = np.where(ok, cost, np.inf)
                best = np.argmin(cost, axis=1)
                pts[idx] = cand[np.arange(idx.size), best]
            total = _path_cost(omega, pts)
            if before - total > 1e-8 * max(total, 1e-300):
                improved_level = True
            else:
                break
        if not improved_level:
            step /= 2
    return pts


def _refine(omega: MetricDensity, pts: np.ndarray, resolution: float,
            margin: float, max_sweeps: int | None = None) -> np.ndarray:
    """Multiscale polyline relaxation: the global shape is settled on a
    coarsened polyline first (few vertices relax in few sweeps), then the
    spacing is halved down to the grid scale.  This keeps convergence
    independent of the vertex count, so finer resolutions strictly tighten
    the result."""
    L = float(np.sum(np.abs(np.diff(pts))))
    if L == 0:
        return pts
    budget = None if max_sweeps is None else [max_sweeps]
    target = 2.0 * resolution
    deltas = [L / 8.0]
    while deltas[-1] > target * 2:
        deltas.append(deltas[-1] / 2)
    deltas.append(target)
    check_segments = not _convex_kind(omega.domain)
    for delta in deltas:
        if delta >= L:
            continue
        cand = _resample(pts, delta)
        if check_segments and not np.all(
                _segment_inside(omega.domain, cand[:-1], cand[1:], 0.0, 16)):
            cand = pts   # coarsening would leave the domain; keep the mesh
        pts = _sweep_level(omega, cand, delta / 2.0, margin, budget)
        if budget is not None and budget[0] <= 0:
            break
    return pts


def weighted_distance(omega: MetricDensity, z: complex, w: complex,
                      resolution: float, max_sweeps: int | None = None,
                      full_window: bool = False) -> GeodesicResult:
    """Weighted geodesic distance via grid search plus local refinement.

    The returned distance is the adaptive-quadrature length of the returned
    path, hence always an upper bound on the true infimum; halving the
    resolution tightens it.  Endpoints within one resolution step of the
    boundary yield :class:`DivergentDistanceError` for blow-up densities.
    ``full_window`` builds the graph over the whole domain (amortized across
    many queries on the same density) instead of a window around the pair.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    z = complex(z)
    w = complex(w)
    _endpoint_admissible(omega, z, resolution)
    _endpoint_admissible(omega, w, resolution)
    if z == w:
        return GeodesicResult(0.0, PolylinePath(omega.domain, np.array([z])),
                              resolution, 0.0)

    swapped = (w.real, w.imag) < (z.real, z.imag)
    a, b = (w, z) if swapped else (z, w)

    pts, graph_cost = _graph_path(omega, a, b, resolution, full_window)
    endpoint_dist = min(float(curve_distance(omega.domain, a)),
                        float(curve_distance(omega.domain, b)))
    if omega.blows_up:
        margin = min(resolution, 0.999 * endpoint_dist)
    else:
        # small clearance keeps refined paths off corners of the open domain
        margin = min(resolution / 8.0, 0.5 * endpoint_dist)
    pts = _shortcut(omega, pts, margin)
    pts = _refine(omega, pts, resolution, margin, max_sweeps=max_sweeps)
    if swapped:
        pts = pts[::-1].copy()
    path = PolylinePath(omega.domain, pts)
    distance = path_length(omega, path)
    gain = (graph_cost - distance) / graph_cost if graph_cost > 0 else 0.0
    return GeodesicResult(distance, path, resolution, gain)


# ---------------------------------------------------------------------------
# distance evaluators injected into the growth-analysis layer


def scaled_euclidean_evaluator(c: float):
    """Weighted distance for a constant density on a convex domain."""

    def d(u, v):
        return c * np.abs(np.asarray(u, dtype=complex) - np.asarray(v, dtype=complex))

    return d


def geodesic_evaluator(omega: MetricDensity, resolution: float,
                       max_sweeps: int | None = 40):
    """Distance evaluator backed by the geodesic solver (slow; loops pairs).

    Divergent pairs evaluate to +inf so that modulus computations can report
    them instead of crashing.
    """

    def d(u, v):
        uu = np.asarray(u, dtype=complex).ravel()
        vv = np.asarray(v, dtype=complex).ravel()
        out = np.empty(uu.shape, dtype=float)
        for k in range(uu.size):
            try:
                out[k] = weighted_distance(omega, uu[k], vv[k], resolution,
                                           max_sweeps=max_sweeps).distance
            except DivergentDistanceError:
                out[k] = np.inf
        shape = np.asarray(u).shape
        return out.reshape(shape) if shape else float(out[0])

    return d


def write_path_file(path: PolylinePath, file_path) -> None:
    """Two-column (x, y) text export of a geodesic certificate path."""
    with open(file_path, "w") as fh:
        for v in path.vertices:
            fh.write(f"{float(v.real):.17g} {float(v.imag):.17g}\n")
