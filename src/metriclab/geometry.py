"""Bounded plane domains: membership, boundary parametrization, boundary
distance, and the quadrature grid over which all area integrals are computed.

Two boundary families:

* ``ellipse(a, b)``    -- open ellipse with semi-axes a >= b > 0; the open
                          unit disc ``unit_disc()`` is ellipse(1, 1)
* ``polygon``          -- open simple polygon, counterclockwise, with sharp
                          corners (``polygon(vertices)``) or each corner
                          replaced by the tangent circular arc of radius r
                          (``smoothed_polygon(vertices, r)``: a cheap,
                          explicitly constructed smooth Jordan domain)

All point-wise operations accept either a complex scalar or a complex
ndarray and are vectorized over the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError

ELLIPSE = "ellipse"
POLYGON = "polygon"

# rows per block of the ellipse distance's parameter scan, whose two reused
# (rows, 97) buffers are 0.8 MB each.  200,000 points on the 1.5 x 1
# ellipse took a median of 0.264, 0.267, 0.276, 0.290 and 0.297 CPU s in
# blocks of 256, 512, 1,024, 2,048 and 8,192 rows (one core of a Xeon)
_SCAN_CHUNK = 1024
# Shewchuk's relative error bound of the floating-point 2x2 orientation
# determinant: beyond it the computed sign is exact
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
# halvings of a boundary cell of the quadrature grid before it becomes a
# clipped leaf.  Degree-72 fits of the 1.5 x 1 ellipse at h = 0.01 against
# the exact degree-72 kernel (perfbench/oracle.py, 2,000 points at boundary
# distance d >= 0.1 from seeds 1-10, then 11-20), largest relative errors:
#   depth 3: 226,809 nodes; K 5.5e-6, 5.2e-6; rho 8.4e-6, 7.5e-6;
#            at d >= 0.4 K 8.3e-7, rho 4.3e-7
#   depth 4: 271,617 nodes; K 2.1e-6, 1.9e-6; rho 5.4e-6, 5.5e-6;
#            at d >= 0.4 K 2.1e-7, rho 1.1e-7
#   depth 5: 360,105 nodes; K 1.5e-6, 1.6e-6; rho 5.1e-6, 5.2e-6;
#            at d >= 0.4 K 5.2e-8, rho 3.4e-8
# 4 is the smallest depth no worse in any band than 7 halvings with a
# full-weight midpoint node per leaf whose center is inside (834,380 nodes;
# K 2.0e-5, rho 7.3e-6, 6.6e-6; at d >= 0.4 K 1.4e-6, rho 6.9e-7)
_BAND_DEPTH = 4


@dataclass
class _Corner:
    """Rounded corner of a smoothed polygon: arc of radius r tangent to the
    two incident edges.  ``turn`` is the signed exterior turning angle;
    positive = convex corner, negative = reflex corner."""

    vertex: complex
    center: complex
    radius: float
    t_in: complex        # tangent point on the incoming edge
    t_out: complex       # tangent point on the outgoing edge
    turn: float
    ang_in: float        # angle of t_in as seen from center


@dataclass
class DomainSpec:
    """A bounded plane domain with an explicitly parametrized boundary: an
    ellipse, or a polygon whose corners are rounded if ``corner_radius`` is set."""

    kind: str
    semi_axes: tuple[float, float] | None = None
    vertices: tuple[complex, ...] | None = None
    corner_radius: float | None = None

    bounding_box: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self):
        if self.kind == ELLIPSE:
            a, b = self.semi_axes
            if not (a >= b > 0):
                raise ValueError("ellipse requires semi-axes a >= b > 0")
            self.bounding_box = (-a, a, -b, b)
            return
        if self.kind != POLYGON:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        v = np.asarray(self.vertices, dtype=complex)
        if v.size < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if np.min(np.abs(np.roll(v, -1) - v)) < 1e-12:
            raise ValueError("polygon has a zero-length edge")
        if _shoelace(v) <= 0:
            raise ValueError("polygon vertices must be counterclockwise")
        if not _is_simple(v):
            raise ValueError("polygon must be simple (non-self-intersecting)")
        self.bounding_box = (
            float(v.real.min()), float(v.real.max()),
            float(v.imag.min()), float(v.imag.max()),
        )
        r = self.corner_radius
        if r is not None and not r > 0:
            raise ValueError("smoothed_polygon needs corner_radius > 0")
        self._corners = [] if r is None else _build_corners(v, r)
        self._pieces = _boundary_pieces(self)
        self._cumlen = _cumulative_lengths(self._pieces)

    # -- derived geometry -------------------------------------------------

    @property
    def center(self) -> complex:
        xmin, xmax, ymin, ymax = self.bounding_box
        return complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax))

    @property
    def half_diagonal(self) -> float:
        xmin, xmax, ymin, ymax = self.bounding_box
        return math.hypot(0.5 * (xmax - xmin), 0.5 * (ymax - ymin))

    def area(self) -> float:
        """Exact area, used as the oracle for grid refinement studies."""
        if self.kind == ELLIPSE:
            a, b = self.semi_axes
            return math.pi * a * b
        corr = 0.0
        for c in self._corners:
            t = abs(c.turn)
            corr += math.copysign(c.radius * c.radius * (math.tan(t / 2) - t / 2), c.turn)
        return _shoelace(np.asarray(self.vertices, dtype=complex)) - corr

    def grid_key(self) -> str:
        """Stable descriptor of the domain: its fitted kernels' cache key, a
        kernel file's ``domain`` line and the end of its ``grid`` line."""
        if self.kind == ELLIPSE:
            a, b = self.semi_axes
            return f"ellipse:{a!r}:{b!r}"
        vs = ",".join(f"{z.real!r}:{z.imag!r}" for z in self.vertices)
        if self.corner_radius is None:
            return f"polygon:{vs}"
        return f"smoothed_polygon:{self.corner_radius!r}:{vs}"


def unit_disc() -> DomainSpec:
    return ellipse(1.0, 1.0)


def ellipse(a: float, b: float) -> DomainSpec:
    return DomainSpec(ELLIPSE, semi_axes=(float(a), float(b)))


def polygon(vertices) -> DomainSpec:
    return DomainSpec(POLYGON, vertices=tuple(complex(z) for z in vertices))


def smoothed_polygon(vertices, corner_radius: float) -> DomainSpec:
    return DomainSpec(
        POLYGON,
        vertices=tuple(complex(z) for z in vertices),
        corner_radius=float(corner_radius),
    )


# ---------------------------------------------------------------------------
# polygon helpers


def _shoelace(v: np.ndarray) -> float:
    w = np.roll(v, -1)
    return float(0.5 * np.sum(v.real * w.imag - v.imag * w.real))


def _scaled_int(x) -> int:
    """x * 2**1074, exact: every finite double is an integer multiple of 2**-1074."""
    num, den = float(x).as_integer_ratio()
    return num << (1075 - den.bit_length())


def _orient_sign(p, q, r) -> np.ndarray:
    """Exact sign of det[q - p, r - p] (1: r left of p->q, -1: right, 0:
    collinear) for 1-d point arrays, broadcast.  Signs the floating-point
    determinant cannot certify are recomputed in exact integer arithmetic."""
    p, q, r = np.broadcast_arrays(p, q, r)
    left = (q.real - p.real) * (r.imag - p.imag)
    right = (q.imag - p.imag) * (r.real - p.real)
    det = left - right
    sign = np.sign(det)
    for k in np.flatnonzero(np.abs(det) <= _ORIENT_ERRBOUND * (np.abs(left) + np.abs(right))):
        (px, py), (qx, qy), (rx, ry) = (
            (_scaled_int(z.real), _scaled_int(z.imag)) for z in (p[k], q[k], r[k])
        )
        exact = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        sign[k] = (exact > 0) - (exact < 0)
    return sign


def _closed_segments_meet(a: np.ndarray, b: np.ndarray, c: complex, d: complex) -> np.ndarray:
    """Exact test whether the closed segments [a, b] (1-d arrays) meet the
    closed segment [c, d]; touching counts as meeting."""
    s1, s2 = _orient_sign(a, b, c), _orient_sign(a, b, d)
    hit = (s1 * s2 <= 0) & (_orient_sign(c, d, a) * _orient_sign(c, d, b) <= 0)
    # collinear: the sign test holds for the whole line, so the closed
    # segments must also overlap along it
    collinear = (s1 == 0) & (s2 == 0)
    return hit & (~collinear | (
        (np.maximum(a.real, b.real) >= min(c.real, d.real))
        & (np.minimum(a.real, b.real) <= max(c.real, d.real))
        & (np.maximum(a.imag, b.imag) >= min(c.imag, d.imag))
        & (np.minimum(a.imag, b.imag) <= max(c.imag, d.imag))
    ))


def segments_meet_boundary(domain: DomainSpec, a, b) -> np.ndarray:
    """Exact test whether the closed segments [a, b] meet a closed edge of a
    polygon with sharp corners; touching a vertex counts as meeting."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    meet = np.zeros(a.shape, dtype=bool)
    v = np.array(domain.vertices)
    for c, d in zip(v, np.roll(v, -1)):
        meet |= _closed_segments_meet(a, b, c, d)
    return meet.reshape(shape)


def _is_simple(v: np.ndarray) -> bool:
    """Edges that are not adjacent never meet, and adjacent edges share only
    their common vertex (no fold back along a line); both tested exactly."""
    n = len(v)
    w = np.roll(v, -1)
    p = np.roll(v, 1)
    # the sign of a floating-point difference is exact
    back, ahead = v - p, w - v
    fold = (_orient_sign(p, v, w) == 0) & (
        (np.sign(back.real) * np.sign(ahead.real) < 0)
        | (np.sign(back.imag) * np.sign(ahead.imag) < 0))
    if fold.any():
        return False
    for i in range(n - 2):
        j = np.arange(i + 2, n - 1 if i == 0 else n)
        if _closed_segments_meet(v[j], w[j], v[i], w[i]).any():
            return False
    return True


def _build_corners(v: np.ndarray, r: float) -> list[_Corner]:
    n = len(v)
    corners = []
    offsets = np.zeros(n)
    for i in range(n):
        prev_v, V, next_v = v[i - 1], v[i], v[(i + 1) % n]
        u = (V - prev_v) / abs(V - prev_v)
        w = (next_v - V) / abs(next_v - V)
        cross = u.real * w.imag - u.imag * w.real
        dot = u.real * w.real + u.imag * w.imag
        turn = math.atan2(cross, dot)
        if abs(turn) < 1e-12:
            corners.append(None)
            continue
        d = r * math.tan(abs(turn) / 2)
        offsets[i] = d
        m = (w - u) / abs(w - u)
        center = V + m * (r / math.cos(turn / 2))
        t_in = V - u * d
        t_out = V + w * d
        corners.append(_Corner(
            vertex=V, center=center, radius=r, t_in=t_in, t_out=t_out,
            turn=turn, ang_in=math.atan2((t_in - center).imag, (t_in - center).real),
        ))
    for i in range(n):
        edge_len = abs(v[(i + 1) % n] - v[i])
        if offsets[i] + offsets[(i + 1) % n] > edge_len * (1 - 1e-9):
            raise ValueError(
                f"corner_radius {r} too large: rounded corners overlap on edge {i}"
            )
    return [c for c in corners if c is not None]


# ---------------------------------------------------------------------------
# boundary representation: list of pieces, each ("seg", p0, p1) or
# ("arc", center, radius, ang0, sweep); traversed once counterclockwise


def _boundary_pieces(dom: DomainSpec):
    v = np.asarray(dom.vertices, dtype=complex)
    n = len(v)
    by_vertex = {c.vertex: c for c in dom._corners}
    points = []       # (exit point of corner i, entry point of corner i+1) per edge
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        ca, cb = by_vertex.get(a), by_vertex.get(b)
        points.append((ca.t_out if ca else a, cb.t_in if cb else b))
    pieces = []
    for i in range(n):
        p0, p1 = points[i]
        if abs(p1 - p0) > 1e-15:
            pieces.append(("seg", p0, p1))
        cb = by_vertex.get(v[(i + 1) % n])
        if cb is not None:
            pieces.append(("arc", cb.center, cb.radius, cb.ang_in, cb.turn))
    return pieces


def _piece_length(piece) -> float:
    if piece[0] == "seg":
        return abs(piece[2] - piece[1])
    return piece[2] * abs(piece[4])


def _cumulative_lengths(pieces) -> np.ndarray:
    lens = np.array([_piece_length(p) for p in pieces])
    return np.concatenate([[0.0], np.cumsum(lens)])


# ---------------------------------------------------------------------------
# membership


def contains(domain: DomainSpec, z) -> bool | np.ndarray:
    """True iff z lies in the open domain; boundary points are outside."""
    zz = np.asarray(z, dtype=complex)
    arr = zz.ravel()
    if domain.kind == ELLIPSE:
        a, b = domain.semi_axes
        # a circle tests |z| < a, which keeps 1 - |z|^2 positive inside the
        # unit disc; x^2 + y^2 < 1 holds at boundary points where it is 0
        res = (np.abs(arr) < a if a == b
               else (arr.real / a) ** 2 + (arr.imag / b) ** 2 < 1.0)
    else:
        res = _polygon_contains(np.asarray(domain.vertices, dtype=complex), arr)
        for c in domain._corners:
            # the closed corner triangle: on its polygon edges the
            # circle decides, not the polygon test's half-open rule
            in_tri = _in_triangle(c.t_in, c.vertex, c.t_out, arr)
            if not in_tri.any():
                continue
            r = np.abs(arr - c.center)
            res = np.where(in_tri, r < c.radius if c.turn > 0 else r > c.radius, res)
    return bool(res[0]) if zz.ndim == 0 else res.reshape(zz.shape)


def _polygon_contains(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    x, y = z.real, z.imag
    inside = np.zeros(z.shape, dtype=bool)
    n = len(v)
    for i in range(n):
        x1, y1 = v[i].real, v[i].imag
        x2, y2 = v[(i + 1) % n].real, v[(i + 1) % n].imag
        cond = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (x < xint)
    return inside


def _in_triangle(a, b, c, z: np.ndarray) -> np.ndarray:
    def cross(p, q, r):
        return (q - p).real * (r - p).imag - (q - p).imag * (r - p).real

    s1 = cross(a, b, z)
    s2 = cross(b, c, z)
    s3 = cross(c, a, z)
    return ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0))


# ---------------------------------------------------------------------------
# boundary distance


def boundary_distance(domain: DomainSpec, z: complex) -> float:
    """Distance from an interior point to the boundary curve."""
    if not contains(domain, z):
        raise DomainError(f"{z} is not inside the domain")
    return float(curve_distance(domain, z))


def curve_distance(domain: DomainSpec, z) -> float | np.ndarray:
    """Unsigned distance to the boundary curve, defined for any point.

    Internal workhorse behind :func:`boundary_distance`; also used for grid
    construction and divergence checks where points may sit outside.
    """
    zz = np.asarray(z, dtype=complex)
    arr = zz.ravel()
    if domain.kind == ELLIPSE:
        res = _ellipse_boundary_dist(*domain.semi_axes, arr)
    else:
        res = None
        for piece in domain._pieces:
            d = _piece_distance(piece, arr)
            res = d if res is None else np.minimum(res, d)
    return float(res[0]) if zz.ndim == 0 else res.reshape(zz.shape)


def _piece_distance(piece, z: np.ndarray) -> np.ndarray:
    if piece[0] == "seg":
        _, p0, p1 = piece
        d = p1 - p0
        t = np.clip(((z - p0) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
        return np.abs(z - (p0 + t * d))
    _, c, r, ang0, sweep = piece
    w = z - c
    ang = np.angle(w)
    rel = (ang - ang0) % (2 * np.pi)
    if sweep >= 0:
        on_arc = rel <= sweep
    else:
        on_arc = (rel - 2 * np.pi) >= sweep
    d_arc = np.abs(np.abs(w) - r)
    e0 = c + r * np.exp(1j * ang0)
    e1 = c + r * np.exp(1j * (ang0 + sweep))
    d_end = np.minimum(np.abs(z - e0), np.abs(z - e1))
    return np.where(on_arc, d_arc, d_end)


def _ellipse_boundary_dist(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Distance to the ellipse via the footpoint equation.

    The query is reduced to the first quadrant; the squared distance is
    scanned on a parameter grid (in row chunks formed in place in two reused
    buffers, so memory stays bounded per point) and
    the best bracket is polished with a safeguarded Newton iteration
    (bisection fallback), which stays robust near the major axis where the
    footpoint equation degenerates.  Each point stops on its own once its
    step or its bracket falls to 1e-15, so its result does not depend on
    the batch it is evaluated in.
    """
    if a == b:
        return np.abs(np.abs(z) - a)
    x, y = np.abs(z.real), np.abs(z.imag)
    ts = np.linspace(0.0, np.pi / 2, 97)
    gx, gy = a * np.cos(ts), b * np.sin(ts)
    k = np.empty(x.size, dtype=np.intp)
    # |g(t) - z|^2 = dx^2 + dy^2
    buf_x = np.empty((min(x.size, _SCAN_CHUNK), ts.size))
    buf_y = np.empty_like(buf_x)
    for start in range(0, x.size, _SCAN_CHUNK):
        sl = slice(start, start + _SCAN_CHUNK)
        dx, dy = buf_x[:x[sl].size], buf_y[:x[sl].size]
        np.subtract(gx, x[sl, None], out=dx)
        np.multiply(dx, dx, out=dx)
        np.subtract(gy, y[sl, None], out=dy)
        np.multiply(dy, dy, out=dy)
        k[sl] = np.argmin(np.add(dx, dy, out=dx), axis=1)
    lo = ts[np.maximum(k - 1, 0)]
    hi = ts[np.minimum(k + 1, len(ts) - 1)]
    t = ts[k]
    # D(t) = d/dt |g(t)-z|^2 / 2;  root gives the footpoint
    act = np.arange(x.size)
    for _ in range(60):
        if act.size == 0:
            break
        ta, la, ha, xa, ya = t[act], lo[act], hi[act], x[act], y[act]
        s, c = np.sin(ta), np.cos(ta)
        D = (b * b - a * a) * s * c + a * xa * s - b * ya * c
        Dp = (b * b - a * a) * (c * c - s * s) + a * xa * c + b * ya * s
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = ta - D / Dp
        bad = ~np.isfinite(tn) | (tn < la) | (tn > ha)
        tn = np.where(bad, 0.5 * (la + ha), tn)
        s, c = np.sin(tn), np.cos(tn)
        Dn = (b * b - a * a) * s * c + a * xa * s - b * ya * c
        la = np.where(Dn < 0, tn, la)
        ha = np.where(Dn < 0, ha, tn)
        t[act], lo[act], hi[act] = tn, la, ha
        act = act[(np.abs(tn - ta) > 1e-15) & (ha - la >= 1e-15)]
    cand = np.stack([
        np.hypot(a * np.cos(t) - x, b * np.sin(t) - y),
        np.hypot(a - x, y),          # t = 0
        np.hypot(x, b - y),          # t = pi/2
    ])
    return cand.min(axis=0)


def _clear_by_bound(domain: DomainSpec, z: np.ndarray, threshold: float) -> np.ndarray:
    """Points of z whose distance to the boundary curve a closed-form lower
    bound shows to exceed ``threshold``, with no footpoint iteration; all
    False on a polygon.

    On an ellipse a point with s = sqrt((x/a)^2 + (y/b)^2) lies on the
    boundary of sE.  E is convex and holds the disc of radius b, so
    sE + (1 - s) b Disc lies in E for s < 1 and E + (s - 1) b Disc in sE
    for s > 1: the distance is at least |1 - s| b, inside and outside.  The
    bound decides where it clears the threshold by 1e-12.
    """
    if domain.kind != ELLIPSE:
        return np.zeros(z.shape, dtype=bool)
    a, b = domain.semi_axes
    s = np.sqrt((z.real / a) ** 2 + (z.imag / b) ** 2)
    return np.abs(1.0 - s) * b >= threshold + 1e-12


def clear_of_boundary(domain: DomainSpec, z, margin: float) -> bool | np.ndarray:
    """``contains(domain, z) & (curve_distance(domain, z) >= margin)``,
    elementwise: inside the open domain and, for margin > 0, at least
    ``margin`` from the boundary; with margin <= 0 it is :func:`contains`.

    Only inside points are tested for clearance, and points that the
    ellipse's distance bound already clears skip the footpoint iteration of
    :func:`curve_distance`.
    """
    zz = np.asarray(z, dtype=complex)
    arr = zz.ravel()
    ok = contains(domain, arr)
    if margin > 0:
        rest = np.flatnonzero(ok)
        rest = rest[~_clear_by_bound(domain, arr[rest], margin)]
        if rest.size:
            ok[rest] = curve_distance(domain, arr[rest]) >= margin
    return bool(ok[0]) if zz.ndim == 0 else ok.reshape(zz.shape)


# ---------------------------------------------------------------------------
# boundary parametrization


def boundary_point(domain: DomainSpec, t) -> complex | np.ndarray:
    """Boundary parametrization gamma(t), 2*pi-periodic, counterclockwise."""
    tt = np.atleast_1d(np.asarray(t, dtype=float)) % (2 * np.pi)
    if domain.kind == ELLIPSE:
        a, b = domain.semi_axes
        res = a * np.cos(tt) + 1j * b * np.sin(tt)
    else:
        # proportional to arc length along the pieces
        cum = domain._cumlen
        s = tt / (2 * np.pi) * cum[-1]
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(cum) - 2)
        res = np.empty(tt.shape, dtype=complex)
        for i, piece in enumerate(domain._pieces):
            sel = idx == i
            u = (s[sel] - cum[i]) / (cum[i + 1] - cum[i])
            if piece[0] == "seg":
                res[sel] = piece[1] + u * (piece[2] - piece[1])
            else:
                _, c, r, ang0, sweep = piece
                res[sel] = c + r * np.exp(1j * (ang0 + u * sweep))
    return complex(res[0]) if np.asarray(t).ndim == 0 else res


def capacity_radius(domain: DomainSpec) -> float:
    """Geometric-mean radius of the boundary around the bounding-box center.

    Equals the logarithmic capacity for ellipses ((a+b)/2, 1 on the unit
    disc) and approximates it for polygons.  Monomial bases scaled by this
    radius keep the Gram matrix's smallest eigenvalue polynomially small in
    the degree instead of exponentially small, which is what makes
    high-degree kernel fits on eccentric domains factorizable at all.
    """
    if domain.kind == ELLIPSE:
        a, b = domain.semi_axes
        return 0.5 * (a + b)
    t = 2 * np.pi * (np.arange(4096) + 0.5) / 4096
    g = boundary_point(domain, t)
    return float(np.exp(np.mean(np.log(np.abs(g - domain.center)))))


def interior_anchor(domain: DomainSpec) -> complex:
    """A deterministic interior reference point: of the bounding-box center
    and the lattice cell centers, the inside one farthest from the
    boundary, the center on a tie; the lattice is refined until a point
    lies inside.  The center alone can sit in a reflex corner's fillet.
    An ellipse's center is its unique deepest point, so it is returned
    without pricing the lattice."""
    if domain.kind == ELLIPSE:
        return domain.center
    h = domain.half_diagonal / 16
    for _ in range(6):
        # the center first, so that argmax keeps it on a tie
        points = np.concatenate([[domain.center], _lattice(domain, h)])
        inside = points[contains(domain, points)]
        if inside.size:
            return complex(inside[np.argmax(curve_distance(domain, inside))])
        h /= 2
    raise GridError("could not locate an interior anchor point")


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass
class QuadratureGrid:
    """Nodes and positive weights discretizing the area measure of a domain."""

    nodes: np.ndarray       # complex, strictly inside the domain
    weights: np.ndarray     # positive, units length^2
    resolution: float
    descriptor: str = ""

    def total_weight(self) -> float:
        return float(self.weights.sum())


def _lattice(domain: DomainSpec, h: float):
    xmin, xmax, ymin, ymax = domain.bounding_box
    nx = max(1, math.ceil((xmax - xmin) / h))
    ny = max(1, math.ceil((ymax - ymin) / h))
    xs = xmin + (np.arange(nx) + 0.5) * h
    ys = ymin + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys)
    return (X + 1j * Y).ravel()


def _band_distance(domain: DomainSpec, z: np.ndarray, threshold: float) -> np.ndarray:
    """curve_distance(domain, z), or inf where the distance bound alone
    shows it to exceed ``threshold``: all a band test needs to know."""
    dist = np.full(z.shape, np.inf)
    near = ~_clear_by_bound(domain, z, threshold)
    dist[near] = curve_distance(domain, z[near])
    return dist


def _clipped_cells(corners: np.ndarray, values: np.ndarray):
    """Area and centroid of each square cell clipped to where ``values``,
    taken at its four counterclockwise ``corners`` (rows of L x 4 arrays)
    and interpolated linearly along its edges, is at least 0.

    The clipped polygon keeps each corner with a value >= 0 and adds the
    zero crossing of each edge whose end values have strictly opposite
    signs.  Its vertices sit in 8 slots, corner k then edge k's crossing;
    an empty slot repeats the last filled one, a zero-length edge that adds
    nothing to the shoelace sums.  The sums are taken about the polygon's
    first vertex, so a sliver at a corner keeps its few digits.  A cell
    with no filled slot has area NaN.
    """
    fa, fb = values, np.roll(values, -1, axis=1)
    a, b = corners, np.roll(corners, -1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        verts = np.stack([a, a + fa / (fa - fb) * (b - a)], axis=2).reshape(-1, 8)
        filled = np.stack([fa >= 0, fa * fb < 0], axis=2).reshape(-1, 8)
        slot = np.maximum.accumulate(np.where(filled, np.arange(8), -1), axis=1)
        slot = np.where(slot < 0, slot[:, -1:], slot)
        p = np.take_along_axis(verts, slot, axis=1)
        origin = p[:, 0].copy()
        p -= origin[:, None]
        q = np.roll(p, -1, axis=1)
        cross = p.real * q.imag - q.real * p.imag
        area = 0.5 * cross.sum(axis=1)
        centroid = ((p + q) * cross).sum(axis=1) / (6 * area)
    return area, origin + centroid


def _clipped_leaves(domain: DomainSpec, active: np.ndarray, parent_value: np.ndarray,
                    quadrant: np.ndarray, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the band's leaves: the cells of side ``side``
    centered at ``active`` that still straddle the boundary, each the
    ``quadrant`` of a parent whose center has signed boundary distance
    ``parent_value``.  A leaf takes one node at the centroid of its clipped
    polygon, weighted by its area, where that area is positive and the
    centroid inside; leaves are clipped in blocks of 4,096, whose
    temporaries take about 1 KB a leaf."""
    # leaf corners on the lattice of spacing ``side``, counterclockwise
    # (i, j), (i+1, j), (i+1, j+1), (i, j+1); each lattice point once
    xmin, _, ymin, _ = domain.bounding_box
    i = np.rint((active.real - xmin) / side - 0.5).astype(np.int64)
    j = np.rint((active.imag - ymin) / side - 0.5).astype(np.int64)
    ci = i[:, None] + np.array([0, 1, 1, 0])
    cj = j[:, None] + np.array([0, 0, 1, 1])
    rows = int(j.max()) + 2
    keys, inverse = np.unique(ci * rows + cj, return_inverse=True)
    inverse = inverse.reshape(ci.shape)
    corner = np.full(keys.size, np.nan)
    # the parent's center is the leaf corner opposite its quadrant
    corner[inverse[np.arange(active.size), np.array([2, 3, 1, 0])[quadrant]]] = parent_value
    rest = np.flatnonzero(np.isnan(corner))
    z = (xmin + keys[rest] // rows * side) + 1j * (ymin + keys[rest] % rows * side)
    d = _band_distance(domain, z, side)
    corner[rest] = np.where(contains(domain, z), d, -d)
    # a corner's coordinates round by eps |z|, and curve_distance adds a
    # few eps |z| (at most 2.1 eps at 200,000 boundary points of each
    # test domain, boundary_point's rounding included).  So a corner
    # within 16 eps R of the boundary, R the bounding box's largest
    # coordinate modulus, is on it: it reads 0, a vertex that adds no
    # crossing, and a leaf it alone holds has area 0 and no node, not
    # a sliver of area 1e-32 outside the domain
    corner[np.abs(corner) <= 16 * np.finfo(float).eps * max(map(abs, domain.bounding_box))] = 0.0
    nodes, weights = [], []
    for start in range(0, active.size, 4096):
        sl = slice(start, start + 4096)
        area, centroid = _clipped_cells(
            (xmin + ci[sl] * side) + 1j * (ymin + cj[sl] * side), corner[inverse[sl]])
        keep = area > 0
        keep[keep] = contains(domain, centroid[keep])
        nodes.append(centroid[keep])
        weights.append(area[keep])
    return np.concatenate(nodes), np.concatenate(weights)


def gauss_quadrature_grid(domain: DomainSpec, resolution: float) -> QuadratureGrid:
    """Kernel-grade grid: tensor 2x2 Gauss nodes on the cells of side
    ``resolution`` that lie inside, plus a boundary band refined
    _BAND_DEPTH times, whose last cells are clipped to the domain.

    The Gauss rule removes the O(h^2) interior error of a midpoint rule.  A
    band cell halves while it straddles the boundary; its quarters that lie
    inside take 2x2 Gauss nodes, and a quarter that still straddles after
    _BAND_DEPTH halvings is a leaf.  A leaf is clipped where the signed
    boundary distance at its four corners (>= 0 on the closed domain),
    interpolated linearly along its edges, changes sign, and takes one node
    at the clipped polygon's centroid weighted by its area: a rule exact
    for linear functions on the clipped polygon.  A leaf whose centroid
    falls outside the domain takes no node: a sliver at a lattice point on
    the boundary, or the notch at a sharp reflex vertex on the lattice,
    whose leaf lies outside.

    The nodes come in this order: the inside lattice cells' Gauss nodes,
    then each band level's, coarsest first, then the leaves' (each cell's
    four Gauss nodes together).  The band levels and the clipped leaves are
    built first, beside the lattice arrays only; ``nodes`` and ``weights``
    are then allocated once and filled in that order, so the build holds
    little more than the grid it returns.

    The domain is seen only through ``contains`` and ``curve_distance``
    (and the ellipse's distance bound), so every domain gets the same rule.
    A corner distance is computed once per lattice point that neighbouring
    leaves share, the leaf's parent center reuses its band test's
    distance, and a corner the ellipse bound puts one leaf side from the
    boundary keeps only its sign, because no edge through it changes sign.
    Raises :class:`GridError` when no node falls inside the domain.
    """
    h = float(resolution)
    if h <= 0:
        raise ValueError("resolution must be positive")
    g = 0.5 / math.sqrt(3.0)
    quarters = np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j])
    centers = _lattice(domain, h)
    dist = _band_distance(domain, centers, h * 0.7072)
    inside = contains(domain, centers)
    fully_inside = inside & (dist > h * 0.7072)
    # (cells, side) of each level's Gauss cells
    gauss = [(centers[fully_inside], h)]

    # signed boundary distance, >= 0 on the closed domain: a boundary
    # point's -0.0 counts as inside
    band = ~fully_inside & (dist <= h * 0.7072)
    active, value = centers[band], np.where(inside, dist, -dist)[band]
    side = h
    for _ in range(_BAND_DEPTH):
        if active.size == 0:
            break
        sub = (active[:, None] + quarters[None, :] * (side / 4)).ravel()
        side /= 2
        d = _band_distance(domain, sub, side * 0.7072)
        ins = contains(domain, sub)
        full = ins & (d > side * 0.7072)
        gauss.append((sub[full], side))
        straddle = np.flatnonzero(~full & (d <= side * 0.7072))
        parent_value, quadrant = value[straddle // 4], straddle % 4
        active, value = sub[straddle], np.where(ins, d, -d)[straddle]
    leaf_nodes = leaf_weights = np.empty(0)
    if active.size:
        leaf_nodes, leaf_weights = _clipped_leaves(domain, active, parent_value, quadrant, side)

    size = 4 * sum(cells.size for cells, _ in gauss) + leaf_nodes.size
    if size == 0:
        raise GridError("no quadrature node falls inside the domain; "
                        "resolution too coarse")
    nodes = np.empty(size, dtype=complex)
    weights = np.empty(size)
    at = 0
    for cells, cell_side in gauss:
        end = at + 4 * cells.size
        np.add(cells[:, None], quarters * (g * cell_side), out=nodes[at:end].reshape(-1, 4))
        weights[at:end] = cell_side * cell_side / 4
        at = end
    nodes[at:] = leaf_nodes
    weights[at:] = leaf_weights
    return QuadratureGrid(nodes, weights, h,
                          descriptor=f"gauss2x2+clip{_BAND_DEPTH}:{h!r}:{domain.grid_key()}")
