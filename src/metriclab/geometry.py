"""Bounded plane domains: membership, boundary parametrization, boundary
distance, and the boundary rule through which the kernel fit takes its area
inner products (Green's theorem turns them into contour integrals).

A domain is its boundary pieces, traversed once counterclockwise, and what
its family fixes once when it is built:

* ``ellipse(a, b)``    -- one ``_Ellipse``: the open ellipse with semi-axes
                          a >= b > 0; the open unit disc ``unit_disc()`` is
                          ellipse(1, 1)
* ``polygon``          -- an open simple polygon, counterclockwise: one
                          ``_Segment`` per edge (``polygon(vertices)``), or
                          each corner replaced by the tangent ``_Arc`` of
                          radius r (``smoothed_polygon(vertices, r)``: a
                          cheap, explicitly constructed smooth Jordan domain)

Each piece states once its point and derivative in its own parameter, which
runs over [0, span], its length, the distance to it and its Green's-theorem
area term (1/2) Im int conj(z) dz, and a polygon's pieces whether a chord
meets them; the operations below walk the pieces.
Boundary points are outside: a polygon counts ray crossings with an exact
orientation test, so a point on an edge is outside, in exact arithmetic.

All point-wise operations accept either a complex scalar or a complex
ndarray and are vectorized over the latter.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError, GridError

# Shewchuk's relative error bound of the floating-point 2x2 orientation
# determinant: beyond it the computed sign is exact
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


@dataclass
class _Segment:
    """The segment z(s) = p0 + s (p1 - p0), s in [0, 1]."""

    p0: complex
    p1: complex
    span = 1.0

    def point(self, s):
        return self.p0 + s * (self.p1 - self.p0)

    def derivative(self, s):
        return self.p1 - self.p0

    @property
    def length(self) -> float:
        return abs(self.p1 - self.p0)

    @property
    def area_term(self) -> float:
        return 0.5 * (np.conj(self.p0) * self.p1).imag

    @functools.cached_property
    def box(self) -> tuple[float, float, float, float]:
        return _box((self.p0, self.p1))

    def distance(self, z: np.ndarray) -> np.ndarray:
        d = self.p1 - self.p0
        return np.abs(z - self.point(np.clip(((z - self.p0) * np.conj(d)).real / abs(d) ** 2,
                                             0.0, 1.0)))

    def meets(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact test whether the closed chords [a, b] meet the segment."""
        return _closed_segments_meet(a, b, self.p0, self.p1)

    def settle(self, z: np.ndarray, inside: np.ndarray) -> None:
        """The polygon test has decided every point near a straight piece."""


@dataclass
class _Arc:
    """Rounded corner of a smoothed polygon: the arc of radius r tangent to
    the two edges at ``vertex``, z(s) = center + r e^{i(ang_in + s turn)},
    s in [0, 1], from t_in on the incoming edge to t_out on the outgoing
    one.  ``turn`` is the signed exterior turning angle; positive = convex
    corner, negative = reflex corner."""

    vertex: complex
    center: complex
    radius: float
    t_in: complex        # tangent point on the incoming edge
    t_out: complex       # tangent point on the outgoing edge
    turn: float
    ang_in: float        # angle of t_in as seen from center
    span = 1.0

    def point(self, s):
        return self.center + self.radius * np.exp(1j * (self.ang_in + s * self.turn))

    def derivative(self, s):
        return 1j * self.radius * np.exp(1j * (self.ang_in + s * self.turn)) * self.turn

    @property
    def length(self) -> float:
        return self.radius * abs(self.turn)

    @property
    def area_term(self) -> float:
        return 0.5 * (self.radius**2 * self.turn
                      + (np.conj(self.center) * (self.t_out - self.t_in)).imag)

    @functools.cached_property
    def box(self) -> tuple[float, float, float, float]:
        # the arc lies in its corner triangle
        return _box((self.t_in, self.vertex, self.t_out))

    def _on_arc(self, w: np.ndarray) -> np.ndarray:
        """Whether the angle of w, taken from the center, lies in the arc's."""
        rel = (np.angle(w) - self.ang_in) % (2 * np.pi)
        return rel <= self.turn if self.turn >= 0 else rel - 2 * np.pi >= self.turn

    def distance(self, z: np.ndarray) -> np.ndarray:
        w = z - self.center
        ends = np.minimum(np.abs(z - self.point(0.0)), np.abs(z - self.point(1.0)))
        return np.where(self._on_arc(w), np.abs(np.abs(w) - self.radius), ends)

    def meets(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether the closed chords [a, b] meet the arc: a root t in [0, 1]
        of |a + t (b - a) - center|^2 = r^2 whose point lies in the arc's
        angle range.  Touching counts; a zero-length chord meets nothing."""
        d, w = b - a, a - self.center
        qa = d.real**2 + d.imag**2
        qb = w.real * d.real + w.imag * d.imag
        disc = qb**2 - qa * (w.real**2 + w.imag**2 - self.radius**2)
        k = np.flatnonzero((qa > 0) & (disc >= 0))
        meet = np.zeros(a.shape, dtype=bool)
        root = np.sqrt(disc[k])
        for t in ((-qb[k] - root) / qa[k], (-qb[k] + root) / qa[k]):
            meet[k] |= (t >= 0) & (t <= 1) & self._on_arc(w[k] + t * d[k])
        return meet

    def settle(self, z: np.ndarray, inside: np.ndarray) -> None:
        """In the closed corner triangle (t_in, vertex, t_out), on its polygon
        edges too, the circle decides ``inside``, not the polygon test."""
        odd, on_edge = _crossings(np.array([self.t_in, self.vertex, self.t_out]), z)
        k = np.flatnonzero(odd | on_edge)
        r = np.abs(z[k] - self.center)
        inside[k] = r < self.radius if self.turn > 0 else r > self.radius


@dataclass
class _Ellipse:
    """The whole ellipse z(t) = a cos t + i b sin t, t in [0, 2 pi]."""

    a: float
    b: float
    span = 2 * math.pi

    def point(self, t):
        return self.a * np.cos(t) + 1j * self.b * np.sin(t)

    def derivative(self, t):
        return -self.a * np.sin(t) + 1j * self.b * np.cos(t)

    @functools.cached_property
    def length(self) -> float:
        # the perimeter by the trapezoid rule on 4,096 nodes: its error falls
        # geometrically, to rounding for b/a >= 0.01.  Summed on first use,
        # because the unit disc is built far more often than measured
        t = 2 * np.pi * np.arange(4096) / 4096
        return float(np.sum(np.hypot(self.a * np.sin(t), self.b * np.cos(t)))) * 2 * np.pi / 4096

    @property
    def area_term(self) -> float:
        return math.pi * self.a * self.b

    def inside(self, z: np.ndarray) -> np.ndarray:
        # a circle tests |z| < a, which keeps 1 - |z|^2 positive inside the
        # unit disc; x^2 + y^2 < 1 holds at boundary points where it is 0
        a, b = self.a, self.b
        return np.abs(z) < a if a == b else (z.real / a) ** 2 + (z.imag / b) ** 2 < 1.0

    def clears(self, z: np.ndarray, threshold: float) -> np.ndarray:
        """Where |1 - s| b, s = sqrt((x/a)^2 + (y/b)^2), clears the threshold
        by 1e-12.  z lies on the boundary of sE; E is convex and holds the
        disc of radius b, so sE + (1 - s) b Disc lies in E for s < 1 and
        E + (s - 1) b Disc in sE for s > 1: |1 - s| b bounds the distance."""
        s = np.sqrt((z.real / self.a) ** 2 + (z.imag / self.b) ** 2)
        return np.abs(1.0 - s) * self.b >= threshold + 1e-12

    def distance(self, z: np.ndarray) -> np.ndarray:
        """Distance to the ellipse by one monotone Newton root per point.

        With x = |Re z|, y = |Im z| and c^2 = a^2 - b^2 the footpoint is
        (a^2 x / (u + c^2), b^2 y / u), u > 0 the root of the convex,
        decreasing F(u) = (a x / (u + c^2))^2 + (b y / u)^2 - 1, and
        d = |b^2 - u| hypot(x / (u + c^2), y / u).  From u0 = max(b y,
        a x - c^2), where F >= 0, Newton's iterates rise to the root; each
        point stops once a step no longer raises u, so no batch moves it.
        The pole term (b y / u)^2 falls 2.25-fold a step until F reaches
        rounding (46 steps at most on extreme inputs); a point still rising
        after 100 raises RuntimeError.  Where u0 is 0 (the major axis inside the
        evolute: the root is the pole u = 0) or subnormal (a step may round
        to nothing; d is 1-Lipschitz), d = b sqrt((c^2 - x^2) / c^2), within y.
        """
        a, b = self.a, self.b
        if a == b:
            return np.abs(np.abs(z) - a)
        x, y = np.abs(z.real), np.abs(z.imag)
        c2, tiny = (a - b) * (a + b), np.finfo(float).tiny
        u = np.maximum(b * y, a * x - c2)
        pole = u < tiny
        act = np.flatnonzero(~pole)
        for _ in range(100):
            ua = u[act]
            r2, s2 = (b * y[act] / ua) ** 2, (a * x[act] / (ua + c2)) ** 2
            # u - F / F', with F' = -2 (r2 + s2 u / (u + c^2)) / u
            un = ua + ua * (r2 + s2 - 1) / (2 * (r2 + s2 * (ua / (ua + c2))))
            rise = un > ua
            act = act[rise]
            u[act] = un[rise]
            if not act.size:
                break
        else:
            raise RuntimeError("ellipse footpoint: Newton still rising after 100 steps")
        d = np.abs(b * b - u) * np.hypot(x / (u + c2), y / np.maximum(u, tiny))
        d[pole] = b * np.sqrt((c2 - x[pole] ** 2) / c2)
        return d


@dataclass(eq=False)
class DomainSpec:
    """A bounded plane domain, built by :func:`ellipse`, :func:`polygon` or
    :func:`smoothed_polygon`: its boundary pieces and what its family fixes
    once.  Two domains are equal when their grid keys are."""

    _key: str
    _pieces: list
    bounding_box: tuple[float, float, float, float]
    _inside: Callable            # membership of a flat complex array
    _rule: Callable              # boundary_rule's layout: (domain, degree, h)
    vertices: tuple[complex, ...] = ()      # a polygon's; ``_inside`` binds its own copy
    # (z, threshold): the points a closed-form distance bound clears
    _clears: Callable = lambda z, threshold: np.zeros(z.shape, dtype=bool)
    # the pieces a chord between interior points can meet: a convex domain's none
    chord_pieces: list | tuple = ()
    _anchor: complex | None = None   # interior_anchor: fixed, or searched on first use
    _scale: float | None = None      # capacity_radius: fixed, or averaged on first use

    def __eq__(self, other):
        return isinstance(other, DomainSpec) and self._key == other._key

    @property
    def center(self) -> complex:
        xmin, xmax, ymin, ymax = self.bounding_box
        return complex(0.5 * (xmin + xmax), 0.5 * (ymin + ymax))

    @property
    def half_diagonal(self) -> float:
        xmin, xmax, ymin, ymax = self.bounding_box
        return math.hypot(0.5 * (xmax - xmin), 0.5 * (ymax - ymin))

    def area(self) -> float:
        """Exact area, (1/2) Im oint conj(z) dz summed over the pieces: the
        oracle of the boundary rule's <1, 1>."""
        return sum(piece.area_term for piece in self._pieces)

    def grid_key(self) -> str:
        """Stable descriptor of the domain: its fitted kernels' cache key, a
        kernel file's ``domain`` line and the end of its ``grid`` line."""
        return self._key


def unit_disc() -> DomainSpec:
    return ellipse(1.0, 1.0)


def ellipse(a: float, b: float) -> DomainSpec:
    """The open ellipse with semi-axes a >= b > 0, and its closed forms:
    membership, anchor, capacity, distance bound, trapezoid rule; being
    convex, it keeps no chord pieces."""
    a, b = float(a), float(b)
    if not (a >= b > 0):
        raise ValueError("ellipse requires semi-axes a >= b > 0")
    curve = _Ellipse(a, b)
    return DomainSpec(f"ellipse:{a!r}:{b!r}", [curve], (-a, a, -b, b), curve.inside,
                      _trapezoid_rule, _clears=curve.clears, _anchor=0j,
                      _scale=0.5 * (a + b))


def polygon(vertices) -> DomainSpec:
    """The open simple polygon with these counterclockwise vertices."""
    return _polygon("polygon", vertices, None)


def smoothed_polygon(vertices, corner_radius: float) -> DomainSpec:
    """The polygon with its corners rounded by tangent arcs of that radius."""
    r = float(corner_radius)
    if not r > 0:
        raise ValueError("smoothed_polygon needs corner_radius > 0")
    return _polygon(f"smoothed_polygon:{r!r}", vertices, r)


# ---------------------------------------------------------------------------
# polygon helpers


def _polygon(name: str, vertices, r: float | None) -> DomainSpec:
    """The simple counterclockwise polygon, its corners rounded to r if set."""
    v = np.array([complex(z) for z in vertices], dtype=complex)
    if v.size < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if np.min(np.abs(np.roll(v, -1) - v)) < 1e-12:
        raise ValueError("polygon has a zero-length edge")
    if np.sum((np.conj(v) * np.roll(v, -1)).imag) <= 0:   # twice the signed area
        raise ValueError("polygon vertices must be counterclockwise")
    if not _is_simple(v):
        raise ValueError("polygon must be simple (non-self-intersecting)")
    pieces = _boundary_pieces(v, r)
    key = ",".join(f"{z.real!r}:{z.imag!r}" for z in v.tolist())
    box = (float(v.real.min()), float(v.real.max()), float(v.imag.min()), float(v.imag.max()))
    return DomainSpec(f"{name}:{key}", pieces, box, functools.partial(_polygon_inside, v, pieces),
                      _panel_rule, tuple(v.tolist()), chord_pieces=pieces)


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
    """Whether the closed segments [a, b] meet the domain's chord pieces, a
    polygon's segments and arcs (a convex domain has none), in the broadcast
    shape of a and b; touching counts.  A segment between interior points
    that meets none lies inside, with no point along it sampled: the
    geodesic solver's one chord rule.  Each piece tests only the segments
    whose bounding box meets its own."""
    if not domain.chord_pieces:
        return np.zeros(np.broadcast(a, b).shape, dtype=bool)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    xlo, xhi = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
    ylo, yhi = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    meet = np.zeros(a.shape, dtype=bool)
    for piece in domain.chord_pieces:
        x0, x1, y0, y1 = piece.box
        k = np.flatnonzero((xhi >= x0) & (xlo <= x1) & (yhi >= y0) & (ylo <= y1) & ~meet)
        if k.size:
            meet[k] = piece.meets(a[k], b[k])
    return meet.reshape(shape)


def _box(points) -> tuple[float, float, float, float]:
    x = [p.real for p in points]
    y = [p.imag for p in points]
    return (min(x), max(x), min(y), max(y))


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


def _corner_arc(prev_v: complex, V: complex, next_v: complex, r: float) -> _Arc | None:
    """The arc of radius r tangent to both edges at V; None where they are
    collinear."""
    u = (V - prev_v) / abs(V - prev_v)
    w = (next_v - V) / abs(next_v - V)
    turn = math.atan2(u.real * w.imag - u.imag * w.real, u.real * w.real + u.imag * w.imag)
    if abs(turn) < 1e-12:
        return None
    d = r * math.tan(abs(turn) / 2)
    center = V + (w - u) / abs(w - u) * (r / math.cos(turn / 2))
    t_in = V - u * d
    return _Arc(V, center, r, t_in, V + w * d, turn,
                math.atan2((t_in - center).imag, (t_in - center).real))


def _boundary_pieces(v: np.ndarray, r: float | None) -> list:
    """Each edge's segment between its corners' tangent points, then the arc
    at its end vertex if the corners are rounded."""
    arcs = [None] * len(v) if r is None else [
        _corner_arc(*corner, r) for corner in zip(np.roll(v, 1), v, np.roll(v, -1))]
    pieces = []
    for i, (a, b, start, end) in enumerate(zip(v, np.roll(v, -1), arcs, arcs[1:] + arcs[:1])):
        p0 = a if start is None else start.t_out
        p1 = b if end is None else end.t_in
        if abs(p0 - a) + abs(p1 - b) > abs(b - a) * (1 - 1e-9):
            raise ValueError(f"corner_radius {r} too large: rounded corners overlap on edge {i}")
        if abs(p1 - p0) > 1e-15:
            pieces.append(_Segment(p0, p1))
        if end is not None:
            pieces.append(end)
    return pieces


# ---------------------------------------------------------------------------
# membership


def contains(domain: DomainSpec, z) -> bool | np.ndarray:
    """True iff z lies in the open domain; boundary points are outside."""
    zz = np.asarray(z, dtype=complex)
    res = domain._inside(zz.ravel())
    return bool(res[0]) if zz.ndim == 0 else res.reshape(zz.shape)


def _polygon_inside(v: np.ndarray, pieces: list, z: np.ndarray) -> np.ndarray:
    """The crossing test of the polygon v, which each rounded corner then
    settles near itself."""
    odd, on_edge = _crossings(v, z)
    res = odd & ~on_edge
    for piece in pieces:
        piece.settle(z, res)
    return res


def _crossings(v: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ray crossings of the polygon v: the points z from which the ray
    toward +x crosses an odd number of edges, each edge taken with its lower
    end and without its upper one, and the points on an edge.  z's side of
    an edge comes from the exact orientation test."""
    x, y = z.real, z.imag
    odd = np.zeros(z.shape, dtype=bool)
    on_edge = np.zeros(z.shape, dtype=bool)
    for p, q in zip(v, np.roll(v, -1)):
        lo, hi = min(p.imag, q.imag), max(p.imag, q.imag)
        # only the points level with an edge can cross it or lie on it
        k = np.flatnonzero((lo <= y) & (y <= hi))
        if k.size == 0:
            continue
        side = _orient_sign(p, q, z[k])
        odd[k] ^= (y[k] < hi) & (side * (q.imag - p.imag) > 0)
        on_edge[k] |= (side == 0) & (min(p.real, q.real) <= x[k]) & (x[k] <= max(p.real, q.real))
    return odd, on_edge


# ---------------------------------------------------------------------------
# boundary distance


def boundary_distance(domain: DomainSpec, z: complex) -> float:
    """Distance from an interior point to the boundary curve."""
    if not contains(domain, z):
        raise DomainError(f"{z} is not inside the domain")
    return float(curve_distance(domain, z))


def curve_distance(domain: DomainSpec, z) -> float | np.ndarray:
    """Unsigned distance to the boundary curve, defined for any point.

    Internal workhorse behind :func:`boundary_distance`; also used for
    admissibility and divergence checks where points may sit outside.
    """
    zz = np.asarray(z, dtype=complex)
    arr = zz.ravel()
    res = functools.reduce(np.minimum, (piece.distance(arr) for piece in domain._pieces))
    return float(res[0]) if zz.ndim == 0 else res.reshape(zz.shape)


def clear_of_boundary(domain: DomainSpec, z, margin) -> bool | np.ndarray:
    """``contains(domain, z) & (curve_distance(domain, z) >= margin)``,
    elementwise, with ``margin`` a number or an array that broadcasts
    against z: inside the open domain and, where the margin is > 0, at
    least that far from the boundary; where it is <= 0, :func:`contains`.

    Only inside points are tested for clearance, and points that the
    ellipse's distance bound (:meth:`_Ellipse.clears`) already clears skip
    the footpoint iteration of :func:`curve_distance`.
    """
    zz = np.asarray(z, dtype=complex)
    arr = zz.ravel()
    m = np.broadcast_to(np.asarray(margin, dtype=float), zz.shape).ravel()
    ok = contains(domain, arr)
    rest = np.flatnonzero(ok & (m > 0))
    rest = rest[~domain._clears(arr[rest], m[rest])]
    if rest.size:
        ok[rest] = curve_distance(domain, arr[rest]) >= m[rest]
    return bool(ok[0]) if zz.ndim == 0 else ok.reshape(zz.shape)


# ---------------------------------------------------------------------------
# boundary parametrization


def boundary_point(domain: DomainSpec, t) -> complex | np.ndarray:
    """Boundary parametrization gamma(t), 2*pi-periodic, counterclockwise:
    the pieces in turn, each on a share of the period proportional to its
    length and in its own parameter there."""
    tt = np.atleast_1d(np.asarray(t, dtype=float)) % (2 * np.pi)
    cum = np.cumsum([0.0] + [piece.length for piece in domain._pieces])
    s = tt / (2 * np.pi) * cum[-1]
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(cum) - 2)
    res = np.empty(tt.shape, dtype=complex)
    for i, piece in enumerate(domain._pieces):
        sel = idx == i
        res[sel] = piece.point((s[sel] - cum[i]) / (cum[i + 1] - cum[i]) * piece.span)
    return complex(res[0]) if np.asarray(t).ndim == 0 else res


def capacity_radius(domain: DomainSpec) -> float:
    """Geometric-mean radius of the boundary around the bounding-box center.

    Equals the logarithmic capacity for ellipses ((a+b)/2, fixed when built)
    and approximates it for polygons (averaged once and kept).  It scales
    the kernel fit's monomials zeta^k, zeta = (z - center) / radius, to
    about 1 on the boundary, so the stored coefficients B of the orthonormal
    basis grow only polynomially in the degree and the orthonormality defect
    measured from B stays small up to higher degrees.
    """
    if domain._scale is None:
        t = 2 * np.pi * (np.arange(4096) + 0.5) / 4096
        g = boundary_point(domain, t)
        domain._scale = float(np.exp(np.mean(np.log(np.abs(g - domain.center)))))
    return domain._scale


def interior_anchor(domain: DomainSpec) -> complex:
    """A deterministic interior reference point: of the bounding-box center
    and the lattice cell centers, the inside one farthest from the
    boundary, the center on a tie; the lattice is refined until a point
    lies inside.  The center alone can sit in a reflex corner's fillet.
    An ellipse's center is its unique deepest point, so the ellipse fixes
    it when built, without pricing the lattice; a polygon's anchor is
    searched once and kept on the domain."""
    if domain._anchor is not None:
        return domain._anchor
    h = domain.half_diagonal / 16
    for _ in range(6):
        # the center first, so that argmax keeps it on a tie
        points = np.concatenate([[domain.center], _lattice(domain, h)])
        inside = points[contains(domain, points)]
        if inside.size:
            domain._anchor = complex(inside[np.argmax(curve_distance(domain, inside))])
            return domain._anchor
        h /= 2
    raise GridError("could not locate an interior anchor point")


def _lattice(domain: DomainSpec, h: float):
    xmin, xmax, ymin, ymax = domain.bounding_box
    nx = max(1, math.ceil((xmax - xmin) / h))
    ny = max(1, math.ceil((ymax - ymin) / h))
    xs = xmin + (np.arange(nx) + 0.5) * h
    ys = ymin + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys)
    return (X + 1j * Y).ravel()


# ---------------------------------------------------------------------------
# boundary rule


@dataclass(eq=False)
class BoundaryRule:
    """A contour rule on the boundary, traversed counterclockwise: nodes
    z_i and complex weights dz_i, so that sum_i f(z_i) dz_i approximates
    the contour integral of f dz, and :meth:`primitive`, the running
    integral of f dz along the boundary at the nodes.  A rule equals only
    itself.

    By Green's theorem the area inner product of polynomials is a contour
    integral: with Q' = q, d(p conj(Q))/d(zbar) = p conj(q), so

        <p, q> = int int p conj(q) dA = (1/2i) oint p conj(Q) dz,

    which :meth:`area_inner` forms.  The constant of Q drops out, because
    oint p dz = 0.
    """

    nodes: np.ndarray            # complex, in boundary order
    dz: np.ndarray               # complex weights of the contour integral
    descriptor: str
    # (m, m) running integral within a panel of m Gauss-Legendre nodes,
    # acting on f dz; None for the periodic trapezoid rule
    panel: np.ndarray | None = None
    # the trapezoid rule's Fourier divisor, built once for all primitives:
    # g = f(z(t)) z'(t) 2 pi / n, so each mode k != 0 of f z' is divided by
    # ik; the mean, 0 for a polynomial f, and the Nyquist mode, which has
    # no antiderivative on the nodes, go
    divisor: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.panel is None:
            n = self.nodes.size
            k = np.fft.fftfreq(n, 1.0 / n)
            self.divisor = np.zeros(n, dtype=complex)
            self.divisor[1:] = n / (2 * np.pi) / (1j * k[1:])
            if n % 2 == 0:
                self.divisor[n // 2] = 0.0

    def primitive(self, f: np.ndarray) -> np.ndarray:
        """F(z_i), the integral of f dz from the first node (or, on the
        trapezoid rule, from a point whose F has zero mean) to z_i."""
        g = f * self.dz
        if self.panel is None:
            return np.fft.ifft(np.fft.fft(g) * self.divisor)
        g = g.reshape(-1, self.panel.shape[0])
        totals = g.sum(axis=1)
        starts = np.cumsum(totals) - totals
        return (g @ self.panel.T + starts[:, None]).ravel()

    def area_inner(self, p: np.ndarray, P: np.ndarray) -> np.ndarray:
        """(1/2i) sum_i p(z_i) conj(P(z_i)) dz_i: the area inner product
        <p, q> for P a primitive of q; for a 2-d P, one q_j per column,
        the vector of <p, q_j>."""
        return np.conj(P.T @ np.conj(p * self.dz)) / 2j


def _legendre_panel(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes x and weights w on [-1, 1], and the matrix M
    with (M (f w))_i = int_{-1}^{x_i} f(u) du, exact for polynomials f of
    degree < m.  The Legendre polynomials are discretely orthogonal on the
    nodes, sum_i w_i P_k(x_i) P_l(x_i) = 2 / (2k + 1) [k = l], so f has
    Legendre coefficients (2k + 1)/2 sum_i w_i f(x_i) P_k(x_i), and M takes
    them to the integrals int_{-1}^{x} P_k."""
    x, w = legendre.leggauss(m)
    integrals = legendre.legvander(x, m) @ legendre.legint(np.eye(m), lbnd=-1)
    coeffs = (np.arange(m) + 0.5)[:, None] * legendre.legvander(x, m - 1).T
    return x, w, integrals @ coeffs


def boundary_rule(domain: DomainSpec, degree: int, resolution: float) -> BoundaryRule:
    """The contour rule that makes the area inner products of polynomials
    of degree <= ``degree`` exact or spectrally accurate; ``resolution``
    sets the panel length on a polygon's pieces.

    * An ellipse takes the trapezoid rule in t on z(t) = a cos t + i b sin t
      with n = 2 degree + 4 nodes, whatever the resolution, and primitives
      by FFT.  For p, q of degree <= degree, p(z(t)) conj(Q) z'(t) is a
      trigonometric polynomial of degree <= 2 degree + 2 < n, so the rule
      is exact; more nodes only add rounding and FFT length.
    * A polygon's pieces (segments and corner arcs) each take
      max(1, ceil(length / (m resolution))) equal panels of m = degree + 2
      Gauss-Legendre nodes, with primitives from the Legendre integration
      matrix within a panel plus the totals of the panels before it.  On a
      segment z is linear in the panel variable, so the rule is exact; on
      an arc it converges spectrally.
    """
    h = float(resolution)
    if not h > 0:
        raise ValueError("resolution must be positive")
    return domain._rule(domain, degree, h)


def _trapezoid_rule(domain: DomainSpec, degree: int, h: float) -> BoundaryRule:
    (curve,) = domain._pieces
    n = 2 * degree + 4
    t = 2 * np.pi * np.arange(n) / n
    return BoundaryRule(curve.point(t), curve.derivative(t) * (2 * np.pi / n),
                        f"trapezoid:{n}:{domain._key}")


def _panel_rule(domain: DomainSpec, degree: int, h: float) -> BoundaryRule:
    m = degree + 2
    x, w, panel = _legendre_panel(m)
    nodes, dz = [], []
    for piece in domain._pieces:
        count = max(1, math.ceil(piece.length / (m * h)))
        # the piece's parameter s in [0, 1] at each panel's nodes
        s = ((np.arange(count)[:, None] + 0.5 * (x + 1)) / count).ravel()
        nodes.append(piece.point(s))
        dz.append(piece.derivative(s) / (2 * count) * np.tile(w, count))
    nodes = np.concatenate(nodes)
    return BoundaryRule(nodes, np.concatenate(dz),
                        f"gauss-legendre:{m}x{nodes.size // m}:{domain._key}", panel)
