"""Catalog of analytic test maps from the unit disc into a bounded domain,
with exact derivatives, boundary traces and the weighted derivative
f*(z) = omega(f(z)) |f'(z)|.

Every map is validated at construction: a dense sample of the open disc must
land inside the target, and the closed-form derivative is cross-checked
against a finite difference at seeded points.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentValueError, DomainError
from .geometry import (
    DomainSpec,
    boundary_distance,
    contains,
    curve_distance,
    interior_anchor,
    unit_disc,
)
from .metrics import MetricDensity


class AnalyticMap:
    """Base class: an analytic map of the unit disc into ``target``."""

    target: DomainSpec
    variant: str = "abstract"

    def __call__(self, z):
        raise NotImplementedError

    def value_and_derivative(self, z):
        """(f(z), f'(z)), the value bit for bit f(z): each map's one
        derivative route, which :meth:`derivative` reads."""
        raise NotImplementedError

    def derivative(self, z):
        return self.value_and_derivative(z)[1]

    # -- construction-time checks ------------------------------------------

    def _validate(self):
        rr = np.linspace(0.05, 1.0 - 1e-4, 24)
        tt = 2 * np.pi * np.arange(64) / 64
        sample = (rr[:, None] * np.exp(1j * tt)[None, :]).ravel()
        img = np.asarray(self(sample))
        if not np.all(contains(self.target, img)):
            raise DomainError(
                f"{self.variant} map sends points of the open disc outside its target")
        rng = np.random.default_rng(2024)
        pts = 0.8 * (rng.random(8) - 0.5 + 1j * (rng.random(8) - 0.5))
        h = 1e-6
        fd = (self(pts + h) - self(pts)) / h
        dv = self.derivative(pts)
        if np.max(np.abs(fd - dv) / np.maximum(1.0, np.abs(dv))) > 1e-4:
            raise ValueError(f"{self.variant} map: closed-form derivative "
                             f"disagrees with finite differences")


def _as_out(arr, z):
    return complex(arr) if np.asarray(z).ndim == 0 else arr


def _polar_power(w, alpha):
    # |w|^alpha (cos + i sin)(alpha arg w) in vectorized real ufuncs, where
    # numpy's complex power calls the scalar cpow per point; 0 at w = 0
    u = np.empty_like(w)
    rho, phi = np.power(np.abs(w), alpha), alpha * np.arctan2(w.imag, w.real)
    np.multiply(rho, np.cos(phi), out=u.real)
    np.multiply(rho, np.sin(phi), out=u.imag)
    return u


@dataclass
class PolynomialMap(AnalyticMap):
    """f(z) = sum_k c_k z^k (coefficients lowest degree first)."""

    coefficients: tuple
    target: DomainSpec = field(default_factory=unit_disc)
    variant = "polynomial"

    def __post_init__(self):
        self.coefficients = tuple(complex(c) for c in self.coefficients)
        self._c = np.asarray(self.coefficients, dtype=complex)
        self._dc = self._c[1:] * np.arange(1, self._c.size)
        self._validate()

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        return _as_out(np.polynomial.polynomial.polyval(zz, self._c), z)

    def value_and_derivative(self, z):
        zz = np.asarray(z, dtype=complex)
        if self._dc.size == 0:
            return self(z), _as_out(np.zeros_like(zz), z)
        return self(z), _as_out(np.polynomial.polynomial.polyval(zz, self._dc), z)


@dataclass
class BlaschkeProduct(AnalyticMap):
    """Finite Blaschke product over the given zeros (|a_k| < 1); the factor
    for a zero at the origin is plain z."""

    zeros: tuple
    target: DomainSpec = field(default_factory=unit_disc)
    variant = "blaschke"

    def __post_init__(self):
        self.zeros = tuple(complex(a) for a in self.zeros)
        if any(abs(a) >= 1 for a in self.zeros):
            raise ValueError("blaschke zeros need modulus < 1")
        self._validate()

    def _factor(self, a, z):
        if a == 0:
            return z
        return (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)

    def _factor_derivative(self, a, z):
        if a == 0:
            return np.ones_like(z)
        return (abs(a) / a) * (abs(a) ** 2 - 1.0) / (1.0 - np.conj(a) * z) ** 2

    @staticmethod
    def _product(out, factors):
        # the factors are named: numpy computes out times a temporary of
        # 256 KiB or more in place as factor * out, which rounds otherwise,
        # so a value would depend on the batch size
        for factor in factors:
            out = out * factor
        return out

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        return _as_out(self._product(np.ones_like(zz), [self._factor(a, zz) for a in self.zeros]), z)

    def value_and_derivative(self, z):
        # product rule, sum_k b_k' prod_{j != k} b_j, exact also at the zeros,
        # each factor formed once
        zz = np.asarray(z, dtype=complex)
        factors = [self._factor(a, zz) for a in self.zeros]
        out = np.zeros_like(zz)
        for k, a in enumerate(self.zeros):
            out += self._product(self._factor_derivative(a, zz), factors[:k] + factors[k + 1:])
        return _as_out(self._product(np.ones_like(zz), factors), z), _as_out(out, z)


@dataclass
class PowerCusp(AnalyticMap):
    """f(z) = w0 + c (1 - z)^alpha, principal branch, alpha in (0, 1].

    The branch cut of the power sits on [1, oo), which 1 - z never meets for
    |z| < 1; the boundary point z = 1 maps to w0 with a cusp of exponent
    alpha, and the derivative diverges there for alpha < 1.
    """

    w0: complex
    c: complex
    alpha: float
    target: DomainSpec = field(default_factory=unit_disc)
    variant = "power_cusp"

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("cusp exponent must lie in (0, 1]")
        self.w0 = complex(self.w0)
        self.c = complex(self.c)
        # numpy's w ** alpha is exact at alpha 1/2 (sqrt) and 1 (a copy)
        self._power = operator.pow if self.alpha in (0.5, 1.0) else _polar_power
        self._validate()

    def __call__(self, z):
        # u is named as in value_and_derivative: numpy computes c times a
        # temporary of 256 KiB or more in place as u * c, which rounds
        # otherwise than c * u
        zz = np.asarray(z, dtype=complex)
        u = self._power(1.0 - zz, self.alpha)
        return _as_out(self.w0 + self.c * u, z)

    def value_and_derivative(self, z):
        # one power u = (1 - z)^alpha serves both: f' = -alpha c u / (1 - z),
        # where u / (1 - z) takes its removable value 1 at z = 1 (alpha = 1)
        zz = np.asarray(z, dtype=complex)
        if self.alpha < 1 and np.any(zz == 1.0):
            raise DivergentValueError(
                "power_cusp derivative diverges at z = 1 for alpha < 1")
        w = 1.0 - zz
        u = self._power(w, self.alpha)
        ratio = np.divide(u, w, out=np.ones_like(u), where=w != 0)
        return _as_out(self.w0 + self.c * u, z), _as_out(-self.alpha * self.c * ratio, z)


@dataclass
class AffineInto(AnalyticMap):
    """Affine squeeze of a disc-valued map into an arbitrary target:
    f(z) = anchor + s * r0 * inner(z), where r0 is the anchor's boundary
    distance, so the image stays in a compact subset for s < 1."""

    target: DomainSpec
    inner: AnalyticMap
    contraction: float
    variant = "affine_into"

    def __post_init__(self):
        if not (0 < self.contraction < 1):
            raise ValueError("contraction must lie in (0, 1)")
        if self.inner.target != unit_disc():
            raise ValueError("inner map must take values in the unit disc")
        self.anchor = interior_anchor(self.target)
        self.radius = boundary_distance(self.target, self.anchor)
        self._validate()

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        out = self.anchor + self.contraction * self.radius * np.asarray(self.inner(zz))
        return _as_out(out, z)

    def value_and_derivative(self, z):
        zz = np.asarray(z, dtype=complex)
        val, der = self.inner.value_and_derivative(zz)
        scale = self.contraction * self.radius
        return (_as_out(self.anchor + scale * np.asarray(val), z),
                _as_out(scale * np.asarray(der), z))


# ---------------------------------------------------------------------------
# weighted derivative


def weighted_derivative(f: AnalyticMap, omega: MetricDensity, z):
    """f*(z) = omega(f(z)) |f'(z)|; for the hyperbolic density this is the
    modulus of the hyperbolic derivative |f'| / (1 - |f|^2)."""
    val, der = f.value_and_derivative(z)
    val = np.asarray(val, dtype=complex)
    if not np.all(contains(omega.domain, val)):
        raise DomainError("map value leaves the density's domain")
    out = omega.eval_array(val) * np.abs(np.asarray(der))
    return float(out) if np.asarray(z).ndim == 0 else out


# ---------------------------------------------------------------------------
# boundary traces


def boundary_trace(f: AnalyticMap, n: int, r_b: float = 1.0) -> np.ndarray:
    """Samples f(r_b e^{i t_j}) at the uniform angles t_j = 2 pi j / n;
    r_b = 1 gives the exact boundary trace (every map class extends
    continuously to the closed disc)."""
    if n < 8:
        raise ValueError("trace needs at least 8 samples")
    if not (0 < r_b <= 1):
        raise ValueError("trace radius must lie in (0, 1]")
    t = 2 * np.pi * np.arange(n) / n
    values = np.asarray(f(r_b * np.exp(1j * t)), dtype=complex)
    if r_b == 1.0:
        inside = contains(f.target, values)
        on_boundary = curve_distance(f.target, values) <= 1e-9
        if not np.all(inside | on_boundary):
            raise DomainError("exact trace leaves the closure of the target")
    return values


# ---------------------------------------------------------------------------
# catalog


def from_name(name: str, target: DomainSpec | None = None) -> AnalyticMap:
    """Resolve a config map name.

    Supported names: ``identity``, ``square`` (z^2), ``scale_NN`` (z*NN/100),
    ``const_NN`` (constant NN/100), ``cusp_aNN`` (power cusp with
    alpha = NN/100, base 0, scale 1/4), ``blaschke_pair``.  On a target other
    than the unit disc the disc map is squeezed in by an affine contraction.
    """
    disc = unit_disc()
    inner: AnalyticMap
    if name == "identity":
        inner = PolynomialMap((0.0, 1.0), disc)
    elif name == "square":
        inner = PolynomialMap((0.0, 0.0, 1.0), disc)
    elif m := re.fullmatch(r"scale_(\d+)", name):
        inner = PolynomialMap((0.0, int(m.group(1)) / 100.0), disc)
    elif m := re.fullmatch(r"const_(\d+)", name):
        inner = PolynomialMap((int(m.group(1)) / 100.0,), disc)
    elif m := re.fullmatch(r"cusp_a(\d+)", name):
        alpha = int(m.group(1)) / 100.0
        inner = PowerCusp(0.0, 0.25, alpha, disc)
    elif name == "blaschke_pair":
        inner = BlaschkeProduct((0.5, -0.3j), disc)
    else:
        raise ValueError(f"unknown map name {name!r}")
    if target is None or target == disc:
        return inner
    return AffineInto(target, inner, 0.5)


def catalog(target: DomainSpec | None = None) -> dict[str, AnalyticMap]:
    """Every named map (:func:`from_name`), into ``target``; the tests
    sweep it, and configs name one map each."""
    names = ("identity", "square", "scale_50", "cusp_a30", "cusp_a50",
             "cusp_a70", "cusp_a100", "blaschke_pair", "const_25")
    return {name: from_name(name, target) for name in names}


def hyperbolic_derivative_modulus(f: AnalyticMap, z):
    """|f'(z)| / (1 - |f(z)|^2) spelled out verbatim; must agree exactly with
    weighted_derivative under the hyperbolic density."""
    val, der = f.value_and_derivative(z)
    out = np.abs(np.asarray(der)) / (1.0 - np.abs(np.asarray(val)) ** 2)
    return float(out) if np.asarray(z).ndim == 0 else out
