"""Integral means, weighted Lipschitz moduli of boundary traces, and
power-law exponent fitting.

The moduli are metric-agnostic: they take an injected distance evaluator
``d(u, v) -> array`` (Euclidean, closed-form hyperbolic, or backed by the
geodesic solver), so one implementation serves the Euclidean, hyperbolic,
Bergman and quasihyperbolic Lipschitz classes alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentValueError, InsufficientDataError


@dataclass
class Curve:
    """Values on a ladder of abscissae: integral means against 1 - r, or a
    trace modulus against the step h."""

    abscissa: np.ndarray
    values: np.ndarray


@dataclass
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    max_residual: float
    n_points: int
    n_excluded: int = 0


def _shift_set(n: int, h: float, p: float) -> list[int]:
    """Grid shifts that make up the step-h modulus of an n-sample trace.

    The sup takes every shift k <= min(K(h), n // 2), where K(h) is the
    largest shift whose angular gap lies strictly below h; a p-mean takes the
    dyadic ladder {h/8, h/4, h/2, h} rounded to the angular grid.
    """
    if not (0 < h <= math.pi):
        raise ValueError("step must lie in (0, pi]")
    gap = 2 * np.pi / n
    if p == math.inf:
        K = min(int(np.ceil(h / gap)) - 1, n // 2)
        if K < 1:
            raise ValueError(f"step {h} is below the angular resolution {gap} of the trace")
        return list(range(1, K + 1))
    if p < 1:
        raise ValueError("exponent p must satisfy p >= 1")
    return sorted({max(1, round(s / gap)) for s in (h / 8, h / 4, h / 2, h)})


def _shift_table(trace: np.ndarray, d, p: float, ks) -> dict[int, float]:
    """{k: max (p = inf) or p-mean of d(trace(t + k gap), trace(t)) over t},
    each shift priced in full, in ``ks`` order."""
    n = trace.size
    doubled = np.concatenate([trace, trace])
    table: dict[int, float] = {}
    for k in ks:
        # trace(t + k gap) is a slice of the trace written twice over
        dist = np.asarray(d(doubled[k % n:k % n + n], trace), dtype=float)
        if not np.all(np.isfinite(dist)):
            raise DivergentValueError(
                f"divergent modulus: a trace pair at {'gap' if p == math.inf else 'shift'} "
                f"{k * (2 * np.pi / n):.4g} has infinite distance "
                f"(boundary values touch the target boundary)")
        table[k] = float(dist.max()) if p == math.inf else float(np.mean(dist ** p) ** (1.0 / p))
    return table


def doubled_sampling_modulus(fine: np.ndarray, d, p: float, h: float,
                             screen=None) -> float:
    """Step-h modulus of ``fine``, a trace sampled twice as densely as the
    coarse one a modulus curve was built on.

    The sup is the step-h point of ``fine``'s own modulus curve; a p-mean
    uses twice the coarse trace's ladder shifts, so both traces use the
    same effective shifts and the difference measures sampling density,
    not ladder quantization.
    """
    if p == math.inf:
        return float(modulus_curve(fine, d, [h], p, screen).values[0])
    ks = [2 * k for k in _shift_set(fine.size // 2, h, p)]
    return max([0.0, *_shift_table(fine, d, p, ks).values()])


def fit_exponent(curve: Curve) -> ExponentFit:
    """Least-squares line through (log abscissa, log value).

    The slope estimates alpha - 1 for means curves (abscissa 1 - r) and
    alpha for modulus curves (abscissa h).  Zero values are excluded and
    counted; fewer than 4 usable points or less than 1.5 decades of abscissa
    span raise :class:`InsufficientDataError`.
    """
    x = np.asarray(curve.abscissa, dtype=float)
    y = np.asarray(curve.values, dtype=float)
    usable = y > 0
    n_excluded = int(np.sum(~usable))
    x, y = x[usable], y[usable]
    if x.size < 4:
        raise InsufficientDataError(
            f"power-law fit needs at least 4 nonzero points, got {x.size}")
    span = math.log10(x.max() / x.min())
    if span < 1.5:
        raise InsufficientDataError(
            f"abscissa spans {span:.2f} decades; need at least 1.5")
    lx, ly = np.log(x), np.log(y)
    # the least-squares line in closed form, its sums by fsum: no LAPACK
    # call, so the fit does not depend on the BLAS kernels
    mx, my = math.fsum(lx) / lx.size, math.fsum(ly) / ly.size
    slope = math.fsum((lx - mx) * (ly - my)) / math.fsum((lx - mx) ** 2)
    intercept = my - slope * mx
    fitted = slope * lx + intercept
    resid = ly - fitted
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 and ss_res < 1e-28 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return ExponentFit(
        slope=float(slope), intercept=float(intercept),
        r_squared=float(min(max(r2, 0.0), 1.0)), max_residual=float(np.max(np.abs(resid))),
        n_points=int(x.size), n_excluded=n_excluded,
    )


def means_curve(g, radii, p: float, n: int = 4096) -> Curve:
    """Integral means along a radius ladder, against 1 - r.

    The mean at r is (sum g(r e^{it_j})^p / n)^{1/p} over the uniform angles
    t_j = 2 pi j / n, whose e^{it_j} are formed once for all radii; uniform
    angles make the trapezoid and midpoint rules coincide by periodicity.
    ``p = inf`` gives the sup over the sampled circle.  Non-finite samples
    raise :class:`DivergentValueError`.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all((radii > 0) & (radii < 1)):
        raise ValueError("radius must lie in (0, 1)")
    if n < 64:
        raise ValueError("need at least 64 circle samples")
    if not (p == math.inf or p >= 1):
        raise ValueError("exponent p must satisfy p >= 1 (or inf)")
    circle = np.exp(1j * (2 * np.pi * np.arange(n) / n))
    vals = []
    for r in radii:
        v = np.asarray(g(r * circle), dtype=float)
        if not np.all(np.isfinite(v)):
            raise DivergentValueError(f"integral mean diverges at r = {r}")
        vals.append(np.max(v) if p == math.inf else np.mean(v ** p) ** (1.0 / p))
    return Curve(abscissa=1.0 - radii, values=np.array(vals, dtype=float))


def modulus_curve(trace: np.ndarray, d, steps, p: float = math.inf,
                  screen=None) -> Curve:
    """Lipschitz modulus along a step ladder (sup for p = inf, p-mean else).

    Steps are taken in ladder order; each step evaluates only the shifts
    that no earlier step needed, so every trace shift is evaluated once and
    a step's modulus is the max of its shifts' tabulated statistics.  A
    sup's shift sets are the prefixes 1..K(h), so for p = inf a
    ``screen(values, tops)`` returning {K: sup over shifts 1..K} for each
    top K, or None, serves the whole ladder at once.
    """
    steps = np.asarray(steps, dtype=float)
    if p == math.inf and screen is not None:
        try:
            tops = [_shift_set(trace.size, h, p)[-1] for h in steps]
        except ValueError:
            tops = []  # the loop below prices and raises in ladder order
        sups = screen(trace, tops) if tops else None
        if sups is not None:
            return Curve(abscissa=steps, values=np.array([max(0.0, sups[K]) for K in tops]))
    table: dict[int, float] = {}
    vals = []
    for h in steps:
        ks = _shift_set(trace.size, h, p)
        table.update(_shift_table(trace, d, p, [k for k in ks if k not in table]))
        vals.append(max([0.0] + [table[k] for k in ks]))
    return Curve(abscissa=steps, values=np.array(vals))
