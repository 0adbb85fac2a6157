"""Experiment driver: composes domains, densities, maps, and growth analysis
into named verification experiments, emitting machine-readable reports.

Each experiment measures boundary-regularity and growth exponents from two
independent sides of an equivalence and compares them; reports are
self-contained (every verdict is recomputable from recorded numbers) and
byte-deterministic for a fixed config.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .bergman import fit_kernel_model
from .errors import (
    ConfigError,
    DivergentValueError,
    InsufficientDataError,
    KernelInstabilityError,
    MetricLabError,
)
from .geometry import (
    DomainSpec,
    clear_of_boundary,
    contains,
    curve_distance,
    ellipse,
    interior_anchor,
    polygon,
    smoothed_polygon,
    unit_disc,
)
from .growth import doubled_sampling_modulus, fit_exponent, means_curve, modulus_curve
from .maps import (
    AnalyticMap,
    boundary_trace,
    from_name,
    hyperbolic_derivative_modulus,
    weighted_derivative,
)
from .metrics import (
    MetricDensity,
    bergman_metric_density,
    constant_density,
    geodesic_evaluator,
    hyperbolic_density,
    quasihyperbolic_density,
    weighted_distances,
)

# the values of the ``density`` key, by constructor
HYPERBOLIC = "hyperbolic"
QUASIHYPERBOLIC = "quasihyperbolic"
BERGMAN = "bergman"
CONSTANT = "constant"

BLOW_UP_KINDS = (HYPERBOLIC, QUASIHYPERBOLIC, BERGMAN)
DENSITY_KINDS = (*BLOW_UP_KINDS, CONSTANT)

# Each config key once: (parser kind, default, the interval that each of its
# numbers must lie in).  Kind list: a ladder, one float per whitespace-separated
# token; kind None: parsed on its own; default None: required.
# A band [1/C, C] holds 1 only for C >= 1; radii 1 - 2^-k lie in (0, 1); steps
# 2^-k stay at most 2, below the modulus's bound pi.  compare_pairs is checked
# when qh-compare runs.
_KEYS = {
    "experiment": (None, None, None),
    "domain": (None, None, None),
    "density": (None, None, None),
    "map": (None, "identity", None),
    "alpha": (float, "0.5", "(0, 1]"),
    "p": (float, "1", "[1, inf]"),
    "radii_k": (list, "2 3 4 5 6 7 8 9", "(0, inf)"),
    "steps_k": (list, "3 4 5 6 7 8", "[-1, inf)"),
    "circle_samples": (int, "4096", "[64, inf)"),
    "resolution": (float, "0.01", "(0, inf)"),
    "kernel_degree": (int, "40", "[0, inf)"),
    "kernel_resolution": (float, "0.01", "(0, inf)"),
    "seed": (int, "1234", "[0, inf)"),
    "tolerance": (float, "0.1", "[0, inf)"),
    "trace_radius": (float, "1", "(0, 1]"),
    "rays": (int, "16", "[1, inf)"),
    "ring_distances": (list, "0.4 0.2 0.1 0.05", "(0, inf)"),
    "comparability_cap": (float, "3", "[1, inf)"),
    "distance_cap": (float, "6", "[1, inf)"),
    "compare_pairs": (int, "12", None),
    "pairs": (int, "200", "[1, inf)"),
    "nt_cap": (float, "10", "[1, inf)"),
    "pair_margin": (float, "0.1", "[0, inf)"),
    "refine_sweeps": (int, "24", "[0, inf)"),
    "out": (None, "reports", None),
}


@dataclass(eq=False)
class ExperimentConfig:
    """Parsed experiment description; ``raw`` holds the normalized key-value
    lines, all but ``out``, that the config hash and the report echo are
    derived from.  A config equals only itself."""

    experiment: str
    domain: DomainSpec
    density_kind: str
    density_value: float | None
    map: AnalyticMap
    alpha: float
    p: float
    radii: np.ndarray
    steps: np.ndarray
    circle_samples: int
    resolution: float
    kernel_degree: int
    kernel_resolution: float
    seed: int
    tolerance: float
    trace_radius: float
    rays: int
    ring_distances: np.ndarray
    comparability_cap: float
    distance_cap: float
    compare_pairs: int
    pairs: int
    nt_cap: float
    pair_margin: float
    refine_sweeps: int
    out_dir: str
    raw: dict[str, str] = field(default_factory=dict)

    def config_hash(self) -> str:
        text = "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _number(kind, key: str, text: str):
    """``kind(text)``; a malformed number is a ConfigError naming the key."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} = {text!r} is not a valid {kind.__name__}") from None


def _within(value, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``, written like "(0, 1]"; nan
    lies in none."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo <= value) if interval[0] == "[" else (lo < value)) and \
        ((value <= hi) if interval[-1] == "]" else (value < hi))


def _parse_domain(text: str) -> DomainSpec:
    kind, *tokens = text.split()
    if kind not in ("unit_disc", "ellipse", "polygon", "smoothed_polygon"):
        raise ConfigError(f"domain: unknown domain kind {kind!r}")
    nums = [_number(float, "domain", v) for v in tokens]
    try:
        if kind == "unit_disc":
            if nums:
                raise ValueError(f"unit_disc takes no numbers, not {' '.join(tokens)!r}")
            return unit_disc()
        if kind == "ellipse":
            if len(nums) != 2:
                raise ValueError("ellipse needs two semi-axes: 'ellipse A B'")
            return ellipse(*nums)
        radius = nums.pop(0) if kind == "smoothed_polygon" and nums else None
        if len(nums) < 6 or len(nums) % 2:
            raise ValueError("polygon needs a flat list of >= 3 coordinate pairs")
        verts = [complex(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)]
        return polygon(verts) if radius is None else smoothed_polygon(verts, radius)
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from None


def _parse_density(text: str, domain: DomainSpec) -> tuple[str, float | None]:
    """(kind, value) of a ``density`` value: a kind of DENSITY_KINDS, with
    one number 0 < C < inf after ``constant`` and none after the others."""
    kind, *tokens = text.split()
    if kind not in DENSITY_KINDS:
        raise ConfigError(f"density: unknown density kind {kind!r}; pick one of {DENSITY_KINDS}")
    if kind != CONSTANT:
        if tokens:
            raise ConfigError(f"density: {kind} takes no value, not {' '.join(tokens)!r}")
        if kind == HYPERBOLIC and domain != unit_disc():
            raise ConfigError("density: hyperbolic lives on the unit disc only")
        return kind, None
    if len(tokens) != 1:
        raise ConfigError("density: constant needs one value: 'constant C'")
    value = _number(float, "density", tokens[0])
    if not 0 < value < math.inf:
        raise ConfigError(f"density: constant C needs 0 < C < inf, not {tokens[0]}")
    return kind, value


def _parse_map(name: str, domain: DomainSpec) -> AnalyticMap:
    """The catalog map of a ``map`` value, into the domain; an unknown name
    or a map that leaves its target is a ConfigError naming the key."""
    try:
        return from_name(name, domain)
    except ValueError as exc:
        raise ConfigError(f"map: {exc}") from None


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    items: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        items[key] = " ".join(value.split())
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                items[key] = str(value)
    for key, (_, default, _) in _KEYS.items():
        if default is None and not items.get(key, "").strip():
            raise ConfigError(f"missing required config key {key!r}")
    merged = {key: default for key, (_, default, _) in _KEYS.items() if default is not None}
    merged.update(items)

    experiment = merged["experiment"]
    if experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {experiment!r}; pick one of {tuple(_RUNNERS)}")
    domain = _parse_domain(merged["domain"])
    density_kind, density_value = _parse_density(merged["density"], domain)

    numbers = {}
    for key, (kind, _, interval) in _KEYS.items():
        if kind is None:
            continue
        tokens = merged[key].split() if kind is list else [merged[key]]
        values = [_number(float if kind is list else kind, key, t) for t in tokens]
        for token, value in zip(tokens, values):
            if interval and not _within(value, interval):
                raise ConfigError(f"{key} must be in {interval}, not {token}")
        numbers[key] = np.array(values) if kind is list else values[0]
    radii_k, steps_k = numbers.pop("radii_k"), numbers.pop("steps_k")
    if np.any(np.diff(radii_k) <= 0) or np.any(np.diff(steps_k) <= 0):
        raise ConfigError("ladders radii_k and steps_k must be strictly increasing")
    if np.any(np.diff(numbers["ring_distances"]) >= 0):
        raise ConfigError("ring_distances must be strictly decreasing")

    return ExperimentConfig(
        experiment=experiment,
        domain=domain,
        density_kind=density_kind,
        density_value=density_value,
        map=_parse_map(merged["map"], domain),
        radii=1.0 - 2.0 ** (-radii_k),
        steps=2.0 ** (-steps_k),
        # the output directory does not change what gets computed, so it
        # stays out of the echo and the hash
        out_dir=merged.pop("out"),
        raw=merged,
        **numbers,
    )


def parse_config_file(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), overrides)


# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    experiment: str
    passed: bool
    checks: list[dict]
    curves: dict[str, dict]
    flags: list[str]
    notes: list[str]
    values: dict[str, float]
    config_echo: dict[str, str]
    config_hash: str
    seed: int
    tool_version: str = __version__


def _check(name: str, passed: bool, **detail) -> dict:
    out = {"name": name, "passed": bool(passed)}
    for k, v in detail.items():
        out[k] = float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else v
    return out


def _curve_dict(abscissa, values) -> dict:
    return {
        "abscissa": [float(v) for v in abscissa],
        "values": [float(v) for v in values],
    }


def emit_report(report: VerificationReport, out_dir) -> list[str]:
    """Write the JSON summary plus one two-column file per curve.

    File names derive from the config hash, contents carry 17 significant
    digits; identical configs therefore reproduce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{report.experiment.replace('-', '_')}_{report.config_hash}"
    paths = []
    summary = os.path.join(out_dir, f"{stem}.json")
    with open(summary, "w") as fh:
        # the report holds only plain dicts and lists: its fields need no
        # deep copy to be encoded
        fh.write(json.dumps(vars(report), indent=2, sort_keys=True) + "\n")
    paths.append(summary)
    for name, curve in report.curves.items():
        data_path = os.path.join(out_dir, f"{stem}.{name}.dat")
        with open(data_path, "w") as fh:
            for x, y in zip(curve["abscissa"], curve["values"]):
                fh.write(f"{x:.17g} {y:.17g}\n")
        paths.append(data_path)
    return paths


def load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# shared experiment plumbing


# kernel models by (grid key, degree, kernel resolution), read and never
# written here: a caller that preloads a stored kernel puts it in; every
# other Bergman density fits its own, in milliseconds
_KERNEL_CACHE: dict = {}


def _build_density(cfg: ExperimentConfig) -> MetricDensity:
    if cfg.density_kind == HYPERBOLIC:
        return hyperbolic_density()
    if cfg.density_kind == QUASIHYPERBOLIC:
        return quasihyperbolic_density(cfg.domain)
    if cfg.density_kind == CONSTANT:
        return constant_density(cfg.domain, cfg.density_value)
    model = _KERNEL_CACHE.get((cfg.domain.grid_key(), cfg.kernel_degree, cfg.kernel_resolution))
    if model is None:
        model = fit_kernel_model(cfg.domain, degree=cfg.kernel_degree,
                                 resolution=cfg.kernel_resolution)
    return bergman_metric_density(model)


def _fit_curve(entry: dict, curve, name: str, fits: dict, flags: list) -> None:
    """Fit ``curve``'s exponent into ``fits[name]`` and ``entry["fit"]``, or
    record the failure as flag ``<name>-fit-failed`` and ``entry["error"]``."""
    try:
        fits[name] = fit_exponent(curve)
        entry["fit"] = asdict(fits[name])
    except InsufficientDataError as err:
        flags.append(f"{name}-fit-failed")
        entry["error"] = str(err)


def _exponent_report(cfg: ExperimentConfig, p: float, label: str):
    """Means curve of f*, trace modulus curve, and their exponent fits.

    Returns (curves, fits, flags, checks, notes, gap).  ``checks`` and
    ``notes`` hold the whole verdict when it is decided before any exponent
    is compared: a divergent modulus (trace touching the boundary) fails
    ``modulus_finite``, and two identically vanishing curves pass
    ``zero_curves_trivial_pass``; otherwise both are empty.  ``gap`` is the
    relative change of the largest-step modulus when the circle sampling
    doubles (closed-form distance evaluators only; None otherwise).
    """
    omega = _build_density(cfg)
    d = omega.closed_form or geodesic_evaluator(omega, cfg.resolution,
                                                max_sweeps=cfg.refine_sweeps)
    fits: dict[str, object] = {}
    flags: list[str] = []
    checks: list[dict] = []
    notes: list[str] = []
    gap = None

    mc = means_curve(lambda zs: weighted_derivative(cfg.map, omega, zs), cfg.radii, p,
                     cfg.circle_samples)
    curves = {f"means_{label}": _curve_dict(mc.abscissa, mc.values)}
    zero = bool(np.all(mc.values < 1e-14))
    if not zero:
        _fit_curve(curves[f"means_{label}"], mc, "means", fits, flags)

    # the n-sample trace is the even samples of the 2n-sample one: angle 2j
    # of 2n rounds exactly like angle j of n, and the map values agree bit
    # for bit (test_boundary_trace_even_samples_of_the_doubled_trace)
    fine = boundary_trace(cfg.map, 2 * cfg.circle_samples, cfg.trace_radius)
    tr = fine[::2].copy()
    try:
        sc = modulus_curve(tr, d, cfg.steps, p, screen=omega.sup_screen)
        curves[f"modulus_{label}"] = _curve_dict(sc.abscissa, sc.values)
        if not np.all(sc.values < 1e-14):
            zero = False
            _fit_curve(curves[f"modulus_{label}"], sc, "modulus", fits, flags)
            if omega.closed_form is not None:
                # the ladder's first modulus is the probe at the sampling
                # of ``tr``; only the doubled sampling's modulus is computed
                a = float(sc.values[0])
                b = doubled_sampling_modulus(fine, d, p, float(cfg.steps[0]),
                                             screen=omega.sup_screen)
                gap = abs(b - a) / max(abs(b), 1e-300)
    except DivergentValueError as err:
        flags.append("divergent-modulus")
        curves[f"modulus_{label}"] = {"abscissa": [], "values": [],
                                      "error": str(err)}
        checks.append(_check("modulus_finite", False,
                             detail="trace pair distances diverged"))
        zero = False
    if zero:
        flags.append("zero-curves")
        checks.append(_check("zero_curves_trivial_pass", True))
        notes.append("both curves vanish identically; equivalence holds trivially")
    return curves, fits, flags, checks, notes, gap


def _curves_fittable(checks: list, fits: dict, flags: list) -> bool:
    """True when no verdict is decided yet and both exponents were fitted;
    a missing fit fails ``curves_fittable`` with the flags as its detail."""
    if checks:
        return False
    if "means" in fits and "modulus" in fits:
        return True
    checks.append(_check("curves_fittable", False, detail="; ".join(flags)))
    return False


def _circle_sampling_converged(checks: list, values: dict, gap) -> None:
    if gap is not None:
        values["sampling_convergence"] = float(gap)
        checks.append(_check("circle_sampling_converged", gap < 0.005,
                             observed=gap, tolerance=0.005))


def _report(cfg: ExperimentConfig, experiment: str, checks: list, curves: dict,
            flags: list, notes: list, values: dict) -> VerificationReport:
    return VerificationReport(
        experiment=experiment, passed=all(c["passed"] for c in checks),
        checks=checks, curves=curves, flags=flags, notes=notes, values=values,
        config_echo=dict(cfg.raw), config_hash=cfg.config_hash(), seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# experiment runners


def run_theorem1_check(cfg: ExperimentConfig) -> VerificationReport:
    """Sup-growth of f* against the sup Lipschitz modulus of the trace.

    Both sides must independently measure the configured exponent: the sup
    means slope targets alpha - 1, the sup modulus slope targets alpha, and
    the two implied exponents must agree.  A divergent modulus (trace values
    on the target boundary) fails the run and is flagged.
    """
    if cfg.density_kind not in BLOW_UP_KINDS:
        raise ConfigError("the sup-growth equivalence needs a density that blows "
                          "up at the boundary (hyperbolic, quasihyperbolic, bergman)")
    curves, fits, flags, checks, notes, gap = _exponent_report(cfg, math.inf, "sup")
    tol = cfg.tolerance
    values = {}
    if "means" in fits:
        means_alpha = fits["means"].slope + 1.0
        values["implied_alpha_means"] = float(means_alpha)
        # exponents at or beyond the (0, 1] edges (identity map: alpha -> 0)
        if not (tol / 2 < means_alpha <= 1 + tol):
            flags.append("alpha-out-of-range")
    if _curves_fittable(checks, fits, flags):
        mod_alpha = fits["modulus"].slope
        values["implied_alpha_modulus"] = float(mod_alpha)
        checks.append(_check("means_exponent_matches_alpha",
                             abs(means_alpha - cfg.alpha) <= tol,
                             observed=means_alpha, target=cfg.alpha, tolerance=tol))
        checks.append(_check("modulus_exponent_matches_alpha",
                             abs(mod_alpha - cfg.alpha) <= tol,
                             observed=mod_alpha, target=cfg.alpha, tolerance=tol))
        checks.append(_check("exponents_agree",
                             abs(means_alpha - mod_alpha) <= tol,
                             means_side=means_alpha, modulus_side=mod_alpha,
                             tolerance=tol))
        _circle_sampling_converged(checks, values, gap)
    return _report(cfg, "hl1", checks, curves, flags, notes, values)


def run_theorem23_check(cfg: ExperimentConfig) -> VerificationReport:
    """p-mean growth of f* against the p-mean Lipschitz modulus of the trace.

    Forward direction (any density): small means growth must force the
    modulus exponent up.  Converse direction: checked only on the unit disc
    with the hyperbolic or Bergman density, where automorphism transitivity
    holds; elsewhere it is skipped and noted.  alpha = 1 is handled as
    boundedness of the means curve.
    """
    if not (cfg.p < math.inf):
        raise ConfigError("the p-mean equivalence needs a finite p")
    curves, fits, flags, checks, notes, gap = \
        _exponent_report(cfg, cfg.p, f"p{cfg.p:g}")
    tol = cfg.tolerance
    alpha = cfg.alpha
    values = {}
    if _curves_fittable(checks, fits, flags):
        means_slope = fits["means"].slope
        mod_slope = fits["modulus"].slope
        values["means_slope"] = float(means_slope)
        values["modulus_slope"] = float(mod_slope)
        values["implied_alpha_means"] = float(means_slope + 1.0)
        values["implied_alpha_modulus"] = float(mod_slope)
        if alpha == 1.0:
            mvals = np.asarray(curves[f"means_p{cfg.p:g}"]["values"])
            bounded = means_slope >= -0.05 and float(mvals.max()) <= 2.0 * float(mvals[0])
            checks.append(_check("means_curve_bounded", bounded,
                                 slope=means_slope,
                                 growth=float(mvals.max() / max(mvals[0], 1e-300))))
        forward_premise = means_slope <= (alpha - 1.0) + tol
        forward_ok = (not forward_premise) or (mod_slope >= alpha - tol)
        checks.append(_check("forward_growth_implies_modulus", forward_ok,
                             premise=bool(forward_premise), means_slope=means_slope,
                             modulus_slope=mod_slope, alpha=alpha, tolerance=tol))
        converse_applicable = (cfg.domain == unit_disc()
                               and cfg.density_kind in (HYPERBOLIC, BERGMAN))
        if converse_applicable:
            converse_premise = abs(mod_slope - alpha) <= tol
            converse_ok = (not converse_premise) or abs(means_slope - (alpha - 1.0)) <= tol
            checks.append(_check("converse_modulus_implies_growth", converse_ok,
                                 premise=bool(converse_premise),
                                 means_slope=means_slope, modulus_slope=mod_slope,
                                 alpha=alpha, tolerance=tol))
        else:
            notes.append("converse direction skipped: automorphism transitivity "
                         "is only assumed on the unit disc with the hyperbolic "
                         "or Bergman density")
        checks.append(_check("exponents_mutually_consistent",
                             abs(mod_slope - (means_slope + 1.0)) <= tol,
                             means_plus_one=float(means_slope + 1.0),
                             modulus_slope=mod_slope, tolerance=tol))
        _circle_sampling_converged(checks, values, gap)
    return _report(cfg, "hl2", checks, curves, flags, notes, values)


def run_yamashita_check(cfg: ExperimentConfig) -> VerificationReport:
    """Hyperbolic specialization: the weighted derivative must equal the
    hyperbolic derivative modulus |f'| / (1 - |f|^2) verbatim, and the sup
    pipeline must behave as in the general boundary-growth check."""
    if cfg.domain != unit_disc() or cfg.density_kind != HYPERBOLIC:
        raise ConfigError("the hyperbolic specialization runs on the unit disc "
                          "with the hyperbolic density")
    omega = _build_density(cfg)
    f = cfg.map
    rng = np.random.default_rng(cfg.seed)
    zs = 0.9 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    verbatim_gap = float(np.max(np.abs(
        weighted_derivative(f, omega, zs) - hyperbolic_derivative_modulus(f, zs))))

    sub = run_theorem1_check(cfg)
    checks = [_check("hyperbolic_derivative_verbatim", verbatim_gap <= 1e-15,
                     observed=verbatim_gap, tolerance=1e-15), *sub.checks]
    values = dict(sub.values)
    values["hyperbolic_derivative_at_0"] = float(hyperbolic_derivative_modulus(f, 0.0))
    return _report(cfg, "yamashita", checks, sub.curves, sub.flags, sub.notes, values)


def _ring_points(domain: DomainSpec, anchor: complex, directions: np.ndarray,
                 targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points on the rays anchor + s * direction (rows) near the boundary
    distances ``targets`` (columns), and their boundary distances, both nan
    where a point misses its target by more than 2%: bisection on the
    inside-with-clearance predicate, all points at once, each distance the
    one that the last bisection step's ``curve_distance`` measured."""
    span = 4.0 * domain.half_diagonal
    want = np.broadcast_to(targets, (directions.size, targets.size))
    lo, hi = np.zeros(want.shape), np.ones(want.shape)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        z = anchor + mid * span * directions[:, None]
        ok = contains(domain, z)
        ok[ok] = curve_distance(domain, z[ok]) > want[ok]
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    z = anchor + lo * span * directions[:, None]
    d = curve_distance(domain, z)
    miss = np.abs(d - want) > 0.02 * want
    return np.where(miss, np.nan, z), np.where(miss, np.nan, d)


def _band_check(name: str, values: np.ndarray, cap: float, needed: int = 1, **detail) -> dict:
    """Passes when at least ``needed`` values were measured and each lies in
    [1/cap, cap]; lo and hi read nan when there is none."""
    lo, hi = (float(values.min()), float(values.max())) if values.size else (math.nan, math.nan)
    return _check(name, values.size >= needed and 1 / cap <= lo and hi <= cap,
                  lo=lo, hi=hi, cap=cap, **detail)


def run_qh_comparability(cfg: ExperimentConfig) -> VerificationReport:
    """Does the configured density behave like the reciprocal boundary
    distance?  Samples rays toward the boundary at dyadic distances, checks
    the products density * boundary_distance stay in [1/C, C] without
    drifting, and compares geodesic distances under both densities on seeded
    pairs."""
    # fewer would leave the ring-drift or distance check nothing to measure
    if cfg.ring_distances.size < 2:
        raise ConfigError("ring_distances needs at least 2 distances")
    if cfg.compare_pairs < 1:
        raise ConfigError("compare_pairs must be at least 1")
    domain = cfg.domain
    anchor = interior_anchor(domain)
    ring = cfg.ring_distances
    max_ring = 0.9 * float(curve_distance(domain, anchor))
    if ring.max() > max_ring:
        raise ConfigError(f"ring_distances: {ring.max()} exceeds the anchor's "
                          f"boundary clearance {max_ring:.3f}")
    omega = _build_density(cfg)
    directions = np.exp(1j * (2 * np.pi * np.arange(cfg.rays) / cfg.rays))
    points, dist = _ring_points(domain, anchor, directions, ring)
    ratios = np.full(points.shape, np.nan)
    for i in range(cfg.rays):
        for j in np.flatnonzero(~np.isnan(points[i])):
            try:
                ratios[i, j] = float(omega.eval_array(points[i, j:j + 1])[0] * dist[i, j])
            except KernelInstabilityError:
                # this ring and every ring nearer the boundary on the ray
                break
    # every evaluated ratio is finite, so each nan ratio is a dropped sample
    finite = np.isfinite(ratios)
    dropped = int(ratios.size - finite.sum())
    notes = [f"{dropped} ring samples dropped (instability or ray geometry); last "
             f"trusted ring per ray is what remains"] if dropped else []
    flags = ["kernel-instability"] if np.any(~finite & ~np.isnan(points)) else []
    curves = {f"ring_{j}": _curve_dict([dd] * finite[:, j].sum(), ratios[finite[:, j], j])
              for j, dd in enumerate(ring) if finite[:, j].any()}
    checks = [_band_check("ratios_within_band", ratios[finite], cfg.comparability_cap)]
    # a ray counts when it measured both innermost rings; with none, nothing agreed
    inner = ratios[np.all(finite[:, -2:], axis=1), -2:]
    inner_worst = float((inner.min(axis=1) / inner.max(axis=1)).min()) if inner.size else math.nan
    checks.append(_check("innermost_rings_agree", inner_worst >= 0.75,
                         worst_agreement=inner_worst, required=0.75))
    values = {"worst_inner_ring_agreement": inner_worst}

    # geodesic distances under the density vs the quasihyperbolic one
    pairs = list(itertools.islice(_seeded_pairs(cfg, 200 * cfg.compare_pairs),
                                  cfg.compare_pairs))
    ratios = []
    for pair in zip(*(_pair_distances(cfg, density, pairs)
                      for density in (omega, quasihyperbolic_density(domain)))):
        for res in pair:
            if isinstance(res, MetricLabError):
                raise res
        ratios.append(pair[0].distance / pair[1].distance)
    pair_ratios = np.array(ratios)
    checks.append(_band_check("distance_ratio_within_band", pair_ratios, cfg.distance_cap,
                              needed=cfg.compare_pairs, pairs=int(pair_ratios.size)))
    curves["distance_ratios"] = _curve_dict(np.arange(pair_ratios.size), pair_ratios)
    return _report(cfg, "qh-compare", checks, curves, flags, notes, values)


def _sample_interior(domain: DomainSpec, rng, count: int, margin: float) -> np.ndarray:
    """``count`` uniform draws from the bounding box that lie inside with
    clearance ``margin``, out of at most 10,000 draws (configs need a few
    dozen); a margin that leaves no room is a ConfigError."""
    xmin, xmax, ymin, ymax = domain.bounding_box
    out = []
    for _ in range(10_000):
        if len(out) == count:
            break
        z = complex(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        if clear_of_boundary(domain, z, margin):
            out.append(z)
    if len(out) < count:
        raise ConfigError(f"pair_margin: {len(out)} of {count} points in 10,000 draws "
                          f"clear the boundary by the margin {margin:g} "
                          f"(max of pair_margin and 2 resolution)")
    return np.array(out, dtype=complex)


def _seeded_pairs(cfg: ExperimentConfig, draws: int):
    """The config seed's interior pairs (z, w): ``draws`` draws with the
    pair margin, skipping pairs less than four grid steps apart."""
    rng = np.random.default_rng(cfg.seed)
    margin = max(2 * cfg.resolution, cfg.pair_margin)
    for _ in range(draws):
        z, w = _sample_interior(cfg.domain, rng, 2, margin)
        if abs(z - w) >= 4 * cfg.resolution:
            yield z, w


def _pair_distances(cfg: ExperimentConfig, omega: MetricDensity, pairs) -> list:
    """Each pair's GeodesicResult or MetricLabError, from one batch solve."""
    return weighted_distances(omega, [z for z, _ in pairs], [w for _, w in pairs],
                              cfg.resolution, max_sweeps=cfg.refine_sweeps)


def run_nt_bound_fit(cfg: ExperimentConfig) -> VerificationReport:
    """Two-sided logarithmic bounds on the kernel-induced distance.

    For sampled pairs (z, w) the distance beta must satisfy
    sqrt(2) log(1 + |z-w| / (c sqrt(d(z) d(w)))) <= beta
    <= sqrt(2) log(1 + c |z-w| / sqrt(d(z) d(w))); the run certifies the
    smallest c >= 1 that works for every pair and passes when it stays under
    the configured cap.
    """
    if cfg.density_kind != BERGMAN:
        raise ConfigError("the two-sided bound certificate is about the "
                          "kernel-induced density; set 'density = bergman'")
    omega = _build_density(cfg)
    domain = cfg.domain
    root2 = math.sqrt(2.0)

    # batches of the pairs still needed, so the pairs drawn are those of
    # solving one at a time until the target is kept
    excluded = 0
    kept, betas = [], []
    target = cfg.pairs
    draws = _seeded_pairs(cfg, 400 * target)
    while batch := list(itertools.islice(draws, target - len(betas))):
        for pair, res in zip(batch, _pair_distances(cfg, omega, batch)):
            if isinstance(res, MetricLabError):
                excluded += 1
            else:
                kept.append(pair)
                betas.append(res.distance)
    d = curve_distance(domain, np.array([p for pair in kept for p in pair], dtype=complex))
    c_required, qs = [], []
    for (z, w), dz, dw, beta in zip(kept, d[0::2], d[1::2], betas):
        q = abs(z - w) / math.sqrt(float(dz) * float(dw))
        e = math.expm1(beta / root2)
        c_required.append(max(1.0, e / q, q / e))
        qs.append(q)

    c_star = float(max(c_required)) if c_required else math.inf
    ok = c_star <= cfg.nt_cap and len(betas) == target
    checks = [_check("finite_certificate_constant", ok, c_star=c_star,
                     cap=cfg.nt_cap, pairs=int(len(betas)), excluded=excluded)]
    qs, betas = np.asarray(qs), np.asarray(betas)
    margins_up = root2 * np.log1p(c_star * qs) - betas
    margins_lo = betas - root2 * np.log1p(qs / c_star)
    values = {
        "c_star": c_star,
        "upper_margin_min": float(margins_up.min()) if betas.size else math.nan,
        "upper_margin_median": float(np.median(margins_up)) if betas.size else math.nan,
        "lower_margin_min": float(margins_lo.min()) if betas.size else math.nan,
        "lower_margin_median": float(np.median(margins_lo)) if betas.size else math.nan,
        "excluded_pairs": float(excluded),
    }
    curves = {"beta_vs_q": _curve_dict(qs, betas)}
    return _report(cfg, "nt-bounds", checks, curves, [], [], values)


_RUNNERS = {
    "hl1": run_theorem1_check,
    "hl2": run_theorem23_check,
    "yamashita": run_yamashita_check,
    "qh-compare": run_qh_comparability,
    "nt-bounds": run_nt_bound_fit,
}


def run_experiment(cfg: ExperimentConfig) -> VerificationReport:
    return _RUNNERS[cfg.experiment](cfg)
