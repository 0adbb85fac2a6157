"""Experiment driver: composes domains, densities, maps, and growth analysis
into named verification experiments, emitting machine-readable reports.

Each experiment measures boundary-regularity and growth exponents from two
independent sides of an equivalence and compares them; reports are
self-contained (every verdict is recomputable from recorded numbers) and
byte-deterministic for a fixed config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

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
    contains,
    curve_distance,
    ellipse,
    interior_anchor,
    polygon,
    smoothed_polygon,
    unit_disc,
)
from .growth import fit_exponent, means_curve, modulus_curve
from .maps import (
    boundary_trace,
    from_name,
    hyperbolic_derivative_modulus,
    weighted_derivative,
)
from .metrics import (
    BERGMAN,
    CONSTANT,
    HYPERBOLIC,
    QUASIHYPERBOLIC,
    MetricDensity,
    bergman_metric_density,
    constant_density,
    geodesic_evaluator,
    hyperbolic_distance_closed,
    quasihyperbolic_density,
    scaled_euclidean_evaluator,
    weighted_distance,
)

_EXPERIMENTS = ("hl1", "hl2", "yamashita", "qh-compare", "nt-bounds")

_DEFAULTS = {
    "alpha": "0.5",
    "p": "1",
    "radii_k": "2 3 4 5 6 7 8 9",
    "steps_k": "3 4 5 6 7 8",
    "circle_samples": "4096",
    "resolution": "0.01",
    "kernel_degree": "40",
    "kernel_resolution": "0.01",
    "seed": "1234",
    "tolerance": "0.1",
    "trace_radius": "1",
    "rays": "16",
    "ring_distances": "0.4 0.2 0.1 0.05",
    "comparability_cap": "3",
    "distance_cap": "6",
    "compare_pairs": "12",
    "pairs": "200",
    "nt_cap": "10",
    "pair_margin": "0.1",
    "refine_sweeps": "24",
    "out": "reports",
}

_KNOWN_KEYS = set(_DEFAULTS) | {"experiment", "domain", "density", "map"}


@dataclass
class ExperimentConfig:
    """Parsed experiment description; ``raw`` holds the normalized key-value
    lines that the config hash and the report echo are derived from."""

    experiment: str
    domain: DomainSpec
    density_kind: str
    density_value: float | None
    map_name: str
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
        # the output directory does not change what gets computed
        text = "\n".join(f"{k} = {self.raw[k]}" for k in sorted(self.raw)
                         if k != "out")
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _parse_domain(text: str) -> DomainSpec:
    parts = text.split()
    kind = parts[0]
    if kind == "unit_disc":
        return unit_disc()
    if kind == "ellipse":
        if len(parts) != 3:
            raise ConfigError("ellipse needs two semi-axes: 'ellipse A B'")
        return ellipse(float(parts[1]), float(parts[2]))
    if kind in ("polygon", "smoothed_polygon"):
        if kind == "smoothed_polygon":
            radius, coords = float(parts[1]), [float(v) for v in parts[2:]]
        else:
            radius, coords = None, [float(v) for v in parts[1:]]
        if len(coords) < 6 or len(coords) % 2:
            raise ConfigError("polygon needs a flat list of >= 3 coordinate pairs")
        verts = [complex(coords[i], coords[i + 1]) for i in range(0, len(coords), 2)]
        return polygon(verts) if radius is None else smoothed_polygon(verts, radius)
    raise ConfigError(f"unknown domain kind {kind!r}")


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    items: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        items[key] = " ".join(value.split())
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                items[key] = str(value)
    for key in ("experiment", "domain", "density"):
        if key not in items:
            raise ConfigError(f"missing required config key {key!r}")
    merged = dict(_DEFAULTS)
    merged.update(items)
    if "map" not in merged:
        merged["map"] = "identity"

    experiment = merged["experiment"]
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; pick one of {_EXPERIMENTS}")
    density_parts = merged["density"].split()
    density_kind = density_parts[0]
    if density_kind not in (HYPERBOLIC, QUASIHYPERBOLIC, BERGMAN, CONSTANT):
        raise ConfigError(f"unknown density kind {density_kind!r}")
    density_value = None
    if density_kind == CONSTANT:
        if len(density_parts) != 2:
            raise ConfigError("constant density needs a value: 'constant C'")
        density_value = float(density_parts[1])

    alpha = float(merged["alpha"])
    if not (0 < alpha <= 1):
        raise ConfigError("alpha must lie in (0, 1]")
    p = float(merged["p"])
    if p < 1:
        raise ConfigError("p must satisfy p >= 1")
    radii_k = np.array([float(k) for k in merged["radii_k"].split()])
    steps_k = np.array([float(k) for k in merged["steps_k"].split()])
    if np.any(np.diff(radii_k) <= 0) or np.any(np.diff(steps_k) <= 0):
        raise ConfigError("ladders radii_k and steps_k must be strictly increasing")
    ring = np.array([float(v) for v in merged["ring_distances"].split()])
    if np.any(np.diff(ring) >= 0):
        raise ConfigError("ring_distances must be strictly decreasing")

    cfg = ExperimentConfig(
        experiment=experiment,
        domain=_parse_domain(merged["domain"]),
        density_kind=density_kind,
        density_value=density_value,
        map_name=merged["map"],
        alpha=alpha,
        p=p,
        radii=1.0 - 2.0 ** (-radii_k),
        steps=2.0 ** (-steps_k),
        circle_samples=int(merged["circle_samples"]),
        resolution=float(merged["resolution"]),
        kernel_degree=int(merged["kernel_degree"]),
        kernel_resolution=float(merged["kernel_resolution"]),
        seed=int(merged["seed"]),
        tolerance=float(merged["tolerance"]),
        trace_radius=float(merged["trace_radius"]),
        rays=int(merged["rays"]),
        ring_distances=ring,
        comparability_cap=float(merged["comparability_cap"]),
        distance_cap=float(merged["distance_cap"]),
        compare_pairs=int(merged["compare_pairs"]),
        pairs=int(merged["pairs"]),
        nt_cap=float(merged["nt_cap"]),
        pair_margin=float(merged["pair_margin"]),
        refine_sweeps=int(merged["refine_sweeps"]),
        out_dir=merged["out"],
        raw=merged,
    )
    return cfg


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

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "checks": self.checks,
            "curves": self.curves,
            "flags": self.flags,
            "notes": self.notes,
            "values": self.values,
            "config_echo": self.config_echo,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tool_version": self.tool_version,
        }


def _check(name: str, passed: bool, **detail) -> dict:
    out = {"name": name, "passed": bool(passed)}
    for k, v in detail.items():
        out[k] = float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else v
    return out


def _curve_dict(abscissa, values, fit=None) -> dict:
    out = {
        "abscissa": [float(v) for v in abscissa],
        "values": [float(v) for v in values],
    }
    if fit is not None:
        out["fit"] = {
            "slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "max_residual": fit.max_residual,
            "n_points": fit.n_points, "n_excluded": fit.n_excluded,
        }
    return out


def emit_report(report: VerificationReport, out_dir) -> list[str]:
    """Write the JSON summary plus one two-column file per curve.

    File names derive from the config hash, contents carry 17 significant
    digits; identical configs therefore reproduce byte-identical files.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    stem = f"{report.experiment.replace('-', '_')}_{report.config_hash}"
    paths = []
    summary = os.path.join(out_dir, f"{stem}.json")
    with open(summary, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
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


_KERNEL_CACHE: dict = {}


def _build_density(cfg: ExperimentConfig) -> MetricDensity:
    if cfg.density_kind == HYPERBOLIC:
        if cfg.domain.kind != "unit_disc":
            raise ConfigError("hyperbolic density requires the unit disc domain")
        from .metrics import hyperbolic_density

        return hyperbolic_density()
    if cfg.density_kind == QUASIHYPERBOLIC:
        return quasihyperbolic_density(cfg.domain)
    if cfg.density_kind == CONSTANT:
        return constant_density(cfg.domain, cfg.density_value)
    key = (cfg.domain.grid_key(), cfg.kernel_degree, cfg.kernel_resolution)
    model = _KERNEL_CACHE.get(key)
    if model is None:
        model = fit_kernel_model(cfg.domain, degree=cfg.kernel_degree,
                                 resolution=cfg.kernel_resolution)
        if len(_KERNEL_CACHE) >= 4:
            _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
        _KERNEL_CACHE[key] = model
    return bergman_metric_density(model)


def _distance_evaluator(cfg: ExperimentConfig, omega: MetricDensity):
    if omega.kind == HYPERBOLIC:
        return hyperbolic_distance_closed
    if omega.kind == CONSTANT:
        return scaled_euclidean_evaluator(omega.value)
    return geodesic_evaluator(omega, cfg.resolution, max_sweeps=cfg.refine_sweeps)


def _fstar_function(f, omega):
    return lambda zs: weighted_derivative(f, omega, zs)


def _exponent_report(cfg: ExperimentConfig, p: float, label: str):
    """Means curve of f*, trace modulus curve, and their exponent fits.

    Returns (omega, f, curves, fits, flags, divergent, sampling_gap) where
    ``divergent`` marks a modulus whose pair distances blew up (trace
    touching the boundary) and ``sampling_gap`` is the relative change of
    the largest-step modulus when the circle sampling doubles (computed for
    closed-form distance evaluators only; None otherwise).
    """
    from .growth import sup_lipschitz_modulus

    omega = _build_density(cfg)
    f = from_name(cfg.map_name, cfg.domain)
    g = _fstar_function(f, omega)
    d = _distance_evaluator(cfg, omega)

    curves: dict[str, dict] = {}
    fits: dict[str, object] = {}
    flags: list[str] = []

    mc = means_curve(g, cfg.radii, p, cfg.circle_samples)
    curves[f"means_{label}"] = _curve_dict(mc.abscissa, mc.values)
    zero_means = bool(np.all(mc.values < 1e-14))
    if not zero_means:
        try:
            fits["means"] = fit_exponent(mc)
            curves[f"means_{label}"]["fit"] = _curve_dict([], [], fits["means"])["fit"]
        except InsufficientDataError as err:
            flags.append("means-fit-failed")
            curves[f"means_{label}"]["error"] = str(err)

    tr = boundary_trace(f, cfg.circle_samples, cfg.trace_radius)
    divergent = False
    zero_mod = False
    sampling_gap = None
    try:
        sc = modulus_curve(tr, d, cfg.steps, p)
        curves[f"modulus_{label}"] = _curve_dict(sc.steps, sc.values)
        zero_mod = bool(np.all(sc.values < 1e-14))
        if not zero_mod:
            try:
                fits["modulus"] = fit_exponent(sc)
                curves[f"modulus_{label}"]["fit"] = _curve_dict([], [], fits["modulus"])["fit"]
            except InsufficientDataError as err:
                flags.append("modulus-fit-failed")
                curves[f"modulus_{label}"]["error"] = str(err)
            if cfg.density_kind in (HYPERBOLIC, CONSTANT):
                from .growth import mean_modulus_at_shifts, shift_ladder_indices

                # the ladder's first modulus is the probe at the sampling
                # of ``tr``; only the doubled sampling is computed anew
                a = float(sc.values[0])
                h0 = float(cfg.steps[0])
                tr2 = boundary_trace(f, 2 * cfg.circle_samples, cfg.trace_radius)
                if p == math.inf:
                    b = sup_lipschitz_modulus(tr2, d, h0)
                else:
                    # same effective shifts on both traces, so the probe
                    # measures sampling density, not ladder quantization
                    ks = shift_ladder_indices(tr.n, h0)
                    b = mean_modulus_at_shifts(tr2, d, p, [2 * k for k in ks])
                sampling_gap = abs(b - a) / max(abs(b), 1e-300)
    except DivergentValueError as err:
        divergent = True
        flags.append("divergent-modulus")
        curves[f"modulus_{label}"] = {"abscissa": [], "values": [],
                                      "error": str(err)}
    if zero_means and not divergent and zero_mod:
        flags.append("zero-curves")
    return omega, f, curves, fits, flags, divergent, sampling_gap


# ---------------------------------------------------------------------------
# experiment runners


def run_theorem1_check(cfg: ExperimentConfig) -> VerificationReport:
    """Sup-growth of f* against the sup Lipschitz modulus of the trace.

    Both sides must independently measure the configured exponent: the sup
    means slope targets alpha - 1, the sup modulus slope targets alpha, and
    the two implied exponents must agree.  A divergent modulus (trace values
    on the target boundary) fails the run and is flagged.
    """
    if cfg.density_kind not in (HYPERBOLIC, QUASIHYPERBOLIC, BERGMAN):
        raise ConfigError("the sup-growth equivalence needs a density that blows "
                          "up at the boundary (hyperbolic, quasihyperbolic, bergman)")
    omega, f, curves, fits, flags, divergent, sampling_gap = \
        _exponent_report(cfg, math.inf, "sup")
    tol = cfg.tolerance
    checks = []
    notes = []
    values = {}
    zero = "zero-curves" in flags
    if "means" in fits:
        means_alpha = fits["means"].slope + 1.0
        values["implied_alpha_means"] = float(means_alpha)
        # exponents at or beyond the (0, 1] edges (identity map: alpha -> 0)
        if not (tol / 2 < means_alpha <= 1 + tol):
            flags.append("alpha-out-of-range")
    if divergent:
        checks.append(_check("modulus_finite", False,
                             detail="trace pair distances diverged"))
    elif zero:
        checks.append(_check("zero_curves_trivial_pass", True))
        notes.append("both curves vanish identically; equivalence holds trivially")
    elif "means" not in fits or "modulus" not in fits:
        checks.append(_check("curves_fittable", False, detail="; ".join(flags)))
    else:
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
        if sampling_gap is not None:
            values["sampling_convergence"] = float(sampling_gap)
            checks.append(_check("circle_sampling_converged",
                                 sampling_gap < 0.005, observed=sampling_gap,
                                 tolerance=0.005))
    passed = all(c["passed"] for c in checks)
    return VerificationReport(
        experiment="hl1", passed=passed, checks=checks, curves=curves,
        flags=flags, notes=notes, values=values,
        config_echo=dict(cfg.raw), config_hash=cfg.config_hash(), seed=cfg.seed,
    )


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
    omega, f, curves, fits, flags, divergent, sampling_gap = \
        _exponent_report(cfg, cfg.p, f"p{cfg.p:g}")
    tol = cfg.tolerance
    alpha = cfg.alpha
    checks = []
    notes = []
    values = {}
    zero = "zero-curves" in flags
    if divergent:
        checks.append(_check("modulus_finite", False,
                             detail="trace pair distances diverged"))
    elif zero:
        checks.append(_check("zero_curves_trivial_pass", True))
        notes.append("both curves vanish identically; equivalence holds trivially")
    elif "means" not in fits or "modulus" not in fits:
        checks.append(_check("curves_fittable", False, detail="; ".join(flags)))
    else:
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
        converse_applicable = (cfg.domain.kind == "unit_disc"
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
        if sampling_gap is not None:
            values["sampling_convergence"] = float(sampling_gap)
            checks.append(_check("circle_sampling_converged",
                                 sampling_gap < 0.005, observed=sampling_gap,
                                 tolerance=0.005))
    passed = all(c["passed"] for c in checks)
    return VerificationReport(
        experiment="hl2", passed=passed, checks=checks, curves=curves,
        flags=flags, notes=notes, values=values,
        config_echo=dict(cfg.raw), config_hash=cfg.config_hash(), seed=cfg.seed,
    )


def run_yamashita_check(cfg: ExperimentConfig) -> VerificationReport:
    """Hyperbolic specialization: the weighted derivative must equal the
    hyperbolic derivative modulus |f'| / (1 - |f|^2) verbatim, and the sup
    pipeline must behave as in the general boundary-growth check."""
    if cfg.domain.kind != "unit_disc" or cfg.density_kind != HYPERBOLIC:
        raise ConfigError("the hyperbolic specialization runs on the unit disc "
                          "with the hyperbolic density")
    omega = _build_density(cfg)
    f = from_name(cfg.map_name, cfg.domain)
    rng = np.random.default_rng(cfg.seed)
    zs = 0.9 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    verbatim_gap = float(np.max(np.abs(
        weighted_derivative(f, omega, zs) - hyperbolic_derivative_modulus(f, zs))))

    sub = run_theorem1_check(cfg)
    checks = list(sub.checks)
    checks.insert(0, _check("hyperbolic_derivative_verbatim",
                            verbatim_gap <= 1e-15, observed=verbatim_gap,
                            tolerance=1e-15))
    values = dict(sub.values)
    values["hyperbolic_derivative_at_0"] = float(hyperbolic_derivative_modulus(f, 0.0))
    passed = all(c["passed"] for c in checks)
    return VerificationReport(
        experiment="yamashita", passed=passed, checks=checks, curves=sub.curves,
        flags=sub.flags, notes=sub.notes, values=values,
        config_echo=dict(cfg.raw), config_hash=cfg.config_hash(), seed=cfg.seed,
    )


def _ring_point(domain: DomainSpec, anchor: complex, direction: complex,
                target_dist: float) -> complex | None:
    """Point on the ray anchor + s*direction with boundary distance close to
    ``target_dist``; bisection on the inside-with-clearance predicate."""
    span = 4.0 * domain.half_diagonal
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        z = anchor + mid * span * direction
        if contains(domain, z) and curve_distance(domain, z) > target_dist:
            lo = mid
        else:
            hi = mid
    z = anchor + lo * span * direction
    if abs(float(curve_distance(domain, z)) - target_dist) > 0.02 * target_dist:
        return None
    return z


def run_qh_comparability(cfg: ExperimentConfig) -> VerificationReport:
    """Does the configured density behave like the reciprocal boundary
    distance?  Samples rays toward the boundary at dyadic distances, checks
    the products density * boundary_distance stay in [1/C, C] without
    drifting, and compares geodesic distances under both densities on seeded
    pairs."""
    omega = _build_density(cfg)
    domain = cfg.domain
    anchor = interior_anchor(domain)
    cap = cfg.comparability_cap
    checks = []
    flags: list[str] = []
    notes = []
    curves: dict[str, dict] = {}
    values = {}

    ring = cfg.ring_distances
    max_ring = 0.9 * float(curve_distance(domain, anchor))
    if ring.max() > max_ring:
        raise ConfigError(f"ring distance {ring.max()} exceeds the anchor's "
                          f"boundary clearance {max_ring:.3f}")
    ratios = np.full((cfg.rays, ring.size), np.nan)
    truncated = 0
    for i in range(cfg.rays):
        theta = 2 * np.pi * i / cfg.rays
        for j, dd in enumerate(ring):
            z = _ring_point(domain, anchor, np.exp(1j * theta), float(dd))
            if z is None:
                truncated += 1
                continue
            try:
                ratios[i, j] = float(omega.eval_array(np.array([z]))[0]
                                     * curve_distance(domain, z))
            except KernelInstabilityError:
                truncated += 1
                flags.append("kernel-instability")
                break
    finite = np.isfinite(ratios)
    if truncated:
        notes.append(f"{truncated} ring samples dropped (instability or ray "
                     f"geometry); last trusted ring per ray is what remains")
    for j, dd in enumerate(ring):
        col = ratios[:, j][finite[:, j]]
        if col.size:
            curves[f"ring_{j}"] = _curve_dict([dd] * col.size, col)
    vals = ratios[finite]
    in_band = bool(np.all((vals >= 1 / cap) & (vals <= cap))) and vals.size > 0
    checks.append(_check("ratios_within_band", in_band,
                         lo=float(vals.min()) if vals.size else math.nan,
                         hi=float(vals.max()) if vals.size else math.nan,
                         cap=cap))
    inner_ok = True
    inner_worst = 1.0
    for i in range(cfg.rays):
        pair = ratios[i, -2:]
        if np.all(np.isfinite(pair)):
            agreement = float(pair.min() / pair.max())
            inner_worst = min(inner_worst, agreement)
            if agreement < 0.75:
                inner_ok = False
    checks.append(_check("innermost_rings_agree", inner_ok,
                         worst_agreement=inner_worst, required=0.75))
    values["worst_inner_ring_agreement"] = float(inner_worst)

    # geodesic distances under the density vs the quasihyperbolic one
    qh = quasihyperbolic_density(domain)
    rng = np.random.default_rng(cfg.seed)
    margin = max(2 * cfg.resolution, cfg.pair_margin)
    pair_ratios = []
    attempts = 0
    while len(pair_ratios) < cfg.compare_pairs and attempts < 200 * cfg.compare_pairs:
        attempts += 1
        pts = _sample_interior(domain, rng, 2, margin)
        z, w = pts
        if abs(z - w) < 4 * cfg.resolution:
            continue
        a = weighted_distance(omega, z, w, cfg.resolution,
                              max_sweeps=cfg.refine_sweeps, full_window=True).distance
        b = weighted_distance(qh, z, w, cfg.resolution,
                              max_sweeps=cfg.refine_sweeps, full_window=True).distance
        pair_ratios.append(a / b)
    pair_ratios = np.asarray(pair_ratios)
    dcap = cfg.distance_cap
    dist_ok = bool(np.all((pair_ratios >= 1 / dcap) & (pair_ratios <= dcap))) \
        and pair_ratios.size == cfg.compare_pairs
    checks.append(_check("distance_ratio_within_band", dist_ok,
                         lo=float(pair_ratios.min()) if pair_ratios.size else math.nan,
                         hi=float(pair_ratios.max()) if pair_ratios.size else math.nan,
                         cap=dcap, pairs=int(pair_ratios.size)))
    curves["distance_ratios"] = _curve_dict(np.arange(pair_ratios.size), pair_ratios)

    passed = all(c["passed"] for c in checks)
    return VerificationReport(
        experiment="qh-compare", passed=passed, checks=checks, curves=curves,
        flags=sorted(set(flags)), notes=notes, values=values,
        config_echo=dict(cfg.raw), config_hash=cfg.config_hash(), seed=cfg.seed,
    )


def _sample_interior(domain: DomainSpec, rng, count: int, margin: float) -> np.ndarray:
    xmin, xmax, ymin, ymax = domain.bounding_box
    out = []
    while len(out) < count:
        z = complex(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
        if contains(domain, z) and float(curve_distance(domain, z)) >= margin:
            out.append(z)
    return np.array(out, dtype=complex)


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
    rng = np.random.default_rng(cfg.seed)
    margin = max(2 * cfg.resolution, cfg.pair_margin)
    root2 = math.sqrt(2.0)

    c_required = []
    excluded = 0
    betas = []
    qs = []
    target = cfg.pairs
    attempts = 0
    while len(betas) < target and attempts < 400 * target:
        attempts += 1
        z, w = _sample_interior(domain, rng, 2, margin)
        if abs(z - w) < 4 * cfg.resolution:
            continue
        try:
            beta = weighted_distance(omega, z, w, cfg.resolution,
                                     max_sweeps=cfg.refine_sweeps,
                                     full_window=True).distance
        except MetricLabError:
            excluded += 1
            continue
        q = abs(z - w) / math.sqrt(float(curve_distance(domain, z))
                                   * float(curve_distance(domain, w)))
        e = math.expm1(beta / root2)
        c_required.append(max(1.0, e / q, q / e))
        betas.append(beta)
        qs.append(q)

    c_star = float(max(c_required)) if c_required else math.inf
    ok = c_star <= cfg.nt_cap and len(betas) == target
    checks = [_check("finite_certificate_constant", ok, c_star=c_star,
                     cap=cfg.nt_cap, pairs=int(len(betas)), excluded=excluded)]
    qs = np.asarray(qs)
    betas = np.asarray(betas)
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
    curves = {
        "beta_vs_q": {"abscissa": [float(v) for v in qs],
                      "values": [float(v) for v in betas]},
    }
    passed = all(c["passed"] for c in checks)
    return VerificationReport(
        experiment="nt-bounds", passed=passed, checks=checks, curves=curves,
        flags=[], notes=[], values=values,
        config_echo=dict(cfg.raw), config_hash=cfg.config_hash(), seed=cfg.seed,
    )


_RUNNERS = {
    "hl1": run_theorem1_check,
    "hl2": run_theorem23_check,
    "yamashita": run_yamashita_check,
    "qh-compare": run_qh_comparability,
    "nt-bounds": run_nt_bound_fit,
}


def run_experiment(cfg: ExperimentConfig) -> VerificationReport:
    return _RUNNERS[cfg.experiment](cfg)
