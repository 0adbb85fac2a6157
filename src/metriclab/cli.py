"""Command-line interface.

Subcommands: ``density eval``, ``distance``, ``means``, ``modulus``,
``verify <hl1|hl2|yamashita|qh-compare|nt-bounds>``, ``report``.

Exit codes: 0 = all criteria passed, 1 = a criterion failed,
2 = configuration or numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import MetricLabError
from .experiments import (
    _RUNNERS,
    _build_density,
    emit_report,
    load_report,
    parse_config_file,
    run_experiment,
)
from .growth import fit_exponent, means_curve, modulus_curve
from .maps import boundary_trace, weighted_derivative
from .metrics import density_eval, geodesic_evaluator, weighted_distance, write_path_file


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="metriclab",
        description="weighted metrics and boundary-growth experiments "
                    "on bounded plane domains",
    )
    ap.add_argument("--version", action="version", version=f"metriclab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--resolution", type=float, help="geodesic grid step override")
        p.add_argument("--degree", type=int, dest="kernel_degree",
                       help="kernel degree override")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--tolerance", type=float, help="exponent tolerance override")

    density = sub.add_parser("density", help="metric density operations")
    dsub = density.add_subparsers(dest="density_command", required=True)
    deval = dsub.add_parser("eval", help="evaluate the configured density at a point")
    deval.add_argument("point", help="complex point, e.g. '0.3+0.1j'")
    common(deval, _cmd_density_eval)

    dist = sub.add_parser("distance", help="weighted geodesic distance")
    dist.add_argument("z", help="first endpoint, e.g. '0'")
    dist.add_argument("w", help="second endpoint, e.g. '0.5'")
    common(dist, _cmd_distance)

    means = sub.add_parser("means", help="integral means curve of f* with fit")
    common(means, _cmd_means)

    modulus = sub.add_parser("modulus", help="trace Lipschitz modulus curve with fit")
    common(modulus, _cmd_modulus)

    verify = sub.add_parser("verify", help="run a named verification experiment")
    verify.add_argument("experiment", choices=_RUNNERS)
    common(verify, _cmd_verify)

    report = sub.add_parser("report", help="print the verdicts of a stored report")
    report.add_argument("path", help="report summary .json file")
    report.set_defaults(run=_cmd_report)
    return ap


def _load_config(args):
    keys = ("experiment", "out", "resolution", "kernel_degree", "seed", "tolerance")
    # ``experiment`` is an argument of verify only
    return parse_config_file(args.config, {k: getattr(args, k, None) for k in keys})


def _cmd_density_eval(args) -> int:
    cfg = _load_config(args)
    omega = _build_density(cfg)
    z = complex(args.point)
    value = density_eval(omega, z)
    print(f"{cfg.density_kind} density at {z}: {value:.12g}")
    return 0


def _cmd_distance(args) -> int:
    cfg = _load_config(args)
    omega = _build_density(cfg)
    z, w = complex(args.z), complex(args.w)
    res = weighted_distance(omega, z, w, cfg.resolution, max_sweeps=cfg.refine_sweeps)
    print(f"d({z}, {w}) = {res.distance:.12g}  "
          f"[resolution {res.resolution}, refinement gain {res.refinement_gain:.2e}]")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"path_{cfg.config_hash()}.dat")
        write_path_file(res.path, path)
        print(f"wrote {path}")
    return 0


def _cmd_means(args) -> int:
    cfg = _load_config(args)
    omega = _build_density(cfg)
    curve = means_curve(lambda zs: weighted_derivative(cfg.map, omega, zs),
                        cfg.radii, cfg.p, cfg.circle_samples)
    fit = fit_exponent(curve)
    for r, v in zip(cfg.radii, curve.values):
        print(f"r = {r:.6f}  m_p = {v:.10g}")
    print(f"slope vs log(1-r): {fit.slope:+.4f}  (R^2 = {fit.r_squared:.6f}); "
          f"implied exponent {fit.slope + 1:+.4f}")
    return 0


def _cmd_modulus(args) -> int:
    cfg = _load_config(args)
    omega = _build_density(cfg)
    trace = boundary_trace(cfg.map, cfg.circle_samples, cfg.trace_radius)
    d = omega.closed_form or geodesic_evaluator(omega, cfg.resolution,
                                                max_sweeps=cfg.refine_sweeps)
    curve = modulus_curve(trace, d, cfg.steps, cfg.p, screen=omega.sup_screen)
    fit = fit_exponent(curve)
    for h, v in zip(cfg.steps, curve.values):
        print(f"h = {h:.6f}  M = {v:.10g}")
    print(f"slope vs log h: {fit.slope:+.4f}  (R^2 = {fit.r_squared:.6f})")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    paths = emit_report(report, cfg.out_dir)
    for check in report.checks:
        state = "PASS" if check["passed"] else "FAIL"
        print(f"[{state}] {check['name']}")
    print(f"report: {paths[0]}")
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    data = load_report(args.path)
    print(f"experiment {data['experiment']} "
          f"(config {data['config_hash']}, tool {data['tool_version']})")
    for check in data["checks"]:
        state = "PASS" if check["passed"] else "FAIL"
        extras = {k: v for k, v in check.items() if k not in ("name", "passed")}
        print(f"[{state}] {check['name']} {extras if extras else ''}")
    for flag in data.get("flags", []):
        print(f"flag: {flag}")
    return 0 if data["passed"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (MetricLabError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
