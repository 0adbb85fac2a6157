"""One benchmark process: set up a workload, run it once, check its outputs.

``run.py`` starts this script in a fresh process for every timed run, so the
run's peak memory is its own and module-level caches start cold.  Modes:

* ``setup``: set up only and report the set-up time;
* ``run``:   set up, run the workload once with only the solve timer in
             place, check the outputs;
* ``trace``: set up, run once untimed by spans, clear the geodesic graph
             cache, run again with every package function wrapped in a span,
             audit every solve's certificate and report per-layer metrics.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# Degree-72, h = 0.01 fit of the 1.5 x 1 ellipse made by make_reference.py at
# the reference commit.  nt-pairs loads it in set-up instead of refitting, because
# the fit takes tens of seconds and kernel-fit already measures it.
KERNEL_PATH = os.path.join(HERE, "ellipse_1.5x1_deg72_h0.01.kernel")

ELLIPSE = (1.5, 1.0)
KERNEL_DEGREE = 72
KERNEL_RESOLUTION = 0.01
ORACLE_POINTS = 200
ORACLE_MIN_DIST = 0.1
# The reference fit is within 2.1e-5 of the oracle at the points of 50 seeds.
KERNEL_TOL = 1e-4
DEFECT_TOL = 1e-6
# the first 100 of the config's 200 pairs: its own seed, 1234, draws them
NT_PAIRS = 100
# Certified distances are upper bounds; a solver change may move them a
# little either way, never by a whole percent.
DIST_RTOL = 1e-2
HL_REPEATS = 24
HL_ALPHAS = (0.3, 0.5, 0.7, 1.0)
VALUE_RTOL = 1e-9
CERT_RTOL = 1e-12

_HL_TEXT = """
experiment = {exp}
domain = unit_disc
density = hyperbolic
map = cusp_a{a:d}
alpha = {alpha}
p = {p}
"""

def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# solve timer: present in every mode, so solve latencies mean the same thing
# in untraced and traced runs


class SolveLog:
    def __init__(self):
        self.latency: list[float] = []
        self.distance: list[float] = []
        self.raised = 0
        self.records: list[tuple] = []   # (omega, z, w, result) when auditing
        self.audit = False

    def clear(self) -> None:
        self.__init__()

    def install(self, tracer_mod, metrics) -> None:
        original = metrics.weighted_distance

        @functools.wraps(original)
        def weighted_distance(omega, z, w, *args, **kwargs):
            t = time.perf_counter()
            try:
                res = original(omega, z, w, *args, **kwargs)
            except Exception:
                self.latency.append(time.perf_counter() - t)
                self.raised += 1
                raise
            self.latency.append(time.perf_counter() - t)
            self.distance.append(res.distance)
            if self.audit:
                self.records.append((omega, complex(z), complex(w), res))
            return res

        tracer_mod.rebind(original, weighted_distance, tracer_mod.package_modules())


# ---------------------------------------------------------------------------
# workloads: setup(ctx) then unit(ctx) -> outputs, check(ctx, outputs)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class KernelFit:
    """Fit the degree-72 kernel of the 1.5 x 1 ellipse on the h = 0.01 grid,
    then evaluate the density at the seeded oracle points."""

    def setup(self, ctx):
        from metriclab import geometry
        from oracle import ellipse_kernel_oracle

        self.domain = geometry.ellipse(*ELLIPSE)
        rng = np.random.default_rng(ctx.seed)
        a, b = ELLIPSE
        pts = np.empty(0, dtype=complex)
        while pts.size < ORACLE_POINTS:
            z = rng.uniform(-a, a, 4 * ORACLE_POINTS) + 1j * rng.uniform(-b, b, 4 * ORACLE_POINTS)
            z = z[(z.real / a) ** 2 + (z.imag / b) ** 2 < 1]
            pts = np.concatenate(
                [pts, z[geometry.curve_distance(self.domain, z) >= ORACLE_MIN_DIST]])
        self.points = pts[:ORACLE_POINTS]
        self.K_exact, self.rho_exact = ellipse_kernel_oracle(a, b, KERNEL_DEGREE, self.points)

    def unit(self, ctx):
        from metriclab import bergman

        model = bergman.fit_kernel_model(self.domain, degree=KERNEL_DEGREE,
                                         resolution=KERNEL_RESOLUTION)
        return model, bergman.bergman_density(model, self.points)

    def check(self, ctx, out, checks: Checks):
        from metriclab import bergman

        model, rho = out
        defect = float(model.orthonormality_defect)
        checks.op(math.isfinite(defect) and defect <= DEFECT_TOL,
                  f"orthonormality defect {defect:.3e} above {DEFECT_TOL:.0e}")
        K = bergman.kernel_eval(model, self.points, self.points).real
        k_err = np.abs(K / self.K_exact - 1)
        r_err = np.abs(rho / self.rho_exact - 1)
        for z, ke, re in zip(self.points, k_err, r_err):
            checks.op(ke <= KERNEL_TOL and re <= KERNEL_TOL,
                      f"kernel oracle at {z:.4f}: K rel err {ke:.2e}, rho rel err {re:.2e}")
        ctx.layer["bergman.kernel_rel_err"] = float(np.max(k_err))
        ctx.layer["bergman.density_rel_err"] = float(np.max(r_err))


class NtPairs:
    """configs/nt_bounds_ellipse.txt through run_experiment with 100 pairs;
    the fitted kernel is loaded into the experiment's kernel cache in set-up."""

    def setup(self, ctx):
        from metriclab import bergman, experiments

        import tracer as tracer_mod

        self.cfg = experiments.parse_config_file(
            os.path.join("configs", "nt_bounds_ellipse.txt"),
            {"pairs": str(NT_PAIRS), "out": ctx.out_dir})
        self.model = bergman.load_kernel(KERNEL_PATH, self.cfg.domain)
        self.key = (self.cfg.domain.grid_key(), self.cfg.kernel_degree,
                    self.cfg.kernel_resolution)
        experiments._KERNEL_CACHE[self.key] = self.model
        # count refits: if the experiment misses the loaded kernel, the run
        # must fail its check, not just run 35-50 s slower
        self.fits = 0
        fit = bergman.fit_kernel_model

        @functools.wraps(fit)
        def counted_fit(*args, **kwargs):
            self.fits += 1
            return fit(*args, **kwargs)

        tracer_mod.rebind(fit, counted_fit, tracer_mod.package_modules())

    def unit(self, ctx):
        from metriclab import experiments

        rep = experiments.run_experiment(self.cfg)
        experiments.emit_report(rep, self.cfg.out_dir)
        return rep

    def check(self, ctx, rep, checks: Checks):
        from metriclab import experiments

        checks.op(self.fits == 0 and experiments._KERNEL_CACHE.get(self.key) is self.model,
                  f"the kernel loaded in set-up was not used: {self.fits} refit(s)")
        ref = ctx.reference["nt-pairs"]
        betas = rep.curves["beta_vs_q"]["values"]
        qs = rep.curves["beta_vs_q"]["abscissa"]
        excluded = int(rep.values["excluded_pairs"])
        for i in range(max(len(betas), len(ref["betas"]))):
            if i >= len(betas) or i >= len(ref["betas"]):
                checks.op(False, f"pair {i}: present in only one of run and reference")
                continue
            ok = _rel(betas[i], ref["betas"][i]) <= DIST_RTOL and \
                _rel(qs[i], ref["qs"][i]) <= 1e-9
            checks.op(ok, f"pair {i}: beta {betas[i]!r} q {qs[i]!r}, reference "
                          f"beta {ref['betas'][i]!r} q {ref['qs'][i]!r}")
        for _ in range(excluded):
            checks.op(False, "a pair was excluded: its solve raised")
        checks.op(rep.passed == ref["passed"]
                  and _rel(rep.values["c_star"], ref["c_star"]) <= DIST_RTOL,
                  f"verdict {rep.passed} c_star {rep.values['c_star']!r}, reference "
                  f"{ref['passed']} {ref['c_star']!r}")


class HlClosed:
    """Criterion-7 sweep (hl1 at four alphas, hl2 at four alphas and p = 1, 2)
    plus configs/yamashita_scale50.txt, repeated HL_REPEATS times, each
    experiment followed by emit_report."""

    def setup(self, ctx):
        from metriclab import experiments

        over = {"out": ctx.out_dir}
        self.cfgs = []
        for alpha in HL_ALPHAS:
            text = _HL_TEXT.format(exp="hl1", a=int(alpha * 100), alpha=alpha, p=1)
            self.cfgs.append((f"hl1-a{alpha}", experiments.parse_config_text(text, over)))
        for alpha in HL_ALPHAS:
            for p in (1, 2):
                text = _HL_TEXT.format(exp="hl2", a=int(alpha * 100), alpha=alpha, p=p)
                self.cfgs.append((f"hl2-a{alpha}-p{p}",
                                  experiments.parse_config_text(text, over)))
        self.cfgs.append(("yamashita_scale50", experiments.parse_config_file(
            os.path.join("configs", "yamashita_scale50.txt"), over)))

    def unit(self, ctx):
        from metriclab import experiments

        reports = []
        for _ in range(HL_REPEATS):
            for name, cfg in self.cfgs:
                rep = experiments.run_experiment(cfg)
                experiments.emit_report(rep, cfg.out_dir)
                reports.append((name, rep))
        return reports

    def check(self, ctx, reports, checks: Checks):
        for name, rep in reports:
            ref = ctx.reference["hl-closed"][name]
            got = summarize_hl(rep)
            bad = [k for k in ("passed", "checks", "flags") if got[k] != ref[k]]
            curves = {k: v["values"] for k, v in rep.curves.items()}
            if set(curves) != set(ref["curves"]):
                bad.append("curve names")
            else:
                bad += [k for k, vals in curves.items()
                        if len(vals) != len(ref["curves"][k]) or any(
                            _rel(a, b) > VALUE_RTOL for a, b in zip(vals, ref["curves"][k]))]
            if set(got["values"]) != set(ref["values"]):
                bad.append("value keys")
            else:
                bad += [k for k in ref["values"]
                        if _rel(got["values"][k], ref["values"][k]) > VALUE_RTOL]
            checks.op(not bad, f"{name}: {', '.join(bad)} differ from the reference")


WORKLOADS = {
    "kernel-fit": KernelFit,
    "nt-pairs": NtPairs,
    "hl-closed": HlClosed,
}


def summarize_hl(rep) -> dict:
    return {
        "passed": bool(rep.passed),
        "checks": {c["name"]: bool(c["passed"]) for c in rep.checks},
        "flags": sorted(rep.flags),
        "values": {k: float(v) for k, v in rep.values.items()},
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def _size(x) -> int:
    return int(np.size(x))


def _fingerprint(u, v) -> int:
    """Identity of a shift evaluation: a hash of 64 strided entries of each
    argument array, which tells apart the rolled copies of one trace while
    costing far less than hashing every pair."""
    u, v = np.asarray(u).ravel(), np.asarray(v).ravel()
    step = max(1, u.size // 64)
    return hash((u.size, u[::step].tobytes(), v[::step].tobytes()))


def trace_hooks(tracer, state):
    """Counters recorded at the wrapped boundaries."""

    def points(key, pos):
        def before(args, kwargs):
            tracer.add(key, _size(args[pos]) if len(args) > pos else 0)
        return before

    def count_d(args, kwargs):
        # growth functions take the injected distance evaluator second
        if len(args) > 1 and callable(args[1]) and not hasattr(args[1], "_counted"):
            d = args[1]

            def counted(u, v):
                tracer.add("growth.pair_evals", _size(u))
                tracer.add("growth.shift_evals")
                state["shift_keys"].add(_fingerprint(u, v))
                return tracer.span("metrics.distance_evaluator", d, u, v)

            counted._counted = True
            return (args[0], counted) + tuple(args[2:])
        return None

    def new_experiment(args, kwargs):
        state["unique_shifts"] += len(state["shift_keys"])
        state["shift_keys"] = set()

    def grid_nodes(args, grid):
        tracer.add("geometry.grid_nodes", grid.nodes.size)

    def defect(args, model):
        state["defect"] = float(model.orthonormality_defect)

    def report_bytes(args, paths):
        tracer.add("experiments.report_bytes", sum(os.path.getsize(p) for p in paths))

    def sampled(args, kwargs):
        # _sample_interior(domain, rng, count, margin) draws ``count`` points
        tracer.add("experiments.sampled_points", args[2])

    def closed_pairs(args, kwargs):
        tracer.add("metrics.closed_form_pairs", int(np.broadcast(*args[:2]).size))

    hooks = {
        "geometry.curve_distance": (points("geometry.curve_distance_points", 1), None),
        "geometry.contains": (points("geometry.contains_points", 1), None),
        "geometry.gauss_quadrature_grid": (None, grid_nodes),
        "bergman.fit_kernel_model": (None, defect),
        "bergman.bergman_density": (points("bergman.density_points", 1), None),
        "metrics.MetricDensity.eval_array": (points("metrics.eval_points", 1), None),
        "metrics.hyperbolic_distance_closed": (closed_pairs, None),
        "maps.weighted_derivative": (points("maps.fstar_points", 2), None),
        "experiments.run_experiment": (new_experiment, None),
        "experiments.emit_report": (None, report_bytes),
        "experiments._sample_interior": (sampled, None),
    }
    for name in ("sup_lipschitz_modulus", "mean_modulus_at_shifts",
                 "mean_lipschitz_modulus", "modulus_curve"):
        hooks[f"growth.{name}"] = (count_d, None)
    return hooks


def layer_metrics(tracer, state, solves: SolveLog, run_untraced: float) -> dict:
    names, dur, self_t = tracer.self_times()
    by_name: dict[str, float] = {}
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    for n, d, s in zip(names, dur, self_t):
        by_name[n] = by_name.get(n, 0.0) + float(s)
        incl[n] = incl.get(n, 0.0) + float(d)
        calls[n] = calls.get(n, 0) + 1
    c = tracer.counts
    under = tracer.layer_time_under(
        ("geometry.gauss_quadrature_grid", "bergman.fit_kernel_model",
         "growth.means_curve", "growth.modulus_curve"))
    out = {"bergman.kernel_rel_err": 0.0, "bergman.density_rel_err": 0.0}
    for layer in ("geometry", "bergman", "metrics", "maps", "growth", "experiments"):
        out[f"{layer}.self_s"] = sum(v for k, v in by_name.items()
                                     if k.startswith(layer + "."))
    nsolve = len(solves.latency)
    finite = [d for d in solves.distance if math.isfinite(d)]

    def per_point(seconds, points):
        return 1e6 * seconds / points if points else 0.0

    s = by_name.get
    out.update({
        "geometry.grid_s": under["geometry.gauss_quadrature_grid"],
        "geometry.grid_nodes": c.get("geometry.grid_nodes", 0),
        "geometry.curve_distance_points": c.get("geometry.curve_distance_points", 0),
        "geometry.curve_distance_s": s("geometry.curve_distance", 0.0),
        "geometry.curve_distance_us_per_point": per_point(
            s("geometry.curve_distance", 0.0), c.get("geometry.curve_distance_points", 0)),
        "geometry.contains_points": c.get("geometry.contains_points", 0),
        "geometry.contains_s": s("geometry.contains", 0.0),
        "bergman.fit_s": under["bergman.fit_kernel_model"],
        "bergman.ortho_defect": state.get("defect", 0.0),
        "bergman.density_points": c.get("bergman.density_points", 0),
        "bergman.density_s": s("bergman.bergman_density", 0.0),
        "bergman.density_us_per_point": per_point(
            s("bergman.bergman_density", 0.0), c.get("bergman.density_points", 0)),
        "metrics.solves": nsolve,
        "metrics.solve_self_s": s("metrics.weighted_distance", 0.0),
        "metrics.first_solve_s": solves.latency[0] if nsolve else 0.0,
        "metrics.eval_points_per_solve": c.get("metrics.eval_points", 0) / nsolve if nsolve else 0.0,
        "metrics.eval_calls_per_solve": calls.get("metrics.MetricDensity.eval_array", 0) / nsolve
        if nsolve else 0.0,
        "metrics.path_length_s": s("metrics.path_length", 0.0),
        "metrics.solve_ok_ratio": (nsolve - solves.raised) / nsolve if nsolve else 0.0,
        "metrics.dist_mean": float(np.mean(finite)) if finite else 0.0,
        "metrics.closed_form_pairs": c.get("metrics.closed_form_pairs", 0),
        "metrics.closed_form_s": s("metrics.hyperbolic_distance_closed", 0.0),
        "maps.fstar_points": c.get("maps.fstar_points", 0),
        "maps.fstar_s": s("maps.weighted_derivative", 0.0),
        "maps.trace_s": s("maps.boundary_trace", 0.0),
        "growth.means_s": under["growth.means_curve"],
        "growth.modulus_s": under["growth.modulus_curve"],
        "growth.pair_evals": c.get("growth.pair_evals", 0),
        "growth.unique_pair_ratio": (state["unique_shifts"] + len(state["shift_keys"]))
        / c["growth.shift_evals"] if c.get("growth.shift_evals") else 0.0,
        "experiments.pairs_kept_ratio": (nsolve - solves.raised)
        / (c["experiments.sampled_points"] / 2) if c.get("experiments.sampled_points") else 0.0,
        "experiments.emit_s": incl.get("experiments.emit_report", 0.0),
        "experiments.report_bytes": c.get("experiments.report_bytes", 0),
    })
    traced = float(dur[0])
    out["untraced_remainder_s"] = float(self_t[0])
    out["traced_run_s"] = traced
    out["run_wall_s"] = run_untraced
    out["trace_overhead_ratio"] = traced / run_untraced - 1.0
    return out


def audit_certificates(solves: SolveLog, path_length, checks: Checks) -> int:
    """Recompute each returned distance from its path."""
    failures = 0
    for omega, z, w, res in solves.records:
        v = res.path.vertices
        ok = (v.size >= 1 and v[0] == z and v[-1] == w
              and _rel(path_length(omega, res.path), res.distance) <= CERT_RTOL)
        failures += not ok
        checks.op(ok, f"certificate of the solve {z} -> {w} fails: distance "
                      f"{res.distance!r}")
    return failures


# ---------------------------------------------------------------------------


class Context:
    def __init__(self, seed: int, out_dir: str, reference: dict):
        self.seed = seed
        self.out_dir = out_dir
        self.reference = reference
        self.layer: dict[str, float] = {}
        self.after_unit = lambda: None
        self.solves: SolveLog | None = None


def versions() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _run_checked(work, ctx, checks: Checks, unit=None):
    """Run the unit once and check its outputs; a crash counts as one failed
    operation.  ``unit(work.unit, ctx)`` lets the caller wrap the call.
    Returns the run's wall and CPU seconds."""
    t, c = time.perf_counter(), time.process_time()
    try:
        out = unit(work.unit, ctx) if unit else work.unit(ctx)
    except Exception:
        traceback.print_exc()
        checks.op(False, "the workload raised")
        out = None
    elapsed = time.perf_counter() - t, time.process_time() - c
    ctx.after_unit()
    if out is not None:
        try:
            work.check(ctx, out, checks)
        except Exception:
            traceback.print_exc()
            checks.op(False, "checking the outputs raised")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--out", required=True, help="report directory")
    ap.add_argument("--trace-file", help="where the traced mode writes its spans")
    args = ap.parse_args(argv)

    from metriclab import metrics

    import tracer as tracer_mod

    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    ctx = Context(args.seed, args.out, reference)
    work = WORKLOADS[args.workload]()
    work.setup(ctx)
    solves = ctx.solves = SolveLog()
    solves.install(tracer_mod, metrics)
    # CPU seconds since the process was forked: the machine's hypervisor
    # steals up to a quarter of a run's wall time at busy times, and a CPU
    # clock leaves that out (BLAS runs one thread, see run.py)
    result = {"setup_s": time.process_time()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    checks = Checks()
    wall, result["run_s"] = _run_checked(work, ctx, checks)
    if args.mode == "trace":
        # second, traced run in the same process: the kernel cache stays as
        # set-up left it, the geodesic graph cache starts cold again
        if hasattr(metrics, "_GRAPH_CACHE"):
            metrics._GRAPH_CACHE.clear()
        # solve latencies come from the untraced run, as in a --trace 0 run
        lat = solves.latency
        solve_ms = {f"metrics.solve_ms_p{q}": 1e3 * float(np.percentile(lat, q)) if lat
                    else 0.0 for q in (50, 90)}
        solves.clear()
        solves.audit = True
        tr = tracer_mod.Tracer(run_id=os.path.basename(args.trace_file or "run"))
        state = {"shift_keys": set(), "unique_shifts": 0}
        originals = tr.install(trace_hooks(tr, state),
                               methods=[(metrics.MetricDensity, "eval_array")])

        def after_unit():
            # per-layer figures cover the root span only, not checks or audit
            ctx.layer.update(layer_metrics(tr, state, solves, wall))

        ctx.after_unit = after_unit
        _run_checked(work, ctx, checks,
                     unit=lambda fn, c: tr.span(tracer_mod.ROOT, fn, c))
        failures = audit_certificates(solves, originals["metrics.path_length"], checks)
        ctx.layer["metrics.certificate_failures"] = failures
        ctx.layer.update(solve_ms)
        if args.trace_file:
            tr.save(args.trace_file, {"workload": args.workload, "seed": args.seed})
        result["layer"] = ctx.layer
    result["attempted"] = checks.attempted
    result["failed"] = checks.failed
    result["messages"] = checks.messages
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
