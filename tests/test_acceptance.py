"""Acceptance suite: every top-level criterion with its stated tolerance.

Each test prints one [PASS]/[FAIL] line per criterion (run with ``pytest -s``
to see them all; failures show their line in the report either way).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import metriclab
from metriclab import bergman as B
from metriclab import experiments as E
from metriclab import geometry as G
from metriclab import maps as MP
from metriclab import metrics as M


def _verdict(num, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def acceptance_kernel(disc):
    t0 = time.time()
    model = B.fit_kernel_model(disc, degree=40, resolution=0.01)
    return model, time.time() - t0


@pytest.fixture(scope="module")
def hyp():
    return M.hyperbolic_density()


def test_criterion_1_disc_kernel_oracle(acceptance_kernel):
    model, fit_seconds = acceptance_kernel
    t0 = time.time()
    xs = np.linspace(-0.7, 0.7, 21)
    Z = (xs[:, None] + 1j * xs[None, :]).ravel()
    Z = Z[np.abs(Z) <= 0.7]
    K = B.kernel_eval(model, Z[:, None], Z[None, :])
    exact = 1.0 / (np.pi * (1.0 - Z[:, None] * np.conj(Z)[None, :]) ** 2)
    err = float(np.abs(K - exact).max())
    runtime = fit_seconds + (time.time() - t0)
    ok = err < 1e-5 and runtime < 120.0
    assert _verdict(1, ok, f"kernel max error {err:.3e} (tol 1e-5), "
                           f"runtime {runtime:.1f}s (target < 120s)")


def test_criterion_2_disc_density_oracle(acceptance_kernel):
    model, _ = acceptance_kernel
    xs = np.linspace(-0.7, 0.7, 21)
    Z = (xs[:, None] + 1j * xs[None, :]).ravel()
    Z = Z[np.abs(Z) <= 0.7]
    rho = B.bergman_density(model, Z)
    exact = math.sqrt(2) / (1.0 - np.abs(Z) ** 2)
    err = float(np.abs(rho - exact).max())
    assert _verdict(2, err < 1e-3, f"density max error {err:.3e} (tol 1e-3)")


def test_criterion_3_hyperbolic_geodesic_oracle(hyp):
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    while checked < 50:
        z = complex(*(1.6 * (rng.random(2) - 0.5)))
        w = complex(*(1.6 * (rng.random(2) - 0.5)))
        if abs(z) > 0.8 or abs(w) > 0.8 or abs(z - w) < 1e-3:
            continue
        checked += 1
        got = M.weighted_distance(hyp, z, w, 0.01).distance
        exact = M.hyperbolic_distance_closed(z, w)
        worst = max(worst, abs(got - exact) / exact)
    assert _verdict(3, worst < 0.01,
                    f"50 random pairs, worst relative error {worst:.2e} (tol 1e-2)")


def test_criterion_4_difference_quotient_limit(disc, hyp, acceptance_kernel):
    model, _ = acceptance_kernel
    densities = {
        "hyperbolic": hyp,
        "quasihyperbolic": M.quasihyperbolic_density(disc),
        "bergman": M.bergman_metric_density(model),
    }
    points = [0.0, 0.3, 0.1 + 0.4j, -0.5, 0.2 - 0.3j]
    ok = True
    worst = 0.0
    for name, omega in densities.items():
        for z in points:
            target = float(omega.eval_array(np.array([z]))[0])
            gaps = {}
            for h in (0.08, 0.04, 0.02):
                res = M.weighted_distance(omega, z, z + h * np.exp(0.7j), h / 20)
                gaps[h] = abs(res.distance / h - target) / target
            worst = max(worst, gaps[0.02])
            if not (gaps[0.02] < 0.05 and gaps[0.02] < gaps[0.08]):
                ok = False
    assert _verdict(4, ok, f"difference quotients at h=0.02 within "
                           f"{worst:.3f} of the density (tol 0.05) and decreasing")


def test_criterion_5_conformal_lemma_and_invariance(acceptance_kernel):
    rng = np.random.default_rng(55)
    worst_identity = 0.0
    for _ in range(100):
        a = 0.95 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        phi = MP.BlaschkeProduct((a,))
        worst_identity = max(worst_identity,
                             abs(abs(phi.derivative(z)) * (1 - abs(z) ** 2)
                                 - (1 - abs(phi(z)) ** 2)))
    model, _ = acceptance_kernel
    omega = M.bergman_metric_density(model)
    worst_inv = 0.0
    for phi in (MP.BlaschkeProduct((0.3,)), MP.BlaschkeProduct((-0.2 + 0.35j,))):
        pairs = 0
        while pairs < 4:
            z = complex(*(1.2 * (rng.random(2) - 0.5)))
            w = complex(*(1.2 * (rng.random(2) - 0.5)))
            if abs(z) > 0.6 or abs(w) > 0.6 or abs(z - w) < 0.2:
                continue
            pairs += 1
            d0 = M.weighted_distance(omega, z, w, 0.02).distance
            d1 = M.weighted_distance(omega, complex(phi(z)), complex(phi(w)), 0.02).distance
            worst_inv = max(worst_inv, abs(d1 - d0) / d0)
    ok = worst_identity < 1e-12 and worst_inv < 0.03
    assert _verdict(5, ok, f"conformal identity within {worst_identity:.2e} "
                           f"(tol 1e-12); distance invariance within "
                           f"{worst_inv:.4f} (tol 0.03)")


def test_criterion_6_weighted_derivative_lemma(hyp):
    h = 0.02
    names = ("identity", "scale_50", "square", "cusp_a30", "cusp_a50",
             "cusp_a100", "blaschke_pair", "const_25")
    points = (0.0, 0.3 + 0.1j, -0.25 - 0.2j)
    worst = 0.0
    ok = True
    for name in names:
        f = MP.from_name(name)
        for z in points:
            fstar = MP.weighted_derivative(f, hyp, z)
            fz, fw = complex(f(z)), complex(f(z + h))
            q = 0.0 if fz == fw else M.weighted_distance(hyp, fz, fw, 1e-3).distance / h
            if fstar > 1e-6:
                rel = abs(q - fstar) / fstar
                worst = max(worst, rel)
                ok &= rel < 0.05
    assert _verdict("6a", ok, f"limit quotients across the catalog within "
                              f"{worst:.4f} of f* (tol 0.05)")


def test_criterion_6_vanishing_derivative_point(hyp):
    # f(z) = z^2 at z = 0: f* = 0.  The exact quotient is
    # d(0, h^2)/h = artanh(h^2)/h = h + O(h^5), i.e. 0.02 at h = 0.02,
    # so the required bound 1e-2 is not attainable at this step size.
    f = MP.from_name("square")
    h = 0.02
    q = M.weighted_distance(hyp, complex(f(0.0)), complex(f(h)), 1e-3).distance / h
    ok = q < 1e-2
    _verdict("6b", ok, f"vanishing-derivative quotient {q:.6f} at h={h} "
                       f"(required < 1e-2; exact value is artanh(h^2)/h = {math.atanh(h*h)/h:.6f})")
    assert ok, (
        f"quotient {q:.6f} is not below 1e-2: for f(z) = z^2 at z = 0 the "
        f"weighted difference quotient equals artanh(h^2)/h = h + O(h^5) = "
        f"{math.atanh(h*h)/h:.6f} at h = {h}, which exceeds the required bound "
        f"by construction; it does converge to the vanishing weighted "
        f"derivative as h -> 0, but not below 1e-2 at h = 0.02"
    )


_HL_CONFIG = """
experiment = {exp}
domain = unit_disc
density = hyperbolic
map = cusp_a{a:d}
alpha = {alpha}
p = {p}
"""

_hl1_cache = {}


def _hl1_exponents(alpha):
    if alpha not in _hl1_cache:
        cfg = E.parse_config_text(_HL_CONFIG.format(exp="hl1", a=int(alpha * 100),
                                                    alpha=alpha, p=1))
        rep = E.run_theorem1_check(cfg)
        _hl1_cache[alpha] = (rep.values["implied_alpha_means"],
                            rep.values["implied_alpha_modulus"])
    return _hl1_cache[alpha]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("p", [1, 2])
def test_criterion_7_exponent_agreement(alpha, p):
    t0 = time.time()
    sup_means, sup_mod = _hl1_exponents(alpha)
    cfg = E.parse_config_text(_HL_CONFIG.format(exp="hl2", a=int(alpha * 100),
                                                alpha=alpha, p=p))
    rep = E.run_theorem23_check(cfg)
    means_alpha = rep.values["implied_alpha_means"]
    mod_alpha = rep.values["implied_alpha_modulus"]
    runtime = time.time() - t0

    sup_ok = abs(sup_means - alpha) <= 0.1 and abs(sup_mod - alpha) <= 0.1
    agree_ok = abs(means_alpha - mod_alpha) <= 0.1
    target_ok = abs(means_alpha - alpha) <= 0.1 and abs(mod_alpha - alpha) <= 0.1
    bounded_ok = True
    if alpha == 1.0:
        bounded_ok = any(c["name"] == "means_curve_bounded" and c["passed"]
                         for c in rep.checks)
    ok = sup_ok and agree_ok and target_ok and bounded_ok and runtime < 600
    _verdict(f"7[alpha={alpha},p={p}]", ok,
             f"sup side ({sup_means:+.3f}, {sup_mod:+.3f}); p-mean side "
             f"means+1={means_alpha:+.3f}, modulus={mod_alpha:+.3f}; "
             f"target {alpha}; runtime {runtime:.0f}s")
    assert sup_ok, "sup-growth exponents stray from the cusp exponent"
    assert agree_ok, "the two p-mean exponents disagree with each other"
    assert bounded_ok, "alpha = 1 means curve is unbounded"
    assert runtime < 600
    assert target_ok, (
        f"p-mean exponents ({means_alpha:+.3f}, {mod_alpha:+.3f}) are not "
        f"within 0.1 of alpha = {alpha}: a boundary map with a single cusp of "
        f"exponent alpha has p-mean growth and modulus exponent "
        f"min(1, alpha + 1/p) = {min(1.0, alpha + 1/p):.2f}, because the "
        f"cusp's contribution is integrated over the circle; the two sides "
        f"agree with each other (gap {abs(means_alpha - mod_alpha):.3f}) but "
        f"sit at the integrated exponent, not at alpha, whenever alpha + 1/p "
        f"differs from alpha, i.e. for every finite p"
    )


def test_criterion_8_negative_controls():
    cfg = E.parse_config_text("""
experiment = hl1
domain = unit_disc
density = hyperbolic
map = identity
alpha = 0.5
""")
    rep1 = E.run_theorem1_check(cfg)
    cfg2 = E.parse_config_text("""
experiment = qh-compare
domain = unit_disc
density = constant 1.0
resolution = 0.04
compare_pairs = 2
ring_distances = 0.4 0.2 0.1 0.05
""")
    rep2 = E.run_qh_comparability(cfg2)
    ok = (not rep1.passed) and ("divergent-modulus" in rep1.flags) and (not rep2.passed)
    assert _verdict(8, ok, f"boundary-trace run fails with divergence flagged "
                           f"({rep1.flags}); constant-density comparability "
                           f"fails ({not rep2.passed})")


_ELLIPSE_COMMON = """
domain = ellipse 1.5 1
density = bergman
kernel_degree = 72
kernel_resolution = 0.01
"""


def test_criterion_9_comparability_and_bounds():
    cfg = E.parse_config_text("experiment = qh-compare\n" + _ELLIPSE_COMMON + """
resolution = 0.02
compare_pairs = 6
ring_distances = 0.4 0.2 0.1 0.05
""")
    rep = E.run_qh_comparability(cfg)
    names = {c["name"]: c for c in rep.checks}
    band = names["ratios_within_band"]
    rings = names["innermost_rings_agree"]

    cfg_nt = E.parse_config_text("experiment = nt-bounds\n" + _ELLIPSE_COMMON + """
resolution = 0.025
pairs = 200
refine_sweeps = 16
""")
    rep_nt = E.run_nt_bound_fit(cfg_nt)
    c_star = rep_nt.values["c_star"]
    ok = rep.passed and rep_nt.passed
    assert _verdict(9, ok,
                    f"density ratios in [{band['lo']:.3f}, {band['hi']:.3f}] "
                    f"(band [1/3, 3]), innermost rings within "
                    f"{1 - rings['worst_agreement']:.1%} (tol 25%); "
                    f"two-sided bound constant c = {c_star:.2f} <= 10 "
                    f"on {int(rep_nt.checks[0]['pairs'])} pairs")


def _subprocess_env():
    """The parent's environment, with ``PYTHONPATH`` made cwd-independent.

    The directory holding ``metriclab`` comes first, so a child started in
    another cwd imports the same package without an install; entries already
    on ``PYTHONPATH`` are kept, made absolute against this process's cwd (an
    empty entry, which means the cwd, included). Nothing else changes (no
    ``PYTHONHASHSEED``: that would hide the nondeterminism checked for).
    """
    env = os.environ.copy()
    entries = [os.path.dirname(os.path.dirname(
        os.path.abspath(metriclab.__file__)))]
    if env.get("PYTHONPATH"):
        entries += [os.path.abspath(p)
                    for p in env["PYTHONPATH"].split(os.pathsep)]
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def test_criterion_10_determinism(tmp_path):
    config_text = """
experiment = {exp}
domain = unit_disc
density = {density}
map = cusp_a50
alpha = 0.5
out = rep
"""
    runs = [
        ("hl1", "hyperbolic", []),
        ("qh-compare", "bergman", ["kernel_degree = 24",
                                   "kernel_resolution = 0.03",
                                   "resolution = 0.04",
                                   "compare_pairs = 2",
                                   "ring_distances = 0.6 0.4 0.2"]),
    ]
    env = _subprocess_env()
    ok = True
    detail = []
    for exp, density, extra in runs:
        text = config_text.format(exp=exp, density=density) + "\n".join(extra)
        dirs = []
        for tag in ("a", "b"):
            work = tmp_path / f"{exp}_{tag}"
            work.mkdir()
            (work / "exp.txt").write_text(text)
            proc = subprocess.run(
                [sys.executable, "-m", "metriclab.cli", "verify", exp,
                 "--config", "exp.txt"],
                cwd=work, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
                _verdict(10, False, f"{exp} run {tag} exited "
                                    f"{proc.returncode}: {tail}")
            assert proc.returncode == 0, proc.stderr
            dirs.append(work / "rep")
        files_a = sorted(os.listdir(dirs[0]))
        files_b = sorted(os.listdir(dirs[1]))
        identical = files_a == files_b and all(
            (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
            for f in files_a)
        ok &= identical
        detail.append(f"{exp}: {len(files_a)} files byte-identical={identical}")
    assert _verdict(10, ok, "; ".join(detail))
