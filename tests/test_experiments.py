import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from metriclab import bergman as B
from metriclab import cli
from metriclab import experiments as E
from metriclab import geometry as G
from metriclab import growth
from metriclab import maps
from metriclab import metrics as M
from metriclab.errors import ConfigError, DivergentDistanceError, KernelInstabilityError

HL1_CUSP = """
experiment = hl1
domain = unit_disc
density = hyperbolic
map = cusp_a50
alpha = 0.5
"""

QH_DISC_SMALL = """
experiment = qh-compare
domain = unit_disc
density = bergman
kernel_degree = 24
kernel_resolution = 0.03
resolution = 0.04
compare_pairs = 3
ring_distances = 0.6 0.4 0.2
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults():
    cfg = E.parse_config_text(HL1_CUSP)
    assert cfg.experiment == "hl1"
    assert cfg.map == maps.from_name("cusp_a50")
    assert cfg.alpha == 0.5
    assert cfg.radii[0] == pytest.approx(1 - 2.0 ** -2)
    assert cfg.steps[0] == pytest.approx(2.0 ** -3)
    assert cfg.seed == 1234
    assert cfg.tolerance == 0.1


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        E.parse_config_text(HL1_CUSP + "\nbogus = 1")
    with pytest.raises(ConfigError, match="missing required"):
        E.parse_config_text("experiment = hl1\ndensity = hyperbolic")
    with pytest.raises(ConfigError, match="missing required config key 'domain'"):
        E.parse_config_text(HL1_CUSP.replace("unit_disc", ""))
    with pytest.raises(ConfigError, match="coordinate pairs"):
        E.parse_config_text(HL1_CUSP.replace("unit_disc", "smoothed_polygon"))
    with pytest.raises(ConfigError, match="alpha"):
        E.parse_config_text(HL1_CUSP.replace("alpha = 0.5", "alpha = 1.5"))
    with pytest.raises(ConfigError, match="strictly increasing"):
        E.parse_config_text(HL1_CUSP + "\nradii_k = 3 2 5 6")
    with pytest.raises(ConfigError, match="strictly decreasing"):
        E.parse_config_text(HL1_CUSP + "\nring_distances = 0.4 0.4 0.1")
    with pytest.raises(ConfigError, match="line 3: expected 'key = value'"):
        E.parse_config_text("experiment = hl1\ndomain = unit_disc\ndensity hyperbolic\n")
    with pytest.raises(ConfigError, match="^domain: unknown domain kind 'torus'"):
        E.parse_config_text(HL1_CUSP.replace("unit_disc", "torus 1 2"))
    with pytest.raises(ConfigError, match="unknown experiment"):
        E.parse_config_text(HL1_CUSP.replace("hl1", "hl9"))
    with pytest.raises(ConfigError, match="unknown density"):
        E.parse_config_text(HL1_CUSP.replace("hyperbolic", "parabolic"))
    assert E.DENSITY_KINDS == (*E.BLOW_UP_KINDS, E.CONSTANT)
    with pytest.raises(ConfigError, match="semi-axes"):
        E.parse_config_text(HL1_CUSP.replace("unit_disc", "ellipse 2"))
    for p in ("0.5", "nan"):
        with pytest.raises(ConfigError, match="p must"):
            E.parse_config_text(HL1_CUSP + f"\np = {p}")
    # a domain value its constructor rejects names the key
    for new, match in [
            ("unit_disc 2 3", "domain: unit_disc takes no numbers, not '2 3'"),
            ("ellipse 1 2", "domain: ellipse requires semi-axes a >= b > 0"),
            ("polygon 0 0 0 1 1 0", "domain: polygon vertices must be counterclockwise"),
            ("smoothed_polygon 0.6 0 0 1 0 1 1 0 1", "domain: corner_radius 0.6 too large"),
            ("smoothed_polygon 0 0 0 1 0 1 1 0 1", "domain: smoothed_polygon needs corner_radius > 0"),
            ("polygon 0 0 1 0 1 0 1 1 0 1", "domain: polygon has a zero-length edge")]:
        with pytest.raises(ConfigError, match=re.escape(match)):
            E.parse_config_text(HL1_CUSP.replace("unit_disc", new))
    # a malformed number names its key and value
    for old, new, match in [
            ("unit_disc", "ellipse 1.5 one", "domain = 'one'"),
            ("unit_disc", "smoothed_polygon 0.3 1 1 -1 1 -1 x", "domain = 'x'"),
            ("hyperbolic", "constant one", "density = 'one'"),
            ("alpha = 0.5", "alpha = half", "alpha = 'half'"),
            ("alpha = 0.5", "circle_samples = 4k", "circle_samples = '4k'"),
            ("alpha = 0.5", "radii_k = 2 3 x", "radii_k = 'x'"),
            ("alpha = 0.5", "seed = 12.5", "seed = '12.5'")]:
        with pytest.raises(ConfigError, match=match):
            E.parse_config_text(HL1_CUSP.replace(old, new))


@pytest.mark.parametrize("key, accepted, rejected", [
    ("kernel_degree", "0", "-1"), ("rays", "1", "-3"), ("circle_samples", "64", "63"),
    ("pairs", "1", "0"), ("refine_sweeps", "0", "-1"), ("pair_margin", "0", "-0.1"),
    ("pair_margin", "0", "nan"), ("resolution", "1e-300", "0"),
    ("kernel_resolution", "1e-300", "-1"), ("comparability_cap", "1", "0"),
    ("distance_cap", "1", "0"), ("trace_radius", "0.5", "2"),
    ("radii_k", "1 2 4 6", "0 2 4 6"), ("steps_k", "-1 1 2 3 4", "-3 1 2 3 4"),
    ("seed", "0", "-1"), ("ring_distances", "0.4 0.1", "0.4 -0.1"),
    ("alpha", "1", "1.0001"), ("trace_radius", "1", "0"), ("tolerance", "0", "-0.1"),
    ("nt_cap", "1", "0.5")])
def test_parse_config_rejects_out_of_range_values(tmp_path, capsys, key, accepted, rejected):
    # the accepted value parses; the rejected one is a ConfigError naming the
    # key, which verify reports on one line before any work
    assert E.parse_config_text(HL1_CUSP + f"\n{key} = {accepted}").raw[key] == accepted
    with pytest.raises(ConfigError, match=f"^{key} must be in "):
        E.parse_config_text(HL1_CUSP + f"\n{key} = {rejected}")
    cfg = _write_config(tmp_path, QH_DISC_SMALL + f"\n{key} = {rejected}\nout = {tmp_path}\n")
    assert cli.main(["verify", "qh-compare", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be in ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["exp.txt"]


@pytest.mark.parametrize("override", [{"density": " "}, {"domain": "\t"}])
def test_parse_config_rejects_a_blank_required_override(override):
    # a blank override replaces the file's value and names its key
    (key,) = override
    with pytest.raises(ConfigError, match=f"missing required config key '{key}'"):
        E.parse_config_text(HL1_CUSP, override)


@pytest.mark.parametrize("domain, density", [
    ("unit_disc", "hyperbolic 3"), ("unit_disc", "bergman 7"),
    ("unit_disc", "quasihyperbolic x"), ("unit_disc", "constant inf"),
    ("unit_disc", "constant 0"), ("unit_disc", "constant -1"),
    ("unit_disc", "constant nan"), ("unit_disc", "constant"), ("ellipse 1.5 1", "hyperbolic")])
def test_parse_config_rejects_bad_density_values(domain, density):
    # each is a ConfigError naming the key before any density is built
    with pytest.raises(ConfigError, match="^density"):
        E.parse_config_text(f"experiment = hl1\ndomain = {domain}\ndensity = {density}\n")


@pytest.mark.parametrize("name", ["nonsense", "scale_150"])
@pytest.mark.parametrize("text", [
    HL1_CUSP, QH_DISC_SMALL,
    "experiment = nt-bounds\ndomain = ellipse 1.5 1\ndensity = bergman\n"],
    ids=["hl1", "qh-compare", "nt-bounds"])
def test_parse_config_rejects_a_bad_map(text, name):
    # an unknown name, or a map that leaves its target, is a ConfigError
    # naming the key at parse time, whether or not the experiment draws f
    with pytest.raises(ConfigError, match="^map: "):
        E.parse_config_text(text + f"\nmap = {name}\n")


def test_readme_config_keys_table_matches_the_parser():
    # every key the parser accepts, with its default and the interval its
    # numbers are checked against ("–" for none), as the parser states them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        section = fh.read().split("### Config keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*?) \| ([^|]*?) \|", section, re.M)
    assert len(rows) == len(E._KEYS)
    assert {key: (default.strip("`"), interval.strip("`")) for key, default, interval in rows} \
        == {key: (default or "–", interval or "–")
            for key, (_, default, interval) in E._KEYS.items()}


def test_readme_command_line_block_lists_the_parser_subcommands():
    # one line per subcommand path of the CLI parser, e.g. "kernel fit"
    def paths(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [""]
        return [f"{name} {rest}".strip()
                for name, sub in subs[0].choices.items() for rest in paths(sub)]

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        block = fh.read().split("## Command line", 1)[1].split("```")[1]
    listed = [" ".join(re.match(r"metriclab((?: +[a-z]+)+)", line).group(1).split())
              for line in block.strip().splitlines()]
    assert sorted(listed) == sorted(paths(cli._build_parser()))


def test_config_hash_ignores_out_dir():
    a = E.parse_config_text(HL1_CUSP + "\nout = here")
    b = E.parse_config_text(HL1_CUSP + "\nout = there")
    assert a.config_hash() == b.config_hash()
    assert a.out_dir == "here" and "out" not in a.raw and a.raw == b.raw
    c = E.parse_config_text(HL1_CUSP.replace("0.5", "0.7"))
    assert c.config_hash() != a.config_hash()


def test_a_config_equals_only_itself():
    # two parses of one text hold equal but distinct radii arrays, which ==
    # compared elementwise; the hash is what compares their computations
    a, b = (E.parse_config_text(HL1_CUSP) for _ in range(2))
    assert a == a and a != b and a in [b, a]
    assert a.config_hash() == b.config_hash()


# ---------------------------------------------------------------------------
# runners


def test_hl1_cusp_passes():
    rep = E.run_theorem1_check(E.parse_config_text(HL1_CUSP))
    assert rep.passed
    names = {c["name"]: c for c in rep.checks}
    assert 0.45 <= names["means_exponent_matches_alpha"]["observed"] <= 0.55
    assert 0.45 <= names["modulus_exponent_matches_alpha"]["observed"] <= 0.55
    assert "means_sup" in rep.curves and "modulus_sup" in rep.curves
    assert rep.curves["means_sup"]["fit"]["r_squared"] > 0.99
    # closed-form hyperbolic distances also probe the doubled circle sampling
    assert names["circle_sampling_converged"]["passed"]
    assert rep.values["sampling_convergence"] < 0.005


def test_hl1_unfittable_modulus_fails():
    # three steps are too few points for the modulus fit
    rep = E.run_theorem1_check(E.parse_config_text(HL1_CUSP + "\nsteps_k = 3 4 5"))
    assert not rep.passed
    assert rep.flags == ["modulus-fit-failed"]
    assert rep.checks == [{"name": "curves_fittable", "passed": False,
                           "detail": "modulus-fit-failed"}]
    assert "error" in rep.curves["modulus_sup"]
    assert "fit" not in rep.curves["modulus_sup"]
    assert "fit" in rep.curves["means_sup"]


def test_hl1_requires_blowup_density():
    cfg = E.parse_config_text(HL1_CUSP.replace("hyperbolic", "constant 1.0"))
    with pytest.raises(ConfigError):
        E.run_theorem1_check(cfg)
    # and hl2 a finite p, which the config's p interval [1, inf] admits
    cfg = E.parse_config_text(HL1_CUSP.replace("hl1", "hl2") + "\np = inf")
    with pytest.raises(ConfigError, match="needs a finite p"):
        E.run_theorem23_check(cfg)


def test_hl1_identity_divergent_fails():
    cfg = E.parse_config_text(HL1_CUSP.replace("cusp_a50", "identity"))
    rep = E.run_theorem1_check(cfg)
    assert not rep.passed
    # the out-of-range flag follows the triage flag
    assert rep.flags == ["divergent-modulus", "alpha-out-of-range"]
    assert [c["name"] for c in rep.checks] == ["modulus_finite"]


def test_hl2_cusp_consistent():
    cfg = E.parse_config_text(HL1_CUSP.replace("hl1", "hl2") + "\np = 1")
    rep = E.run_theorem23_check(cfg)
    assert rep.passed
    names = {c["name"]: c for c in rep.checks}
    assert names["exponents_mutually_consistent"]["passed"]
    gap = abs(rep.values["implied_alpha_means"] - rep.values["implied_alpha_modulus"])
    assert gap <= 0.1


def test_hl2_alpha1_boundedness():
    cfg = E.parse_config_text("""
experiment = hl2
domain = unit_disc
density = hyperbolic
map = cusp_a100
alpha = 1.0
p = 2
""")
    rep = E.run_theorem23_check(cfg)
    assert rep.passed
    names = {c["name"]: c for c in rep.checks}
    assert names["means_curve_bounded"]["passed"]


def test_hl2_constant_map_zero_curves():
    cfg = E.parse_config_text(HL1_CUSP.replace("hl1", "hl2").replace(
        "cusp_a50", "const_25"))
    rep = E.run_theorem23_check(cfg)
    assert rep.passed
    assert "zero-curves" in rep.flags


def test_hl2_converse_restricted_off_disc():
    cfg = E.parse_config_text("""
experiment = hl2
domain = unit_disc
density = quasihyperbolic
map = cusp_a50
alpha = 0.5
p = 1
resolution = 0.05
steps_k = 3 4 5 6 7 8
circle_samples = 256
""")
    rep = E.run_theorem23_check(cfg)
    assert any("converse direction skipped" in n for n in rep.notes)
    # geodesic distances: no doubled-sampling probe
    names = {c["name"] for c in rep.checks}
    assert "exponents_mutually_consistent" in names
    assert "circle_sampling_converged" not in names
    assert "sampling_convergence" not in rep.values


def test_hl2_constant_density_scales_exactly():
    # the Euclidean evaluator and its doubled-sampling check: doubling the
    # constant doubles every mean and modulus value exactly
    reps = [E.run_theorem23_check(E.parse_config_text(
        HL1_CUSP.replace("hl1", "hl2").replace("hyperbolic", f"constant {c}") + "\np = 1"))
        for c in (1, 2)]
    for name in ("means_p1", "modulus_p1"):
        one, two = (np.array(rep.curves[name]["values"]) for rep in reps)
        assert np.array_equal(two, 2 * one), name
    assert reps[1].values["sampling_convergence"] == reps[0].values["sampling_convergence"]
    for key in ("means_slope", "modulus_slope"):
        assert abs(reps[1].values[key] - reps[0].values[key]) <= 1e-12, key


def test_yamashita_verbatim_and_report_values():
    cfg = E.parse_config_text("""
experiment = yamashita
domain = unit_disc
density = hyperbolic
map = scale_50
alpha = 1.0
""")
    rep = E.run_yamashita_check(cfg)
    assert rep.passed
    assert rep.values["hyperbolic_derivative_at_0"] == pytest.approx(0.5)
    names = {c["name"] for c in rep.checks}
    assert "hyperbolic_derivative_verbatim" in names


# the sup modulus curve (steps 2^-3 .. 2^-8), sampling convergence and
# implied modulus alpha of two configs, as float.hex: the closed-form sup
# screen must leave every bit of them
GOLDEN = {
    "hl1_cusp50": (
        ["0x1.69c6b5d37c77dp-4", "0x1.fbea7b4fcc166p-5", "0x1.66f1228489b2dp-5",
         "0x1.fb77330a24ab8p-6", "0x1.66c6bdd5c76dep-6", "0x1.c5c6f026299f4p-7"],
        "0x0.0p+0", "0x1.0cbc09d4ed5e4p-1"),
    "yamashita_scale50": (
        ["0x1.52b00dd63be32p-4", "0x1.4ef51232ae95fp-5", "0x1.4f1114685ae11p-6",
         "0x1.4f18164dca8e5p-7", "0x1.4f19d6dcad1aep-8", "0x1.0c15105f18111p-9"],
        "0x0.0p+0", "0x1.0c5203c41a1bfp+0"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_closed_form_config_values_bitwise(name, tmp_path):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.txt")
    rep = E.run_experiment(E.parse_config_file(path, {"out": str(tmp_path)}))
    got = ([float.hex(v) for v in rep.curves["modulus_sup"]["values"]],
           float.hex(rep.values["sampling_convergence"]),
           float.hex(rep.values["implied_alpha_modulus"]))
    assert got == GOLDEN[name]


# sha256 of every report file of the fast configs, as tools/run_configs.py
# writes them; the in-process reports equal those byte for byte, under 1 and
# 2 BLAS threads
REPORT_DIGESTS = {
    "hl1_cusp50": {
        "hl1_f0c0df00bc39.json": "51886675f79edbac31bf7f107987a25a3b820f768cae3e1138d1076e45164451",
        "hl1_f0c0df00bc39.means_sup.dat": "164ff5b703c9bc5a3a7569798a36a57eebbd03b72162165f184a2b7f49fcbe3b",
        "hl1_f0c0df00bc39.modulus_sup.dat": "912f2736ad812f4c1b42e35758df7484bbbabf958bd3d509d889cf2b54d26be7",
    },
    "hl2_cusp50_p1": {
        "hl2_1548eea0de26.json": "e18a3b77c0dd76f4cc7f690b86b045a2618ab195d7e6f3415a14a9e61bdcbcbe",
        "hl2_1548eea0de26.means_p1.dat": "329f77c729a5ef97911738d94e75ab1387d373c89b9351987056133018d6b0b7",
        "hl2_1548eea0de26.modulus_p1.dat": "6bff384a5dda8051bc1fe9e698884cf1fe1dd709bdf370ef40416f19fa8bb432",
    },
    "yamashita_scale50": {
        "yamashita_9599e852c80c.json": "86aa027a3afd23de28e172ba0df1e82b07279915031b1b265eb837d97e1e65c7",
        "yamashita_9599e852c80c.means_sup.dat": "addc20fce375939b9625fc8d9c9cc6914fb2e79e702766d171b3df37b2ee9e04",
        "yamashita_9599e852c80c.modulus_sup.dat": "80395e28b142e12a506087d1d9d57b3b7839f4ad225795e369cef2121870a2fa",
    },
    "nt_bounds_smoothed_lshape": {
        "nt_bounds_5a85b295f28f.beta_vs_q.dat": "79cb4edb7051c77cae505e7848eaf1ca4e38bfff17fc5180d74d1e9aa77934f9",
        "nt_bounds_5a85b295f28f.json": "8eeb42755cc8a4da358319ecb6ab66fcdc08e80c66b0745473bd0a794a655192",
    },
    "qh_compare_disc_quick": {
        "qh_compare_7e0f3b70929c.distance_ratios.dat": "81de335022dcd4d3a0589ada4138704d8285978ee3520de1a0043a7267beeff0",
        "qh_compare_7e0f3b70929c.json": "681ad7951d99005bcae9ed4f7c0258009972a9caeae62ec2a76c57d6c88317f6",
        "qh_compare_7e0f3b70929c.ring_0.dat": "fa068298bc503e909ab2d10da69308114a69df77da3b3fc30f82b0ca895cdf1b",
        "qh_compare_7e0f3b70929c.ring_1.dat": "089a6d48a5f4b32ab4435fdd314094922cbdd79ced05bbda0f8bf4301aa9a707",
        "qh_compare_7e0f3b70929c.ring_2.dat": "20914d0e2605cc82dbbe5468575401e3ff9b1e099b9af014cf27a210e90c0bd4",
    },
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_fast_config_reports_are_byte_identical(name, tmp_path):
    # the config echo leaves ``out`` out, so a temporary report directory
    # writes the same bytes as the config's own ``out = reports``
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.txt")
    cfg = E.parse_config_file(path, {"out": str(tmp_path)})
    written = E.emit_report(E.run_experiment(cfg), cfg.out_dir)
    got = {}
    for f in written:
        with open(f, "rb") as fh:
            got[os.path.basename(f)] = hashlib.sha256(fh.read()).hexdigest()
    assert got == REPORT_DIGESTS[name]
    assert sorted(os.listdir(tmp_path)) == sorted(got)


def _haswell_unavailable():
    """Why OpenBLAS's Haswell kernels cannot run here, or None."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas.get("name", "").lower():
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS"
    try:
        with open("/proc/cpuinfo") as fh:
            flags = set(re.search(r"^flags\s*:(.*)$", fh.read(), re.M).group(1).split())
    except (OSError, AttributeError):
        return "no CPU flags to read"
    return None if {"avx2", "fma"} <= flags else "the CPU lacks AVX2 or FMA"


def _report_diff_tool():
    """tools/report_diff.py as a module: its value walk of a report."""
    spec = importlib.util.spec_from_file_location(
        "report_diff", os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                                    "report_diff.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_reports_agree_across_the_openblas_kernels(tmp_path):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels for this CPU family.  Under
    # Haswell's, the closed-form configs must write the same bytes as under
    # the CPU's own, and two searching Bergman configs every report value
    # within 1e-12 relative (measured: at most 7.1e-16 and 3.0e-13), with
    # every boolean and string equal
    reason = _haswell_unavailable()
    if reason:
        pytest.skip(reason)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    script = (
        "import os, sys\n"
        "from metriclab import experiments as E\n"
        "for path in sys.argv[2:]:\n"
        "    stem = os.path.splitext(os.path.basename(path))[0]\n"
        "    cfg = E.parse_config_file(path, {'out': os.path.join(sys.argv[1], stem)})\n"
        "    E.emit_report(E.run_experiment(cfg), cfg.out_dir)\n")
    closed = ("hl1_cusp50", "hl2_cusp50_p1", "yamashita_scale50")
    searching = ("qh_compare_disc_quick", "nt_bounds_smoothed_lshape")
    configs = [os.path.join(root, "configs", f"{name}.txt") for name in closed + searching]
    for coretype in (None, "Haswell"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.path.join(root, "src"))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        subprocess.run([sys.executable, "-c", script, str(tmp_path / (coretype or "default")),
                        *configs], env=env, capture_output=True, text=True, timeout=300,
                       check=True)
    default, haswell = ({name: {p.name: p for p in (tmp_path / side / name).iterdir()}
                         for name in closed + searching} for side in ("default", "Haswell"))
    assert sum(len(default[name]) for name in closed) == 9
    for name in closed:
        assert {f: p.read_bytes() for f, p in default[name].items()} \
            == {f: p.read_bytes() for f, p in haswell[name].items()}, name
    tool = _report_diff_tool()
    for name in searching:
        assert default[name].keys() == haswell[name].keys(), name
        (report,) = (f for f in default[name] if f.endswith(".json"))
        a, b = (tool.flatten(json.loads(side[name][report].read_text()))
                for side in (default, haswell))
        assert a.keys() == b.keys(), name
        for key, value in a.items():
            other = b[key]
            if tool.is_number(value) and tool.is_number(other):
                assert value == other or (math.isnan(value) and math.isnan(other)) \
                    or tool.relative_change(value, other) <= 1e-12, (name, key, value, other)
            else:
                assert value == other, (name, key)


_L = [0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]


def test_domain_constructors_fix_the_grid_key_and_equality_follows_it():
    e15 = G.ellipse(1.5, 1)
    assert e15.grid_key() == "ellipse:1.5:1.0"
    # the domain line of the stored benchmark kernel
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    kernel = os.path.join(root, "perfbench", "ellipse_1.5x1_deg72_h0.01.kernel")
    assert B.load_kernel(kernel, e15).degree == 72
    parsed = E.parse_config_text(HL1_CUSP.replace("unit_disc", "ellipse 1 1")).domain
    discs = [G.unit_disc(), G.ellipse(1, 1), parsed]
    assert [d.grid_key() for d in discs] == ["ellipse:1.0:1.0"] * 3
    sharp, rounded = G.polygon(_L), G.smoothed_polygon(_L, 0.15)
    corners = "0.0:0.0,2.0:0.0,2.0:1.0,1.0:1.0,1.0:2.0,0.0:2.0"
    assert sharp.grid_key() == f"polygon:{corners}"
    assert rounded.grid_key() == f"smoothed_polygon:0.15:{corners}"
    domains = [*discs, e15, sharp, rounded, G.smoothed_polygon(_L, 0.2),
               G.polygon(_L), G.ellipse(1.5, 1.0), G.smoothed_polygon(np.array(_L), 0.15)]
    for d in domains:
        for other in domains:
            assert (d == other) == (d.grid_key() == other.grid_key())
            assert (d != other) == (d.grid_key() != other.grid_key())
        assert d != d.grid_key()


def _scalar_ring_point(domain, anchor, direction, target):
    # the reference: one point at a time, through the scalar contains and
    # curve_distance
    span = 4.0 * domain.half_diagonal
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        z = anchor + mid * span * direction
        if G.contains(domain, z) and G.curve_distance(domain, z) > target:
            lo = mid
        else:
            hi = mid
    z = anchor + lo * span * direction
    if abs(float(G.curve_distance(domain, z)) - target) > 0.02 * target:
        return None
    return z


@pytest.mark.parametrize("domain", [G.unit_disc(), G.ellipse(1.5, 1), G.polygon(_L),
                                    G.smoothed_polygon(_L, 0.15)], ids=lambda d: d.grid_key())
def test_ring_points_equal_the_scalar_bisection(domain):
    anchor = G.interior_anchor(domain)
    # 3.0 lies beyond every domain's anchor clearance: its bisection misses
    targets = np.array([3.0, 0.2, 0.05, 0.0125, 0.003125])
    rays = 9
    directions = np.exp(1j * (2 * np.pi * np.arange(rays) / rays))
    got, dist = E._ring_points(domain, anchor, directions, targets)
    assert got.shape == dist.shape == (rays, targets.size)
    for i, direction in enumerate(directions):
        for j, target in enumerate(targets):
            want = _scalar_ring_point(domain, anchor, direction, float(target))
            if want is None:
                assert np.isnan(got[i, j]), (i, j)
            else:
                assert got[i, j] == want, (i, j)
                # the distance that the bisection measured, bit for bit
                assert dist[i, j] == G.curve_distance(domain, want), (i, j)
    assert np.isnan(got[:, 0]).all() and not np.isnan(got[:, 1:]).any()
    assert np.array_equal(np.isnan(dist), np.isnan(got))


def test_ellipse_1_1_is_the_unit_disc(tmp_path):
    # the disc is the ellipse with semi-axes 1 and 1, whatever the config
    # calls it: the hyperbolic density lives on it, a catalog map needs no
    # affine squeeze into it, and hl1 reports what it reports on unit_disc
    f = maps.from_name("cusp_a50", G.ellipse(1, 1))
    assert isinstance(f, maps.PowerCusp) and f.target == G.unit_disc()
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "hl1_cusp50.txt")
    disc = E.run_experiment(E.parse_config_file(path, {"out": str(tmp_path)}))
    with open(path) as fh:
        text = fh.read().replace("domain = unit_disc", "domain = ellipse 1 1")
    assert "ellipse 1 1" in text
    cfg = E.parse_config_text(text, {"out": str(tmp_path)})
    assert cfg.domain == G.unit_disc()
    ellipse = E.run_experiment(cfg)
    assert ellipse.config_echo["domain"] == "ellipse 1 1"
    assert ellipse.config_hash != disc.config_hash
    for field in ("passed", "checks", "curves", "flags", "notes", "values", "seed"):
        assert getattr(ellipse, field) == getattr(disc, field), field


def test_yamashita_identity_out_of_range():
    cfg = E.parse_config_text("""
experiment = yamashita
domain = unit_disc
density = hyperbolic
map = identity
alpha = 1.0
""")
    rep = E.run_yamashita_check(cfg)
    assert not rep.passed
    assert "divergent-modulus" in rep.flags
    # sup growth of 1/(1-|z|^2) puts the implied exponent at the alpha = 0
    # edge, which the report flags as out of range
    assert "alpha-out-of-range" in rep.flags
    assert rep.values["implied_alpha_means"] == pytest.approx(0.0, abs=0.05)


def test_yamashita_needs_hyperbolic_disc():
    cfg = E.parse_config_text("""
experiment = yamashita
domain = unit_disc
density = quasihyperbolic
map = scale_50
""")
    with pytest.raises(ConfigError):
        E.run_yamashita_check(cfg)


def test_qh_compare_disc_bergman_passes():
    rep = E.run_qh_comparability(E.parse_config_text(QH_DISC_SMALL))
    assert rep.passed
    names = {c["name"]: c for c in rep.checks}
    assert names["ratios_within_band"]["lo"] > 1 / 3
    assert names["ratios_within_band"]["hi"] < 3


def test_qh_compare_smoothed_polygon():
    cfg = E.parse_config_text("""
experiment = qh-compare
domain = smoothed_polygon 0.3 1 1 -1 1 -1 -1 1 -1
density = bergman
kernel_degree = 32
kernel_resolution = 0.02
resolution = 0.04
compare_pairs = 3
ring_distances = 0.5 0.4 0.2
""")
    rep = E.run_qh_comparability(cfg)
    assert rep.passed


def test_qh_compare_smoothed_lshape_bergman_values():
    # the fitted kernel of a domain that is not its own mirror image, on
    # rays from its anchor on the diagonal (clearance 0.575, not the 0.062
    # of the bounding-box center in the reflex corner's fillet).  Pinned by
    # value, as tools/report_diff.py lists them, not by verdict: the ring
    # checks fail on degree truncation at degree 24, the distance ratios
    # stay within their band
    cfg = E.parse_config_text("""
experiment = qh-compare
domain = smoothed_polygon 0.15 0 0 2 0 2 1 1 1 1 2 0 2
density = bergman
kernel_degree = 24
kernel_resolution = 0.02
resolution = 0.04
rays = 16
compare_pairs = 4
ring_distances = 0.4 0.2 0.1
""")
    rep = E.run_qh_comparability(cfg)
    got = {f"checks[{i}].{key}": value for i, check in enumerate(rep.checks)
           for key, value in check.items() if key in ("lo", "hi", "worst_agreement")}
    got.update({f"values.{key}": value for key, value in rep.values.items()})
    assert got == pytest.approx({
        "checks[0].lo": 0.17442609743097748,
        "checks[0].hi": 1.0424446305128519,
        "checks[1].worst_agreement": 0.5084008468207267,
        "checks[2].lo": 0.5645526837590381,
        "checks[2].hi": 0.9209017063811961,
        "values.worst_inner_ring_agreement": 0.5084008468207267,
    }, rel=1e-6)
    assert [c["passed"] for c in rep.checks] == [False, False, True]
    assert rep.curves["distance_ratios"]["values"] == pytest.approx(
        [0.9209017063811961, 0.5645526837590381, 0.8634983123165737, 0.6507053431687692],
        rel=1e-6)


def _unit_distances(cfg, omega, pairs):
    """A stand-in batch solve: distance 1 for every pair."""
    return [M.GeodesicResult(1.0, None, cfg.resolution, 0.0) for _ in pairs]


def test_qh_compare_counts_every_ring_dropped_on_instability(monkeypatch):
    cfg_text = """
experiment = qh-compare
domain = unit_disc
density = constant 1.0
rays = 4
ring_distances = 0.4 0.2 0.1 0.05
compare_pairs = 1
"""
    cfg = E.parse_config_text(cfg_text)
    real = E.MetricDensity.eval_array

    def unstable_near_boundary(self, z):
        if np.any(1.0 - np.abs(z) < 0.15):
            raise KernelInstabilityError("forced below d = 0.15")
        return real(self, z)

    monkeypatch.setattr(E.MetricDensity, "eval_array", unstable_near_boundary)
    # the pair solves would meet the forced instability too; they are not
    # the subject here
    monkeypatch.setattr(E, "_pair_distances", _unit_distances)
    rep = E.run_qh_comparability(cfg)
    # the rings at 0.1 and 0.05 of each of the 4 rays
    assert rep.notes[0].startswith("8 ring samples dropped")
    assert rep.flags == ["kernel-instability"]
    assert sorted(rep.curves) == ["distance_ratios", "ring_0", "ring_1"]
    # no ray measured both innermost rings, so they cannot pass as agreeing
    (inner,) = [c for c in rep.checks if c["name"] == "innermost_rings_agree"]
    assert not inner["passed"] and math.isnan(inner["worst_agreement"])
    assert math.isnan(rep.values["worst_inner_ring_agreement"])
    # a ring point that misses its distance by more than 2% is dropped too:
    # no float point on a ray lies 1e-20 from the circle
    monkeypatch.undo()
    monkeypatch.setattr(E, "_pair_distances", _unit_distances)
    rep = E.run_qh_comparability(E.parse_config_text(
        cfg_text.replace("0.4 0.2 0.1 0.05", "0.4 0.2 1e-20")))
    assert rep.notes[0].startswith("4 ring samples dropped")
    assert rep.flags == [] and sorted(rep.curves) == ["distance_ratios", "ring_0", "ring_1"]


def test_build_density_uses_the_cached_kernel_without_a_refit(monkeypatch):
    # the nt-pairs benchmark loads its stored kernel into this cache, under
    # this key, in set-up; a run that refits instead fails its check
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    cfg = E.parse_config_file(os.path.join(root, "configs", "nt_bounds_ellipse.txt"))
    model = B.load_kernel(os.path.join(root, "perfbench", "ellipse_1.5x1_deg72_h0.01.kernel"),
                          cfg.domain)
    key = (cfg.domain.grid_key(), cfg.kernel_degree, cfg.kernel_resolution)
    monkeypatch.setitem(E._KERNEL_CACHE, key, model)

    def refit(*args, **kwargs):
        raise AssertionError("refitted a cached kernel")

    monkeypatch.setattr(E, "fit_kernel_model", refit)
    E._build_density(cfg)
    assert E._KERNEL_CACHE[key] is model


def test_runs_fit_their_kernels_and_leave_the_kernel_cache_alone(tmp_path):
    # only a caller that preloads a stored kernel fills the cache; two runs
    # of one config each fit their own and write the same bytes
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "qh_compare_disc_quick.txt")
    before = dict(E._KERNEL_CACHE)
    reports = []
    for out in (tmp_path / "a", tmp_path / "b"):
        E.emit_report(E.run_experiment(E.parse_config_file(path)), out)
        reports.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert E._KERNEL_CACHE == before
    assert reports[0] == reports[1]


@pytest.mark.parametrize("line, key", [
    ("ring_distances = 0.4", "ring_distances"),  # no inner ring pair to compare
    ("ring_distances =", "ring_distances"),
    ("ring_distances = 0.95 0.5", "ring_distances"),  # beyond the anchor's clearance
    ("compare_pairs = 0", "compare_pairs"),  # no distance ratio to bound
])
def test_qh_compare_rejects_checks_with_nothing_to_measure(monkeypatch, line, key):
    cfg = E.parse_config_text(f"experiment = qh-compare\ndomain = unit_disc\n"
                              f"density = hyperbolic\n{line}\n")

    def no_work(cfg):
        raise AssertionError("built a density before checking the config")

    monkeypatch.setattr(E, "_build_density", no_work)
    with pytest.raises(ConfigError, match=f"^{key}"):
        E.run_qh_comparability(cfg)


def test_qh_compare_constant_control_fails():
    cfg = E.parse_config_text("""
experiment = qh-compare
domain = unit_disc
density = constant 1.0
resolution = 0.04
compare_pairs = 2
ring_distances = 0.4 0.2 0.1 0.05
""")
    rep = E.run_qh_comparability(cfg)
    assert not rep.passed


NT_DISC_SMALL = """
experiment = nt-bounds
domain = unit_disc
density = bergman
kernel_degree = 16
kernel_resolution = 0.04
resolution = 0.04
pairs = 8
pair_margin = 0.25
refine_sweeps = 10
"""


def test_nt_bounds_small_disc():
    cfg = E.parse_config_text(NT_DISC_SMALL)
    rep = E.run_nt_bound_fit(cfg)
    assert rep.passed
    assert 1.0 <= rep.values["c_star"] <= 10.0
    assert rep.values["excluded_pairs"] == 0
    assert rep.values["upper_margin_min"] >= -1e-12
    assert rep.values["lower_margin_min"] >= -1e-12


def test_nt_bounds_excludes_only_metriclab_errors(monkeypatch):
    cfg = E.parse_config_text(NT_DISC_SMALL)
    real = E.weighted_distances

    def bug(*args, **kwargs):
        raise TypeError("a defect, not an excluded pair")

    monkeypatch.setattr(E, "weighted_distances", bug)
    with pytest.raises(TypeError):
        E.run_nt_bound_fit(cfg)

    batches = []

    def divergent_once(omega, zs, ws, *args, **kwargs):
        out = real(omega, zs, ws, *args, **kwargs)
        batches.append(len(zs))
        if len(batches) == 1:
            out[0] = DivergentDistanceError("endpoint too close to the boundary")
        return out

    monkeypatch.setattr(E, "weighted_distances", divergent_once)
    rep = E.run_nt_bound_fit(cfg)
    assert rep.values["excluded_pairs"] == 1
    assert rep.checks[0]["excluded"] == 1
    assert rep.checks[0]["pairs"] == 8
    # one batch of the 8 pairs needed, then one for the pair excluded
    assert batches == [8, 1]


def test_pair_sampler_keeps_its_stream_and_stops_without_room(disc):
    # a margin with room draws exactly the points of an uncapped loop
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    got = E._sample_interior(disc, rng, 2, 0.3)
    want = []
    while len(want) < 2:
        z = complex(ref.uniform(-1, 1), ref.uniform(-1, 1))
        if G.contains(disc, z) and G.clear_of_boundary(disc, z, 0.3):
            want.append(z)
    assert list(got) == want and rng.random() == ref.random()
    # no disc point is 1.0 from the boundary
    with pytest.raises(ConfigError, match=r"pair_margin: 0 of 2 points .* margin 1 "):
        E._sample_interior(disc, rng, 2, 1.0)


def test_cli_pair_margin_without_room_exits_2(tmp_path):
    # it used to draw forever; a child process, so that a hang times out
    cfg = _write_config(tmp_path, "experiment = nt-bounds\ndomain = unit_disc\n"
                        "density = bergman\nkernel_degree = 10\nkernel_resolution = 0.05\n"
                        f"resolution = 0.05\npairs = 2\npair_margin = 1.0\nout = {tmp_path}\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(E.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "metriclab.cli", "verify", "nt-bounds",
                           "--config", cfg], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: pair_margin: 0 of 2 points")


def test_nt_bounds_requires_bergman():
    cfg = E.parse_config_text("""
experiment = nt-bounds
domain = unit_disc
density = hyperbolic
""")
    with pytest.raises(ConfigError):
        E.run_nt_bound_fit(cfg)


def test_nt_bound_formula_vacuous_at_equal_points():
    # z = w: both bounds read 0 <= 0 <= 0 for any constant
    q = 0.0
    beta = 0.0
    assert math.sqrt(2) * math.log1p(q / 5.0) <= beta <= math.sqrt(2) * math.log1p(5.0 * q)


# ---------------------------------------------------------------------------
# reports and determinism


def test_emit_report_roundtrip(tmp_path):
    cfg = E.parse_config_text(HL1_CUSP)
    rep = E.run_theorem1_check(cfg)
    paths = E.emit_report(rep, tmp_path)
    assert paths[0].endswith(".json")
    loaded = E.load_report(paths[0])
    assert loaded["passed"] == rep.passed
    assert loaded["checks"] == rep.checks
    for name, curve in rep.curves.items():
        data_path = [p for p in paths if p.endswith(f".{name}.dat")]
        assert len(data_path) == 1
        data = np.loadtxt(data_path[0])
        # 17 significant digits round-trip to the same floats
        assert np.array_equal(data[:, 0], np.asarray(curve["abscissa"]))
        assert np.array_equal(data[:, 1], np.asarray(curve["values"]))


@pytest.mark.parametrize("text", [HL1_CUSP, QH_DISC_SMALL], ids=["hl1", "qh-compare"])
def test_emit_report_bytes_against_the_asdict_route(text, tmp_path):
    # one json.dumps of the report's fields writes what json.dump of its
    # deep copy by dataclasses.asdict wrote
    rep = E.run_experiment(E.parse_config_text(text))
    paths = E.emit_report(rep, tmp_path)
    ref = tmp_path / "asdict.json"
    with open(ref, "w") as fh:
        json.dump(asdict(rep), fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert open(paths[0], "rb").read() == open(ref, "rb").read()


def test_reports_deterministic(tmp_path):
    cfg = E.parse_config_text(HL1_CUSP)
    a = tmp_path / "a"
    b = tmp_path / "b"
    E.emit_report(E.run_theorem1_check(cfg), a)
    E.emit_report(E.run_theorem1_check(cfg), b)
    for name in sorted(os.listdir(a)):
        with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
            assert fa.read() == fb.read(), name


def test_report_self_contained(tmp_path):
    cfg = E.parse_config_text(HL1_CUSP)
    rep = E.run_theorem1_check(cfg)
    paths = E.emit_report(rep, tmp_path)
    data = json.loads(open(paths[0]).read())
    # every verdict is recomputable from stored numbers alone
    for check in data["checks"]:
        if "observed" in check and "target" in check:
            recomputed = abs(check["observed"] - check["target"]) <= check["tolerance"]
            assert recomputed == check["passed"]


# ---------------------------------------------------------------------------
# CLI


def _write_config(tmp_path, text):
    path = tmp_path / "exp.txt"
    path.write_text(text)
    return str(path)


def test_cli_verify_pass_and_fail(tmp_path, capsys):
    cfg = _write_config(tmp_path, HL1_CUSP + f"\nout = {tmp_path}/rep")
    assert cli.main(["verify", "hl1", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "report:" in out

    cfg_bad = _write_config(tmp_path, HL1_CUSP.replace("cusp_a50", "identity")
                            + f"\nout = {tmp_path}/rep")
    assert cli.main(["verify", "hl1", "--config", cfg_bad]) == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert cli.main(["verify", "hl1", "--config", str(tmp_path / "none.txt")]) == 2
    cfg = _write_config(tmp_path, "experiment = hl1\n")
    assert cli.main(["verify", "hl1", "--config", cfg]) == 2


def test_cli_report_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, HL1_CUSP + f"\nout = {tmp_path}/rep")
    cli.main(["verify", "hl1", "--config", cfg])
    capsys.readouterr()
    report = [f for f in os.listdir(tmp_path / "rep") if f.endswith(".json")][0]
    assert cli.main(["report", str(tmp_path / "rep" / report)]) == 0
    assert "[PASS]" in capsys.readouterr().out
    # a failed run's report prints its flags and exits 1
    rep = E.run_theorem1_check(E.parse_config_text(HL1_CUSP.replace("cusp_a50", "identity")))
    summary = E.emit_report(rep, tmp_path / "flagged")[0]
    assert cli.main(["report", summary]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] modulus_finite" in out
    assert out.endswith("flag: divergent-modulus\nflag: alpha-out-of-range\n")


def test_cli_distance_density_means_modulus(tmp_path, capsys):
    cfg = _write_config(tmp_path, HL1_CUSP)
    assert cli.main(["distance", "0", "0.5", "--config", cfg,
                     "--out", str(tmp_path / "paths")]) == 0
    out = capsys.readouterr().out
    assert "0.549306" in out
    assert cli.main(["density", "eval", "0.5+0j", "--config", cfg]) == 0
    assert "1.333" in capsys.readouterr().out
    assert cli.main(["means", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["modulus", "--config", cfg]) == 0


@pytest.mark.parametrize("config", ["hl1_cusp50", "hl2_cusp50_p1", "yamashita_scale50"])
@pytest.mark.parametrize("command", ["means", "modulus"])
def test_cli_means_and_modulus_stdout_is_pinned(capsys, config, command):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = os.path.join(root, "configs", f"{config}.txt")
    assert cli.main([command, "--config", cfg]) == 0
    with open(os.path.join(root, "tests", "data", "cli_stdout", f"{config}_{command}.txt")) as fh:
        assert capsys.readouterr().out == fh.read()


def test_cli_distance_uses_refine_sweeps(tmp_path, capsys):
    # the config's sweep budget reaches the solve: 0 sweeps and 24 sweeps
    # give different certified lengths
    for sweeps, expected in ((0, "1.71449362028"), (24, "1.71027965078")):
        cfg = _write_config(tmp_path, "experiment = hl1\ndomain = ellipse 1.5 1\n"
                            "density = quasihyperbolic\nresolution = 0.05\n"
                            f"refine_sweeps = {sweeps}\n")
        assert cli.main(["distance", "0", "0.9+0.5j", "--config", cfg]) == 0
        assert f"= {expected} " in capsys.readouterr().out, sweeps


def test_cli_modulus_without_a_closed_form_uses_the_geodesic_evaluator(
        tmp_path, capsys, monkeypatch):
    # the quasihyperbolic density has no closed-form distance, so `modulus`
    # prices the trace with the geodesic solver at the config's resolution
    # and sweep budget; a chordal recorder stands in for the slow solver
    calls = []

    def recorder(omega, resolution, max_sweeps):
        calls.append((omega.closed_form, resolution, max_sweeps))
        return lambda u, v: 2.0 * np.abs(np.asarray(u) - np.asarray(v))

    monkeypatch.setattr(cli, "geodesic_evaluator", recorder)
    cfg_path = _write_config(tmp_path, "experiment = hl1\ndomain = unit_disc\n"
                             "density = quasihyperbolic\nmap = cusp_a50\n"
                             "resolution = 0.03\nrefine_sweeps = 5\n")
    assert cli.main(["modulus", "--config", cfg_path]) == 0
    assert calls == [(None, 0.03, 5)]
    cfg = E.parse_config_file(cfg_path)
    trace = maps.boundary_trace(cfg.map, cfg.circle_samples, cfg.trace_radius)
    omega = E._build_density(cfg)
    curve = growth.modulus_curve(trace, recorder(omega, 0.03, 5), cfg.steps, cfg.p,
                                 screen=omega.sup_screen)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"h = {h:.6f}  M = {v:.10g}" for h, v in zip(cfg.steps, curve.values)]
    assert lines[-1].startswith("slope vs log h: ")


def test_cli_distance_of_a_report_pair_is_its_beta(monkeypatch):
    # seed pair 18 of nt_bounds_ellipse under its fitted kernel:
    # `metriclab distance` searches the graph the run does, the whole
    # domain's, so it returns the report's beta[18] bit for bit (a
    # window of its own gave 1.6936678228497841)
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    z, w = 0.5782772807444871 - 0.8143339525161155j, 0.1692047117537192 - 0.7950117305390012j
    solves = []
    solve = cli.weighted_distance

    def keep(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(cli, "weighted_distance", keep)
    assert cli.main(["distance", str(z), str(w), "--config",
                     os.path.join(root, "configs", "nt_bounds_ellipse.txt")]) == 0
    assert solves[0].distance == 1.694397643321174


def test_cli_degree_overrides_kernel_degree(tmp_path):
    cfg = _write_config(tmp_path, QH_DISC_SMALL)
    for argv, degree in ((["verify", "qh-compare", "--degree", "30"], 30),
                         (["means"], 24)):
        args = cli._build_parser().parse_args(argv + ["--config", cfg])
        assert cli._load_config(args).kernel_degree == degree


def test_cli_overrides_change_hash(tmp_path):
    cfg = _write_config(tmp_path, HL1_CUSP + f"\nout = {tmp_path}/r1")
    cli.main(["verify", "hl1", "--config", cfg])
    cli.main(["verify", "hl1", "--config", cfg, "--tolerance", "0.2",
              "--out", str(tmp_path / "r2")])
    r1 = os.listdir(tmp_path / "r1")
    r2 = os.listdir(tmp_path / "r2")
    assert {f.split(".")[0] for f in r1} != {f.split(".")[0] for f in r2}
