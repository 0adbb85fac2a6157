import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from metriclab.geometry import curve_distance

ROOT = Path(__file__).resolve().parent.parent
REPORT_DIFF = ROOT / "tools" / "report_diff.py"
RUN_CONFIGS = ROOT / "tools" / "run_configs.py"
SOLVER_PROBE = ROOT / "tools" / "solver_probe.py"


def _tree(root: Path, reports: dict) -> Path:
    # a tools/run_configs.py output tree: <config>/reports/<name>.json
    for rel, content in reports.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(content))
    return root


def _report_diff(a: Path, b: Path):
    proc = subprocess.run([sys.executable, str(REPORT_DIFF), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


def test_report_diff_lists_moved_values(tmp_path):
    same = {"verdict": True, "values": {"n": 3}}
    a = _tree(tmp_path / "a", {
        "ring/reports/qh_1.json": {"values": {"x": 2.0, "y": 1.0}, "curve": [1.0, 4.0],
                                   "flag": "ok", "gone": 1},
        "hl/reports/hl_2.json": same,
    })
    b = _tree(tmp_path / "b", {
        "ring/reports/qh_1.json": {"values": {"x": 2.5, "y": 1.0}, "curve": [1.0, 4.004],
                                   "flag": "bad"},
        "hl/reports/hl_2.json": same,
    })
    code, lines = _report_diff(a, b)
    assert code == 1
    assert lines == [
        "ring/reports/qh_1.json curve[1]: 4.0 -> 4.004 (rel 1.000e-03)",
        "ring/reports/qh_1.json flag: 'ok' -> 'bad'",
        "ring/reports/qh_1.json gone: missing in B",
        "ring/reports/qh_1.json values.x: 2.0 -> 2.5 (rel 2.500e-01)",
        "hl: identical",
        "ring: 2 values moved, largest rel 2.500e-01 at qh_1.json values.x; "
        "2 other differences",
    ]


def test_report_diff_identical_trees_exit_zero(tmp_path):
    reports = {"c/reports/r.json": {"v": [0.1, 0.2], "ok": False}}
    code, lines = _report_diff(_tree(tmp_path / "a", reports), _tree(tmp_path / "b", reports))
    assert code == 0
    assert lines == ["c: identical"]


def test_report_diff_lists_moved_solver_probe_values(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"L/qh/0.04/0": (1.5).hex(), "L/bergman40/0.04/0": (2.0).hex(),
                             "L/bergman40/0.04/1": (3.0).hex(), "L/bergman40/0.02/0": (1.0).hex()}))
    b.write_text(json.dumps({"L/qh/0.04/0": (1.5).hex(), "L/bergman40/0.04/0": (2.5).hex(),
                             "L/bergman40/0.04/1": (3.0).hex(), "L/bergman40/0.02/0": (1.001).hex(),
                             "L/qh/0.02/0": (4.0).hex()}))
    code, lines = _report_diff(a, b)
    assert code == 1
    assert lines == [
        "L/bergman40/0.02/0: 1.0 -> 1.001 (rel 1.000e-03)",
        "L/bergman40/0.04/0: 2.0 -> 2.5 (rel 2.500e-01)",
        "L/qh/0.02/0: missing in A",
        "L/bergman40: 2 values moved, largest rel 2.500e-01 at L/bergman40/0.04/0",
        "L/qh: 1 other differences",
    ]
    assert _report_diff(a, a) == (0, ["L/bergman40: identical", "L/qh: identical"])
    assert _report_diff(a, tmp_path)[0] == 2


def _run_configs_module():
    spec = importlib.util.spec_from_file_location("run_configs", RUN_CONFIGS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_configs_reads_the_experiment_key(tmp_path):
    tool = _run_configs_module()
    config = tmp_path / "c.txt"
    config.write_text("# experiment = hl2\ndomain = unit_disc\nexperiment = hl1  # note\n")
    assert tool.experiment_of(str(config)) == "hl1"
    config.write_text("domain = unit_disc\n# experiment = hl1\n")
    with pytest.raises(SystemExit, match="no experiment key"):
        tool.experiment_of(str(config))


def test_run_configs_refuses_a_non_empty_outdir(tmp_path):
    (tmp_path / "old.txt").write_text("kept")
    proc = subprocess.run([sys.executable, str(RUN_CONFIGS), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "" and "is not empty" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["old.txt"]


def test_run_configs_prints_wall_times_on_stdout_only(tmp_path, monkeypatch, capsys):
    tool = _run_configs_module()
    ticks = iter([0.0, 2.5] * 100)
    monkeypatch.setattr(tool, "perf_counter", lambda: next(ticks))
    commands = []

    def fake_run_child(cmd, **kwargs):
        commands.append(cmd)
        return 3 if "hl2" in cmd else 0, 101.25, 0.371

    monkeypatch.setattr(tool, "run_child", fake_run_child)
    out = tmp_path / "out"
    assert tool.main([str(out)]) == 1
    configs = sorted((ROOT / "configs").glob("*.txt"))
    experiments = [tool.experiment_of(str(c)) for c in configs]
    assert [cmd[cmd.index("verify") + 1] for cmd in commands] == experiments
    assert capsys.readouterr().out.splitlines() == [
        f"{c.name}: verify {e} exited {3 if e == 'hl2' else 0} in 2.5 s, CPU 0.37 s,"
        " peak RSS 101.2 MiB"
        for c, e in zip(configs, experiments)
    ]
    # OUTDIR holds each config's copy and its (here empty) output, no timing
    assert sorted(p.name for p in out.iterdir()) == [c.stem for c in configs]
    for c in configs:
        assert sorted(p.name for p in (out / c.stem).iterdir()) == sorted([c.name, "output.txt"])
        assert (out / c.stem / "output.txt").read_text() == ""


def test_run_child_reports_each_child_s_own_peak_rss():
    # a child that touches 64 MiB, then one that touches nothing: the
    # second's peak is its own, not the largest of every child so far.
    # A child's peak starts at its forking process's, so a small runner
    # process starts both, not this test's process
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run_configs as t; "
              "print(json.dumps([t.run_child([sys.executable, '-c', c]) for c in "
              "(\"b = b'x' * (64 * 2**20)\", 'import sys; sys.exit(3)')]))")
    proc = subprocess.run([sys.executable, "-c", script, str(RUN_CONFIGS.parent)],
                          capture_output=True, text=True, timeout=60)
    (big_code, big, big_cpu), (small_code, small, small_cpu) = json.loads(proc.stdout)
    assert big_code == 0 and big >= 64
    assert small_code == 3 and small < big - 48
    assert big_cpu > 0 and small_cpu > 0


def _tier1_module():
    spec = importlib.util.spec_from_file_location("tier1", ROOT / "tools" / "tier1.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tier1_compares_failures_with_the_known_red_list(monkeypatch, capsys):
    tool = _tier1_module()
    known = sorted(tool.known_red())
    assert len(known) == 7 and all(node.startswith("tests/") for node in known)
    commands = []
    durations = ["16.70s call     tests/test_acceptance.py::test_criterion_4",
                 "0.51s setup    tests/test_bergman.py::test_fit[disc]"]

    def fake_pytest(failed, code=1):
        def run(cmd, **kwargs):
            commands.append((cmd, kwargs))
            summary = [f"FAILED {node} - AssertionError: x - y" for node in failed]
            return SimpleNamespace(returncode=code, stdout="\n".join(
                ["..F..", "=== slowest 5 durations ===", *durations,
                 "=== short test summary info ===", *summary,
                 f"{len(failed)} failed, 240 passed in 100.00s"]) + "\n")
        return run

    monkeypatch.setattr(tool.subprocess, "run", fake_pytest(known))
    assert tool.main([]) == 0
    assert capsys.readouterr().out.splitlines() == ["7 failed, 240 passed in 100.00s",
                                                    *durations]
    cmd, kwargs = commands[-1]
    assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE",
                       "--durations=5"]
    assert kwargs["cwd"] == str(ROOT)
    assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")

    # one documented failure passes, and one other test fails
    other = "tests/test_growth.py::test_fit_insufficient_data"
    monkeypatch.setattr(tool.subprocess, "run", fake_pytest(known[1:] + [other]))
    assert tool.main([]) == 1
    assert capsys.readouterr().out.splitlines()[3:] == [
        f"unexpected failure: {other}", f"unexpected pass: {known[0]}"]

    # a run that pytest did not finish is never a match
    monkeypatch.setattr(tool.subprocess, "run", fake_pytest(known, code=2))
    assert tool.main([]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == \
        "pytest exited 2: the suite did not run to the end"


BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"

_STUB_RUN = '''import json, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
with open({log!r}, "a") as fh:
    fh.write(json.dumps([{side!r}] + args) + "\\n")
if seed in {fail}:
    sys.exit(1)
run_s = {run_s}[seed % 10]
print("run_s", run_s, "s")
print(json.dumps({{"correct": seed not in {wrong}, "attempted": 1, "failed": 0, "metrics": {{
    "setup_s": {{"value": 0.5, "unit": "s"}}, "run_s": {{"value": run_s, "unit": "s"}},
    "peak_rss_mb": {{"value": {rss}, "unit": "MiB"}}, "ok_ratio": {{"value": 1.0, "unit": "ratio"}}}}}}))
'''


def _stub_checkout(root: Path, side: str, log: Path, run_s, rss, fail=(), wrong=()) -> Path:
    # a checkout whose perfbench/run.py prints fixed results by seed
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_STUB_RUN.format(
        log=str(log), side=side, run_s=list(run_s), rss=rss, fail=set(fail) or "()",
        wrong=set(wrong) or "()"))
    return root


def _bench_pairs(parent: Path, change: Path, pairs: int, first_seed: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH_PAIRS), str(parent), str(change), "--workload", "hl-closed",
         "--pairs", str(pairs), "--first-seed", str(first_seed)],
        capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_bench_pairs_alternates_sides_and_prints_the_bench_block(tmp_path):
    log = tmp_path / "log.jsonl"
    parent = _stub_checkout(tmp_path / "p", "parent", log, [4.0, 4.2, 3.9, 4.4, 4.1] * 2, 68.0)
    change = _stub_checkout(tmp_path / "c", "change", log, [2.5, 4.3, 2.4, 2.8, 2.6] * 2, 68.5)
    code, out, err = _bench_pairs(parent, change, 4, 21)
    assert code == 0, err
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change", "change", "parent"]
    for c in calls:
        assert c[1:] == ["--workload", "hl-closed", "--seed", c[c.index("--seed") + 1],
                         "--seconds", "1", "--trace", "0"]
    assert [int(c[c.index("--seed") + 1]) for c in calls] == [21, 21, 22, 22, 23, 23, 24, 24]
    block = json.loads(out)
    assert block["seeds"] == [21, 22, 23, 24]
    assert block["first_side"] == ["parent", "change", "parent", "change"]
    # seeds 21-24 read entries 1-4 of each stub's table
    q1, _, q3 = statistics.quantiles([4.2, 3.9, 4.4, 4.1], n=4)
    assert (q1, q3) == pytest.approx((3.95, 4.35))
    assert block["parent"]["run_s"] == {"runs": [4.2, 3.9, 4.4, 4.1], "median": 4.15,
                                        "q1": q1, "q3": q3, "n": 4}
    assert block["change"]["run_s"]["runs"] == [4.3, 2.4, 2.8, 2.6]
    assert block["change"]["peak_rss_mb"]["median"] == 68.5
    assert block["parent"]["correct"] == block["change"]["correct"] == [True] * 4
    assert block["change_better_in_pairs"] == {
        "setup_s": "0 of 4", "run_s": "3 of 4", "peak_rss_mb": "0 of 4", "ok_ratio": "0 of 4"}
    assert len(err.splitlines()) == 8 and err.splitlines()[0].startswith("pair 0 seed 21 parent:")
    # run_s moved 35% the better way, 25% allowed, though one change run is
    # slower than three parent runs; and RSS 0.7% the worse way, 5% allowed
    assert block["verdicts"]["run_s"] == {"moved": pytest.approx((2.7 - 4.15) / 4.15),
                                          "bound": 0.25, "verdict": "better",
                                          "pairs_won": "3 of 4", "gap_beats_iqr": True}
    assert block["verdicts"]["peak_rss_mb"] == {"moved": pytest.approx(0.5 / 68.0),
                                                "bound": 0.05, "verdict": "within",
                                                "pairs_won": "0 of 4", "gap_beats_iqr": False}

    # parent runs that spread by more than run_s's bound (interquartile
    # range 2.5 on a median of 3.5) under change runs that do not all beat
    # them, and an RSS 5.9% worse
    parent = _stub_checkout(tmp_path / "p2", "parent", log, [2.0, 4.0, 3.0, 5.0] + [0] * 6, 68.0)
    change = _stub_checkout(tmp_path / "c2", "change", log, [3.1, 3.2, 3.3, 3.4] + [0] * 6, 72.0)
    code, out, err = _bench_pairs(parent, change, 4, 0)
    assert code == 0, err
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["run_s"] == {"moved": pytest.approx(-0.25 / 3.5), "bound": 0.25,
                                 "verdict": "unresolved", "pairs_won": "2 of 4",
                                 "gap_beats_iqr": False}
    assert verdicts["peak_rss_mb"] == {"moved": pytest.approx(4.0 / 68.0), "bound": 0.05,
                                       "verdict": "worse", "pairs_won": "0 of 4",
                                       "gap_beats_iqr": False}
    assert verdicts["ok_ratio"] == {"moved": 0.0, "bound": 0.001, "verdict": "within",
                                    "pairs_won": "0 of 4", "gap_beats_iqr": False}

    # every change run beats every parent run, by less than the bound
    parent = _stub_checkout(tmp_path / "p3", "parent", log, [4.0, 4.1, 4.2, 4.3] + [0] * 6, 68.0)
    change = _stub_checkout(tmp_path / "c3", "change", log, [3.9, 3.8, 3.95, 3.85] + [0] * 6, 67.9)
    code, out, err = _bench_pairs(parent, change, 4, 0)
    assert code == 0, err
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["run_s"] == {"moved": pytest.approx((3.875 - 4.15) / 4.15), "bound": 0.25,
                                 "verdict": "better", "pairs_won": "4 of 4",
                                 "gap_beats_iqr": True}
    assert verdicts["peak_rss_mb"] == {"moved": pytest.approx(-0.1 / 68.0), "bound": 0.05,
                                       "verdict": "better", "pairs_won": "4 of 4",
                                       "gap_beats_iqr": True}
    assert verdicts["setup_s"] == {"moved": 0.0, "bound": 0.25, "verdict": "within",
                                   "pairs_won": "0 of 4", "gap_beats_iqr": False}


def test_bench_pairs_prints_the_gain_rule_next_to_each_verdict(tmp_path):
    # a claimed gain needs CHANGE better in 9 of 10 pairs and a median gap
    # wider than PARENT's interquartile range: run_s wins 9 of 10 pairs by
    # 0.05 s under a range of about 0.4 s, peak_rss_mb all 10 by 1.3 MiB
    # under a range of 0
    log = tmp_path / "log.jsonl"
    parent_s = [4.0, 4.4, 4.1, 4.5, 4.2, 4.6, 4.3, 4.7, 4.0, 4.4]
    change_s = [v - 0.05 for v in parent_s[:9]] + [4.5]
    parent = _stub_checkout(tmp_path / "p", "parent", log, parent_s, 68.0)
    change = _stub_checkout(tmp_path / "c", "change", log, change_s, 66.7)
    code, out, err = _bench_pairs(parent, change, 10, 0)
    assert code == 0, err
    block = json.loads(out)
    verdicts = block["verdicts"]
    q1, _, q3 = statistics.quantiles(parent_s, n=4)
    assert block["parent"]["run_s"]["median"] - block["change"]["run_s"]["median"] < q3 - q1
    assert (verdicts["run_s"]["pairs_won"], verdicts["run_s"]["gap_beats_iqr"]) == ("9 of 10", False)
    assert (verdicts["peak_rss_mb"]["pairs_won"], verdicts["peak_rss_mb"]["gap_beats_iqr"]) == \
        ("10 of 10", True)
    assert block["change_better_in_pairs"] == {name: v["pairs_won"] for name, v in verdicts.items()}


def test_bench_pairs_counts_a_failed_run_as_not_correct(tmp_path):
    log = tmp_path / "log.jsonl"
    parent = _stub_checkout(tmp_path / "p", "parent", log, [4.0] * 10, 68.0, wrong=[6])
    change = _stub_checkout(tmp_path / "c", "change", log, [3.0] * 10, 68.0, fail=[5])
    code, out, _ = _bench_pairs(parent, change, 2, 5)
    assert code == 1
    block = json.loads(out)
    assert block["parent"]["correct"] == [True, False]
    assert block["change"]["correct"] == [False, True]
    assert block["change"]["run_s"] == {"runs": [None, 3.0], "median": 3.0, "q1": 3.0,
                                        "q3": 3.0, "n": 1}
    assert block["change_better_in_pairs"]["run_s"] == "1 of 2"


def test_solver_probe_writes_each_solve_as_hex(tmp_path):
    # 2 pairs of each domain, density and resolution; a quasihyperbolic
    # distance bounds k from above, so it is at least j(z, w) =
    # log(1 + |z - w| / min(d(z), d(w)))
    spec = importlib.util.spec_from_file_location("solver_probe", SOLVER_PROBE)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "probe.json"
    assert tool.main([str(out)], pairs=2) == 0
    probe = json.loads(out.read_text())
    domains = tool.domains()
    assert sorted(probe) == sorted(f"{name}/{label}/{h}/{k}" for name in domains
                                   for label in ("qh", "bergman40")
                                   for h in (0.04, 0.02) for k in (0, 1))
    for name, domain in domains.items():
        for h in (0.04, 0.02):
            for k, (z, w) in enumerate(tool.seeded_pairs(domain, h, 2)):
                j = math.log1p(abs(z - w) / min(curve_distance(domain, z),
                                                curve_distance(domain, w)))
                assert float.fromhex(probe[f"{name}/qh/{h}/{k}"]) >= j
                assert 0 < float.fromhex(probe[f"{name}/bergman40/{h}/{k}"]) < math.inf
