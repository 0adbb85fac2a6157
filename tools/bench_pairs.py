"""Time one perfbench workload in alternated pairs of two checkouts.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --first-seed S

Pair k (k = 0 .. N-1) runs, from the root of each checkout,

    python perfbench/run.py --workload W --seed S+k --seconds 1 --trace 0

once for PARENT and once for CHANGE; PARENT goes first for even k and
CHANGE first for odd k.  Each finished run is logged on stderr.  stdout
gets one JSON object, the workload's block of a BENCH file:

* ``seeds`` and ``first_side``, one entry per pair;
* per side, ``correct`` (one flag per run) and, for each end-to-end metric,
  its ``runs`` in seed order with their ``median``, ``q1`` and ``q3``
  (``statistics.quantiles(n=4)``) and ``n``;
* ``change_better_in_pairs``: per metric, the pairs where CHANGE is
  strictly better, in the direction BENCHMARK.json gives it;
* ``verdicts``: per metric, ``moved``, how far the CHANGE median moved
  from the PARENT median relative to it, the metric's ``bound`` from
  BENCHMARK.json, and one ``verdict``: ``worse`` when CHANGE's median is
  worse than PARENT's by more than the bound, else ``better`` when it is
  better by more than the bound or every CHANGE run beats every PARENT
  run, else ``unresolved`` when PARENT's interquartile range, relative to
  its median, exceeds the bound (or a side has no value), else ``within``.
  Next to it stand the two tests a claimed gain must pass: ``pairs_won``,
  the pairs where CHANGE is better out of the pairs run (a gain needs 9 of
  10), and ``gap_beats_iqr``, whether CHANGE's median is better than
  PARENT's by more than PARENT's interquartile range (None when a side has
  no value).

A run that exits non-zero or prints no result counts as not correct and has
no metric values.  Exits 0 when every run is correct, 1 when one is not, 2
on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def end_to_end(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict[str, tuple[str, float]]:
    """{metric: ("lower" or "higher", relative bound)} of BENCHMARK.json's
    end-to-end metrics."""
    with open(path) as fh:
        return {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}


def run_once(checkout: str, workload: str, seed: int) -> dict | None:
    """The result JSON that perfbench prints last, or None when it fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def summary(runs: list) -> dict:
    """The runs with the median and quartiles of those that have a value."""
    values = [v for v in runs if v is not None]
    out = {"runs": runs, "median": None, "q1": None, "q3": None, "n": len(values)}
    if values:
        out["median"] = statistics.median(values)
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4) if len(values) > 1 \
            else values * 3
    return out


def verdict(parent: dict, change: dict, better: str, bound: float) -> dict:
    """How the CHANGE summary of one metric compares with the PARENT one
    (see the module docstring)."""
    p, c = parent["median"], change["median"]
    # signed so that lower is better
    sign = 1 if better == "lower" else -1
    won = sum(a is not None and b is not None and sign * b < sign * a
              for a, b in zip(parent["runs"], change["runs"]))
    out = {"moved": None, "bound": bound, "verdict": "unresolved",
           "pairs_won": f"{won} of {len(parent['runs'])}", "gap_beats_iqr": None}
    if p is None or c is None:
        return out
    out["gap_beats_iqr"] = sign * (p - c) > parent["q3"] - parent["q1"]
    if p == 0:
        return out
    out["moved"] = (c - p) / abs(p)
    worst_change = max(sign * v for v in change["runs"] if v is not None)
    best_parent = min(sign * v for v in parent["runs"] if v is not None)
    if sign * out["moved"] > bound:
        out["verdict"] = "worse"
    elif -sign * out["moved"] > bound or worst_change < best_parent:
        out["verdict"] = "better"
    elif (parent["q3"] - parent["q1"]) / abs(p) <= bound:
        out["verdict"] = "within"
    return out


def bench_pairs(checkouts: dict, workload: str, pairs: int, first_seed: int) -> dict:
    metrics = end_to_end()
    better = {name: direction for name, (direction, _) in metrics.items()}
    seeds = list(range(first_seed, first_seed + pairs))
    results = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], workload, seed)
            results[side].append(result)
            shown = "failed" if result is None else " ".join(
                f"{name} {m['value']!r}" for name, m in result["metrics"].items())
            print(f"pair {k} seed {seed} {side}: {shown}", file=sys.stderr)
    block = {"seeds": seeds, "first_side": [SIDES[k % 2] for k in range(pairs)]}
    values = {}
    for side in SIDES:
        values[side] = {name: [None if r is None else r["metrics"][name]["value"]
                               for r in results[side]] for name in better}
        block[side] = {"correct": [r is not None and r["correct"] for r in results[side]]}
        block[side].update({name: summary(runs) for name, runs in values[side].items()})
    verdicts = {name: verdict(block["parent"][name], block["change"][name], *spec)
                for name, spec in metrics.items()}
    block["change_better_in_pairs"] = {name: v["pairs_won"] for name, v in verdicts.items()}
    block["verdicts"] = verdicts
    return block


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].strip())
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or not all(os.path.isdir(p) for p in (args.parent, args.change)):
        print(__doc__, file=sys.stderr)
        return 2
    block = bench_pairs({"parent": os.path.abspath(args.parent),
                         "change": os.path.abspath(args.change)},
                        args.workload, args.pairs, args.first_seed)
    print(json.dumps(block, indent=1))
    return 0 if all(all(block[side]["correct"]) for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
