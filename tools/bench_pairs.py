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
  strictly better, in the direction BENCHMARK.json gives it.

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


def better_directions(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict[str, str]:
    """{metric: "lower" or "higher"} of BENCHMARK.json's end-to-end metrics."""
    with open(path) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


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


def bench_pairs(checkouts: dict, workload: str, pairs: int, first_seed: int) -> dict:
    better = better_directions()
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
    won = {}
    for name, direction in better.items():
        pairs_won = sum(
            p is not None and c is not None and (c < p if direction == "lower" else c > p)
            for p, c in zip(values["parent"][name], values["change"][name]))
        won[name] = f"{pairs_won} of {pairs}"
    block["change_better_in_pairs"] = won
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
