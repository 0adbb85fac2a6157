"""List the report values that differ between two ``tools/run_configs.py`` trees.

    python tools/report_diff.py A B

For every report JSON under A (``<config>/reports/*.json``) and its
counterpart at the same relative path under B, prints each numeric value
that differs as

    <config>/reports/<file>.json <path>: <value in A> -> <value in B> (rel <change>)

where ``<path>`` is the value's place in the JSON (``checks[2].value``) and
the relative change is |b - a| / |a| (``inf`` when a is 0).  Booleans,
strings, a key or list item present on one side only and a report file
present in one tree only are listed as non-numeric differences.  Last comes
one line per config that holds reports: its count of moved values with the
largest relative change and its place, its count of other differences, or
``identical``.

Exits 0 when no report differs, 1 when one does, 2 on a usage error.
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys


def flatten(value, path: str = "") -> dict:
    """Map each leaf's place in a JSON value (``a.b[3]``) to the leaf."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(flatten(item, f"{path}.{key}" if path else key))
        return out
    if isinstance(value, list):
        out = {}
        for i, item in enumerate(value):
            out.update(flatten(item, f"{path}[{i}]"))
        return out
    return {path: value}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_change(a: float, b: float) -> float:
    return abs(b - a) / abs(a) if a != 0 else math.inf


def reports(tree: str) -> set[str]:
    """Report JSON paths of a run_configs tree, relative to the tree."""
    return {os.path.relpath(p, tree)
            for p in glob.glob(os.path.join(tree, "*", "reports", "*.json"))}


def compare(a_tree: str, b_tree: str) -> int:
    """Print the differences of the two trees; return how many there are."""
    a_files, b_files = reports(a_tree), reports(b_tree)
    # per config: [moved values, other differences, largest rel, its place]
    summary: dict[str, list] = {}
    for rel_path in sorted(a_files | b_files):
        tally = summary.setdefault(rel_path.split(os.sep, 1)[0], [0, 0, 0.0, ""])
        if rel_path not in a_files or rel_path not in b_files:
            print(f"{rel_path}: missing in {'B' if rel_path in a_files else 'A'}")
            tally[1] += 1
            continue
        with open(os.path.join(a_tree, rel_path)) as fh:
            a = flatten(json.load(fh))
        with open(os.path.join(b_tree, rel_path)) as fh:
            b = flatten(json.load(fh))
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                print(f"{rel_path} {key}: missing in {'B' if key in a else 'A'}")
                tally[1] += 1
            elif is_number(a[key]) and is_number(b[key]):
                if a[key] == b[key] or (math.isnan(a[key]) and math.isnan(b[key])):
                    continue
                change = relative_change(a[key], b[key])
                print(f"{rel_path} {key}: {a[key]!r} -> {b[key]!r} (rel {change:.3e})")
                tally[0] += 1
                if change > tally[2] or not tally[3]:
                    tally[2], tally[3] = change, f"{os.path.basename(rel_path)} {key}"
            elif a[key] != b[key]:
                print(f"{rel_path} {key}: {a[key]!r} -> {b[key]!r}")
                tally[1] += 1
    for config, (moved, other, top, where) in sorted(summary.items()):
        parts = []
        if moved:
            parts.append(f"{moved} values moved, largest rel {top:.3e} at {where}")
        if other:
            parts.append(f"{other} other differences")
        print(f"{config}: {'; '.join(parts) or 'identical'}")
    return sum(moved + other for moved, other, _, _ in summary.values())


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(p) for p in argv):
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if compare(*argv) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
