"""List the values that differ between two ``tools/run_configs.py`` trees,
or between two ``tools/solver_probe.py`` outputs.

    python tools/report_diff.py A B

Given two directories, for every report JSON under A
(``<config>/reports/*.json``) and its counterpart at the same relative path
under B, prints each numeric value that differs as

    <config>/reports/<file>.json <path>: <value in A> -> <value in B> (rel <change>)

where ``<path>`` is the value's place in the JSON (``checks[2].value``) and
the relative change is |b - a| / |a| (``inf`` when a is 0).  Booleans,
strings, a key or list item present on one side only and a report file
present in one tree only are listed as non-numeric differences.  Last comes
one line per config that holds reports: its count of moved values with the
largest relative change and its place, its count of other differences, or
``identical``.

Given two files, reads each as a solver probe (``domain/density/h/pair``
mapped to a distance's ``float.hex``), prints each moved distance as

    <domain>/<density>/<h>/<pair>: <value in A> -> <value in B> (rel <change>)

and a key present on one side only as a non-numeric difference, then one
line per ``domain/density`` in the same form as a config's.

Exits 0 when no value differs, 1 when one does, 2 on a usage error.
"""

from __future__ import annotations

import glob
import json
import math
import os
import sys

MISSING = object()   # a key or value present on one side only


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


def diff_value(name: str, place: str, a, b, tally: list) -> None:
    """Print how value ``a`` differs from ``b`` (either may be MISSING) as
    ``name: ...`` and count it in ``tally``, [moved values, other
    differences, largest rel, its place]."""
    if a is MISSING or b is MISSING:
        print(f"{name}: missing in {'B' if b is MISSING else 'A'}")
        tally[1] += 1
    elif is_number(a) and is_number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        change = relative_change(a, b)
        print(f"{name}: {a!r} -> {b!r} (rel {change:.3e})")
        tally[0] += 1
        if change > tally[2] or not tally[3]:
            tally[2], tally[3] = change, place
    elif a != b:
        print(f"{name}: {a!r} -> {b!r}")
        tally[1] += 1


def print_summary(summary: dict[str, list]) -> int:
    """Print one line per group of tallies; return how many differences
    they count."""
    for group, (moved, other, top, where) in sorted(summary.items()):
        parts = []
        if moved:
            parts.append(f"{moved} values moved, largest rel {top:.3e} at {where}")
        if other:
            parts.append(f"{other} other differences")
        print(f"{group}: {'; '.join(parts) or 'identical'}")
    return sum(moved + other for moved, other, _, _ in summary.values())


def compare(a_tree: str, b_tree: str) -> int:
    """Print the differences of the two trees; return how many there are."""
    a_files, b_files = reports(a_tree), reports(b_tree)
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
            diff_value(f"{rel_path} {key}", f"{os.path.basename(rel_path)} {key}",
                       a.get(key, MISSING), b.get(key, MISSING), tally)
    return print_summary(summary)


def compare_probes(a_path: str, b_path: str) -> int:
    """Print the differences of the two solver probes; return how many
    there are."""
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    summary: dict[str, list] = {}
    for key in sorted(a.keys() | b.keys()):
        tally = summary.setdefault(key.rsplit("/", 2)[0], [0, 0, 0.0, ""])
        va, vb = (float.fromhex(p[key]) if key in p else MISSING for p in (a, b))
        diff_value(key, key, va, vb, tally)
    return print_summary(summary)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and all(os.path.isdir(p) for p in argv):
        return 1 if compare(*argv) else 0
    if len(argv) == 2 and all(os.path.isfile(p) for p in argv):
        return 1 if compare_probes(*argv) else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
