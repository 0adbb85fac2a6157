"""Run the Tier-1 suite and compare its failures with the documented ones.

    python tools/tier1.py

Runs, from the checkout root and with its src/ on PYTHONPATH,

    python -m pytest -q --continue-on-collection-errors -rfE --durations=5

and reads the failed and errored node ids from pytest's short summary.  The
expected ones are the fenced list under README's "Known red acceptance
checks".  The script prints pytest's closing line and its 5 slowest test
phases, then every unexpected failure and every unexpected pass (a listed
node id that did not fail), and exits 0 only when the two sets match
exactly.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
HEADING = "## Known red acceptance checks"


def known_red(readme: str = README) -> set[str]:
    """Node ids in the first fenced block under the known-red heading."""
    with open(readme) as fh:
        text = fh.read()
    _, found, rest = text.partition(HEADING)
    block = re.search(r"^```[^\n]*\n(.*?)^```", rest, re.S | re.M)
    if not found or block is None:
        raise SystemExit(f"{readme}: no fenced list under {HEADING!r}")
    return {line.strip() for line in block.group(1).splitlines() if line.strip()}


def failed_ids(output: str) -> set[str]:
    """Node ids of the FAILED and ERROR lines of pytest's short summary."""
    return {m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S+)", output, re.M)}


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE",
         "--durations=5"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    print(lines[-1] if lines else f"pytest printed nothing (exit {proc.returncode})")
    # the durations block: "16.70s call     tests/test_acceptance.py::test_..."
    for line in re.findall(r"^\d+\.\d+s (?:setup|call|teardown) .*$", proc.stdout, re.M):
        print(line)
    if proc.returncode not in (0, 1):
        print(proc.stdout, end="")
        print(f"pytest exited {proc.returncode}: the suite did not run to the end")
        return 2
    expected, failed = known_red(), failed_ids(proc.stdout)
    for node in sorted(failed - expected):
        print(f"unexpected failure: {node}")
    for node in sorted(expected - failed):
        print(f"unexpected pass: {node}")
    return 0 if failed == expected else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
