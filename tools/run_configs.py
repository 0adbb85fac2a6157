"""Run every configs/*.txt through ``metriclab verify``.

    python tools/run_configs.py OUTDIR

Each config runs in its own working directory OUTDIR/<config stem>, from a
copy of the config there, as

    python -W error::RuntimeWarning -m metriclab.cli verify <experiment> \
        --config <stem>.txt --out reports

with the experiment read from the config, one BLAS thread
(OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1) and this checkout's src/ on
PYTHONPATH.  The run's stdout and stderr go to OUTDIR/<stem>/output.txt.
The script prints each run's exit code, wall time, CPU time and peak RSS
on stdout (no timing goes into OUTDIR) and exits 1 if any run exits
non-zero.  Two checkouts produce byte-identical reports when ``diff -r``
of their OUTDIRs is empty.
"""

from __future__ import annotations

import glob
import os
import shutil
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def experiment_of(config: str) -> str:
    """The value of the config's ``experiment`` key."""
    with open(config) as fh:
        for line in fh:
            key, sep, value = line.split("#", 1)[0].partition("=")
            if sep and key.strip() == "experiment":
                return value.strip()
    raise SystemExit(f"{config}: no experiment key")


def run_child(cmd: list[str], **kwargs) -> tuple[int, float, float]:
    """Run ``cmd`` (``kwargs`` go to ``subprocess.Popen``) to its end: its
    exit code, its own peak RSS in MiB and its user plus system CPU
    seconds, from the rusage that ``os.wait4`` returns for it;
    RUSAGE_CHILDREN would be the largest peak of every child so far.  On
    Linux the peak counts this process's RSS at the fork, which exec
    keeps."""
    proc = subprocess.Popen(cmd, **kwargs)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = os.path.abspath(argv[0])
    if os.path.isdir(outdir) and os.listdir(outdir):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    failed = 0
    for config in sorted(glob.glob(os.path.join(ROOT, "configs", "*.txt"))):
        name = os.path.basename(config)
        cwd = os.path.join(outdir, os.path.splitext(name)[0])
        os.makedirs(cwd)
        shutil.copy(config, cwd)
        experiment = experiment_of(config)
        start = perf_counter()
        with open(os.path.join(cwd, "output.txt"), "w") as log:
            code, peak, cpu = run_child(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "metriclab.cli",
                 "verify", experiment, "--config", name, "--out", "reports"],
                cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        print(f"{name}: verify {experiment} exited {code} in {perf_counter() - start:.1f} s,"
              f" CPU {cpu:.2f} s, peak RSS {peak:.1f} MiB", flush=True)
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
