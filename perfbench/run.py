"""metriclab benchmark: one workload, measured end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see RATIONALE.md for why each exists and which metric each layer
should move):

* ``kernel-fit``  -- the degree-72 Bergman kernel fit of the 1.5 x 1 ellipse;
* ``nt-pairs``    -- configs/nt_bounds_ellipse.txt with 100 pairs;
* ``hl-closed``   -- the criterion-7 sweep with closed-form distances.

Every timed run is a fresh process (worker.py).  With ``--trace 0`` the
benchmark starts half of SETUP_SAMPLES set-up-only processes, then timed
processes until ``--seconds`` have passed (at least one), then set-up-only
processes until it holds SETUP_SAMPLES set-up times, and prints the
end-to-end metrics.  Set-up and run times are CPU seconds of
the worker process, which runs one BLAS thread.  With ``--trace 1`` one
process runs the workload untraced and then traced, and the benchmark prints
the per-layer metrics; the spans go to .perfbench_traces/.  Each metric is
printed as ``name value unit``, the environment as one ``env`` line, and the
last line is the JSON result.  Outputs that disagree with the oracle or the
reference are counted as failed operations and make ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kernel-fit", "nt-pairs", "hl-closed")
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_traces"
# set-up samples per run, taken on both sides of the timed run
SETUP_SAMPLES = 5
BLAS_THREADS = 1
# every run ends within this many seconds, child processes included
DEADLINE_S = 170.0

def pin_threads(env) -> None:
    """One BLAS thread: fits and solves run the same arithmetic every time."""
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = n


def metric_units(key: str) -> dict:
    """Metric names and units of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` list, in order."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def git_commit(root: str) -> str | None:
    """``git rev-parse HEAD`` when ``root`` is a git work tree, else None."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: str) -> str:
    """sha256 over src/ and configs/: identifies the measured code when the
    checkout is not a git repository, and uncommitted changes when it is."""
    h = hashlib.sha256()
    for top in ("src", "configs"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root: str, env, versions: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return dict(versions, nproc=os.cpu_count(), blas_threads=env["OPENBLAS_NUM_THREADS"],
                cpu=cpu, commit=git_commit(root), source=source_digest(root))


class Failure(Exception):
    pass


def spawn(args, mode: str, out_dir: str, env, deadline: float, trace_file=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--out", out_dir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Failure("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Failure(f"a {mode} worker did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Failure(f"a {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, out_dir: str, env, deadline: float):
    setups = [spawn(args, "setup", out_dir, env, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES // 2)]
    start = time.monotonic()
    timed = []
    while not timed or time.monotonic() - start < args.seconds:
        timed.append(spawn(args, "run", out_dir, env, deadline))
    setups += [r["setup_s"] for r in timed]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, "setup", out_dir, env, deadline)["setup_s"])
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ok_ratio": 1.0 - failed / attempted if attempted else 0.0,
    }
    messages = [m for r in timed for m in r["messages"]]
    return metrics, attempted, failed, messages, timed[0]["versions"], {
        "timed_runs": len(timed), "setup_samples_s": setups}


def trace(args, out_dir: str, env, deadline: float, run_id: str):
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_file = os.path.join(TRACE_DIR, f"{run_id}.npz")
    r = spawn(args, "trace", out_dir, env, deadline, trace_file=trace_file)
    return r["layer"], r["attempted"], r["failed"], r["messages"], r["versions"], {
        "spans": trace_file}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    missing = [p for p in ("BENCHMARK.json", "src/metriclab/__init__.py",
                           "configs/nt_bounds_ellipse.txt", "configs/yamashita_scale50.txt")
               if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    pin_threads(env)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    out_dir = os.path.join(root, WORK_DIR, run_id)
    try:
        if args.trace:
            metrics, attempted, failed, messages, versions, extra = trace(
                args, out_dir, env, deadline, run_id)
            units = metric_units("per_layer")
            metrics = {k: metrics[k] for k in units}
        else:
            metrics, attempted, failed, messages, versions, extra = measure(
                args, out_dir, env, deadline)
            units = metric_units("end_to_end")
    except Failure as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for m in messages:
        print(f"perfbench: CHECK FAILED: {m}", file=sys.stderr)
    if failed:
        print(f"perfbench: {failed} of {attempted} operations failed their checks",
              file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    info = environment(root, env, versions)
    info.update(extra, workload=args.workload, seed=args.seed, trace=args.trace)
    print("env " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
