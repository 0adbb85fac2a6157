"""Record the reference outputs that the benchmark checks its runs against.

Run from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It fits the nt-pairs kernel once and saves it next to this script (skipped
when the file exists), then writes reference.json: the hl-closed verdicts
and values, and the nt-pairs verdict, c_star and each pair's q and beta.
kernel-fit needs no reference; it is checked against the exact kernel in
oracle.py.
"""

import json
import os
import shutil
import sys

import run

run.pin_threads(os.environ)   # before numpy loads its BLAS
import worker  # noqa: E402


def main() -> int:
    from metriclab import bergman, experiments, geometry

    if not os.path.exists(worker.KERNEL_PATH):
        model = bergman.fit_kernel_model(geometry.ellipse(*worker.ELLIPSE),
                                         degree=worker.KERNEL_DEGREE,
                                         resolution=worker.KERNEL_RESOLUTION)
        bergman.save_kernel(model, worker.KERNEL_PATH)
        print(f"saved {worker.KERNEL_PATH}", flush=True)

    out_dir = os.path.join(run.WORK_DIR, "reference")
    ctx = worker.Context(seed=0, out_dir=out_dir, reference={})
    ref = {}
    try:
        hl = worker.HlClosed()
        hl.setup(ctx)
        ref["hl-closed"] = {}
        for name, cfg in hl.cfgs:
            rep = experiments.run_experiment(cfg)
            ref["hl-closed"][name] = worker.summarize_hl(rep)
            ref["hl-closed"][name]["curves"] = {k: v["values"] for k, v in rep.curves.items()}

        nt = worker.NtPairs()
        nt.setup(ctx)
        rep = nt.unit(ctx)
        ref["nt-pairs"] = {
            "passed": bool(rep.passed),
            "c_star": rep.values["c_star"],
            "qs": rep.curves["beta_vs_q"]["abscissa"],
            "betas": rep.curves["beta_vs_q"]["values"],
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(worker.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
