"""Write the geodesic solver's distances on three polygon domains.

    python tools/solver_probe.py OUT.json

Solves 240 seeded pairs with this checkout's src/ and one BLAS thread
(OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1):

- domains: the sharp L ``polygon([0, 2, 2+1j, 1+1j, 1+2j, 2j])``, the same L
  smoothed at radius 0.15 and the square ``[0, 2, 2+2j, 2j]`` rounded at 0.3;
- densities: quasihyperbolic and the degree-40 Bergman fit on the boundary
  rule of resolution 0.02;
- resolutions h 0.04 and 0.02.

The pairs are the seed-7 draws ``_sample_interior(domain, default_rng(7), 40,
max(2 h, 0.1))``, pair k being the even draw k and the odd draw k; the 20
pairs of each domain, density and h are one ``weighted_distances(...,
max_sweeps=16)`` batch, and a pair whose solve raised stops the probe.
Every bounding box here holds at most 10,000 cells of side h, so each
search runs on the graph of the whole domain (``metrics._WHOLE_DOMAIN``).
OUT.json maps ``domain/density/h/pair`` to the distance's ``float.hex``, so
two checkouts solve alike when ``diff`` of their OUT.json files is empty.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
L_SHAPE = [0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]


def domains() -> dict:
    """The probed domains by name.  metriclab, and numpy with it, loads on
    first use, so that ``__main__`` can fix the BLAS threads first."""
    from metriclab.geometry import polygon, smoothed_polygon

    return {"sharp_L": polygon(L_SHAPE), "smoothed_L": smoothed_polygon(L_SHAPE, 0.15),
            "rounded_square": smoothed_polygon([0, 2, 2 + 2j, 2j], 0.3)}


def seeded_pairs(domain, h: float, pairs: int) -> list[tuple[complex, complex]]:
    """The first ``pairs`` seed-7 pairs of the probe at resolution ``h``."""
    import numpy as np
    from metriclab.experiments import _sample_interior

    pts = _sample_interior(domain, np.random.default_rng(7), 40, max(2 * h, 0.1))
    return list(zip(pts[0::2][:pairs], pts[1::2][:pairs]))


def probe(pairs: int = 20) -> dict[str, str]:
    """``domain/density/h/pair`` -> distance hex for the first ``pairs`` pairs."""
    named = domains()
    from metriclab.bergman import fit_kernel_model
    from metriclab.errors import MetricLabError
    from metriclab.metrics import (bergman_metric_density, quasihyperbolic_density,
                                   weighted_distances)

    out = {}
    for name, domain in named.items():
        densities = {"qh": quasihyperbolic_density(domain),
                     "bergman40": bergman_metric_density(fit_kernel_model(domain, 40, 0.02))}
        for label, omega in densities.items():
            for h in (0.04, 0.02):
                zs, ws = zip(*seeded_pairs(domain, h, pairs))
                for k, res in enumerate(weighted_distances(omega, zs, ws, h, max_sweeps=16)):
                    if isinstance(res, MetricLabError):
                        raise res
                    out[f"{name}/{label}/{h}/{k}"] = res.distance.hex()
    return out


def main(argv: list[str], pairs: int = 20) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "w") as fh:
        json.dump(probe(pairs), fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main(sys.argv[1:]))
