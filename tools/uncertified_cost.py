"""Cost of interior evaluation for eigenpairs without a polynomial certificate.

Usage, from the repository root:

    python3 tools/uncertified_cost.py [--src SRC_DIR]

On perturbed_disk(0.2, 5) at N = 512, where `_poly` certifies almost no
pair, it times for pairs 7 and 40, with BLAS pinned to one thread unless
``OPENBLAS_NUM_THREADS`` is set:

- ``evaluate_many`` per point on 20,000 seeded points of the domain, found
  by projection (best of 5, with every per-pair table already built);
- one ``nodal.special_point_search(pair, 0.1, n_r=20, n_theta=96)``: its
  clipped balls are centred on the curve and read the Cauchy formula
  through ``evaluate_inside``, with no inside test;
- the points that ``nodal.domain_mass`` sends to ``nearest_point_many``:
  none, as its star map is inside by construction.

``--src`` selects the ``steklab`` sources to time (default: this tree's), so
one copy of the script measures two trees alike.
"""

import argparse
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", os.environ["OPENBLAS_NUM_THREADS"])

PAIRS = (7, 40)
REPEATS = 5


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, str(parser.parse_args().src.resolve()))
    import numpy as np

    from steklab import geometry, nodal
    from steklab.steklov import build_dtn, solve_spectrum

    curve = geometry.perturbed_disk(0.2, 5)
    spectrum = solve_spectrum(build_dtn(curve, 512), max(PAIRS) + 1)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.3, 1.3, (60000, 2))
    x = x[curve.nearest_point_many(x)[1] < 0][:20000]
    nearest = geometry.BoundaryCurve.nearest_point_many
    for j in PAIRS:
        pair = spectrum[j]
        pair.evaluate_many(x[:10])  # build the per-pair tables
        best = np.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            pair.evaluate_many(x)
            best = min(best, time.perf_counter() - start)
        start = time.perf_counter()
        nodal.special_point_search(pair, 0.1, n_r=20, n_theta=96)
        search = time.perf_counter() - start
        projected = []

        def recording(self, pts):
            projected.append(len(np.atleast_2d(pts)))
            return nearest(self, pts)

        geometry.BoundaryCurve.nearest_point_many = recording
        try:
            nodal.domain_mass(pair)
        finally:
            geometry.BoundaryCurve.nearest_point_many = nearest
        print(
            f"pair {j}: certified {pair._poly() is not None}, "
            f"evaluate_many {1e6 * best / len(x):.2f} us/point, "
            f"special_point_search {search:.2f} s, "
            f"domain_mass projected {sum(projected)} points"
        )


if __name__ == "__main__":
    main()
