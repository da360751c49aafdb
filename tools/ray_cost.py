"""Cost of the special-point net's ray pass: ``nodal._ray_extents`` with and
without the centres' curve parameters.

Usage, from the repository root:

    python3 tools/ray_cost.py [--src SRC_DIR]

For ``disk``, ``ellipse(2, 1)`` and ``perturbed_disk(0.2, 5)``, on the
``boundary_net`` of the net balls at (r, spacing) = (0.3, 0.15) and
(0.1, 0.05), with 96 and 256 rays, it prints, with BLAS pinned to one thread
unless ``OPENBLAS_NUM_THREADS`` is set:

- the time per centre of one call for the whole net, best of 3, with t
  (only the probe blocks within reach of each ball) and without t (every
  block);
- the number of rays in the tangent band |d . nu| < 2 max|kappa| pad,
  which propose every block they meet (the kernel's fallback);
- the largest difference between the two extents.

It exits 1 when that difference exceeds the tolerance of
``tests/test_nodal.py``'s ``TestNetRayPass``: 0 on the disk and the
ellipse, 1e-13 on the perturbed disk, whose curve series rounds the last
bits differently in batches of other sizes.

``--src`` selects the ``steklab`` sources to time (default: this tree's), so
one copy of the script measures two trees alike. A tree whose
``_ray_extents`` takes no t is timed without t only.
"""

import argparse
import inspect
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", os.environ["OPENBLAS_NUM_THREADS"])

import numpy as np  # noqa: E402  (after the thread pin)

CURVES = {"disk": 0.0, "ellipse(2,1)": 0.0, "perturbed_disk(0.2,5)": 1e-13}
NETS = ((0.3, 0.15), (0.1, 0.05))
RAYS = (96, 256)
REPEATS = 3


def best_of(call):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, str(parser.parse_args().src.resolve()))
    from steklab import geometry, nodal

    batched = "t" in inspect.signature(nodal._ray_extents).parameters
    worst = 0
    for spec, tol in CURVES.items():
        curve = geometry.builtin_curve(spec)
        for r, spacing in NETS:
            t = nodal.boundary_net(curve, spacing)
            centers = curve.point(t)
            for n in RAYS:
                theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
                if not batched:
                    slow, _ = best_of(lambda: [nodal._ray_extents(curve, c, theta, r)
                                               for c in centers])
                    print(f"{spec} r = {r}, {len(t)} centres, {n} rays: "
                          f"{1e3 * slow / len(t):.3f} ms per centre, one call each")
                    continue
                fast, got = best_of(lambda: nodal._ray_extents(curve, centers, theta, r, t=t))
                slow, want = best_of(lambda: nodal._ray_extents(curve, centers, theta, r))
                # the tangent band of _ray_extents
                dn = curve.normal(t) @ np.stack([np.cos(theta), np.sin(theta)])
                band = np.abs(dn) < 2.0 * curve.max_abs_curvature * curve.probe_chord
                diff = float(np.max(np.abs(got - want)))
                bad = diff > tol
                worst |= bad
                print(f"{spec} r = {r}, {len(t)} centres, {n} rays: "
                      f"{1e3 * fast / len(t):.3f} ms per centre with t, "
                      f"{1e3 * slow / len(t):.3f} without; {int(band.sum())} band rays; "
                      f"max difference {diff:.1e}{' ABOVE ' + str(tol) if bad else ''}")
    return int(worst)


if __name__ == "__main__":
    sys.exit(main())
