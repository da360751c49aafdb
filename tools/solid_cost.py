"""Cost of the solid doubling masses: ``nodal.solid_mass`` in tube
coordinates against the polar rule it replaced.

Usage, from the repository root:

    python3 tools/solid_cost.py

On the four eigenpairs of the benchmark's ``solid-mass`` workload at seed 1
(``perfbench/workloads.py``), each with the profile that workload measures
(centre at the special point, collar half the curve's reach, one octave at
two radii per octave: 12 integrals), it prints, with BLAS pinned to one
thread unless ``OPENBLAS_NUM_THREADS`` is set, the time of each profile's
masses both ways, best of 3 with the two alternated, and the largest
relative difference. It exits 1 when any mass differs from the polar rule's
by more than 1e-10 relative.

The polar rule lives here as the oracle: v^2 of the projected v field of
``frequency.v_transform`` on 24 x 64, 48 x 128 and 96 x 256 polar
Gauss-Legendre grids about the centre, refined until two agree to 1e-9.
"""

import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", os.environ["OPENBLAS_NUM_THREADS"])

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402  (after the thread pin)

import workloads  # noqa: E402
from steklab import frequency, geometry, nodal  # noqa: E402

SEED = 1
REPEATS = 3
RTOL = 1e-10


def polar_masses(vfield, center, radii):
    """Each radius's v^2 mass by the polar rule, one radius at a time."""

    def mass(r):
        def quad(n_r, _):
            theta = np.linspace(0.0, 2 * np.pi, 64 * (n_r // 24), endpoint=False)
            return frequency._polar_integral(
                lambda p: vfield(p)[0] ** 2, center, theta, r, n_r
            )

        return frequency._refine(quad, 24, 96, 1e-9)

    return np.array([mass(r) for r in radii])


def best_of(*calls):
    """Best time and last output of each call, the calls alternated so that
    a change in machine speed reaches both alike."""
    best, out = [float("inf")] * len(calls), [None] * len(calls)
    for _ in range(REPEATS):
        for i, call in enumerate(calls):
            start = time.perf_counter()
            out[i] = call()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, out


def main():
    bad = False
    total = {"tube": 0.0, "polar": 0.0}
    for pair, _ in workloads.SolidMass().setup(SEED):
        curve = pair.curve
        center = nodal.special_point_search(
            pair, workloads.SOLID_RHO, total=nodal.domain_mass(pair), n_r=20, n_theta=96
        ).best_point
        tube = geometry.TubeNeighborhood(curve, 0.5 * curve.max_tube_halfwidth())
        vfield, _ = frequency.v_transform(pair, tube)
        r_max = min(0.4 * tube.delta, 1.0 / max(pair.eigenvalue, 1.0))
        radii = nodal.doubling_radii(0.5 * r_max, r_max, 2)
        (fast, slow), (got, want) = best_of(
            lambda: nodal.solid_mass(pair, center, radii, tube.delta),
            lambda: polar_masses(vfield, center, radii),
        )
        total["tube"] += fast
        total["polar"] += slow
        rel = float(np.max(np.abs(got / want - 1.0)))
        bad |= not rel <= RTOL
        print(f"{curve.name} pair {pair.index}: {1e3 * fast:.1f} ms tube, "
              f"{1e3 * slow:.1f} ms polar ({slow / fast:.1f}x); "
              f"{len(radii)} masses within {rel:.1e} relative"
              f"{'' if rel <= RTOL else f', ABOVE {RTOL:.0e}'}")
    print("total: " + ", ".join(f"{1e3 * v:.1f} ms {k}" for k, v in total.items()))
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
