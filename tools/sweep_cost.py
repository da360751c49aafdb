"""Cost of a boundary doubling sweep: ``lab.max_doubling_exponent`` in one
pass over all its centres against one ``nodal.doubling_profile`` per centre.

Usage, from the repository root:

    python3 tools/sweep_cost.py [--src SRC_DIR]

For pairs 7 to 14 of ``disk`` and ``ellipse(2, 1)`` at N = 512, with the
``scaling`` study's 6 centres and 2.5 octaves, it prints, with BLAS pinned
to one thread unless ``OPENBLAS_NUM_THREADS`` is set, the time of one sweep
both ways, best of 3 with the two alternated, and their ratio. It exits 1
when the two maximum exponents differ in any bit.

``--src`` selects the ``steklab`` sources to time (default: this tree's), so
one copy of the script measures two trees alike. A tree without
``nodal.doubling_radii`` makes one ``doubling_profile`` per centre inside
``max_doubling_exponent`` itself, so only that is timed.
"""

import argparse
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", os.environ["OPENBLAS_NUM_THREADS"])

import numpy as np  # noqa: E402  (after the thread pin)

CURVES = ("disk", "ellipse(2,1)")
NODES = 512
PAIRS = range(7, 15)
SWEEP = dict(n_centers=6, radii_per_octave=4, octaves=2.5)
REPEATS = 3


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


def per_center_sweep(nodal, pair, n_centers, radii_per_octave, octaves):
    """The sweep as one doubling_profile per centre, skipping the centres
    that it finds degenerate."""
    lam_eff = max(pair.eigenvalue, 1.0)
    r_max = min(0.5 * pair.curve.max_tube_halfwidth(), 1.0 / lam_eff)
    r_min = r_max / 2.0**octaves
    centers = pair.curve.point(np.linspace(0.0, 2 * np.pi, n_centers, endpoint=False))
    worst = -np.inf
    for center in centers:
        try:
            rep = nodal.doubling_profile(pair, center, r_min, r_max, mode="boundary",
                                         steps_per_octave=radii_per_octave)
        except nodal.DegenerateCenterError:
            continue
        if len(rep.exponents) and rep.max_exponent > worst:
            worst = rep.max_exponent
    return float(worst)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, str(parser.parse_args().src.resolve()))
    from steklab import geometry, lab, nodal
    from steklab.steklov import build_dtn, solve_spectrum

    batched = hasattr(nodal, "doubling_radii")
    bad = False
    total = {"one pass": 0.0, "per centre": 0.0}
    for spec in CURVES:
        spectrum = solve_spectrum(build_dtn(geometry.builtin_curve(spec), NODES), PAIRS[-1] + 1)
        for j in PAIRS:
            pair = spectrum[j]
            pair.curve.max_tube_halfwidth()  # cached on the curve; not timed
            if not batched:
                (slow,), _ = best_of(lambda: lab.max_doubling_exponent(pair, **SWEEP))
                total["per centre"] += slow
                print(f"{spec} pair {j}: {1e3 * slow:.2f} ms, one doubling_profile per centre")
                continue
            (fast, slow), (got, want) = best_of(
                lambda: lab.max_doubling_exponent(pair, **SWEEP),
                lambda: per_center_sweep(nodal, pair, **SWEEP),
            )
            total["one pass"] += fast
            total["per centre"] += slow
            differs = got != want
            bad |= differs
            print(f"{spec} pair {j}: {1e3 * fast:.2f} ms in one pass, "
                  f"{1e3 * slow:.2f} ms per centre ({slow / fast:.2f}x); "
                  f"max exponent {got!r}{' DIFFERS from ' + repr(want) if differs else ''}")
    print("total: " + ", ".join(f"{1e3 * v:.1f} ms {k}" for k, v in total.items() if v))
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
