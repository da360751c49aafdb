"""Cost of the dense DtN set-up: time and traced peak memory of ``build_dtn``.

Usage, from the repository root:

    python3 tools/dtn_cost.py [--src SRC_DIR]

For ``disk``, ``ellipse(2, 1)`` and ``perturbed_disk(0.2, 5)`` at N = 512,
1024 and 2048 it prints, with BLAS pinned to one thread unless
``OPENBLAS_NUM_THREADS`` is set:

- the ``build_dtn`` time, best of 3;
- the peak of the memory that ``build_dtn`` allocates, traced by
  ``tracemalloc`` in a separate call, in units of N^2 doubles (8 N^2 bytes).
  The object keeps 2 N^2 of it: L and the LU factor of S.

``--src`` selects the ``steklab`` sources to time (default: this tree's), so
one copy of the script measures two trees alike.
"""

import argparse
import os
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", os.environ["OPENBLAS_NUM_THREADS"])

CURVES = ("disk", "ellipse(2,1)", "perturbed_disk(0.2,5)")
SIZES = (512, 1024, 2048)
REPEATS = 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, str(parser.parse_args().src.resolve()))
    from steklab import geometry
    from steklab.steklov import build_dtn

    for spec in CURVES:
        curve = geometry.builtin_curve(spec)
        for N in SIZES:
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                build_dtn(curve, N)
                best = min(best, time.perf_counter() - start)
            tracemalloc.start()
            try:
                build_dtn(curve, N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(
                f"{spec} N = {N}: build_dtn {1e3 * best:.1f} ms, "
                f"traced peak {peak / (8 * N**2):.2f} N^2 doubles"
            )


if __name__ == "__main__":
    main()
