"""Cost of the boundary trace kernel: ``SteklovEigenpair.trace_at`` against
the e^{ikt} table on the calls that the ``scaling`` study makes.

Usage, from the repository root:

    python3 tools/trace_cost.py [--src SRC_DIR]

It runs ``lab.run_scaling_study`` on pairs 7 to 14 of ``disk`` and
``ellipse(2, 1)`` at N = 512, with 6 centres and 2.5 octaves, and records
every ``trace_at`` call: its pair, its points and whether it asked for the
derivative. With BLAS pinned to one thread unless ``OPENBLAS_NUM_THREADS``
is set, it prints the time of all recorded calls both ways, best of 3 with
the two alternated, and their ratio, per domain and in total. The table is
the one-``exp``-per-point-and-mode product ``exp(1j * outer(t, k)) @ c`` in
row blocks of 2^15 entries.

It also holds every recorded value and t-derivative of the kernel to an
e^{ikt} oracle in ``clongdouble`` precision, and prints the largest error
of the kernel and of the table over sum |c_k| (values) and sum |k c_k|
(derivatives). It exits 1 when the kernel's error exceeds 1e-14, the bound
of ``tests/test_steklov.py``'s ``TestTrace``.

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

import numpy as np  # noqa: E402  (after the thread pin)

DOMAINS = ("disk", "ellipse:2,1")
NODES = 512
PAIRS = (7, 14)
REPEATS = 3
ROWS = 2**15  # entries of one table block
BOUND = 1e-14


def table(pair, t, derivative):
    """The trace from one exp per point and mode and a matrix product."""
    k, c = pair._trace_modes()
    coef = np.stack([c, 1j * k * c], axis=1) if derivative else c
    out = np.empty(t.shape + coef.shape[1:])
    rows = max(1, ROWS // max(len(k), 1))
    for start in range(0, len(t), rows):
        out[start:start + rows] = (np.exp(1j * np.outer(t[start:start + rows], k)) @ coef).real
    return (out[:, 0], out[:, 1]) if derivative else out


def oracle(pair, t):
    """Value and t-derivative in clongdouble, the phases kt in long double."""
    k, c = pair._trace_modes()
    kl, cl = k.astype(np.longdouble), c.astype(np.clongdouble)
    f, df = np.empty(len(t), np.longdouble), np.empty(len(t), np.longdouble)
    rows = max(1, ROWS // max(len(k), 1))
    for start in range(0, len(t), rows):
        tl = t[start:start + rows].astype(np.longdouble)
        e = np.exp(1j * np.outer(tl, kl).astype(np.clongdouble))
        f[start:start + rows] = np.real(e @ cl)
        df[start:start + rows] = np.real(e @ (1j * kl * cl))
    return f, df


def recorded_calls(steklov, study):
    """The (pair, t, derivative) of every trace_at call made by study()."""
    calls, plain = [], steklov.SteklovEigenpair.trace_at

    def record(pair, t, derivative=False):
        calls.append((pair, np.asarray(t, dtype=float).ravel().copy(), derivative))
        return plain(pair, t, derivative=derivative)

    steklov.SteklovEigenpair.trace_at = record
    try:
        study()
    finally:
        steklov.SteklovEigenpair.trace_at = plain
    return calls


def best_of(*runs):
    """Best time of each run, the runs alternated so that a change in
    machine speed reaches both alike."""
    best = [float("inf")] * len(runs)
    for _ in range(REPEATS):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            run()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def errors(calls, evaluate):
    """Largest error of evaluate's values and derivatives against the oracle,
    over sum |c_k| and sum |k c_k| of each pair."""
    worst = [0.0, 0.0]
    for pair, t, _ in calls:
        k, c = pair._trace_modes()
        if not len(t) or not len(k):
            continue
        got = evaluate(pair, t, True)
        for i, (g, want, scale) in enumerate(zip(got, oracle(pair, t), (np.abs(c), np.abs(k * c)))):
            if np.sum(scale) > 0:
                err = np.max(np.abs(g - want)) / np.sum(scale)
                worst[i] = max(worst[i], float(err))
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, str(parser.parse_args().src.resolve()))
    from steklab import lab, steklov

    bad = False
    total = [0.0, 0.0]
    for domain in DOMAINS:
        config = lab.ExperimentConfig(domain=domain, n_nodes=NODES, j_min=PAIRS[0],
                                      j_max=PAIRS[1], n_centers=6, octaves=2.5)
        spectrum = steklov.solve_spectrum(steklov.build_dtn(config.curve(), NODES), PAIRS[1] + 1)
        calls = recorded_calls(steklov, lambda: lab.run_scaling_study(config, spectrum=spectrum))
        kernel, slow = best_of(
            lambda: [pair.trace_at(t, derivative=d) for pair, t, d in calls],
            lambda: [table(pair, t, d) for pair, t, d in calls],
        )
        total[0] += kernel
        total[1] += slow
        err_kernel = errors(calls, lambda pair, t, d: pair.trace_at(t, derivative=d))
        err_table = errors(calls, table)
        over = max(err_kernel) > BOUND
        bad |= over
        print(f"{domain}: {len(calls)} calls, {sum(len(t) for _, t, _ in calls)} points; "
              f"trace_at {1e3 * kernel:.2f} ms, table {1e3 * slow:.2f} ms ({slow / kernel:.2f}x); "
              f"error over sum|c|, value / derivative: trace_at {err_kernel[0]:.2e} / "
              f"{err_kernel[1]:.2e}, table {err_table[0]:.2e} / {err_table[1]:.2e}"
              f"{' ABOVE ' + repr(BOUND) if over else ''}")
    print(f"total: trace_at {1e3 * total[0]:.2f} ms, table {1e3 * total[1]:.2f} ms "
          f"({total[1] / total[0]:.2f}x)")
    return int(bad)


if __name__ == "__main__":
    sys.exit(main())
