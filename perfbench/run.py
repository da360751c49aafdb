"""steklab benchmark: run one workload at one seed and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload scaling --seed 1 --seconds 45 --trace 0

The workloads are ``scaling`` and ``solid-mass`` (see ``workloads.py`` for
what each one stresses and why).
The benchmark imports steklab from ``src/`` next to this directory and pins
BLAS to one thread before numpy is imported.

``--trace 0`` runs whole rounds of the workload for about ``--seconds``
seconds, stopping at the round boundary nearest the deadline, and reports
the end-to-end metrics:

- ``setup_s``: time from process start until the inputs are ready, that is
  interpreter start, imports and one build of the workload's inputs. It is
  the median over SETUP_REPEATS fresh processes started one after another
  (this script with ``--setup-only``), after this process has imported the
  same modules;
- ``items_per_s``: items attempted and checked over all timed rounds,
  divided by the seconds those rounds took;
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` runs the same untraced rounds, then two traced rounds, and
reports the per-layer metrics of ``tracer.py`` averaged over the two traced
rounds, ``trace.overhead`` (untraced over traced items per second, minus
one), and whether the two traced rounds gave identical call and point
counts. Each traced round first builds the inputs again, traced but not
timed, so the DtN build and eigensolve that make up ``setup_s`` show in the
layer metrics too. The spans are written to ``.perfbench-out/``.

Every item is checked with fixed tolerances; ``failed_frac`` and the worst
value of every check are printed before the result. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("scaling", "solid-mass")


def pin_threads():
    """Pin BLAS and OpenMP to BLAS_THREADS; numpy must not be loaded yet."""
    if "numpy" in sys.modules:
        sys.exit("numpy was imported before the BLAS thread count was pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def setup_seconds(workload, seed):
    """Times from starting a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or ready != "ready\n":
            sys.exit(f"set-up process failed with code {proc.returncode}")
    return times


def timed_round(workload, inputs, run):
    """One round on a fresh copy of the inputs: (items attempted, seconds)."""
    fresh = copy.deepcopy(inputs)
    before = run.tally.attempted
    t0 = time.perf_counter()
    workload.round(fresh, run)
    return run.tally.attempted - before, time.perf_counter() - t0


def run_rounds(workload, inputs, seconds, run):
    """Untraced rounds until the round boundary nearest ``seconds``.

    Returns (items, seconds) of every round.
    """
    rounds, elapsed = [], 0.0
    while True:
        rounds.append(timed_round(workload, inputs, run))
        elapsed += rounds[-1][1]
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def traced_rounds(workload, seed, inputs, run):
    """Two traced rounds, each after a traced set-up; returns (tracers,
    (items, seconds) of each round, set-up not included)."""
    from tracer import Tracer

    tracers, rounds = [], []
    for _ in range(2):
        with Tracer() as run.tracer:
            run.label("setup")
            workload.setup(seed)
            rounds.append(timed_round(workload, inputs, run))
        tracers.append(run.tracer)
    run.tracer = None
    return tracers, rounds


def items_per_second(rounds):
    """Items of all rounds over the seconds they took."""
    return sum(n for n, _ in rounds) / sum(dt for _, dt in rounds)


def count_differences(a, b):
    """Names whose call or point counts differ between two traced rounds."""
    ca, cb = a.counts(), b.counts()
    return sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))


def report_traffic(workload, metrics):
    """Print the traffic the benchmark's design assumes, as measured."""
    m = metrics
    expect = {
        "scaling": [
            ("no evaluate_many calls", m["steklov.evaluate_many.calls"] == 0),
            ("> 1000 point calls per pair",
             m["geometry.point.calls"] > 1000 * m["lab.max_doubling_exponent.calls"]),
        ],
        "solid-mass": [
            ("> 2 foot-point queries per evaluated point",
             m["ratio.foot_points_per_eval_point"] > 2),
        ],
    }
    for text, ok in expect.get(workload, []):
        print(f"traffic {'as assumed' if ok else 'CHANGED'}: {text}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_threads()
    if not (ROOT / "src" / "steklab").is_dir():
        sys.exit(f"steklab sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, now that the threads are pinned

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    setups = setup_seconds(args.workload, args.seed)
    setup_s = statistics.median(setups)
    print("setup_s by process " + " ".join(f"{t:.4g}" for t in setups))
    inputs = workload.setup(args.seed)
    tally = workloads.Tally()
    run = workloads.Run(tally)
    rounds = run_rounds(workload, inputs, args.seconds, run)
    items_per_s = items_per_second(rounds)
    print(f"rounds {len(rounds)}: items_per_s by round "
          + " ".join(f"{items_per_second([r]):.4g}" for r in rounds))

    exact = True
    if args.trace:
        tracers, traced = traced_rounds(workload, args.seed, inputs, run)
        from tracer import layer_metrics

        metrics, notes = layer_metrics(tracers)
        metrics["trace.overhead"] = items_per_s / items_per_second(traced) - 1.0
        diff = count_differences(*tracers)
        exact = not diff
        print("trace counts " + ("identical over 2 traced rounds" if exact
                                 else "DIFFER: " + ", ".join(diff)))
        for name, note in sorted(notes.items()):
            print(f"note {name}: {note}")
        report_traffic(args.workload, metrics)
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        for p, tr in enumerate(tracers):
            tr.write(out / f"spans-{args.workload}-seed{args.seed}-round{p}.jsonl")
        result = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for name, (worst, limit, fails) in sorted(tally.worst.items()):
        print(f"{name} worst {worst:.3e} limit {limit:.0e} failures {fails}")
    for err in tally.errors:
        print(f"error {err}")
    print(f"failed_frac {tally.failed_frac:.6g} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0 and exact,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


def unit_of(name):
    """Unit of a per-layer metric, from its suffix."""
    for suffix, unit in (
        ("_s", "s"), ("_ms", "ms"), (".us_per_point", "us"), (".calls", "count"),
        (".points", "count"),
    ):
        if name.endswith(suffix):
            return unit
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
