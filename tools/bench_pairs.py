"""Alternated parent/change runs of the committed benchmark, kept in one file.

Usage, from the repository root, with the parent commit checked out or
exported to its own directory:

    python3 tools/bench_pairs.py --parent PARENT_DIR --change . --out BENCH_6.json

For pair i = 0 .. PAIRS - 1 and each workload named in BENCHMARK.json,
``perfbench/run.py`` runs once in each tree at seed FIRST_SEED + i for the
``run_seconds`` that BENCHMARK.json sets; the parent goes first in even
pairs and the change in odd ones. Then each tree makes TRACED traced runs
(``--trace 1``) per workload at seed 1, again alternating which side goes
first. ``perfbench/run.py`` pins ``OPENBLAS_NUM_THREADS`` itself; its
``env`` line reports the value.

The output holds, per workload, the last line of every run (its result
JSON, with the seed and whether it ran first) and every traced run under
``traced_runs``. No traced run is singled out: ``trace.overhead`` compares
the traced rounds with the untraced ones of the same run, and their spread
from round to round is larger than the cost of tracing, so the metric reads
below zero as often as not. It also holds a summary of each end-to-end
metric: median and quartiles per side and the pairs the change won, and
the ``env`` line of the first run, as ``OPENBLAS_NUM_THREADS`` the thread
count every run reported, and as ``src_lines`` the total line count of
``src/steklab/*.py`` in each tree.
The file is rewritten after every run, so stopping the script keeps the
runs made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TRACED = 2  # traced runs per side and workload
FIRST_SEED = 101


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in ``tree``: (env block, result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    head = next(line for line in out if line.startswith("env "))
    return json.loads(head[4:]), json.loads(out[-1])


def src_lines(tree):
    """Total lines of the package sources ``src/steklab/*.py`` in ``tree``."""
    return sum(len(p.read_text().splitlines()) for p in (tree / "src/steklab").glob("*.py"))


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs, metrics):
    """Per end-to-end metric: each side's quartiles and the change's wins."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        pairs = list(zip(vals["parent"], vals["change"]))
        if len(pairs) < 2:
            continue
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        out[name] = {s: quartiles(vals[s]) for s in SIDES}
        out[name].update(pairs=len(pairs), change_wins=wins, better=m["better"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "OPENBLAS_NUM_THREADS": None,
        "seconds": seconds,
        "env": None,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "workloads": {
            w: {"parent": [], "change": [], "traced_runs": {s: [] for s in SIDES}}
            for w in names
        },
    }

    def record(side, workload, seed, first, trace):
        env, result = run_once(trees[side], workload, seed, seconds, trace)
        doc["env"] = doc["env"] or env
        threads = str(env["blas_threads"])
        if doc["OPENBLAS_NUM_THREADS"] not in (None, threads):
            sys.exit(f"runs pinned different thread counts: {threads}")
        doc["OPENBLAS_NUM_THREADS"] = threads
        entry = dict(result, seed=seed, first=first)
        runs = doc["workloads"][workload]
        if trace:
            runs["traced_runs"][side].append(entry)
        else:
            runs[side].append(entry)
            runs["summary"] = summarize(runs, spec["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{workload} {side} seed {seed} trace {trace}: correct "
              f"{result['correct']}, failed {result['failed']}", file=sys.stderr)

    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in names:
            for k, side in enumerate(order):
                record(side, workload, FIRST_SEED + i, k == 0, 0)
    for i in range(TRACED):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in names:
            for k, side in enumerate(order):
                record(side, workload, 1, k == 0, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
