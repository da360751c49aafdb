"""Every committed BENCH_*.json holds enough clean benchmark runs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file(path):
    doc = json.loads(path.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    number = int(path.stem.split("_")[1])
    assert doc["env"]["blas_threads"] == int(doc["OPENBLAS_NUM_THREADS"])
    assert sorted(doc["workloads"]) == sorted(workloads)
    if number >= 9:  # earlier files predate the count
        counts = doc["src_lines"]
        assert sorted(counts) == ["change", "parent"]
        assert all(type(n) is int and n > 0 for n in counts.values())
    for name, runs in doc["workloads"].items():
        for side in ("parent", "change"):
            assert len(runs[side]) >= 3, (name, side)
            # files from before the alternated traced runs keep one traced
            # run; from BENCH_15 on every traced run is under traced_runs only
            traced = runs.get("traced_runs", {}).get(side, [])
            if number < 15:
                traced = traced + [runs["traced"][side]]
            else:
                assert traced, (name, side)
            for r in runs[side] + traced:
                assert r["correct"] is True and r["failed"] == 0, (name, side)
