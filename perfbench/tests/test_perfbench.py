"""Every benchmark check can fail, the tracer is exact and leaves no trace,
and the benchmark refuses to run without the steklab sources.

Run with ``python3 -m pytest perfbench/tests``.
"""

import copy
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from steklab import geometry, lab, nodal, steklov
from tracer import Tracer, tail
from workloads import Tally


@pytest.fixture(scope="module")
def disk_spectrum():
    return steklov.solve_spectrum(steklov.build_dtn(geometry.disk(grid_size=256), 128), 32)


def verdict(check, *args):
    """Run one check through the item accounting; returns the tally."""
    tally = Tally()
    tally.items([check(tally, *args)])
    return tally


@pytest.fixture(scope="module")
def disk_study(disk_spectrum):
    config = lab.ExperimentConfig(
        domain="disk", n_nodes=128, j_min=5, j_max=10, n_centers=2, octaves=1.0
    )
    return lab.run_scaling_study(config, spectrum=disk_spectrum)


def study_tally(study):
    tally = Tally()
    tally.items(workloads.check_study(tally, study))
    return tally


def test_disk_study_passes(disk_study):
    assert study_tally(disk_study).failed_frac == 0


@pytest.mark.parametrize("field, error", [("eigenvalue", 1e-8), ("zero_count", 2)])
def test_disk_study_check_fails_one_pair(disk_study, field, error):
    study = copy.deepcopy(disk_study)
    rec = study.records[2]
    setattr(rec, field, getattr(rec, field) + error)
    tally = study_tally(study)
    assert tally.failed == 1 and tally.failed_frac > 0


def test_scaling_round_counts_failing_and_missing_pairs(disk_spectrum, monkeypatch):
    config = lab.ExperimentConfig(
        domain="disk", n_nodes=128, j_min=5, j_max=10, n_centers=2, octaves=1.0
    )
    real = lab.run_scaling_study

    def wrong_study(config, spectrum):
        study = real(config, spectrum=spectrum)
        study.records[1].zero_count += 2
        del study.records[-1]
        return study

    monkeypatch.setattr(lab, "run_scaling_study", wrong_study)
    run = workloads.Run(Tally())
    workloads.Scaling().round([(config, disk_spectrum)], run)
    assert run.tally.attempted == 6 and run.tally.failed == 6
    assert run.tally.worst["check.pairs_missing"][0] == 1


def test_disk_domain_mass_check(disk_spectrum):
    pair, k = disk_spectrum[1], 1
    mass = nodal.domain_mass(pair)
    masses = [1.0, 2.0, 3.0]
    assert verdict(workloads.check_solid_item, k, mass, 0.3, masses).failed_frac == 0
    assert verdict(workloads.check_solid_item, k, mass + 1e-6, 0.3, masses).failed_frac > 0


def test_solid_checks_reject_bad_constant_and_profile():
    assert verdict(workloads.check_solid_item, None, 1.0, math.inf, [1.0, 2.0]).failed_frac > 0
    assert verdict(workloads.check_solid_item, None, 1.0, 0.3, [2.0, 1.0]).failed_frac > 0


def test_nan_fails_a_check():
    tally = Tally()
    assert not tally.check("check.x", float("nan"), 1.0)
    assert math.isnan(tally.worst["check.x"][0])


def test_error_counts_every_lost_item():
    tally = Tally()
    try:
        raise ValueError("boom")
    except ValueError:
        tally.error("where", 3)
    assert (tally.attempted, tally.failed) == (3, 3)
    assert "boom" in tally.errors[0]


def test_tracer_counts_repeat_and_restore(disk_spectrum):
    original = geometry.BoundaryCurve.point, nodal.boundary_zeros, lab.build_dtn
    counts = []
    for _ in range(2):
        with Tracer() as tr:
            curve = geometry.disk(grid_size=256)
            nodal.boundary_zeros(disk_spectrum[5])
            curve.nearest_point_many(np.array([[0.1, 0.2], [0.3, 0.0]]))
        counts.append(tr.counts())
    assert counts[0] == counts[1]
    assert counts[0]["geometry.curve_ctor.calls"] == 1
    assert counts[0]["nodal.boundary_zeros.calls"] == 1
    assert counts[0]["geometry.nearest_point_many.points"] == 2
    assert counts[0]["steklov.trace_at.calls"] > 1
    assert (geometry.BoundaryCurve.point, nodal.boundary_zeros, lab.build_dtn) == original
    child = [s for s in tr.spans if s[0] == "geometry.nearest_point_many"]
    assert len(child) == 1 and child[0][3] == -1  # top level: no parent span


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    tr.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 5.0, 6.0, 0, 0]]
    assert tr.self_times() == [6.0, 3.0, 1.0]


def test_tail_has_ten_samples_above():
    values = list(range(100))
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert tail(list(range(10))) is None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(workloads.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scaling", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
