"""Acceptance battery: one test per headline claim of the package.

Each test records a single [PASS]/[FAIL] verdict line; conftest prints the
collected lines in the terminal summary so they stay visible under capture.
"""

import dataclasses
import time

import numpy as np
import pytest

from steklab import geometry, lab, nodal
from steklab import frequency as fq
from steklab.steklov import build_dtn, solve_spectrum

from conftest import disk_mode_coefficients


VERDICTS = []


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def _rotated_copy(pair_a, pair_b, phi):
    """Synthetic eigenpair from a rotation inside a degenerate eigenspace."""
    return dataclasses.replace(
        pair_a,
        trace=np.cos(phi) * pair_a.trace + np.sin(phi) * pair_b.trace,
        density=np.cos(phi) * pair_a.density + np.sin(phi) * pair_b.density,
    )


def test_criterion_01_disk_spectrum():
    t0 = time.perf_counter()
    spectrum = solve_spectrum(build_dtn(geometry.disk(), 512), 81)
    elapsed = time.perf_counter() - t0
    want = np.concatenate([[0.0], np.repeat(np.arange(1.0, 41.0), 2)])
    err = float(np.max(np.abs(spectrum.eigenvalues - want)))
    ok = err <= 1e-8 and elapsed <= 30.0
    _report(1, "disk spectrum", ok, f"max err {err:.3e}, {elapsed:.1f}s")


def test_criterion_02_disk_nodal_counts(disk_spectrum):
    worst = ""
    ok = True
    for j, pair in enumerate(disk_spectrum):
        k = (j + 1) // 2
        count = nodal.boundary_zeros(pair).count
        if count != 2 * k:
            ok = False
            worst = f"pair {j} (k={k}): got {count}"
            break
    # basis independence inside degenerate eigenspaces
    if ok:
        for k in (3, 11, 27):
            a, b = disk_spectrum[2 * k - 1], disk_spectrum[2 * k]
            for phi in (0.3, 1.2, 2.6):
                count = nodal.boundary_zeros(_rotated_copy(a, b, phi)).count
                if count != 2 * k:
                    ok = False
                    worst = f"rotated k={k}, phi={phi}: got {count}"
                    break
    _report(2, "disk nodal counts", ok, worst or "all 2k, rotation-stable")


def test_criterion_03_ellipse_scaling(ellipse_spectrum):
    t0 = time.perf_counter()
    lams, zs = [], []
    ok = True
    worst = ""
    for j, pair in enumerate(ellipse_spectrum):
        rep = nodal.boundary_zeros(pair)
        lam = pair.eigenvalue
        if rep.count > 2 * lam**6 + 2:
            ok = False
            worst = f"pair {j}: Z={rep.count} above 2 lam^6 + 2"
        lams.append(lam)
        zs.append(rep.count)
    fit = lab.ScalingFit.fit(np.array(lams), np.array(zs, dtype=float))
    elapsed = time.perf_counter() - t0
    ok = ok and 0.8 <= fit.slope <= 1.2 and elapsed <= 300.0
    _report(
        3,
        "ellipse nodal scaling",
        ok,
        worst or f"slope {fit.slope:.4f}, {elapsed:.1f}s",
    )


def test_criterion_04_degree_identity():
    worst = 0.0
    grid = fq.geometric_radii(0.05, 0.85)
    for k in range(9):
        f = fq.harmonic_polynomial([(k, 1.0, 0.0)])
        prof = fq.frequency_profile(f, (0.0, 0.0), grid)
        worst = max(worst, float(np.max(np.abs(prof.N - k))))
    _report(4, "frequency degree identity", worst <= 1e-8, f"worst {worst:.3e}")


def test_criterion_05_monotonicity():
    worst = 0.0
    for f in lab.random_harmonic_family(n_cases=20, seed=42):
        prof = fq.frequency_profile(f, (0.0, 0.0), np.linspace(0.05, 0.85, 32))
        rep = fq.check_monotonicity(prof)
        scale = max(float(np.max(np.abs(prof.N))), 1e-300)
        worst = max(worst, rep.worst_violation / scale)
    _report(5, "frequency monotonicity", worst <= 1e-6, f"worst rel {worst:.3e}")


def test_criterion_06_hprime_identity():
    worst = 0.0
    for f in lab.random_harmonic_family(n_cases=20, seed=42):
        worst = max(worst, fq.check_hprime_identity(f, (0.0, 0.0), 0.5))
    _report(6, "growth-derivative identity", worst <= 1e-4, f"worst {worst:.3e}")


def test_criterion_07_doubling_corollaries():
    family = lab.random_harmonic_family(n_cases=20, seed=42)
    worst_slack, worst_eq, worst_inv = 0.0, 0.0, 0.0
    for f in family:
        rep = fq.check_doubling_from_frequency(f, (0.0, 0.0), 0.6)
        worst_slack = max(
            worst_slack,
            max(0.0, rep.circle_ratio - rep.bound) / rep.bound,
            max(0.0, rep.ball_ratio - rep.bound) / rep.bound,
        )
        # inverse bound from a measured retention constant
        kappa = 0.95 * (
            fq._ball_mean(f, (0.0, 0.0), 0.4) / fq._ball_mean(f, (0.0, 0.0), 0.8)
        )
        inv = fq.frequency_from_doubling(f, (0.0, 0.0), 0.8, 0.5, 0.75, kappa)
        worst_inv = max(worst_inv, inv.measured - inv.bound)
    for k in range(1, 9):
        f = fq.harmonic_polynomial([(k, 1.0, 0.0)])
        rep = fq.check_doubling_from_frequency(f, (0.0, 0.0), 0.6)
        worst_eq = max(worst_eq, abs(rep.circle_ratio - rep.bound) / rep.bound)
    ok = worst_slack <= 1e-10 and worst_eq <= 1e-8 and worst_inv <= 0.0
    _report(
        7,
        "doubling corollaries",
        ok,
        f"slack {worst_slack:.2e}, homog eq {worst_eq:.2e}, "
        f"inverse margin {-worst_inv:.2e}",
    )


def test_criterion_08_v_transform(disk_spectrum):
    rng = np.random.default_rng(42)
    tube = geometry.TubeNeighborhood(geometry.disk(), 0.4)
    worst_bc, worst_match, worst_pde = 0.0, 0.0, 0.0
    for k in range(1, 21):
        pair = disk_spectrum[2 * k - 1]
        lam = pair.eigenvalue
        field, coeffs = fq.v_transform(pair, tube)
        curve = pair.curve
        # boundary: v = u exactly and the normal derivative vanishes
        t = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        vb, gb = field(curve.point(t))
        nd = np.einsum("ij,ij->i", gb, curve.normal(t))
        sup = float(np.max(np.abs(pair.trace)))
        worst_bc = max(worst_bc, float(np.max(np.abs(nd))) / (lam * sup))
        worst_match = max(
            worst_match, float(np.max(np.abs(vb - pair.trace_at(t)))) / sup
        )
        # PDE residual at 50 probes per mode (1000 total), both collar sides
        tp = rng.uniform(0, 2 * np.pi, 50)
        sp = np.where(
            np.arange(50) % 2 == 0,
            rng.uniform(-0.25, -0.05, 50),
            rng.uniform(0.05, 0.25, 50),
        )
        x = curve.point(tp) + sp[:, None] * curve.normal(tp)
        res = fq.pde_residual(field, coeffs, x, 1e-3 / lam)
        scale = lam**2 * float(np.max(np.abs(field(x)[0])))
        worst_pde = max(worst_pde, float(np.max(np.abs(res))) / scale)
    ok = worst_bc <= 1e-6 and worst_match <= 1e-9 and worst_pde <= 1e-5
    _report(
        8,
        "transformed-equation correctness",
        ok,
        f"bc {worst_bc:.2e}, match {worst_match:.2e}, pde {worst_pde:.2e}",
    )


@pytest.fixture(scope="module")
def studies(disk_spectrum, ellipse_spectrum):
    out = {}
    for name, spectrum in (("disk", disk_spectrum), ("ellipse(2,1)", ellipse_spectrum)):
        cfg = lab.ExperimentConfig(domain=name, j_max=40, n_centers=6, octaves=2.5)
        out[name] = lab.run_scaling_study(cfg, spectrum=spectrum)
    return out


def test_criterion_09_doubling_growth(studies):
    ok = True
    details = []
    for name, study in studies.items():
        recs = [r for r in study.records if r.included and r.eigenvalue > 0]
        lams = np.array([r.eigenvalue for r in recs])
        es = np.array([r.max_exponent for r in recs])
        cut = float(np.median(lams))
        c_emp = float(np.max(es[lams >= cut] / lams[lams >= cut] ** 5))
        slope = study.doubling_fit.slope
        ok = ok and c_emp <= 1.0 and slope <= 5.0
        details.append(f"{name}: C_emp {c_emp:.2e}, slope {slope:.2f}")
    _report(9, "doubling-exponent growth", ok, "; ".join(details))


def test_criterion_10_special_point(disk_spectrum):
    rho = 0.3
    constants = []
    for j in range(41):
        pair = disk_spectrum[j]
        k = (j + 1) // 2
        # closed-form total mass of the r^k mode shortcuts the domain quadrature
        total = 1.0 / (2 * k + 2)
        rep = nodal.special_point_search(
            pair, rho, total=total, n_r=20, n_theta=96
        )
        constants.append(rep.constant)
    constants = np.array(constants)
    spread = float(np.max(constants) / np.min(constants))
    ok = bool(np.all(np.isfinite(constants)) and spread <= 10.0)
    _report(10, "special-point constant", ok, f"spread {spread:.2f}x over 41 pairs")


def test_criterion_11_complex_zero_oracle():
    t0 = time.perf_counter()
    rep = lab.run_complex_zero_oracle(count=200, max_degree=12, seed=42)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed <= 5.0
    _report(
        11,
        "complex zero oracle",
        ok,
        f"{len(rep.violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_12_determinism(tmp_path):
    cfg_json = lab.ExperimentConfig(
        domain="disk", n_nodes=256, j_max=6, n_centers=4, octaves=2.0
    ).to_json()
    outputs = []
    for run in ("a", "b"):
        config = lab.ExperimentConfig.from_json(cfg_json)
        study = lab.run_scaling_study(config)
        paths = lab.write_artifacts(study, str(tmp_path / run))
        blobs = {}
        for key in sorted(paths):
            with open(paths[key], "rb") as fh:
                blobs[key] = fh.read()
        outputs.append(blobs)
    same = outputs[0].keys() == outputs[1].keys() and all(
        outputs[0][k] == outputs[1][k] for k in outputs[0]
    )
    _report(12, "pipeline determinism", same, f"{len(outputs[0])} artifacts compared")
