"""The benchmark workloads, their inputs, items and output checks.

Each workload builds its inputs from a seed (``setup``), then runs rounds.
A round processes the same items from a fresh copy of the inputs, so every
round does identical work and caches filled by one round never help the
next. An item is the unit of ``items_per_s`` and of ``failed_frac``; it
fails when it raises or when any of its checks fails. Every item a round
attempts is counted in the tally, and the runner times whole rounds.

Two workloads, one per side of ``steklov``: ``scaling`` reads eigenfunctions
on the boundary (geometry, steklov, nodal, lab), ``solid-mass`` evaluates
them inside the domain (geometry, steklov, nodal, frequency). Both solve
their spectra in set-up, so the DtN build and eigensolve show in
``setup_s``.

Every check has a fixed tolerance and is independent of the basis chosen
inside a degenerate eigenspace, because disk eigenspace bases change with
the BLAS build and thread count.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from steklab import frequency, geometry, lab, nodal, steklov

TWO_PI = 2.0 * np.pi

# tolerances of the output checks
DISK_EIG_RTOL = 1e-10
NODAL_SLOPE_TOL = 0.05
C_EMP_MAX = 1.0
DOUBLING_SLOPE_MAX = 5.0
DISK_MASS_RTOL = 1e-8
SPECIAL_SPREAD_MAX = 10.0


class Tally:
    """Counts attempted and failed items and keeps the worst value per check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = {}  # check name -> (worst value, limit, failures)
        self.errors = []

    def check(self, name, value, limit):
        """Record one check of ``value <= limit``; NaN fails. Returns the verdict."""
        value = float(value)
        ok = value <= limit
        worst, _, fails = self.worst.get(name, (-math.inf, limit, 0))
        if math.isnan(value) or value > worst:
            worst = value
        self.worst[name] = (worst, limit, fails + (not ok))
        return ok

    def items(self, verdicts):
        """Count items, one verdict (True = passed) each."""
        self.attempted += len(verdicts)
        self.failed += sum(1 for ok in verdicts if not ok)

    def error(self, where, n_items):
        """Count ``n_items`` items lost to the exception being handled."""
        self.errors.append(f"{where}: {traceback.format_exc().splitlines()[-1]}")
        self.items([False] * n_items)

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


class Run:
    """What the rounds of one run report to: the check tally and the tracer
    of a traced round (None otherwise)."""

    def __init__(self, tally):
        self.tally = tally
        self.tracer = None

    def label(self, item):
        """Stamp the spans that follow with the id ``item``."""
        if self.tracer is not None:
            self.tracer.item = item


# -- shared inputs ----------------------------------------------------------------


def rotated_pair(a, b, phi):
    """cos(phi) a + sin(phi) b, for pairs a, b spanning one degenerate eigenspace.

    The disk's eigenspaces are two-dimensional, so a seeded angle draws a
    disk eigenfunction from the whole eigenspace instead of the basis the
    eigensolver happened to return. Cost and the disk checks do not depend
    on the angle.
    """
    c, s = np.cos(phi), np.sin(phi)
    trace = c * a.trace + s * b.trace
    lam = 0.5 * (a.eigenvalue + b.eigenvalue)
    return steklov.SteklovEigenpair(
        eigenvalue=lam,
        trace=trace,
        density=c * a.density + s * b.density,
        residual=float(np.max(np.abs(a.dtn.L @ trace - lam * trace))),
        dtn=a.dtn,
        index=a.index,
    )


def rotated_disk_spectrum(spectrum, rng):
    """The disk spectrum with every eigenspace (pairs 2k-1, 2k) rotated by a
    seeded angle; pair 0 and an unpaired last pair are kept."""
    pairs = list(spectrum.pairs)
    for j in range(1, len(pairs) - 1, 2):
        phi = rng.uniform(0.0, TWO_PI)
        a, b = pairs[j], pairs[j + 1]
        pairs[j], pairs[j + 1] = rotated_pair(a, b, phi), rotated_pair(b, a, -phi)
    return steklov.SpectrumSlice(pairs=pairs, dtn=spectrum.dtn)


# -- scaling -----------------------------------------------------------------------

SCALING_NODES = 512
SCALING_PAIRS = (7, 14)  # first and last pair of the study, both domains
SCALING_DOMAINS = ("disk", "ellipse:2,1")


class Scaling:
    """The paper's headline study: ``lab.run_scaling_study`` on ``disk`` and
    ``ellipse:2,1`` at N = 512 with criterion 09's n_centers = 6 and
    octaves = 2.5.

    Why: its time goes to scalar Python loops (bisection in
    ``boundary_zeros``, ``_ball_curve_intervals``, ``_interval_mass``), made
    of thousands of ``BoundaryCurve.point`` and ``trace_at`` calls on about
    16 points each, with no ``evaluate_many`` call. The spectra are built in
    set-up; the DtN solve is a few percent of a study.

    Inputs: pairs SCALING_PAIRS of both domains, past the low pairs whose
    larger balls cost more; every disk eigenspace is rotated by a seeded
    angle, the ellipse has none to rotate. Item: one eigenpair, giving its
    zero count and max doubling exponent. The pairs of one study run inside
    ``lab``, so their spans carry the study's id.
    """

    name = "scaling"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for domain in SCALING_DOMAINS:
            curve = geometry.builtin_curve(domain)
            dtn = steklov.build_dtn(curve, SCALING_NODES)
            spec = steklov.solve_spectrum(dtn, SCALING_PAIRS[1] + 1)
            if domain == "disk":
                spec = rotated_disk_spectrum(spec, rng)
            config = lab.ExperimentConfig(
                domain=domain, n_nodes=SCALING_NODES, j_min=SCALING_PAIRS[0],
                j_max=SCALING_PAIRS[1], n_centers=6, octaves=2.5, seed=seed,
            )
            out.append((config, spec))
        return out

    def round(self, inputs, run):
        tally = run.tally
        for config, spec in inputs:
            run.label(f"{config.domain} study")
            try:
                study = lab.run_scaling_study(config, spectrum=spec)
                tally.items(check_study(tally, study))
            except Exception:
                tally.error(f"scaling {config.domain}", config.j_max - config.j_min + 1)


def check_study(tally, study):
    """Per-pair and per-study checks; a failed study check fails every pair.

    A pair the study left out of its records counts as failed.
    """
    domain = study.config.domain
    verdicts = []
    expected = study.config.j_max - study.config.j_min + 1
    for rec in study.records:
        ok = tally.check("check.pairs_excluded", float(not rec.included), 0.0)
        if domain == "disk":
            ok &= check_disk_eigenvalue(tally, rec.index, rec.eigenvalue)
            ok &= check_disk_zero_count(tally, rec.index, rec.zero_count)
        verdicts.append(bool(ok))
    inc = [r for r in study.records if r.included and r.eigenvalue > 0]
    lams = np.array([r.eigenvalue for r in inc])
    es = np.array([r.max_exponent for r in inc])
    above = lams >= np.median(lams)
    c_emp = float(np.max(es[above] / lams[above] ** 5))
    ok = tally.check("check.c_emp", c_emp, C_EMP_MAX)
    ok &= tally.check("check.doubling_slope", study.doubling_fit.slope, DOUBLING_SLOPE_MAX)
    if domain != "disk":
        ok &= tally.check(
            "check.ellipse_nodal_slope_err", abs(study.nodal_fit.slope - 1.0),
            NODAL_SLOPE_TOL,
        )
    ok &= tally.check("check.pairs_missing", abs(expected - len(verdicts)), 0)
    verdicts += [False] * (expected - len(verdicts))
    return [v and bool(ok) for v in verdicts]


def check_disk_eigenvalue(tally, j, lam):
    """Unit disk: pair j >= 1 has eigenvalue ceil(j/2) to DISK_EIG_RTOL."""
    want = math.ceil(j / 2)
    return tally.check("check.disk_eig_rel_err", abs(lam - want) / want, DISK_EIG_RTOL)


def check_disk_zero_count(tally, j, count):
    """Unit disk: pair j has exactly 2 ceil(j/2) boundary zeros."""
    return tally.check("check.disk_zero_count_err", abs(count - 2 * math.ceil(j / 2)), 0)


# -- solid-mass --------------------------------------------------------------------

SOLID_NODES = 512
SOLID_DISK_MODES = (3, 12)  # disk modes k, each at a seeded eigenspace angle
SOLID_ELLIPSE_PAIRS = (7, 8)
SOLID_RHO = 0.3


class SolidMass:
    """Consumer side of ``steklov``: interior evaluation of eigenfunctions.

    Calls, per eigenpair: ``nodal.domain_mass``, ``nodal.special_point_search``
    (rho = 0.3, n_r = 20, n_theta = 96, as in criterion 10, with the domain
    mass as total) and a solid-mode ``nodal.doubling_profile`` of the
    ``frequency.v_transform`` field at the special point.

    Why: the Taylor band, the upsampled layer quadrature and foot-point
    projection dominate; layer-evaluation memory shows in ``peak_rss_mb``.
    The ellipse pairs are there because the disk's angle bisection in
    ``domain_mass`` exits at its first midpoint, so a disk-only sample would
    hide the general path.

    Inputs: disk modes SOLID_DISK_MODES, each drawn from its eigenspace at
    a seeded angle, and ellipse pairs SOLID_ELLIPSE_PAIRS. Item: one
    eigenpair.
    """

    name = "solid-mass"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        disk = steklov.solve_spectrum(
            steklov.build_dtn(geometry.disk(), SOLID_NODES), 2 * max(SOLID_DISK_MODES) + 1
        )
        ellipse = steklov.solve_spectrum(
            steklov.build_dtn(geometry.ellipse(2.0, 1.0), SOLID_NODES),
            max(SOLID_ELLIPSE_PAIRS) + 1,
        )
        pairs = [
            (rotated_pair(disk[2 * k - 1], disk[2 * k], rng.uniform(0.0, TWO_PI)), k)
            for k in SOLID_DISK_MODES
        ]
        return pairs + [(ellipse[j], None) for j in SOLID_ELLIPSE_PAIRS]

    def round(self, inputs, run):
        tally = run.tally
        verdicts, constants = [], []
        for pair, k in inputs:
            label = f"{pair.curve.name}#{pair.index}"
            run.label(label)
            try:
                total = nodal.domain_mass(pair)
                rep = nodal.special_point_search(
                    pair, SOLID_RHO, total=total, n_r=20, n_theta=96
                )
                profile = solid_profile(pair, rep.best_point)
                verdicts.append(check_solid_item(tally, k, total, rep.constant, profile.masses))
                constants.append(rep.constant)
            except Exception:
                tally.error(label, 1)
        if constants:
            spread = max(constants) / min(constants) if min(constants) > 0 else np.inf
            if not tally.check("check.special_spread", spread, SPECIAL_SPREAD_MAX):
                verdicts = [False] * len(verdicts)
        tally.items(verdicts)


def solid_profile(pair, center):
    """Solid-mode doubling profile of v = u exp(lambda d) over one octave.

    The balls stay inside the reflected collar: radii up to 0.4 of a tube
    half the curve's reach, and at most one wavelength 1/lambda.
    """
    curve = pair.curve
    tube = geometry.TubeNeighborhood(curve, 0.5 * curve.max_tube_halfwidth())
    vfield, _ = frequency.v_transform(pair, tube)
    r_max = min(0.4 * tube.delta, 1.0 / max(pair.eigenvalue, 1.0))
    return nodal.doubling_profile(
        pair, center, 0.5 * r_max, r_max, mode="solid", vfield=vfield,
        steps_per_octave=2,
    )


def check_solid_item(tally, k, total, constant, masses):
    """Checks of one solid-mass item; k is the disk mode or None."""
    ok = True
    if k is not None:
        ok &= check_disk_mass(tally, k, total)
    ok &= tally.check("check.special_constant_nonfinite", float(not np.isfinite(constant)), 0.0)
    masses = np.asarray(masses, dtype=float)
    bad = int(np.sum(masses <= 0) + np.sum(np.diff(masses) <= 0))
    return bool(ok & tally.check("check.solid_mass_bad_steps", bad, 0))


def check_disk_mass(tally, k, mass):
    """Unit disk, mode k with unit boundary L2 norm: mass is 1/(2k+2)."""
    want = 1.0 / (2 * k + 2)
    return tally.check("check.disk_mass_rel_err", abs(mass - want) / want, DISK_MASS_RTOL)


WORKLOADS = {w.name: w for w in (Scaling(), SolidMass())}
