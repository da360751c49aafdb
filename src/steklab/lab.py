"""Experiment orchestration: scaling studies, check suites, and plot emission.

Everything here is deterministic: random families use one recorded seed,
aggregation is sorted before serialization, and floats are written with a
fixed format, so repeated runs of the same configuration produce
byte-identical CSV and SVG artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from . import frequency as fq
from . import geometry, nodal
from .errors import DegenerateCenterError, SolverError
from .steklov import build_dtn, solve_spectrum

TWO_PI = 2.0 * np.pi

_RESIDUAL_GATE = 1e-6


# -- configuration ----------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Declarative description of one study run."""

    domain: str = "disk"
    n_nodes: int = 512
    j_min: int = 0
    j_max: int = 40
    samples: int = 0  # 0 means automatic (twice the oscillation guard)
    tol: float = 1e-12
    n_centers: int = 8
    radii_per_octave: int = 4
    octaves: float = 3.0
    outdir: str = "."
    seed: int = 42  # recorded in scaling.json; the study draws nothing

    def curve(self):
        return geometry.curve_from_spec(self.domain)

    def to_json(self):
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        known = {k: v for k, v in data.items() if k in cls.__dataclass_fields__}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**known)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())


# -- scaling fits -----------------------------------------------------------------


@dataclass
class ScalingFit:
    """Log-log least squares of a quantity against the eigenvalue."""

    lambdas: np.ndarray
    values: np.ndarray
    lambda_cut: float
    slope: float
    intercept: float
    residual: float

    @classmethod
    def fit(cls, lambdas, values, lambda_cut=None):
        lambdas = np.asarray(lambdas, dtype=float)
        values = np.asarray(values, dtype=float)
        good = (lambdas > 0) & (values > 0)
        if lambda_cut is None:
            lambda_cut = float(np.median(lambdas[good])) if np.any(good) else 0.0
        use = good & (lambdas >= lambda_cut)
        if np.sum(use) < 2:
            raise ValueError("not enough points above the eigenvalue cut to fit")
        x = np.log(lambdas[use])
        y = np.log(values[use])
        M = np.stack([x, np.ones_like(x)], axis=1)
        coef, res, _, _ = np.linalg.lstsq(M, y, rcond=None)
        resid = float(np.sqrt(res[0] / len(x))) if len(res) else 0.0
        return cls(
            lambdas=lambdas,
            values=values,
            lambda_cut=float(lambda_cut),
            slope=float(coef[0]),
            intercept=float(coef[1]),
            residual=resid,
        )


# -- scaling study ------------------------------------------------------------------


@dataclass
class PairRecord:
    index: int
    eigenvalue: float
    residual: float
    included: bool
    reason: str
    zero_count: int
    tangential_flags: int
    max_exponent: float


@dataclass
class ScalingStudy:
    config: ExperimentConfig
    records: list
    nodal_fit: ScalingFit
    doubling_fit: ScalingFit

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(
            [
                "index",
                "eigenvalue",
                "residual",
                "included",
                "reason",
                "zero_count",
                "tangential_flags",
                "max_doubling_exponent",
            ]
        )
        for rec in sorted(self.records, key=lambda r: (r.eigenvalue, r.index)):
            writer.writerow(
                [
                    str(rec.index),
                    f"{rec.eigenvalue:.17e}",
                    f"{rec.residual:.17e}",
                    "1" if rec.included else "0",
                    rec.reason,
                    str(rec.zero_count),
                    str(rec.tangential_flags),
                    "" if np.isnan(rec.max_exponent) else f"{rec.max_exponent:.17e}",
                ]
            )
        return buf.getvalue()

    def to_json(self):
        def fitdict(fit):
            return {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "lambda_cut": fit.lambda_cut,
                "residual": fit.residual,
            }

        return json.dumps(
            {
                "config": json.loads(self.config.to_json()),
                "nodal_fit": fitdict(self.nodal_fit),
                "doubling_fit": fitdict(self.doubling_fit),
                "n_pairs": len(self.records),
            },
            sort_keys=True,
        )


def max_doubling_exponent(pair, n_centers=8, radii_per_octave=4, octaves=3.0):
    """Largest boundary doubling exponent over a center and radius sweep.

    Centers are spread uniformly in the boundary parameter; the radius range
    scales like 1/lambda so the sweep tracks the eigenfunction wavelength.
    The radii are those of nodal.doubling_profile (nodal.doubling_radii),
    and all centers and radii go in one nodal.boundary_mass call. A center
    with no mass at the smallest radius, or whose exponents hold a NaN, is
    skipped as degenerate; DegenerateCenterError if every center is.
    """
    if not (isinstance(n_centers, (int, np.integer)) and n_centers > 0):
        raise ValueError(f"n_centers must be a positive integer, got {n_centers!r}")
    lam_eff = max(pair.eigenvalue, 1.0)
    r_max = min(0.5 * pair.curve.max_tube_halfwidth(), 1.0 / lam_eff)
    r_min = r_max / 2.0**octaves
    radii = nodal.doubling_radii(r_min, r_max, radii_per_octave)
    centers = pair.curve.point(np.linspace(0.0, TWO_PI, n_centers, endpoint=False))
    masses = nodal.boundary_mass(pair, centers, radii)
    masses = masses[~(masses[:, 0] <= 0)]
    n, k = len(radii), radii_per_octave
    peaks = np.max(np.log2(masses[:, k:] / masses[:, :max(n - k, 0)]), axis=1,
                   initial=-np.inf)
    worst = np.max(peaks[~np.isnan(peaks)], initial=-np.inf)
    if not np.isfinite(worst):
        raise DegenerateCenterError("all sweep centers were degenerate")
    return float(worst)


def run_scaling_study(config, spectrum=None):
    """Nodal counts and doubling exponents across a spectrum slice, with
    log-log fits against the eigenvalue."""
    j_min, j_max = config.j_min, config.j_max
    ints = all(isinstance(j, (int, np.integer)) for j in (j_min, j_max))
    if not (ints and 0 <= j_min <= j_max):
        raise ValueError(f"need integers 0 <= j_min <= j_max, got {j_min!r} and {j_max!r}")
    n_nodes, samples = config.n_nodes, config.samples
    if not (isinstance(n_nodes, (int, np.integer)) and n_nodes > 0):
        raise ValueError(f"n_nodes must be a positive integer, got {n_nodes!r}")
    if not (isinstance(samples, (int, np.integer)) and samples >= 0):
        raise ValueError(f"samples must be an integer >= 0 (0: automatic), got {samples!r}")
    count = j_max + 1
    if spectrum is None:
        spectrum = solve_spectrum(build_dtn(config.curve(), n_nodes), count)
    records = []
    for j in range(j_min, count):
        pair = spectrum[j]
        lam = pair.eigenvalue
        gate = _RESIDUAL_GATE * max(lam, 1.0)
        if pair.residual > gate:
            records.append(
                PairRecord(
                    index=j,
                    eigenvalue=lam,
                    residual=pair.residual,
                    included=False,
                    reason="residual above gate",
                    zero_count=-1,
                    tangential_flags=0,
                    max_exponent=np.nan,
                )
            )
            continue
        rep = nodal.boundary_zeros(
            pair, samples=samples or None, tol=config.tol
        )
        if lam > 0:
            emax = max_doubling_exponent(
                pair,
                n_centers=config.n_centers,
                radii_per_octave=config.radii_per_octave,
                octaves=config.octaves,
            )
        else:
            emax = 1.0  # constant trace: arclength measure doubles exactly
        records.append(
            PairRecord(
                index=j,
                eigenvalue=lam,
                residual=pair.residual,
                included=True,
                reason="",
                zero_count=rep.count,
                tangential_flags=len(rep.tangential_flags),
                max_exponent=emax,
            )
        )
    inc = [r for r in records if r.included and r.eigenvalue > 0]
    lams = np.array([r.eigenvalue for r in inc])
    zs = np.array([r.zero_count for r in inc], dtype=float)
    es = np.array([r.max_exponent for r in inc])
    nodal_fit = ScalingFit.fit(lams, zs)
    doubling_fit = ScalingFit.fit(lams, es)
    return ScalingStudy(
        config=config,
        records=records,
        nodal_fit=nodal_fit,
        doubling_fit=doubling_fit,
    )


# -- frequency suite -----------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass
class SuiteReport:
    results: list

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def to_json(self):
        return json.dumps(
            [
                {
                    "name": r.name,
                    "passed": bool(r.passed),
                    "worst": float(r.worst),
                    "detail": r.detail,
                }
                for r in self.results
            ],
            sort_keys=True,
        )

    def summary_lines(self):
        return [
            f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: worst={r.worst:.3e}"
            + (f" ({r.detail})" if r.detail else "")
            for r in self.results
        ]


def random_harmonic_family(n_cases=20, seed=42):
    """Seeded random combinations of harmonic polynomials up to degree 8."""
    if n_cases < 1:
        raise ValueError(f"need at least one case, got {n_cases}")
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n_cases):
        deg = int(rng.integers(1, 9))
        terms = []
        for k in range(deg + 1):
            a, b = rng.normal(size=2)
            terms.append((k, a, b))
        fields.append(fq.harmonic_polynomial(terms))
    return fields


def run_frequency_suite(seed=42, n_cases=20):
    """Identity and inequality checks on the harmonic-polynomial family."""
    family = random_harmonic_family(n_cases=n_cases, seed=seed)
    results = []
    grid = fq.geometric_radii(0.05, 0.85)

    worst = 0.0
    for k in range(9):
        f = fq.harmonic_polynomial([(k, 1.0, 0.0)])
        prof = fq.frequency_profile(f, (0.0, 0.0), grid)
        worst = max(worst, float(np.max(np.abs(prof.N - k))))
    results.append(
        CheckResult("degree-identity", worst <= 1e-8, worst, "degrees 0..8")
    )

    worst = 0.0
    for f in family:
        prof = fq.frequency_profile(
            f, (0.0, 0.0), np.linspace(0.05, 0.85, 32)
        )
        rep = fq.check_monotonicity(prof)
        scale = max(np.max(np.abs(prof.N)), 1e-300)
        worst = max(worst, rep.worst_violation / scale)
    results.append(
        CheckResult("monotonicity", worst <= 1e-6, worst, f"{n_cases} random cases")
    )

    worst = 0.0
    for f in family:
        worst = max(worst, fq.check_hprime_identity(f, (0.0, 0.0), 0.5))
    results.append(CheckResult("hprime-identity", worst <= 1e-4, worst))

    # circle means must be nondecreasing in r
    worst = 0.0
    for f in family:
        rr = np.linspace(0.05, 0.85, 24)
        means = np.array([fq._circle_mean(f, (0.0, 0.0), r) for r in rr])
        drop = float(np.max(np.maximum(0.0, means[:-1] - means[1:])))
        worst = max(worst, drop / np.max(means))
    results.append(CheckResult("circle-mean-nondecreasing", worst <= 1e-10, worst))

    # doubling bounds between R and R/2, with equality for homogeneous polynomials
    worst_slack, worst_eq = 0.0, 0.0
    for f in family:
        rep = fq.check_doubling_from_frequency(f, (0.0, 0.0), 0.6)
        worst_slack = max(
            worst_slack,
            max(0.0, rep.circle_ratio - rep.bound) / rep.bound,
            max(0.0, rep.ball_ratio - rep.bound) / rep.bound,
        )
    for k in range(1, 9):
        f = fq.harmonic_polynomial([(k, 1.0, 0.0)])
        rep = fq.check_doubling_from_frequency(f, (0.0, 0.0), 0.6)
        worst_eq = max(worst_eq, abs(rep.circle_ratio - rep.bound) / rep.bound)
    results.append(CheckResult("doubling-bounds", worst_slack <= 1e-10, worst_slack))
    results.append(
        CheckResult("doubling-equality-homogeneous", worst_eq <= 1e-8, worst_eq)
    )

    # frequency bound from a measured mass-retention constant
    worst = 0.0
    ok = True
    for f in family:
        kappa = 0.95 * (
            fq._ball_mean(f, (0.0, 0.0), 0.4) / fq._ball_mean(f, (0.0, 0.0), 0.8)
        )
        rep = fq.frequency_from_doubling(f, (0.0, 0.0), 0.8, 0.5, 0.75, kappa)
        ok = ok and rep.passed
        worst = max(worst, rep.measured - rep.bound)
    results.append(CheckResult("frequency-from-doubling", ok, worst))

    worst = 0.0
    for f in family:
        rep = fq.chain_frequency_check(f, 0.5, n_points=8, seed=seed)
        worst = max(worst, rep.constant)
    results.append(
        CheckResult("chain-frequency", np.isfinite(worst), worst, "recorded constant")
    )

    return SuiteReport(results=results)


# -- complex zero oracle ---------------------------------------------------------------


@dataclass
class ComplexZeroCase:
    coefficients: np.ndarray  # ascending powers, normalized so f(0) = 1
    bound: float  # N = log2 of the (safety-factored) sup on B_1
    zero_count: int

    @property
    def satisfied(self):
        return self.zero_count <= self.bound


@dataclass
class ComplexZeroReport:
    cases: list
    redraws: int
    seed: int

    @property
    def violations(self):
        return [c for c in self.cases if not c.satisfied]

    @property
    def passed(self):
        return not self.violations

    def to_json(self):
        return json.dumps(
            {
                "seed": self.seed,
                "cases": len(self.cases),
                "redraws": self.redraws,
                "violations": len(self.violations),
            },
            sort_keys=True,
        )


_SUP_GRID = 4096
_SUP_SAFETY = 1.01


def complex_zero_case(coefficients):
    """Evaluate one polynomial against the zero-count bound.

    Normalizes to |f(0)| = 1, takes N = log2(sup over the unit circle, padded
    by a small safety factor), and counts roots in the disk of radius 1/2 via
    the companion matrix. Overestimating the sup only loosens the bound.
    """
    coeffs = np.asarray(coefficients, dtype=complex)
    if abs(coeffs[0]) == 0:
        raise ValueError("polynomial must not vanish at the origin")
    coeffs = coeffs / coeffs[0]
    z = np.exp(1j * TWO_PI * np.arange(_SUP_GRID) / _SUP_GRID)
    vals = np.polyval(coeffs[::-1], z)
    sup = _SUP_SAFETY * float(np.max(np.abs(vals)))
    N = max(np.log2(sup), 0.0)
    lead = np.max(np.nonzero(np.abs(coeffs) > 0)[0])
    if lead == 0:
        roots = np.array([])
    else:
        roots = np.roots(coeffs[: lead + 1][::-1])
        resid = np.abs(np.polyval(coeffs[::-1], roots))
        scale = np.abs(np.polyval(np.abs(coeffs[::-1]), np.abs(roots)))
        if np.any(resid > 1e-8 * np.maximum(scale, 1.0)):
            raise SolverError("companion-matrix roots failed the residual check")
    count = int(np.sum(np.abs(roots) < 0.5))
    return ComplexZeroCase(coefficients=coeffs, bound=float(N), zero_count=count)


def run_complex_zero_oracle(count=200, max_degree=12, seed=42):
    """Battery of random polynomials checked against the zero-count bound."""
    if count < 1:
        raise ValueError(f"need at least one case, got {count}")
    if max_degree > 64:
        raise ValueError("degree above the companion-matrix accuracy bound")
    rng = np.random.default_rng(seed)
    cases = []
    redraws = 0
    while len(cases) < count:
        deg = int(rng.integers(1, max_degree + 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        if abs(coeffs[0]) < 1e-3:
            redraws += 1
            continue
        try:
            cases.append(complex_zero_case(coeffs))
        except SolverError:
            redraws += 1
    return ComplexZeroReport(cases=cases, redraws=redraws, seed=seed)


# -- SVG plotting ------------------------------------------------------------------------


_SVG_W, _SVG_H = 640, 480
_MARGIN = 60
_COLORS = ["#1f6fb2", "#c44e52", "#55a868", "#8172b2"]


def _svg_header():
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n'
    )


def _ticks(lo, hi):
    """Decade tick positions for a log axis."""
    lo_e = int(np.floor(lo))
    hi_e = int(np.ceil(hi))
    return [e for e in range(lo_e, hi_e + 1) if lo <= e <= hi]


def svg_loglog(series, lines=None, xlabel="x", ylabel="y", title=""):
    """Deterministic log-log scatter plot with optional straight lines.

    series: list of (label, x_array, y_array); lines: list of
    (label, slope, intercept) drawn as y = exp(intercept) x^slope.
    """
    pts = [
        (np.log10(np.asarray(x, float)), np.log10(np.asarray(y, float)))
        for _, x, y in series
        if len(x)
    ]
    if not pts:
        raise ValueError("nothing to plot")
    all_x = np.concatenate([p[0] for p in pts])
    all_y = np.concatenate([p[1] for p in pts])
    x0, x1 = float(np.min(all_x)), float(np.max(all_x))
    y0, y1 = float(np.min(all_y)), float(np.max(all_y))
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx, pady = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def sx(v):
        return _MARGIN + (v - x0) / (x1 - x0) * (_SVG_W - 2 * _MARGIN)

    def sy(v):
        return _SVG_H - _MARGIN - (v - y0) / (y1 - y0) * (_SVG_H - 2 * _MARGIN)

    out = [_svg_header()]
    out.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SVG_W - 2 * _MARGIN}" '
        f'height="{_SVG_H - 2 * _MARGIN}" fill="none" stroke="black"/>\n'
    )
    for e in _ticks(x0, x1):
        px = sx(e)
        out.append(
            f'<line x1="{px:.2f}" y1="{_SVG_H - _MARGIN}" x2="{px:.2f}" '
            f'y2="{_SVG_H - _MARGIN + 6}" stroke="black"/>\n'
            f'<text x="{px:.2f}" y="{_SVG_H - _MARGIN + 20}" font-size="12" '
            f'text-anchor="middle">1e{e}</text>\n'
        )
    for e in _ticks(y0, y1):
        py = sy(e)
        out.append(
            f'<line x1="{_MARGIN - 6}" y1="{py:.2f}" x2="{_MARGIN}" '
            f'y2="{py:.2f}" stroke="black"/>\n'
            f'<text x="{_MARGIN - 10}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">1e{e}</text>\n'
        )
    out.append(
        f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 15}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>\n'
        f'<text x="18" y="{_SVG_H / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {_SVG_H / 2:.0f})">{ylabel}</text>\n'
    )
    if title:
        out.append(
            f'<text x="{_SVG_W / 2:.0f}" y="30" font-size="15" '
            f'text-anchor="middle">{title}</text>\n'
        )
    legend_y = _MARGIN + 16
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        for vx, vy in zip(np.log10(np.asarray(xs, float)),
                          np.log10(np.asarray(ys, float))):
            out.append(
                f'<circle cx="{sx(vx):.2f}" cy="{sy(vy):.2f}" r="3" '
                f'fill="{color}" fill-opacity="0.7"/>\n'
            )
        out.append(
            f'<circle cx="{_MARGIN + 12}" cy="{legend_y - 4:.0f}" r="3" '
            f'fill="{color}"/>\n'
            f'<text x="{_MARGIN + 22}" y="{legend_y:.0f}" '
            f'font-size="12">{label}</text>\n'
        )
        legend_y += 16
    if lines:
        for idx, (label, slope, intercept) in enumerate(lines):
            color = _COLORS[(len(series) + idx) % len(_COLORS)]
            lx = np.array([x0 + padx, x1 - padx])
            # log10 y = (slope * ln x + intercept) / ln 10
            ly = (slope * lx * np.log(10.0) + intercept) / np.log(10.0)
            ly = np.clip(ly, y0, y1)
            out.append(
                f'<line x1="{sx(lx[0]):.2f}" y1="{sy(ly[0]):.2f}" '
                f'x2="{sx(lx[1]):.2f}" y2="{sy(ly[1]):.2f}" stroke="{color}" '
                f'stroke-dasharray="6 3"/>\n'
                f'<line x1="{_MARGIN + 6}" y1="{legend_y - 4:.0f}" '
                f'x2="{_MARGIN + 18}" y2="{legend_y - 4:.0f}" stroke="{color}" '
                f'stroke-dasharray="6 3"/>\n'
                f'<text x="{_MARGIN + 22}" y="{legend_y:.0f}" '
                f'font-size="12">{label}</text>\n'
            )
            legend_y += 16
    out.append("</svg>\n")
    return "".join(out)


def read_scaling_csv(text, source=""):
    """Included (eigenvalue, zero count, max exponent) rows of a study CSV."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"empty CSV {source!r}") from None
    expected = "index"
    if not header or header[0] != expected:
        raise ValueError(f"malformed CSV {source!r}: bad header {header!r}")
    lams, zs, es = [], [], []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != 8:
            raise ValueError(f"malformed CSV {source!r}: row {row_no}")
        if row[3] != "1":
            continue
        lams.append(float(row[1]))
        zs.append(float(row[5]))
        es.append(float(row[7]) if row[7] else np.nan)
    if not lams:
        raise ValueError(f"no included rows in CSV {source!r}")
    return np.array(lams), np.array(zs), np.array(es)


def emit_plots(csv_texts, labels=None):
    """SVG log-log plots (nodal counts, doubling exponents) from study CSVs.

    Returns a dict name -> svg text. A reference line with slope 6 anchors
    the polynomial upper-bound regime for the counts.
    """
    if labels is None:
        labels = [f"run{j}" for j in range(len(csv_texts))]
    series_z, series_e = [], []
    for text, label in zip(csv_texts, labels):
        lams, zs, es = read_scaling_csv(text, source=label)
        pos = (lams > 0) & (zs > 0)
        series_z.append((label, lams[pos], zs[pos]))
        good = (lams > 0) & np.isfinite(es) & (es > 0)
        series_e.append((label, lams[good], es[good]))
    lams0, zs0, _ = read_scaling_csv(csv_texts[0], source=labels[0])
    fit = ScalingFit.fit(lams0, zs0)
    lines = [
        (f"fit slope {fit.slope:.3f}", fit.slope, fit.intercept),
        ("reference slope 6", 6.0, np.log(2.0)),
    ]
    plots = {
        "nodal_scaling": svg_loglog(
            series_z,
            lines=lines,
            xlabel="eigenvalue",
            ylabel="boundary zero count",
            title="Nodal count scaling",
        ),
        "doubling_scaling": svg_loglog(
            series_e,
            xlabel="eigenvalue",
            ylabel="max doubling exponent",
            title="Doubling exponent scaling",
        ),
    }
    return plots


def write_artifacts(study, outdir):
    """Write the study CSV, JSON summary, and SVG plots into outdir."""
    os.makedirs(outdir, exist_ok=True)
    csv_text = study.to_csv()
    paths = {}
    p = os.path.join(outdir, "scaling.csv")
    with open(p, "w", newline="") as fh:
        fh.write(csv_text)
    paths["csv"] = p
    p = os.path.join(outdir, "scaling.json")
    with open(p, "w") as fh:
        fh.write(study.to_json())
    paths["json"] = p
    for name, svg in emit_plots([csv_text], labels=[study.config.domain]).items():
        p = os.path.join(outdir, f"{name}.svg")
        with open(p, "w") as fh:
            fh.write(svg)
        paths[name] = p
    return paths
