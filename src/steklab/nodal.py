"""Boundary nodal sets, mass doubling, and the special-point search.

The nodal set of a Steklov eigenfunction restricted to a closed planar curve
is a finite set of points; this module counts it by the sign changes of the
trigonometric interpolant of the trace on a grid, each refined by bracketed
Newton (_roots), the one root kernel that also finds the ball-curve edges
and the ray exits below. Mass doubling ratios are measured
both along the boundary (arclength integrals of u^2 over Euclidean balls
intersected with the curve, any number of centers and radii in one pass)
and on solid balls, and a net search locates a boundary point whose small
ball carries a fixed fraction of the total mass.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import (
    DegenerateCenterError,
    OutOfDomainError,
    RegionError,
    UndersampledError,
)
from .frequency import _disk_integral, _gauss, _polar_integral, _refine
from .geometry import norm2

TWO_PI = 2.0 * np.pi
_ANGLE_PAD = 1e-6  # radians added to each side of a probe segment's sweep
_EPS = np.finfo(float).eps
_RAY_BLOCK = 2**13  # (center, ray) entries of one block of _ray_extents

# -- root bracketing ------------------------------------------------------------------


def _roots(gd, a, b, ga, gb, tol):
    """The root of g in each sign-change bracket [a, b], refined together by
    bracketed Newton (rtsafe: Press et al., Numerical Recipes, 3rd ed.,
    section 9.4).

    gd(t, i) returns g and g' at the iterates t of the brackets i still
    open, from one evaluation. The two sides are g < 0 and g >= 0; ga and
    gb are g at a and b, with a's side the side of ga. Each bracket starts
    at its false-position point and keeps its sign change; every iterate
    becomes one of its ends. It takes the Newton step, cut at the far end,
    unless that step points away from the bracket or is more than half the
    step before the last one; then it bisects, so a root takes at most about
    twice bisection's steps.
    A root closes when
    - its step is at most max(tol, 4 eps max(|t|, 1)), at the step's end;
    - g = 0, or no float lies strictly inside its bracket, at the iterate;
    - a Newton step below sqrt(eps) max(|t|, 1) left |g| no smaller, at the
      iterate: round-off in g then sets how far Newton can go.
    So tol = 0 refines to float resolution.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    neg = ga < 0
    x = np.clip(a + (b - a) * (ga / (ga - gb)), a, b)
    last = b - a
    prev = last.copy()
    gabs = np.full(len(x), np.inf)  # |g| at the last iterate
    fine = np.zeros(len(x), dtype=bool)  # the last step: Newton, below sqrt(eps)
    i = np.arange(len(x))
    while len(i):
        g, dg = gd(x[i], i)
        same = (g < 0) == neg[i]
        a[i[same]] = x[i[same]]
        b[i[~same]] = x[i[~same]]
        xi, ai, bi = x[i], a[i], b[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = g / dg
        newton = np.clip(xi - dx, ai, bi)
        mid = 0.5 * (ai + bi)
        scale = np.maximum(np.abs(xi), 1.0)
        thr = np.maximum(tol, 4 * _EPS * scale)
        take = (newton != xi) | (np.abs(dx) <= thr)
        take &= np.abs(dx) <= 0.5 * np.abs(prev[i])
        xn = np.where(take, newton, mid)
        prev[i], last[i] = last[i], xn - xi
        stuck = (g == 0) | ~((ai < mid) & (mid < bi))
        stuck |= fine[i] & (np.abs(g) >= gabs[i])
        gabs[i] = np.abs(g)
        fine[i] = take & (np.abs(dx) <= np.sqrt(_EPS) * scale)
        x[i] = np.where(stuck, xi, xn)
        i = i[~(stuck | (np.abs(xn - xi) <= thr))]
    return x


# -- boundary zero counting ----------------------------------------------------------


@dataclass
class NodalReport:
    """Zeros of the boundary trace of one eigenpair."""

    eigenvalue: float
    zeros: np.ndarray  # sorted curve parameters of sign-change zeros
    tol: float
    # parameters of suspected tangential zeros: near-zero sample runs without
    # a sign change, and near-zero samples with a sign change on either side
    tangential_flags: np.ndarray
    samples: int

    @property
    def count(self):
        return len(self.zeros)

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["index", "t", "kind"])
        rows = [(t, "crossing") for t in self.zeros] + [
            (t, "tangential") for t in self.tangential_flags
        ]
        for j, (t, kind) in enumerate(sorted(rows)):
            writer.writerow([str(j), f"{t:.17e}", kind])
        return buf.getvalue()

    def to_json(self):
        return json.dumps(
            {
                "eigenvalue": self.eigenvalue,
                "count": self.count,
                "zeros": self.zeros.tolist(),
                "tangential_flags": self.tangential_flags.tolist(),
                "tol": self.tol,
                "samples": self.samples,
            },
            sort_keys=True,
        )


def nyquist_guard(pair):
    """Minimal admissible sample count: 16 samples per wavelength 2 pi / lambda
    of the trace, over the perimeter. The ceiling is taken after a relative
    slack of 1e-12 is removed, so a count that is an integer in exact
    arithmetic (320 for the disk's lambda = 20) does not round up to the
    next one when lambda carries round-off."""
    lam = pair.eigenvalue
    perimeter = pair.curve.perimeter
    return int(np.ceil(16.0 * lam * perimeter / TWO_PI * (1.0 - 1e-12)))


def boundary_zeros(pair, samples=None, tol=1e-12, flag_rel=1e-9):
    """Sign-change zeros of the trace, refined by bracketed Newton in
    parameter on the trace's interpolant and its derivative.

    Suspected tangential (even-order) zeros are flagged and not counted:
    - a run of grid samples below flag_rel times the sup of the trace that
      touches no sign change gets one flag, at its middle sample (the
      earlier of two). The grid is circular: a run through t = 0 is one run
      and gets one flag;
    - two sign changes on either side of a single sample below flag_rel
      times the sup are one touching zero whose sample fell on the wrong
      side by round-off, or whose interpolant dips just under zero between
      samples. Neither crossing is counted, and the sample is flagged as
      part of a near-zero run, as above.
    A tangential zero between two samples that both exceed flag_rel times
    the sup is neither counted nor flagged.

    flag_rel must lie in [0, 1), so that the largest sample is never near
    zero; flag_rel = 0 flags nothing.

    Each zero stops once its last Newton or bisection step is at most tol,
    or at float resolution; tol = 0 asks for the latter. tol bounds that
    last step, not the width of the zero's bracket.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if not 0 <= flag_rel < 1:
        raise ValueError(f"flag_rel must lie in [0, 1), got {flag_rel}")
    guard = nyquist_guard(pair)
    if samples is None:
        samples = max(1024, 2 * guard)
    samples = int(samples)
    if samples < guard:
        raise UndersampledError(
            f"{samples} samples below the oscillation guard {guard}"
        )
    tg = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    f = pair.trace_at(tg)
    fmax = np.max(np.abs(f))
    if fmax == 0.0:
        return NodalReport(
            eigenvalue=pair.eigenvalue,
            zeros=np.array([]),
            tol=tol,
            tangential_flags=np.array([]),
            samples=samples,
        )

    f_next = np.roll(f, -1)
    crossing = np.sign(f) * np.sign(f_next) < 0
    small = np.abs(f) < flag_rel * fmax
    # crossings on both sides of one near-zero sample: a touching zero whose
    # sample round-off (or a dip between samples) gave the wrong sign
    for i in np.where(small & crossing & np.roll(crossing, 1))[0]:
        if crossing[i - 1] and crossing[i]:
            crossing[i - 1] = crossing[i] = False
    i = np.flatnonzero(crossing)
    zeros = _roots(
        lambda t, _: pair.trace_at(t, derivative=True),
        tg[i], tg[i] + TWO_PI / samples, f[i], f_next[i], tol,
    ) % TWO_PI

    # near-zero grid runs without a crossing: suspected tangential zeros;
    # as the largest sample is never small, every run starts and ends
    run = small & ~(crossing | np.roll(crossing, 1))
    starts = np.flatnonzero(run & ~np.roll(run, 1))
    ends = np.flatnonzero(run & ~np.roll(run, -1))
    if len(starts) and ends[0] < starts[0]:
        ends = np.roll(ends, -1)  # the last run wraps past t = 2 pi
    flags = np.sort(tg[(starts + (ends - starts) % samples // 2) % samples])

    return NodalReport(
        eigenvalue=pair.eigenvalue,
        zeros=np.sort(zeros),
        tol=tol,
        tangential_flags=flags,
        samples=samples,
    )


# -- boundary mass -------------------------------------------------------------------


def _ball_curve_intervals(curve, center, radii):
    """Parameter intervals {t: |gamma(t) - c| < r} of every center c and
    radius r, as arrays (owner, a, b): interval k is (a[k], b[k]) in the
    ball about center owner[k] // R of radius radii[owner[k] % R], with
    R = len(radii). center is one point (2,) or C points (C, 2); radii need
    not be sorted. The intervals come in owner order, each owner's by
    their first edge, one wrapping past 2 pi last.

    The scan reads only the probe blocks (curve.probe_blocks) whose padded
    circle meets a center's largest ball. A probe segment with node
    distances d0, d1 from c crosses the sphere of radius r exactly when
    min(d0, d1) < r <= max(d0, d1), the sign change of d - r < 0 between
    its nodes, so a search in the sorted radii finds every radius it
    crosses. The edges of all centers and radii are refined together by
    bracketed Newton on |gamma - c| - r, whose derivative is
    (gamma - c) . gamma' / |gamma - c|, each until its last step is at most
    1e-13. A ball whose sphere crosses no segment holds the whole curve if
    it holds gamma(0), else none of it."""
    centers = np.atleast_2d(np.asarray(center, dtype=float))
    R, m = len(radii), len(curve.probe_t)
    size = m // len(curve.probe_blocks)  # probe segments per block
    order = np.argsort(radii, kind="stable")
    sorted_r = radii[order]
    blocks = curve.probe_blocks
    reach = norm2(blocks[:, :2] - centers[:, None]) - blocks[:, 2]
    ci, blk = np.nonzero(reach < radii.max(initial=-np.inf))
    node = (blk[:, None] * size + np.arange(size + 1)) % m
    d = norm2(curve.probe_points[node] - centers[ci, None])
    first = np.searchsorted(sorted_r, np.minimum(d[:, :-1], d[:, 1:]).ravel(), "right")
    cnt = np.searchsorted(sorted_r, np.maximum(d[:, :-1], d[:, 1:]).ravel(), "right") - first
    seg = np.repeat(np.arange(len(first)), cnt)
    j = order[np.arange(len(seg)) - np.repeat(np.cumsum(cnt) - cnt - first, cnt)]
    # each center's segments come in probe order; a stable sort by owner
    # keeps that order within each ball
    owner = ci[seg // size] * R + j
    by = np.argsort(owner, kind="stable")
    owner, j = owner[by], j[by]
    s, k = np.divmod(seg[by], size)
    col = node[s, k]
    ga, gb = d[s, k] - radii[j], d[s, k + 1] - radii[j]
    c, rad = centers[owner // R], radii[j]

    def gd(t, i):
        p, v = curve._series(t, 0, 1)
        p = p - c[i]
        dist = norm2(p)
        return dist - rad[i], np.einsum("ij,ij->i", p, v) / dist

    edges = _roots(gd, curve.probe_t[col], curve.probe_t[col] + TWO_PI / m, ga, gb, 1e-13)
    # edges alternate: each entry (outside at its segment's first node)
    # runs to the next edge of its ball, past 2 pi for the ball's last edge
    last = owner != np.append(owner[1:], -1)
    nxt = np.arange(1, len(owner) + 1)
    nxt[last] = np.flatnonzero(owner != np.append(-1, owner[:-1]))
    entry = ga >= 0
    hi = edges[nxt[entry]] + np.where(last[entry], TWO_PI, 0.0)
    # balls that no segment crosses: the whole curve, or none of it
    whole = (norm2(curve.probe_points[0] - centers)[:, None] < radii).ravel()
    whole[owner] = False
    whole = np.flatnonzero(whole)
    owner = np.concatenate([owner[entry], whole])
    by = np.argsort(owner, kind="stable")
    a = np.concatenate([edges[entry], np.zeros(len(whole))])
    b = np.concatenate([hi, np.full(len(whole), TWO_PI)])
    return owner[by], a[by], b[by]


def boundary_mass(pair, center, r):
    """Arclength integral of u^2 over the Euclidean ball of radius r about
    center, intersected with the boundary curve.

    r is one radius or an array of them, giving one mass per radius.
    center is one point (2,), giving a float or an array shaped like r, or
    C points (C, 2), giving (C,) + r.shape masses. The intervals of all
    centers and radii come from one ball-local probe scan and one root
    refinement (_ball_curve_intervals), and are integrated together: one
    trace_at call per refinement level on the intervals still open. Each
    mass is, bit for bit, that of a call for its center alone. Raises
    ValueError unless every radius is positive (an infinite one holds the
    whole curve).
    """
    radii = np.asarray(r, dtype=float)
    if not np.all(radii > 0):
        raise ValueError(f"ball radii must be positive, got {r}")
    center = np.asarray(center, dtype=float)
    curve = pair.curve
    owner, a, b = _ball_curve_intervals(curve, center, radii.reshape(-1))
    shape = (len(center),) + radii.shape if center.ndim == 2 else radii.shape
    masses = np.zeros(int(np.prod(shape)))
    if len(owner):

        def quad(n, i):
            nodes, wts = _gauss(n)
            half = 0.5 * (b[i] - a[i])
            t = (half[:, None] * (nodes + 1.0) + a[i][:, None]) % TWO_PI
            f = pair.trace_at(t.ravel()).reshape(t.shape)
            sp = curve.speed(t)
            return half * np.sum(wts * f**2 * sp, axis=1)

        masses = np.bincount(
            owner, _refine(quad, 32, 512, 1e-11), minlength=masses.size
        )
    return masses.reshape(shape) if shape else float(masses[0])


# -- solid masses ----------------------------------------------------------------------


def solid_mass_v(vfield, center, r):
    """Integral of v^2 over the full ball B(center, r) inside the collar."""
    return _disk_integral(
        lambda p: vfield(p)[0] ** 2, np.asarray(center, dtype=float), r, tol=1e-9
    )


def _cross(d, p):
    return d[:, 0] * p[:, 1] - d[:, 1] * p[:, 0]


def _ray_brackets(curve, centers, theta, dirs, sel, near, band):
    """Sign-change brackets of g = d x (gamma - c) for the rays of
    _ray_extents, with d = dirs[ray]: (q, seg, ga, gb), where q = center *
    len(theta) + ray and ga, gb are g at the two nodes of probe segment seg.
    Each segment of a selected block (sel, per center and block) is proposed
    for the rays within the angle it sweeps about the center, padded; a
    block that is selected but not near serves only the rays in the tangent
    band (band, per center and ray)."""
    ci, blk = np.nonzero(sel)
    n, m = len(theta), len(curve.probe_t)
    size = m // len(curve.probe_blocks)  # probe segments per block
    node = (blk[:, None] * size + np.arange(size + 1)) % m
    pts = curve.probe_points[node] - centers[ci, None]
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    sweep = ((phi[:, 1:] - phi[:, :-1] + np.pi) % TWO_PI - np.pi).ravel()
    phi = phi[:, :-1].ravel()
    lo = (np.minimum(phi, phi + sweep) - _ANGLE_PAD - theta[0]) % TWO_PI + theta[0]
    wrapped = np.concatenate([theta, theta + TWO_PI])
    first = np.searchsorted(wrapped, lo)
    cnt = np.searchsorted(wrapped, lo + np.abs(sweep) + 2 * _ANGLE_PAD, "right") - first
    slot = np.repeat(np.arange(len(phi)), cnt)
    ray = (np.arange(len(slot)) - np.repeat(np.cumsum(cnt) - cnt - first, cnt)) % n
    s, k = np.divmod(slot, size)
    keep = near[ci[s], blk[s]] | band[ci[s], ray]
    s, k, ray = s[keep], k[keep], ray[keep]
    d = dirs[ray]
    ga = _cross(d, pts[s, k])
    gb = _cross(d, pts[s, k + 1])
    keep = (ga < 0) != (gb < 0)
    s, k = s[keep], k[keep]
    return ci[s] * n + ray[keep], node[s, k], ga[keep], gb[keep]


def _ray_extents(curve, center, theta, r, t=None):
    """First exit from the domain of each ray c + rho (cos theta, sin theta)
    from each center c, capped at r, or 0 for a ray that starts outside.

    center is one point (2,), giving (n,) extents, or C points (C, 2),
    giving (C, n); theta is ascending and spans less than 2 pi. One
    proposal, one _roots call and one decision serve every center of a
    block: centers go in blocks of at most _RAY_BLOCK (center, ray)
    entries, so memory stays bounded for any net (the special-point nets
    of up to 65 centers x 96 rays are one block).

    A ray crosses the curve where g(t) = d x (gamma(t) - c) changes sign,
    and the crossing is an exit when g rises through it (d . nu > 0). The
    blocks of curve.probe_blocks (runs of probe segments, each in a circle
    padded by the longest probe chord, pad) that a center may reach are
    selected; the angle of their probe points about the center proposes the
    rays that may cross each of their segments, g on the segment's two nodes
    confirms them, and bracketed Newton on g, with g' = d x gamma', refines
    each crossing until its last step is at float resolution (_roots with
    tol = 0). Crossings within curve.round_off of the center are dropped.

    Without t every block is selected, and the first crossing of a ray
    beyond that floor decides its side; a ray with none lies outside. So a
    ray from a center on the curve whose exit lies in the center's own probe
    segment, where the two crossings make no sign change, reads 0.
    t, one curve parameter per center with |gamma(t) - c| <= curve.round_off
    (else ValueError), selects only the blocks within r + pad of c, and the
    crossings in the others lie beyond r + pad. The first crossing beyond
    the floor decides as above when its rho <= r + pad; a ray with none
    takes its side from d . nu(t): extent r if d . nu < 0, else 0. A ray in
    the tangent band |d . nu| < 2 max|kappa| pad may have its exit hidden in
    the center's own segment, so it also proposes every block whose circle
    it meets, and it reads what it reads without t. With r = inf every
    block is selected either way.

    A center off the curve but nearer to it than a probe segment's sagitta
    (7.4e-8 on the unit disk) sees that segment's arc sweep the long way
    round, which the proposal misses, so its rays that exit there read 0.
    """
    center = np.asarray(center, dtype=float)
    centers = np.atleast_2d(center)
    C, n, m = len(centers), len(theta), len(curve.probe_t)
    if t is not None:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.shape != (C,):
            raise ValueError(f"need one curve parameter per center, got {t.shape}")
    rows = max(1, _RAY_BLOCK // n)
    if C > rows:
        return np.concatenate([
            _ray_extents(curve, centers[i:i + rows], theta, r,
                         None if t is None else t[i:i + rows])
            for i in range(0, C, rows)
        ])
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pad = curve.probe_chord
    inward = band = np.zeros((C, n), dtype=bool)
    reach = np.inf
    if t is not None:
        f = curve.frame(t)
        if not np.all(norm2(f.point - centers) <= curve.round_off):
            raise ValueError("a center is not gamma(t) of its parameter t")
        dn = f.nu @ dirs.T
        band = np.abs(dn) < 2.0 * curve.max_abs_curvature * pad
        inward = (dn < 0) & ~band
        reach = r + pad

    # blocks within reach of each center, and those a tangent-band ray meets
    rel = curve.probe_blocks[:, :2] - centers[:, None]
    radius = curve.probe_blocks[:, 2]
    near = norm2(rel) - radius <= reach
    sel = near.copy()
    bc, bj = np.divmod(np.flatnonzero(band), n)
    p, u = rel[bc], dirs[bj, None]
    along = p[..., 0] * u[..., 0] + p[..., 1] * u[..., 1]
    perp = np.abs(p[..., 0] * u[..., 1] - p[..., 1] * u[..., 0])
    np.logical_or.at(sel, bc, (along >= 0) & (perp <= radius))
    q, seg, ga, gb = _ray_brackets(curve, centers, theta, dirs, sel, near, band)
    ray = q % n
    c, d = centers[q // n], dirs[ray]

    def gd(t, i):
        p, v = curve._series(t, 0, 1)
        return _cross(d[i], p - c[i]), _cross(d[i], v)

    tr = _roots(gd, curve.probe_t[seg], curve.probe_t[seg] + TWO_PI / m, ga, gb, 0.0)
    rho = np.einsum("ij,ij->i", curve.point(tr) - c, d)

    # the first crossing of each ray beyond the floor, and within reach
    # unless the ray lies in the tangent band, decides its extent
    decides = (rho > curve.round_off) & ((rho <= reach) | band.ravel()[q])
    q, rho, leaves = q[decides], rho[decides], ga[decides] < 0
    order = np.lexsort((rho, q))
    head = order[np.unique(q[order], return_index=True)[1]]
    extent = np.where(inward, r, 0.0).ravel()
    extent[q[head]] = np.where(leaves[head], np.minimum(rho[head], r), 0.0)
    return extent.reshape(C, n)[0] if center.ndim == 1 else extent.reshape(C, n)


def clipped_ball_mass(pair, center, r, n_r=48, n_theta=256, t=None):
    """Integral of u^2 over B(center, r) intersected with the domain.

    center is one point, giving a float, or C points (C, 2), giving C
    masses from one ray pass (_ray_extents) and one polar quadrature
    (_polar_integral), both in center blocks of bounded size. Polar grid
    about each center, with n_theta rays from angle 0. Each ray runs to its
    first exit from the domain, capped at r, so a ray that leaves and
    re-enters the ball's part of a non-convex domain stops at the exit. The
    center may lie on the curve, within curve.round_off = 1e-12
    max(diameter, 1) of it: a ray from there is inside when its first
    crossing of the curve beyond that floor is an exit (d . nu > 0), and a
    ray that leaves at once has extent 0 and is not evaluated.

    t, optional, is the curve parameter of each center on the curve
    (ValueError unless |gamma(t) - center| <= curve.round_off for each and
    there is one per center). With it the ray pass proposes only the probe
    blocks within reach of the ball, and the tangent-band rays read what
    they read without it; see _ray_extents.

    The Gauss points lie before their rays' first exits, so u is read by
    `evaluate_inside`, values only, with no inside test (see there for a
    near-tangent ray whose computed exit is a round-off outside).

    Raises OutOfDomainError when no ray of a center has a positive extent,
    as from a center outside the domain by more than the floor, and
    ValueError unless r is positive and finite.
    """
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"ball radius must be positive and finite, got {r}")
    center = np.asarray(center, dtype=float)
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    extent = _ray_extents(pair.curve, center, theta, r, t)
    outside = ~np.atleast_2d(extent).any(axis=1)
    if outside.any():
        raise OutOfDomainError(
            f"ball center {np.atleast_2d(center)[outside][0]} lies outside the domain"
        )
    return _polar_integral(
        lambda p: pair.evaluate_inside(p, gradient=False) ** 2,
        center, theta, extent, n_r,
    )


def domain_mass(pair):
    """Integral of u^2 over the whole domain by centroid-star quadrature.

    Requires the domain to be star-shaped with respect to its centroid: the
    angle of the probe points about it must increase, else RegionError. The
    512 rays start at the angle of gamma(0) and each runs to its one exit
    from the domain (the ray kernel of clipped_ball_mass, uncapped), with 64
    Gauss nodes per ray. As there, u is read from `evaluate_inside`.
    """
    curve = pair.curve
    center = curve.centroid
    rel = curve.probe_points - center
    phi = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    if np.any(np.diff(phi) <= 0):
        raise RegionError("domain is not star-shaped about its centroid")
    theta = np.linspace(phi[0], phi[0] + TWO_PI, 512, endpoint=False)
    return _polar_integral(
        lambda p: pair.evaluate_inside(p, gradient=False) ** 2,
        center, theta, _ray_extents(curve, center, theta, np.inf), 64,
    )


# -- doubling profiles ------------------------------------------------------------------


@dataclass
class DoublingReport:
    """Mass of u^2 (or v^2) against radius at a fixed center, with the
    doubling exponents e(r) = log2(mass(2r)/mass(r))."""

    center: np.ndarray
    mode: str
    radii: np.ndarray
    masses: np.ndarray
    doubling_radii: np.ndarray
    exponents: np.ndarray

    @property
    def max_exponent(self):
        return float(np.max(self.exponents)) if len(self.exponents) else np.nan

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["r", "mass", "doubling_exponent"])
        emap = {float(r): e for r, e in zip(self.doubling_radii, self.exponents)}
        for r, m in zip(self.radii, self.masses):
            e = emap.get(float(r))
            writer.writerow(
                [f"{r:.17e}", f"{m:.17e}", "" if e is None else f"{e:.17e}"]
            )
        return buf.getvalue()

    def to_json(self):
        return json.dumps(
            {
                "center": self.center.tolist(),
                "mode": self.mode,
                "radii": self.radii.tolist(),
                "masses": self.masses.tolist(),
                "doubling_radii": self.doubling_radii.tolist(),
                "exponents": self.exponents.tolist(),
            },
            sort_keys=True,
        )


def doubling_radii(r_min, r_max, steps_per_octave=4):
    """The geometric radius grid of a doubling sweep: r_min 2^(j/k) for
    k = steps_per_octave, up to r_max, so that radius j + k doubles radius
    j. Raises ValueError unless 0 < r_min < r_max < inf and k is a positive
    integer."""
    if not 0 < r_min < r_max < np.inf:
        raise ValueError("need 0 < r_min < r_max < inf")
    k = steps_per_octave
    if not (isinstance(k, (int, np.integer)) and k > 0):
        raise ValueError(f"steps_per_octave must be a positive integer, got {k!r}")
    n = int(np.floor(k * np.log2(r_max / r_min))) + 1
    return r_min * 2.0 ** (np.arange(n) / k)


def doubling_profile(pair, center, r_min, r_max, mode="boundary", vfield=None,
                     steps_per_octave=4):
    """Mass-versus-radius sweep on a geometric grid containing exact doubles
    (doubling_radii).

    Boundary mode integrates u^2 over ball-curve intersections, all radii in
    one boundary_mass call; solid mode integrates v^2 over full balls (the
    transform field must be supplied).
    """
    radii = doubling_radii(r_min, r_max, steps_per_octave)
    if mode not in ("boundary", "solid"):
        raise ValueError("mode must be 'boundary' or 'solid'")
    if mode == "solid" and vfield is None:
        raise ValueError("solid mode needs the transformed field")
    center = np.asarray(center, dtype=float)
    n, k = len(radii), steps_per_octave

    if mode == "boundary":
        masses = boundary_mass(pair, center, radii)
    else:
        masses = np.array([solid_mass_v(vfield, center, r) for r in radii])
    if masses[0] <= 0:
        raise DegenerateCenterError("no mass at the smallest radius")

    return DoublingReport(
        center=center,
        mode=mode,
        radii=radii,
        masses=masses,
        doubling_radii=radii[:max(n - k, 0)],
        exponents=np.log2(masses[k:] / masses[:max(n - k, 0)]),
    )


# -- special point search ----------------------------------------------------------------


@dataclass
class SpecialPointReport:
    """Net maximizer of the local solid mass and its control constant."""

    rho: float
    net_size: int
    best_point: np.ndarray
    best_parameter: float
    ball_mass: float
    total_mass: float
    net_masses: np.ndarray = dfield(repr=False, default=None)

    @property
    def constant(self):
        # total <= C_* rho^{-(2n-1)} ball integral, n = 2
        return self.total_mass / (self.rho ** (-3.0) * self.ball_mass)


def boundary_net(curve, spacing):
    """Curve parameters of an equal-arclength net with the given spacing.
    Raises ValueError unless the spacing is positive and below half the
    perimeter."""
    if not (np.isfinite(spacing) and spacing > 0):
        raise ValueError(f"net spacing must be positive and finite, got {spacing}")
    if spacing >= curve.perimeter / 2:
        raise ValueError("net spacing must be below half the perimeter")
    m = int(np.ceil(curve.perimeter / spacing))
    tg = curve.probe_t
    cum = np.concatenate([[0.0], np.cumsum(curve.speed(tg)) * (TWO_PI / len(tg))])
    targets = curve.perimeter * np.arange(m) / m
    return np.interp(targets, cum[:-1], tg)


def special_point_search(pair, rho, total=None, n_r=48, n_theta=256):
    """Exhaustive rho/2-net search for the boundary point whose rho-ball
    carries the largest share of the squared mass of the extension. Net
    masses within 1e-12 (relative) of the largest tie, and the first of
    them in net order wins. Raises ValueError unless rho is positive and
    below the tube half-width.

    The whole net is one clipped_ball_mass call with the net's curve
    parameters as t: one ray pass, in which each ball proposes only the
    probe blocks within its reach and the tangent-band rays every block
    they meet (see _ray_extents), and one polar quadrature, whose Gauss
    points go to evaluate_inside; both take the centers in blocks of
    bounded size. Each
    mass is that of a call for its ball alone without t, up to how the
    curve series rounds in batches of another size (not at all on the
    built-in disk and ellipse)."""
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError(f"net ball radius must be positive and finite, got {rho}")
    curve = pair.curve
    if rho >= curve.max_tube_halfwidth():
        raise ValueError("net ball radius must stay below the tube half-width")
    t_net = boundary_net(curve, rho / 2.0)
    pts = curve.point(t_net)
    masses = clipped_ball_mass(pair, pts, rho, n_r=n_r, n_theta=n_theta, t=t_net)
    # the first net point within 1e-12 of the largest mass, so round-off
    # cannot pick among masses that tie (the disk's rotational symmetry)
    best = int(np.argmax(masses >= (1.0 - 1e-12) * np.max(masses)))
    if total is None:
        total = domain_mass(pair)
    return SpecialPointReport(
        rho=float(rho),
        net_size=len(t_net),
        best_point=pts[best],
        best_parameter=float(t_net[best]),
        ball_mass=float(masses[best]),
        total_mass=float(total),
        net_masses=masses,
    )


# -- boundary controls solid ---------------------------------------------------------------


@dataclass
class BoundarySolidReport:
    """Both sides of the boundary-controls-solid inequality at one center."""

    center: np.ndarray
    r: float
    eigenvalue: float
    boundary_side: float
    solid_side: float

    @property
    def constant(self):
        """Empirical exponent constant: log2 deficit divided by lambda^5."""
        if self.boundary_side >= self.solid_side:
            return 0.0
        lam5 = max(self.eigenvalue, 1e-300) ** 5
        return float(np.log2(self.solid_side / self.boundary_side) / lam5)


def boundary_controls_solid_check(pair, center, r):
    """Boundary mass at radius r/lambda against (lambda/r) times the solid
    mass at 2r/lambda, recording the empirical doubling-type constant."""
    lam = pair.eigenvalue
    if lam <= 0:
        raise ValueError("requires a positive eigenvalue")
    if 2 * r / lam >= pair.curve.max_tube_halfwidth():
        raise ValueError("solid ball leaves the tube: shrink r")
    center = np.asarray(center, dtype=float)
    lhs = boundary_mass(pair, center, r / lam)
    solid = clipped_ball_mass(pair, center, 2 * r / lam)
    rhs = (lam / r) * solid
    return BoundarySolidReport(
        center=center,
        r=float(r),
        eigenvalue=float(lam),
        boundary_side=float(lhs),
        solid_side=float(rhs),
    )
