"""Smooth closed planar curves, tube neighborhoods, distance function, reflection map.

Curves are stored as truncated Fourier series for each coordinate, which keeps
gamma and its first three derivatives spectrally accurate, and curvature and
its arclength derivative exact up to truncation.
The sign convention for tube offsets is s < 0 inside the domain.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateCurveError,
    FootPointError,
    OutOfTubeError,
)

_REGULARITY_TOL = 1e-12
_PROBE = 8192  # curve samples that locate ball edges, star angles and arclength
_PROBE_BLOCK = 64  # consecutive probe segments per row of the probe block table
_GRID = 1024  # curve samples of the checks' frame and the foot-point seeds


def norm2(v):
    """Length of each vector of a (..., 2) array: sqrt(x*x + y*y), bit for
    bit what np.linalg.norm(v, axis=-1) returns (the same two products, one
    sum and one sqrt, with no rescaling), at a fraction of its cost."""
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def _segments_intersect(p, q, r, s):
    """Vectorized proper-intersection test for segment batches p->q vs r->s."""

    def cross(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    d1 = cross(r, s, p)
    d2 = cross(r, s, q)
    d3 = cross(p, q, r)
    d4 = cross(p, q, s)
    return ((d1 * d2) < 0) & ((d3 * d4) < 0)


class BoundaryCurve:
    """Closed analytic curve gamma: [0, 2pi) -> R^2 given by Fourier coefficients.

    Each coordinate is a0 + sum_k (a_k cos kt + b_k sin kt), with coefficients
    laid out [a0, a1, b1, a2, b2, ...]. Validates at construction that the
    discrete curve is simple, regular and counterclockwise.

    Two read-only attributes hold a dense sample table of the curve, built
    once, for the scans that locate ball edges, star angles and arclength:
    probe_t, the _PROBE equispaced parameters 2 pi j / _PROBE, and
    probe_points, gamma at those parameters, shape (_PROBE, 2). A point
    within round_off = 1e-12 max(diameter, 1) of the curve counts as on it.
    probe_chord is the longest probe chord |gamma(t_j+1) - gamma(t_j)|, and
    probe_blocks, shape (_PROBE / _PROBE_BLOCK, 3), holds for each run of
    _PROBE_BLOCK consecutive probe segments a bounding circle (x, y, radius)
    of its nodes, the radius padded by probe_chord, so that the circle holds
    the arcs too: the ray kernel proposes segments block by block.

    The grid_size samples gamma(t_i) give the checks' frame, the KD-tree that
    seeds the foot-point Newton solve of nearest_point_many, and a polygon
    whose edges, binned by y-slab, let surely_inside decide by ray crossing
    which points lie inside without projecting them.
    """

    def __init__(self, fourier_x, fourier_y, name="", grid_size=_GRID):
        self.fourier_x = np.asarray(fourier_x, dtype=float)
        self.fourier_y = np.asarray(fourier_y, dtype=float)
        if self.fourier_x.ndim != 1 or self.fourier_y.ndim != 1:
            raise ValueError("each coefficient list must be one-dimensional")
        if len(self.fourier_x) % 2 == 0 or len(self.fourier_y) % 2 == 0:
            raise ValueError("coefficient layout is [a0, a1, b1, ...]: odd length")
        self.name = name
        self.n_modes = max(len(self.fourier_x), len(self.fourier_y)) // 2

        # gamma(t) = Re sum_k c_k e^{ikt} with c_k = a_k - i b_k, one column
        # per coordinate; _dcoef[d] holds the coefficients of gamma^(d)
        c = np.zeros((self.n_modes + 1, 2), dtype=complex)
        for col, f in enumerate((self.fourier_x, self.fourier_y)):
            c[0, col] = f[0]
            c[1:len(f) // 2 + 1, col] = f[1::2] - 1j * f[2::2]
        self._k = np.arange(self.n_modes + 1)
        self._dcoef = [c * (1j**d * self._k[:, None] ** d) for d in range(4)]

        # the grid's frame and KD-tree serve every check and the foot-point seeds
        self._tgrid = np.linspace(0.0, 2 * np.pi, int(grid_size), endpoint=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = self.frame(self._tgrid)  # a zero speed is rejected below
        self._pgrid, self._nugrid = f.point, f.nu
        if np.min(f.speed) <= _REGULARITY_TOL:
            raise DegenerateCurveError("parametrization is not regular on the grid")
        self._tree = cKDTree(self._pgrid)
        self._check_simple()

        # signed area via 0.5 * integral (x y' - y x') dt, trapezoid is spectral here
        x, y = self._pgrid[:, 0], self._pgrid[:, 1]
        v = f.velocity
        self.area = 0.5 * np.mean(x * v[:, 1] - y * v[:, 0]) * 2 * np.pi
        if self.area <= 0:
            raise DegenerateCurveError("orientation must be counterclockwise")
        self.perimeter = float(np.mean(f.speed) * 2 * np.pi)
        self.diameter = float(
            np.max(self._pgrid[:, 0]) - np.min(self._pgrid[:, 0])
        )
        self.diameter = max(
            self.diameter,
            float(np.max(self._pgrid[:, 1]) - np.min(self._pgrid[:, 1])),
        )
        self.centroid = self._pgrid.mean(axis=0)
        self.round_off = 1e-12 * max(self.diameter, 1.0)

        self.probe_t = np.linspace(0.0, 2 * np.pi, _PROBE, endpoint=False)
        g, v, a = self._series(self.probe_t, 0, 1, 2)
        self.probe_points = g.copy()  # a view would keep v and a alive
        nodes = np.append(g, g[:1], axis=0)
        self.probe_chord = float(np.max(norm2(np.diff(nodes, axis=0))))
        runs = nodes[np.arange(0, _PROBE, _PROBE_BLOCK)[:, None] + np.arange(_PROBE_BLOCK + 1)]
        mid = runs.mean(axis=1)
        radius = norm2(runs - mid[:, None]).max(axis=1) + self.probe_chord
        self.probe_blocks = np.column_stack([mid, radius])
        for table in (self.probe_t, self.probe_points, self.probe_blocks):
            table.flags.writeable = False

        self.max_abs_curvature = float(np.max(np.abs(f.kappa)))
        self._delta_max = None
        self._slabs = self._slab_table(f, v, a)

    # -- construction helpers -------------------------------------------------

    def _check_simple(self):
        p = self._pgrid
        q = np.roll(p, -1, axis=0)
        n = len(p)
        # if segments i and j cross at X, each start vertex lies within the
        # longest segment L of X, so the pair is within 2L of each other
        reach = 2.0 * np.max(norm2(q - p))
        i, j = self._tree.query_pairs(reach, output_type="ndarray").T
        gap = (j - i) % n
        far = np.minimum(gap, n - gap) >= 2  # neighbours share a vertex
        i, j = i[far], j[far]
        if np.any(_segments_intersect(p[i], q[i], p[j], q[j])):
            raise DegenerateCurveError("curve self-intersects on the sample grid")

    def _slab_table(self, f, v, acc):
        """Edges of the grid polygon by y-slab, for surely_inside; f is the
        grid's frame, v and acc are gamma' and gamma'' at probe_t.

        Returns (lower corner, upper corner, slab height, offsets, ids,
        edges): the polygon's bounding box, len(grid) equal slabs of its
        y-range, and in CSR form the edges of slab j, ids[offsets[j]:
        offsets[j + 1]]. Column i of edges is (ax, ay, bx, by, |b - a|^-2,
        margin^2) for the edge a -> b from gamma(t_i) to gamma(t_i+1); an
        edge goes in every slab that its y-range, widened by its margin,
        meets (about 3 edges a slab on the built-in curves).

        The margin bounds how far arc i strays from its chord. With L its
        length and kappa its largest curvature, the arc's height above the
        chord vanishes at both ends and has second derivative at most kappa
        in arclength, so it is at most kappa L^2 / 8; while kappa L < 1 the
        arc turns by less than pi/2 from the chord's direction and stays
        over the chord. Otherwise every arc point lies within L / 2 of an
        end. L and kappa are read as max |gamma'| dt and max |kappa| over
        the arc's ends and the probe samples inside it (8 per arc at the
        default grid); the margin is twice the bound, plus round_off.
        """
        p = self._pgrid
        n = len(p)
        arc = np.arange(_PROBE) * n // _PROBE  # the grid arc of each probe sample

        def arc_max(at_grid, at_probe):
            w = np.abs(at_grid)
            w = np.maximum(w, np.roll(w, -1))
            np.maximum.at(w, arc, np.abs(at_probe))
            return w

        speed = np.hypot(v[:, 0], v[:, 1])
        kappa = (v[:, 0] * acc[:, 1] - v[:, 1] * acc[:, 0]) / speed**3
        length = arc_max(f.speed, speed) * (2 * np.pi / n)
        kl = arc_max(f.kappa, kappa) * length
        gap = np.where(kl < 1.0, kl * length / 8.0, length / 2.0)
        margin = 2.0 * gap + self.round_off
        a, b = p, np.roll(p, -1, axis=0)
        ab2 = np.einsum("ij,ij->i", b - a, b - a)
        edges = np.vstack([a.T, b.T, 1.0 / ab2, margin**2])

        lo_c, hi_c = p.min(axis=0), p.max(axis=0)
        h = (hi_c[1] - lo_c[1]) / n
        y_lo = np.minimum(a[:, 1], b[:, 1]) - margin - lo_c[1]
        y_hi = np.maximum(a[:, 1], b[:, 1]) + margin - lo_c[1]
        first = np.clip((y_lo // h).astype(int), 0, n - 1)
        last = np.clip((y_hi // h).astype(int), 0, n - 1)
        count = last - first + 1
        slab = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        order = np.argsort(slab, kind="stable")
        offsets = np.r_[0, np.cumsum(np.bincount(slab, minlength=n))]
        ids = np.repeat(np.arange(n, dtype=np.int32), count)[order]
        return lo_c, hi_c, h, offsets, ids, edges

    # -- pointwise evaluation --------------------------------------------------

    def _series(self, t, *orders):
        """gamma^(d)(t) for each order d in orders, from one e^{ikt} table."""
        e = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), self._k))
        out = (e @ np.hstack([self._dcoef[d] for d in orders])).real
        return [out[..., 2 * j:2 * j + 2] for j in range(len(orders))]

    def point(self, t):
        return self._series(t, 0)[0]

    def velocity(self, t):
        return self._series(t, 1)[0]

    def speed(self, t):
        return norm2(self.velocity(t))

    def frame(self, t):
        """Namespace of point, velocity, speed |gamma'|, unit tangent T, outward
        normal nu = (T_y, -T_x), curvature kappa and its arclength derivative
        kappa_sigma = kappa'(t) / |gamma'(t)| at t, from one series evaluation."""
        g, v, a, j = self._series(t, 0, 1, 2, 3)
        sp = norm2(v)
        tg = v / sp[..., None]
        sp2 = np.einsum("...i,...i->...", v, v)
        va = v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]
        vj = v[..., 0] * j[..., 1] - v[..., 1] * j[..., 0]
        dot = np.einsum("...i,...i->...", v, a)
        return SimpleNamespace(
            point=g, velocity=v, speed=sp, T=tg,
            nu=np.stack([tg[..., 1], -tg[..., 0]], axis=-1),
            kappa=va / sp**3, kappa_sigma=(vj - 3.0 * va * dot / sp2) / sp2**2,
        )

    def normal(self, t):
        """Outward unit normal for a counterclockwise curve."""
        return self.frame(t).nu

    # -- global geometric quantities -------------------------------------------

    def max_tube_halfwidth(self):
        """Largest delta for which (y, t) -> y + t nu(y) is injective.

        Brute-force reach estimate over the sample grid: the two-point bound
        |x - y|^2 / (2 |(y - x) . nu(x)|), capped by 1/max|kappa|.
        """
        if self._delta_max is not None:
            return self._delta_max
        (x, y), (nx, ny) = self._pgrid.T, self._nugrid.T
        best = 1.0 / self.max_abs_curvature
        # 64-row chunks of the pairwise scan, one coordinate at a time, keep
        # every temporary a (64, n) table
        for start in range(0, len(x), 64):
            blk = slice(start, start + 64)
            dx, dy = x - x[blk, None], y - y[blk, None]
            dist2 = dx * dx + dy * dy
            dots = np.abs(dx * nx[blk, None] + dy * ny[blk, None])
            ratio = np.divide(dist2, 2.0 * dots, out=np.full(dots.shape, np.inf),
                              where=(dots >= 1e-14) & (dist2 >= 1e-28))
            best = min(best, float(np.min(ratio)))
        cap = 1.0 / self.max_abs_curvature
        if best > cap * (1.0 - 1e-9):
            best = cap  # pairwise scan matches the curvature bound to rounding
        self._delta_max = best
        return best

    # -- nearest point / signed distance ---------------------------------------

    def nearest_point_many(self, x):
        """Nearest-boundary-point parameters and signed offsets for points x.

        Returns (t, s, gap) where s = sign((x-gamma).nu) |x-gamma| (s < 0 inside)
        and gap = |x - gamma(t) - s nu(t)| measures foot-point consistency
        (it is ~0 exactly when x is within the reach).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        _, idx = self._tree.query(x)
        t = self._tgrid[idx]
        max_step = 1.5 * 2 * np.pi / len(self._tgrid)
        live = np.arange(len(x))  # points still iterating
        for _ in range(30):
            g, v, a = self._series(t[live], 0, 1, 2)
            diff = x[live] - g
            f = np.einsum("ij,ij->i", diff, v)
            vv = np.einsum("ij,ij->i", v, v)
            fp = -vv + np.einsum("ij,ij->i", diff, a)
            # fp vanishes on the medial axis (e.g. the disk center); the
            # stationarity residual f is zero there too, so hold position
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(np.abs(fp) > 1e-14, f / fp, 0.0)
            np.clip(step, -max_step, max_step, out=step)
            t[live] -= step
            # a point is done once its step or its residual reaches rounding
            # level; near the medial axis the step alone never does
            tol = 4 * np.finfo(float).eps * norm2(diff) * np.sqrt(vv)
            live = live[(np.abs(step) >= 1e-15) & (np.abs(f) > tol)]
            if not len(live):
                break
        t = np.mod(t, 2 * np.pi)
        f = self.frame(t)
        diff = x - f.point
        resid = np.abs(np.einsum("ij,ij->i", diff, f.T))
        dist = norm2(diff)
        # the dot product carries rounding noise of order eps * |x|, which
        # dominates the angle test for points very close to the curve
        if np.any(resid > np.maximum(1e-6 * dist, self.round_off)):
            raise FootPointError("foot-point Newton did not converge")
        dot = np.einsum("ij,ij->i", diff, f.nu)
        s = np.where(dot >= 0, dist, -dist)
        gap = norm2(diff - s[:, None] * f.nu)
        return t, s, gap

    def surely_inside(self, x):
        """True where a point certainly lies inside the curve; False where it
        lies outside, within an edge's margin of the grid polygon, outside
        the polygon's bounding box, or has a NaN coordinate.

        Counts, for each point, the edges of its y-slab that the ray from it
        in the +x direction crosses. An arc of the curve and its chord bound
        a lens, and a ray from outside that lens crosses the arc and the
        chord equally often mod 2; so the polygon's parity is the curve's at
        every point farther than each edge's margin from its chord (see
        _slab_table), and the points nearer than that answer False.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lo_c, hi_c, h, offsets, ids, edges = self._slabs
        pts = np.flatnonzero(np.all((x >= lo_c) & (x <= hi_c), axis=1))
        px, py = x[pts, 0], x[pts, 1]
        k = np.minimum(((py - lo_c[1]) // h).astype(int), len(offsets) - 2)
        count = offsets[k + 1] - offsets[k]
        pair = np.repeat(np.arange(len(pts)), count)
        first = np.repeat(offsets[k] - np.cumsum(count) + count, count)
        ax, ay, bx, by, inv, m2 = edges[:, ids[first + np.arange(len(pair))]]
        px, py = px[pair], py[pair]
        abx, aby, apx, apy = bx - ax, by - ay, px - ax, py - ay
        u = np.clip((apx * abx + apy * aby) * inv, 0.0, 1.0)
        dx, dy = apx - u * abx, apy - u * aby
        near = dx * dx + dy * dy <= m2
        # the ray crosses an edge that straddles y, half-open at the ends,
        # when the point lies left of the edge directed upward
        cross = ((ay > py) != (by > py)) & ((abx * apy - aby * apx > 0) == (aby > 0))
        odd = np.bincount(pair, cross, len(pts)) % 2 == 1
        clear = np.bincount(pair, near, len(pts)) == 0
        out = np.zeros(len(x), dtype=bool)
        out[pts[odd & clear]] = True
        return out

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "name": self.name,
                "fourier_x": list(self.fourier_x),
                "fourier_y": list(self.fourier_y),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        """The curve of a to_json text; ValueError unless it is a JSON object
        with both coefficient lists."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("curve JSON must be an object")
        for key in ("fourier_x", "fourier_y"):
            if key not in data:
                raise ValueError(f"curve JSON has no {key!r}")
        return cls(data["fourier_x"], data["fourier_y"], name=data.get("name", ""))

    def content_hash(self):
        import hashlib

        return hashlib.sha256(self.to_json().encode()).hexdigest()


# -- built-in curves -------------------------------------------------------------


def disk(radius=1.0, grid_size=_GRID):
    return BoundaryCurve(
        [0.0, radius, 0.0], [0.0, 0.0, radius], name=f"disk({radius})",
        grid_size=grid_size,
    )


def ellipse(a=2.0, b=1.0):
    return BoundaryCurve([0.0, a, 0.0], [0.0, 0.0, b], name=f"ellipse({a},{b})")


def perturbed_disk(eps=0.1, m=3):
    """Radial graph r(theta) = 1 + eps*cos(m theta), written as Fourier series."""
    K = m + 1
    cx = np.zeros(2 * K + 1)
    cy = np.zeros(2 * K + 1)

    def add(coeffs, k, a=0.0, b=0.0):
        coeffs[2 * (k - 1) + 1] += a
        coeffs[2 * (k - 1) + 2] += b

    # x = cos t + eps/2 (cos (m+1)t + cos (m-1)t)
    add(cx, 1, a=1.0)
    add(cx, m + 1, a=eps / 2)
    # y = sin t + eps/2 (sin (m+1)t - sin (m-1)t)
    add(cy, 1, b=1.0)
    add(cy, m + 1, b=eps / 2)
    if m - 1 >= 1:
        add(cx, m - 1, a=eps / 2)
        add(cy, m - 1, b=-eps / 2)
    else:
        cx[0] += eps / 2  # cos(0 t) term when m = 1
        # sin(0 t) vanishes
    return BoundaryCurve(cx, cy, name=f"perturbed_disk({eps},{m})")


def builtin_curve(spec):
    """Resolve a built-in curve name like "disk", "ellipse(2,1)", "perturbed_disk(0.1,3)".

    The shell-friendly colon form "ellipse:2,1" is accepted as well.
    """
    spec = spec.strip()
    if ":" in spec and "(" not in spec:
        name, args = spec.split(":", 1)
        spec = f"{name}({args})"
    if spec == "disk":
        return disk()
    if spec.startswith("ellipse(") and spec.endswith(")"):
        a, b = (float(v) for v in spec[8:-1].split(","))
        return ellipse(a, b)
    if spec.startswith("perturbed_disk(") and spec.endswith(")"):
        eps, m = spec[15:-1].split(",")
        return perturbed_disk(float(eps), int(m))
    raise ValueError(f"unknown built-in curve: {spec!r}")


def curve_from_spec(spec):
    """The curve of a JSON file if spec is a path, else a built-in curve."""
    if os.path.exists(spec):
        with open(spec) as fh:
            return BoundaryCurve.from_json(fh.read())
    return builtin_curve(spec)


# -- tube neighborhood ----------------------------------------------------------------


class TubeNeighborhood:
    """Two-sided collar of half-width delta around the boundary curve."""

    def __init__(self, curve, delta):
        delta = float(delta)
        if delta <= 0:
            raise ValueError("delta must be positive")
        if curve.max_abs_curvature * delta >= 1.0:
            raise DegenerateCurveError(
                "tube half-width violates the curvature bound delta < 1/max|kappa|"
            )
        if delta > curve.max_tube_halfwidth():
            raise DegenerateCurveError(
                "tube half-width exceeds the injectivity radius of the normal map"
            )
        self.curve = curve
        self.delta = delta

    def locate_many(self, x):
        """Tube coordinates (t, s) for an array of points; raises if any leaves the tube."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t, s, gap = self.curve.nearest_point_many(x)
        if np.any(np.abs(s) >= self.delta):
            raise OutOfTubeError("point outside the tube neighborhood")
        if np.any(gap > 1e-8 * max(self.curve.diameter, 1.0)):
            raise FootPointError("inconsistent foot point inside the tube")
        return t, s


def reflect_many(tube, x):
    """Reflection y + t nu(y) -> y - t nu(y) of each point; an involution."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t, s = tube.locate_many(x)
    f = tube.curve.frame(t)
    return f.point - s[:, None] * f.nu

