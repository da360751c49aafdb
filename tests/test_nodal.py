import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from steklab import geometry, nodal
from steklab.errors import (
    DegenerateCenterError,
    OutOfDomainError,
    OutOfTubeError,
    RegionError,
    UndersampledError,
)
from steklab.frequency import _polar_integral, v_transform
from steklab.steklov import SteklovEigenpair, build_dtn, solve_spectrum
from steklab.nodal import (
    _ball_curve_intervals,
    _ray_extents,
    boundary_controls_solid_check,
    boundary_mass,
    boundary_net,
    boundary_zeros,
    clipped_ball_mass,
    domain_mass,
    doubling_profile,
    nyquist_guard,
    solid_mass,
    special_point_search,
)

from conftest import disk_mode_coefficients


def oracle_boundary_mass(pair, k, center_t, r):
    """Closed-form disk oracle: integral of (a cos kt + b sin kt)^2 over the
    arc cut out of the unit circle by the ball of radius r about a boundary
    point. Chord length between angles t0, t is 2 |sin((t - t0)/2)|."""
    a, b, resid = disk_mode_coefficients(pair, k)
    assert resid < 1e-9
    half = 2.0 * np.arcsin(r / 2.0)  # half-width in angle
    nodes, wts = np.polynomial.legendre.leggauss(200)
    t = center_t + half * nodes
    f = a * np.cos(k * t) + b * np.sin(k * t)
    return half * float(np.sum(wts * f**2))


class TestBoundaryZeros:
    @pytest.mark.parametrize("j,k", [(0, 0), (1, 1), (9, 5), (19, 10)])
    def test_disk_counts(self, disk_spectrum, j, k):
        # the k-th disk mode has exactly 2k boundary sign changes
        rep = boundary_zeros(disk_spectrum[j])
        assert rep.count == 2 * k

    # tol = 0 bisects each zero to float resolution
    @pytest.mark.parametrize("tol", [1e-12, 0.0])
    def test_disk_zero_locations(self, disk_spectrum, tol):
        pair = disk_spectrum[5]  # lambda = 3
        a, b, _ = disk_mode_coefficients(pair, 3)
        phi = np.arctan2(-a, b)  # a cos + b sin = 0 at (phi + m pi)/3... solve
        rep = boundary_zeros(pair, tol=tol)
        f = pair.trace_at(rep.zeros)
        assert np.max(np.abs(f)) < 1e-11 * np.max(np.abs(pair.trace))
        # consecutive zeros are pi/3 apart
        gaps = np.diff(np.concatenate([rep.zeros, [rep.zeros[0] + 2 * np.pi]]))
        assert np.allclose(gaps, np.pi / 3, atol=1e-9)

    def test_undersampled_guard(self, disk_spectrum):
        pair = disk_spectrum[40]  # lambda = 20
        assert nyquist_guard(pair) == int(np.ceil(16 * 20.0))
        with pytest.raises(UndersampledError):
            boundary_zeros(pair, samples=100)

    @pytest.mark.parametrize("rel", [-4e-15, 0.0, 4e-15])
    def test_guard_ignores_round_off(self, disk_spectrum, rel):
        # lambda = 20 to round-off, as solvers return it, needs 320 samples
        pair = dataclasses.replace(disk_spectrum[40], eigenvalue=20.0 * (1.0 + rel))
        assert nyquist_guard(pair) == 320

    def test_tangential_flag(self, disk_spectrum):
        # f^2 touches zero without crossing; build it from a degenerate pair
        pair = disk_spectrum[5]
        trace = pair.trace - np.min(pair.trace)  # >= 0, touches 0
        fake = dataclasses.replace(pair, trace=trace)
        rep = boundary_zeros(fake, flag_rel=1e-5)
        assert rep.count == 0 or len(rep.tangential_flags) > 0

    @pytest.mark.parametrize("offset", [-1e-13, 0.0, 1e-13])
    def test_tangential_zero_on_sample(self, disk_spectrum, offset):
        # cos 3t minus its minimum touches zero on the grid sample t = pi;
        # whichever sign round-off or the offset gives that sample, the
        # touching zero is flagged once and not counted
        a, b = disk_spectrum[5], disk_spectrum[6]
        basis = np.stack([a.trace, b.trace], axis=1)
        coef, *_ = np.linalg.lstsq(basis, np.cos(3 * a.dtn.t), rcond=None)
        f = basis @ coef
        fake = dataclasses.replace(a, trace=f - np.min(f) + offset * np.max(np.abs(f)))
        rep = boundary_zeros(fake)
        assert rep.count == 0
        h = 2 * np.pi / rep.samples
        assert np.any(np.abs(rep.tangential_flags - np.pi) <= h)

    def test_tangential_zero_run_through_t_zero(self, disk_spectrum):
        # -cos 3t minus its minimum touches zero at 0, 2pi/3 and 4pi/3; the
        # near-zero run about t = 0 wraps past 2pi and is flagged once
        a, b = disk_spectrum[5], disk_spectrum[6]
        basis = np.stack([a.trace, b.trace], axis=1)
        coef, *_ = np.linalg.lstsq(basis, -np.cos(3 * a.dtn.t), rcond=None)
        f = basis @ coef
        fake = dataclasses.replace(a, trace=f - np.min(f))
        rep = boundary_zeros(fake, samples=20000, flag_rel=1e-5)
        assert rep.count == 0
        assert len(rep.tangential_flags) == 3
        h = 2 * np.pi / rep.samples
        for want in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
            d = np.abs((rep.tangential_flags - want + np.pi) % (2 * np.pi) - np.pi)
            assert np.min(d) <= h

    @pytest.mark.parametrize("flag_rel", [-1e-9, 1.0, np.nan])
    def test_flag_rel_range(self, disk_spectrum, flag_rel):
        with pytest.raises(ValueError):
            boundary_zeros(disk_spectrum[5], flag_rel=flag_rel)

    def test_csv_format(self, disk_spectrum):
        rep = boundary_zeros(disk_spectrum[1])
        lines = rep.to_csv().split("\r\n")
        assert lines[0] == "index,t,kind"
        assert lines[1].split(",")[2] == "crossing"
        data = json.loads(rep.to_json())
        assert data["count"] == rep.count


class TestBoundaryMass:
    def test_disk_oracle(self, disk_spectrum):
        # [DERIVED] closed-form arc-mass oracle on the unit circle
        pair = disk_spectrum[9]  # lambda = 5
        for t0, r in [(0.0, 0.3), (1.1, 0.5), (4.0, 0.15)]:
            center = np.array([np.cos(t0), np.sin(t0)])
            got = boundary_mass(pair, center, r)
            want = oracle_boundary_mass(pair, 5, t0, r)
            assert abs(got - want) < 1e-8 * max(want, 1.0)

    def test_full_circle(self, disk_spectrum):
        # a ball containing the whole curve returns the normalization
        pair = disk_spectrum[3]
        assert boundary_mass(pair, (0.0, 0.0), 3.0) == pytest.approx(1.0, rel=1e-10)

    def test_empty_intersection(self, disk_spectrum):
        pair = disk_spectrum[3]
        assert boundary_mass(pair, (0.0, 0.0), 0.5) == 0.0

    def test_gauss_rule_built_once_per_order(self, disk_spectrum, monkeypatch):
        # every interval and refinement level of an order shares one rule
        orders = []
        leggauss = np.polynomial.legendre.leggauss

        def recording(n):
            orders.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", recording)
        pair, center = disk_spectrum[9], np.array([1.0, 0.0])
        first = boundary_mass(pair, center, 0.3)
        assert boundary_mass(pair, center, 0.3) == first
        assert all(orders.count(n) <= 1 for n in orders)


# (curve, center: a curve parameter, or None for the centroid, radii)
BATCH_CASES = [
    ("disk", None, [0.5, 3.0]),  # misses the curve; holds all of it
    ("disk", 0.0, [0.05, 0.3, 1.9]),  # one arc, wrapping past t = 0
    ("ellipse(2,1)", None, [0.5, 3.0]),
    ("ellipse(2,1)", 0.0, [0.05, 0.3]),
    ("ellipse(2,1)", np.pi / 2, [0.3, 2.1]),  # r = 2.1 cuts two arcs
    ("perturbed_disk(0.1,3)", None, [0.5, 3.0]),
    ("perturbed_disk(0.1,3)", 0.0, [0.05, 0.3, 1.0]),
]


MANY_CENTER_CURVES = [
    "disk", "ellipse(2,1)", "ellipse(4,1)", "perturbed_disk(0.1,3)", "perturbed_disk(0.2,5)",
]


@pytest.fixture(scope="module")
def batch_pairs():
    return {
        spec: solve_spectrum(build_dtn(geometry.builtin_curve(spec), 256), 10)[8]
        for spec in {case[0] for case in BATCH_CASES} | set(MANY_CENTER_CURVES)
    }


def full_table_intervals(curve, center, radii):
    """The intervals of _ball_curve_intervals for one center from a
    (radii, probe points) sign table over the whole curve and one interval
    list per radius: the scan that the ball-local one replaced."""
    tg = curve.probe_t
    g = np.linalg.norm(curve.probe_points - center, axis=1) - radii[:, None]
    inside = g < 0
    row, col = np.nonzero(inside != np.roll(inside, -1, axis=1))

    def gd(t, i):
        p, v = curve._series(t, 0, 1)
        p = p - center
        dist = np.linalg.norm(p, axis=1)
        return dist - radii[row[i]], np.einsum("ij,ij->i", p, v) / dist

    edges = nodal._roots(gd, tg[col], tg[col] + 2 * np.pi / len(tg), g[row, col],
                         g[row, (col + 1) % len(tg)], 1e-13)
    owner, lo, hi = [], [], []
    for j in range(len(radii)):
        e, c = edges[row == j], col[row == j]
        if len(c) == 0:
            e = [0.0, 2 * np.pi] if inside[j, 0] else []
        elif inside[j, c[0]]:
            e = np.append(e[1:], e[0] + 2 * np.pi)
        owner += [j] * (len(e) // 2)
        lo += list(e[0::2])
        hi += list(e[1::2])
    return np.array(owner, dtype=int), np.array(lo), np.array(hi)


def sweep_centers(curve):
    """gamma(0), whose arcs wrap past t = 0, four more curve points, and the
    centroid, whose small balls miss the curve."""
    return np.vstack([curve.point(np.array([0.0, 1.0, 2.5, 4.0, 5.5])), curve.centroid])


# unsorted, with a repeat, one past every diameter and one infinite
SWEEP_RADII = np.array([0.3, 0.02, np.inf, 9.0, 0.1, 0.05, 0.6, 0.02])


class TestBoundaryMassBatch:
    @pytest.mark.parametrize("spec,t0,radii", BATCH_CASES)
    def test_vector_equals_scalar_calls(self, batch_pairs, spec, t0, radii):
        pair = batch_pairs[spec]
        curve = pair.curve
        center = curve.centroid if t0 is None else curve.point(np.array([t0]))[0]
        got = boundary_mass(pair, center, np.array(radii))
        want = [boundary_mass(pair, center, r) for r in radii]
        assert got.shape == (len(radii),)
        assert got.tolist() == want
        if t0 is None:
            assert want[0] == 0.0
            assert want[1] == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("spec", MANY_CENTER_CURVES)
    def test_many_centers_equal_one_center_rows(self, batch_pairs, spec):
        pair = batch_pairs[spec]
        centers, radii = sweep_centers(pair.curve), SWEEP_RADII
        got = boundary_mass(pair, centers, radii)
        assert got.shape == (len(centers), len(radii))
        for center, row in zip(centers, got):
            assert np.array_equal(row, boundary_mass(pair, center, radii))
        assert got[-1, 1] == got[-1, 5] == 0.0  # the centroid's small balls
        assert np.array_equal(got[:, 1], got[:, 7])
        assert got[:, 2] == pytest.approx(1.0, rel=1e-10)
        assert np.array_equal(got[:, 2], got[:, 3])  # both hold the whole curve

    @pytest.mark.parametrize("spec", MANY_CENTER_CURVES)
    def test_ball_local_scan_equals_the_full_table(self, batch_pairs, spec):
        # the blocks beyond a center's largest ball hold no edge, and the
        # search in the sorted radii finds every sign change of d - r, also
        # at radii equal to a probe node's distance from a center, where
        # the node counts as outside
        curve = batch_pairs[spec].curve
        centers = sweep_centers(curve)
        on_node = np.linalg.norm(curve.probe_points[[40, 700, 3000]] - centers[1], axis=1)
        radii = np.concatenate([SWEEP_RADII, on_node])
        owner, a, b = _ball_curve_intervals(curve, centers, radii)
        assert np.all(np.diff(owner) >= 0)
        for c, center in enumerate(centers):
            mine = owner // len(radii) == c
            want = full_table_intervals(curve, center, radii)
            assert np.array_equal(owner[mine] % len(radii), want[0])
            assert np.array_equal(a[mine], want[1]) and np.array_equal(b[mine], want[2])
        # the finite balls about gamma(0) below the diameter wrap past 2 pi
        small = np.flatnonzero(SWEEP_RADII < 2.0)
        assert set(owner[b > 2 * np.pi]) >= set(small)

    def test_many_centers_one_radius(self, batch_pairs):
        pair = batch_pairs["ellipse(2,1)"]
        centers = pair.curve.point(np.array([0.0, 2.0]))
        got = boundary_mass(pair, centers, 0.3)
        assert got.shape == (2,)
        assert got.tolist() == [boundary_mass(pair, c, 0.3) for c in centers]

    def test_arcs_wrap_past_zero(self, batch_pairs):
        curve = batch_pairs["ellipse(2,1)"].curve
        owner, a, b = _ball_curve_intervals(curve, curve.point(np.array([0.0]))[0],
                                            np.array([0.05, 0.3]))
        assert owner.tolist() == [0, 1]
        assert np.all(a < 2 * np.pi) and np.all(b > 2 * np.pi)

    def test_two_arcs_on_the_ellipse(self, batch_pairs):
        curve = batch_pairs["ellipse(2,1)"].curve
        center = curve.point(np.array([np.pi / 2]))[0]
        owner, a, b = _ball_curve_intervals(curve, center, np.array([2.1]))
        assert owner.tolist() == [0, 0]
        assert np.allclose(a, [0.223, 4.235], atol=1e-3)
        assert np.allclose(b, [2.918, 5.190], atol=1e-3)
        r = np.linalg.norm(curve.point(np.concatenate([a, b])) - center, axis=1)
        assert np.allclose(r, 2.1, atol=1e-12)

    @pytest.mark.parametrize("r", [np.nan, 0.0, -1.0, [0.3, np.nan], [0.0, 0.3]])
    def test_radius_must_be_positive(self, disk_spectrum, r):
        with pytest.raises(ValueError, match="positive"):
            boundary_mass(disk_spectrum[9], np.array([1.0, 0.0]), r)

    def test_miss_and_infinite_radius(self, disk_spectrum):
        pair = disk_spectrum[3]
        miss = boundary_mass(pair, (0.0, 0.0), 0.5)
        assert type(miss) is float and miss == 0.0
        assert boundary_mass(pair, (0.0, 0.0), np.inf) == pytest.approx(1.0, rel=1e-10)

    def test_profile_sweeps_all_radii_at_once(self, disk_spectrum, monkeypatch):
        # one root refinement over every edge; one trace_at call per level
        # 32 .. 512
        refines, traces = [], []
        roots, trace_at = nodal._roots, SteklovEigenpair.trace_at

        def counting_roots(*args):
            refines.append(len(args[1]))
            return roots(*args)

        def counting_trace_at(self, t):
            traces.append(np.size(t))
            return trace_at(self, t)

        monkeypatch.setattr(nodal, "_roots", counting_roots)
        monkeypatch.setattr(SteklovEigenpair, "trace_at", counting_trace_at)
        pair = disk_spectrum[9]
        rep = doubling_profile(pair, pair.curve.point(np.array([0.3]))[0], 0.005, 0.5)
        assert len(rep.radii) == 27
        assert len(refines) == 1 and refines[0] == 2 * 27
        assert 1 <= len(traces) <= int(np.log2(512 / 32)) + 1

    def test_profile_needs_a_finite_r_max(self, disk_spectrum):
        with pytest.raises(ValueError):
            doubling_profile(disk_spectrum[9], np.array([1.0, 0.0]), 0.005, np.inf)


class UnitField:
    """Stand-in eigenpair u = 1 on a curve; counts the points it evaluates."""

    eigenvalue = 0.0

    def __init__(self, curve):
        self.curve = curve
        self.points = 0

    def evaluate_many(self, pts):
        self.points += len(pts)
        return np.ones(len(pts)), np.zeros((len(pts), 2))

    def evaluate_inside(self, pts, gradient=True):
        u, g = self.evaluate_many(pts)
        return (u, g) if gradient else u


def test_dense_scans_read_the_probe_table(disk_spectrum, monkeypatch):
    # after construction, no scan samples the curve at all 8192 probe points
    pair, curve = disk_spectrum[9], geometry.ellipse(2.0, 1.0)
    sizes = []
    point = geometry.BoundaryCurve.point

    def recording(self, t):
        sizes.append(np.size(t))
        return point(self, t)

    monkeypatch.setattr(geometry.BoundaryCurve, "point", recording)
    boundary_mass(pair, np.array([1.0, 0.0]), 0.3)
    domain_mass(UnitField(curve))
    boundary_net(curve, 0.25)
    assert sizes and 8192 not in sizes


def conic_extents(a, b, center, theta, r):
    """Exact first exit, capped at r, of rays from a point of the closed
    ellipse x^2/a^2 + y^2/b^2 <= 1: the larger root of a quadratic in rho,
    taken stably. Also returns the outward unit normal at the crossing."""
    d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    A = d[:, 0] ** 2 / a**2 + d[:, 1] ** 2 / b**2
    B = 2.0 * (center[0] * d[:, 0] / a**2 + center[1] * d[:, 1] / b**2)
    C = center[0] ** 2 / a**2 + center[1] ** 2 / b**2 - 1.0
    q = -0.5 * (B + np.copysign(np.sqrt(np.maximum(B * B - 4 * A * C, 0.0)), B))
    rho = np.maximum(q / A, np.divide(C, q, out=np.zeros_like(q), where=q != 0))
    rho = np.maximum(rho, 0.0)
    return np.minimum(rho, r), ellipse_normal(a, b, center + rho[:, None] * d)


def ellipse_normal(a, b, p):
    nu = np.stack([p[..., 0] / a**2, p[..., 1] / b**2], axis=-1)
    return nu / np.linalg.norm(nu, axis=-1, keepdims=True)


class TestRayExtents:
    R = 0.3
    THETA = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)
    DIRS = np.stack([np.cos(THETA), np.sin(THETA)], axis=1)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0)])
    def test_matches_conic_crossings(self, a, b):
        # from every net point (normal taken there, so tangent rays are
        # left out) and from interior points (normal at the exit)
        curve = geometry.ellipse(a, b)
        net = curve.point(boundary_net(curve, 0.15))
        inner = np.array([[0.0, 0.0], [0.3 * a, 0.2 * b], [0.9 * a, 0.1 * b],
                          [-0.2 * a, -0.95 * b], [0.5 * a, 0.8 * b]])
        checked = 0
        for center, on_curve in [(c, True) for c in net] + [(c, False) for c in inner]:
            got = _ray_extents(curve, center, self.THETA, self.R)
            want, nu = conic_extents(a, b, center, self.THETA, self.R)
            if on_curve:
                nu = ellipse_normal(a, b, center)
            dn = np.abs(np.sum(self.DIRS * nu, axis=-1))
            clear = dn > 1e-9
            assert np.all(np.abs(got - want)[clear] <= 1e-10 * self.R)
            assert np.all(got[~clear] < 1e-7)
            checked += np.sum(clear)
        assert checked > 0.9 * 96 * (len(net) + len(inner))

    def test_exit_on_a_probe_node_counts_once(self):
        # from gamma(pi/3), ray 86 leaves the unit disk exactly at the probe
        # node t = pi/4, shared by two probe segments
        curve = geometry.disk()
        center = curve.point(np.array([np.pi / 3]))[0]
        assert np.pi / 4 in curve.probe_t
        got = _ray_extents(curve, center, self.THETA, self.R)
        assert abs(got[86] - 2 * np.sin(np.pi / 24)) <= 1e-10 * self.R

    def test_tangent_rays_leave_at_once(self):
        # rays 40 and 88 from gamma(pi/3) are tangent to the unit circle:
        # the sign of d . nu at the center is round-off, the extent is not r
        curve = geometry.disk()
        center = curve.point(np.array([np.pi / 3]))[0]
        nu = curve.normal(np.array([np.pi / 3]))[0]
        assert np.all(np.abs(self.DIRS[[40, 88]] @ nu) < 1e-15)
        got = _ray_extents(curve, center, self.THETA, self.R)
        assert np.all(got[[40, 88]] < 1e-7)

    def test_rays_leaving_at_once_have_zero_extent(self):
        curve = geometry.disk()
        t0 = 0.7
        center = curve.point(np.array([t0]))[0]
        got = _ray_extents(curve, center, self.THETA, self.R)
        outward = self.DIRS @ curve.normal(np.array([t0]))[0] > 0
        assert np.all(got[outward] == 0.0)
        assert np.all(got[~outward] > 0.0)

    def test_uncapped_from_the_centroid(self):
        curve = geometry.ellipse(2.0, 1.0)
        theta = np.linspace(0.3, 0.3 + 2 * np.pi, 512, endpoint=False)
        got = _ray_extents(curve, curve.centroid, theta, np.inf)
        want, _ = conic_extents(2.0, 1.0, curve.centroid, theta, np.inf)
        assert np.max(np.abs(got - want)) <= 1e-12


BUILTIN_CURVES = ["disk", "ellipse(2,1)", "perturbed_disk(0.1,3)", "perturbed_disk(0.2,5)"]


def net_tolerance(spec):
    """Largest difference allowed between the extents of one batch of rays
    and another: the curve series of the perturbed disks rounds differently
    in the last bits when the batch's size changes."""
    return 0.0 if spec in ("disk", "ellipse(2,1)") else 1e-13


class TestNetRayPass:
    """A net's rays in one pass with the curve parameters t of its centers,
    which selects only the probe blocks within reach, against the
    all-blocks pass without t."""

    @pytest.mark.parametrize("spec", BUILTIN_CURVES)
    @pytest.mark.parametrize("r,spacing", [(0.3, 0.15), (0.1, 0.05)])
    @pytest.mark.parametrize("n", [96, 256])
    def test_t_matches_the_all_blocks_path(self, spec, r, spacing, n):
        curve = geometry.builtin_curve(spec)
        t = boundary_net(curve, spacing)
        centers = curve.point(t)
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        got = _ray_extents(curve, centers, theta, r, t=t)
        want = _ray_extents(curve, centers, theta, r)
        assert got.shape == want.shape == (len(t), n)
        assert np.max(np.abs(got - want)) <= net_tolerance(spec)

    @pytest.mark.parametrize("spec", BUILTIN_CURVES)
    def test_near_tangent_inward_rays_match_the_all_blocks_path(self, spec):
        # inward rays 1e-4, 3e-4 and 1e-3 rad from both tangent directions
        # at each net point lie in the tangent band. Those whose exit hides
        # in the center's own probe segment read 0 without t, and must not
        # take extent r from the side of d . nu with it
        curve = geometry.builtin_curve(spec)
        t = boundary_net(curve, 0.15)
        centers, f = curve.point(t), curve.frame(t)
        eps = np.array([1e-4, 3e-4, 1e-3])
        assert eps.max() < 2 * curve.max_abs_curvature * curve.probe_chord
        tau = np.arctan2(f.T[:, 1], f.T[:, 0])
        reads = []
        for j in range(len(t)):
            # T and -T, each turned toward -nu
            theta = np.sort(np.concatenate([tau[j] + eps, tau[j] + np.pi - eps]) % (2 * np.pi))
            want = _ray_extents(curve, centers[j], theta, 0.3)
            got = _ray_extents(curve, centers[j], theta, 0.3, t=t[j])
            assert np.max(np.abs(got - want)) <= net_tolerance(spec)
            reads.append(want)
        assert np.any(np.array(reads) == 0) and np.any(np.array(reads) > 0)

    def test_t_must_match_each_center(self):
        curve = geometry.ellipse(2.0, 1.0)
        t = boundary_net(curve, 0.15)
        centers = curve.point(t)
        theta = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)
        moved = t + 1e-9 * (np.arange(len(t)) == 5)  # gamma moves by about 1e-9
        with pytest.raises(ValueError, match="not gamma"):
            _ray_extents(curve, centers, theta, 0.3, t=moved)
        with pytest.raises(ValueError, match="not gamma"):
            clipped_ball_mass(UnitField(curve), centers, 0.3, n_r=20, n_theta=96, t=moved)
        with pytest.raises(ValueError, match="not gamma"):
            clipped_ball_mass(UnitField(curve), centers[0], 0.3, t=t[1])

    def test_t_must_have_one_parameter_per_center(self):
        curve = geometry.ellipse(2.0, 1.0)
        t = boundary_net(curve, 0.15)
        centers = curve.point(t)
        theta = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)
        with pytest.raises(ValueError, match="one curve parameter per center"):
            _ray_extents(curve, centers, theta, 0.3, t=t[:-1])
        with pytest.raises(ValueError, match="one curve parameter per center"):
            clipped_ball_mass(UnitField(curve), centers, 0.3, t=t[:1])
        with pytest.raises(ValueError, match="one curve parameter per center"):
            clipped_ball_mass(UnitField(curve), centers[0], 0.3, t=t[:2])

    @pytest.mark.parametrize("curve,j", [("disk", 9), ("ellipse", 7)])
    def test_net_masses_equal_one_ball_at_a_time(
        self, curve, j, disk_spectrum, ellipse_spectrum
    ):
        # one ray pass and center blocks of the polar quadrature give each
        # ball, bit for bit, the mass of its own call without t
        pair = {"disk": disk_spectrum, "ellipse": ellipse_spectrum}[curve][j]
        t = boundary_net(pair.curve, 0.15)
        centers = pair.curve.point(t)
        got = clipped_ball_mass(pair, centers, 0.3, n_r=20, n_theta=96, t=t)
        want = [clipped_ball_mass(pair, c, 0.3, n_r=20, n_theta=96) for c in centers]
        assert np.array_equal(got, want)
        rep = special_point_search(pair, 0.3, total=1.0, n_r=20, n_theta=96)
        assert np.array_equal(rep.net_masses, want)

    @pytest.mark.parametrize("spec", BUILTIN_CURVES)
    def test_center_blocks_match_one_block(self, spec, monkeypatch):
        # 194 centers x 256 rays on the ellipse (126 to 153 on the others)
        # take four to seven center blocks of _RAY_BLOCK entries. A ray
        # within 1e-2 rad of the tangent crosses the curve at a shallow
        # angle, where the root moves by about eps / |d . nu| when the
        # series rounds differently, so it is held to 1e-12 on the
        # perturbed disks (perturbed_disk(0.2, 5) has one such ray, 8.4e-4
        # rad inside the tangent, that moves by 1.2e-13)
        curve = geometry.builtin_curve(spec)
        t = boundary_net(curve, 0.05)
        centers = curve.point(t)
        theta = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        assert len(t) * len(theta) > 3 * nodal._RAY_BLOCK
        got = _ray_extents(curve, centers, theta, 0.1, t=t)
        monkeypatch.setattr(nodal, "_RAY_BLOCK", len(t) * len(theta))
        want = _ray_extents(curve, centers, theta, 0.1, t=t)
        assert got.shape == want.shape == (len(t), len(theta))
        shallow = np.abs(curve.normal(t) @ np.stack([np.cos(theta), np.sin(theta)])) < 1e-2
        diff = np.abs(got - want)
        assert np.max(diff[~shallow]) <= net_tolerance(spec)
        assert np.max(diff[shallow]) <= 10 * net_tolerance(spec)

    @pytest.mark.parametrize("spacing,n,calls", [(0.15, 96, 1), (0.05, 256, 7)])
    def test_center_blocks(self, spacing, n, calls, monkeypatch):
        # the nets of criterion 10 and of the benchmark (at most 65 centers
        # x 96 rays) stay one block; the ellipse's 194 x 256 net takes
        # blocks of 32 centers
        refines = []
        roots = nodal._roots

        def counting_roots(*args):
            refines.append(len(args[1]))
            return roots(*args)

        monkeypatch.setattr(nodal, "_roots", counting_roots)
        curve = geometry.ellipse(2.0, 1.0)
        t = boundary_net(curve, spacing)
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        _ray_extents(curve, curve.point(t), theta, 2 * spacing, t=t)
        assert len(refines) == calls

    def test_ray_pass_memory_bounded(self):
        # the ellipse's rho = 0.1 net (194 centers) with 256 rays: held in
        # one block, its proposals and brackets peaked at 10.1 MiB traced;
        # blocks of _RAY_BLOCK (center, ray) entries peak at about 2 MiB
        import tracemalloc

        curve = geometry.ellipse(2.0, 1.0)
        t = boundary_net(curve, 0.05)
        centers = curve.point(t)
        theta = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        tracemalloc.start()
        try:
            _ray_extents(curve, centers, theta, 0.1, t=t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(t) == 194
        assert peak < 4 * 2**20

    def test_search_memory_bounded(self, ellipse_spectrum):
        # at rho = 0.1 and the default 48 x 256 polar grid the net's 194
        # balls hold 2.4 million Gauss points, whose (P, 2) table alone
        # would take 38 MB; centers go to evaluate_inside and to the ray
        # pass in blocks, and the peak is about 3 MiB at both radii
        import tracemalloc

        pair = ellipse_spectrum[7]
        pair._poly()  # the fit is cached on the pair; build it outside
        pair.curve.max_tube_halfwidth()
        for rho, size in [(0.1, 194), (0.3, 65)]:
            tracemalloc.start()
            try:
                rep = special_point_search(pair, rho)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.net_size == size
            assert peak < 16 * 2**20


class TestRootKernel:
    THETA = np.linspace(0.0, 2 * np.pi, 96, endpoint=False)

    def test_closes_at_tol_zero_next_to_zero_and_two_pi(self, series_calls):
        # the crossings at t = 0 and t = 2 pi of rays from gamma(0) on a unit
        # circle about (0.3, 0.2), where g = d x (gamma - c) carries round-off
        # of about eps: at tol = 0 every root closes at float resolution, in
        # far fewer calls than halving toward the denormals would take
        curve = geometry.BoundaryCurve([0.3, 1.0, 0.0], [0.2, 0.0, 1.0])
        c = curve.point(np.array([0.0]))[0]
        h = 2 * np.pi / 8192
        theta = np.repeat([2 * np.pi / 3, 0.9 * np.pi, np.pi, 4 * np.pi / 3], 2)
        d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        a = np.tile([-h / 3, 2 * np.pi - 2 * h / 3], 4)
        b = a + h

        def g_of(t, i):
            p, v = curve._series(t, 0, 1)
            p = p - c
            return (d[i, 0] * p[:, 1] - d[i, 1] * p[:, 0],
                    d[i, 0] * v[:, 1] - d[i, 1] * v[:, 0])

        def gd(t, i):
            # a kernel that never closes fails here instead of looping on
            assert len(series_calls) < 2 * 64
            return g_of(t, i)

        all_ = np.arange(len(a))
        ga, gb = g_of(a, all_)[0], g_of(b, all_)[0]
        series_calls.clear()
        roots = nodal._roots(gd, a, b, ga, gb, 0.0)
        assert len(series_calls) < 2 * 64
        want = np.tile([0.0, 2 * np.pi], 4)
        assert np.all(np.abs(roots - want) <= 1e-15)

    @pytest.mark.parametrize("spec", ["disk", "ellipse(2,1)"])
    def test_ray_extents_curve_calls(self, spec, series_calls):
        # from interior centers and from a center on the curve; the root
        # refinement plus one call for the exit points
        curve = geometry.builtin_curve(spec)
        centers = [curve.centroid, 0.9 * curve.point(np.array([2.0]))[0],
                   curve.point(np.array([0.7]))[0]]
        for center in centers:
            series_calls.clear()
            _ray_extents(curve, center, self.THETA, 0.3)
            assert len(series_calls) <= 8

    def test_ray_extents_curve_calls_over_a_net(self, series_calls):
        # every net point of the ellipse in one call, with its tangent rays
        # (a double root at the center, where Newton converges linearly) and
        # its own crossings at shallow angles (where round-off in g stops
        # Newton): the brackets of all centers are refined together, so the
        # whole net takes no more calls than twice bisection's step count
        curve = geometry.ellipse(2.0, 1.0)
        t = boundary_net(curve, 0.15)
        centers = curve.point(t)
        series_calls.clear()
        _ray_extents(curve, centers, self.THETA, 0.3, t=t)
        bisection = np.log2(2 * np.pi / 8192 / np.finfo(float).eps)  # 41.7 steps
        assert len(series_calls) <= 2 * bisection

    def test_ball_curve_edges_curve_calls(self, series_calls):
        # the 27 radii of a doubling profile from 0.005 to 0.5, edges to 1e-13
        curve = geometry.disk()
        center = curve.point(np.array([0.3]))[0]
        radii = 0.005 * 2.0 ** (np.arange(27) / 4)
        series_calls.clear()
        owner, a, b = _ball_curve_intervals(curve, center, radii)
        assert len(series_calls) <= 6
        assert owner.tolist() == list(range(27))
        r = np.linalg.norm(curve.point(np.concatenate([a, b])) - center, axis=1)
        assert np.allclose(r, np.tile(radii, 2), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("r", [0.3, np.inf])
    def test_near_tangent_rays_from_the_curve(self, r):
        # rays at 1e-9 ... 1e-1 from the tangent at gamma(0.7) on the unit
        # disk, both ways and flipped by pi; the exact extent is the chord
        # max(-2 d . c, 0). An exit in the center's own probe segment makes
        # no sign change, so that ray reads 0; every other ray, the inward
        # ones at 1e-3 ... 1e-1 whose exit lies a few segments from the
        # center's own crossing included, reads its exact extent
        curve = geometry.disk()
        center = curve.point(np.array([0.7]))[0]
        eps = 10.0 ** -np.arange(9.0, 0.0, -1.0)
        tangent = 0.7 + np.pi / 2
        theta = np.sort(np.concatenate(
            [tangent + sign * eps + flip for sign in (-1, 1) for flip in (0, np.pi)]
        ))
        d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        want = np.minimum(np.maximum(-2.0 * d @ center, 0.0), r)
        got = _ray_extents(curve, center, theta, r)
        read = got > 0
        assert np.all(np.abs(got - want)[read] <= 1e-12)
        assert np.all(want[~read] < 2 * np.sin(np.pi / 8192))
        assert np.sum(read) == 6


class TestSolidMasses:
    def test_clipped_equals_full_when_interior(self, disk_spectrum):
        # ball fully inside the domain: clipping is inactive
        pair = disk_spectrum[2]  # lambda = 1
        a, b, resid = disk_mode_coefficients(pair, 1)
        assert resid < 1e-10
        # u = a x + b y: integral of u^2 over B((x0,y0), r) in closed form
        x0, y0, r = 0.2, -0.1, 0.3
        want = (a**2 + b**2) * np.pi * r**4 / 4.0 + (
            a * x0 + b * y0
        ) ** 2 * np.pi * r**2
        got = clipped_ball_mass(pair, (x0, y0), r)
        assert abs(got - want) < 1e-6 * want

    def test_domain_mass_disk_mode(self, disk_spectrum):
        # u = r^k trig: integral over the disk is 1/(2k+2) of the boundary
        # normalization value on the unit circle
        pair = disk_spectrum[9]  # lambda = 5
        got = domain_mass(pair)
        # trace normalized: int_circle u^2 = 1, u = r^5 g(theta) with
        # int g^2 = 1, so int_disk u^2 = int_0^1 r^10 r dr = 1/12
        assert got == pytest.approx(1.0 / 12.0, rel=1e-8)

    def test_domain_mass_is_ellipse_area(self):
        # the disk's angle bisection ends at its first midpoint; the
        # ellipse's runs the general path
        assert domain_mass(UnitField(geometry.ellipse(2.0, 1.0))) == pytest.approx(
            2.0 * np.pi, rel=1e-12
        )

    def test_domain_mass_needs_star_shape(self):
        # a simple curve whose angle about its centroid turns back
        c = geometry.BoundaryCurve([0, 1, 0, 0.5, 0, 0, 0], [0, 0, 1, 0, 0.5, 0, 0.3])
        with pytest.raises(RegionError, match="star-shaped"):
            domain_mass(SimpleNamespace(curve=c))

    def test_clipped_ball_at_boundary_is_lens_area(self):
        # a ball of radius r about a point of the unit circle meets the disk
        # in a lens; the rays leaving the domain have extent 0 and no points
        curve = geometry.disk()
        field, r = UnitField(curve), 0.3
        got = clipped_ball_mass(
            field, curve.point(np.array([0.7]))[0], r, n_r=20, n_theta=96
        )
        want = (
            r**2 * np.arccos(r / 2)
            + np.arccos(1 - r**2 / 2)
            - 0.5 * r * np.sqrt(4 - r**2)
        )
        assert field.points == 960
        assert abs(got - want) < 2e-3 * want

    def test_clipped_ball_makes_no_foot_point_query(self, monkeypatch):
        # the rays are clipped on the curve parameter and the center's side
        # comes from its rays, so nothing is projected onto the curve
        calls = []
        nearest = geometry.BoundaryCurve.nearest_point_many

        def recording(self, x):
            calls.append(len(np.atleast_2d(x)))
            return nearest(self, x)

        monkeypatch.setattr(geometry.BoundaryCurve, "nearest_point_many", recording)
        curve = geometry.disk()
        clipped_ball_mass(
            UnitField(curve), curve.point(np.array([0.7]))[0], 0.3, n_r=20, n_theta=96
        )
        assert calls == []

    @pytest.mark.parametrize("x", [1.05, 1.2])
    def test_exterior_center_raises(self, x):
        curve = geometry.disk()
        with pytest.raises(OutOfDomainError):
            clipped_ball_mass(UnitField(curve), (x, 0.0), 0.3, n_r=20, n_theta=96)

    @pytest.mark.parametrize("r", [0.0, -0.3, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, r):
        curve = geometry.disk()
        with pytest.raises(ValueError, match="positive and finite"):
            clipped_ball_mass(UnitField(curve), (0.2, 0.0), r, n_r=20, n_theta=96)



def polar_solid_mass(vfield, center, r):
    """Test-only reference: v^2 of the projected v field (each point through
    nearest_point_many) on a 192 x 512 polar Gauss-Legendre grid about the
    center."""
    theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    return _polar_integral(lambda p: vfield(p)[0] ** 2, center, theta, r, 192)


@pytest.fixture(scope="module")
def rough_pair():
    """perturbed_disk(0.2, 5) pair 7 at N = 256: no polynomial certificate,
    so u inside is read by the Cauchy formula."""
    pair = solve_spectrum(build_dtn(geometry.perturbed_disk(0.2, 5), 256), 8)[7]
    assert pair._poly() is None
    return pair


def half_reach_tube(curve):
    return geometry.TubeNeighborhood(curve, 0.5 * curve.max_tube_halfwidth())


class TestTubeSolidMass:
    # (pair, center parameter, sign of the curvature there): the certified
    # ellipse, and the uncertified rough disk on a convex and a concave arc
    @pytest.mark.parametrize("case,t0,sign", [
        ("ellipse", 0.1, 1), ("rough", 3.69, 1), ("rough", 1.9, -1),
    ])
    def test_matches_polar_reference(self, ellipse_spectrum, rough_pair, case, t0, sign):
        pair = ellipse_spectrum[7] if case == "ellipse" else rough_pair
        curve = pair.curve
        assert np.sign(curve.frame(np.array([t0])).kappa[0]) == sign
        tube = half_reach_tube(curve)
        vfield, _ = v_transform(pair, tube)
        center = curve.point(np.array([t0]))[0]
        r = 0.4 * tube.delta
        got = solid_mass(pair, center, r, tube.delta)
        want = polar_solid_mass(vfield, center, r)
        assert abs(got / want - 1.0) <= 1e-12

    @pytest.mark.parametrize("spec", ["disk", "ellipse(2,1)"])
    def test_constant_integrand_gives_the_ball_area(self, spec):
        # u = 1 and lambda = 0: v^2 = 1, so each mass is pi r^2
        curve = geometry.builtin_curve(spec)
        delta = 0.5 * curve.max_tube_halfwidth()
        radii = np.array([0.05, 0.2, 0.4]) * delta
        for t0 in (0.0, 0.4, 2.0):
            center = curve.point(np.array([t0]))[0]
            got = solid_mass(UnitField(curve), center, radii, delta)
            np.testing.assert_allclose(got, np.pi * radii**2, rtol=1e-14)

    def test_projects_only_the_center(self, ellipse_spectrum, monkeypatch):
        calls = []
        nearest = geometry.BoundaryCurve.nearest_point_many

        def recording(self, x):
            calls.append(len(np.atleast_2d(x)))
            return nearest(self, x)

        monkeypatch.setattr(geometry.BoundaryCurve, "nearest_point_many", recording)
        pair = ellipse_spectrum[7]
        center = pair.curve.point(np.array([0.5]))[0]
        masses = solid_mass(pair, center, np.array([0.02, 0.04, 0.08]), 0.25)
        assert calls == [1] and masses.shape == (3,) and np.all(np.diff(masses) > 0)

    def test_ball_past_the_collar_raises(self, ellipse_spectrum):
        pair = ellipse_spectrum[7]
        center = pair.curve.point(np.array([0.5]))[0]
        with pytest.raises(OutOfTubeError):
            solid_mass(pair, center, 0.3, 0.25)

    @pytest.mark.parametrize("r", [0.0, -0.1, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, ellipse_spectrum, r):
        pair = ellipse_spectrum[7]
        center = pair.curve.point(np.array([0.5]))[0]
        with pytest.raises(ValueError, match="positive and finite"):
            solid_mass(pair, center, np.array([0.05, r]), 0.25)

    @pytest.mark.parametrize("center,r", [
        ((0.0, 0.0), 0.2),  # inside, off the curve: the ball meets no arc
        ((0.0, 1.0), 2.1),  # two arcs of the ellipse
    ])
    def test_ball_must_meet_one_arc(self, ellipse_curve, center, r):
        with pytest.raises(ValueError, match="one arc"):
            solid_mass(UnitField(ellipse_curve), center, r, 0.25)

    def test_capped_refinement_warns(self):
        # u jumps across x = 0.97 inside the unit disk: 64 nodes do not settle it
        class StepField(UnitField):
            def evaluate_inside(self, pts, gradient=True):
                return 1.0 + (pts[:, 0] > 0.97)

        curve = geometry.disk()
        with pytest.warns(RuntimeWarning, match="unconverged at n = 64"):
            got = solid_mass(StepField(curve), (1.0, 0.0), 0.1, 0.5)
        assert np.pi * 0.01 < got < 4 * np.pi * 0.01

    def test_doubling_profile_reads_the_tube(self, ellipse_spectrum, disk_spectrum):
        pair = ellipse_spectrum[7]
        tube = half_reach_tube(pair.curve)
        vfield, _ = v_transform(pair, tube)
        center = pair.curve.point(np.array([0.5]))[0]
        rep = doubling_profile(pair, center, 0.02, 0.08, mode="solid", vfield=vfield)
        np.testing.assert_array_equal(rep.masses, solid_mass(pair, center, rep.radii, tube.delta))
        with pytest.raises(ValueError, match="v_transform"):
            doubling_profile(pair, center, 0.02, 0.08, mode="solid",
                             vfield=lambda p: (np.ones(len(p)), None))
        other, _ = v_transform(disk_spectrum[7], half_reach_tube(disk_spectrum[7].curve))
        with pytest.raises(ValueError, match="another curve"):
            doubling_profile(pair, center, 0.02, 0.08, mode="solid", vfield=other)


class TestDoubling:
    def test_boundary_extremum_exponent(self, disk_spectrum):
        # at a trace extremum u^2 is flat, so arc mass ~ r: exponent -> 1
        pair = disk_spectrum[9]
        imax = int(np.argmax(np.abs(pair.trace)))
        center = pair.curve.point(np.array([pair.dtn.t[imax]]))[0]
        rep = doubling_profile(pair, center, 0.01, 0.04, mode="boundary")
        assert abs(rep.exponents[0] - 1.0) < 0.05

    def test_boundary_nodal_exponent(self, disk_spectrum):
        # at a boundary zero u ~ dist, so arc mass ~ r^3: exponent -> 3
        pair = disk_spectrum[9]
        z = boundary_zeros(pair).zeros[0]
        center = pair.curve.point(np.array([z]))[0]
        rep = doubling_profile(pair, center, 0.005, 0.02, mode="boundary")
        assert abs(rep.exponents[0] - 3.0) < 0.1

    def test_solid_mode(self, ellipse_spectrum):
        pair = ellipse_spectrum[4]
        tube = geometry.TubeNeighborhood(pair.curve, 0.3)
        vfield, _ = v_transform(pair, tube)
        center = pair.curve.point(np.array([1.5]))[0]
        rep = doubling_profile(
            pair, center, 0.02, 0.08, mode="solid", vfield=vfield
        )
        assert rep.mode == "solid"
        assert np.all(np.diff(rep.masses) > 0)
        assert np.all(rep.exponents > 1.0)

    def test_exact_doubles_on_grid(self, disk_spectrum):
        pair = disk_spectrum[9]
        center = pair.curve.point(np.array([0.0]))[0]
        rep = doubling_profile(
            pair, center, 0.01, 0.05, mode="boundary", steps_per_octave=4
        )
        # every recorded exponent compares masses at exactly doubled radii
        for r in rep.doubling_radii:
            assert np.any(np.isclose(rep.radii, 2 * r, rtol=1e-12))

    def test_degenerate_center(self, disk_spectrum):
        pair = disk_spectrum[9]
        with pytest.raises(DegenerateCenterError):
            doubling_profile(pair, (0.0, 0.0), 0.01, 0.04, mode="boundary")

    def test_csv_and_json(self, disk_spectrum):
        pair = disk_spectrum[9]
        center = pair.curve.point(np.array([0.3]))[0]
        rep = doubling_profile(pair, center, 0.01, 0.05, mode="boundary")
        lines = rep.to_csv().split("\r\n")
        assert lines[0] == "r,mass,doubling_exponent"
        assert lines[-2].split(",")[2] == ""  # largest radius has no double
        data = json.loads(rep.to_json())
        assert data["mode"] == "boundary"


class TestSpecialPoint:
    def test_net_spacing(self, ellipse_curve):
        t_net = boundary_net(ellipse_curve, 0.25)
        pts = ellipse_curve.point(t_net)
        seg = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        # chords shorter than arcs, arcs at most the requested spacing
        assert np.all(seg <= 0.25 * (1 + 1e-6))
        assert len(t_net) == int(np.ceil(ellipse_curve.perimeter / 0.25))

    def test_disk_mode_constant(self, disk_spectrum):
        pair = disk_spectrum[9]
        rep = special_point_search(pair, 0.3, n_r=24, n_theta=128)
        assert rep.constant <= 10.0
        assert rep.ball_mass == pytest.approx(np.max(rep.net_masses))
        # the maximizing ball carries mass, bounded by the total
        assert 0 < rep.ball_mass < rep.total_mass

    def test_tied_masses_pick_the_first_net_point(self, disk_spectrum, monkeypatch):
        # masses equal to 1e-15 in shuffled noise, as rotation gives on the
        # disk: the lowest tied index wins, whatever the noise's order. The
        # search asks for the whole net's masses in one call
        pair = disk_spectrum[9]
        n = len(boundary_net(pair.curve, 0.15))
        rng = np.random.default_rng(5)
        tied = np.sort(rng.choice(np.arange(3, n), 5, replace=False))
        for _ in range(4):
            masses = rng.uniform(0.1, 0.5, n)
            masses[tied] = 1.0 + 1e-15 * rng.permutation(5)
            calls = []

            def net_masses(pair, centers, rho, n_r, n_theta, t, masses=masses):
                calls.append(len(centers))
                assert np.array_equal(pair.curve.point(t), centers)
                return masses

            monkeypatch.setattr(nodal, "clipped_ball_mass", net_masses)
            rep = special_point_search(pair, 0.3, total=1.0)
            assert calls == [n]
            assert rep.ball_mass == masses[tied[0]]
            assert np.array_equal(rep.best_point, pair.curve.point(
                boundary_net(pair.curve, 0.15))[tied[0]])

    def test_rho_capped(self, disk_spectrum):
        with pytest.raises(ValueError):
            special_point_search(disk_spectrum[9], 1.5)

    @pytest.mark.parametrize("h", [0.0, -1.0, -0.1, np.nan, np.inf])
    def test_spacing_and_rho_must_be_positive_and_finite(self, disk_spectrum, h):
        with pytest.raises(ValueError, match="positive and finite"):
            boundary_net(disk_spectrum[9].curve, h)
        with pytest.raises(ValueError, match="positive and finite"):
            special_point_search(disk_spectrum[9], h)


class TestBoundaryControlsSolid:
    def test_disk_mode(self, disk_spectrum):
        pair = disk_spectrum[9]  # lambda = 5
        center = pair.curve.point(np.array([0.7]))[0]
        rep = boundary_controls_solid_check(pair, center, 1.0)
        assert rep.boundary_side > 0 and rep.solid_side > 0
        assert rep.constant <= 1.0

    def test_ball_must_stay_in_tube(self, disk_spectrum):
        pair = disk_spectrum[2]  # lambda = 1
        center = pair.curve.point(np.array([0.0]))[0]
        with pytest.raises(ValueError):
            boundary_controls_solid_check(pair, center, 2.0)
