import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from steklab import geometry
from steklab.errors import (
    DegenerateCurveError,
    OutOfTubeError,
)
from steklab.frequency import v_transform


class TestFourierEval:
    def test_constant_and_first_mode(self):
        # x(t) = 1 + 2 cos t + 3 sin t, on a circle about (1, 0)
        c = geometry.BoundaryCurve([1.0, 2.0, 3.0], [0.0, -3.0, 2.0])
        t = np.array([0.0, np.pi / 2, np.pi])
        vals = c.point(t)[:, 0]
        assert np.allclose(vals, [3.0, 4.0, -1.0])

    def test_derivative(self):
        c = geometry.disk()  # x(t) = cos t
        t = np.linspace(0, 2 * np.pi, 7)
        d1 = c.velocity(t)[:, 0]
        assert np.allclose(d1, -np.sin(t), atol=1e-14)

    def test_perturbed_disk_closed_form(self):
        # gamma = r(t) (cos t, sin t) with r = 1 + eps cos(m t)
        eps, m = 0.1, 3
        c = geometry.perturbed_disk(eps, m)
        t = np.linspace(0, 2 * np.pi, 1001)
        r = 1 + eps * np.cos(m * t)
        dr = -eps * m * np.sin(m * t)
        e = np.stack([np.cos(t), np.sin(t)], axis=-1)
        e_perp = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        want = {
            "point": r[:, None] * e,
            "velocity": dr[:, None] * e + r[:, None] * e_perp,
        }
        for name, w in want.items():
            assert np.max(np.abs(getattr(c, name)(t) - w)) <= 1e-14, name

    def test_probe_table_is_read_only(self):
        c = geometry.ellipse(2.0, 1.0)
        assert np.array_equal(c.probe_points, c.point(c.probe_t))
        assert c.probe_t[1] == 2 * np.pi / len(c.probe_t)
        with pytest.raises(ValueError):
            c.probe_points[0, 0] = 0.0
        with pytest.raises(ValueError):
            c.probe_t[0] = 1.0


@pytest.mark.parametrize("shape", [(1000, 2), (7, 40, 2), (2,)])
def test_norm2_is_numpy_norm_bit_for_bit(shape):
    # magnitudes from 1e-150 to 1e150 in each component, signs mixed, and
    # components that are inf, -inf or NaN
    rng = np.random.default_rng(3)
    v = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-150, 150, size=shape)
    flat = v.reshape(-1, 2)
    flat[:6] = [[np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0], [np.inf, np.nan],
                [0.0, -0.0], [-1e150, 1e150]][:len(flat)]
    got = geometry.norm2(v)
    assert got.shape == shape[:-1]
    assert np.array_equal(got, np.linalg.norm(v, axis=-1), equal_nan=True)


class TestBoundaryCurve:
    def test_disk_metrics(self):
        c = geometry.disk(2.0)
        assert c.perimeter == pytest.approx(4 * np.pi, rel=1e-12)
        assert c.area == pytest.approx(4 * np.pi, rel=1e-12)
        assert c.diameter == pytest.approx(4.0, rel=1e-10)
        assert np.allclose(c.centroid, 0.0, atol=1e-14)

    def test_ellipse_curvature_extremes(self):
        c = geometry.ellipse(2.0, 1.0)
        t = np.array([0.0, np.pi / 2])
        kap = c.frame(t).kappa
        # kappa = a b / (a^2 sin^2 + b^2 cos^2)^{3/2}
        assert kap[0] == pytest.approx(2.0, rel=1e-12)
        assert kap[1] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.5, 1.0), (1.0, 3.0)])
    def test_ellipse_curvature_derivative(self, a, b):
        # kappa(t) = a b D^{-3/2} with D = a^2 sin^2 t + b^2 cos^2 t and speed
        # sqrt(D), so d kappa / d sigma = -3 a b (a^2 - b^2) sin t cos t / D^3
        c = geometry.ellipse(a, b)
        t = np.linspace(0, 2 * np.pi, 97)
        D = a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2
        want = -3 * a * b * (a**2 - b**2) * np.sin(t) * np.cos(t) / D**3
        assert np.max(np.abs(c.frame(t).kappa_sigma - want)) < 1e-10

    def test_disk_curvature_derivative_vanishes(self):
        t = np.linspace(0, 2 * np.pi, 97)
        assert np.max(np.abs(geometry.disk().frame(t).kappa_sigma)) < 1e-14

    def test_outward_normal(self):
        c = geometry.ellipse(2.0, 1.0)
        t = np.linspace(0, 2 * np.pi, 17)
        nu = c.normal(t)
        outward = np.einsum("ij,ij->i", nu, c.point(t) - c.centroid)
        assert np.all(outward > 0)

    def test_self_intersecting_rejected(self):
        # figure-eight style curve
        with pytest.raises(DegenerateCurveError):
            geometry.BoundaryCurve([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_clockwise_rejected(self):
        with pytest.raises(DegenerateCurveError):
            geometry.BoundaryCurve([0.0, 1.0, 0.0], [0.0, 0.0, -1.0])

    def test_json_roundtrip_and_hash(self):
        c = geometry.perturbed_disk(0.1, 3)
        c2 = geometry.BoundaryCurve.from_json(c.to_json())
        assert c.content_hash() == c2.content_hash()
        t = np.linspace(0, 2 * np.pi, 11)
        assert np.allclose(c.point(t), c2.point(t))
        assert c.content_hash() != geometry.disk().content_hash()


def crosses_all_offsets(pts):
    """Oracle: does any pair of segments of the closed polygon pts, at circular
    index distance 2 or more, cross? Scans every offset, O(n^2)."""
    n = len(pts)
    q = np.roll(pts, -1, axis=0)
    i = np.arange(n)
    for off in range(2, n // 2 + 1):
        j = (i + off) % n
        if np.any(geometry._segments_intersect(pts[i], q[i], pts[j], q[j])):
            return True
    return False


def random_fourier_curve(rng):
    """Unit circle plus 2 to 8 random modes of decaying size; about half of
    these curves cross themselves."""
    K = int(rng.integers(2, 9))
    amp = np.repeat(rng.uniform(0.1, 0.6) / np.arange(1, K + 1), 2)
    fx = np.concatenate([[0.0], amp * rng.normal(size=2 * K)])
    fy = np.concatenate([[0.0], amp * rng.normal(size=2 * K)])
    fx[1] += 1.0
    fy[2] += 1.0
    return fx, fy


class TestSimplicityCheck:
    @pytest.fixture
    def verdicts(self, monkeypatch):
        """build(fx, fy, grid_size) -> (the constructor rejects the curve as
        self-intersecting, the oracle finds a crossing on the same grid)."""
        seen = {}
        check = geometry.BoundaryCurve._check_simple

        def spy(curve):
            seen["oracle"] = crosses_all_offsets(curve._pgrid)
            check(curve)

        monkeypatch.setattr(geometry.BoundaryCurve, "_check_simple", spy)

        def build(fx, fy, grid_size=1024):
            try:
                geometry.BoundaryCurve(fx, fy, grid_size=grid_size)
                rejected = False
            except DegenerateCurveError as exc:  # orientation errors come later
                rejected = "self-intersects" in str(exc)
            return rejected, seen.pop("oracle")

        return build

    @pytest.mark.parametrize("fx, fy, crosses", [
        # r = 1/2 + cos t: the inner loop passes the origin twice
        ([0.5, 0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.0, 0.5], True),
        ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0], True),
        ([0.0, 10.0, 0.0], [0.0, 0.0, 0.05], False),
    ], ids=["limacon", "figure-eight", "thin-ellipse"])
    def test_named_curves_match_oracle(self, verdicts, fx, fy, crosses):
        assert verdicts(fx, fy) == (crosses, crosses)

    def test_random_curves_match_oracle(self, verdicts):
        rng = np.random.default_rng(7)
        got = [verdicts(*random_fourier_curve(rng), grid_size=256) for _ in range(120)]
        assert [ctor for ctor, _ in got] == [oracle for _, oracle in got]
        assert 20 <= sum(ctor for ctor, _ in got) <= 100  # both kinds occur

    def test_construction_traffic(self, monkeypatch):
        sizes = []
        series = geometry.BoundaryCurve._series

        def counted(curve, t, *orders):
            sizes.append(np.size(t))
            return series(curve, t, *orders)

        monkeypatch.setattr(geometry.BoundaryCurve, "_series", counted)
        c = geometry.ellipse(2.0, 1.0)
        assert sizes == [1024, len(c.probe_t)]  # the grid frame, the probe table
        sizes.clear()
        c.max_tube_halfwidth()
        assert sizes == []


def einsum_reach(curve):
    """The reach scan as written before its column form: the same pairwise
    bound over (256, n, 2) difference blocks, contracted by einsum."""
    pts, nu = curve._pgrid, curve._nugrid
    best = 1.0 / curve.max_abs_curvature
    for start in range(0, len(pts), 256):
        blk = slice(start, start + 256)
        d = pts[None, :, :] - pts[blk][:, None, :]
        dist2 = np.einsum("ijk,ijk->ij", d, d)
        dots = np.abs(np.einsum("ijk,ik->ij", d, nu[blk]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = dist2 / (2.0 * dots)
        ratio[dots < 1e-14] = np.inf
        ratio[dist2 < 1e-28] = np.inf
        best = min(best, float(np.min(ratio)))
    cap = 1.0 / curve.max_abs_curvature
    return cap if best > cap * (1.0 - 1e-9) else best


def simple_random_curves(seed, count):
    rng = np.random.default_rng(seed)
    curves = []
    while len(curves) < count:
        try:
            curves.append(geometry.BoundaryCurve(*random_fourier_curve(rng)))
        except DegenerateCurveError:
            pass
    return curves


class TestReachScan:
    def test_matches_the_einsum_form(self):
        curves = [geometry.disk(), geometry.ellipse(2.0, 1.0),
                  geometry.ellipse(10.0, 0.05)] + simple_random_curves(11, 5)
        for c in curves:
            assert c.max_tube_halfwidth() == einsum_reach(c)


class TestFootPoints:
    def test_disk_offsets(self):
        r = np.linspace(0.05, 1.45, 29)
        theta = np.linspace(0, 2 * np.pi, 61, endpoint=False) + 0.1  # off the grid
        R, TH = np.meshgrid(r, theta)
        x = np.stack([R * np.cos(TH), R * np.sin(TH)], axis=-1).reshape(-1, 2)
        _, s, _ = geometry.disk().nearest_point_many(x)
        assert np.max(np.abs(s - (np.linalg.norm(x, axis=1) - 1.0))) <= 1e-14

    def test_ellipse_feet_within_reach(self):
        c = geometry.ellipse(2.0, 1.0)
        rng = np.random.default_rng(3)
        t0 = rng.uniform(0, 2 * np.pi, 2000)
        s0 = rng.uniform(-0.98, 0.98, 2000) * c.max_tube_halfwidth()
        f0 = c.frame(t0)
        x = f0.point + s0[:, None] * f0.nu
        t, s, _ = c.nearest_point_many(x)
        f = c.frame(t)
        assert np.max(np.abs(np.einsum("ij,ij->i", x - f.point, f.T))) <= 1e-12
        dense = c.point(np.linspace(0, 2 * np.pi, 65536, endpoint=False))
        nearest, _ = cKDTree(dense).query(x)
        assert np.all(np.abs(s) <= nearest + 1e-9)
        assert np.max(np.abs(s - s0)) <= 1e-12

    def test_newton_stops_points_at_rounding_level(self, monkeypatch):
        # near the disk centre round-off keeps the Newton step near
        # 1e-16/|x|, above the step tolerance; the residual closes it
        c = geometry.disk()
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False) + 0.1
        ring = np.stack([np.cos(th), np.sin(th)], axis=1)
        x = np.concatenate([r * ring for r in (0.05, 0.5, 0.9)])
        calls = []
        series = c._series

        def counted(*args):
            calls.append(1)
            return series(*args)

        monkeypatch.setattr(c, "_series", counted)
        t, s, _ = c.nearest_point_many(x)
        assert len(calls) <= 5
        assert np.max(np.abs(s - (np.linalg.norm(x, axis=1) - 1.0))) <= 1e-14
        assert np.max(np.abs(np.angle(np.exp(1j * (t - np.tile(th, 3)))))) <= 1e-14


SIDE_CURVES = [
    "disk", "ellipse(2,1)", "ellipse(10,0.05)", "perturbed_disk(0.1,3)",
    "perturbed_disk(0.2,5)",
]


class TestSurelyInside:
    @pytest.mark.parametrize("spec", SIDE_CURVES)
    def test_agrees_with_the_foot_point_side(self, spec):
        # uniform points of the padded bounding box, and points at normal
        # offsets +-10^U(-16, -1) from the curve
        c = geometry.builtin_curve(spec)
        rng = np.random.default_rng(11)
        lo, hi = np.min(c.probe_points, axis=0), np.max(c.probe_points, axis=0)
        pad = 0.1 * (hi - lo)
        box = rng.uniform(lo - pad, hi + pad, (100_000, 2))
        f = c.frame(rng.uniform(0.0, 2 * np.pi, 50_000))
        off = rng.choice([-1.0, 1.0], 50_000) * 10 ** rng.uniform(-16, -1, 50_000)
        x = np.concatenate([box, f.point + off[:, None] * f.nu])
        inside = c.surely_inside(x)
        _, s, _ = c.nearest_point_many(x)
        assert not np.any(inside & (s > 0))
        assert np.all(inside[s < -1e-3])

    def test_memory_is_bounded_on_a_thin_ellipse(self):
        # one global margin max|kappa| max(chord)^2 would be 15 on
        # ellipse(10, 0.05), wider than the curve: every edge in every slab,
        # a (4096, 1024) table per temporary
        import tracemalloc

        c = geometry.ellipse(10.0, 0.05)
        x = np.random.default_rng(2).uniform((-10.0, -0.05), (10.0, 0.05), (4096, 2))
        tracemalloc.start()
        try:
            c.surely_inside(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_nan_and_out_of_range_points_answer_false(self, ellipse_curve):
        x = np.array([
            [0.0, 0.0],
            [np.nan, 0.0],
            [0.0, np.nan],
            [0.0, 1.0 + 1e-9],  # above the curve's y-range
            [0.0, -1.5],
            [np.inf, 0.0],
            [1e300, 0.5],
        ])
        assert ellipse_curve.surely_inside(x).tolist() == [True] + [False] * 6


class TestTube:
    def test_disk_reach_is_radius(self):
        assert geometry.disk().max_tube_halfwidth() == pytest.approx(
            1.0, abs=1e-12
        )
        assert geometry.disk(2.5).max_tube_halfwidth() == pytest.approx(
            2.5, abs=1e-11
        )

    def test_ellipse_reach_is_curvature_bound(self):
        c = geometry.ellipse(2.0, 1.0)
        assert c.max_tube_halfwidth() == pytest.approx(0.5, rel=1e-9)

    def test_perturbed_disk_reach_below_curvature_cap(self):
        c = geometry.perturbed_disk(0.1, 3)
        assert 0 < c.max_tube_halfwidth() <= 1.0 / c.max_abs_curvature + 1e-12

    def test_locate_and_reconstruct(self):
        c = geometry.ellipse(2.0, 1.0)
        tube = geometry.TubeNeighborhood(c, 0.4)
        x = np.array([1.7, 0.0])
        t, s = tube.locate_many(x)
        assert s[0] < 0
        f = c.frame(t)
        assert np.allclose(f.point[0] + s[0] * f.nu[0], x, atol=1e-10)

    def test_signed_distance_sign_convention(self):
        c = geometry.disk()
        tube = geometry.TubeNeighborhood(c, 0.5)
        _, (inside, outside) = tube.locate_many(np.array([[0.7, 0.0], [1.3, 0.0]]))
        assert inside == pytest.approx(-0.3, abs=1e-12)
        assert outside == pytest.approx(0.3, abs=1e-12)

    def test_out_of_tube_raises(self):
        tube = geometry.TubeNeighborhood(geometry.disk(), 0.3)
        with pytest.raises(OutOfTubeError):
            tube.locate_many(np.array([0.1, 0.0]))

    def test_tube_wider_than_reach_rejected(self):
        with pytest.raises(DegenerateCurveError):
            geometry.TubeNeighborhood(geometry.disk(), 1.1)

    def test_laplacian_of_distance(self, disk_spectrum):
        # Delta d = -kappa/(1 - kappa d); disk: -1/(1 - d). The v-transform
        # carries it in its potential c = lambda^2 - lambda Delta d
        pair = disk_spectrum[1]
        tube = geometry.TubeNeighborhood(pair.curve, 0.6)
        _, coeffs = v_transform(pair, tube)
        lam = pair.eigenvalue
        val = (lam**2 - coeffs(np.array([0.5, 0.0]))[2][0]) / lam
        assert val == pytest.approx(-2.0, rel=1e-10)


def reflection_jacobian(tube, x, step=None):
    """Oracle: Jacobian of the reflection map by central differences."""
    x = np.asarray(x, dtype=float)
    h = step if step is not None else 1e-5 * tube.delta
    pts = np.array([x + [h, 0], x - [h, 0], x + [0, h], x - [0, h]])
    imgs = geometry.reflect_many(tube, pts)
    jac = np.empty((2, 2))
    jac[:, 0] = (imgs[0] - imgs[1]) / (2 * h)
    jac[:, 1] = (imgs[2] - imgs[3]) / (2 * h)
    return jac


class TestReflection:
    def test_involution(self):
        c = geometry.perturbed_disk(0.08, 4)
        tube = geometry.TubeNeighborhood(c, 0.3)
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 2 * np.pi, 40)
        s = rng.uniform(-0.25, 0.25, 40)
        x = c.point(t) + s[:, None] * c.normal(t)
        assert np.allclose(
            geometry.reflect_many(tube, geometry.reflect_many(tube, x)),
            x,
            atol=1e-9,
        )

    def test_fixes_boundary(self):
        c = geometry.ellipse(2.0, 1.0)
        tube = geometry.TubeNeighborhood(c, 0.4)
        x = c.point(np.linspace(0, 2 * np.pi, 9))
        assert np.allclose(geometry.reflect_many(tube, x), x, atol=1e-10)

    def test_jacobian_product_disk(self, disk_spectrum):
        # DERIVED oracle: at (0.8, 0) on the unit disk the tangential
        # stretch is (1 + 0.2)/(1 - 0.2) = 1.5 along y, and the normal
        # direction (x-axis) flips, so J J^T = diag(1, 2.25). The v-transform
        # metric at the mirror point (1.2, 0) is this J J^T in closed form
        tube = geometry.TubeNeighborhood(disk_spectrum[1].curve, 0.5)
        x = np.array([0.8, 0.0])
        J = reflection_jacobian(tube, x)
        assert np.allclose(J @ J.T, np.diag([1.0, 2.25]), atol=1e-7)
        _, coeffs = v_transform(disk_spectrum[1], tube)
        A = coeffs(np.array([1.2, 0.0]))[0][0]
        assert np.allclose(A, np.diag([1.0, 2.25]), atol=1e-12)

    def test_jacobian_closed_matches_fd(self, ellipse_spectrum):
        # at an exterior point x the v-transform metric is A(x) = J J^T,
        # with J the reflection's Jacobian at the mirror point of x
        pair = ellipse_spectrum[8]
        c = pair.curve
        tube = geometry.TubeNeighborhood(c, 0.4)
        _, coeffs = v_transform(pair, tube)
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = rng.uniform(0, 2 * np.pi)
            s = rng.uniform(0.01, 0.3)
            x = c.point(np.array([t]))[0] + s * c.normal(np.array([t]))[0]
            J_fd = reflection_jacobian(tube, geometry.reflect_many(tube, x)[0])
            assert np.allclose(J_fd @ J_fd.T, coeffs(x)[0][0], atol=1e-6)

    def test_identity_on_boundary(self):
        c = geometry.perturbed_disk(0.1, 3)
        tube = geometry.TubeNeighborhood(c, 0.25)
        x = c.point(np.array([1.234]))[0]
        J = reflection_jacobian(tube, x)
        assert np.allclose(J @ J.T, np.eye(2), atol=1e-7)


class TestBuiltins:
    def test_builtin_specs(self):
        assert geometry.builtin_curve("disk").content_hash() == (
            geometry.disk().content_hash()
        )
        e1 = geometry.builtin_curve("ellipse(2,1)")
        e2 = geometry.builtin_curve("ellipse:2,1")
        assert e1.content_hash() == e2.content_hash()
        with pytest.raises(ValueError):
            geometry.builtin_curve("dodecahedron")

    def test_curve_from_spec(self, tmp_path):
        c = geometry.perturbed_disk(0.1, 3)
        path = tmp_path / "curve.json"
        path.write_text(c.to_json())
        assert geometry.curve_from_spec(str(path)).content_hash() == (
            c.content_hash()
        )
        assert geometry.curve_from_spec("ellipse:2,1").content_hash() == (
            geometry.ellipse(2.0, 1.0).content_hash()
        )

    def test_perturbed_disk_radius(self):
        c = geometry.perturbed_disk(0.1, 3)
        t = np.linspace(0, 2 * np.pi, 33)
        r = np.linalg.norm(c.point(t), axis=1)
        assert np.allclose(r, 1.0 + 0.1 * np.cos(3 * t), atol=1e-12)

    def test_curve_eval(self):
        c = geometry.ellipse(2.0, 1.0)
        f = c.frame(np.array([0.0]))
        assert np.allclose(f.point[0], [2.0, 0.0], atol=1e-14)
        assert np.allclose(f.T[0], [0.0, 1.0], atol=1e-14)
        assert np.allclose(f.nu[0], [1.0, 0.0], atol=1e-14)
        assert f.kappa[0] == pytest.approx(2.0, rel=1e-12)

    def test_json_contains_name(self):
        data = json.loads(geometry.ellipse(2.0, 1.0).to_json())
        assert "fourier_x" in data and "fourier_y" in data
