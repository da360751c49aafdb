import json

import numpy as np
import pytest

from steklab import geometry
from steklab.errors import (
    DegenerateCurveError,
    OutOfTubeError,
)


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
        d2 = c.acceleration(t)[:, 0]
        assert np.allclose(d2, -np.cos(t), atol=1e-14)

    def test_perturbed_disk_closed_form(self):
        # gamma = r(t) (cos t, sin t) with r = 1 + eps cos(m t)
        eps, m = 0.1, 3
        c = geometry.perturbed_disk(eps, m)
        t = np.linspace(0, 2 * np.pi, 1001)
        r = 1 + eps * np.cos(m * t)
        dr = -eps * m * np.sin(m * t)
        ddr = -eps * m**2 * np.cos(m * t)
        e = np.stack([np.cos(t), np.sin(t)], axis=-1)
        e_perp = np.stack([-np.sin(t), np.cos(t)], axis=-1)
        want = {
            "point": r[:, None] * e,
            "velocity": dr[:, None] * e + r[:, None] * e_perp,
            "acceleration": (ddr - r)[:, None] * e + 2 * dr[:, None] * e_perp,
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
        kap = c.curvature(t)
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
        assert np.max(np.abs(c.curvature_derivative(t) - want)) < 1e-10

    def test_disk_curvature_derivative_vanishes(self):
        t = np.linspace(0, 2 * np.pi, 97)
        assert np.max(np.abs(geometry.disk().curvature_derivative(t))) < 1e-14

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
        tp = tube.locate(x)
        assert tp.s < 0
        assert np.allclose(tube.reconstruct(tp), x, atol=1e-10)

    def test_signed_distance_sign_convention(self):
        c = geometry.disk()
        tube = geometry.TubeNeighborhood(c, 0.5)
        inside = tube.locate(np.array([0.7, 0.0]))
        outside = tube.locate(np.array([1.3, 0.0]))
        assert inside.s == pytest.approx(-0.3, abs=1e-12)
        assert outside.s == pytest.approx(0.3, abs=1e-12)

    def test_out_of_tube_raises(self):
        tube = geometry.TubeNeighborhood(geometry.disk(), 0.3)
        with pytest.raises(OutOfTubeError):
            tube.locate(np.array([0.1, 0.0]))

    def test_tube_wider_than_reach_rejected(self):
        with pytest.raises(DegenerateCurveError):
            geometry.TubeNeighborhood(geometry.disk(), 1.1)

    def test_laplacian_of_distance(self):
        tube = geometry.TubeNeighborhood(geometry.disk(), 0.6)
        # Delta d = -kappa/(1 - kappa d); disk: -1/(1 - d)
        val = geometry.laplacian_of_distance(tube, np.array([0.5, 0.0]))
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

    def test_jacobian_product_disk(self):
        # DERIVED oracle: at (0.8, 0) on the unit disk the tangential
        # stretch is (1 + 0.2)/(1 - 0.2) = 1.5 along y, and the normal
        # direction (x-axis) flips, so J J^T = diag(1, 2.25)
        tube = geometry.TubeNeighborhood(geometry.disk(), 0.5)
        x = np.array([0.8, 0.0])
        J = reflection_jacobian(tube, x)
        assert np.allclose(J @ J.T, np.diag([1.0, 2.25]), atol=1e-7)
        Jc = geometry.reflection_jacobian_closed(tube, x)
        assert np.allclose(Jc @ Jc.T, np.diag([1.0, 2.25]), atol=1e-12)

    def test_jacobian_closed_matches_fd(self):
        c = geometry.ellipse(2.0, 1.0)
        tube = geometry.TubeNeighborhood(c, 0.4)
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = rng.uniform(0, 2 * np.pi)
            s = rng.uniform(-0.3, 0.3)
            x = c.point(np.array([t]))[0] + s * c.normal(np.array([t]))[0]
            J_fd = reflection_jacobian(tube, x)
            J_cl = geometry.reflection_jacobian_closed(tube, x)
            assert np.allclose(J_fd, J_cl, atol=1e-6)

    def test_identity_on_boundary(self):
        c = geometry.perturbed_disk(0.1, 3)
        tube = geometry.TubeNeighborhood(c, 0.25)
        x = c.point(np.array([1.234]))[0]
        J = geometry.reflection_jacobian_closed(tube, x)
        assert np.allclose(J @ J.T, np.eye(2), atol=1e-12)

    def test_jacobian_closed_shape_follows_input(self):
        tube = geometry.TubeNeighborhood(geometry.disk(), 0.5)
        x = np.array([[0.8, 0.0], [0.0, 1.2]])
        batch = geometry.reflection_jacobian_closed(tube, x)
        assert batch.shape == (2, 2, 2)
        one = geometry.reflection_jacobian_closed(tube, x[:1])
        assert one.shape == (1, 2, 2)
        assert np.array_equal(one[0], batch[0])
        single = geometry.reflection_jacobian_closed(tube, x[1])
        assert single.shape == (2, 2)
        assert np.array_equal(single, batch[1])


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
        pts, tg, nu, kap = geometry.curve_eval(c, np.array([0.0]))
        assert np.allclose(pts[0], [2.0, 0.0], atol=1e-14)
        assert np.allclose(tg[0], [0.0, 1.0], atol=1e-14)
        assert np.allclose(nu[0], [1.0, 0.0], atol=1e-14)
        assert kap[0] == pytest.approx(2.0, rel=1e-12)

    def test_json_contains_name(self):
        data = json.loads(geometry.ellipse(2.0, 1.0).to_json())
        assert "fourier_x" in data and "fourier_y" in data
