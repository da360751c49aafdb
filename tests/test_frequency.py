import warnings

import numpy as np
import pytest

from steklab import geometry
from steklab.errors import (
    AssumptionError,
    InvalidCenterError,
    OutOfDomainError,
    OutOfTubeError,
)
from steklab.frequency import (
    CoefficientField,
    ScalarField,
    chain_frequency_check,
    check_doubling_from_frequency,
    check_hprime_identity,
    check_monotonicity,
    d_of_r,
    frequency_from_doubling,
    frequency_profile,
    geometric_radii,
    h_of_r,
    harmonic_polynomial,
    i_of_r,
    pde_residual,
    v_transform,
    zero_coefficients,
)
from steklab.frequency import _ball_mean, _disk_integral, _gauss, _refine
from steklab.steklov import SteklovEigenpair, build_dtn, solve_spectrum


@pytest.fixture(scope="module")
def deg3():
    # w = Re z^3, homogeneous harmonic of degree 3
    return harmonic_polynomial([(3, 1.0, 0.0)])


class TestScalarField:
    def test_harmonic_polynomial_values(self):
        f = harmonic_polynomial([(2, 1.0, 0.5)])
        v, g = f(np.array([[1.0, 1.0]]))
        # Re z^2 = x^2 - y^2 = 0, Im z^2 = 2xy = 2
        assert v[0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(g[0], [2.0 * 1 + 0.5 * 2, -2.0 * 1 + 0.5 * 2])


class TestHarmonicFrequency:
    def test_homogeneous_degree(self, deg3):
        # N(r) = 3 exactly for a degree-3 homogeneous harmonic
        prof = frequency_profile(deg3, (0.0, 0.0), geometric_radii(0.1, 0.8))
        assert np.max(np.abs(prof.N - 3.0)) < 1e-9

    def test_shifted_center_monotone(self):
        f = harmonic_polynomial([(1, 1.0, 0.0), (4, 0.3, -0.2)])
        prof = frequency_profile(f, (0.05, -0.02), geometric_radii(0.05, 1.2))
        rep = check_monotonicity(prof)
        assert rep.passed
        # frequency climbs from the low-degree toward the high-degree regime
        assert prof.N[0] < 1.1 and prof.N[-1] > prof.N[0] + 0.5

    def test_hprime_identity(self, deg3):
        assert check_hprime_identity(deg3, (0.0, 0.0), 0.5) < 1e-8

    def test_doubling_equality(self, deg3):
        rep = check_doubling_from_frequency(deg3, (0.0, 0.0), 0.4)
        # homogeneous case: the bound 2^(2N) is attained exactly
        assert rep.frequency == pytest.approx(3.0, abs=1e-9)
        assert abs(rep.circle_ratio - rep.bound) < 1e-7 * rep.bound
        assert abs(rep.ball_ratio - rep.bound) < 1e-7 * rep.bound


class TestEigenFrequency:
    def test_disk_mode_interior_frequency(self, disk_spectrum):
        # u = r^k trig(k theta): about the origin N(r) = k at every radius
        pair = disk_spectrum[9]  # lambda = 5
        f = ScalarField(pair.evaluate_many)
        prof = frequency_profile(f, (0.0, 0.0), geometric_radii(0.1, 0.8))
        assert np.max(np.abs(prof.N - 5.0)) < 1e-8

    def test_offcenter_monotone(self, ellipse_spectrum):
        f = ScalarField(ellipse_spectrum[6].evaluate_many)
        prof = frequency_profile(f, (0.3, 0.1), geometric_radii(0.05, 0.6))
        assert check_monotonicity(prof).passed


class TestCoefficientField:
    def test_zero_coefficients(self):
        c = zero_coefficients()
        x = np.array([[0.2, 0.3], [0.3, 0.4]])
        A, b, cc = c(x)
        assert np.allclose(A, np.eye(2))
        assert np.allclose(b, 0.0)
        assert np.all(cc == 0.0)
        alpha, gamma, K = c.check_assumptions(x, ([0], [1]))
        assert alpha == pytest.approx(1.0)
        assert gamma == pytest.approx(0.0)

    def test_measured_assumptions(self):
        skew = CoefficientField(
            lambda x: (
                np.tile(np.diag([5.0, 0.1]), (len(x), 1, 1)),
                np.zeros((len(x), 2)),
                np.zeros(len(x)),
            )
        )
        alpha, _, K = skew.check_assumptions(np.zeros((1, 2)))
        assert alpha == pytest.approx(0.1)
        assert K >= 5.0

    def test_index_sides_reuse_probe_values(self):
        calls = []

        def func(x):
            calls.append(len(x))
            A = np.einsum("p,ij->pij", 1.0 + x[:, 0] ** 2, np.eye(2))
            return A, np.zeros((len(x), 2)), np.zeros(len(x))

        field = CoefficientField(func)
        x = np.random.default_rng(0).uniform(-1.0, 1.0, (20, 2))
        perm = np.random.default_rng(1).permutation(20)
        _, gamma, _ = field.check_assumptions(x, (np.arange(20), perm))
        assert calls == [20]
        # |A(x) - A(y)| / |x - y| over the pairs (x_i, x_perm(i)), x_i != x_perm(i)
        dA = np.abs(x[:, 0] ** 2 - x[perm, 0] ** 2)
        dist = np.linalg.norm(x - x[perm], axis=1)
        moved = perm != np.arange(20)
        assert gamma == pytest.approx(np.max(dA[moved] / dist[moved]), rel=1e-12)

    def test_generalized_reduces_to_harmonic(self, deg3):
        radii = geometric_radii(0.1, 0.5)
        prof_h = frequency_profile(deg3, (0.0, 0.0), radii)
        prof_g = frequency_profile(deg3, (0.0, 0.0), radii, coeffs=zero_coefficients())
        assert prof_g.mode == "generalized"
        assert np.max(np.abs(prof_h.N - prof_g.N)) < 1e-9

    def test_center_must_normalize_metric(self, deg3):
        skew = CoefficientField(
            lambda x: (
                np.tile(np.diag([2.0, 1.0]), (len(x), 1, 1)),
                np.zeros((len(x), 2)),
                np.zeros(len(x)),
            )
        )
        with pytest.raises(InvalidCenterError):
            frequency_profile(
                deg3, (0.0, 0.0), geometric_radii(0.1, 0.3), coeffs=skew
            )


@pytest.fixture(scope="module")
def transformed(ellipse_spectrum):
    pair = ellipse_spectrum[8]
    tube = geometry.TubeNeighborhood(pair.curve, 0.3)
    field, coeffs = v_transform(pair, tube)
    return pair, tube, field, coeffs


class TestVTransform:
    def test_neumann_removed(self, transformed):
        # v = u e^{lambda d} has vanishing normal derivative on the boundary
        pair, tube, field, _ = transformed
        curve = pair.curve
        t = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        _, g = field(curve.point(t))
        nd = np.einsum("ij,ij->i", g, curve.normal(t))
        scale = pair.eigenvalue * np.max(np.abs(pair.trace))
        assert np.max(np.abs(nd)) < 5e-6 * scale

    def test_matches_u_on_boundary(self, transformed):
        pair, tube, field, _ = transformed
        t = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        v, _ = field(pair.curve.point(t))
        assert np.allclose(v, pair.trace_at(t), atol=1e-9)

    def test_pde_residual_interior(self, transformed):
        pair, tube, field, coeffs = transformed
        t = np.array([0.3, 2.0, 4.5])
        x = pair.curve.point(t) - 0.15 * pair.curve.normal(t)
        h = 3e-3 / max(pair.eigenvalue, 1.0)
        scale = pair.eigenvalue**2 * np.max(np.abs(pair.trace))
        res = pde_residual(field, coeffs, x, h)
        assert np.max(np.abs(res)) < 1e-4 * scale

    def test_pde_residual_exterior(self, transformed):
        pair, tube, field, coeffs = transformed
        t = np.array([1.1, 3.7])
        x = pair.curve.point(t) + 0.1 * pair.curve.normal(t)
        h = 3e-3 / max(pair.eigenvalue, 1.0)
        scale = pair.eigenvalue**2 * np.max(np.abs(pair.trace))
        res = pde_residual(field, coeffs, x, h)
        assert np.max(np.abs(res)) < 1e-4 * scale

    def test_coefficients_continuous_across_boundary(self, transformed):
        pair, tube, _, coeffs = transformed
        t = np.array([0.7])
        nu = pair.curve.normal(t)
        x0 = pair.curve.point(t)
        eps = 1e-6
        Ai, _, ci = coeffs(x0 - eps * nu)
        Ao, _, co = coeffs(x0 + eps * nu)
        assert np.max(np.abs(Ai - Ao)) < 1e-4
        ci, co = ci[0], co[0]
        assert abs(ci - co) < 1e-3 * max(abs(ci), 1.0)

    def test_assumption_bounds_recorded(self, transformed):
        _, _, _, coeffs = transformed
        assert 0 < coeffs.alpha <= 1.0 + 1e-9
        assert coeffs.gamma >= 0 and np.isfinite(coeffs.K)


class TestFieldDomains:
    """Each field raises its own error beyond its domain."""

    @pytest.mark.parametrize("quad", [h_of_r, d_of_r])
    def test_eigenpair_field_beyond_band(self, disk_spectrum, quad):
        # an eigenpair's field is the closed domain and its round-off band:
        # the circle of radius 1.5 about the origin leaves the unit disk, and
        # a point 1e-9 outside it is rejected too
        f = ScalarField(disk_spectrum[9].evaluate_many)
        with pytest.raises(OutOfDomainError):
            quad(f, (0.0, 0.0), 1.5)
        with pytest.raises(OutOfDomainError):
            f(np.array([np.cos(0.7), np.sin(0.7)]) * (1.0 + 1e-9))

    @pytest.mark.parametrize("quad", [h_of_r, d_of_r])
    def test_v_field_beyond_collar(self, transformed, quad):
        # the circle of radius 2.5 about the origin reaches offset 0.5 > 0.3
        # at (2.5, 0) and 1.5 at (0, 2.5)
        _, _, field, _ = transformed
        with pytest.raises(OutOfTubeError):
            quad(field, (0.0, 0.0), 2.5)

    def test_coefficients_beyond_collar(self, transformed):
        pair, tube, _, coeffs = transformed
        t = np.array([0.7])
        x = pair.curve.point(t) + tube.delta * pair.curve.normal(t)
        assert np.all(np.isfinite(coeffs(x)[2]))
        with pytest.raises(OutOfTubeError):
            coeffs(pair.curve.point(t) + 1.5 * tube.delta * pair.curve.normal(t))


def fd_drift(coeffs, tube, lam, x, h):
    """Oracle: exterior drift -div A + (Lap Psi)(mirror) - 2 lam nu, with
    div A from central differences of the field's A and Lap Psi from second
    differences of the reflection, Richardson-extrapolated from h and h/2."""

    def once(h):
        e = np.eye(2) * h
        div_a = sum(
            (coeffs(x + e[j])[0][:, :, j] - coeffs(x - e[j])[0][:, :, j]) / (2 * h)
            for j in range(2)
        )
        xm = geometry.reflect_many(tube, x)
        lap = sum(
            geometry.reflect_many(tube, xm + e[j]) + geometry.reflect_many(tube, xm - e[j])
            for j in range(2)
        )
        lap = (lap - 4 * geometry.reflect_many(tube, xm)) / h**2
        return -div_a + lap

    t, _ = tube.locate_many(x)
    return (4 * once(h / 2) - once(h)) / 3 - 2 * lam * tube.curve.normal(t)


class TestVTransformClosedForm:
    @pytest.mark.parametrize("spec", ["ellipse(2,1)", "perturbed_disk(0.1,3)"])
    def test_exterior_drift_matches_differences(self, spec):
        curve = geometry.builtin_curve(spec)
        pair = solve_spectrum(build_dtn(curve, 512), 9)[8]
        tube = geometry.TubeNeighborhood(curve, 0.5 * curve.max_tube_halfwidth())
        _, coeffs = v_transform(pair, tube)
        rng = np.random.default_rng(3)
        t = rng.uniform(0, 2 * np.pi, 100)
        s = rng.uniform(0.1, 0.9, 100) * tube.delta
        x = curve.point(t) + s[:, None] * curve.normal(t)
        _, b, _ = coeffs(x)
        want = fd_drift(coeffs, tube, pair.eigenvalue, x, 1.25e-3)
        assert np.max(np.abs(b - want)) < 1e-8 * np.max(np.abs(b))

    def test_one_foot_point_query_per_call(self, transformed, monkeypatch):
        calls = []
        nearest = geometry.BoundaryCurve.nearest_point_many

        def recording(self, x):
            calls.append(len(np.atleast_2d(x)))
            return nearest(self, x)

        monkeypatch.setattr(geometry.BoundaryCurve, "nearest_point_many", recording)
        pair, tube, _, _ = transformed
        field, coeffs = v_transform(pair, tube)
        # check_assumptions projects the probes once; the permuted side reuses A
        assert len(calls) == 1
        t = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        x = pair.curve.point(t) + 0.1 * np.where(t < np.pi, 1, -1)[:, None] * (
            pair.curve.normal(t)
        )
        for call in (coeffs, field):
            calls.clear()
            call(x)
            assert calls == [8]

    def test_one_evaluation_of_u_per_call(self, transformed, monkeypatch):
        # the v field reads u at its mirror points, inside the curve by
        # construction, through one evaluate_inside call with every point
        # and no evaluate_many call
        calls = []

        def recording(name, method):
            def wrapped(self, x, *args, **kwargs):
                calls.append((name, len(np.atleast_2d(x))))
                return method(self, x, *args, **kwargs)
            return wrapped

        for name in ("evaluate_many", "evaluate_inside"):
            monkeypatch.setattr(
                SteklovEigenpair, name, recording(name, getattr(SteklovEigenpair, name))
            )
        pair, _, field, _ = transformed
        t = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        x = pair.curve.point(t) + 0.1 * np.where(t < np.pi, 1, -1)[:, None] * (
            pair.curve.normal(t)
        )
        field(x)
        assert calls == [("evaluate_inside", 12)]


class TestFrameTraffic:
    """Every layer reads the boundary frame of one BoundaryCurve._series call."""

    @pytest.fixture
    def series_calls(self, monkeypatch):
        # series calls made inside a foot-point projection count apart
        calls = {"projection": 0, "other": 0}
        projecting = []
        series = geometry.BoundaryCurve._series
        nearest = geometry.BoundaryCurve.nearest_point_many

        def counting_series(self, t, *orders):
            calls["projection" if projecting else "other"] += 1
            return series(self, t, *orders)

        def counting_nearest(self, x):
            projecting.append(x)
            try:
                return nearest(self, x)
            finally:
                projecting.pop()

        monkeypatch.setattr(geometry.BoundaryCurve, "_series", counting_series)
        monkeypatch.setattr(geometry.BoundaryCurve, "nearest_point_many", counting_nearest)
        return calls

    def test_one_series_call_per_dtn(self, ellipse_curve, series_calls):
        build_dtn(ellipse_curve, 128)
        assert series_calls == {"projection": 0, "other": 1}

    def test_one_frame_per_field_call(self, transformed, series_calls):
        pair, _, field, coeffs = transformed
        t = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        # offsets 0.03 and 0.1 on both sides; exterior points read u at
        # their mirror points
        s = np.tile([-0.1, -0.03, 0.03, 0.1], 4)
        x = pair.curve.point(t) + s[:, None] * pair.curve.normal(t)
        for call, most in ((coeffs, 1), (field, 3)):
            series_calls.update(projection=0, other=0)
            call(x)
            assert series_calls["projection"] > 0
            assert 1 <= series_calls["other"] <= most, call


class TestLemmas:
    def test_frequency_from_doubling_harmonic(self, deg3):
        # for |z|^3 the ball mass retention at alpha = 1/4 is alpha^8
        rep = frequency_from_doubling(
            deg3, (0.0, 0.0), 0.4, alpha=0.25, theta=0.5, kappa=1e-5
        )
        assert rep.measured == pytest.approx(3.0, abs=1e-8)
        assert rep.bound >= rep.measured
        assert rep.passed

    def test_frequency_from_doubling_bad_hypothesis(self, deg3):
        with pytest.raises(AssumptionError):
            frequency_from_doubling(
                deg3, (0.0, 0.0), 0.4, alpha=0.25, theta=0.5, kappa=0.9
            )

    def test_chain_frequency(self, deg3):
        rep = chain_frequency_check(deg3, 0.5, n_points=8)
        assert rep.base_frequency == pytest.approx(3.0, abs=1e-8)
        assert np.isfinite(rep.constant) and rep.constant > 0


class TestQuadratureRules:
    @pytest.mark.parametrize("r", [-0.5, 0.0, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, deg3, r):
        quads = (
            h_of_r, d_of_r, _ball_mean,
            lambda f, c, r: i_of_r(f, zero_coefficients(), c, r),
        )
        for quad in quads:
            with pytest.raises(ValueError, match="positive and finite"):
                quad(deg3, (0.0, 0.0), r)

    def test_unconverged_refinement_warns(self):
        # |x| has a kink on the disk: 96 radial nodes reach 4/3 to 5e-5 only
        with pytest.warns(RuntimeWarning, match="unconverged at n = 96"):
            got = _disk_integral(lambda p: np.abs(p[:, 0]), np.zeros(2), 1.0)
        assert got == pytest.approx(4.0 / 3.0, rel=1e-4)

    def test_converged_refinement_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _disk_integral(lambda p: p[:, 0] ** 2, np.zeros(2), 1.0)
        assert got == pytest.approx(np.pi / 4.0, rel=1e-13)

    def test_refinement_is_elementwise(self):
        # entry 0 converges at n = 64; entry 1 changes by 1/n up to n_max
        rules = [lambda n: 2.0, lambda n: 1.0 + 1.0 / n]
        orders = {0: [], 1: []}

        def batch(entries):
            def quad(n, i):
                ks = np.arange(2)[entries][i]
                for k in ks:
                    orders[k].append(n)
                return np.array([rules[k](n) for k in ks])
            return quad

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            both = _refine(batch([0, 1]), 32, 512, 1e-12)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "unconverged at n = 512" in str(caught[0].message)
        assert orders == {0: [32, 64], 1: [32, 64, 128, 256, 512]}
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            alone = [_refine(batch([k]), 32, 512, 1e-12)[0] for k in (0, 1)]
        assert both.tolist() == alone == [2.0, 1.0 + 1.0 / 512]

    def test_gauss_rule_is_read_only(self):
        with pytest.raises(ValueError):
            _gauss(8)[0][0] = 0.0
