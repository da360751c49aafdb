import dataclasses
import types

import numpy as np
import pytest
import scipy.linalg

from steklab import geometry, nodal, steklov
from steklab.errors import ConditioningError, OutOfDomainError, SolverError
from steklab.frequency import _polar_integral
from steklab.steklov import (
    SpectrumSlice,
    build_dtn,
    interior_sup_bound_check,
    solve_spectrum,
)

from conftest import disk_mode_coefficients


@pytest.fixture
def uncertified(monkeypatch):
    """A fresh copy of a pair with the degree cap at 0: it has no certified
    polynomial, so evaluate_many reads the Cauchy formula inside and the
    Taylor series in the exterior band."""
    monkeypatch.setattr(steklov, "_POLY_MAX_DEGREE", 0)
    return dataclasses.replace


@pytest.fixture
def eigh_subsets(monkeypatch):
    """The subset_by_index of every scipy.linalg.eigh call, in order."""
    subsets = []
    eigh = scipy.linalg.eigh

    def spy(a, **kw):
        subsets.append(kw["subset_by_index"])
        return eigh(a, **kw)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return subsets


def layer_reference(pair, x, factor):
    """u and grad u at x from the single-layer potential of pair.density,
    trigonometrically interpolated to factor * N sources and summed by the
    trapezoid rule: a reference independent of evaluate_many."""
    N = pair.dtn.N
    Nf, h = factor * N, N // 2
    spec = np.fft.fft(pair.density)
    pad = np.zeros(Nf, dtype=complex)
    pad[:h], pad[Nf - h:] = spec[:h], spec[N - h:]
    pad[h] = 0.5 * spec[h]  # the Nyquist mode, split between +-h
    pad[Nf - h] += 0.5 * spec[h]
    f = pair.curve.frame(np.linspace(0.0, 2 * np.pi, Nf, endpoint=False))
    charge = np.fft.ifft(pad).real * factor * f.speed * (2 * np.pi / Nf)
    log_r = np.log(pair.dtn.kernel_scale)
    u, g = np.empty(len(x)), np.empty((len(x), 2))
    for i in range(0, len(x), 64):
        d = x[i:i + 64, None, :] - f.point[None]
        d2 = np.sum(d * d, axis=-1)
        u[i:i + 64] = -(np.log(d2) - 2 * log_r) @ charge / (4 * np.pi)
        g[i:i + 64] = -np.einsum("pjk,pj->pk", d, charge / d2) / (2 * np.pi)
    return u, g


def dense_dtn_reference(curve, N):
    """L = (I/2 + K') S^-1 from the dense assembly of S and K': the (N, N, 2)
    coordinate differences, the smooth remainder of the log kernel as one
    N x N table and the exact log circulant as another, as `build_dtn`
    once built them; a reference independent of its in-place assembly."""
    t = np.linspace(0.0, 2 * np.pi, N, endpoint=False)
    f = curve.frame(t)
    R = 2.0 * curve.diameter
    diff = f.point[:, None, :] - f.point[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(dist, 1.0)
    sin_half = np.abs(2.0 * np.sin(0.5 * (t[:, None] - t[None, :])))
    np.fill_diagonal(sin_half, 1.0)
    Ks = -np.log(dist / sin_half) / (2 * np.pi) + np.log(R) / (2 * np.pi)
    np.fill_diagonal(Ks, -np.log(f.speed) / (2 * np.pi) + np.log(R) / (2 * np.pi))
    m = np.fft.fftfreq(N, 1.0 / N)
    symbol = np.divide(0.5, np.abs(m), out=np.zeros(N), where=m != 0)
    C = scipy.linalg.circulant(np.real(np.fft.ifft(symbol)))
    S = (C + (2 * np.pi / N) * Ks) * f.speed[None, :]
    dots = np.einsum("ijk,ik->ij", diff, f.nu)
    Kp = -dots / dist**2 / (2 * np.pi)
    np.fill_diagonal(Kp, -f.kappa / (4 * np.pi))
    Kp = Kp * f.speed[None, :] * (2 * np.pi / N) + 0.5 * np.eye(N)
    return np.linalg.solve(S.T, Kp.T).T


def disk_exact_eigenvalues(count):
    vals = [0.0]
    k = 1
    while len(vals) < count:
        vals.extend([float(k), float(k)])
        k += 1
    return np.array(vals[:count])


class TestDtn:
    def test_disk_symbol(self, disk_curve):
        # on the unit circle the operator maps cos(kt) -> k cos(kt)
        dtn = build_dtn(disk_curve, 256)
        t = dtn.t
        for k in [1, 3, 10]:
            f = np.cos(k * t)
            assert np.allclose(dtn.L @ f, k * f, atol=1e-10)
        assert np.allclose(dtn.L @ np.ones_like(t), 0.0, atol=1e-10)

    def test_row_sums_annihilate_constants(self, ellipse_curve):
        dtn = build_dtn(ellipse_curve, 256)
        assert np.max(np.abs(dtn.L @ np.ones(256))) < 1e-9

    def test_unit_capacity_rejected(self):
        # diameter 0.5 sets the kernel scale R = 1, the unit disk's
        # logarithmic capacity, where S is singular up to round-off
        curve = geometry.disk()
        curve.diameter = 0.5
        with pytest.raises(ConditioningError):
            build_dtn(curve, 512)

    def test_odd_node_count_rejected(self, disk_curve):
        with pytest.raises(ValueError):
            build_dtn(disk_curve, 257)

    def test_symmetrized_is_symmetric(self, ellipse_curve):
        dtn = build_dtn(ellipse_curve, 256)
        A = dtn.symmetrized()
        assert np.max(np.abs(A - A.T)) < 1e-9

    @pytest.mark.parametrize("N", [128.9, 256.0, "256", None])
    def test_non_integer_node_count_rejected(self, disk_curve, N):
        with pytest.raises(ValueError, match="integer"):
            build_dtn(disk_curve, N)

    def test_numpy_integer_node_count(self, disk_curve):
        dtn = build_dtn(disk_curve, np.int64(128))
        assert type(dtn.N) is int and dtn.L.shape == (128, 128)

    @pytest.mark.parametrize(
        "spec", ["disk", "ellipse(2,1)", "perturbed_disk(0.2,5)"]
    )
    def test_matches_dense_assembly(self, spec):
        curve = geometry.builtin_curve(spec)
        dtn = build_dtn(curve, 256)
        ref = dense_dtn_reference(curve, 256)
        assert np.max(np.abs(dtn.L - ref)) <= 1e-12 * np.max(np.abs(ref))
        sqw = np.sqrt(dtn.weights)
        A = ref * (sqw[:, None] / sqw[None, :])
        want = scipy.linalg.eigvalsh(0.5 * (A + A.T), subset_by_index=[0, 39])
        got = solve_spectrum(dtn, 40).eigenvalues
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, 1.0))

    def test_assembly_memory_bounded(self, ellipse_curve):
        # the dense assembly peaked at 12 N^2 doubles: the (N, N, 2)
        # differences, their norm, two sine and log tables, the circulant,
        # S and K'; in place it holds dx, dy, dist^2 and dy^2
        import tracemalloc

        N = 1024
        tracemalloc.start()
        try:
            build_dtn(ellipse_curve, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * N**2


class TestSpectrum:
    def test_disk_eigenvalues(self, disk_spectrum):
        lam = disk_spectrum.eigenvalues
        assert np.max(np.abs(lam - disk_exact_eigenvalues(81))) < 1e-10

    def test_normalization(self, disk_spectrum):
        dtn = disk_spectrum.dtn
        for j in [0, 5, 40]:
            f = disk_spectrum[j].trace
            assert np.sum(dtn.weights * f**2) == pytest.approx(1.0, rel=1e-12)

    def test_residuals_small(self, ellipse_spectrum):
        for pair in ellipse_spectrum:
            assert pair.residual < 1e-8 * max(pair.eigenvalue, 1.0)

    def test_spectral_accuracy_vs_node_count(self, disk_curve):
        # disk kernels are trigonometric polynomials, so every admissible
        # node count is already exact: errors either decrease geometrically
        # or sit below the rounding floor
        errs = []
        for N in [128, 256, 512]:
            lam = solve_spectrum(build_dtn(disk_curve, N), 21).eigenvalues
            errs.append(np.max(np.abs(lam - disk_exact_eigenvalues(21))))
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert e_fine < 0.5 * e_coarse or e_fine < 1e-10

    def test_ellipse_selfconvergence(self, ellipse_curve, ellipse_spectrum):
        lam_coarse = solve_spectrum(build_dtn(ellipse_curve, 384), 40).eigenvalues
        assert np.max(np.abs(lam_coarse - ellipse_spectrum.eigenvalues[:40])) < 1e-10

    def test_degenerate_basis_pinned(self, disk_spectrum):
        # each disk eigenspace {cos kt, sin kt} comes back as cos kt, then
        # sin kt, both with a positive first nonzero sample
        t = disk_spectrum.dtn.t
        for k in [1, 3, 40]:
            for j, mode in [(2 * k - 1, np.cos), (2 * k, np.sin)]:
                f = mode(k * t)
                f /= np.sqrt(np.sum(disk_spectrum.dtn.weights * f**2))
                assert np.max(np.abs(disk_spectrum[j].trace - f)) < 1e-10

    def test_cut_cluster_pinned_whole(self, disk_curve):
        # count = 6 cuts the k = 3 eigenspace after its first member
        dtn = build_dtn(disk_curve, 128)
        cut = solve_spectrum(dtn, 6)[5].trace
        whole = solve_spectrum(dtn, 7)[5].trace
        assert np.max(np.abs(cut - whole)) < 1e-12 * np.max(np.abs(whole))

    def test_cut_pair_solved_in_one_call(self, disk_curve, eigh_subsets):
        # count = 8 cuts the k = 4 eigenspace {7, 8}; the first subset,
        # indices 0..9, completes it
        dtn = build_dtn(disk_curve, 128)
        cut = solve_spectrum(dtn, 8)[7].trace
        assert eigh_subsets == [[0, 9]]
        whole = solve_spectrum(dtn, 9)[7].trace
        assert np.max(np.abs(cut - whole)) < 1e-12 * np.max(np.abs(whole))

    def test_cut_cluster_grows_the_subset(self, eigh_subsets):
        # an operator with the triple eigenvalue 3 at indices 3..5 in a
        # random basis: count = 4 cuts it after its first member, and the
        # first subset, indices 0..5, ends inside it, so the solve grows
        # the subset and pins the cluster whole
        N = 64
        lam = np.r_[0.0, 1.0, 2.0, 3.0, 3.0, 3.0, np.arange(4.0, N - 2)]
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((N, N)))
        A = (q * lam) @ q.T
        dtn = types.SimpleNamespace(
            N=N, weights=np.ones(N), L=A, symmetrized=lambda: A,
            solve_density=lambda f: f,
        )
        cut = solve_spectrum(dtn, 4)
        assert eigh_subsets == [[0, 5], [0, 7]]
        whole = solve_spectrum(dtn, 6)
        assert eigh_subsets[2:] == [[0, 7]]
        ref = whole[3].trace
        assert np.max(np.abs(cut[3].trace - ref)) < 1e-12 * np.max(np.abs(ref))
        assert cut.eigenvalues == pytest.approx(lam[:4], abs=1e-12)

    def test_disk_eigenvalues_fine_grid(self, disk_curve):
        lam = solve_spectrum(build_dtn(disk_curve, 1024), 100).eigenvalues
        exact = disk_exact_eigenvalues(100)
        assert lam[0] == 0.0
        assert np.max(np.abs(lam[1:] - exact[1:]) / exact[1:]) < 1e-13

    def test_batched_residuals_and_densities(self, ellipse_spectrum):
        # the per-pair formulas: a residual is round-off, so it is compared
        # on the scale of L f; two backward-stable solves differ by about
        # kappa_1(S) eps = 4e-13 of sup (1.1e-12 on the constant mode)
        dtn = ellipse_spectrum.dtn
        for pair in ellipse_spectrum:
            f = pair.trace
            scale = max(pair.eigenvalue, 1.0) * np.max(np.abs(f))
            resid = np.max(np.abs(dtn.L @ f - pair.eigenvalue * f))
            assert abs(pair.residual - resid) <= 1e-12 * scale
            sigma = scipy.linalg.lu_solve(dtn._S_lu, f)
            assert np.max(np.abs(pair.density - sigma)) <= 5e-12 * np.max(np.abs(sigma))

    @pytest.mark.parametrize("count", [3.7, 3.0, "3"])
    def test_non_integer_count_rejected(self, disk_spectrum, count):
        with pytest.raises(ValueError, match="integer"):
            solve_spectrum(disk_spectrum.dtn, count)

    def test_numpy_integer_count(self, disk_spectrum):
        assert len(solve_spectrum(disk_spectrum.dtn, np.int64(3))) == 3

    def test_eigensolve_memory_bounded(self, ellipse_curve):
        # symmetrized in place, with eigh's Fortran-order copy: about 2.1
        # N^2 doubles (3.1 with a separate symmetric part)
        import tracemalloc

        N = 1024
        dtn = build_dtn(ellipse_curve, N)
        tracemalloc.start()
        try:
            solve_spectrum(dtn, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * N**2

    def test_count_capped_by_resolution(self, disk_curve):
        dtn = build_dtn(disk_curve, 128)
        with pytest.raises(ValueError):
            solve_spectrum(dtn, 64)

    def test_scaling_invariance(self):
        # eigenvalues scale like 1/R
        lam1 = solve_spectrum(build_dtn(geometry.disk(1.0), 128), 9).eigenvalues
        lam2 = solve_spectrum(build_dtn(geometry.disk(2.0), 128), 9).eigenvalues
        assert np.allclose(lam2, lam1 / 2.0, atol=1e-10)

    def test_json_roundtrip(self, disk_curve):
        spec = solve_spectrum(build_dtn(disk_curve, 128), 7)
        restored = SpectrumSlice.from_json(spec.to_json())
        assert np.allclose(restored.eigenvalues, spec.eigenvalues, atol=1e-14)
        assert np.allclose(restored[3].trace, spec[3].trace)

    def test_json_hash_mismatch(self, disk_curve, ellipse_curve):
        import json

        spec = solve_spectrum(build_dtn(disk_curve, 128), 3)
        data = json.loads(spec.to_json())
        data["curve"] = json.loads(ellipse_curve.to_json())
        with pytest.raises(SolverError):
            SpectrumSlice.from_json(json.dumps(data))


def trace_oracle(pair, t):
    """Value and t-derivative of the +-k interpolant of pair.trace (the FFT
    modes above the 1e-14 floor, less Nyquist) in clongdouble, with the
    phases kt in long double: a reference independent of the fold and of
    the arithmetic of trace_at."""
    N = pair.dtn.N
    fhat = np.fft.fft(pair.trace) / N
    k = np.fft.fftfreq(N, 1.0 / N)
    keep = (np.abs(fhat) > 1e-14 * np.max(np.abs(fhat))) & (np.abs(k) < N // 2)
    kl, cl = k[keep].astype(np.longdouble), fhat[keep].astype(np.clongdouble)
    e = np.exp(1j * np.outer(np.asarray(t, dtype=np.longdouble), kl))
    return np.real(e @ cl), np.real(e @ (1j * kl * cl))


class TestTrace:
    @pytest.mark.parametrize(
        "curve, j",
        [("disk", 80), ("ellipse", 7), ("ellipse", 40), ("ellipse", 99),
         ("perturbed", 7), ("perturbed", 40)],
    )
    def test_folded_modes_match_dense_spectrum(
        self, curve, j, disk_spectrum, ellipse_spectrum, perturbed_spectrum
    ):
        # the stored modes have k >= 0, -k folded onto k; their Horner sum
        # matches the +-k interpolant of the modes above the same relative
        # floor within 1e-14 of sum |c_k| (values) and sum |k c_k|
        # (derivatives). A double e^{ikt} table misses this on disk pair 80
        # (1.4e-14): its phases fl(kt) round by up to half an ulp of kt
        spectra = {"disk": disk_spectrum, "ellipse": ellipse_spectrum}
        pair = spectra.get(curve, perturbed_spectrum)[j]
        k, c = pair._trace_modes()
        assert np.all(k >= 0)
        t = np.random.default_rng(j).uniform(0, 2 * np.pi, 1000)
        ref, ref_dt = trace_oracle(pair, t)
        f, df = pair.trace_at(t, derivative=True)
        assert np.max(np.abs(f - ref)) <= 1e-14 * np.sum(np.abs(c))
        assert np.max(np.abs(df - ref_dt)) <= 1e-14 * np.sum(np.abs(k * c))

    def test_constant_pair(self, disk_spectrum):
        # k = {0}: no gap to take a stride from, no Horner step, no phase
        pair = disk_spectrum[0]
        k, c = pair._trace_modes()
        assert k.tolist() == [0]
        t = np.linspace(-1.0, 8.0, 11)
        f, df = pair.trace_at(t, derivative=True)
        assert np.array_equal(f, np.full(11, c[0].real))
        assert np.array_equal(df, np.zeros(11))

    def test_one_mode_pair(self, disk_spectrum):
        # one mode, k = 3: the phase e^{3it} alone, no Horner step
        pair = disk_spectrum[5]
        k, c = pair._trace_modes()
        assert k.tolist() == [3] and len(pair._trace_horner()[2]) == 1
        t = np.random.default_rng(3).uniform(-2.0, 8.0, 500)
        ref, ref_dt = trace_oracle(pair, t)
        f, df = pair.trace_at(t, derivative=True)
        assert np.max(np.abs(f - ref)) <= 1e-14 * abs(c[0])
        assert np.max(np.abs(df - ref_dt)) <= 1e-14 * 3 * abs(c[0])

    @pytest.mark.parametrize(
        "modes, layout",
        [(range(0, 41, 2), (0, 2, 21)), ((3, 6, 9, 15), (3, 3, 5))],
        ids=["even", "stride-3"],
    )
    def test_stride_is_the_gcd_of_the_gaps(self, modes, layout, disk_spectrum):
        # one parity halves the recurrence; a stride of 3 reads e^{3it}
        # through the split phase, as does the shift e^{3it}
        N = disk_spectrum.dtn.N
        spec = np.zeros(N, dtype=complex)
        spec[list(modes)] = np.random.default_rng(4).normal(size=(len(modes), 2)) @ [1, 1j]
        pair = dataclasses.replace(disk_spectrum[1], trace=N * np.fft.ifft(spec).real)
        k0, g, q = pair._trace_horner()
        assert (k0, g, len(q)) == layout
        t = np.random.default_rng(6).uniform(-1.0, 8.0, 1000)
        ref, ref_dt = trace_oracle(pair, t)
        f, df = pair.trace_at(t, derivative=True)
        k, c = pair._trace_modes()
        assert np.max(np.abs(f - ref)) <= 1e-14 * np.sum(np.abs(c))
        assert np.max(np.abs(df - ref_dt)) <= 1e-14 * np.sum(np.abs(k * c))

    def test_zero_trace(self, ellipse_spectrum):
        # no mode above the floor: zeros, derivative included
        pair = dataclasses.replace(
            ellipse_spectrum[7], trace=np.zeros_like(ellipse_spectrum[7].trace)
        )
        assert len(pair._trace_modes()[0]) == 0
        t = np.linspace(0.0, 2 * np.pi, 7)
        assert np.array_equal(pair.trace_at(t), np.zeros(7))
        f, df = pair.trace_at(t, derivative=True)
        assert np.array_equal(f, np.zeros(7)) and np.array_equal(df, np.zeros(7))

    def test_empty_and_two_dimensional_t(self, ellipse_spectrum):
        pair = ellipse_spectrum[40]
        assert pair.trace_at([]).shape == (0,)
        f, df = pair.trace_at(np.empty(0), derivative=True)
        assert f.shape == df.shape == (0,)
        # a 2-D t comes back flattened, each value as for the flat t
        t = np.random.default_rng(2).uniform(0, 2 * np.pi, (3, 4))
        assert np.array_equal(pair.trace_at(t), pair.trace_at(t.ravel()))
        got, want = pair.trace_at(t, derivative=True), pair.trace_at(t.ravel(), derivative=True)
        assert got[0].shape == got[1].shape == (12,)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("derivative", [False, True])
    def test_row_blocks_equal_one_table_and_bound_memory(
        self, derivative, ellipse_spectrum, monkeypatch
    ):
        # 2^17 points of pair 40 (37 modes) in blocks of _BLOCK_BUDGET points
        # stay under 8 MiB, and one block for all of them reads each point
        # as the blocks do, bit for bit
        import tracemalloc

        pair = ellipse_spectrum[40]
        t = np.random.default_rng(5).uniform(0, 2 * np.pi, 2**17)
        tracemalloc.start()
        try:
            got = pair.trace_at(t, derivative=derivative)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        monkeypatch.setattr(steklov, "_BLOCK_BUDGET", len(t) * len(pair._trace_modes()[0]))
        want = pair.trace_at(t, derivative=derivative)
        assert np.array_equal(np.reshape(got, -1), np.reshape(want, -1))

    def test_replaced_pair_reads_its_own_trace(self, ellipse_spectrum):
        pair = ellipse_spectrum[7]
        t = np.linspace(0, 2 * np.pi, 9)
        x = pair.curve.point(t) * 0.9
        f, (u, _) = pair.trace_at(t), pair.evaluate_many(x)  # fill the caches
        doubled = dataclasses.replace(
            pair, trace=2 * pair.trace, density=2 * pair.density
        )
        assert np.allclose(doubled.trace_at(t), 2 * f, rtol=1e-14, atol=0)
        assert np.allclose(doubled.evaluate_many(x)[0], 2 * u, rtol=1e-12, atol=0)


class TestExtension:
    def test_disk_mode_values_and_gradients(self, disk_spectrum):
        # eigenfunction with lambda = k extends to a |z|^k harmonic
        pair = disk_spectrum[13]  # lambda = 7
        k = 7
        a, b, resid = disk_mode_coefficients(pair, k)
        assert resid < 1e-10
        rng = np.random.default_rng(5)
        r = rng.uniform(0.05, 1.05, 60)
        th = rng.uniform(0, 2 * np.pi, 60)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        v, g = pair.evaluate_many(pts)
        z = pts[:, 0] + 1j * pts[:, 1]
        exact = a * np.real(z**k) + b * np.imag(z**k)
        dz = k * z ** (k - 1)
        gx = a * np.real(dz) + b * np.imag(dz)
        gy = -a * np.imag(dz) + b * np.real(dz)
        assert np.max(np.abs(v - exact)) < 1e-10
        assert np.max(np.abs(g - np.stack([gx, gy], axis=1))) < 1e-9

    def test_constant_mode(self, disk_spectrum):
        pair = disk_spectrum[0]
        v, g = pair.evaluate_many(np.array([[0.3, -0.1], [0.0, 0.0]]))
        assert np.allclose(v, 1.0 / np.sqrt(2 * np.pi), atol=1e-11)
        assert np.max(np.abs(g)) < 1e-10

    def test_neumann_boundary_condition(self, ellipse_spectrum):
        # du/dnu = lambda u on the boundary, via gradients just inside
        pair = ellipse_spectrum[11]
        curve = pair.curve
        t = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        x = curve.point(t)
        _, g = pair.evaluate_many(x)
        nd = np.einsum("ij,ij->i", g, curve.normal(t))
        f = pair.trace_at(t)
        scale = pair.eigenvalue * np.max(np.abs(f))
        assert np.max(np.abs(nd - pair.eigenvalue * f)) < 1e-8 * scale

    def test_cross_side_continuity(self, ellipse_spectrum):
        # the exterior continuation matches interior values across the
        # boundary to high order along the normal
        pair = ellipse_spectrum[7]
        curve = pair.curve
        t = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        band = pair.extension_band()
        s = 0.5 * band
        vi, _ = pair.evaluate_many(curve.point(t) - s * curve.normal(t))
        vo, _ = pair.evaluate_many(curve.point(t) + s * curve.normal(t))
        vb = pair.trace_at(t)
        # mean of the two sides approximates the trace to O(s^2) in the
        # Taylor series, far tighter than either side alone
        assert np.max(np.abs(vi + vo - 2 * vb)) < 10 * s**2 * np.max(np.abs(vb)) * (
            pair.eigenvalue**2
        )

    def test_layer_memory_bounded(self, disk_spectrum, uncertified):
        # 4096 points at depth 0.0126 inside the lambda = 40 mode read the
        # Cauchy formula; unblocked, its (4096, 512) complex tables peaked at
        # 67 MB (the layer quadrature's (4096, 4096, 2) table once at 512 MB)
        import tracemalloc

        pair = uncertified(disk_spectrum[80])
        r = 1.0 - 1.01 * 0.5 / 40
        th = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        x = r * np.stack([np.cos(th), np.sin(th)], axis=1)
        pair.evaluate_many(x[:1])  # build the cached tables untraced
        tracemalloc.start()
        try:
            u, _ = pair.evaluate_many(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.max(np.abs(u - r**40 * pair.trace_at(th))) <= 1e-12

    def test_taylor_memory_bounded(self, ellipse_spectrum):
        # 4096 points in the exterior band of a 256-mode pair; one
        # (4096, 256) complex phase table and its products peaked at 32 MB
        import tracemalloc

        pair = ellipse_spectrum[7]
        t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        f = pair.curve.frame(t)
        x = f.point + 0.5 * pair.extension_band() * f.nu
        pair.evaluate_many(x[:1])  # build the cached tables untraced
        tracemalloc.start()
        try:
            pair.evaluate_many(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "curve, j", [("ellipse", 7), ("ellipse", 40), ("disk", 5), ("disk", 80)]
    )
    def test_taylor_tables_match_dense_formula(
        self, curve, j, disk_spectrum, ellipse_spectrum
    ):
        # the two-level e^{ikt} table and the cumulative powers reproduce
        # one dense np.exp table and float powers of s
        pair = (disk_spectrum if curve == "disk" else ellipse_spectrum)[j]
        band_out = pair.extension_band()
        rng = np.random.default_rng(j)
        t = rng.uniform(0, 2 * np.pi, 500)
        s = rng.uniform(-band_out, band_out, 500)
        u, grad = pair._taylor_eval(t, s)

        kv, coeff = pair._continuation()
        M = coeff.shape[1] // 2
        both = np.real(np.exp(1j * np.outer(t, kv)) @ coeff)
        powers = s[:, None] ** np.arange(M)
        ref = np.sum(both[:, :M] * powers, axis=1)
        ref_s = np.sum(both[:, 1:M] * np.arange(1, M) * powers[:, :-1], axis=1)
        ref_t = np.sum(both[:, M:] * powers, axis=1)
        f = pair.curve.frame(t)
        H = f.speed * (1.0 + f.kappa * s)
        ref_grad = f.nu * ref_s[:, None] + f.T * (ref_t / H)[:, None]

        sup = np.max(np.abs(ref))
        assert np.max(np.abs(u - ref)) <= 2e-14 * sup
        assert np.max(np.abs(grad - ref_grad)) <= 2e-14 * pair.eigenvalue * sup
        if (curve, j) == ("disk", 80):  # lambda = 40 extends to r^40 trace
            exact = (1.0 + s) ** 40 * pair.trace_at(t)
            assert np.max(np.abs(u - exact)) <= 1e-12

    @pytest.mark.parametrize("budget", [2**10, 511])
    def test_block_budget_changes_no_number(
        self, budget, ellipse_spectrum, monkeypatch, uncertified
    ):
        # Cauchy points inside and Taylor points in the exterior band (511 is
        # below one row of the Cauchy table, N = 512)
        pair = uncertified(ellipse_spectrum[99])
        band_out = pair.extension_band()
        s = np.concatenate(
            [np.linspace(0.1, 0.9, 40) * band_out, -np.geomspace(1e-3, 0.4, 160)]
        )
        t = np.linspace(0, 2 * np.pi, len(s), endpoint=False)
        f = pair.curve.frame(t)
        x = f.point + s[:, None] * f.nu
        u0, g0 = pair.evaluate_many(x)
        monkeypatch.setattr(steklov, "_BLOCK_BUDGET", budget)
        u, g = pair.evaluate_many(x)
        assert np.max(np.abs(u - u0)) <= 1e-14 * np.max(np.abs(u0))
        assert np.max(np.abs(g - g0)) <= 1e-14 * np.max(np.abs(g0))

    def test_outside_band_rejected(self, disk_spectrum):
        pair = disk_spectrum[5]
        with pytest.raises(OutOfDomainError):
            pair.evaluate(np.array([1.5, 0.0]))

    def test_laplace_residual_interior(self, ellipse_spectrum):
        # 5-point FD Laplacian at interior points is near zero
        pair = ellipse_spectrum[9]
        pts = np.array([[0.4, 0.2], [-0.9, -0.3], [1.2, 0.1]])
        h = 1e-3
        stencil = np.array(
            [[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]]
        )
        for p in pts:
            v, _ = pair.evaluate_many(p[None, :] + stencil)
            lap = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h**2
            assert abs(lap) < 1e-5 * max(abs(v[0]), 1.0)


@pytest.fixture(scope="module")
def perturbed_spectrum():
    """First 100 perturbed_disk(0.1, 3) eigenpairs at N = 512."""
    return solve_spectrum(build_dtn(geometry.perturbed_disk(0.1, 3), 512), 100)


@pytest.fixture(scope="module")
def rough_spectrum():
    """First 41 perturbed_disk(0.2, 5) eigenpairs at N = 512."""
    return solve_spectrum(build_dtn(geometry.perturbed_disk(0.2, 5), 512), 41)


def interior_points(curve, depth, count, seed):
    """`count` seeded points of the domain at distance > depth from the curve."""
    rng = np.random.default_rng(seed)
    lo, hi = np.min(curve.probe_points, axis=0), np.max(curve.probe_points, axis=0)
    x = rng.uniform(lo, hi, (20 * count, 2))
    _, s, _ = curve.nearest_point_many(x)
    return x[s < -depth][:count]


class TestCertifiedPolynomial:
    @pytest.mark.parametrize("j", [5, 24, 80])
    def test_disk_modes_exact(self, j, disk_spectrum):
        # mode k extends to r^k trace(theta); its gradient is
        # k r^(k-1) trace e_r + r^(k-1) trace' e_theta
        pair, k = disk_spectrum[j], (j + 1) // 2
        assert pair._poly() is not None
        rng = np.random.default_rng(j)
        r = np.sqrt(rng.uniform(0.0, 1.0, 2000))
        th = rng.uniform(0.0, 2 * np.pi, 2000)
        e_r = np.stack([np.cos(th), np.sin(th)], axis=1)
        e_th = np.stack([-np.sin(th), np.cos(th)], axis=1)
        u, g = pair.evaluate_many(r[:, None] * e_r)
        f, df = pair.trace_at(th, derivative=True)
        want = r[:, None] ** (k - 1) * (k * f[:, None] * e_r + df[:, None] * e_th)
        sup = np.max(np.abs(pair.trace))
        assert np.max(np.abs(u - r**k * f)) <= 1e-13 * sup
        assert np.max(np.abs(g - want)) <= 1e-13 * k * sup

    @pytest.mark.parametrize("curve", ["ellipse", "perturbed"])
    @pytest.mark.parametrize("j", [7, 40, 99])
    def test_deep_points_match_layer_quadrature(
        self, curve, j, ellipse_spectrum, perturbed_spectrum
    ):
        pair = (ellipse_spectrum if curve == "ellipse" else perturbed_spectrum)[j]
        assert pair._poly() is not None
        x = interior_points(pair.curve, 0.1, 400, j)
        u, g = pair.evaluate_many(x)
        ref_u, ref_g = layer_reference(pair, x, 16)
        sup = np.max(np.abs(pair.trace))
        assert np.max(np.abs(u - ref_u)) <= 1e-13 * sup
        assert np.max(np.abs(g - ref_g)) <= 1e-13 * pair.eigenvalue * sup

    @pytest.mark.parametrize(
        "j, curve",
        [(3, "ellipse"), (3, "perturbed"), (7, "ellipse"), (7, "perturbed")]
        + [(j, "rough") for j in (1, 3, 7, 20, 40)],
    )
    def test_inner_edge_of_taylor_band(
        self, j, curve, ellipse_spectrum, perturbed_spectrum, rough_spectrum
    ):
        # around depth min(0.5 / lambda, 0.15 delta), where the normal Taylor
        # series once handed over to the layer quadrature: it missed the layer
        # value by up to 2.9e-8 of sup (2.0e-6 lambda sup in the gradient),
        # and on rough pairs, which have no certificate, by 4.9e-12
        # (2.5e-10); the polynomial and the Cauchy formula do not
        spectra = {"ellipse": ellipse_spectrum, "perturbed": perturbed_spectrum}
        pair = spectra.get(curve, rough_spectrum)[j]
        assert (pair._poly() is None) == (curve == "rough")
        edge = min(0.5 / max(pair.eigenvalue, 1.0), 0.15 * pair.curve.max_tube_halfwidth())
        t = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
        f = pair.curve.frame(t)
        sup = np.max(np.abs(pair.trace))
        for depth in (0.5, 0.99, 1.5):
            x = f.point - depth * edge * f.nu
            u, g = pair.evaluate_many(x)
            ref_u, ref_g = layer_reference(pair, x, 16)
            assert np.max(np.abs(u - ref_u)) <= 1e-13 * sup
            assert np.max(np.abs(g - ref_g)) <= 1e-11 * pair.eigenvalue * sup

    def test_forced_fallback_reads_the_kernels(self, ellipse_spectrum, uncertified):
        # without a certificate every interior point reads the Cauchy formula
        # and every point of the exterior band the Taylor series, bit for bit
        pair = uncertified(ellipse_spectrum[7])
        band_out = pair.extension_band()
        t = np.linspace(0.0, 2 * np.pi, 30, endpoint=False)
        f = pair.curve.frame(t)
        s_near = np.r_[np.full(15, 0.5 * band_out), np.full(15, -0.5 * band_out)]
        x_near = f.point + s_near[:, None] * f.nu
        x_deep = interior_points(pair.curve, 0.3, 30, 7)
        u, g = pair.evaluate_many(np.concatenate([x_near, x_deep]))
        assert pair._cont["poly"] is None
        t_out, s_out, _ = pair.curve.nearest_point_many(x_near[:15])
        ref = [
            pair._taylor_eval(t_out, s_out),
            pair._cauchy_eval(np.concatenate([x_near[15:], x_deep])),
        ]
        assert np.array_equal(u, np.concatenate([ref[0][0], ref[1][0]]))
        assert np.array_equal(g, np.concatenate([ref[0][1], ref[1][1]]))

    @pytest.mark.parametrize("j", [5, 24, 80])
    def test_cauchy_disk_modes_exact(self, j, disk_spectrum, uncertified):
        # mode k extends to r^k trace(theta) up to the curve: points within
        # 1e-15 of it and points on the nodes, which read the nodes' data
        pair, k = uncertified(disk_spectrum[j]), (j + 1) // 2
        rng = np.random.default_rng(j)
        nodes = pair._cauchy()[0][rng.choice(pair.dtn.N, 50, replace=False)]
        r = np.concatenate([
            np.sqrt(rng.uniform(0.0, 1.0, 1000)),
            1.0 - 10 ** rng.uniform(-15, -2, 1000),
            np.abs(nodes),
        ])
        th = np.concatenate([rng.uniform(0.0, 2 * np.pi, 2000), np.angle(nodes) % (2 * np.pi)])
        e_r = np.stack([np.cos(th), np.sin(th)], axis=1)
        e_th = np.stack([-np.sin(th), np.cos(th)], axis=1)
        x = r[:, None] * e_r
        x[2000:] = np.stack([nodes.real, nodes.imag], axis=1)
        u, g = pair.evaluate_many(x, th, np.minimum(r - 1.0, 0.0))
        assert pair._cont["poly"] is None
        f, df = pair.trace_at(th, derivative=True)
        want = r[:, None] ** (k - 1) * (k * f[:, None] * e_r + df[:, None] * e_th)
        sup = np.max(np.abs(pair.trace))
        assert np.max(np.abs(u - r**k * f)) <= 1e-13 * sup
        assert np.max(np.abs(g - want)) <= 5e-13 * k * sup

    def test_exterior_band_reads_the_taylor_series(self, ellipse_spectrum):
        pair = ellipse_spectrum[7]
        band_out = pair.extension_band()
        t = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        f = pair.curve.frame(t)
        x = np.concatenate([f.point + 0.5 * band_out * f.nu, 0.5 * f.point])
        u, g = pair.evaluate_many(x)
        assert pair._poly() is not None
        tb, sb, _ = pair.curve.nearest_point_many(x[:40])
        ref_u, ref_g = pair._taylor_eval(tb, sb)
        assert np.array_equal(u[:40], ref_u) and np.array_equal(g[:40], ref_g)

    @pytest.mark.parametrize("j", [3, 8, 40])
    def test_uncertified_curve_falls_back(self, j, rough_spectrum):
        # perturbed_disk(0.2, 5) is not a polynomial to 1e-13 at degree 256
        import time

        pair = rough_spectrum[j]
        start = time.perf_counter()
        assert pair._poly() is None
        assert time.perf_counter() - start <= 0.5
        assert pair._cont["poly"] is None  # the failure is cached

    def test_outside_band_rejected_with_interior_points(self, ellipse_spectrum):
        pair = ellipse_spectrum[7]
        assert pair._poly() is not None
        band_out = pair.extension_band()
        t = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
        f = pair.curve.frame(t)
        x = np.concatenate([0.5 * f.point, f.point[:1] + 1.5 * band_out * f.nu[:1]])
        with pytest.raises(OutOfDomainError):
            pair.evaluate_many(x)
        s = np.r_[np.full(8, -0.1), 1.5 * band_out]
        with pytest.raises(OutOfDomainError):
            pair.evaluate_many(x, np.r_[t, t[0]], s)


class TestInsideRouting:
    @pytest.mark.parametrize("curve,j", [("ellipse", 7), ("disk", 5), ("rough", 7)])
    def test_inside_test_keeps_outputs_bit_for_bit(
        self, curve, j, ellipse_spectrum, disk_spectrum, rough_spectrum
    ):
        # points marked inside skip the projection; the rest are projected
        # as when t and s come from one projection of every point, whether
        # the pair reads the polynomial inside or, uncertified, the Cauchy
        # formula
        spectra = {"ellipse": ellipse_spectrum, "disk": disk_spectrum}
        pair = spectra.get(curve, rough_spectrum)[j]
        assert (pair._poly() is None) == (curve == "rough")
        band_out = pair.extension_band()
        rng = np.random.default_rng(j)
        f = pair.curve.frame(rng.uniform(0.0, 2 * np.pi, 1500))
        off = np.concatenate([
            rng.choice([-1.0, 1.0], 500) * 10 ** rng.uniform(-16, -12, 500),
            rng.uniform(0.0, band_out, 500),
            -rng.uniform(0.0, 0.05, 500),
        ])
        x = np.concatenate([
            interior_points(pair.curve, 0.05, 3000, j), f.point + off[:, None] * f.nu
        ])
        x = x[rng.permutation(len(x))]  # both sides in every block
        t, s, _ = pair.curve.nearest_point_many(x)
        assert np.any(s > 0) and len(x) > steklov._EVAL_CHUNK
        u, g = pair.evaluate_many(x)
        ref_u, ref_g = pair.evaluate_many(x, t, s)
        assert np.array_equal(u, ref_u) and np.array_equal(g, ref_g)

    @staticmethod
    def projected_by_domain_mass(pair, monkeypatch):
        """Points that domain_mass(pair) sends to nearest_point_many."""
        projected = []
        nearest = geometry.BoundaryCurve.nearest_point_many

        def recording(self, x):
            projected.append(len(np.atleast_2d(x)))
            return nearest(self, x)

        monkeypatch.setattr(geometry.BoundaryCurve, "nearest_point_many", recording)
        nodal.domain_mass(pair)
        return sum(projected)

    def test_domain_mass_projects_few_points(self, ellipse_spectrum, monkeypatch):
        # the 32,768 quadrature points lie inside the curve by construction,
        # so none needs a foot point
        assert self.projected_by_domain_mass(ellipse_spectrum[7], monkeypatch) == 0

    def test_uncertified_domain_mass_projects_few_points(
        self, rough_spectrum, monkeypatch
    ):
        # the Cauchy formula needs no foot point either
        pair = rough_spectrum[7]
        assert pair._poly() is None
        assert self.projected_by_domain_mass(pair, monkeypatch) == 0

    def test_polar_masses_skip_the_inside_test(
        self, ellipse_spectrum, rough_spectrum, monkeypatch
    ):
        # polar-grid points are inside by construction: no inside test, and
        # only interior_sup_bound_check's one projection of its center
        calls = []
        surely_inside = geometry.BoundaryCurve.surely_inside
        nearest = geometry.BoundaryCurve.nearest_point_many

        def spy_inside(self, x):
            calls.append(("surely_inside", len(x)))
            return surely_inside(self, x)

        def spy_nearest(self, x):
            calls.append(("nearest_point_many", len(np.atleast_2d(x))))
            return nearest(self, x)

        monkeypatch.setattr(geometry.BoundaryCurve, "surely_inside", spy_inside)
        monkeypatch.setattr(geometry.BoundaryCurve, "nearest_point_many", spy_nearest)
        for pair in (ellipse_spectrum[7], rough_spectrum[7]):
            center = pair.curve.point(np.array([0.7]))[0]
            nodal.clipped_ball_mass(pair, center, 0.1, n_r=20, n_theta=96)
            nodal.domain_mass(pair)
            assert calls == []
            interior_sup_bound_check(pair, (0.1, 0.05), 0.4)
            assert calls == [("nearest_point_many", 1)]
            calls.clear()

    @staticmethod
    def through_evaluate_many(pair, monkeypatch, mass, *args, **kw):
        """mass(pair, *args, **kw), and its polar quadrature with u read
        through evaluate_many in place of evaluate_inside."""
        grids = []

        def recording(integrand, *grid):
            grids.append(grid)
            return _polar_integral(integrand, *grid)

        monkeypatch.setattr(nodal, "_polar_integral", recording)
        got = mass(pair, *args, **kw)
        ref = _polar_integral(lambda p: pair.evaluate_many(p)[0] ** 2, *grids[0])
        return got, ref

    @pytest.mark.parametrize("curve,j", [("ellipse", 7), ("disk", 9)])
    def test_certified_polar_masses_match_evaluate_many(
        self, curve, j, ellipse_spectrum, disk_spectrum, monkeypatch
    ):
        # the net clipped balls of special_point_search and the domain mass
        # are bit-identical to the inside-tested route
        pair = {"ellipse": ellipse_spectrum, "disk": disk_spectrum}[curve][j]
        assert pair._poly() is not None
        for p in pair.curve.point(nodal.boundary_net(pair.curve, 0.15)):
            got, ref = self.through_evaluate_many(
                pair, monkeypatch, nodal.clipped_ball_mass, p, 0.3, n_r=20, n_theta=96
            )
            assert got == ref
        got, ref = self.through_evaluate_many(pair, monkeypatch, nodal.domain_mass)
        assert got == ref

    @pytest.mark.parametrize("j", [7, 20])
    def test_uncertified_polar_masses_match_evaluate_many(
        self, j, rough_spectrum, monkeypatch
    ):
        # balls centred on the curve have near-tangent rays, whose Gauss
        # points may lie a round-off outside: the Cauchy formula read there
        # matches the inside-tested route to 1e-12
        pair = rough_spectrum[j]
        assert pair._poly() is None
        t = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        for p in pair.curve.point(t):
            got, ref = self.through_evaluate_many(
                pair, monkeypatch, nodal.clipped_ball_mass, p, 0.1
            )
            assert got == pytest.approx(ref, rel=1e-12, abs=0)
        got, ref = self.through_evaluate_many(pair, monkeypatch, nodal.domain_mass)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_value_only_horner_is_bit_identical(self, ellipse_spectrum):
        fit = ellipse_spectrum[7]._poly()
        z = steklov._complex(interior_points(ellipse_spectrum[7].curve, 0.0, 500, 3))
        p, _ = steklov._horner(fit, z)
        assert np.array_equal(steklov._horner(fit, z, derivative=False), p)

    @pytest.mark.parametrize("curve,j", [("ellipse", 7), ("rough", 7)])
    def test_evaluate_inside_values_without_gradient(
        self, curve, j, ellipse_spectrum, rough_spectrum
    ):
        pair = {"ellipse": ellipse_spectrum, "rough": rough_spectrum}[curve][j]
        x = interior_points(pair.curve, 0.0, steklov._EVAL_CHUNK + 100, j)
        # two blocks; inside points of evaluate_many read the same path
        u, g = pair.evaluate_inside(x)
        assert np.array_equal(pair.evaluate_inside(x, gradient=False), u)
        ref_u, ref_g = pair.evaluate_many(x)
        assert np.array_equal(u, ref_u) and np.array_equal(g, ref_g)


    @pytest.mark.parametrize("j", [7, 20])
    def test_value_only_cauchy_sums_are_bit_identical(self, j, rough_spectrum):
        # values alone sum two columns of weights, (1, f), in place of three;
        # the GEMM's first two columns do not change, a node hit included
        pair = rough_spectrum[j]
        assert pair._poly() is None
        x = interior_points(pair.curve, 0.0, steklov._EVAL_CHUNK + 100, j)
        nodes = pair._cauchy()[0]
        x[:2] = np.c_[nodes[[3, 300]].real, nodes[[3, 300]].imag]
        u, _ = pair._cauchy_eval(x)
        assert np.array_equal(pair._cauchy_eval(x, gradient=False), u)
        assert np.array_equal(pair.evaluate_inside(x, gradient=False), u)
        assert u[0] == pair.trace[3] and u[1] == pair.trace[300]


class TestInteriorBound:
    def test_disk_mode(self, disk_spectrum):
        rep = interior_sup_bound_check(disk_spectrum[3], (0.2, 0.1), 0.5)
        assert np.isfinite(rep.constant) and rep.constant > 0
        # sup over the half ball is bounded by sup over the full ball
        assert rep.sup_half <= rep.constant * rep.mean_sq_root + 1e-12

    def test_ball_must_fit(self, disk_spectrum):
        with pytest.raises(OutOfDomainError):
            interior_sup_bound_check(disk_spectrum[3], (0.8, 0.0), 0.5)

    def test_ball_outside_the_curve_rejected(self, disk_spectrum):
        # 0.06 from the curve, but outside: only the exterior band is there
        with pytest.raises(OutOfDomainError):
            interior_sup_bound_check(disk_spectrum[3], (1.06, 0.0), 0.03)

    @pytest.mark.parametrize("r", [0.0, -0.1, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, disk_spectrum, r):
        with pytest.raises(ValueError, match="positive and finite"):
            interior_sup_bound_check(disk_spectrum[3], (0.2, 0.1), r)
