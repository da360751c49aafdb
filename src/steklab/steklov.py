"""Dirichlet-to-Neumann discretization and Steklov eigenpairs on a closed curve.

The harmonic extension is represented by a single-layer potential u = S[sigma].
The boundary operator uses a split of the log kernel into the periodic
singular part -(1/4pi) log(4 sin^2((t-tau)/2)), integrated exactly on
trigonometric interpolants through a circulant matrix, plus a smooth remainder
handled by the plain trapezoid rule. The kernel is rescaled by the curve
diameter so the single-layer matrix stays away from the unit-capacity
degeneracy.

Inside the domain u is evaluated, where the fit is certified, as Re p for
one complex polynomial p per eigenpair: a least-squares fit to the trace in a
Newton basis at Leja points of the boundary (Reichel, BIT 30 (1990)), whose
boundary residual bounds the interior error by the maximum principle. In the
thin exterior band, and inside for pairs without a certificate, the potential
is evaluated near the boundary through a Taylor expansion in the normal
offset whose coefficients are grid functions of the boundary parameter,
computed recursively from harmonicity in tube coordinates, and deeper inside
by the layer quadrature, upsampled by depth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConditioningError, OutOfDomainError, SolverError
from .frequency import _polar_integral
from .geometry import BoundaryCurve

TWO_PI = 2.0 * np.pi

_TAYLOR_TERMS = 20
_MODE_FLOOR = 1e-14
_MAX_UPSAMPLE = 16
_RESOLUTION_FACTOR = 40.0  # target exp(-40) quadrature tail
_CLUSTER_RTOL = 1e-8  # eigenvalues this close share one pinned basis
_EVAL_CHUNK = 4096  # points per block of evaluate_many: inside test, projection, Taylor
_BLOCK_BUDGET = 2**15  # entries of one layer or Taylor block table: 256 KB stays in L2
_POLY_RTOL = 1e-13  # certificate: boundary residual of the fit over sup of the trace
_POLY_START = 16  # first degree of the doubling degree search
_POLY_MAX_DEGREE = 256  # last degree tried, and at most N/2


def _log_circulant(N):
    """Circulant matrix applying f -> -(1/4pi) int log(4 sin^2((t-tau)/2)) f(tau) dtau.

    Exact on trigonometric polynomials of degree < N/2: the operator has Fourier
    symbol 1/(2|m|) for m != 0 and 0 for m = 0.
    """
    m = np.fft.fftfreq(N, 1.0 / N)
    symbol = np.zeros(N)
    nz = m != 0
    symbol[nz] = 1.0 / (2.0 * np.abs(m[nz]))
    return scipy.linalg.circulant(np.real(np.fft.ifft(symbol)))


class DtnDiscretization:
    """Dense Nystrom discretization of the Dirichlet-to-Neumann map."""

    def __init__(self, curve: BoundaryCurve, N: int):
        if N % 2 != 0 or N < 64:
            raise ValueError("node count must be even and at least 64")
        self.curve = curve
        self.N = N
        self.t = t = np.linspace(0.0, TWO_PI, N, endpoint=False)
        f = curve.frame(t)
        self.speed = f.speed
        self.kappa = f.kappa
        self.weights = (TWO_PI / N) * self.speed
        self.kernel_scale = R = 2.0 * curve.diameter

        diff = f.point[:, None, :] - f.point[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, 1.0)

        # smooth remainder of the log kernel
        dt = t[:, None] - t[None, :]
        sin_half = np.abs(2.0 * np.sin(0.5 * dt))
        np.fill_diagonal(sin_half, 1.0)
        Ks = -(1.0 / TWO_PI) * np.log(dist / sin_half) + np.log(R) / TWO_PI
        np.fill_diagonal(Ks, -(1.0 / TWO_PI) * np.log(self.speed) + np.log(R) / TWO_PI)

        C = _log_circulant(N)
        S = (C + (TWO_PI / N) * Ks) * self.speed[None, :]

        # adjoint double layer: kernel -(1/2pi) (x-y).nu(x)/|x-y|^2, smooth on
        # an analytic curve with diagonal limit -kappa/(4pi)
        dots = np.einsum("ijk,ik->ij", diff, f.nu)
        Kp = -(1.0 / TWO_PI) * dots / dist**2
        np.fill_diagonal(Kp, -self.kappa / (2.0 * TWO_PI))
        Kp = Kp * self.speed[None, :] * (TWO_PI / N)

        cond = np.linalg.cond(S)
        if not np.isfinite(cond) or cond > 1e12:
            raise ConditioningError(
                f"single-layer matrix condition number {cond:.3e}; "
                "rescale the domain away from unit logarithmic capacity"
            )
        self._S_lu = scipy.linalg.lu_factor(S)
        self.L = (0.5 * np.eye(N) + Kp) @ scipy.linalg.lu_solve(
            self._S_lu, np.eye(N)
        )

    def solve_density(self, f):
        """Single-layer density sigma with S[sigma] = f on the nodes."""
        return scipy.linalg.lu_solve(self._S_lu, f)

    def symmetrized(self):
        """W^(1/2) L W^(-1/2) where W is the diagonal of arclength weights."""
        sqw = np.sqrt(self.weights)
        return self.L * (sqw[:, None] / sqw[None, :])


def build_dtn(curve, N):
    """Dense DtN matrix on N equispaced collocation nodes."""
    return DtnDiscretization(curve, int(N))


# -- eigenpairs --------------------------------------------------------------------


@dataclass
class SteklovEigenpair:
    """One Steklov eigenvalue with trace samples and single-layer density.

    Normalized so that the arclength integral of the squared trace is 1.
    """

    eigenvalue: float
    trace: np.ndarray
    density: np.ndarray
    residual: float
    dtn: DtnDiscretization = field(repr=False)
    index: int = 0
    _cont: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def curve(self):
        return self.dtn.curve

    # -- trace as a function of the boundary parameter -------------------------

    def _trace_modes(self):
        """(k >= 0, c): trace = Re sum c e^{ikt} over the modes above the floor."""
        if "modes" not in self._cont:
            fhat = np.fft.fft(self.trace) / self.dtn.N
            fhat[~_modes_above(fhat, _MODE_FLOOR)] = 0.0
            folded = _fold(fhat)
            k = np.flatnonzero(folded)
            self._cont["modes"] = (k, folded[k])
        return self._cont["modes"]

    def trace_at(self, t, derivative=False):
        """Trigonometric interpolation of the boundary trace at parameters t;
        with derivative, the pair (trace, its t-derivative), the second from
        ik times the modes in the same e^{ikt} product."""
        t = np.asarray(t, dtype=float)
        kvec, fhat = self._trace_modes()
        e = np.exp(1j * np.outer(t, kvec))
        if not derivative:
            return np.real(e @ fhat)
        out = (e @ np.stack([fhat, 1j * kvec * fhat], axis=1)).real
        return out[:, 0], out[:, 1]

    # -- normal Taylor continuation ---------------------------------------------

    def _continuation(self):
        """Taylor coefficients (in the signed normal offset) of the extension.

        Coefficient m is stored as a filtered Fourier spectrum over the node
        grid. Recursion from Laplace's equation in tube coordinates where the
        metric factor is speed(t) * (1 + kappa(t) s).
        """
        if "taylor" in self._cont:
            return self._cont["taylor"]
        dtn = self.dtn
        N = dtn.N
        kvec = np.fft.fftfreq(N, 1.0 / N).astype(int)
        ik = 1j * kvec
        lam = self.eigenvalue

        def bandwidth(grid):
            keep = _modes_above(np.fft.fft(grid), 10 * _MODE_FLOOR)
            return int(np.max(np.abs(kvec[keep]), initial=0))

        k_geo = max(bandwidth(dtn.speed), bandwidth(dtn.speed * dtn.kappa))
        k_trace = int(np.max(self._trace_modes()[0], initial=0))

        def filt(grid, level):
            # per-level relative floor plus a progressive bandwidth cap: the
            # exact coefficient at level m is band-limited to the trace
            # bandwidth broadened m times by the geometry spectrum, so
            # anything beyond that is grid noise that repeated t-derivatives
            # would amplify faster than the signal
            spec = np.fft.fft(grid) / N
            spec[~_modes_above(spec, _MODE_FLOOR)] = 0.0
            cap = min(k_trace + (level + 1) * (k_geo + 2) + 8, N // 2 - 1)
            spec[np.abs(kvec) > cap] = 0.0
            return spec

        def ddt(grid):
            return np.fft.ifft(np.fft.fft(grid) * ik)

        a = dtn.speed.astype(complex)
        b = (dtn.speed * dtn.kappa).astype(complex)
        # Taylor coefficients of 1/H in s: e_i = (-b/a)^i / a
        ratio = -b / a
        e = [1.0 / a]
        for _ in range(_TAYLOR_TERMS):
            e.append(e[-1] * ratio)

        f0 = np.fft.ifft(filt(self.trace.astype(complex), 0) * N)
        c = [f0, lam * f0]
        for k in range(_TAYLOR_TERMS - 1):
            acc = np.zeros(N, dtype=complex)
            for j in range(k + 1):
                acc += e[k - j] * ddt(c[j])
            g = -ddt(acc)
            nxt = (g / (k + 1) - b * (k + 1) * c[k + 1]) / (a * (k + 2))
            nxt = np.fft.ifft(filt(nxt, k + 2) * N)
            c.append(nxt)

        folded = _fold(np.stack([filt(cm, m) for m, cm in enumerate(c)], axis=1))
        kv = np.flatnonzero(np.any(folded != 0, axis=1))
        coeff = folded[kv]
        # value and t-derivative blocks side by side: (modes, 2M)
        self._cont["taylor"] = (kv, np.hstack([coeff, coeff * (1j * kv)[:, None]]))
        return self._cont["taylor"]

    def _taylor_eval(self, t, s):
        """Value and Cartesian gradient of the continuation at tube coords (t, s)."""
        kv, coeff = self._continuation()
        M = coeff.shape[1] // 2
        # e^{ikt} = e^{iBqt} e^{irt} with k = Bq + r: about 2 sqrt(K) complex
        # exps per point in place of K. With t = t1 + t2, t1 on a 2^-41 grid,
        # k t1 is exact for k < 650 and e^{ikt2} = 1 + ikt2 to 1e-20
        B = int(np.ceil(np.sqrt(kv[-1] + 1)))
        q, r = np.divmod(kv, B)
        k = np.concatenate([B * np.arange(q[-1] + 1), np.arange(B)])
        t1 = np.round(t * 2.0**41) / 2.0**41
        e = np.exp(1j * np.outer(t1, k)) * (1.0 + 1j * np.outer(t - t1, k))
        both = np.real((e[:, q] * e[:, q[-1] + 1 + r]) @ coeff)  # (P, 2M)
        vals_m, dvals_m = both[:, :M], both[:, M:]
        powers = np.cumprod(np.where(np.arange(M) > 0, s[:, None], 1.0), axis=1)
        u = np.sum(vals_m * powers, axis=1)
        u_s = np.sum(vals_m[:, 1:] * np.arange(1, M) * powers[:, :-1], axis=1)
        u_t = np.sum(dvals_m * powers, axis=1)

        f = self.curve.frame(t)
        H = f.speed * (1.0 + f.kappa * s)
        grad = f.nu * u_s[:, None] + f.T * (u_t / H)[:, None]
        return u, grad

    # -- layer-potential quadrature ----------------------------------------------

    def _source_table(self, factor):
        key = ("src", factor)
        if key not in self._cont:
            dtn = self.dtn
            Nf = dtn.N * factor
            tf = np.linspace(0.0, TWO_PI, Nf, endpoint=False)
            f = self.curve.frame(tf)
            if factor == 1:
                sig = self.density
            else:
                spec = np.fft.fft(self.density)
                sig = np.fft.ifft(_pad_spectrum(spec, Nf)).real
            self._cont[key] = (f.point, sig * f.speed * (TWO_PI / Nf))
        return self._cont[key]

    def _layer_eval(self, x, factor):
        pts, charge = self._source_table(factor)
        R = self.dtn.kernel_scale
        vals = np.empty(len(x))
        grad = np.empty((len(x), 2))
        rows = max(1, _BLOCK_BUDGET // len(pts))
        for start in range(0, len(x), rows):
            sl = slice(start, start + rows)
            dx = x[sl, :1] - pts[:, 0]  # (rows, Nf)
            dy = x[sl, 1:] - pts[:, 1]
            dist2 = dx * dx + dy * dy
            vals[sl] = -(1.0 / (2 * TWO_PI)) * (np.log(dist2) - 2 * np.log(R)) @ charge
            w = np.divide(charge, dist2, out=dist2)
            grad[sl, 0] = -(1.0 / TWO_PI) * np.einsum("pj,pj->p", dx, w)
            grad[sl, 1] = -(1.0 / TWO_PI) * np.einsum("pj,pj->p", dy, w)
        return vals, grad

    # -- certified harmonic polynomial -------------------------------------------

    def _poly(self):
        """(nodes, inverse scales, coefficients, residual) of u = Re p, or None.

        p is a complex polynomial in a Newton basis at Leja points of 4N
        boundary samples, each basis column scaled by its largest magnitude
        on the samples, fitted to trace_at there by least squares at degrees
        _POLY_START, 2 _POLY_START, ... up to min(_POLY_MAX_DEGREE, N/2).
        The first degree whose max|Re p - trace| on 8N samples offset from
        the fit's is at most _POLY_RTOL of sup holds: by the maximum
        principle that residual bounds the error of Re p inside the domain.
        A pair with no such degree caches None.
        """
        if "poly" in self._cont:
            return self._cont["poly"]
        N = self.dtn.N
        t_fit = np.linspace(0.0, TWO_PI, 4 * N, endpoint=False)
        t_chk = (np.arange(8 * N) + 0.5) * (TWO_PI / (8 * N))
        z, z_chk = (_complex(self.curve.point(t)) for t in (t_fit, t_chk))
        f, f_chk = self.trace_at(t_fit), self.trace_at(t_chk)
        tol = _POLY_RTOL * np.max(np.abs(f_chk))
        # Leja nodes: the sample farthest from the centroid, then each where
        # the last scaled column peaks on the samples
        cols, nodes, inv = [np.ones(len(z), dtype=complex)], [], []
        fit, n = None, _POLY_START
        while fit is None and n <= min(_POLY_MAX_DEGREE, N // 2):
            while len(cols) <= n:
                peak = cols[-1] if nodes else z - np.mean(z)
                nodes.append(z[np.argmax(np.abs(peak))])
                w = cols[-1] * (z - nodes[-1])
                inv.append(1.0 / np.max(np.abs(w)))
                cols.append(w * inv[-1])
            # Re p = sum Re(a_k) Re phi_k - Im(a_k) Im phi_k; Im phi_0 = 0
            phi = np.stack(cols, axis=1)
            x = scipy.linalg.lstsq(
                np.hstack([phi.real, phi.imag[:, 1:]]), f, lapack_driver="gelsy"
            )[0]
            coef = x[: n + 1] - 1j * np.r_[0.0, x[n + 1:]]
            trial = (np.array(nodes), np.array(inv), coef)
            resid = np.max(np.abs(_horner(trial, z_chk)[0].real - f_chk))
            if resid <= tol:
                fit = trial + (float(resid),)
            n *= 2
        self._cont["poly"] = fit
        return fit

    # -- public evaluation ---------------------------------------------------------

    def extension_bands(self):
        """(interior Taylor switch, exterior band half-width) in length units."""
        lam = max(self.eigenvalue, 1.0)
        delta = self.curve.max_tube_halfwidth()
        band_out = min(0.1 * delta, 0.5 / lam)
        # keep the interior Taylor band narrow: the series gradient loses
        # accuracy near 0.3 delta while the upsampled layer quadrature is
        # already converged there
        s_taylor = min(0.5 / lam, 0.15 * delta)
        return s_taylor, band_out

    def evaluate_many(self, x, t=None, s=None):
        """u and grad u at an array of points inside Omega or in the thin
        exterior extension band.

        t and s are the points' foot parameters and signed offsets. A point
        with s <= 0 reads the certified polynomial u = Re p,
        grad u = (Re p', -Im p') of `_poly` when the pair has one. Where t
        and s are not given, the band check and the routing need s, so the
        points are projected here; for a certified pair, only those whose
        side `BoundaryCurve.surely_inside` leaves in doubt, since the points
        it marks inside read p at any depth. Points that do not read p take
        the normal Taylor series when s > -s_taylor, which includes every
        exterior point, and otherwise the layer quadrature, upsampled by
        depth. Memory is bounded for any number of points and any
        upsampling: points go in blocks of _EVAL_CHUNK, and both per-point
        tables, the layer quadrature's (points, sources) and the Taylor
        series' (points, modes), hold at most _BLOCK_BUDGET entries at a
        time."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s_taylor, band_out = self.extension_bands()
        sp_max = float(np.max(self.dtn.speed))
        out_v = np.empty(len(x))
        out_g = np.empty((len(x), 2))
        for start in range(0, len(x), _EVAL_CHUNK):
            sl = slice(start, start + _EVAL_CHUNK)
            xb, vals, grads = x[sl], out_v[sl], out_g[sl]  # views of the outputs
            if t is None:
                # a certified pair's points marked inside read p, routed there
                # by s = -inf; the rest, and all of an uncertified pair's, are
                # projected
                doubt = np.ones(len(xb), dtype=bool)
                if self._poly() is not None:
                    doubt = ~self.curve.surely_inside(xb)
                tb, sb = np.full(len(xb), np.nan), np.full(len(xb), -np.inf)
                if np.any(doubt):
                    tb[doubt], sb[doubt], _ = self.curve.nearest_point_many(xb[doubt])
            else:
                tb, sb = t[sl], s[sl]
            if np.any(sb > band_out * (1 + 1e-12)):
                raise OutOfDomainError(
                    "point beyond the exterior harmonic-extension band"
                )
            inside = sb <= 0
            fit = self._poly() if np.any(inside) else None
            if fit is not None:
                p, dp = _horner(fit, _complex(xb[inside]))
                vals[inside] = p.real
                grads[inside] = np.stack([dp.real, -dp.imag], axis=1)
            todo = ~inside if fit is not None else np.ones_like(inside)
            near = sb > -s_taylor  # includes all exterior points
            idx_near = np.flatnonzero(near & todo)
            modes = len(self._continuation()[0]) if len(idx_near) else 1
            rows = max(1, _BLOCK_BUDGET // (2 * modes))
            for i in range(0, len(idx_near), rows):
                sub = idx_near[i:i + rows]
                vals[sub], grads[sub] = self._taylor_eval(tb[sub], sb[sub])
            idx_far = np.flatnonzero(~near & todo)
            if len(idx_far):
                need = _RESOLUTION_FACTOR * sp_max / (self.dtn.N * -sb[idx_far])
                factors = np.minimum(
                    _MAX_UPSAMPLE, 2 ** np.ceil(np.log2(np.maximum(need, 1.0)))
                ).astype(int)
                for f in np.unique(factors):
                    sub = idx_far[factors == f]
                    vals[sub], grads[sub] = self._layer_eval(xb[sub], int(f))
        return out_v, out_g

    def evaluate(self, x):
        v, g = self.evaluate_many(x)
        return float(v[0]), g[0]


def _complex(points):
    """(P, 2) points as complex numbers x + iy."""
    return points[:, 0] + 1j * points[:, 1]


def _horner(fit, z):
    """p(z) and p'(z) of a `_poly` fit by Horner's rule: the basis is
    phi_0 = 1, phi_k = phi_{k-1} (z - nodes[k-1]) inv[k-1]."""
    nodes, inv, coef = fit[:3]
    p = np.full(len(z), coef[-1])
    dp = np.zeros(len(z), dtype=complex)
    for k in range(len(nodes) - 1, -1, -1):
        y = z - nodes[k]
        dp = (dp * y + p) * inv[k]
        p = coef[k] + y * inv[k] * p
    return p, dp


def _modes_above(spec, floor):
    """Mask of the FFT-ordered modes above floor times the largest magnitude,
    less the unpaired Nyquist mode, which is below noise for resolved pairs."""
    mag = np.abs(spec)
    keep = mag > floor * max(np.max(mag), 1e-300)
    keep[len(spec) // 2] = False
    return keep


def _fold(spec):
    """Fold mode -k of an FFT-ordered spectrum (along axis 0, Nyquist mode
    zero) onto k, exact under Re: Re(c e^{-ikt}) = Re(conj(c) e^{ikt})."""
    h = len(spec) // 2
    return np.concatenate([spec[:1], spec[1:h] + np.conj(spec[:h:-1])])


def _pad_spectrum(spec, Nf):
    N = len(spec)
    out = np.zeros(Nf, dtype=complex)
    h = N // 2
    out[:h] = spec[:h]
    out[Nf - h:] = spec[N - h:]
    # split the Nyquist mode symmetrically
    out[h] = 0.5 * spec[h]
    out[Nf - h] += 0.5 * spec[h]
    return out * (Nf / N)


@dataclass
class SpectrumSlice:
    """Ascending Steklov eigenpairs with their discretization metadata."""

    pairs: list
    dtn: DtnDiscretization

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, j):
        return self.pairs[j]

    @property
    def eigenvalues(self):
        return np.array([p.eigenvalue for p in self.pairs])

    def to_json(self):
        return json.dumps(
            {
                "curve": json.loads(self.dtn.curve.to_json()),
                "curve_hash": self.dtn.curve.content_hash(),
                "n_nodes": self.dtn.N,
                "eigenvalues": [p.eigenvalue for p in self.pairs],
                "traces": [p.trace.tolist() for p in self.pairs],
                "densities": [p.density.tolist() for p in self.pairs],
                "residuals": [p.residual for p in self.pairs],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        curve = BoundaryCurve.from_json(json.dumps(data["curve"]))
        if curve.content_hash() != data["curve_hash"]:
            raise SolverError("curve hash mismatch: stale spectrum cache")
        dtn = build_dtn(curve, data["n_nodes"])
        pairs = [
            SteklovEigenpair(
                eigenvalue=lam,
                trace=np.array(tr),
                density=np.array(de),
                residual=res,
                dtn=dtn,
                index=j,
            )
            for j, (lam, tr, de, res) in enumerate(
                zip(
                    data["eigenvalues"],
                    data["traces"],
                    data["densities"],
                    data["residuals"],
                )
            )
        ]
        return cls(pairs=pairs, dtn=dtn)


def _pin_cluster_bases(evals, evecs, count):
    """Replace the eigensolver's arbitrary basis of every cluster of ascending
    eigenvalues, neighbours within _CLUSTER_RTOL * max(lambda, 1), that
    starts below `count` by a canonical one, in place, and return the mask
    of the columns replaced.

    The basis eigh returns inside a degenerate eigenspace depends on the BLAS
    build and thread count. With V^T = QR, the block VQ = R^T is
    lower-trapezoidal in the first samples; flipping columns to make the
    diagonal of R positive fixes their signs. Singletons are left alone.
    """
    pinned = np.zeros(len(evals), dtype=bool)
    gaps = np.diff(evals) > _CLUSTER_RTOL * np.maximum(np.abs(evals[1:]), 1.0)
    cuts = np.concatenate([[0], np.where(gaps)[0] + 1, [len(evals)]])
    for start, stop in zip(cuts[:-1], cuts[1:]):
        if start >= count:
            break
        if stop - start < 2:
            continue
        _, R = scipy.linalg.qr(evecs[:, start:stop].T, mode="economic")
        signs = np.where(np.diag(R) < 0, -1.0, 1.0)
        evecs[:, start:stop] = (R * signs[:, None]).T
        pinned[start:stop] = True
    return pinned


def solve_spectrum(dtn, count):
    """First `count` Steklov eigenpairs, ascending, arclength-normalized.

    Inside each cluster of eigenvalues closer than 1e-8 * max(lambda, 1) the
    basis is pinned (see `_pin_cluster_bases`), so the traces do not depend
    on the BLAS thread count; a cluster that `count` cuts is pinned whole
    before it is truncated. The eigenvector of a single eigenvalue is signed
    so that its first sample of magnitude at least (1 - 1e-8) times the
    largest is positive: samples that tie in magnitude, as symmetric ones
    do, are not ordered by round-off. Eigenvalues below 1e-8, the constant
    mode's, are returned as exactly 0.
    """
    count = int(count)
    if count < 1:
        raise ValueError(f"need at least one eigenpair, got count = {count}")
    if count > dtn.N // 4:
        raise ValueError("requested more eigenpairs than the grid resolves (N/4)")
    A = dtn.symmetrized()
    As = 0.5 * (A + A.T)
    try:
        evals, evecs = scipy.linalg.eigh(As)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"dense eigensolver failed: {exc}") from exc
    pinned = _pin_cluster_bases(evals, evecs, count)[:count]
    evals = evals[:count]
    evecs = evecs[:, :count]
    if evals[0] < -1e-6:
        raise SolverError(f"spurious negative eigenvalue {evals[0]:.3e}")
    # the constant mode's eigenvalue is round-off of either sign, a few
    # 1e-15 that depend on the BLAS thread count
    evals = np.where(evals < _CLUSTER_RTOL, 0.0, evals)

    sqw = np.sqrt(dtn.weights)
    pairs = []
    for j in range(count):
        f = evecs[:, j] / sqw
        norm = np.sqrt(np.sum(dtn.weights * f**2))
        f = f / norm
        # sign of a single eigenvector: its first sample within 1e-8 of the
        # largest magnitude is positive, so round-off cannot break a tie
        a = np.abs(f)
        imax = int(np.argmax(a >= (1.0 - 1e-8) * np.max(a)))
        if not pinned[j] and f[imax] < 0:
            f = -f
        lam = float(evals[j])
        resid = float(np.max(np.abs(dtn.L @ f - lam * f)))
        sigma = dtn.solve_density(f)
        pairs.append(
            SteklovEigenpair(
                eigenvalue=lam,
                trace=f,
                density=sigma,
                residual=resid,
                dtn=dtn,
                index=j,
            )
        )
    return SpectrumSlice(pairs=pairs, dtn=dtn)


# -- interior estimate check ----------------------------------------------------------


@dataclass
class InteriorBoundReport:
    center: np.ndarray
    radius: float
    sup_half: float
    mean_sq_root: float
    constant: float


def interior_sup_bound_check(pair, center, radius):
    """Empirical constant in sup_{B(r/2)} |u| <= C (mean of u^2 over B(r))^(1/2)."""
    center = np.asarray(center, dtype=float)
    gap = pair.curve.distance_to_boundary(center[None, :])[0]
    if gap <= radius:
        raise OutOfDomainError("ball not contained in the domain")

    theta = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    integral = _polar_integral(
        lambda p: pair.evaluate_many(p)[0] ** 2, center, theta, radius, 48
    )
    mean_sq = integral / (np.pi * radius**2)

    half = 0.5 * radius
    rr2, tt2 = np.meshgrid(np.linspace(0, half, 32), theta, indexing="ij")
    pts2 = center + np.stack(
        [rr2 * np.cos(tt2), rr2 * np.sin(tt2)], axis=-1
    ).reshape(-1, 2)
    vals2, _ = pair.evaluate_many(pts2)
    sup_half = float(np.max(np.abs(vals2)))
    root = float(np.sqrt(mean_sq))
    return InteriorBoundReport(
        center=center,
        radius=radius,
        sup_half=sup_half,
        mean_sq_root=root,
        constant=sup_half / root if root > 0 else np.inf,
    )
