"""Dirichlet-to-Neumann discretization and Steklov eigenpairs on a closed curve.

The harmonic extension is represented by a single-layer potential u = S[sigma].
The boundary operator uses a split of the log kernel into the periodic
singular part -(1/4pi) log(4 sin^2((t-tau)/2)), integrated exactly on
trigonometric interpolants by a circulant, plus a smooth remainder handled by
the plain trapezoid rule (Kress, Linear Integral Equations, 3rd ed. (2014),
12.3); the parts that depend only on t - tau are one circulant column. The
kernel is rescaled by the curve diameter so the single-layer matrix stays
away from the unit-capacity degeneracy.

Inside the domain u is evaluated, where the fit is certified, as Re p for
one complex polynomial p per eigenpair: a least-squares fit to the trace in a
Newton basis at Leja points of the boundary (Reichel, BIT 30 (1990)), whose
boundary residual bounds the interior error by the maximum principle. Inside
a pair without a certificate, u = Re f for the analytic f = u + iv whose
boundary values follow from the trace (dv/dt = |gamma'| du/dnu), evaluated
by the barycentric Cauchy formula (Helsing & Ojala, J. Comput. Phys. 227
(2008)), accurate up to the curve. `evaluate_inside` reads these two with
no inside test, for points inside by construction (polar grids, the star
map of the domain mass, the mirror points of the reflected transform);
`evaluate_many` reads them at points of the closed domain, up to a
round-off outside the curve, and rejects any other point.
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

_MODE_FLOOR = 1e-14
_CLUSTER_RTOL = 1e-8  # eigenvalues this close share one pinned basis
_EVAL_CHUNK = 4096  # points per block of evaluate_many and of evaluate_inside
_BLOCK_BUDGET = 2**15  # entries of one Cauchy block table, points of one trace block
_POLY_RTOL = 1e-13  # certificate: boundary residual of the fit over sup of the trace
_POLY_START = 16  # first degree of the doubling degree search
_POLY_MAX_DEGREE = 256  # last degree tried, and at most N/2


def _log_circulant_column(N, R):
    """Column k = i - j mod N of the circulant part of the single-layer matrix
    before the arclength factor |gamma'_j|.

    It folds together three functions of t_i - t_j alone: the circulant
    applying f -> -(1/4pi) int log(4 sin^2((t-tau)/2)) f(tau) dtau, exact on
    trigonometric polynomials of degree < N/2 (Fourier symbol 1/(2|m|) for
    m != 0 and 0 for m = 0); the term (1/N) log|2 sin(pi k/N)| that the
    smooth remainder adds back, for k != 0; and the kernel scale (1/N) log R.
    """
    m = np.fft.fftfreq(N, 1.0 / N)
    symbol = np.zeros(N)
    nz = m != 0
    symbol[nz] = 1.0 / (2.0 * np.abs(m[nz]))
    col = np.real(np.fft.ifft(symbol)) + np.log(R) / N
    col[1:] += np.log(np.abs(2.0 * np.sin(np.pi * np.arange(1, N) / N))) / N
    return col


class DtnDiscretization:
    """Dense Nystrom discretization of the Dirichlet-to-Neumann map.

    The single-layer matrix S is LU-factored once; its condition is read
    from that factor by LAPACK's 1-norm estimator (dgecon: Hager, SIAM J.
    Sci. Stat. Comput. 5 (1984); Higham, ACM TOMS 14 (1988)), and an
    estimate above 1e12 raises ConditioningError. On the built-in curves at
    N = 512 and 1024 the estimate equals the exact kappa_1 and is at least
    the 2-norm condition number, so the gate is no looser than an SVD's.
    L = (I/2 + K') S^-1 comes from one transposed solve with the factor.

    Set-up builds three N x N tables from the node coordinates: dx, dy and
    dist^2 = dx^2 + dy^2. K' is built in place in dx and S in place in
    dist^2, whose kernel -(1/2pi) log(dist/R) splits into -(1/2N) log dist^2
    and one circulant column of length N (`_log_circulant_column`); S is
    then LU-factored in place. The traced peak is about 4 N^2 doubles (the
    fourth is the product dy^2), and the object keeps 2 N^2: L and the LU
    factor of S.
    """

    def __init__(self, curve: BoundaryCurve, N: int):
        if not isinstance(N, (int, np.integer)):
            raise ValueError(f"node count must be an integer, got {N!r}")
        if N % 2 != 0 or N < 64:
            raise ValueError("node count must be even and at least 64")
        self.curve = curve
        self.N = N = int(N)
        self.t = t = np.linspace(0.0, TWO_PI, N, endpoint=False)
        f = curve.frame(t)
        self.speed = f.speed
        self.kappa = f.kappa
        self.weights = (TWO_PI / N) * self.speed
        self.kernel_scale = R = 2.0 * curve.diameter

        # dx[i, j] = x_i - x_j and dy alike, each the transpose of a C-order
        # table: Fortran order lets lu_factor overwrite S, built in dist^2
        x, y = f.point[:, 0], f.point[:, 1]
        dx = (x - x[:, None]).T
        dy = (y - y[:, None]).T
        S = dx * dx
        S += dy * dy
        np.fill_diagonal(S, 1.0)

        # adjoint double layer, in place in dx: kernel
        # -(1/2pi) (x-y).nu(x)/|x-y|^2, smooth on an analytic curve with
        # diagonal limit -kappa/(4pi), times the weights; then I/2 + K'
        Kp = dx
        Kp *= f.nu[:, :1]
        dy *= f.nu[:, 1:]
        Kp += dy
        del dy
        Kp /= S
        Kp *= -self.speed / N
        Kp.flat[:: N + 1] = 0.5 - self.kappa * self.speed / (2.0 * N)

        # single layer, in place in dist^2: (2pi/N) times the smooth remainder
        # -(1/2pi) log(dist/(R |2 sin((t_i - t_j)/2)|)) is -(1/2N) log dist^2
        # plus a function of i - j mod N, folded with the exact circulant
        # into one column; entry (i, j) of the sliding view reads
        # col[(i - j) % N]
        col = _log_circulant_column(N, R)
        np.log(S, out=S)
        S *= -0.5 / N
        S += np.lib.stride_tricks.sliding_window_view(np.r_[col[1:], col], N)[:, ::-1]
        S.flat[:: N + 1] = col[0] - np.log(self.speed) / N
        S *= self.speed

        norm1 = np.max(np.sum(np.abs(S), axis=0))
        self._S_lu = scipy.linalg.lu_factor(S, overwrite_a=True)
        rcond, _ = scipy.linalg.lapack.dgecon(self._S_lu[0], norm1, norm="1")
        cond = 1.0 / rcond if rcond > 0 else np.inf
        if cond > 1e12:
            raise ConditioningError(
                f"single-layer matrix condition number {cond:.3e}; "
                "rescale the domain away from unit logarithmic capacity"
            )
        # L = (I/2 + K') S^-1, from S^T L^T = (I/2 + K')^T
        self.L = scipy.linalg.lu_solve(self._S_lu, Kp.T, trans=1).T

    def solve_density(self, f):
        """Single-layer density sigma with S[sigma] = f on the nodes."""
        return scipy.linalg.lu_solve(self._S_lu, f)

    def symmetrized(self):
        """W^(1/2) L W^(-1/2) where W is the diagonal of arclength weights, as
        a new array: `solve_spectrum` symmetrizes it in place."""
        sqw = np.sqrt(self.weights)
        return self.L * (sqw[:, None] / sqw[None, :])


def build_dtn(curve, N):
    """Dense DtN matrix on N equispaced collocation nodes; raises
    ValueError unless N is an even integer of at least 64, and
    ConditioningError when the 1-norm condition estimate of the
    single-layer matrix exceeds 1e12 (see `DtnDiscretization`)."""
    return DtnDiscretization(curve, N)


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
            fhat[~_modes_above(fhat)] = 0.0
            folded = _fold(fhat)
            k = np.flatnonzero(folded)
            self._cont["modes"] = (k, folded[k])
        return self._cont["modes"]

    def _trace_horner(self):
        """(k0, g, q): trace = Re e^{ik0 t} q(e^{igt}), with k0 the lowest
        mode, g the gcd of the gaps k - k0 (1 for at most one mode) and q[j]
        the coefficient of mode k0 + jg, zero between the kept modes."""
        if "horner" not in self._cont:
            k, c = self._trace_modes()
            k0 = int(k[0]) if len(k) else 0
            g = int(np.gcd.reduce(k - k0)) or 1
            q = np.zeros((int(k[-1]) - k0) // g + 1 if len(k) else 0, dtype=complex)
            q[(k - k0) // g] = c
            self._cont["horner"] = (k0, g, q)
        return self._cont["horner"]

    def trace_at(self, t, derivative=False):
        """Trigonometric interpolation of the boundary trace at parameters t;
        with derivative, the pair (trace, its t-derivative), the second from
        the coefficients ik c_k in the same recurrence. The values come
        flattened, one per entry of t.

        Horner's rule in z = e^{igt} with the stride g of `_trace_horner`,
        backward stable on the unit circle (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed. (2002), 5.1): at most two exps
        (`_phase`) and (k_max - k0)/g complex multiply-adds per point, no
        (points, modes) table and no BLAS, so the values do not depend on the
        BLAS thread count. Points go in blocks of _BLOCK_BUDGET, so memory
        stays bounded; each value is elementwise and does not depend on the
        block.
        """
        t = np.asarray(t, dtype=float).ravel()
        k0, g, q = self._trace_horner()
        rows = [q, 1j * (k0 + g * np.arange(len(q))) * q] if derivative else [q]
        out = np.zeros((len(rows), len(t)))
        for start in range(0, len(t) if len(q) else 0, _BLOCK_BUDGET):
            tb = t[start:start + _BLOCK_BUDGET]
            z = _phase(g, tb) if len(q) > 1 else None
            shift = _phase(k0, tb) if k0 else 1.0
            for i, row in enumerate(rows):
                p = np.full(len(tb), row[-1])
                for c in row[-2::-1].tolist():
                    p *= z
                    p += c
                p *= shift
                out[i, start:start + len(tb)] = p.real
        return (out[0], out[1]) if derivative else out[0]

    # -- barycentric Cauchy integral ---------------------------------------------

    def _cauchy(self):
        """(nodes, weighted data, data) of the barycentric Cauchy formula for the
        analytic f = u + iv with u = Re f.

        On the curve dv/dt = |gamma'| du/dnu (Cauchy-Riemann), and du/dnu is
        L trace: the pair's own discrete DtN map, so f extends the trace as
        the single layer does. v is its spectral antiderivative, less the
        zero mode (the flux) and the Nyquist mode, and f' = (df/dt) / gamma'.
        data holds f and f' by column; the sums take the weights
        w = gamma'(t_j) 2 pi / N times (1, f, f'), and a contiguous copy of
        the first two columns for the values alone.
        """
        if "cauchy" not in self._cont:
            dtn = self.dtn
            N = dtn.N
            k = np.fft.fftfreq(N, 1.0 / N)
            k[N // 2] = 0.0
            dv = np.fft.fft(dtn.speed * (dtn.L @ self.trace))
            v = np.fft.ifft(np.divide(dv, 1j * k, out=np.zeros(N, complex), where=k != 0))
            f = self.trace + 1j * v.real
            fr = self.curve.frame(dtn.t)
            dz = _complex(fr.velocity)
            data = np.stack([f, np.fft.ifft(1j * k * np.fft.fft(f)) / dz], axis=1)
            w = dz[:, None] * (TWO_PI / N)
            wd = w * np.c_[np.ones(N), data]
            self._cont["cauchy"] = (_complex(fr.point), wd, wd[:, :2].copy(), data)
        return self._cont["cauchy"]

    def _cauchy_eval(self, x, gradient=True):
        """Value and Cartesian gradient of u = Re f at points x inside the
        curve, or with gradient=False the value alone: f(z) = sum w f /
        (zeta - z) / sum w / (zeta - z), and f' alike with the same
        denominator; a point on a node reads that node's data. The values
        alone sum two columns of weights, not three."""
        nodes, wd, wd_values, data = self._cauchy()
        if not gradient:
            wd, data = wd_values, data[:, :1]
        z = _complex(x)
        out = np.empty((len(z), wd.shape[1] - 1), dtype=complex)
        rows = max(1, _BLOCK_BUDGET // len(nodes))
        for start in range(0, len(z), rows):
            d = nodes - z[start:start + rows, None]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                sums = (1.0 / d) @ wd
                block = sums[:, 1:] / sums[:, :1]
            # only a point on a node, or within 1e-308 of one, has 1/d = inf
            hit = np.flatnonzero(~np.isfinite(sums[:, 0]))
            block[hit] = data[np.argmin(np.abs(d[hit]), axis=1)]
            out[start:start + rows] = block
        if not gradient:
            return out[:, 0].real
        grad = np.stack([out[:, 1].real, -out[:, 1].imag], axis=1)
        return out[:, 0].real, grad

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
            resid = np.max(np.abs(_horner(trial, z_chk, derivative=False).real - f_chk))
            if resid <= tol:
                fit = trial + (float(resid),)
            n *= 2
        self._cont["poly"] = fit
        return fit

    # -- public evaluation ---------------------------------------------------------

    def evaluate_inside(self, x, gradient=True):
        """u, or with gradient the pair (u, grad u), at points x inside the
        curve: the certified polynomial of `_poly`, u = Re p and
        grad u = (Re p', -Im p'), or else the Cauchy formula of `_cauchy`,
        in blocks of _EVAL_CHUNK points. Without gradient neither p' nor the
        Cauchy sums of f' are formed, and u is the same to the bit.

        Precondition: every point lies inside; nothing checks it, as there
        is no inside test and no projection. A point a round-off outside, as
        before a near-tangent ray's computed exit, reads what a point a
        round-off inside reads, to round-off (Re p is harmonic across the
        curve and the discrete Cauchy sums are smooth off the nodes); a
        point farther out reads a value with no bound."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        fit = self._poly()
        vals = np.empty(len(x))
        grads = np.empty((len(x), 2))
        for start in range(0, len(x), _EVAL_CHUNK):
            sl = slice(start, start + _EVAL_CHUNK)
            if fit is None and gradient:
                vals[sl], grads[sl] = self._cauchy_eval(x[sl])
            elif fit is None:
                vals[sl] = self._cauchy_eval(x[sl], gradient=False)
            elif gradient:
                p, dp = _horner(fit, _complex(x[sl]))
                vals[sl] = p.real
                grads[sl] = np.stack([dp.real, -dp.imag], axis=1)
            else:
                vals[sl] = _horner(fit, _complex(x[sl]), derivative=False).real
        return (vals, grads) if gradient else vals

    def evaluate_many(self, x):
        """u and grad u at an array of points of the closed domain: every
        point with a signed offset s <= curve.round_off reads
        `evaluate_inside`, and any other point raises OutOfDomainError (a
        non-finite one, ValueError from the projection). Only the points
        that `BoundaryCurve.surely_inside` leaves in doubt are projected, in
        blocks of _EVAL_CHUNK points, so memory stays bounded for any number
        of points. Callers whose points are inside by construction call
        `evaluate_inside` directly."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s = np.full(len(x), -np.inf)  # points marked inside need no foot point
        for start in range(0, len(x), _EVAL_CHUNK):
            inside = self.curve.surely_inside(x[start:start + _EVAL_CHUNK])
            doubt = start + np.flatnonzero(~inside)
            if len(doubt):
                s[doubt] = self.curve.nearest_point_many(x[doubt])[1]
        if not np.all(s <= self.curve.round_off):
            raise OutOfDomainError("point outside the curve by more than round-off")
        return self.evaluate_inside(x)

    def evaluate(self, x):
        v, g = self.evaluate_many(x)
        return float(v[0]), g[0]


def _complex(points):
    """(P, 2) points as complex numbers x + iy."""
    return points[:, 0] + 1j * points[:, 1]


def _horner(fit, z, derivative=True):
    """p(z) of a `_poly` fit by Horner's rule and, with derivative, the pair
    (p(z), p'(z)); the basis is phi_0 = 1, phi_k = phi_{k-1} (z - nodes[k-1])
    inv[k-1]. The p recurrence does not read p', so p is the same either way."""
    nodes, inv, coef = fit[:3]
    p = np.full(len(z), coef[-1])
    dp = np.zeros(len(z), dtype=complex)
    for k in range(len(nodes) - 1, -1, -1):
        y = z - nodes[k]
        if derivative:
            dp = (dp * y + p) * inv[k]
        p = coef[k] + y * inv[k] * p
    return (p, dp) if derivative else p


def _modes_above(spec):
    """Mask of the FFT-ordered modes above _MODE_FLOOR times the largest
    magnitude, less the unpaired Nyquist mode, which is below noise for
    resolved pairs."""
    mag = np.abs(spec)
    keep = mag > _MODE_FLOOR * max(np.max(mag), 1e-300)
    keep[len(spec) // 2] = False
    return keep


def _phase(k, t):
    """e^{ikt} for an integer k > 0, free of the rounding of the product kt,
    up to half an ulp of kt (1.4e-14 at kt = 245). kt is exact when k is a
    power of two. Otherwise t splits into hi, a multiple of 2^-40, and
    lo = t - hi: k hi is exact for k <= 2^10 and |t| < 8, and e^{ik lo} is
    1 + ik lo to within (k lo)^2 / 2 < 2^-62."""
    if k & (k - 1) == 0:
        return np.exp(1j * (k * t))
    hi = np.rint(t * 2.0**40) * 2.0**-40
    return np.exp(1j * (k * hi)) * (1.0 + 1j * (k * (t - hi)))


def _fold(spec):
    """Fold mode -k of an FFT-ordered spectrum (Nyquist mode zero) onto k,
    exact under Re: Re(c e^{-ikt}) = Re(conj(c) e^{ikt})."""
    h = len(spec) // 2
    return np.concatenate([spec[:1], spec[1:h] + np.conj(spec[:h:-1])])


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


def _cluster_starts(evals):
    """Mask over evals[1:] of the ascending eigenvalues that start a new
    cluster: more than _CLUSTER_RTOL * max(lambda, 1) above the previous."""
    return np.diff(evals) > _CLUSTER_RTOL * np.maximum(np.abs(evals[1:]), 1.0)


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
    cuts = np.concatenate([[0], np.flatnonzero(_cluster_starts(evals)) + 1, [len(evals)]])
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

    Only the first m eigenpairs are computed (eigh with subset_by_index).
    m is count + 2, then count + 4, count + 8, ..., until an eigenvalue
    beyond index count - 1 starts a new cluster, so that the cluster
    `count` cuts is complete. The first m completes a cut pair, the
    clusters of symmetric curves (disk eigenspaces, the near-degenerate
    tail of an ellipse), in one call; each growth repeats eigh's reduction
    to tridiagonal form. Residuals max|L f - lambda f| and densities are
    computed for all pairs at once.
    """
    if not isinstance(count, (int, np.integer)):
        raise ValueError(f"eigenpair count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"need at least one eigenpair, got count = {count}")
    if count > dtn.N // 4:
        raise ValueError("requested more eigenpairs than the grid resolves (N/4)")
    # symmetrized in place (A + A^T is exactly symmetric); eigh does not
    # overwrite it, as a grown subset reads it again
    A = dtn.symmetrized()
    A += A.T
    A *= 0.5
    extra = 2
    while True:
        m = min(count + extra, dtn.N)
        try:
            evals, evecs = scipy.linalg.eigh(A, subset_by_index=[0, m - 1])
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverError(f"dense eigensolver failed: {exc}") from exc
        if m == dtn.N or np.any(_cluster_starts(evals)[count - 1:]):
            break
        extra *= 2
    pinned = _pin_cluster_bases(evals, evecs, count)[:count]
    evals = evals[:count]
    evecs = evecs[:, :count]
    if evals[0] < -1e-6:
        raise SolverError(f"spurious negative eigenvalue {evals[0]:.3e}")
    # the constant mode's eigenvalue is round-off of either sign, a few
    # 1e-15 that depend on the BLAS thread count
    evals = np.where(evals < _CLUSTER_RTOL, 0.0, evals)

    sqw = np.sqrt(dtn.weights)
    F = evecs / sqw[:, None]
    for j in range(count):
        f = F[:, j]
        f /= np.sqrt(np.sum(dtn.weights * f**2))
        # sign of a single eigenvector: its first sample within 1e-8 of the
        # largest magnitude is positive, so round-off cannot break a tie
        a = np.abs(f)
        imax = int(np.argmax(a >= (1.0 - 1e-8) * np.max(a)))
        if not pinned[j] and f[imax] < 0:
            f *= -1.0
    resid = np.max(np.abs(dtn.L @ F - F * evals), axis=0)
    sigma = dtn.solve_density(F)
    pairs = [
        SteklovEigenpair(
            eigenvalue=float(evals[j]),
            trace=F[:, j].copy(),
            density=sigma[:, j].copy(),
            residual=float(resid[j]),
            dtn=dtn,
            index=j,
        )
        for j in range(count)
    ]
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
    """Empirical constant in sup_{B(r/2)} |u| <= C (mean of u^2 over B(r))^(1/2).

    One projection of the center checks that B(center, r) lies inside, else
    OutOfDomainError; then u is read by `evaluate_inside`, values only.
    Raises ValueError unless r is positive and finite."""
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"ball radius must be positive and finite, got {radius}")
    center = np.asarray(center, dtype=float)
    _, s, _ = pair.curve.nearest_point_many(center[None, :])
    if not s[0] < -radius:
        raise OutOfDomainError("ball not contained in the domain")

    theta = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    integral = _polar_integral(
        lambda p: pair.evaluate_inside(p, gradient=False) ** 2,
        center, theta, radius, 48,
    )
    mean_sq = integral / (np.pi * radius**2)

    half = 0.5 * radius
    rr2, tt2 = np.meshgrid(np.linspace(0, half, 32), theta, indexing="ij")
    pts2 = center + np.stack(
        [rr2 * np.cos(tt2), rr2 * np.sin(tt2)], axis=-1
    ).reshape(-1, 2)
    sup_half = float(np.max(np.abs(pair.evaluate_inside(pts2, gradient=False))))
    root = float(np.sqrt(mean_sq))
    return InteriorBoundReport(
        center=center,
        radius=radius,
        sup_half=sup_half,
        mean_sq_root=root,
        constant=sup_half / root if root > 0 else np.inf,
    )
