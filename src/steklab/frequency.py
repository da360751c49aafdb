"""Frequency functions for harmonic and general second-order elliptic fields.

For a harmonic u, the frequency of a ball B(x0, r) is N(r) = r D(r) / H(r)
with H the boundary integral of u^2 and D the Dirichlet energy. For solutions
of Div(A grad w) + b . grad w + c w = 0 the energy is replaced by
I(r) = int (|grad w|^2 + w b . grad w + c w^2), defined at centers where
A(x0) = I. The module also builds the exponentially weighted transform
v = u exp(lambda d) of a Steklov eigenfunction, which has vanishing normal
derivative on the boundary and extends across it by reflection as a solution
of such an equation.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, InvalidCenterError, OutOfTubeError
from .geometry import TubeNeighborhood, norm2

TWO_PI = 2.0 * np.pi

_QUAD_RTOL = 1e-11
_H_FLOOR = 1e-280
_POLAR_POINTS = 2**15  # quadrature points per center block of _polar_integral


# -- fields -----------------------------------------------------------------------


class ScalarField:
    """A scalar function with gradient: `func` maps an (P, 2) array to
    (values, gradients). The function raises its own error at points outside
    its domain."""

    def __init__(self, func):
        self._func = func

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._func(x)


def harmonic_polynomial(terms):
    """Plane field sum_k a_k Re z^k + b_k Im z^k from (k, a, b) triples."""
    terms = [(int(k), float(a), float(b)) for k, a, b in terms]

    def func(x):
        z = x[:, 0] + 1j * x[:, 1]
        vals = np.zeros(len(x))
        grads = np.zeros((len(x), 2))
        for k, a, b in terms:
            zk = z**k
            vals += a * np.real(zk) + b * np.imag(zk)
            dz = k * z ** (k - 1) if k > 0 else np.zeros_like(z)
            grads[:, 0] += a * np.real(dz) + b * np.imag(dz)
            grads[:, 1] += -a * np.imag(dz) + b * np.real(dz)
        return vals, grads

    return ScalarField(func)


class CoefficientField:
    """Coefficients (A, b, c) of Div(A grad w) + b . grad w + c w = 0.

    `func` maps (P, 2) points to the triple (A, b, c) of shapes (P, 2, 2),
    (P, 2) and (P,); calling the field returns it.
    """

    def __init__(self, func):
        self._func = func

    def __call__(self, x):
        return self._func(np.atleast_2d(np.asarray(x, dtype=float)))

    def check_assumptions(self, probes, pairs=None):
        """Measured (alpha, gamma, K) over probe points and probe pairs:
        ellipticity alpha, Lipschitz constant gamma of A, and the sup bound
        K of all coefficients. `pairs` holds two integer index arrays into
        the probes, whose A they reuse."""
        probes = np.atleast_2d(probes)
        A, b, c = self(probes)
        alpha = float(np.min(np.linalg.eigvalsh(A)))
        K = float(
            np.max(np.sum(np.abs(A), axis=(1, 2)))
            + np.max(np.sum(np.abs(b), axis=1))
            + np.max(np.abs(c))
        )
        gamma = 0.0
        if pairs is not None:
            i, j = pairs
            dA = np.abs(A[i] - A[j]).max(axis=(1, 2))
            dist = norm2(probes[i] - probes[j])
            good = dist > 1e-12
            if np.any(good):
                gamma = float(np.max(dA[good] / dist[good]))
        return alpha, gamma, K


def zero_coefficients():
    """Laplace coefficients: A = I, b = 0, c = 0."""

    def func(x):
        n = len(x)
        return np.tile(np.eye(2), (n, 1, 1)), np.zeros((n, 2)), np.zeros(n)

    return CoefficientField(func)


# -- circle and disk quadrature ---------------------------------------------------


def _refine(quad, n, n_max, tol):
    """quad(n, i) for n, 2n, 4n, ... on the entries i still open; an entry
    closes when its last two values agree to relative tol.

    quad returns the values at order n of the entries i: every entry on the
    first call, where i = slice(None), then the open ones by index (the
    convention of nodal._roots). Returns the last values, a float when quad
    returns one, with one RuntimeWarning giving n and the largest last
    relative change if any entry was still open at n_max.
    """
    first = quad(n, slice(None))
    cur = np.array(first, dtype=float, ndmin=1)
    change = np.full(cur.shape, np.inf)
    i = np.arange(len(cur))
    while n < n_max and len(i):
        n *= 2
        new = quad(n, i)
        change[i] = np.abs(new - cur[i])
        cur[i] = new
        i = i[~(change[i] <= tol * np.maximum(np.abs(cur[i]), 1e-300))]
    if len(i):
        rel = np.max(change[i] / np.maximum(np.abs(cur[i]), 1e-300))
        warnings.warn(
            f"quadrature unconverged at n = {n}: last relative change "
            f"{rel:.3e} above tol {tol:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return cur if np.ndim(first) else float(cur[0])


@functools.lru_cache(maxsize=32)
def _gauss(n):
    """Gauss-Legendre nodes and weights of order n on [-1, 1]. The arrays
    are cached and shared by every caller, so they are read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _polar_integral(integrand, center, theta, extent, n_r):
    """Integral of integrand over {c + rho (cos t, sin t) : t in theta,
    0 <= rho <= extent} about each center c.

    center is one point (2,), giving a float, or C points (C, 2), giving C
    integrals; extent is a scalar, one radius per ray, or one row of those
    per center. Each ray carries n_r Gauss-Legendre nodes in rho and the
    angular weight 2 pi / len(theta). integrand maps (P, 2) points to P
    values; rays of zero extent are not evaluated. Centers go to the
    integrand in blocks of at most _POLAR_POINTS quadrature points (one
    center when it has more), and each center's integral is the sum of its
    own row, so it does not depend on the blocks.
    """
    center = np.asarray(center, dtype=float)
    centers = np.atleast_2d(center)
    C, n = len(centers), len(theta)
    nodes, wts = _gauss(n_r)
    extent = np.broadcast_to(np.asarray(extent, dtype=float), (C, n))
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    step = max(1, _POLAR_POINTS // (n_r * n))
    out = np.zeros(C)
    for lo in range(0, C, step):
        # (centers, nodes, rays): per center, ray index fastest
        ext = extent[lo:lo + step, None, :]
        rho = 0.5 * ext * (nodes[:, None] + 1.0)
        w = rho * (TWO_PI / n) * (0.5 * ext * wts[:, None])
        keep = rho > 0
        vals = np.zeros(rho.shape)
        if keep.any():
            pts = centers[lo:lo + step, None, None] + rho[..., None] * dirs
            vals[keep] = integrand(pts[keep])
        out[lo:lo + step] = np.sum((vals * w).reshape(len(ext), -1), axis=1)
    return float(out[0]) if center.ndim == 1 else out


def _check_radius(r):
    if not 0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")


def _circle_samples(center, r, M):
    _check_radius(r)
    theta = np.linspace(0.0, TWO_PI, M, endpoint=False)
    pts = center + r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return pts


def h_of_r(field, center, r):
    """Integral of field^2 over the circle of radius r, refined from 64 to 4096 nodes."""
    center = np.asarray(center, dtype=float)

    def quad(M, _):
        vals, _ = field(_circle_samples(center, r, M))
        return r * (TWO_PI / M) * float(np.sum(vals**2))

    return _refine(quad, 64, 4096, _QUAD_RTOL)


def _disk_integral(integrand, center, r, tol=_QUAD_RTOL):
    _check_radius(r)
    # 24 to 96 radial nodes; the 64 angular nodes double with the radial ones

    def quad(n_r, _):
        theta = np.linspace(0.0, TWO_PI, 64 * (n_r // 24), endpoint=False)
        return _polar_integral(integrand, center, theta, r, n_r)

    return _refine(quad, 24, 96, tol)


def d_of_r(field, center, r):
    """Dirichlet energy of the field over the disk of radius r."""
    center = np.asarray(center, dtype=float)

    def integrand(pts):
        _, g = field(pts)
        return np.sum(g**2, axis=1)

    return _disk_integral(integrand, center, r)


def i_of_r(field, coeffs, center, r):
    """Generalized energy int (grad w . A grad w + w b . grad w + c w^2)."""
    center = np.asarray(center, dtype=float)
    dev = np.max(np.abs(coeffs(center)[0][0] - np.eye(2)))
    if dev > 1e-8:
        raise InvalidCenterError(
            f"leading coefficient at the center deviates from the identity by {dev:.3e}"
        )

    def integrand(pts):
        v, g = field(pts)
        A, b, c = coeffs(pts)
        quad = np.einsum("pi,pij,pj->p", g, A, g)
        return quad + v * np.einsum("pi,pi->p", b, g) + c * v**2

    return _disk_integral(integrand, center, r)


# -- frequency profiles -----------------------------------------------------------


def _frequency(field, center, r, coeffs=None):
    """(H, E, N) at radius r: H from h_of_r, the energy E from d_of_r, or
    from i_of_r when coeffs is given, and N = r E / H. E and N are nan when
    H <= _H_FLOOR, where the frequency is undefined."""
    H = h_of_r(field, center, r)
    if H <= _H_FLOOR:
        return H, np.nan, np.nan
    E = d_of_r(field, center, r) if coeffs is None else i_of_r(field, coeffs, center, r)
    return H, E, r * E / H


@dataclass
class FrequencyProfile:
    """Frequency data N(r) = r E(r) / H(r) on a grid of radii.

    In harmonic mode the energy E is the Dirichlet integral D; in generalized
    mode it is the full form I.
    """

    center: np.ndarray
    radii: np.ndarray
    H: np.ndarray
    E: np.ndarray
    N: np.ndarray
    mode: str = "harmonic"


def geometric_radii(r_min, r_max):
    """Radii r_min 2^(k/8) from r_min up to and including about r_max."""
    if not 0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    ratio = 2 ** 0.125
    n = int(np.floor(np.log(r_max / r_min) / np.log(ratio))) + 1
    return r_min * ratio ** np.arange(n)


def frequency_profile(field, center, radii, coeffs=None):
    """Frequency profile over a radius grid; truncated at the first radius
    where H <= _H_FLOOR."""
    center = np.asarray(center, dtype=float)
    radii = np.sort(np.asarray(radii, dtype=float))
    rows = []
    for r in radii:
        H, E, N = _frequency(field, center, r, coeffs)
        if H <= _H_FLOOR:
            break
        rows.append((H, E, N))
    H, E, N = np.array(rows).reshape(-1, 3).T
    mode = "harmonic" if coeffs is None else "generalized"
    return FrequencyProfile(center, radii[: len(rows)], H, E, N, mode)


# -- identity and inequality checks ------------------------------------------------


@dataclass
class MonotonicityReport:
    worst_violation: float
    passed: bool


def check_monotonicity(profile):
    """Worst relative decrease of N along the radius grid (harmonic mode)."""
    if profile.mode != "harmonic":
        raise ValueError("monotonicity is asserted for harmonic profiles only")
    N = profile.N
    worst = np.max(N[:-1] - N[1:], initial=0.0)
    scale = max(np.max(np.abs(N)), 1e-300)
    return MonotonicityReport(worst_violation=float(worst), passed=worst <= 1e-6 * scale)


def check_hprime_identity(field, center, r, coeffs=None):
    """Residual of d/dr log(H(r)/r) = 2N(r)/r, Richardson-extrapolated from
    central differences at steps r/1000 and r/2000.

    Harmonic mode returns the relative residual. Generalized mode returns the
    measured bounded remainder (the identity holds up to an O(1) term there).
    """
    center = np.asarray(center, dtype=float)
    h = 1e-3 * r

    def logH(rr):
        return np.log(h_of_r(field, center, rr))

    def deriv(hh):
        return (logH(r + hh) - logH(r - hh)) / (2 * hh)

    lhs = (4 * deriv(h / 2) - deriv(h)) / 3 - 1.0 / r
    H, E, _ = _frequency(field, center, r, coeffs)
    rhs = 2.0 * E / H
    if coeffs is None:
        return abs(lhs - rhs) / max(abs(rhs), 1.0 / r)
    return lhs - rhs


@dataclass
class DoublingCheckReport:
    circle_ratio: float
    ball_ratio: float
    bound: float
    frequency: float


def _ball_mean(field, center, r):
    val = _disk_integral(lambda p: field(p)[0] ** 2, center, r)
    return val / (np.pi * r**2)


def _circle_mean(field, center, r):
    return h_of_r(field, center, r) / (TWO_PI * r)


def check_doubling_from_frequency(field, center, R):
    """Circle- and ball-mean ratios between radii R and R/2 against their
    bound 2^(2N(R))."""
    center = np.asarray(center, dtype=float)
    H, _, N = _frequency(field, center, R)
    circle_ratio = H / (TWO_PI * R) / _circle_mean(field, center, 0.5 * R)
    ball_ratio = _ball_mean(field, center, R) / _ball_mean(field, center, 0.5 * R)
    return DoublingCheckReport(
        circle_ratio=float(circle_ratio),
        ball_ratio=float(ball_ratio),
        bound=float(0.5 ** (-2.0 * N)),
        frequency=float(N),
    )


@dataclass
class FrequencyFromDoublingReport:
    bound: float
    measured: float
    passed: bool


def frequency_from_doubling(field, center, r, alpha, theta, kappa):
    """Frequency bound implied by a mass-retention constant kappa.

    Requires mean over B(alpha r) >= kappa * mean over B(r); then
    N(alpha r) <= -log(kappa (1 - theta^n)) / (2 log(theta / alpha)) and the
    two-radius mass inequality at beta = alpha / 2 follows. Passes when both
    hold to relative 1e-10.
    """
    if not 0 < alpha < theta < 1:
        raise ValueError("need 0 < alpha < theta < 1")
    center = np.asarray(center, dtype=float)
    n = 2  # dimension of the plane
    mean_r = _ball_mean(field, center, r)
    mean_ar = _ball_mean(field, center, alpha * r)
    if mean_ar < kappa * mean_r * (1 - 1e-12):
        raise AssumptionError(
            f"mass retention fails: mean(B_ar)/mean(B_r) = "
            f"{mean_ar / mean_r:.6g} < kappa = {kappa:.6g}"
        )
    arg = kappa * (1 - theta**n)
    bound = -np.log(arg) / (2 * np.log(theta / alpha))
    _, _, measured = _frequency(field, center, alpha * r)
    beta = 0.5 * alpha
    mean_br = _ball_mean(field, center, beta * r)
    beta_bound = arg ** (np.log(alpha / beta) / np.log(theta / alpha)) * mean_ar
    return FrequencyFromDoublingReport(
        bound=float(bound),
        measured=float(measured),
        passed=bool(
            measured <= bound * (1 + 1e-10) and mean_br >= beta_bound * (1 - 1e-10)
        ),
    )


@dataclass
class ChainFrequencyReport:
    base_frequency: float
    constant: float


def chain_frequency_check(field, R, n_points=16, seed=0):
    """Frequencies at shifted centers in B_R against the frequency at 0.

    Samples points p in B_R, computes N(p, (1 - R)/2) and records the
    empirical constant max_p N(p, .) / N(0, 1).
    """
    if not 0 < R < 1:
        raise ValueError("R must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    _, _, N0 = _frequency(field, (0.0, 0.0), 1.0)
    rr = R * np.sqrt(rng.uniform(0, 1, n_points))
    th = rng.uniform(0, TWO_PI, n_points)
    pts = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
    r_small = 0.5 * (1 - R)
    Ns = [_frequency(field, p, r_small)[2] for p in pts]
    worst = max((Np for Np in Ns if not np.isnan(Np)), default=-np.inf)
    return ChainFrequencyReport(
        base_frequency=float(N0),
        constant=float(worst / N0) if N0 > 0 else 0.0,
    )


# -- the exponentially weighted transform ------------------------------------------


def v_transform(pair, tube):
    """Fields (v, coefficients) for v = u exp(lambda d), reflected across
    the boundary of the domain of the eigenpair.

    A call of either field reads one tube frame of its points, from one
    nearest_point_many call and one BoundaryCurve.frame call at its foot
    parameters. The v field passes the frame's foot parameters and depths to
    evaluate_many, which does not project again, and the coefficient field
    returns (A, b, c) from its one frame. In the frame, x = gamma(t) + s nu(t)
    with s the signed offset, T the unit tangent, nu the outward normal,
    kappa the curvature, kappa_sigma = kappa'(t) / |gamma'(t)| its arclength
    derivative, and mu = (1 + kappa s)/(1 - kappa s) the tangential stretch
    of the reflection Psi: gamma(t) - s nu -> gamma(t) + s nu.

    A point is inside when s <= 0. There v = u exp(-lambda s), A = I,
    b = 2 lambda nu and c = lambda^2 - lambda Lap d with d = -s and
    Lap d = -kappa/(1 - kappa d). An exterior point carries v at its mirror
    point gamma(t) - s nu and the coefficients pushed forward through Psi:

        A = mu^2 T T^T + nu nu^T,
        b = -div A + (Lap Psi)(mirror) - 2 lambda nu,
        c = lambda^2 + lambda kappa/(1 - kappa s),

    where, with mu_sigma = 2 s kappa_sigma/(1 - kappa s)^2,

        div A = [2 mu mu_sigma T + kappa (1 - mu^2) nu]/(1 + kappa s),
        (Lap Psi)(mirror) = 2 s kappa_sigma/(1 - kappa s)^3 T
                            - 2 kappa/(1 - kappa s)^2 nu.

    Both fields raise OutOfTubeError beyond the collar, where s exceeds the
    tube half-width, from the one check in their shared tube frame.
    Interior points deeper than the tube are accepted, but c is infinite at
    a focal point (kappa d = 1), and on the medial axis the frame, and so b,
    follows whichever foot point the projection finds.

    The coefficient field carries alpha, gamma and K, its check_assumptions
    measured on a probe set of the collar: 64 rim points at offsets of
    -0.6, -0.2, 0.2 and 0.6 times the tube half-width.
    """
    if not isinstance(tube, TubeNeighborhood):
        raise TypeError("expected a TubeNeighborhood")
    curve = pair.curve
    if tube.curve is not curve and tube.curve.content_hash() != curve.content_hash():
        raise ValueError("eigenpair and tube live on different curves")
    lam = pair.eigenvalue
    delta = tube.delta

    def tube_frame(x):
        t, s, _ = curve.nearest_point_many(x)
        if np.any(s > delta * (1 + 1e-12)):
            raise OutOfTubeError("point outside the reflected collar")
        f = curve.frame(t)
        f.t, f.s, f.outside = t, s, s > 0
        o = f.outside
        f.mu = np.ones_like(s)
        f.mu[o] = (1.0 + f.kappa[o] * s[o]) / (1.0 - f.kappa[o] * s[o])
        return f

    def v_func(x):
        f = tube_frame(x)
        # exterior points read u at their mirror point gamma(t) - s nu, whose
        # tube coordinates are (t, -s): every point sits at depth d = |s|
        d = np.abs(f.s)
        xm = np.where(f.outside[:, None], f.point - f.s[:, None] * f.nu, x)
        u, gu = pair.evaluate_many(xm, f.t, -d)
        w = np.exp(lam * d)
        gv = w[:, None] * (gu - lam * u[:, None] * f.nu)
        # grad of v(x') = v(Psi^{-1} x'): pull back through the inverse
        # reflection Jacobian (T T^T / mu - nu nu^T) outside
        gT = np.einsum("pi,pi->p", gv, f.T)
        gN = np.einsum("pi,pi->p", gv, f.nu)
        gout = (gT / f.mu)[:, None] * f.T - gN[:, None] * f.nu
        return u * w, np.where(f.outside[:, None], gout, gv)

    def coeff_func(x):
        f = tube_frame(x)
        o = f.outside
        A = (f.mu**2)[:, None, None] * np.einsum("pi,pj->pij", f.T, f.T)
        A += np.einsum("pi,pj->pij", f.nu, f.nu)
        A[~o] = np.eye(2)

        b = 2.0 * lam * f.nu
        s, kap, ks, mu = f.s[o], f.kappa[o], f.kappa_sigma[o], f.mu[o]
        tg, nu = f.T[o], f.nu[o]
        mu_sigma = 2.0 * s * ks / (1.0 - kap * s) ** 2
        div_A = (2.0 * mu * mu_sigma)[:, None] * tg + (kap * (1.0 - mu**2))[:, None] * nu
        div_A /= (1.0 + kap * s)[:, None]
        lap_psi = (2.0 * s * ks / (1.0 - kap * s) ** 3)[:, None] * tg
        lap_psi -= (2.0 * kap / (1.0 - kap * s) ** 2)[:, None] * nu
        b[o] = -div_A + lap_psi - 2.0 * lam * nu

        # c(x') = c(Psi^{-1} x'): fold the exterior onto the interior offset
        d = np.abs(f.s)
        lap_d = -f.kappa / (1.0 - f.kappa * d)
        return A, b, lam**2 - lam * lap_d

    vfield, cfield = ScalarField(v_func), CoefficientField(coeff_func)
    # record empirical bounds on a boundary-collar probe set
    tt = np.linspace(0, TWO_PI, 64, endpoint=False)
    offs = np.array([-0.6, -0.2, 0.2, 0.6]) * delta
    rim = curve.frame(tt)
    probes = np.concatenate([rim.point + o * rim.nu for o in offs])
    perm = np.random.default_rng(1).permutation(len(probes))
    alpha, gamma, K = cfield.check_assumptions(probes, (np.arange(len(probes)), perm))
    cfield.alpha, cfield.gamma, cfield.K = alpha, gamma, K
    return vfield, cfield


def pde_residual(field, coeffs, x, step):
    """Pointwise residual of Div(A grad w) + b . grad w + c w by differences.

    The divergence term is differenced on the flux A grad w using the stored
    analytic gradient, so the stencil must stay on one side of any interface
    where second derivatives jump.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h = step
    div = np.zeros(len(x))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        _, gp = field(x + e)
        _, gm = field(x - e)
        Fp = np.einsum("pij,pj->pi", coeffs(x + e)[0], gp)
        Fm = np.einsum("pij,pj->pi", coeffs(x - e)[0], gm)
        div += (Fp[:, j] - Fm[:, j]) / (2 * h)
    v, g = field(x)
    _, b, c = coeffs(x)
    return div + np.einsum("pi,pi->p", b, g) + c * v

