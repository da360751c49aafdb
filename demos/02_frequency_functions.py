"""Frequency functions: the local growth rate of a harmonic function.

The frequency N(r) = r D(r) / H(r) compares Dirichlet energy over the ball
of radius r with boundary mass over its circle. For a homogeneous harmonic
polynomial it equals the degree at every radius; in general it is
nondecreasing in r and controls doubling of circle and ball means.
"""

import numpy as np

from steklab import frequency as fq
from steklab import geometry
from steklab.steklov import build_dtn, solve_spectrum

# -- degree identity and monotonicity --------------------------------------------

grid = fq.geometric_radii(0.05, 0.8)
for k in (1, 3, 6):
    f = fq.harmonic_polynomial([(k, 1.0, 0.0)])
    prof = fq.frequency_profile(f, (0.0, 0.0), grid)
    print(f"degree {k}: N(r) in [{prof.N.min():.10f}, {prof.N.max():.10f}]")

mixed = fq.harmonic_polynomial([(1, 1.0, 0.0), (5, 0.2, 0.1)])
prof = fq.frequency_profile(mixed, (0.0, 0.0), fq.geometric_radii(0.05, 1.5))
rep = fq.check_monotonicity(prof)
print(f"\nmixed degrees 1+5: N rises {prof.N[0]:.3f} -> {prof.N[-1]:.3f}, "
      f"monotone: {rep.passed}")

# -- the derivative identity and doubling bounds ---------------------------------

resid = fq.check_hprime_identity(mixed, (0.0, 0.0), 0.5)
print(f"d/dr log(H/r) = 2N/r relative residual: {resid:.2e}")

dbl = fq.check_doubling_from_frequency(mixed, (0.0, 0.0), 0.6)
print(f"doubling: circle ratio {dbl.circle_ratio:.4f} <= bound "
      f"{dbl.bound:.4f} (N = {dbl.frequency:.4f})")

# a measured mass-retention constant bounds the frequency from above
kappa = 0.9 * (fq._ball_mean(mixed, (0.0, 0.0), 0.4)
               / fq._ball_mean(mixed, (0.0, 0.0), 0.8))
inv = fq.frequency_from_doubling(mixed, (0.0, 0.0), 0.8, 0.5, 0.75, kappa)
print(f"inverse bound: measured N = {inv.measured:.4f} <= {inv.bound:.4f}")

# -- the exponentially weighted transform ----------------------------------------

# multiplying a Steklov eigenfunction by exp(lambda * dist-to-boundary) and
# reflecting across the boundary produces a function satisfying a divergence
# form equation with Lipschitz coefficients on a two-sided collar; its
# frequency machinery then applies near the boundary
curve = geometry.ellipse(2.0, 1.0)
pair = solve_spectrum(build_dtn(curve, 512), 10)[8]
tube = geometry.TubeNeighborhood(curve, 0.3)
vfield, coeffs = fq.v_transform(pair, tube)

t = np.linspace(0, 2 * np.pi, 8, endpoint=False)
_, g = vfield(curve.point(t))
nd = np.max(np.abs(np.einsum("ij,ij->i", g, curve.normal(t))))
print(f"\nv-transform at lambda = {pair.eigenvalue:.4f}:")
print(f"  normal derivative on the boundary: {nd:.2e} (should vanish)")

x = curve.point(np.array([1.0])) - 0.1 * curve.normal(np.array([1.0]))
res = fq.pde_residual(vfield, coeffs, x, 1e-3 / pair.eigenvalue)
print(f"  PDE residual at an interior collar point: {abs(res[0]):.2e}")
print(f"  measured coefficient bounds: ellipticity {coeffs.alpha:.3f}, "
      f"Lipschitz {coeffs.gamma:.3f}, sup {coeffs.K:.3f}")
