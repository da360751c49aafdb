"""Solve Steklov spectra and evaluate eigenfunctions in the closed domain.

The Steklov problem asks for harmonic functions whose normal derivative on
the boundary is a multiple of their boundary trace. On the unit disk the
answers are known in closed form (lambda = 0, 1, 1, 2, 2, ...), which makes
it the canonical accuracy check for the solver.
"""

import numpy as np

from steklab import geometry
from steklab.steklov import build_dtn, solve_spectrum, interior_sup_bound_check

# -- the disk, against the closed form ------------------------------------------

disk = geometry.disk()
spectrum = solve_spectrum(build_dtn(disk, 256), 41)
exact = np.concatenate([[0.0], np.repeat(np.arange(1.0, 21.0), 2)])
print("disk eigenvalues (first 41), max error vs closed form:")
print(f"  {np.max(np.abs(spectrum.eigenvalues - exact)):.3e}")

# -- evaluating an eigenfunction away from the boundary --------------------------

pair = spectrum[9]  # lambda = 5, trace proportional to a trig of order 5
print(f"\npair 9: lambda = {pair.eigenvalue:.12f}, residual = {pair.residual:.2e}")

# interior, boundary-adjacent and boundary points all work; on the boundary
# u matches the trace interpolant at the same parameter, and a point farther
# outside than round-off raises OutOfDomainError
for r in (0.3, 0.95, 1.0):
    x = np.array([r * np.cos(0.7), r * np.sin(0.7)])
    v, g = pair.evaluate(x)
    print(f"  |x| = {r:4.2f}: u = {v:+.6e}, |grad u| = {np.linalg.norm(g):.6e}")
print(f"  trace_at(0.7): u = {pair.trace_at(0.7)[0]:+.6e}")

# the r^5 structure is visible directly: u(0.3 x0)/u(x0) = 0.3^5
x0 = np.array([np.cos(0.7), np.sin(0.7)])
ratio = pair.evaluate(0.3 * x0)[0] / pair.evaluate(x0)[0]
print(f"  radial decay u(0.3 x)/u(x) = {ratio:.8f} (0.3^5 = {0.3**5:.8f})")

# -- a non-symmetric domain ------------------------------------------------------

ellipse = geometry.ellipse(2.0, 1.0)
espec = solve_spectrum(build_dtn(ellipse, 512), 10)
print("\nellipse (a=2, b=1) first 10 eigenvalues:")
print("  " + ", ".join(f"{v:.6f}" for v in espec.eigenvalues))

# spectra serialize to JSON and reload with a curve-hash consistency check
restored = type(espec).from_json(espec.to_json())
print(f"  JSON roundtrip eigenvalue drift: "
      f"{np.max(np.abs(restored.eigenvalues - espec.eigenvalues)):.1e}")

# -- interior sup bound ----------------------------------------------------------

# the sup of u over a half ball is controlled by the L2 mean over the full
# ball; the report records the empirical constant
rep = interior_sup_bound_check(spectrum[9], (0.2, 0.1), 0.5)
print(f"\ninterior sup bound at (0.2, 0.1), r = 0.5: constant = {rep.constant:.4f}")
