"""The disk spectrum and its boundary zero counts do not depend on the BLAS
thread count: eigh returns a thread-dependent basis inside each degenerate
eigenspace, which solve_spectrum replaces by a pinned one. Neither does the
constant mode's eigenvalue, which solve_spectrum returns as exactly 0, nor
the sign of an ellipse eigenvector, whose largest samples tie in magnitude.
Each ellipse trace moves by no more than its Davis-Kahan bound. The trace
kernel reads no BLAS, so a fixed trace reads the same bits at both counts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import dataclasses, sys
import numpy as np
from steklab import geometry
from steklab.nodal import boundary_zeros
from steklab.steklov import build_dtn, solve_spectrum

spectrum = solve_spectrum(build_dtn(geometry.disk(), 512), 81)
ellipse = solve_spectrum(build_dtn(geometry.ellipse(2.0, 1.0), 512), 100)
reports = [boundary_zeros(pair) for pair in spectrum]
# the input of test_nodal.py::TestBoundaryZeros::test_tangential_flag
fake = dataclasses.replace(spectrum[5], trace=spectrum[5].trace - np.min(spectrum[5].trace))
reports.append(boundary_zeros(fake, flag_rel=1e-5))
np.savez(
    sys.argv[1],
    traces=np.array([pair.trace for pair in spectrum]),
    ellipse=np.array([pair.trace for pair in ellipse]),
    ellipse_lam=ellipse.eigenvalues,
    ellipse_norm=np.linalg.norm(ellipse.dtn.symmetrized(), 2),
    counts=[rep.count for rep in reports],
    flags=[len(rep.tangential_flags) for rep in reports],
    # the constant mode at N = 256, where round-off gave it 0 at one thread
    # count and a few 1e-15 at the other
    lam0=[
        solve_spectrum(build_dtn(curve, 256), 3)[0].eigenvalue
        for curve in (geometry.disk(), geometry.ellipse(2.0, 1.0))
    ],
)
"""


TRACE_SCRIPT = """
import sys
import numpy as np
from steklab import geometry
from steklab.steklov import SteklovEigenpair, build_dtn

# seeded synthetic traces on 256 nodes, made by an FFT rather than a BLAS
# product: even modes 0 to 40 (stride 2) and every mode 3 to 60 (stride 1
# after a phase e^{3it})
dtn = build_dtn(geometry.disk(), 256)
rng = np.random.default_rng(11)
t = rng.uniform(-1.0, 8.0, 5000)
out = {}
for name, k in (("even", np.arange(0, 41, 2)), ("band", np.arange(3, 61))):
    spec = np.zeros(256, dtype=complex)
    spec[k] = rng.normal(size=len(k)) + 1j * rng.normal(size=len(k))
    trace = 256 * np.fft.ifft(spec).real
    pair = SteklovEigenpair(eigenvalue=1.0, trace=trace, density=np.zeros(256),
                            residual=0.0, dtn=dtn)
    out[name], out[name + "_dt"] = pair.trace_at(t, derivative=True)
np.savez(sys.argv[1], **out)
"""


def run_at(threads, out, script=SCRIPT):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
    return np.load(out)


def test_disk_spectrum_thread_independent(tmp_path):
    one = run_at(1, tmp_path / "one.npz")
    two = run_at(2, tmp_path / "two.npz")
    scale = np.max(np.abs(one["traces"]), axis=1)
    diff = np.max(np.abs(one["traces"] - two["traces"]), axis=1)
    assert np.all(diff <= 1e-9 * scale)
    assert one["counts"].tolist() == two["counts"].tolist()
    assert one["flags"].tolist() == two["flags"].tolist()
    assert one["lam0"].tolist() == two["lam0"].tolist() == [0.0, 0.0]
    # near-degenerate ellipse pairs mix by a few 1e-9 of sup; a sign flip
    # would make the inner product negative
    assert np.all(np.sum(one["ellipse"] * two["ellipse"], axis=1) > 0)
    # and every trace rotates by no more than the Davis-Kahan bound
    bound = rotation_bound(one["ellipse_lam"], one["ellipse_norm"])
    scale = np.max(np.abs(one["ellipse"]), axis=1)
    diff = np.max(np.abs(one["ellipse"] - two["ellipse"]), axis=1)
    assert np.all(diff <= bound * scale)


def test_trace_kernel_thread_independent(tmp_path):
    one = run_at(1, tmp_path / "one.npz", TRACE_SCRIPT)
    two = run_at(2, tmp_path / "two.npz", TRACE_SCRIPT)
    assert sorted(one.files) == sorted(two.files) == ["band", "band_dt", "even", "even_dt"]
    for name in one.files:
        assert np.array_equal(one[name], two[name]), name


def rotation_bound(lam, norm):
    """max(1e-9, 10 eps ||A||_2 / gap_j) per pair, the thread-count contract
    of the traces (Davis & Kahan, SIAM J. Numer. Anal. 7 (1970)). gap_j is
    the distance from lambda_j to the nearest eigenvalue outside its pinned
    cluster (neighbours within 1e-8 max(lambda, 1)) among those computed; the
    last pair sees only its lower neighbours, which can only tighten it."""
    starts = np.r_[True, np.diff(lam) > 1e-8 * np.maximum(lam[1:], 1.0)]
    cluster = np.cumsum(starts)
    gap = np.array([np.min(np.abs(lam[cluster != c] - x)) for x, c in zip(lam, cluster)])
    return np.maximum(1e-9, 10 * np.finfo(float).eps * norm / gap)
