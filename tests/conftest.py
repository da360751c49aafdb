import numpy as np
import pytest

from steklab import geometry
from steklab.steklov import build_dtn, solve_spectrum


@pytest.fixture(scope="session")
def disk_curve():
    return geometry.disk()


@pytest.fixture(scope="session")
def ellipse_curve():
    return geometry.ellipse(2.0, 1.0)


@pytest.fixture(scope="session")
def disk_spectrum(disk_curve):
    """First 81 disk eigenpairs at N = 512 (eigenvalues 0,1,1,...,40,40)."""
    return solve_spectrum(build_dtn(disk_curve, 512), 81)


@pytest.fixture(scope="session")
def ellipse_spectrum(ellipse_curve):
    """First 100 ellipse (a=2, b=1) eigenpairs at N = 512."""
    return solve_spectrum(build_dtn(ellipse_curve, 512), 100)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def series_calls(monkeypatch):
    """Sizes of the BoundaryCurve._series calls made from here on."""
    calls = []
    series = geometry.BoundaryCurve._series

    def counting(curve, t, *orders):
        calls.append(np.size(t))
        return series(curve, t, *orders)

    monkeypatch.setattr(geometry.BoundaryCurve, "_series", counting)
    return calls


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def disk_mode_coefficients(pair, k):
    """Least-squares (a, b) with trace ~ a cos(k t) + b sin(k t)."""
    t = pair.dtn.t
    M = np.stack([np.cos(k * t), np.sin(k * t)], axis=1)
    coef, *_ = np.linalg.lstsq(M, pair.trace, rcond=None)
    resid = np.max(np.abs(M @ coef - pair.trace))
    return coef[0], coef[1], resid
