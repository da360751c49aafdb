import json

import numpy as np
import pytest

from steklab import nodal
from steklab.errors import DegenerateCenterError, SolverError
from steklab.steklov import SteklovEigenpair
from steklab.lab import (
    ExperimentConfig,
    ScalingFit,
    complex_zero_case,
    emit_plots,
    max_doubling_exponent,
    read_scaling_csv,
    run_complex_zero_oracle,
    run_frequency_suite,
    run_scaling_study,
    svg_loglog,
    write_artifacts,
)


class TestConfig:
    def test_roundtrip(self):
        cfg = ExperimentConfig(domain="ellipse(2,1)", j_max=10)
        cfg2 = ExperimentConfig.from_json(cfg.to_json())
        assert cfg2 == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json('{"domain": "disk", "bogus": 1}')

    def test_curve_from_builtin(self):
        assert ExperimentConfig(domain="disk").curve().name.startswith("disk")


class TestScalingFit:
    def test_exact_power_law(self):
        lam = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        vals = 3.0 * lam**2
        fit = ScalingFit.fit(lam, vals, lambda_cut=0.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_default_cut_is_median(self):
        lam = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        vals = np.array([100.0, 100.0, 16.0, 64.0, 256.0])  # junk below median
        fit = ScalingFit.fit(lam, vals)
        assert fit.lambda_cut == 4.0
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            ScalingFit.fit([1.0], [2.0], lambda_cut=0.0)


@pytest.fixture(scope="module")
def small_study(disk_spectrum):
    cfg = ExperimentConfig(domain="disk", j_max=8, n_centers=4, octaves=2.0)
    return run_scaling_study(cfg, spectrum=disk_spectrum)


class TestScalingStudy:
    def test_disk_nodal_slope(self, small_study):
        # disk zero counts are exactly 2 lambda: slope 1, intercept log 2
        fit = small_study.nodal_fit
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(2.0), abs=1e-12)

    def test_given_spectrum_needs_no_curve(self, disk_spectrum, monkeypatch):
        def no_curve(self):
            raise AssertionError("curve built although a spectrum was given")

        monkeypatch.setattr(ExperimentConfig, "curve", no_curve)
        cfg = ExperimentConfig(
            domain="disk", j_min=1, j_max=6, n_centers=1, octaves=1.0
        )
        study = run_scaling_study(cfg, spectrum=disk_spectrum)
        assert [r.zero_count for r in study.records] == [2, 2, 4, 4, 6, 6]

    def test_records_complete(self, small_study):
        assert len(small_study.records) == 9
        assert all(r.included for r in small_study.records)
        lam0 = small_study.records[0]
        assert lam0.zero_count == 0 and lam0.max_exponent == 1.0

    def test_csv_roundtrip(self, small_study):
        text = small_study.to_csv()
        lams, zs, es = read_scaling_csv(text, source="study")
        assert len(lams) == 9  # all rows included, among them lambda = 0
        ks = np.concatenate([[0], [k for k in range(1, 5) for _ in (0, 1)]])
        assert np.allclose(np.sort(zs), np.sort(2.0 * ks))

    def test_csv_sorted_by_eigenvalue(self, small_study):
        rows = small_study.to_csv().split("\r\n")[1:-1]
        lams = [float(r.split(",")[1]) for r in rows]
        assert lams == sorted(lams)

    def test_json_summary(self, small_study):
        data = json.loads(small_study.to_json())
        assert data["n_pairs"] == 9
        assert data["nodal_fit"]["slope"] == pytest.approx(1.0, abs=1e-12)

    def test_max_doubling_exponent_bounds(self, disk_spectrum):
        e = max_doubling_exponent(disk_spectrum[9], n_centers=4, octaves=2.0)
        # boundary mass exponents sit between 1 (extremum) and 3 (nodal point)
        assert 0.5 < e < 3.5


def per_center_sweep(pair, n_centers=8, radii_per_octave=4, octaves=3.0):
    """max_doubling_exponent as one doubling_profile per center: the loop
    that the one-pass sweep replaced."""
    lam_eff = max(pair.eigenvalue, 1.0)
    r_max = min(0.5 * pair.curve.max_tube_halfwidth(), 1.0 / lam_eff)
    r_min = r_max / 2.0**octaves
    centers = pair.curve.point(np.linspace(0.0, 2 * np.pi, n_centers, endpoint=False))
    worst = -np.inf
    for center in centers:
        try:
            rep = nodal.doubling_profile(pair, center, r_min, r_max, mode="boundary",
                                         steps_per_octave=radii_per_octave)
        except DegenerateCenterError:
            continue
        if len(rep.exponents) and rep.max_exponent > worst:
            worst = rep.max_exponent
    if not np.isfinite(worst):
        raise DegenerateCenterError("all sweep centers were degenerate")
    return float(worst)


def sweep_outcome(sweep, *args, **kwargs):
    try:
        return sweep(*args, **kwargs)
    except (DegenerateCenterError, ValueError) as exc:
        return type(exc), str(exc)


SWEEPS = [
    dict(n_centers=6, octaves=2.5),
    dict(n_centers=8),
    dict(n_centers=3, radii_per_octave=2, octaves=1.7),
    dict(n_centers=5, octaves=0.5),  # under one octave: no exponent at all
    dict(n_centers=4, octaves=0.0),  # r_min = r_max
    dict(n_centers=4, radii_per_octave=0),
]


class TestDoublingSweep:
    @pytest.mark.parametrize("kwargs", SWEEPS)
    @pytest.mark.parametrize("curve,j", [("disk", 9), ("disk", 20), ("ellipse", 7),
                                         ("ellipse", 14)])
    def test_equals_the_per_center_loop(self, curve, j, kwargs, disk_spectrum,
                                        ellipse_spectrum):
        pair = {"disk": disk_spectrum, "ellipse": ellipse_spectrum}[curve][j]
        want = sweep_outcome(per_center_sweep, pair, **kwargs)
        assert sweep_outcome(max_doubling_exponent, pair, **kwargs) == want

    @pytest.mark.parametrize("octaves", [1100.0, 1e6])
    def test_octaves_past_the_float_range_raise(self, octaves, disk_spectrum):
        # 2**1100 overflows and r_max / 2**1100 would be 0 anyway
        with pytest.raises(ValueError, match="octaves"):
            max_doubling_exponent(disk_spectrum[9], n_centers=2, octaves=octaves)

    @pytest.mark.parametrize("bad", [[1], [0, 2, 5], [0, 1, 2, 3, 4, 5]])
    def test_degenerate_centers_as_the_loop(self, bad, ellipse_spectrum, monkeypatch):
        # centers given no mass at the smallest radius, or one NaN mass;
        # every center bad leaves none
        pair = ellipse_spectrum[7]
        centers = pair.curve.point(np.linspace(0.0, 2 * np.pi, 6, endpoint=False))
        mass = nodal.boundary_mass

        def spoiled(pair, center, r):
            out = mass(pair, center, r)
            rows = np.atleast_2d(out)
            for i, c in enumerate(np.atleast_2d(center)):
                k = np.flatnonzero((centers == c).all(axis=1))
                if len(k) and k[0] in bad:
                    rows[i, 0 if k[0] % 2 else -1] = 0.0 if k[0] % 2 else np.nan
            return out

        monkeypatch.setattr(nodal, "boundary_mass", spoiled)
        want = sweep_outcome(per_center_sweep, pair, n_centers=6, octaves=2.5)
        assert sweep_outcome(max_doubling_exponent, pair, n_centers=6, octaves=2.5) == want
        if len(bad) == 6:
            assert want == (DegenerateCenterError, "all sweep centers were degenerate")
        else:
            assert type(want) is float

    def test_one_pass(self, ellipse_spectrum, series_calls, monkeypatch):
        # one root refinement for every edge of every center and radius, one
        # trace_at call per refinement level 32 .. 512, and no curve series
        # beyond the centers, the root iterations and the levels' speeds
        refines, traces = [], []
        roots, trace_at = nodal._roots, SteklovEigenpair.trace_at

        def counting_roots(*args):
            refines.append(len(args[1]))
            return roots(*args)

        def counting_trace_at(self, t):
            traces.append(np.size(t))
            return trace_at(self, t)

        monkeypatch.setattr(nodal, "_roots", counting_roots)
        monkeypatch.setattr(SteklovEigenpair, "trace_at", counting_trace_at)
        pair = ellipse_spectrum[14]
        pair.curve.max_tube_halfwidth()
        series_calls.clear()
        max_doubling_exponent(pair, n_centers=6, octaves=2.5)
        levels = int(np.log2(512 / 32)) + 1
        assert len(refines) == 1 and refines[0] >= 2 * 6 * 11
        assert 1 <= len(traces) <= levels
        assert len(series_calls) <= 1 + 6 + levels


@pytest.fixture(scope="module")
def report():
    return run_frequency_suite(n_cases=6)


class TestFrequencySuite:
    def test_all_pass(self, report):
        assert report.passed, "\n".join(report.summary_lines())

    def test_summary_lines(self, report):
        lines = report.summary_lines()
        assert len(lines) == len(report.results)
        assert all(line.startswith("[PASS]") for line in lines)

    def test_json(self, report):
        data = json.loads(report.to_json())
        names = {d["name"] for d in data}
        assert "degree-identity" in names and "monotonicity" in names


class TestComplexZeroOracle:
    def test_constant_polynomial(self):
        case = complex_zero_case([1.0])
        assert case.zero_count == 0
        assert 0.0 <= case.bound <= 0.02  # log2 of the 1.01 safety factor

    def test_known_factorization(self):
        # f(z) = (1 - 4z)(1 - 3z): two roots, both inside |z| < 1/2
        case = complex_zero_case(np.polynomial.polynomial.polymul(
            [1.0, -4.0], [1.0, -3.0]
        ))
        assert case.zero_count == 2
        assert case.satisfied

    def test_vanishing_origin_rejected(self):
        with pytest.raises(ValueError):
            complex_zero_case([0.0, 1.0])

    def test_battery(self):
        rep = run_complex_zero_oracle(count=100, seed=42)
        assert rep.passed
        assert len(rep.cases) == 100

    def test_deterministic(self):
        a = run_complex_zero_oracle(count=30, seed=7)
        b = run_complex_zero_oracle(count=30, seed=7)
        assert a.to_json() == b.to_json()

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            run_complex_zero_oracle(count=1, max_degree=100)


class TestPlots:
    def test_svg_basics(self):
        svg = svg_loglog(
            [("a", [1.0, 10.0, 100.0], [2.0, 20.0, 200.0])],
            lines=[("ref", 1.0, np.log(2.0))],
            xlabel="x",
            ylabel="y",
            title="t",
        )
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")
        assert "circle" in svg and "stroke-dasharray" in svg

    def test_emit_plots(self, small_study):
        plots = emit_plots([small_study.to_csv()], labels=["disk"])
        assert set(plots) == {"nodal_scaling", "doubling_scaling"}
        assert "reference slope 6" in plots["nodal_scaling"]

    def test_read_scaling_csv_errors(self):
        with pytest.raises(ValueError, match="empty"):
            read_scaling_csv("", source="x")
        with pytest.raises(ValueError, match="bad header"):
            read_scaling_csv("a,b\r\n1,2\r\n", source="x")

    def test_write_artifacts_deterministic(self, small_study, tmp_path):
        p1 = write_artifacts(small_study, str(tmp_path / "a"))
        p2 = write_artifacts(small_study, str(tmp_path / "b"))
        for key in p1:
            with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
                assert f1.read() == f2.read()


class TestCli:
    def run(self, *argv):
        from steklab.cli import main

        return main(list(argv))

    def test_solve_to_file(self, tmp_path):
        out = tmp_path / "spec.json"
        assert self.run("solve", "--nodes", "128", "--count", "5",
                        "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert len(data["eigenvalues"]) == 5

    def test_nodal_csv(self, tmp_path):
        out = tmp_path / "z.csv"
        assert self.run("nodal", "--nodes", "128", "--index", "3",
                        "--out", str(out)) == 0
        assert out.read_text().startswith("index,t,kind")

    @pytest.mark.parametrize("tol", ["-1e-12", "nan", "inf"])
    def test_nodal_bad_tol(self, tol):
        assert self.run("nodal", "--nodes", "128", "--index", "3",
                        f"--tol={tol}") == 2

    def test_doubling(self, tmp_path):
        out = tmp_path / "d.csv"
        assert self.run("doubling", "--nodes", "128", "--index", "3",
                        "--rmin", "0.01", "--rmax", "0.05",
                        "--out", str(out)) == 0
        assert out.read_text().startswith("r,mass,doubling_exponent")

    def test_doubling_infinite_rmax_exit_2(self, capsys):
        assert self.run("doubling", "--domain", "disk", "--nodes", "128",
                        "--index", "9", "--rmin", "0.005", "--rmax", "inf") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("mode", ["boundary", "solid"])
    @pytest.mark.parametrize("center_t", ["nan", "inf"])
    def test_doubling_non_finite_center_exit_2(self, capsys, mode, center_t):
        assert self.run("doubling", "--domain", "disk", "--nodes", "128",
                        "--index", "9", "--mode", mode,
                        f"--center-t={center_t}") == 2
        assert "--center-t must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("solve", "--count", "0", "--nodes", "128"),
        ("nodal", "--index", "-1", "--nodes", "128"),
        ("doubling", "--index", "-1", "--nodes", "128"),
        ("scaling", "--domain", "disk", "--jmax", "-1", "--nodes", "128"),
        # a check suite that runs no case must not report a pass
        ("frequency", "--cases", "0"),
        ("frequency", "--cases", "-2"),
        ("zeros-oracle", "--count", "0"),
        ("zeros-oracle", "--count", "-3"),
    ])
    def test_count_below_one_exit_2(self, capsys, argv):
        assert self.run(*argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("config,key", [
        ({"j_min": -2, "j_max": 4}, "j_min"),
        ({"j_min": 5, "j_max": 4}, "j_min"),
        ({"j_min": 1.5, "j_max": 4}, "j_min"),
        ({"j_max": 4, "radii_per_octave": 0}, "steps_per_octave"),
        ({"j_max": 4, "radii_per_octave": -1}, "steps_per_octave"),
        ({"j_max": 4, "radii_per_octave": 2.5}, "steps_per_octave"),
        ({"j_max": 4, "n_centers": 0}, "n_centers"),
        ({"j_max": 4, "n_nodes": 100.5}, "n_nodes"),
        ({"j_max": 4, "n_nodes": 0}, "n_nodes"),
        ({"j_max": 4, "samples": -5}, "samples"),
        ({"j_max": 4, "samples": 2.5}, "samples"),
        # not a JSON object, and mistyped values (a bool is not a number)
        ([1, 2], "object"),
        ({"domain": 5}, "domain"),
        ({"octaves": "3"}, "octaves"),
        ({"j_max": True}, "j_max"),
        ({"outdir": None}, "outdir"),
        # sweep ranges: r_min = r_max / 2**octaves must stay a positive float
        ({"j_max": 4, "octaves": 1e6}, "octaves"),
        ({"j_max": 4, "octaves": -1}, "octaves"),
        ({"j_max": 4, "radii_per_octave": 0}, "radii_per_octave"),
    ])
    def test_bad_scaling_config_exit_2(self, tmp_path, capsys, config, key):
        path = tmp_path / "cfg.json"
        if isinstance(config, dict):
            config = {"domain": "disk", "n_nodes": 128, "outdir": str(tmp_path), **config}
        path.write_text(json.dumps(config))
        assert self.run("scaling", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_frequency(self, capsys):
        assert self.run("frequency", "--cases", "3") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 8 and "3 random cases" in out

    def test_zeros_oracle(self, capsys):
        assert self.run("zeros-oracle", "--count", "50") == 0
        assert "0 violations" in capsys.readouterr().out

    def test_plot(self, small_study, tmp_path):
        src = tmp_path / "scaling.csv"
        src.write_text(small_study.to_csv(), newline="")
        assert self.run("plot", str(src), "--outdir", str(tmp_path)) == 0
        assert (tmp_path / "nodal_scaling.svg").exists()

    def test_usage_error_exit_2(self, tmp_path):
        assert self.run("solve", "--domain", "not-a-curve") == 2
        bad = tmp_path / "cfg.json"
        bad.write_text('{"bogus": 1}')
        assert self.run("scaling", "--config", str(bad)) == 2

    @pytest.mark.parametrize("doc,key", [
        ("{}", "fourier_x"),
        ('{"fourier_x": [0.0, 1.0, 0.0]}', "fourier_y"),
        ("5", "object"),
        ("null", "object"),
        ('"fourier_x fourier_y"', "object"),
        ('{"fourier_x": null, "fourier_y": [0, 0, 1]}', "one-dimensional"),
        ('{"fourier_x": [[0, 1, 0]], "fourier_y": [0, 0, 1]}', "one-dimensional"),
    ])
    def test_malformed_curve_json_exit_2(self, tmp_path, capsys, doc, key):
        path = tmp_path / "curve.json"
        path.write_text(doc)
        assert self.run("solve", "--domain", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    def test_numerical_error_exit_3(self):
        # sample count below the oscillation guard trips the numerical path
        assert self.run("nodal", "--nodes", "128", "--index", "3",
                        "--samples", "10") == 3


def test_public_modules_importable():
    import steklab

    for name in ("geometry", "steklov", "frequency", "nodal", "lab", "errors"):
        assert hasattr(steklab, name)
