"""Command line interface for the solver and the experiment pipelines.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or configuration
error, 3 numerical failure inside a solver or quadrature.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import frequency as fq
from . import geometry, lab, nodal
from .errors import SteklabError
from .steklov import build_dtn, solve_spectrum

EXIT_PASS = 0
EXIT_CHECK_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _add_domain_args(p):
    p.add_argument("--domain", default="disk",
                   help="builtin spec (disk, ellipse:2,1, perturbed_disk:0.1,3)"
                        " or a curve JSON file")
    p.add_argument("--nodes", type=int, default=512)


def _write_or_print(text, path):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args):
    curve = geometry.curve_from_spec(args.domain)
    spectrum = solve_spectrum(build_dtn(curve, args.nodes), args.count)
    _write_or_print(spectrum.to_json(), args.out)
    return EXIT_PASS


def cmd_nodal(args):
    curve = geometry.curve_from_spec(args.domain)
    spectrum = solve_spectrum(build_dtn(curve, args.nodes), args.index + 1)
    pair = spectrum[args.index]
    rep = nodal.boundary_zeros(
        pair, samples=args.samples or None, tol=args.tol
    )
    text = rep.to_csv() if args.format == "csv" else rep.to_json()
    _write_or_print(text, args.out)
    return EXIT_PASS


def cmd_doubling(args):
    if not np.isfinite(args.center_t):
        raise ValueError(f"--center-t must be finite, got {args.center_t}")
    curve = geometry.curve_from_spec(args.domain)
    spectrum = solve_spectrum(build_dtn(curve, args.nodes), args.index + 1)
    pair = spectrum[args.index]
    center = curve.point(np.array([args.center_t]))[0]
    vfield = None
    if args.mode == "solid":
        delta = 0.9 * curve.max_tube_halfwidth()
        tube = geometry.TubeNeighborhood(curve, delta)
        vfield, _ = fq.v_transform(pair, tube)
    rep = nodal.doubling_profile(
        pair, center, args.rmin, args.rmax, mode=args.mode, vfield=vfield
    )
    text = rep.to_csv() if args.format == "csv" else rep.to_json()
    _write_or_print(text, args.out)
    return EXIT_PASS


def cmd_frequency(args):
    report = lab.run_frequency_suite(seed=args.seed, n_cases=args.cases)
    for line in report.summary_lines():
        print(line)
    if args.out:
        _write_or_print(report.to_json(), args.out)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAIL


def cmd_scaling(args):
    if args.config:
        config = lab.ExperimentConfig.from_file(args.config)
    else:
        config = lab.ExperimentConfig()
    if args.domain is not None:
        config.domain = args.domain
    if args.nodes is not None:
        config.n_nodes = args.nodes
    if args.jmax is not None:
        config.j_max = args.jmax
    if args.outdir is not None:
        config.outdir = args.outdir
    study = lab.run_scaling_study(config)
    paths = lab.write_artifacts(study, config.outdir)
    print(
        f"nodal slope {study.nodal_fit.slope:.6f}, "
        f"doubling slope {study.doubling_fit.slope:.6f}"
    )
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    excluded = [r for r in study.records if not r.included]
    for r in excluded:
        print(f"excluded pair {r.index} (lambda={r.eigenvalue:.6g}): {r.reason}")
    return EXIT_PASS


def cmd_zeros_oracle(args):
    report = lab.run_complex_zero_oracle(
        count=args.count, max_degree=args.max_degree, seed=args.seed
    )
    print(
        f"{len(report.cases)} cases, {report.redraws} redraws, "
        f"{len(report.violations)} violations"
    )
    if args.out:
        _write_or_print(report.to_json(), args.out)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAIL


def cmd_plot(args):
    texts = []
    for path in args.inputs:
        with open(path, newline="") as fh:
            texts.append(fh.read())
    labels = [os.path.splitext(os.path.basename(p))[0] for p in args.inputs]
    plots = lab.emit_plots(texts, labels=labels)
    os.makedirs(args.outdir, exist_ok=True)
    for name, svg in sorted(plots.items()):
        path = os.path.join(args.outdir, f"{name}.svg")
        with open(path, "w") as fh:
            fh.write(svg)
        print(path)
    return EXIT_PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steklab",
        description="Steklov eigenfunction laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a spectrum slice to JSON")
    _add_domain_args(p)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("nodal", help="count boundary zeros of one eigenpair")
    _add_domain_args(p)
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nodal)

    p = sub.add_parser("doubling", help="mass doubling profile at a center")
    _add_domain_args(p)
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--center-t", type=float, default=0.0,
                   help="boundary parameter of the center")
    p.add_argument("--mode", choices=["boundary", "solid"], default="boundary")
    p.add_argument("--rmin", type=float, default=1e-3)
    p.add_argument("--rmax", type=float, default=0.2)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_doubling)

    p = sub.add_parser("frequency", help="run the frequency check suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_frequency)

    p = sub.add_parser("scaling", help="nodal/doubling scaling study")
    p.add_argument("--config", default=None, help="JSON ExperimentConfig file")
    p.add_argument("--domain", default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--jmax", type=int, default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("zeros-oracle", help="complex polynomial zero-count bound")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-degree", type=int, default=12)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_zeros_oracle)

    p = sub.add_parser("plot", help="emit SVG plots from study CSVs")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SteklabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
