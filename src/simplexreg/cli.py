"""Command-line interface.

Subcommands: ``mesh``, ``estimate``, ``bandwidth``, ``simulate``,
``asymptotics``, ``fit``, ``clt``.  Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure.  Every stochastic subcommand requires an
explicit ``--seed``; rerunning with the same arguments reproduces output
byte for byte.  File outputs are written atomically (temp file + rename);
``-`` means stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import app
from .asymptotics import (
    bias_g,
    mise_constants,
    mse_opt_bandwidth,
    optimal_bandwidth,
    psi_J,
    uniform_profile,
)
from .bandwidth import BandwidthSearch, default_grid, select_loocv_ll, select_lscv
from .cubature import CubatureConfig
from .errors import (
    AllInfiniteError,
    AllWeightsVanishedError,
    BoundaryError,
    DegenerateSiteError,
    DomainError,
    EmptyDatasetError,
    InsufficientDataError,
    MismatchError,
    ParseError,
    PoleError,
    SimplexregError,
    UnknownFunctionError,
    ZeroBiasError,
)
from .estimators import Design, batch_estimate
from .geometry import mesh_design_points, uniform_simplex_sample, voronoi_partition
from .simulation import (
    FUNCTION_IDS,
    StudyConfig,
    clt_study,
    run_study,
    target_function,
)

_DATA_ERRORS = (
    ParseError,
    EmptyDatasetError,
    MismatchError,
    DomainError,
    DegenerateSiteError,
    InsufficientDataError,
    UnknownFunctionError,
    OSError,
)
_NUMERICAL_ERRORS = (
    AllInfiniteError,
    AllWeightsVanishedError,
    ZeroBiasError,
    BoundaryError,
    PoleError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        app.atomic_write_text(path, text)


def _parse_point(spec: str) -> np.ndarray:
    try:
        parts = [float(v) for v in spec.split(",")]
    except ValueError:
        raise _UsageError(f"cannot parse point {spec!r}; expected 's1,s2'") from None
    if len(parts) != 2:
        raise _UsageError(f"expected two coordinates, got {len(parts)}")
    return np.array(parts)


def _read_design(path: str) -> Design:
    rows = _read_numeric_csv(path, ("s1", "s2", "y"))
    return Design(points=rows[:, :2], responses=rows[:, 2])


def _read_points(path: str) -> np.ndarray:
    return _read_numeric_csv(path, ("s1", "s2"))


def _read_numeric_csv(path: str, columns) -> np.ndarray:
    out = []
    for rownum, record in app.read_csv_records(path, columns):
        try:
            out.append([float(record[name]) for name in columns])
        except (TypeError, ValueError):
            raise ParseError("malformed number", row=rownum) from None
    if not out:
        raise EmptyDatasetError(f"no rows in {path}")
    return np.array(out)


def _search_from_args(args) -> BandwidthSearch:
    grid = default_grid(args.grid_size, args.grid_min, args.grid_max)
    return BandwidthSearch(grid=grid, refine=not args.no_refine)


def _add_search_args(p) -> None:
    p.add_argument("--grid-size", type=int, default=40)
    p.add_argument("--grid-min", type=float, default=1e-3)
    p.add_argument("--grid-max", type=float, default=1.0)
    p.add_argument("--no-refine", action="store_true")


def _cmd_mesh(args) -> int:
    points = mesh_design_points(args.k)
    _emit(app.csv_text("s1,s2", points), args.points_out)
    partition = voronoi_partition(points)
    _emit(
        json.dumps(partition.to_json_dict(), indent=2, sort_keys=True) + "\n",
        args.voronoi_out,
    )
    return 0


def _cmd_estimate(args) -> int:
    design = _read_design(args.design)
    if args.at is not None:
        points = np.atleast_2d(_parse_point(args.at))
    elif args.eval_points is not None:
        points = _read_points(args.eval_points)
    else:
        raise _UsageError("provide --at or --eval-points")
    cfg = CubatureConfig(relative_tolerance=args.rtol)
    missed = [] if args.method == "GM" else None  # cells short of tolerance
    values = batch_estimate(args.method, design, args.bandwidth, points, cfg, missed)
    if missed:
        cells = f"{len(missed)} of {design.n} cells"
        print(f"warning: cubature tolerance not reached in {cells}", file=sys.stderr)
    failed = int(np.isnan(values).sum())
    if failed == values.size:
        raise AllWeightsVanishedError(
            "estimation failed at every evaluation point"
        )
    if failed:
        print(
            f"warning: estimation failed at {failed} of {values.size} points "
            "(NaN in output)",
            file=sys.stderr,
        )
    rows = ((p[0], p[1], v) for p, v in zip(points, values))
    _emit(app.csv_text("s1,s2,estimate", rows), args.out)
    return 0


def _cmd_bandwidth(args) -> int:
    if args.criterion == "loocv" and args.method != "LL":
        raise _UsageError(f"loocv is defined for LL only, not --method {args.method}")
    design = _read_design(args.design)
    search = _search_from_args(args)
    if args.criterion == "lscv":
        if args.seed is None:
            raise _UsageError("lscv is stochastic; --seed is required")
        if args.function is None:
            raise _UsageError("lscv needs --function (the known target)")
        sample = uniform_simplex_sample(args.sample_size, args.seed)
        cfg = CubatureConfig(relative_tolerance=args.rtol)
        result = select_lscv(
            args.method, design, target_function(args.function), sample, search, cfg
        )
    else:
        result = select_loocv_ll(design, search)
    if args.trace_out is not None:
        _emit(app.csv_text("b,value", result.trace), args.trace_out)
    payload = {
        "b_hat": result.b_hat,
        "objective_value": result.objective_value,
        "boundary_minimum": result.boundary_minimum,
        "evaluations": len(result.trace),
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _study_csv(rows) -> str:
    return app.csv_text(
        "function,n,method,mean,sd,median,iqr,replications,failures,valid",
        (
            (r.function, str(r.n), r.method, r.mean, r.sd, r.median, r.iqr,
             str(r.replications), str(r.failures), str(r.valid).lower())
            for r in rows
        ),
    )


def _study_table(rows) -> str:
    header = ("Function", "n", "Method", "Mean", "SD", "Median", "IQR")
    body = [
        (
            r.function,
            str(r.n),
            r.method,
            f"{r.mean:.0f}",
            f"{r.sd:.0f}",
            f"{r.median:.0f}",
            f"{r.iqr:.0f}",
        )
        for r in rows
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    lines = [fmt.format(*header)]
    lines += [fmt.format(*row) for row in body]
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    cfg = StudyConfig(
        functions=tuple(args.functions.split(",")),
        k_values=tuple(int(k) for k in args.k.split(",")),
        methods=tuple(args.methods.split(",")),
        replications=args.reps,
        seed=args.seed,
        cubature=CubatureConfig(relative_tolerance=args.rtol),
        lscv_sample_size=args.lscv_sample_size,
    )
    rows = run_study(cfg)
    missed = sum(not r.converged for r in rows)
    if missed:
        print(
            f"warning: cubature tolerance not reached in some cells of {missed} "
            f"of {len(rows)} rows",
            file=sys.stderr,
        )
    text = _study_table(rows) if args.format == "table" else _study_csv(rows)
    _emit(text, args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    s = _parse_point(args.at)
    m = target_function(args.function)
    profile = uniform_profile(args.sigma2)
    payload = {
        "function": args.function,
        "s": [float(v) for v in s],
        "n": args.n,
        "g": bias_g(m, s),
        "psi": psi_J(s),
    }
    try:
        b_opt, mse_opt = mse_opt_bandwidth(s, m, profile, args.n)
        payload["b_opt_mse"] = b_opt
        payload["mse_opt"] = mse_opt
    except ZeroBiasError:
        payload["b_opt_mse"] = None
        payload["mse_opt"] = None
    if args.mise:
        cfg = CubatureConfig(relative_tolerance=args.rtol)
        g2_int, v_int, converged = mise_constants(m, profile, cfg)
        if not converged:
            print("warning: cubature tolerance not reached in a MISE integral", file=sys.stderr)
        b_opt, mise_opt = optimal_bandwidth(g2_int, v_int, args.n, 2)
        payload["b_opt_mise"] = b_opt
        payload["mise_opt"] = mise_opt
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_fit(args) -> int:
    columns = app.CompositionColumns(
        sand=args.sand, silt=args.silt, clay=args.clay, response=args.response
    )
    loaded = app.load_composition_csv(args.input, columns)
    result = app.fit_and_grid(
        loaded.design,
        search=_search_from_args(args),
        grid_resolution=args.grid_resolution,
    )
    _emit(app.grid_csv_text(result.grid), args.out)
    payload = {
        "b_hat": result.b_hat,
        "loocv": result.loocv_value,
        "n": loaded.design.n,
        "dropped_rows": loaded.dropped_rows,
        "grid_points": len(result.grid),
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_clt(args) -> int:
    result = clt_study(
        target_function(args.function),
        _parse_point(args.at),
        args.n,
        args.bandwidth,
        args.reps,
        args.seed,
        sigma=args.sigma,
        cfg=CubatureConfig(relative_tolerance=args.rtol),
    )
    if not result.converged:
        print("warning: cubature tolerance not reached in some cells", file=sys.stderr)
    if args.samples_out is not None:
        rows = ((z,) for z in result.standardized)
        _emit(app.csv_text("standardized", rows), args.samples_out)
    payload = {
        "ks_statistic": result.ks_statistic,
        "replications": int(result.standardized.size),
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="simplexreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="emit mesh design points and their Voronoi cells")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--points-out", default="-")
    p.add_argument("--voronoi-out", default="voronoi.json")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("estimate", help="evaluate an estimator at given points")
    p.add_argument("--method", choices=("GM", "NW", "LL"), required=True)
    p.add_argument("--design", required=True, help="CSV with columns s1,s2,y")
    p.add_argument("--bandwidth", type=float, required=True)
    p.add_argument("--eval-points", help="CSV with columns s1,s2")
    p.add_argument("--at", help="single point 's1,s2'")
    p.add_argument("--rtol", type=float, default=1e-3)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bandwidth", help="select a bandwidth by cross-validation")
    p.add_argument("--criterion", choices=("lscv", "loocv"), required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--method", choices=("GM", "NW", "LL"), default="LL")
    p.add_argument("--function", choices=FUNCTION_IDS)
    p.add_argument("--sample-size", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--rtol", type=float, default=1e-3)
    p.add_argument("--trace-out")
    _add_search_args(p)
    p.set_defaults(func=_cmd_bandwidth)

    p = sub.add_parser("simulate", help="run the Monte Carlo comparison study")
    p.add_argument("--functions", default="m1,m2,m3,m4,m5,m6")
    p.add_argument("--k", default="7,10,14")
    p.add_argument("--methods", default="GM,NW,LL")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rtol", type=float, default=1e-3)
    p.add_argument("--lscv-sample-size", type=int, default=1000)
    p.add_argument("--format", choices=("csv", "table"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("asymptotics", help="bias/variance constants and optimal bandwidths")
    p.add_argument("--function", choices=FUNCTION_IDS, required=True)
    p.add_argument("--at", required=True, help="point 's1,s2'")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--mise", action="store_true")
    p.add_argument("--rtol", type=float, default=1e-3)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("fit", help="composition pipeline: LOOCV fit and grid export")
    p.add_argument("--input", required=True)
    p.add_argument("--sand", default="sand")
    p.add_argument("--silt", default="silt")
    p.add_argument("--clay", default="clay")
    p.add_argument("--response", default="pH")
    p.add_argument("--grid-resolution", type=int, default=50)
    p.add_argument("--out", default="fit_grid.csv")
    _add_search_args(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("clt", help="empirical normality study of the GM estimator")
    p.add_argument("--function", choices=FUNCTION_IDS, required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bandwidth", type=float, required=True)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--rtol", type=float, default=1e-3)
    p.add_argument("--samples-out")
    p.set_defaults(func=_cmd_clt)

    return parser


def cli_main(argv) -> int:
    """Run the CLI on an argument list and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SimplexregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
