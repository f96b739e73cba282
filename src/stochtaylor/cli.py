"""Command-line surface.

Subcommands: ``fit`` (CSV in, model JSON out), ``predict`` (model + grid or
points, CSV of values out), ``envelope`` (Monte Carlo quantile band CSV),
``simulate`` (raw point-pattern dump), ``distance`` (quadrature metrics
between two value CSVs), ``bench`` (experiment reports from a spec file).

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
input, values outside the math domain), 3 numeric failure (overflow, no
usable fit). Failures emit one machine-readable JSON line on stderr:
{"error": "usage"|"data"|"numeric", "message": "..."}.

Units: ``fit --rescale c1,..,cd+1`` divides each input column before
fitting and stores the factors in the model; ``predict`` and ``envelope``
then accept and emit original units. ``simulate`` dumps events in the
model's fitted (rescaled) units. All output files are written atomically
(temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import load_experiment_specs, run_experiment, write_report
from .errors import (
    DataError,
    DomainError,
    FitFailure,
    NumericRangeError,
    StochTaylorError,
)
from .fit import Dataset, FitConfig, select_model, selected_fit_to_dict
from .metrics import GridSpec, integrated_sq_distance, l1_distance
from .model import (
    _rescale_factors,
    _to_fitted_units,
    atomic_write_text,
    csv_text,
    load_model,
    predict_original_units,
)
from .rng import RngStream
from .simulate import envelope, envelope_to_csv, sample_pattern

__all__ = ["main", "ingest"]


class UsageError(StochTaylorError):
    """Bad command line: unknown flags, malformed flag values, bad combinations."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


def _read_csv(path: str, min_columns: int) -> tuple[list[str], np.ndarray]:
    """Header plus float matrix. Row numbers in errors count physical lines,
    with the header as row 1."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        with handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file (a header row is required)") from None
            n_cols = len(header)
            if n_cols < min_columns:
                raise DataError(
                    f"{path}: expected at least {min_columns} columns, header has {n_cols}"
                )
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if len(row) != n_cols:
                    raise DataError(
                        f"{path}: row {line_no}: expected {n_cols} columns, got {len(row)}"
                    )
                parsed = []
                for j, cell in enumerate(row):
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}: row {line_no}: non-numeric value {cell!r} "
                            f"in column {j + 1}"
                        ) from None
                rows.append(parsed)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    matrix = np.asarray(rows, dtype=float)
    if not np.isfinite(matrix).all():
        raise DataError(f"{path}: non-finite values are not allowed")
    return header, matrix


def ingest(path: str, rescale=None) -> Dataset:
    """Dataset from a CSV of columns x_1..x_d, y (header required).

    Each column is divided by its finite, positive rescale factor (default
    all 1). Column count fixes d = columns - 1.
    """
    _, matrix = _read_csv(path, min_columns=2)
    if rescale is not None:
        try:
            factors = _rescale_factors(rescale, matrix.shape[1] - 1)
        except DomainError as exc:
            raise DataError(f"{path}: {exc}") from None
        matrix = matrix / np.asarray(factors)[None, :]
    return Dataset(X=matrix[:, :-1], y=matrix[:, -1])


def _parse_vector(text: str, name: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{name} must be comma-separated reals, got {text!r}") from None
    if not values:
        raise UsageError(f"{name} must be nonempty")
    return values


def _parse_grid(text: str, d: int | None = None) -> GridSpec:
    """GridSpec from 'lo:hi:n[,lo:hi:n...]' (one block per dimension)."""
    lower = []
    upper = []
    counts = []
    for block in text.split(","):
        parts = block.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid block {block!r} must look like lo:hi:n")
        try:
            lo, hi = float(parts[0]), float(parts[1])
            n = int(parts[2])
        except ValueError:
            raise UsageError(f"grid block {block!r} must look like lo:hi:n") from None
        lower.append(lo)
        upper.append(hi)
        counts.append(n)
    if len(set(counts)) != 1:
        raise UsageError(f"all grid blocks must share the same point count, got {counts}")
    if d is not None and len(lower) != d:
        raise UsageError(f"grid has {len(lower)} dimensions, the model needs {d}")
    try:
        return GridSpec(lower=tuple(lower), upper=tuple(upper), points_per_dim=counts[0])
    except DomainError as exc:
        raise UsageError(f"bad grid: {exc}") from None


def _load_model_file(path: str):
    try:
        return load_model(path)
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"model file {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from None
    except DomainError as exc:
        raise DataError(f"model file {path}: {exc}") from None


def _cmd_fit(args) -> int:
    rescale = _parse_vector(args.rescale, "--rescale") if args.rescale else None
    data = ingest(args.input, rescale)
    if args.x0 is not None:
        x0 = _parse_vector(args.x0, "--x0")
        if len(x0) != data.d:
            raise UsageError(f"--x0 needs d={data.d} coordinates, got {len(x0)}")
    else:
        x0 = None
    cfg = FitConfig(n_starts=args.starts, seed=args.seed)
    sel = select_model(data, args.m_max, cfg, x0=x0)
    doc = selected_fit_to_dict(sel)
    if rescale is not None:
        doc["rescale"] = list(rescale)
    atomic_write_text(args.out, json.dumps(doc, indent=2) + "\n")
    print(f"chosen_m={sel.chosen_m} rss={sel.chosen.rss!r} model={args.out}")
    return 0


def _points_from_args(args, d: int) -> np.ndarray:
    if args.grid is not None:
        return _parse_grid(args.grid, d).points()
    _, matrix = _read_csv(args.points, min_columns=d)
    return matrix[:, :d]


def _cmd_predict(args) -> int:
    model = _load_model_file(args.model)
    points = _points_from_args(args, model.d)
    values = predict_original_units(model, points)
    header = [f"x_{r + 1}" for r in range(model.d)] + ["value"]
    atomic_write_text(args.out, csv_text(header, [*points.T, values]))
    return 0


def _cmd_envelope(args) -> int:
    model = _load_model_file(args.model)
    points = _parse_grid(args.grid, model.d).points()
    scaled = _to_fitted_units(model, points)
    env = envelope(model, scaled, args.n_real, args.alpha, RngStream(args.seed, 0))
    unit = model.rescale[model.d]
    env = replace(
        env, grid=points, lower=env.lower * unit, upper=env.upper * unit, mean=env.mean * unit
    )
    atomic_write_text(args.out, envelope_to_csv(env))
    return 0


def _cmd_simulate(args) -> int:
    model = _load_model_file(args.model)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    patterns = [sample_pattern(model, RngStream(args.seed, i)) for i in range(args.n)]
    counts = [pattern.count for pattern in patterns]
    pattern_index = np.repeat(np.arange(args.n), counts)
    event_index = np.concatenate([np.arange(count) for count in counts])
    events = np.concatenate([pattern.events for pattern in patterns])
    header = ["pattern", "event", "a"] + [f"n_{r + 1}" for r in range(model.d)]
    atomic_write_text(args.out, csv_text(header, [pattern_index, event_index, *events.T]))
    return 0


def _cmd_distance(args) -> int:
    grid = _parse_grid(args.grid)
    _, pred = _read_csv(args.pred, min_columns=1)
    _, truth = _read_csv(args.truth, min_columns=1)
    d_sq = integrated_sq_distance(pred[:, -1], truth[:, -1], grid)
    d_l1 = l1_distance(pred[:, -1], truth[:, -1], grid)
    print(json.dumps({"d_sq": d_sq, "d_l1": d_l1}))
    return 0


def _cmd_bench(args) -> int:
    specs = load_experiment_specs(args.spec)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {args.out}: {exc}") from None
    for spec in specs:
        if args.seeds is not None:
            spec = replace(spec, n_seeds=args.seeds)
        report = run_experiment(spec)
        stem = f"{spec.function}_K{spec.K}"
        csv_path = os.path.join(args.out, stem + ".csv")
        json_path = os.path.join(args.out, stem + ".json")
        write_report(report, csv_path, json_path)
        med = report.medians
        print(
            f"{spec.function} K={spec.K}: chosen_m={med['chosen_m']:g} "
            f"d_sq={med['d_sq']!r} d_l1={med['d_l1']!r} -> {csv_path}"
        )
        print(
            f"{stem}: median wall time {med['wall_time_s']:.2f}s over "
            f"{spec.n_seeds} seeds",
            file=sys.stderr,
        )
    return 0


@functools.cache
def _build_parser() -> _Parser:
    # One parser per process: parse_args does not change it, so in-process
    # callers of main (tests, benchmarks, scripts) share it.
    # argparse reads a separate value that starts with "-" as a flag.
    grid_help = "lo:hi:n[,lo:hi:n...] per dimension; write --grid=-1:7:5 if lo < 0"
    parser = _Parser(prog="stochtaylor", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    p_fit.add_argument("--input", required=True, help="CSV with columns x_1..x_d, y")
    p_fit.add_argument("--m-max", type=int, required=True, dest="m_max")
    p_fit.add_argument("--starts", type=int, default=FitConfig().n_starts)
    p_fit.add_argument("--seed", type=int, default=0)
    x0_help = "origin v1,...,vd (scaled units; default 5%% of the range below the data)"
    p_fit.add_argument("--x0", default=None, help=x0_help + "; write --x0=-1,2 if v1 < 0")
    p_fit.add_argument("--rescale", default=None, help="divisors c1,...,cd+1 per column")
    p_fit.add_argument("--out", required=True, help="output model JSON path")
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="evaluate a fitted model")
    p_pred.add_argument("--model", required=True)
    group = p_pred.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", default=None, help=grid_help)
    group.add_argument("--points", default=None, help="CSV of points (columns x_1..x_d)")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=_cmd_predict)

    p_env = sub.add_parser("envelope", help="Monte Carlo quantile band of a fitted model")
    p_env.add_argument("--model", required=True)
    p_env.add_argument("--grid", required=True, help=grid_help)
    p_env.add_argument("--n-real", type=int, default=10000, dest="n_real")
    p_env.add_argument("--alpha", type=float, default=0.05)
    p_env.add_argument("--seed", type=int, default=0)
    p_env.add_argument("--out", required=True)
    p_env.set_defaults(func=_cmd_envelope)

    p_sim = sub.add_parser("simulate", help="dump raw point patterns of a fitted model")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--n", type=int, required=True, help="number of patterns")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_dist = sub.add_parser("distance", help="quadrature distances between two value CSVs")
    p_dist.add_argument("--pred", required=True)
    p_dist.add_argument("--truth", required=True)
    p_dist.add_argument("--grid", required=True, help=grid_help)
    p_dist.set_defaults(func=_cmd_distance)

    p_bench = sub.add_parser("bench", help="run experiment specs and write reports")
    p_bench.add_argument("--spec", required=True, help="experiment spec JSON file")
    p_bench.add_argument("--seeds", type=int, default=None, help="override n_seeds")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 1
    except (DataError, DomainError, OSError) as exc:
        _emit_error("data", str(exc))
        return 2
    except (NumericRangeError, FitFailure) as exc:
        _emit_error("numeric", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
