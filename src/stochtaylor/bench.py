"""Benchmark harness: test functions, synthetic datasets, experiment runs.

Each experiment draws ``n_seeds`` independent datasets from a registered
test function, runs model-order selection on each, and measures the
integrated squared and absolute distances between the fitted surface and
the truth on an evaluation window that extends beyond the fitting window
(extrapolation). Per-seed results and their medians form the report;
medians are reported because a single run's distance depends on optimizer
luck.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DataError, DomainError, FitFailure, NumericRangeError
from .fit import Dataset, FitConfig, select_model
from .metrics import GridSpec, integrated_sq_distance, l1_distance, shift_window_above
from .model import (
    _as_finite_float, _as_float_tuple, _as_int, _point_matrix, atomic_write_text, predict_grid
)
from .rng import RngStream

__all__ = [
    "TestFunction",
    "ExperimentSpec",
    "SeedRecord",
    "ExperimentReport",
    "REGISTRY",
    "get_test_function",
    "default_spec",
    "make_dataset",
    "run_experiment",
    "spec_from_dict",
    "spec_to_dict",
    "load_experiment_specs",
    "report_to_csv",
    "report_to_json",
]

DEFAULT_GRID_POINTS = {1: 1000, 2: 200}
_DEFAULT_N_SEEDS = 5
# Per-seed fit stream seeds are offset by a large odd constant so they never
# collide with the dataset streams drawn from the same master seed.
_FIT_SEED_STRIDE = 100003


@dataclass(frozen=True)
class TestFunction:
    """A registered target: the true map plus its canonical study settings.

    ``n_starts``/``max_iters`` default to :class:`FitConfig`'s (20 and 500);
    functions whose noise regime needs a different split of the evaluation
    budget across starts carry explicit values.
    """

    id: str
    d: int
    fn: Callable[[np.ndarray], np.ndarray]
    fit_lower: tuple[float, ...]
    fit_upper: tuple[float, ...]
    eval_lower: tuple[float, ...]
    eval_upper: tuple[float, ...]
    x0: tuple[float, ...]
    sigma: float
    m_max: int
    k_values: tuple[int, ...]
    n_starts: int = FitConfig.n_starts
    max_iters: int = FitConfig.max_iters

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = _point_matrix(points, self.d)
        values = np.asarray(self.fn(pts), dtype=float).reshape(-1)
        if values.shape[0] != pts.shape[0]:
            raise DomainError(f"test function {self.id} returned a wrong-length vector")
        return values


def _fn_identity(x: np.ndarray) -> np.ndarray:
    return x[:, 0]


def _fn_cubic(x: np.ndarray) -> np.ndarray:
    t = x[:, 0]
    return t**3 - 6.0 * t


def _fn_trig_mix(x: np.ndarray) -> np.ndarray:
    t = x[:, 0]
    return t * np.sin(t) + np.exp(-(t**2)) + t * np.cos(t) / (t**2 + 1.0)


def _fn_exp2d(x: np.ndarray) -> np.ndarray:
    return np.exp(-(x[:, 0] ** 2) + x[:, 1])


def _fn_polyexp2d(x: np.ndarray) -> np.ndarray:
    u, v = x[:, 0], x[:, 1]
    return u**3 * v - v**2 * np.exp(u) + 3.0 * u * v


# Budgets: the model family has near-flat RSS directions along which extra
# components trade coefficient growth against power warps; on noisy data the
# optimizer rides them (tiny RSS gains, severe extrapolation drift). Per-start
# budgets of a few evaluations keep noisy polynomial-regime fits near the
# anchor, while near-noiseless or multiplicative targets benefit from deep
# polish.
REGISTRY: dict[str, TestFunction] = {
    tf.id: tf
    for tf in (
        TestFunction(
            id="identity",
            d=1,
            fn=_fn_identity,
            fit_lower=(0.0,),
            fit_upper=(5.0,),
            eval_lower=(0.0,),
            eval_upper=(7.0,),
            x0=(0.0,),
            sigma=1e-5,
            m_max=15,
            k_values=(500,),
            n_starts=4,
            max_iters=400,
        ),
        TestFunction(
            id="cubic",
            d=1,
            fn=_fn_cubic,
            fit_lower=(0.0,),
            fit_upper=(3.0,),
            eval_lower=(0.0,),
            eval_upper=(4.0,),
            x0=(0.0,),
            sigma=1.0,
            m_max=5,
            k_values=(25, 100, 500),
            n_starts=20,
            max_iters=40,
        ),
        TestFunction(
            id="trig_mix",
            d=1,
            fn=_fn_trig_mix,
            fit_lower=(0.0,),
            fit_upper=(3.0,),
            eval_lower=(0.0,),
            eval_upper=(4.0,),
            x0=(0.0,),
            sigma=0.2,
            m_max=6,
            k_values=(25, 100, 500),
            n_starts=20,
            max_iters=100,
        ),
        TestFunction(
            id="exp2d",
            d=2,
            fn=_fn_exp2d,
            fit_lower=(0.0, 0.0),
            fit_upper=(1.0, 1.0),
            eval_lower=(0.0, 0.0),
            eval_upper=(1.2, 1.2),
            x0=(-0.05, -0.05),
            sigma=0.5,
            m_max=6,
            k_values=(500,),
        ),
        TestFunction(
            id="polyexp2d",
            d=2,
            fn=_fn_polyexp2d,
            fit_lower=(0.0, 0.0),
            fit_upper=(1.0, 1.0),
            eval_lower=(0.0, 0.0),
            eval_upper=(1.2, 1.2),
            x0=(-0.1, -0.1),
            sigma=0.05,
            m_max=8,
            k_values=(500,),
        ),
    )
}


def get_test_function(function_id: str) -> TestFunction:
    try:
        return REGISTRY[function_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise DomainError(f"unknown test function {function_id!r}; known: {known}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a test function at one sample size, over several seeds.

    ``x0`` is the expansion origin of every fit. ``n_starts`` and
    ``max_iters`` go to :class:`FitConfig` and default to its values. The
    distances are measured on ``DEFAULT_GRID_POINTS[d]`` points per
    dimension. No field takes None.
    """

    function: str
    K: int
    sigma: float
    m_max: int
    fit_lower: tuple[float, ...]
    fit_upper: tuple[float, ...]
    eval_lower: tuple[float, ...]
    eval_upper: tuple[float, ...]
    x0: tuple[float, ...]
    n_seeds: int = _DEFAULT_N_SEEDS
    seed: int = 0
    n_starts: int = FitConfig.n_starts
    max_iters: int = FitConfig.max_iters

    def __post_init__(self) -> None:
        fn = get_test_function(self.function)
        for name in ("fit_lower", "fit_upper", "eval_lower", "eval_upper", "x0"):
            object.__setattr__(self, name, _as_float_tuple(getattr(self, name), name, fn.d))
        if any(lo >= hi for lo, hi in zip(self.fit_lower, self.fit_upper)):
            raise DomainError("fit window must have lower < upper")
        if any(lo >= hi for lo, hi in zip(self.eval_lower, self.eval_upper)):
            raise DomainError("evaluation window must have lower < upper")
        # The evaluation window must contain the fit window: extrapolation
        # quality is measured on a superset of the training region.
        inside = all(
            elo <= flo and fhi <= ehi
            for elo, flo, fhi, ehi in zip(
                self.eval_lower, self.fit_lower, self.fit_upper, self.eval_upper
            )
        )
        if not inside:
            raise DomainError("evaluation window must contain the fit window")
        # Samples are drawn on (fit_lower, fit_upper], so x0 may sit on the
        # fit window's lower edge but not above it.
        if any(origin > lo for origin, lo in zip(self.x0, self.fit_lower)):
            raise DomainError(
                f"x0 {self.x0} must not exceed the fit_window lower bound {self.fit_lower}"
            )
        eval_grid = GridSpec(self.eval_lower, self.eval_upper, DEFAULT_GRID_POINTS[fn.d])
        try:
            shift_window_above(eval_grid, self.x0)
        except DomainError as exc:
            raise DomainError(f"x0 {self.x0} must lie below the eval_window grid: {exc}") from None
        object.__setattr__(self, "sigma", _as_finite_float(self.sigma, "sigma"))
        if self.sigma < 0.0:
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")
        for name in ("K", "m_max", "n_seeds", "n_starts", "max_iters"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, 1))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))

    @property
    def d(self) -> int:
        return get_test_function(self.function).d


def default_spec(function_id: str, K: int | None = None, **overrides) -> ExperimentSpec:
    """Canonical spec for a registered function (K defaults to its largest)."""
    fn = get_test_function(function_id)
    base = dict(
        function=fn.id,
        K=fn.k_values[-1] if K is None else K,
        sigma=fn.sigma,
        m_max=fn.m_max,
        fit_lower=fn.fit_lower,
        fit_upper=fn.fit_upper,
        eval_lower=fn.eval_lower,
        eval_upper=fn.eval_upper,
        x0=fn.x0,
        n_starts=fn.n_starts,
        max_iters=fn.max_iters,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def make_dataset(fn: TestFunction, K: int, sigma: float, rng: RngStream) -> Dataset:
    """K noisy samples of fn on its fit window, rows sorted lexicographically.

    Coordinates are uniform with an open lower edge (lo, hi] so every sample
    stays strictly above an origin placed at the window's lower corner;
    noise is N(0, sigma^2), drawn after sorting. Bit-identical per stream.
    """
    K = _as_int(K, "K", 1)
    sigma = _as_finite_float(sigma, "sigma")
    if sigma < 0.0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    gen = rng.generator()
    lo = np.asarray(fn.fit_lower)
    hi = np.asarray(fn.fit_upper)
    u = gen.random((K, fn.d))
    X = hi[None, :] - (hi - lo)[None, :] * u
    X = X[np.lexsort(X.T[::-1])]
    y = fn(X) + sigma * gen.standard_normal(K)
    return Dataset(X=X, y=y)


@dataclass(frozen=True)
class SeedRecord:
    """Outcome of one seed of an experiment (error text when the fit failed)."""

    seed_index: int
    chosen_m: int | None
    rss: float | None
    sigma2_hat: float | None
    d_sq: float | None
    d_l1: float | None
    wall_time_s: float
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """Per-seed outcomes plus medians over the successful seeds."""

    spec: ExperimentSpec
    per_seed: tuple[SeedRecord, ...]
    medians: dict[str, float] = field(compare=False)

    @property
    def n_failed(self) -> int:
        return sum(1 for rec in self.per_seed if rec.error is not None)


# The per-seed fields of the medians, in report order. Timing is last, and
# the report files leave it out.
_MEDIAN_FIELDS = ("chosen_m", "rss", "sigma2_hat", "d_sq", "d_l1", "wall_time_s")
_REPORT_FIELDS = _MEDIAN_FIELDS[:-1]


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every seed of the experiment and attach medians.

    Seed i draws its dataset from stream (spec.seed, i) and fits with master
    seed spec.seed + 100003*(i+1). Per-seed fit failures are recorded, not
    fatal, unless every seed fails.
    """
    fn = get_test_function(spec.function)
    fn = replace(
        fn,
        fit_lower=spec.fit_lower,
        fit_upper=spec.fit_upper,
        eval_lower=spec.eval_lower,
        eval_upper=spec.eval_upper,
    )
    records = []
    for i in range(spec.n_seeds):
        t_start = time.perf_counter()
        error = None
        chosen_m = rss_value = sigma2_hat = d_sq = d_l1 = None
        try:
            data = make_dataset(fn, spec.K, spec.sigma, RngStream(spec.seed, i))
            seed = spec.seed + _FIT_SEED_STRIDE * (i + 1)
            cfg = FitConfig(n_starts=spec.n_starts, max_iters=spec.max_iters, seed=seed)
            sel = select_model(data, spec.m_max, cfg, x0=spec.x0)
            model = sel.chosen.model
            grid = shift_window_above(
                GridSpec(spec.eval_lower, spec.eval_upper, DEFAULT_GRID_POINTS[fn.d]), model.x0
            )
            pts = grid.points()
            f_hat = predict_grid(model, pts)
            f_true = fn(pts)
            chosen_m = sel.chosen_m
            rss_value = sel.chosen.rss
            sigma2_hat = sel.chosen.sigma2
            d_sq = integrated_sq_distance(f_hat, f_true, grid)
            d_l1 = l1_distance(f_hat, f_true, grid)
        except (FitFailure, NumericRangeError, DomainError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        records.append(
            SeedRecord(
                seed_index=i,
                chosen_m=chosen_m,
                rss=rss_value,
                sigma2_hat=sigma2_hat,
                d_sq=d_sq,
                d_l1=d_l1,
                wall_time_s=time.perf_counter() - t_start,
                error=error,
            )
        )
    good = [rec for rec in records if rec.error is None]
    if not good:
        raise FitFailure(
            f"every seed of experiment {spec.function!r} (K={spec.K}) failed: "
            + "; ".join(rec.error for rec in records if rec.error)
        )
    medians = {}
    for name in _MEDIAN_FIELDS:
        values = [getattr(rec, name) for rec in (records if name == "wall_time_s" else good)]
        medians[name] = float(np.median([v for v in values if v is not None]))
    return ExperimentReport(spec=spec, per_seed=tuple(records), medians=medians)


# ---------------------------------------------------------------------------
# Spec and report serialization.
# ---------------------------------------------------------------------------


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "function": spec.function,
        "K": spec.K,
        "sigma": spec.sigma,
        "m_max": spec.m_max,
        "fit_window": {"lower": list(spec.fit_lower), "upper": list(spec.fit_upper)},
        "eval_window": {"lower": list(spec.eval_lower), "upper": list(spec.eval_upper)},
        "n_seeds": spec.n_seeds,
        "seed": spec.seed,
        "x0": list(spec.x0),
        "n_starts": spec.n_starts,
        "max_iters": spec.max_iters,
    }


def spec_from_dict(doc: dict) -> ExperimentSpec:
    """Spec from its JSON document; absent fields take the registry defaults.

    The keys are those :func:`spec_to_dict` writes, and only ``function`` is
    required. A window is an object with exactly the keys ``lower`` and
    ``upper``. An unknown key, a null value or a malformed window is a
    DataError that names the key; every value is then converted and checked
    by :class:`ExperimentSpec`.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("function"), str):
        raise DataError("experiment spec must be a JSON object with a 'function' name")
    base = default_spec(doc["function"])
    known = spec_to_dict(base)
    overrides = {}
    for key, value in doc.items():
        if key not in known:
            raise DataError(f"unknown experiment spec field {key!r}; known: {', '.join(known)}")
        if value is None:
            raise DataError(f"experiment spec field {key!r} must not be null")
        if not key.endswith("_window"):
            overrides[key] = value
        elif isinstance(value, dict) and sorted(value) == ["lower", "upper"]:
            part = key.split("_")[0]
            overrides[f"{part}_lower"], overrides[f"{part}_upper"] = value["lower"], value["upper"]
        else:
            shape = "{'lower': [...], 'upper': [...]}"
            raise DataError(f"experiment spec field {key!r} must be {shape}, got {value!r}")
    return replace(base, **overrides)


def load_experiment_specs(path: str) -> list[ExperimentSpec]:
    """Specs from a JSON file holding one spec object or an array of them."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read spec file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"spec file {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"spec file {path} is not valid JSON: {exc}") from None
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list) or not doc:
        raise DataError(f"spec file {path} must hold a JSON object or nonempty array")
    return [spec_from_dict(entry) for entry in doc]


def _cell(value) -> str:
    """A per-seed report cell: empty for None, an int as written, a real by repr."""
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else repr(float(value))


def report_to_csv(report: ExperimentReport) -> str:
    """One row per seed plus a median row, without the wall-time column.

    The text is a pure function of (spec, seed): timing stays in
    ``ExperimentReport``, out of the report files.
    """
    lines = [",".join(["seed", *_REPORT_FIELDS, "error"])]
    for rec in report.per_seed:
        error = "" if rec.error is None else rec.error.replace(",", ";")
        cells = [_cell(getattr(rec, name)) for name in _REPORT_FIELDS]
        lines.append(",".join([str(rec.seed_index), *cells, error]))
    medians = [repr(float(report.medians[name])) for name in _REPORT_FIELDS]
    lines.append(",".join(["median", *medians, ""]))
    return "\n".join(lines) + "\n"


def report_to_json(report: ExperimentReport) -> str:
    """The spec, the per-seed records and the medians, without wall times."""
    records = [asdict(rec) for rec in report.per_seed]
    for doc in records:
        del doc["wall_time_s"]
    medians = {name: report.medians[name] for name in _REPORT_FIELDS}
    doc = {"spec": spec_to_dict(report.spec), "per_seed": records, "medians": medians}
    return json.dumps(doc, indent=2) + "\n"


def write_report(report: ExperimentReport, csv_path: str, json_path: str) -> None:
    atomic_write_text(csv_path, report_to_csv(report))
    atomic_write_text(json_path, report_to_json(report))
