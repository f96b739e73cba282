"""Mixture model types and closed-form evaluation of the mean surface.

The estimator is driven by a Poisson point process whose events are pairs
(a, n) of a coefficient and a d-vector of real powers. Component m of the
mixture draws (a, n) jointly normal with means (mu_a, mu_n), standard
deviations (sigma_a, sigma_n), correlations rho between a and each n_r, and
independent power coordinates. The expected value of the random sum
``sum_j a_j * prod_r (x_r - x0_r)**n_{r,j}`` is available in closed form:
each component contributes

    (mu_a + sigma_a * sum_r rho_r sigma_n_r ln d_r)
        * prod_r d_r ** (mu_n_r + (sigma_n_r**2 / 2) * ln d_r)

with d_r = x_r - x0_r > 0. :func:`evaluate_general` scales component m of a
:class:`GeneralIntensity` by ``lam * weights[m]``; :func:`evaluate` sums the
components of an :class:`SteModel`, the rate-M, uniform-weight intensity,
unscaled. Every evaluation entry point, and ``fit.rss``, runs the one
vectorised kernel :func:`_mean_values`, whose value at a point does not
depend on the other points of the call. The optimizer's objective
``fit._forward`` computes the same mean with its own code: it contracts over
d with matrix products on one (d, K) array of log offsets per fit, which are
several times faster than elementwise sums, and a fit needs no
row-independence.

Points follow one rule everywhere (:func:`_point_matrix`): an (N, d)
array-like, where a 1-D sequence is a column of points (d = 1); any other
shape, or an entry that is not a real number (a boolean is not one), is a
DomainError. The strict requirement x[r] > x0[r] is enforced at every
evaluation, and errors name the offending row.

Overflow policy:

- Evaluation raises :class:`~stochtaylor.errors.NumericRangeError` when a
  term or a total would exceed the largest finite double (a term whose
  power product overflows is recomputed in log-magnitude form first). The
  remedy is to work in rescaled units, recorded in ``SteModel.rescale``.
- The optimizer's objective (``fit._forward``) and its Jacobian are not
  clipped and do not raise: a term that overflows makes them non-finite.
  The fit rejects a trial step whose residuals are not finite and shrinks
  its trust region, and fails alone a start whose residuals at x0 or whose
  Jacobian at an accepted point are not finite. A start's model is kept
  only if evaluation gives its RSS, so a fitted model never depends on an
  overflowed term.
- Realizations (``simulate.ste_realization``, ``simulate.mc_values``) raise
  NumericRangeError on any non-finite value.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericRangeError

__all__ = [
    "ComponentParams",
    "SteModel",
    "GeneralIntensity",
    "power_moment",
    "centered_power_moment",
    "evaluate",
    "evaluate_general",
    "from_taylor_polynomial",
    "predict_grid",
    "predict_original_units",
    "model_to_dict",
    "model_from_dict",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

# log of the largest finite double; exponents beyond this overflow.
_LOG_MAX = math.log(sys.float_info.max)


def _as_finite_float(value, name: str) -> float:
    """``value`` as a finite float. A boolean is not a real number here."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"{name} is a boolean")
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise DomainError(f"{name} must be finite, got {out}")
    return out


def _as_float_tuple(values, name: str, length: int | None = None) -> tuple[float, ...]:
    """``values`` as a tuple of :func:`_as_finite_float` reals, ``length`` long if given."""
    try:
        values = tuple(values)
    except TypeError as exc:
        raise DomainError(f"{name} must be a sequence of reals") from exc
    if length is not None and len(values) != length:
        raise DomainError(f"{name} must have length {length}, got {len(values)}")
    return tuple(_as_finite_float(v, name) for v in values)


def _as_float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; an entry that is not a real number is a DomainError.

    A boolean is not a real number here, also inside a mixed list that
    NumPy would turn into a float array. A float64 ndarray is returned
    without a copy.
    """
    try:
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
            entries = np.asarray(values, dtype=object).flat
            if any(isinstance(v, (bool, np.bool_)) for v in entries):
                raise TypeError(f"{name} holds a boolean")
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be real numbers") from exc


def _point_matrix(points, d: int | None = None, name: str = "points") -> np.ndarray:
    """``points`` as an (N, d) float array; with ``d`` None, any width.

    A 1-D array is a column of points (d = 1; an empty one has width d);
    any other shape is a DomainError. Entries are not checked for
    finiteness or domain here.
    """
    pts = _as_float_array(points, name)
    if pts.ndim == 1:
        pts = pts.reshape(-1, d if d and not pts.size else 1)
    if pts.ndim != 2 or (d is not None and pts.shape[1] != d):
        raise DomainError(f"{name} must be (N, {d or 'd'}), got shape {pts.shape}")
    return pts


def _as_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int: an integer (not a bool) or a float with an integral value.

    With ``minimum``, a value below it is refused as well.
    """
    integral = (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    ) or (isinstance(value, (float, np.floating)) and float(value).is_integer())
    if integral and (minimum is None or value >= minimum):
        return int(value)
    kind = {None: "an integer", 1: "a positive integer"}.get(minimum, f"an integer >= {minimum}")
    raise DomainError(f"{name} must be {kind}, got {value!r}")


def _rescale_factors(values, d: int) -> tuple[float, ...]:
    """``values`` as d+1 finite, positive unit divisors (inputs first, output last)."""
    factors = _as_float_tuple(values, "rescale", d + 1)
    if any(c <= 0.0 for c in factors):
        raise DomainError(f"rescale factors must be positive, got {factors}")
    return factors


@dataclass(frozen=True)
class ComponentParams:
    """Moments of one mixture component.

    ``mu_a``/``sigma_a`` are the mean and standard deviation of the
    coefficient; ``mu_n``/``sigma_n`` those of the d power coordinates;
    ``rho[r]`` is the correlation between the coefficient and power r.
    Power coordinates are mutually independent.
    """

    mu_a: float
    sigma_a: float
    mu_n: tuple[float, ...]
    sigma_n: tuple[float, ...]
    rho: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_a", _as_finite_float(self.mu_a, "mu_a"))
        object.__setattr__(self, "sigma_a", _as_finite_float(self.sigma_a, "sigma_a"))
        object.__setattr__(self, "mu_n", _as_float_tuple(self.mu_n, "mu_n"))
        d = len(self.mu_n)
        if d < 1:
            raise DomainError("mu_n must have at least one entry")
        object.__setattr__(self, "sigma_n", _as_float_tuple(self.sigma_n, "sigma_n", d))
        object.__setattr__(self, "rho", _as_float_tuple(self.rho, "rho", d))
        if self.sigma_a < 0.0:
            raise DomainError(f"sigma_a must be >= 0, got {self.sigma_a}")
        if any(s < 0.0 for s in self.sigma_n):
            raise DomainError(f"sigma_n entries must be >= 0, got {self.sigma_n}")
        if any(abs(r) > 1.0 for r in self.rho):
            raise DomainError(f"rho entries must lie in [-1, 1], got {self.rho}")

    @property
    def d(self) -> int:
        return len(self.mu_n)

    def sort_key(self) -> tuple:
        """Canonical component order: by mu_a, ties by lexicographic mu_n."""
        return (self.mu_a,) + self.mu_n


@dataclass(frozen=True)
class GeneralIntensity:
    """Mixture intensity with total rate ``lam`` and component weights.

    The expected event count is ``lam``; an event belongs to component m
    with probability ``weights[m]``. Components keep the order given here
    (weights are positional). This is the one place that checks ``d``, the
    components, ``x0``, ``lam`` and ``weights``.
    """

    lam: float
    weights: tuple[float, ...]
    components: tuple[ComponentParams, ...]
    d: int
    x0: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _as_int(self.d, "d", 1))
        comps = tuple(self.components)
        if not comps:
            raise DomainError("at least one component is required")
        for i, c in enumerate(comps):
            if not isinstance(c, ComponentParams):
                raise DomainError(f"component {i} is not a ComponentParams")
            if c.d != self.d:
                raise DomainError(f"component {i} has dimension {c.d}, expected {self.d}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "x0", _as_float_tuple(self.x0, "x0", self.d))
        object.__setattr__(self, "lam", _as_finite_float(self.lam, "lam"))
        if self.lam <= 0.0:
            raise DomainError(f"lam must be > 0, got {self.lam}")
        object.__setattr__(self, "weights", _as_float_tuple(self.weights, "weights"))
        if len(self.weights) != len(comps):
            raise DomainError(
                f"need one weight per component, got {len(self.weights)} "
                f"weights for {len(comps)} components"
            )
        if any(w < 0.0 for w in self.weights):
            raise DomainError(f"weights must be >= 0, got {self.weights}")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1 within 1e-12, got sum {math.fsum(self.weights)}")

    @classmethod
    def from_model(cls, model: SteModel) -> "GeneralIntensity":
        """Plain intensity with the rate, weights and components of a model.

        ``evaluate_general`` on the result reproduces ``evaluate(model, .)``
        bit for bit whenever ``M * (1.0 / M) == 1.0`` in floating point
        (true for all M < 49 and most others).
        """
        return cls(model.lam, model.weights, model.components, model.d, model.x0)

    @property
    def m(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class SteModel(GeneralIntensity):
    """Fitted mixture model: the rate-M, uniform-weight intensity.

    ``lam = M`` and ``weights = (1/M,) * M`` follow from the components and
    are not constructor parameters, so the expected event count of each
    component is one. Components are stored in canonical order (increasing
    ``mu_a``, ties by lexicographic ``mu_n``), which fixes the summation
    order of :func:`evaluate` and makes equal models compare equal.
    ``sigma2`` is the residual variance attached by fitting. ``rescale``
    holds the d+1 positive divisors that map original data units to the
    units the model was fitted in (inputs first, output last); it is
    bookkeeping for prediction and does not affect :func:`evaluate`.
    """

    lam: float = field(init=False)
    weights: tuple[float, ...] = field(init=False)
    sigma2: float = 0.0
    rescale: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        m = len(self.components)
        object.__setattr__(self, "lam", float(m))
        # A generator, so that a model without components meets the base
        # check and not a division by zero.
        object.__setattr__(self, "weights", tuple(1.0 / m for _ in range(m)))
        super().__post_init__()
        canonical = tuple(sorted(self.components, key=ComponentParams.sort_key))
        object.__setattr__(self, "components", canonical)
        object.__setattr__(self, "sigma2", _as_finite_float(self.sigma2, "sigma2"))
        if self.sigma2 < 0.0:
            raise DomainError(f"sigma2 must be >= 0, got {self.sigma2}")
        rescale = (1.0,) * (self.d + 1) if self.rescale is None else self.rescale
        object.__setattr__(self, "rescale", _rescale_factors(rescale, self.d))


def power_moment(delta: float, mu: float, sigma: float) -> float:
    """E[delta**n] for n ~ Normal(mu, sigma**2), i.e. delta**(mu + sigma^2/2 * ln delta).

    Requires delta > 0 and sigma >= 0. Always positive.
    """
    delta = _as_finite_float(delta, "delta")
    mu = _as_finite_float(mu, "mu")
    sigma = _as_finite_float(sigma, "sigma")
    if delta <= 0.0:
        raise DomainError(f"delta must be > 0, got {delta}")
    if sigma < 0.0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    log_delta = math.log(delta)
    exponent = mu + 0.5 * sigma * sigma * log_delta
    try:
        return delta**exponent
    except OverflowError:
        raise NumericRangeError(
            f"delta**{exponent} exceeds the largest finite double; "
            "rescale inputs to smaller units"
        ) from None


def centered_power_moment(delta: float, mu: float, sigma: float) -> float:
    """E[(n - mu) * delta**n] for n ~ Normal(mu, sigma**2).

    Equals (sigma**2 * ln delta) * power_moment(delta, mu, sigma).
    """
    pm = power_moment(delta, mu, sigma)
    sigma = float(sigma)
    out = (sigma * sigma * math.log(float(delta))) * pm
    if math.isinf(out):
        raise NumericRangeError(
            "centered power moment exceeds the largest finite double; "
            "rescale inputs to smaller units"
        )
    return out


# Rows per block of the evaluation kernel. It only bounds the memory of the
# kernel's (rows, M) temporaries: no value depends on it.
_BLOCK_ROWS = 512


def _points(points, x0) -> np.ndarray:
    """``points`` read by :func:`_point_matrix`, each row finite and strictly above x0.

    Raises DomainError naming the first row whose offset x - x0 is not finite
    and positive. Rows are checked one block at a time, so no grid-sized
    array of offsets is made.
    """
    x0 = np.asarray(x0, dtype=float)
    pts = _point_matrix(points, x0.shape[0])
    for start in range(0, pts.shape[0], _BLOCK_ROWS):
        delta = pts[start : start + _BLOCK_ROWS] - x0
        ok = (np.isfinite(delta) & (delta > 0.0)).all(axis=1)
        if not ok.all():
            k = start + int(np.argmin(ok))
            raise DomainError(
                f"row {k}: point {pts[k].tolist()} must be finite and lie strictly "
                f"above the origin {x0.tolist()}"
            )
    return pts


def _stack_components(components) -> tuple[np.ndarray, ...]:
    """(mu_a, sigma_a, mu_n, sigma_n, rho) arrays with one row per component."""
    return (
        np.array([c.mu_a for c in components]),
        np.array([c.sigma_a for c in components]),
        np.array([c.mu_n for c in components]),
        np.array([c.sigma_n for c in components]),
        np.array([c.rho for c in components]),
    )


def _mean_values(points, x0, arrays, scale=None) -> np.ndarray:
    """Closed-form mean at each of ``points``, checked by :func:`_points`.

    See the module docstring for the formula. ``arrays`` are the stacked
    components (:func:`_stack_components`); the optional ``scale``
    multiplies component m's term (``lam * w_m``). Terms are summed in
    component order. Every operation is elementwise along the points, so a
    point's value is the same, bit for bit, alone or inside any grid.

    The power factor is formed per coordinate with ``np.power`` so that
    exact cases stay exact; a term that is not finite is recomputed from
    log|coeff| + log_power, and raises NumericRangeError if that exceeds
    the largest finite double. Offsets and their logs are formed one block
    at a time, so no grid-sized copy is made.
    """
    pts = _points(points, x0)
    mu_a, sigma_a, mu_n, sigma_n, rho = arrays
    rho_sigma, half_var = rho * sigma_n, 0.5 * sigma_n**2
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _BLOCK_ROWS):
        delta = pts[start : start + _BLOCK_ROWS] - x0
        log_delta = np.log(delta)
        with np.errstate(over="ignore", invalid="ignore"):
            corr, power = 0.0, 1.0
            for r in range(delta.shape[1]):
                log_r = log_delta[:, r, None]
                corr = corr + rho_sigma[:, r] * log_r
                power = power * np.power(delta[:, r, None], mu_n[:, r] + half_var[:, r] * log_r)
            coeff = mu_a + sigma_a * corr
            terms = coeff * power
        bad = ~np.isfinite(terms)
        if bad.any():
            rows, comps = np.nonzero(bad)
            c, log_b = coeff[bad], log_delta[rows]
            log_power = (log_b * mu_n[comps]).sum(axis=1) + 0.5 * (
                log_b**2 * sigma_n[comps] ** 2
            ).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_mag = np.where(c == 0.0, -np.inf, np.log(np.abs(c)) + log_power)
            too_big = ~(log_mag <= _LOG_MAX)  # catches +inf and nan
            if too_big.any():
                k = start + int(rows[np.argmax(too_big)])
                raise NumericRangeError(
                    f"row {k}: a component value exceeds the largest finite double; "
                    "rescale inputs/outputs to smaller units"
                )
            terms[bad] = np.copysign(np.exp(log_mag), c)
        if scale is not None:
            terms = scale * terms
        total = terms[:, 0].copy()
        for j in range(1, terms.shape[1]):
            total += terms[:, j]
        out[start : start + _BLOCK_ROWS] = total
    if not np.isfinite(out).all():
        k = int(np.argmin(np.isfinite(out)))
        raise NumericRangeError(
            f"row {k}: the mean exceeds the largest finite double; "
            "rescale inputs/outputs to smaller units"
        )
    return out


def evaluate(model: SteModel, x) -> float:
    """Mean of the random sum at x: components summed in canonical order.

    Raises DomainError unless x[r] > x0[r] for every r, and
    NumericRangeError if any term or the total leaves double range.
    """
    return float(_mean_values([x], model.x0, _stack_components(model.components))[0])


def evaluate_general(g: GeneralIntensity, x) -> float:
    """Mean under an arbitrary rate and weights: sum of lam*w_m*component_m.

    With ``lam = M`` and uniform weights this reduces to :func:`evaluate`
    on the corresponding model (bit for bit when ``M*(1/M) == 1.0``).
    """
    scale = g.lam * np.asarray(g.weights)
    return float(_mean_values([x], g.x0, _stack_components(g.components), scale)[0])


def from_taylor_polynomial(coeffs, x0: float) -> SteModel:
    """Degenerate model evaluating the polynomial sum_m coeffs[m]*(x-x0)**m.

    One component per coefficient with mu_a = coeffs[m], mu_n = m and all
    randomness switched off (sigma_a = sigma_n = rho = 0); d = 1.
    """
    coeffs_t = _as_float_tuple(coeffs, "coeffs")
    if not coeffs_t:
        raise DomainError("coeffs must be nonempty")
    x0_f = _as_finite_float(x0, "x0")
    comps = [
        ComponentParams(mu_a=a, sigma_a=0.0, mu_n=(float(m),), sigma_n=(0.0,), rho=(0.0,))
        for m, a in enumerate(coeffs_t)
    ]
    return SteModel(d=1, components=tuple(comps), x0=(x0_f,), sigma2=0.0)


def predict_grid(model: SteModel, grid) -> np.ndarray:
    """:func:`evaluate` at every point of an ordered collection, vectorised.

    ``grid`` is an (N, d) array-like (or length-N sequence of points for
    d = 1). Domain errors name the first offending row.
    """
    return _mean_values(grid, model.x0, _stack_components(model.components))


def _to_fitted_units(model: SteModel, points) -> np.ndarray:
    """Points in original units, read by :func:`_point_matrix`, divided by ``rescale[:d]``."""
    return _point_matrix(points, model.d) / np.asarray(model.rescale[: model.d])


def predict_original_units(model: SteModel, points) -> np.ndarray:
    """Predictions for points given in original (pre-rescale) units.

    Inputs are divided by ``rescale[:d]`` before evaluation and the values
    multiplied by ``rescale[d]`` after, so callers never hand-scale.
    """
    return predict_grid(model, _to_fitted_units(model, points)) * model.rescale[model.d]


# ---------------------------------------------------------------------------
# Serialization: versioned JSON with shortest-round-trip float encoding.
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


def model_to_dict(model: SteModel) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "d": model.d,
        "x0": list(model.x0),
        "sigma2": model.sigma2,
        "rescale": list(model.rescale),
        "components": [
            {
                "mu_a": c.mu_a,
                "sigma_a": c.sigma_a,
                "mu_n": list(c.mu_n),
                "sigma_n": list(c.sigma_n),
                "rho": list(c.rho),
            }
            for c in model.components
        ],
    }


def model_from_dict(doc: dict) -> SteModel:
    if not isinstance(doc, dict):
        raise DomainError("model document must be a JSON object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise DomainError(f"unsupported model schema version: {version!r}")
    try:
        comps = tuple(
            ComponentParams(
                mu_a=c["mu_a"],
                sigma_a=c["sigma_a"],
                mu_n=c["mu_n"],
                sigma_n=c["sigma_n"],
                rho=c["rho"],
            )
            for c in doc["components"]
        )
        return SteModel(
            d=doc["d"],
            components=comps,
            x0=doc["x0"],
            sigma2=doc["sigma2"],
            # A document must state its factors: null is not the default here.
            rescale=tuple(doc["rescale"]),
        )
    except KeyError as exc:
        raise DomainError(f"model document is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"invalid model document: {exc}") from None


def model_to_json(model: SteModel) -> str:
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def model_from_json(text: str) -> SteModel:
    return model_from_dict(json.loads(text))


# Rows that csv_text formats as one piece of text. Only one block's cell
# strings and Python numbers are alive at a time. Formatting the whole text
# as one block instead raised the traced peak of a 40k-row CLI predict from
# 5.5 to 10.9 MiB, and the resident peak of that predict followed by a CLI
# envelope of 10^4 realizations on 200 points from 46.1 to 49.5 MiB: the
# predict, not the envelope, sets that peak.
_CSV_BLOCK_ROWS = 512


def _csv_cells(values: np.ndarray) -> list:
    """``repr`` of each entry, as the Python number of its dtype.

    Entries are told apart by bit pattern, not by value, so 0.0 and -0.0
    keep their own texts, and NaNs, which equal nothing, need no special
    case. Each distinct pattern is formatted once.
    """
    bits = values.view(f"u{values.itemsize}")
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    text = np.array(list(map(repr, values[first].tolist())), dtype=object)
    return text[inverse].tolist()


def csv_text(header, columns) -> str:
    """CSV text: the header line, then row i holds entry i of every column.

    Each cell is ``repr`` of the Python number of the column's dtype: an
    integer column prints integers, a real column floats that read back
    exactly. Every line, the last included, ends in a newline.
    """
    columns = [np.asarray(column) for column in columns]
    blocks = [",".join(header) + "\n"]
    for start in range(0, columns[0].shape[0], _CSV_BLOCK_ROWS):
        stop = start + _CSV_BLOCK_ROWS
        rows = zip(*(_csv_cells(column[start:stop]) for column in columns))
        blocks.append("\n".join(map(",".join, rows)) + "\n")
    return "".join(blocks)


def atomic_write_text(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def save_model(model: SteModel, path: str) -> None:
    atomic_write_text(path, model_to_json(model))


def load_model(path: str) -> SteModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_json(handle.read())
