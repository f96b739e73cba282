"""Least-squares estimation of mixture models and model-order selection.

For a fixed component count M the K observations are fitted by multi-start
nonlinear least squares on an unconstrained parameter vector (sigma mapped
through a floored exponential, correlation vectors through
z -> z / sqrt(1 + ||z||^2), which keeps sum(rho^2) < 1). Start 0 anchors at
a polynomial-like configuration (powers 0..M-1, coefficients from ordinary
least squares on the implied monomial basis); later starts jitter it with
growing Gaussian perturbations. The evaluation budget ``max_iters`` is
shared across starts, so many starts mean shallow local polish per start.
Model-order selection fits M = 1, 2, ... and picks the smallest M whose
RSS lands inside a tie window around the best RSS (raw argmin would nearly
always return M_max, since RSS is nonincreasing in M for a capable
optimizer); the window combines a relative term and an absolute floor with
the one-standard-error width of the RSS statistic itself, so orders that
only chase noise do not displace smaller ones. The scan stops at the first
of two stops. The floor stop is exact: once the order chosen so far has RSS
at or below the floor, the window can only shrink towards the floor, so no
later order can change the choice. The margin stop ends the scan three
orders past the order chosen so far; on noisy data, where the floor stop
never fires, it skips the costliest orders, and a skipped order could have
moved the choice. Orders never fitted are reported as skipped, with the stop
that skipped them.

Each start runs :func:`least_squares`, a port of the unbounded branch of
scipy's Trust Region Reflective solver (``trf_no_bounds`` and
``solve_lsq_trust_region`` in ``scipy.optimize._lsq``, BSD-3-Clause): TRF
(Branch, Coleman & Li 1999) with the exact trust-region step of Moré (1977).
It keeps scipy's loop, stops and counts, but computes the step from one
eigendecomposition of the Gram matrix J^T J per iteration instead of an SVD
of J, so its fits agree with ``scipy.optimize.least_squares(method="trf")``
up to rounding, not bit for bit. The mean depends on a component's sigma_a
and rho only through sigma_a * rho_r * sigma_n_r, so each component adds a
flat direction, J is never of full rank and every step is Moré's search for
a step on the trust-region boundary. The objective is not clipped: a trial
step whose residuals overflow is rejected and the trust region shrinks, and
a start whose residuals at x0 or whose Jacobian are not finite fails alone.

Everything is deterministic given (data, config including seed).
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import DomainError, FitFailure, NumericRangeError
from .model import (
    ComponentParams,
    SteModel,
    _as_finite_float,
    _as_float_array,
    _as_float_tuple,
    _as_int,
    _mean_values,
    _point_matrix,
    _points,
    _stack_components,
    evaluate,  # noqa: F401 -- a module attribute that perfbench/spans.py patches
    model_to_dict,
)
from .rng import RngStream

__all__ = [
    "Dataset",
    "FitConfig",
    "FitResult",
    "SelectedFit",
    "UnderdeterminedWarning",
    "choose_origin",
    "rss",
    "sigma2_mle",
    "pack_params",
    "unpack_params",
    "objective_value",
    "objective_gradient",
    "fit_fixed_m",
    "select_model",
    "selected_fit_to_dict",
]

# Transformed-space constants. SIGMA_FLOOR keeps standard deviations positive
# without letting them collapse to exact zero inside the optimizer. Nothing
# else bounds the objective: see the overflow policy in the model docstring.
SIGMA_FLOOR = 1e-8
# Step-size stopping tolerance: overparameterized component counts produce
# long degenerate valleys where the RSS improvement test alone grinds until
# the evaluation budget; a small-step exit ends those runs early.
_XTOL = 1e-8
# Relative RSS-improvement stopping tolerance of each start (TRF's ftol).
_REL_TOL = 1e-10
# Moré's step: iterations and relative tolerance of the search for ||p|| = Delta.
_TR_MAX_ITER = 10
_TR_RTOL = 0.01

# Model selection: RSS ties are called within a relative window plus an
# absolute floor proportional to the data's energy (so noiseless fits, whose
# RSS is indistinguishable from zero at every M, resolve to the smallest M)
# plus a one-standard-error allowance: under Gaussian noise RSS fluctuates
# with standard deviation ~ sqrt(2K) * sigma^2, and sigma^2 is estimated by
# rss_min / K, so RSS gaps below that scale carry no evidence for extra
# components.
_SELECT_TOL = 1e-3
_TIE_FLOOR_REL = 1e-8
_TIE_SE_MULT = 0.75
# The scan stops once it has tried this many orders past the order chosen so
# far. A margin of 2 breaks criterion 6's K=25 -> 100 trend on trig_mix at
# master seed 0.
_SCAN_MARGIN = 3

# Multi-start jitter: start s perturbs the anchor by N(0, scale(s)^2) with
# scale growing linearly and capped, balancing local refinement against
# basin exploration.
_JITTER_STEP = 0.25
_JITTER_CAP = 1.0
# Automatic expansion origin: this fraction of each coordinate's data range
# below its minimum. Pass an explicit origin to place it elsewhere.
_ORIGIN_FRAC = 0.05

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class UnderdeterminedWarning(UserWarning):
    """Fewer observations than free parameters; the fit is not unique."""


@dataclass(frozen=True)
class Dataset:
    """Observations (X, y): K rows of d coordinates with one response each."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        X = _point_matrix(self.X, name="X")
        y = _as_float_array(self.y, "y").reshape(-1)
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DomainError(f"X must be a (K, d) matrix with K, d >= 1, got shape {X.shape}")
        if y.shape[0] != X.shape[0]:
            raise DomainError(f"y has length {y.shape[0]} but X has {X.shape[0]} rows")
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise DomainError("dataset entries must be finite")
        X = X.copy()
        y = y.copy()
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def K(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Optimizer and selection settings.

    ``n_starts`` local optimizations per M; ``max_iters`` total
    function-evaluation budget per model order, split evenly across starts
    (each start gets at least 2 evaluations); ``seed`` master seed for the
    start jitter. The stopping tolerance of each start (``_REL_TOL``), the
    terms of the order-selection tie window (``_SELECT_TOL``,
    ``_TIE_FLOOR_REL``, ``_TIE_SE_MULT``), the scan's margin
    (``_SCAN_MARGIN``) and the offset of the automatic origin
    (``_ORIGIN_FRAC``) are module constants.
    """

    n_starts: int = 20
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_starts", _as_int(self.n_starts, "n_starts", 1))
        object.__setattr__(self, "max_iters", _as_int(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))


@dataclass(frozen=True)
class FitResult:
    """Best model found for one fixed M."""

    model: SteModel
    rss: float
    sigma2: float
    n_starts_converged: int
    best_start_index: int
    underdetermined: bool = False


@dataclass(frozen=True)
class SelectedFit:
    """Order scan over M = 1..M_max with the tie-window choice.

    ``per_m`` maps each successfully fitted M to its FitResult (so
    ``per_m[chosen_m] is chosen``); M values whose every start failed appear
    in ``failures`` instead, and the orders never fitted, because the floor
    stop or the margin stop of :func:`select_model` ended the scan, in
    ``skipped`` (ascending). The three are disjoint and together cover
    1..M_max. ``stopped_by`` names that stop, ``"floor"`` or ``"margin"``,
    and is None exactly when nothing was skipped.
    """

    per_m: Mapping[int, FitResult]
    chosen_m: int
    chosen: FitResult
    failures: Mapping[int, str]
    skipped: tuple[int, ...] = ()
    stopped_by: str | None = None

    def __post_init__(self) -> None:
        if self.chosen_m not in self.per_m or self.per_m[self.chosen_m] is not self.chosen:
            raise DomainError("chosen must be the per_m entry at chosen_m")
        orders = [*self.per_m, *self.failures, *self.skipped]
        if sorted(orders) != list(range(1, len(orders) + 1)):
            raise DomainError(
                "per_m, failures and skipped must partition the orders 1..M_max, got "
                f"{sorted(self.per_m)}, {sorted(self.failures)} and {list(self.skipped)}"
            )
        allowed = ("floor", "margin") if self.skipped else (None,)
        if self.stopped_by not in allowed:
            raise DomainError(
                f"stopped_by must be one of {allowed} with skipped {list(self.skipped)}, "
                f"got {self.stopped_by!r}"
            )


def choose_origin(X) -> np.ndarray:
    """Expansion origin strictly below the data: min - max(_ORIGIN_FRAC*range, 1e-6).

    A zero per-coordinate range falls back to the absolute 1e-6 offset, so
    every shift X[k][r] - x0[r] is strictly positive.
    """
    X = _point_matrix(X, name="X")
    if X.shape[0] < 1:
        raise DomainError(f"X must be a nonempty (K, d) matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DomainError("X must be finite")
    mins = X.min(axis=0)
    ranges = X.max(axis=0) - mins
    return mins - np.maximum(_ORIGIN_FRAC * ranges, 1e-6)


def rss(model: SteModel, data: Dataset) -> float:
    """Residual sum of squares sum_k (y_k - evaluate(model, x_k))**2.

    Errors name the offending row.
    """
    residual = data.y - _mean_values(data.X, model)
    return float(residual @ residual)


def sigma2_mle(rss_value: float, K: int) -> float:
    """Maximum-likelihood residual variance: RSS / K."""
    rss_value = _as_finite_float(rss_value, "rss")
    if rss_value < 0.0:
        raise DomainError(f"rss must be >= 0, got {rss_value}")
    return rss_value / _as_int(K, "K", 1)


# ---------------------------------------------------------------------------
# Unconstrained parameterization.
#
# Component layout: [mu_a, s_a, mu_n (d), s_n (d), z (d)] with
# sigma = SIGMA_FLOOR + exp(s) and rho = z / sqrt(1 + ||z||^2). The flat
# vector holds the components one after another; _split_params is the only
# reader of the offsets, everything else goes through its views.
# ---------------------------------------------------------------------------


def params_width(d: int) -> int:
    """Free parameters per component: 3d + 2."""
    return 3 * d + 2


def _split_params(V: np.ndarray, d: int):
    """Views (mu_a, s_a, mu_n, s_n, z) on the last axis of a (..., 3d+2) array."""
    return (
        V[..., 0],
        V[..., 1],
        V[..., 2 : 2 + d],
        V[..., 2 + d : 2 + 2 * d],
        V[..., 2 + 2 * d :],
    )


def _param_vector(v, m: int, d: int) -> np.ndarray:
    """v as a float vector, checked to hold M components of width 3d+2."""
    v = _as_float_array(v, "parameter vector").reshape(-1)
    expected = m * params_width(d)
    if v.shape[0] != expected:
        raise DomainError(
            f"parameter vector has length {v.shape[0]}, expected {expected} "
            f"for M={m}, d={d}"
        )
    return v


def _log_offsets(data: Dataset, m: int, x0) -> tuple[int, np.ndarray, np.ndarray]:
    """Checked M and origin, and the log offsets log(X - x0) of an M-component fit.

    The (K, d) offsets are F-ordered, so the kernels' ell = log_delta.T is one
    C-contiguous (d, K) array for the whole fit.
    """
    m = _as_int(m, "M", 1)
    x0 = np.asarray(_as_float_tuple(x0, "x0", data.d))
    return m, x0, np.asfortranarray(np.log(_points(data.X, x0) - x0))


def _transform(s_a, s_n, z):
    """sigma_a, sigma_n, rho and s = sqrt(1 + ||z||^2) (shape (M, 1)) of the free parameters."""
    sigma_a = SIGMA_FLOOR + np.exp(s_a)
    sigma_n = SIGMA_FLOOR + np.exp(s_n)
    s = np.sqrt(1.0 + (z**2).sum(axis=1, keepdims=True))
    return sigma_a, sigma_n, z / s, s


def pack_params(model: SteModel) -> np.ndarray:
    """Unconstrained vector of length M*(3d+2), components in canonical order.

    Inverse of :func:`unpack_params` up to component permutation; standard
    deviations at or below the 1e-8 floor and correlation vectors with
    sum(rho^2) >= 1 are clamped just inside the transform's range.
    """
    mu_a, sigma_a, mu_n, sigma_n, rho = _stack_components(model.components)
    out = np.empty((model.m, params_width(model.d)))
    v_mu_a, v_s_a, v_mu_n, v_s_n, v_z = _split_params(out, model.d)
    v_mu_a[...] = mu_a
    v_s_a[...] = np.log(np.maximum(sigma_a - SIGMA_FLOOR, 1e-300))
    v_mu_n[...] = mu_n
    v_s_n[...] = np.log(np.maximum(sigma_n - SIGMA_FLOOR, 1e-300))
    ssq = (rho**2).sum(axis=1, keepdims=True)
    over = ssq >= 1.0
    rho = rho * np.where(over, np.sqrt((1.0 - 1e-12) / np.maximum(ssq, 1.0)), 1.0)
    v_z[...] = rho / np.sqrt(1.0 - np.where(over, 1.0 - 1e-12, ssq))
    return out.reshape(-1)


def unpack_params(v, m: int, d: int, x0) -> SteModel:
    """Model from an unconstrained vector (components canonically re-sorted)."""
    v = _param_vector(v, m, d)
    mu_a, s_a, mu_n, s_n, z = _split_params(v.reshape(m, -1), d)
    # An overflowing sigma is a DomainError from ComponentParams, not a warning.
    with np.errstate(over="ignore"):
        sigma_a, sigma_n, rho, _ = _transform(s_a, s_n, z)
    comps = tuple(
        ComponentParams(
            mu_a=float(mu_a[i]),
            sigma_a=float(sigma_a[i]),
            mu_n=tuple(mu_n[i]),
            sigma_n=tuple(sigma_n[i]),
            rho=tuple(rho[i]),
        )
        for i in range(m)
    )
    return SteModel(d=d, components=comps, x0=x0, sigma2=0.0)


def _forward(v: np.ndarray, m: int, d: int, log_delta: np.ndarray):
    """Predictions of the transformed parameter vector at precomputed (K, d) log offsets.

    Works in the (M, K) layout on ell = log_delta.T. Component i's term at
    point k is C * P, with C = mu_a + sigma_a * corr, corr = (rho * sigma_n) ell
    and P = exp(mu_n ell + (sigma_n**2 / 2) ell**2). An overflow is not clipped.
    """
    mu_a, s_a, mu_n, s_n, z = _split_params(v.reshape(m, -1), d)
    sigma_a, sigma_n, rho, s = _transform(s_a, s_n, z)
    ell = log_delta.T
    corr = (rho * sigma_n).dot(ell)
    P = np.exp(mu_n.dot(ell) + (0.5 * sigma_n**2).dot(ell**2))
    CP = (mu_a[:, None] + sigma_a[:, None] * corr) * P
    return CP.sum(axis=0), (sigma_a, sigma_n, rho, s, corr, P, CP)


def _prediction_jacobian(aux, m: int, d: int, log_delta: np.ndarray) -> np.ndarray:
    """d(prediction)/d(parameter vector), shape (K, M*(3d+2)), F-ordered.

    Blocks are filled in an (M, 3d+2, K) array, so inner loops run over the
    K points; J is the transposed view of its (M*(3d+2), K) reshape. With
    rho = z / s and s = sqrt(1 + ||z||^2), sum_r (d pred / d rho_r) z_r =
    sigma_a P s corr, so the z-block has the closed form
    d pred / d z_q = (sigma_a P / s) (sigma_n_q ell_q - rho_q corr).
    """
    sigma_a, sigma_n, rho, s, corr, P, CP = aux
    ell = log_delta.T
    K = log_delta.shape[0]
    JT = np.empty((m, params_width(d), K))
    views = _split_params(JT.swapaxes(1, 2), d)
    j_mu_a, j_s_a, j_mu_n, j_s_n, j_z = (view.swapaxes(1, -1) for view in views)
    j_mu_a[...] = P
    j_s_a[...] = corr * P * (sigma_a - SIGMA_FLOOR)[:, None]
    j_mu_n[...] = CP[:, None, :] * ell
    # d pred / d sigma_n_r = (sigma_a rho_r P + C P sigma_n_r ell_r) ell_r.
    sn_ell = sigma_n[:, :, None] * ell
    via_coeff = (sigma_a[:, None] * rho)[:, :, None] * P[:, None, :]
    j_s_n[...] = (via_coeff + CP[:, None, :] * sn_ell) * ell * (sigma_n - SIGMA_FLOOR)[:, :, None]
    aP_s = (sigma_a[:, None] / s * P)[:, None, :]
    j_z[...] = aP_s * (sn_ell - rho[:, :, None] * corr[:, None, :])
    return JT.reshape(-1, K).T


def objective_value(v, m: int, data: Dataset, x0) -> float:
    """RSS of an unconstrained parameter vector (the optimizer's objective)."""
    m, _, log_delta = _log_offsets(data, m, x0)
    pred, _ = _forward(_param_vector(v, m, data.d), m, data.d, log_delta)
    residual = pred - data.y
    return float(residual @ residual)


def objective_gradient(v, m: int, data: Dataset, x0) -> np.ndarray:
    """Analytic gradient of :func:`objective_value` with respect to v."""
    m, _, log_delta = _log_offsets(data, m, x0)
    pred, aux = _forward(_param_vector(v, m, data.d), m, data.d, log_delta)
    J = _prediction_jacobian(aux, m, data.d, log_delta)
    return 2.0 * (J.T @ (pred - data.y))


def _taylor_start(y: np.ndarray, m: int, d: int, log_delta: np.ndarray) -> np.ndarray:
    """Polynomial-like anchor: powers 0..M-1 per coordinate, OLS coefficients."""
    powers = np.arange(m, dtype=float)
    # The anchor's own cap, not the objective's overflow policy: lstsq on a
    # basis with an inf raises LinAlgError, which would end the whole order.
    basis = np.exp(np.minimum(np.outer(log_delta.sum(axis=1), powers), 200.0))
    coeffs, *_ = np.linalg.lstsq(basis, y, rcond=None)
    V = np.empty((m, params_width(d)))
    mu_a, s_a, mu_n, s_n, z = _split_params(V, d)
    mu_a[...] = coeffs
    s_a[...] = math.log(0.5 - SIGMA_FLOOR)
    mu_n[...] = powers[:, None]
    s_n[...] = math.log(0.1 - SIGMA_FLOOR)
    z[...] = 0.0
    return V.reshape(-1)


def _outside_stacklevel() -> int:
    """``stacklevel`` for a warning from the caller: the first frame outside the package."""
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class TrfResult:
    """End of one :func:`least_squares` run.

    ``cost`` is 0.5 * ||fun(x)||^2. ``status`` is 0 when the evaluation
    budget ran out, 2 when the cost reduction fell below ftol, 3 when the
    step fell below xtol and 4 when both did (scipy's codes).
    """

    x: np.ndarray
    cost: float
    nfev: int
    njev: int
    status: int


class _NotFinite(ValueError):
    """:func:`least_squares` met non-finite residuals at x0 or a non-finite Jacobian."""


def _norm(q: np.ndarray) -> float:
    """Euclidean norm of a vector: numpy.linalg.norm's arithmetic without its call overhead."""
    return math.sqrt(q.dot(q))


def _gram_eigen(J: np.ndarray, g: np.ndarray):
    """V^T g, w and V of the Gram matrix J^T J = V diag(w) V^T.

    ``J`` is :func:`_prediction_jacobian`'s F-ordered (K, n) array, so J.T
    is C-ordered and J.T.dot(J) reads contiguous rows. ``g`` is J^T f.
    Eigenvalues come in the SVD's descending order, and a zero eigenvalue
    that rounding left negative is set to 0. A Jacobian that is not finite,
    or whose Gram matrix overflows (|J| above about 1e154), raises
    :class:`_NotFinite`.
    """
    G = J.T.dot(J)
    if not np.isfinite(G).all():
        raise _NotFinite("Jacobian or its Gram matrix has infs or NaNs")
    w, V = np.linalg.eigh(G)
    w = np.maximum(w[::-1], 0.0)
    V = np.ascontiguousarray(V[:, ::-1])
    return V.T.dot(g), w, V


def _trust_region_step(gv, w, V, Delta, alpha):
    """Moré's (1977) minimizer of ||J p + f|| on ||p|| = Delta, from J^T J = V diag(w) V^T.

    ``gv``, ``w`` and ``V`` are :func:`_gram_eigen`'s. Returns p and the
    Levenberg-Marquardt parameter alpha with (J^T J + alpha I) p = -g; the
    ``alpha`` passed in, the last step's, seeds the root search. This is the
    rank-deficient branch of scipy's ``solve_lsq_trust_region``, with
    s**2 = w and s * U^T f = gv: a fit's J is never of full rank.
    """
    alpha_upper = _norm(gv) / Delta
    alpha_lower = 0.0
    if alpha == 0:
        alpha = 0.001 * alpha_upper
    for _ in range(_TR_MAX_ITER):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        # phi = ||p(alpha)|| - Delta, with p(alpha) = -gv / (w + alpha) in the eigenvector basis.
        denom = w + alpha
        q = gv / denom
        p_norm = _norm(q)
        phi = p_norm - Delta
        phi_prime = -q.dot(q / denom) / p_norm
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if abs(phi) < _TR_RTOL * Delta:
            break
    p = -V.dot(gv / (w + alpha))
    # Scale p onto the boundary, so that rounding never puts it outside.
    p *= Delta / _norm(p)
    return p, alpha


# A module attribute that perfbench/spans.py patches.
def least_squares(fun, x0, *, jac, max_nfev: int) -> TrfResult:
    """Minimize 0.5 * ||fun(x)||^2 from x0 by Trust Region Reflective steps.

    TRF (Branch, Coleman & Li 1999) without bounds, each step the exact
    trust-region step of Moré (1977). This is the branch of
    ``scipy.optimize.least_squares(method="trf")`` that the fit uses: no
    bounds, ``tr_solver="exact"``, linear loss, unit ``x_scale``,
    ``ftol=_REL_TOL``, ``xtol=_XTOL`` and ``gtol=None``, ported from scipy's
    ``trf_no_bounds`` and ``solve_lsq_trust_region`` (BSD-3-Clause) with the
    same loop, stops and residual counts. Where scipy takes an SVD
    J = U S V^T, each iteration here takes the eigendecomposition of the
    Gram matrix J^T J = V diag(w) V^T (:func:`_gram_eigen`), which gives the
    same step: s**2 = w and s * U^T f = V^T J^T f, and for K >> n is cheaper
    than the SVD of the K x n Jacobian. The fits agree with scipy's up to
    rounding, not bit for bit. Every step lies on the trust-region boundary:
    scipy's Gauss-Newton branch is left out, as no fit's J has full rank.
    ``fun`` runs at most ``max_nfev`` times and ``jac(x)`` right after each
    ``fun(x)`` whose step is taken, except a step that ends the run (a stop
    is met or the budget is spent). scipy evaluates that Jacobian too, so
    ``njev`` is scipy's less one when the last step was taken. Non-finite
    residuals at x0 raise :class:`_NotFinite`, a ValueError as in scipy, and
    so does a non-finite Jacobian or one whose Gram matrix overflows.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        raise _NotFinite("Residuals are not finite in the initial point.")
    J = jac(x)
    nfev = njev = 1
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    Delta = _norm(x)
    if Delta == 0:
        Delta = 1.0
    alpha = 0.0
    status = 0
    while not status and nfev < max_nfev:
        eigen = _gram_eigen(J, g)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            step, alpha = _trust_region_step(*eigen, Delta, alpha)
            Js = J.dot(step)
            predicted_reduction = -(0.5 * np.dot(Js, Js) + np.dot(step, g))
            x_new = x + step
            f_new = fun(x_new)
            nfev += 1
            step_norm = _norm(step)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            if ratio < 0.25:
                Delta_new = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * Delta:
                Delta_new = 2.0 * Delta
            else:
                Delta_new = Delta
            ftol_met = actual_reduction < _REL_TOL * cost and ratio > 0.25
            xtol_met = step_norm < _XTOL * (_XTOL + _norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            # A step that ends the run needs no Jacobian: nothing reads it.
            if not status and nfev < max_nfev:
                J = jac(x)
                njev += 1
                g = J.T.dot(f)
    return TrfResult(x=x, cost=cost, nfev=nfev, njev=njev, status=status)


def _least_squares_callbacks(y: np.ndarray, m: int, d: int, log_delta: np.ndarray):
    """TRF's residual and Jacobian callables. TRF calls ``jac(x)`` right after ``fun(x)``, so
    the Jacobian reuses the last residual's forward pass at a ``v`` with the same bytes."""
    last = [b"", None]

    def residuals(v: np.ndarray) -> np.ndarray:
        pred, last[1] = _forward(v, m, d, log_delta)
        last[0] = v.tobytes()
        return pred - y

    def jacobian(v: np.ndarray) -> np.ndarray:
        aux = last[1] if v.tobytes() == last[0] else _forward(v, m, d, log_delta)[1]
        return _prediction_jacobian(aux, m, d, log_delta)

    return residuals, jacobian


def fit_fixed_m(data: Dataset, m: int, cfg: FitConfig, x0) -> FitResult:
    """Minimum-RSS model over cfg.n_starts local optimizations at fixed M.

    Start s >= 1 jitters the polynomial-like anchor using stream
    (cfg.seed, s); the winner is the lowest-RSS start, ties broken by the
    smallest start index, so any parallel execution order gives the same
    result. A start fails, and the others go on, when its final cost is not
    finite or when its residuals at the start or a Jacobian on its path are
    not; FitFailure names M when every start fails. K < M*(3d+2) triggers
    UnderdeterminedWarning but still fits.
    """
    m, x0, log_delta = _log_offsets(data, m, x0)
    n_params = m * params_width(data.d)
    underdetermined = data.K < n_params
    if underdetermined:
        warnings.warn(
            f"K={data.K} observations for {n_params} free parameters at M={m}; "
            "the fit is underdetermined",
            UnderdeterminedWarning,
            stacklevel=_outside_stacklevel(),
        )

    y = data.y
    residuals, jacobian = _least_squares_callbacks(y, m, data.d, log_delta)
    anchor = _taylor_start(y, m, data.d, log_delta)
    budget = max(2, cfg.max_iters // cfg.n_starts)
    candidates = []
    n_converged = 0
    for s in range(cfg.n_starts):
        if s == 0:
            v_start = anchor
        else:
            gen = RngStream(cfg.seed, s).generator()
            scale = min(_JITTER_STEP * s, _JITTER_CAP)
            v_start = anchor + scale * gen.standard_normal(n_params)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                result = least_squares(residuals, v_start, jac=jacobian, max_nfev=budget)
            except _NotFinite:
                continue
        cost = 2.0 * float(result.cost)
        if math.isfinite(cost):
            candidates.append((cost, s, result.x))
            if result.status > 0:
                n_converged += 1

    candidates.sort(key=lambda item: (item[0], item[1]))
    for _, start_index, v_best in candidates:
        model = unpack_params(v_best, m, data.d, x0)
        try:
            rss_value = rss(model, data)
            sigma2 = sigma2_mle(rss_value, data.K)
        except (NumericRangeError, DomainError):  # a prediction or the RSS overflows
            continue
        return FitResult(
            model=replace(model, sigma2=sigma2),
            rss=rss_value,
            sigma2=sigma2,
            n_starts_converged=n_converged,
            best_start_index=start_index,
            underdetermined=underdetermined,
        )
    raise FitFailure(f"all {cfg.n_starts} optimization starts failed for M={m}")


def _tie_window_choice(rss_by_m: Mapping[int, float], floor: float, K: int) -> int:
    """Smallest order whose RSS lies inside the tie window of ``rss_by_m``.

    The window is RSS_M <= (1 + _SELECT_TOL) * rss_min + floor + se, with
    rss_min the best RSS in the table and se = 0.75 * sqrt(2K) * rss_min / K.
    The threshold never falls below ``floor`` and never rises when an entry
    is added, which is what makes the floor stop in :func:`select_model`
    exact. Nothing bounds how far a later entry can lower it, which is why
    the margin stop is not exact.
    """
    rss_min = min(rss_by_m.values())
    one_se = _TIE_SE_MULT * math.sqrt(2.0 * K) * (rss_min / K)
    threshold = (1.0 + _SELECT_TOL) * rss_min + floor + one_se
    return min(m for m, value in rss_by_m.items() if value <= threshold)


def select_model(data: Dataset, m_max: int, cfg: FitConfig, x0=None) -> SelectedFit:
    """Fit M = 1, 2, ... and choose the smallest M inside the RSS tie window.

    The window is RSS_M <= (1 + _SELECT_TOL) * rss_min + floor + se, with
    rss_min the best RSS over the fitted orders, floor = _TIE_FLOOR_REL *
    sum(y^2) (resolves near-zero noiseless ties to the smallest M), and
    se = _TIE_SE_MULT * sqrt(2K) * rss_min / K, the one-standard-error width
    of the RSS statistic under the fitted noise level (RSS gaps below it
    carry no evidence for extra components). The three module constants are
    1e-3, 1e-8 and 0.75. Pass an explicit ``x0`` to override the origin rule.

    Call c the order chosen from the orders tried so far. After order m has
    been tried (fitted or failed), the scan stops at the first of two stops
    that holds; the orders after m are returned in ``skipped`` and the stop
    in ``stopped_by``:

    * floor: c has RSS <= floor. This stop is exact: the choice is the one a
      scan of all M_max orders would make. Further orders can only lower
      rss_min, so the threshold only falls, yet never below the floor. The
      chosen order stays inside the window and every smaller order stays
      outside it, whatever the later orders return. The simpler rule "stop
      at the first M with RSS_M <= floor" is not exact: with RSS_1 =
      1.5*floor and RSS_2 = 0.5*floor the choice between them still depends
      on the later orders.
    * margin: m >= c + _SCAN_MARGIN, with _SCAN_MARGIN = 3. On noisy data
      RSS never reaches the floor, and the orders far above the choice are
      the costliest to fit. This stop is not exact: a skipped order with an
      RSS far below the others' would have lowered the threshold and could
      have moved the choice up.
    """
    m_max = _as_int(m_max, "M_max", 1)
    if x0 is None:
        x0 = choose_origin(data.X)
    floor = _TIE_FLOOR_REL * float(data.y @ data.y)
    per_m: dict[int, FitResult] = {}
    failures: dict[int, str] = {}
    chosen_m = stopped_by = None
    for m in range(1, m_max + 1):
        try:
            per_m[m] = fit_fixed_m(data, m, cfg, x0)
        except FitFailure as exc:
            failures[m] = str(exc)
        else:
            chosen_m = _tie_window_choice({k: r.rss for k, r in per_m.items()}, floor, data.K)
        if chosen_m is None or m == m_max:
            continue
        if per_m[chosen_m].rss <= floor:
            stopped_by = "floor"
        elif m >= chosen_m + _SCAN_MARGIN:
            stopped_by = "margin"
        if stopped_by:
            break
    if not per_m:
        raise FitFailure(
            f"no model order in 1..{m_max} produced a fit: "
            + "; ".join(f"M={m}: {msg}" for m, msg in failures.items())
        )
    return SelectedFit(
        per_m=per_m,
        chosen_m=chosen_m,
        chosen=per_m[chosen_m],
        failures=failures,
        skipped=tuple(range(m + 1, m_max + 1)),
        stopped_by=stopped_by,
    )


def selected_fit_to_dict(sel: SelectedFit) -> dict:
    """Model document plus fit metadata (chosen M, RSS table, diagnostics).

    ``per_m_rss`` lists every order 1..M_max; a failed or skipped order
    reads null and is named in ``failures`` or ``skipped``. ``stopped_by``
    names the stop that skipped orders (``"floor"`` or ``"margin"``), or is
    null when every order was tried.
    """
    m_max = len(sel.per_m) + len(sel.failures) + len(sel.skipped)
    doc = model_to_dict(sel.chosen.model)
    doc["fit"] = {
        "chosen_m": sel.chosen_m,
        "rss": sel.chosen.rss,
        "sigma2": sel.chosen.sigma2,
        "n_starts_converged": sel.chosen.n_starts_converged,
        "best_start_index": sel.chosen.best_start_index,
        "per_m_rss": {
            str(m): sel.per_m[m].rss if m in sel.per_m else None for m in range(1, m_max + 1)
        },
        "failures": {str(m): msg for m, msg in sorted(sel.failures.items())},
        "skipped": list(sel.skipped),
        "stopped_by": sel.stopped_by,
    }
    return doc
