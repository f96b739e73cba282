"""Quadrature distances between function values on rectangular windows.

Both metrics integrate over a uniform tensor grid with the composite
trapezoid rule: D_sq = integral of (f_hat - f_true)**2, D_l1 = integral of
|f_hat - f_true|. Callers supply the two value vectors evaluated on
``GridSpec.points()`` in grid order. The weighted values are added by numpy's
pairwise sum, not a BLAS dot product, so a distance has the same bits at any
BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import _as_float_array, _as_float_tuple, _as_int

__all__ = [
    "GridSpec",
    "trapezoid_weights",
    "integrated_sq_distance",
    "l1_distance",
    "shift_window_above",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on the box [lower, upper] with points_per_dim per axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    points_per_dim: int

    def __post_init__(self) -> None:
        lower = _as_float_tuple(self.lower, "lower")
        if not lower:
            raise DomainError("lower must be nonempty")
        upper = _as_float_tuple(self.upper, "upper", len(lower))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if any(lo >= hi for lo, hi in zip(lower, upper)):
            raise DomainError(f"need lower < upper per coordinate, got {lower}, {upper}")
        points_per_dim = _as_int(self.points_per_dim, "points_per_dim", 2)
        object.__setattr__(self, "points_per_dim", points_per_dim)

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def n_points(self) -> int:
        return self.points_per_dim**self.d

    def steps(self) -> tuple[float, ...]:
        """Grid spacing per axis."""
        n = self.points_per_dim - 1
        return tuple((hi - lo) / n for lo, hi in zip(self.lower, self.upper))

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(lo, hi, self.points_per_dim)
            for lo, hi in zip(self.lower, self.upper)
        ]

    def points(self) -> np.ndarray:
        """(n_points, d) array in lexicographic order (first axis slowest)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


def trapezoid_weights(grid: GridSpec) -> np.ndarray:
    """Composite trapezoid quadrature weights matching ``grid.points()`` order.

    Tensor product of per-axis weights h*(1/2, 1, ..., 1, 1/2); the weights
    sum to the window volume, so constants integrate exactly.
    """
    weights_1d = []
    for h in grid.steps():
        w = np.full(grid.points_per_dim, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        weights_1d.append(w)
    total = weights_1d[0]
    for w in weights_1d[1:]:
        total = np.outer(total, w).reshape(-1)
    return total


def _check_values(f_hat, f_true, grid: GridSpec) -> np.ndarray:
    a = _as_float_array(f_hat, "f_hat").reshape(-1)
    b = _as_float_array(f_true, "f_true").reshape(-1)
    if a.shape != b.shape:
        raise DomainError(f"value vectors must match, got lengths {a.size} and {b.size}")
    if a.size != grid.n_points:
        raise DomainError(
            f"value vectors have length {a.size} but the grid has {grid.n_points} points"
        )
    diff = a - b
    if not np.isfinite(diff).all():
        raise DomainError("value vectors must be finite")
    return diff


def _trapezoid_sum(values: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid sum of ``values``, which are overwritten."""
    values *= trapezoid_weights(grid)
    return float(np.add.reduce(values))


def integrated_sq_distance(f_hat, f_true, grid: GridSpec) -> float:
    """Trapezoid approximation of the integral of (f_hat - f_true)**2 over the window."""
    diff = _check_values(f_hat, f_true, grid)
    return _trapezoid_sum(np.square(diff, out=diff), grid)


def l1_distance(f_hat, f_true, grid: GridSpec) -> float:
    """Trapezoid approximation of the integral of |f_hat - f_true| over the window."""
    diff = _check_values(f_hat, f_true, grid)
    return _trapezoid_sum(np.abs(diff, out=diff), grid)


def shift_window_above(grid: GridSpec, x0) -> GridSpec:
    """Move any window edge sitting at or below x0 inward by one grid step.

    Evaluation requires points strictly above the expansion origin; a window
    that starts exactly at the origin would place its first grid point on
    ln(0). Axes already strictly above x0 are unchanged.
    """
    x0_t = _as_float_tuple(x0, "x0", grid.d)
    steps = grid.steps()
    new_lower = tuple(
        lo + h if lo <= origin else lo
        for lo, h, origin in zip(grid.lower, steps, x0_t)
    )
    for lo, origin in zip(new_lower, x0_t):
        if lo <= origin:
            raise DomainError(
                f"window lower bound {lo} still at or below the origin {origin} "
                "after shifting; choose a narrower window or a lower origin"
            )
    if new_lower == grid.lower:
        return grid
    return GridSpec(lower=new_lower, upper=grid.upper, points_per_dim=grid.points_per_dim)
