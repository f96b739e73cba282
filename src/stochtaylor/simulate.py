"""Point-process simulation, random-sum realizations, and Monte Carlo envelopes.

A realization of the process under a :class:`~stochtaylor.model.GeneralIntensity`
is a point pattern: ``v ~ Poisson(lam)`` events, each assigned to a mixture
component by the weights and drawn from that component's (d+1)-variate normal
over (a, n_1..n_d). A fitted :class:`~stochtaylor.model.SteModel` is the
rate-M, uniform-weight intensity and is passed to every function here as it
is. The random sum ``sum_j a_j * prod_r (x_r-x0_r)**n_{r,j}``
evaluated over many patterns gives Monte Carlo estimates of the closed-form
mean (:func:`mc_mean`) and pointwise quantile envelopes (:func:`envelope`).

Realizations are drawn a block at a time. Block b of a batch holds
realizations ``b*_BLOCK`` onward (``_BLOCK`` = 1024; the last block may be
shorter) and draws from stream ``rng.child(b)``: all its Poisson counts
first, then its events in realization order, in chunks of at most
``_CHUNK`` events (component uniforms, then normals), so memory is bounded
whatever the rate. A batch split on block boundaries, the part starting at
block k drawn from ``rng.child(k)``, reproduces the identical realizations.
:func:`sample_pattern` is a block of one realization.

:func:`mc_values` sums each realization's terms over the grid in pieces of
at most ``_TILE // n_points`` events that never cross a chunk, adding the
pieces to its row in event order, so its work arrays stay near ``_TILE``
elements. On grids of fewer than ``_GROUP_POINTS`` points it sums the
pieces inside each tile of consecutive events with one ``np.add.reduceat``;
on wider grids it gathers the pieces of each length into one array and sums
them with one ``np.einsum`` product per group, which costs less once a piece
spans many points. A block's values depend only on its draws and the grid,
never on the blocks around it.

:func:`envelope` relies on that split: it draws one block at a time and
keeps, per grid point, only the values that its two order statistics can
still need, so its memory is O((alpha * n_real + _BLOCK) * n_points)
doubles rather than the O(n_real * n_points) of the whole matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotSampleableError, NumericRangeError
from .model import (
    ComponentParams,
    GeneralIntensity,
    _as_finite_float,
    _as_float_array,
    _as_float_tuple,
    _as_int,
    _point_matrix,
    _points,
    _stack_components,
    csv_text,
)
from .rng import RngStream

__all__ = [
    "PointPattern",
    "Envelope",
    "is_sampleable",
    "sample_pattern",
    "ste_realization",
    "mc_values",
    "mc_mean",
    "envelope",
    "envelope_to_csv",
]

# Components may carry sum(rho^2) marginally above 1 from roundoff; the
# covariance is treated as positive semidefinite within this slack.
_PSD_TOL = 1e-12

# Realizations per stream in mc_values: block b draws from rng.child(b).
_BLOCK = 1024
# Most events drawn at once; bounds the draw arrays whatever lam is.
_CHUNK = 1 << 14
# Most elements (events x points) in one evaluation tile.
_TILE = 1 << 16
# Fewest grid points on which mc_values sums by event-count groups; below it,
# the gathers cost more than the per-tile reduceat they replace.
_GROUP_POINTS = 32


@dataclass(frozen=True)
class PointPattern:
    """Events of one process realization.

    ``events`` is a (v, d+1) float array: column 0 holds the coefficients a,
    columns 1..d the power vectors n. ``v = 0`` (no events) is a legal draw.
    The array is frozen read-only.
    """

    events: np.ndarray
    d: int

    def __post_init__(self) -> None:
        ev = _as_float_array(self.events, "events")
        object.__setattr__(self, "d", _as_int(self.d, "d", 1))
        if ev.ndim != 2 or ev.shape[1] != self.d + 1:
            raise DomainError(
                f"events must be a (v, d+1) array with d={self.d}, got shape {ev.shape}"
            )
        if ev.size and not np.isfinite(ev).all():
            raise DomainError("events must be finite")
        ev = ev.copy()
        ev.setflags(write=False)
        object.__setattr__(self, "events", ev)

    @property
    def count(self) -> int:
        return self.events.shape[0]

    @property
    def a(self) -> np.ndarray:
        return self.events[:, 0]

    @property
    def n(self) -> np.ndarray:
        return self.events[:, 1:]


def _alpha(value) -> float:
    """``value`` as a band's tail probability alpha: a finite real inside (0, 1)."""
    alpha = _as_finite_float(value, "alpha")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


@dataclass(frozen=True)
class Envelope:
    """Pointwise empirical quantile band over shared realizations.

    ``lower``/``upper`` are the alpha/2 and 1-alpha/2 empirical quantiles of
    the realization values at each grid point: nearest-rank order
    statistics, as ``np.quantile(..., method="inverted_cdf")`` picks them.
    ``mean`` is their average, summed in realization order. All
    realizations are evaluated across the whole grid, so the band is
    coherent along the grid (functional, not per-point-independent).
    """

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    mean: np.ndarray
    alpha: float
    n_real: int

    def __post_init__(self) -> None:
        grid = _point_matrix(self.grid, name="grid")
        n_points = grid.shape[0]
        arrays = {}
        for name in ("lower", "upper", "mean"):
            arr = _as_float_array(getattr(self, name), name)
            if arr.shape != (n_points,):
                raise DomainError(f"{name} must have shape ({n_points},), got {arr.shape}")
            arrays[name] = arr
        object.__setattr__(self, "alpha", _alpha(self.alpha))
        object.__setattr__(self, "n_real", _as_int(self.n_real, "n_real", 1))
        if np.any(arrays["lower"] > arrays["upper"]):
            raise DomainError("lower must not exceed upper anywhere")
        for name, arr in (("grid", grid), *arrays.items()):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def is_sampleable(comp: ComponentParams) -> bool:
    """Whether the component's (a, n) covariance is positive semidefinite.

    With independent power coordinates, and the nonnegative standard
    deviations that ``ComponentParams`` enforces, the condition reduces to
    ``sum_r rho[r]**2 <= 1`` (checked with 1e-12 slack).
    """
    return math.fsum(r * r for r in comp.rho) <= 1.0 + _PSD_TOL


def _component_arrays(g: GeneralIntensity):
    """Stacked per-component moment arrays for vectorized event assembly."""
    mu_a, sigma_a, mu_n, sigma_n, rho = _stack_components(g.components)
    # Residual scale of the coefficient after conditioning on the powers;
    # clamp tiny negatives allowed by the PSD slack.
    tail = np.sqrt(np.maximum(0.0, 1.0 - (rho**2).sum(axis=1)))
    cum_w = np.cumsum(np.asarray(g.weights, dtype=float))
    return mu_a, sigma_a, mu_n, sigma_n, rho, tail, cum_w


def _require_sampleable(g: GeneralIntensity) -> None:
    for idx, comp in enumerate(g.components):
        if not is_sampleable(comp):
            ssq = math.fsum(r * r for r in comp.rho)
            raise NotSampleableError(
                f"component {idx} is not sampleable: sum of squared correlations "
                f"{ssq:.6g} exceeds 1 (covariance not positive semidefinite)"
            )


def _draw_block(g, arrays, gen: np.random.Generator, size: int):
    """Poisson counts of ``size`` realizations and an iterator over their events.

    Draw order: all ``size`` counts first; then the block's events in
    realization order, in chunks of at most ``_CHUNK``, each chunk drawing
    its component uniforms (when M > 1) and then its (chunk, d+1) normals.
    The iterator draws lazily from ``gen``, so exhaust it before drawing
    anything else. Yields ``(a, n)``: the chunk's coefficients and powers.
    """
    mu_a, sigma_a, mu_n, sigma_n, rho, tail, cum_w = arrays
    counts = gen.poisson(g.lam, size)

    def chunks():
        total = int(counts.sum())
        for start in range(0, total, _CHUNK):
            v = min(_CHUNK, total - start)
            if g.m > 1:
                # Inverse-CDF component assignment: one uniform per event.
                idx = np.searchsorted(cum_w, gen.random(v), side="right")
                np.clip(idx, 0, g.m - 1, out=idx)
            else:
                idx = np.zeros(v, dtype=np.intp)
            z = gen.standard_normal((v, g.d + 1))
            n = mu_n[idx] + sigma_n[idx] * z[:, 1:]
            resid = (rho[idx] * z[:, 1:]).sum(axis=1) + tail[idx] * z[:, 0]
            yield mu_a[idx] + sigma_a[idx] * resid, n

    return counts, chunks()


def sample_pattern(g: GeneralIntensity, rng: RngStream) -> PointPattern:
    """Draw one point pattern: Poisson count, then i.i.d. mixture events.

    Event j samples its component index from the weights, its powers
    n_r ~ Normal(mu_n_r, sigma_n_r^2) independently, and its coefficient
    a ~ Normal(mu_a, sigma_a^2) with Corr(a, n_r) = rho_r. Raises
    NotSampleableError naming the offending component if any covariance is
    not positive semidefinite. Deterministic per (seed, stream_id): the
    pattern is a block of one drawn from ``rng.generator()``.
    """
    _require_sampleable(g)
    _, chunks = _draw_block(g, _component_arrays(g), rng.generator(), 1)
    events = np.vstack([np.empty((0, g.d + 1)), *map(np.column_stack, chunks)])
    return PointPattern(events=events, d=g.d)


def ste_realization(pattern: PointPattern, x, x0) -> float:
    """Random-sum value of one pattern at x: sum_j a_j prod_r (x_r-x0_r)**n_rj.

    Empty patterns evaluate to 0. Requires x and x0 of the pattern's
    dimension and x strictly above x0; overflow raises NumericRangeError.
    """
    x0 = np.asarray(_as_float_tuple(x0, "x0", pattern.d))
    delta = _points([x], x0) - x0
    if pattern.count == 0:
        return 0.0
    with np.errstate(over="ignore"):
        powers = np.prod(delta**pattern.n, axis=1)
        total = float(pattern.a @ powers)
    if not math.isfinite(total):
        raise NumericRangeError(
            "realization value exceeds the largest finite double; "
            "rescale inputs/outputs to smaller units"
        )
    return total


def _mc_inputs(g: GeneralIntensity, grid, n_real) -> tuple[np.ndarray, int]:
    """Checked Monte Carlo inputs: the grid's log offsets and n_real as an int.

    Checks, in order: the grid's rows against the origin, a nonempty grid,
    n_real >= 1, and that every component is sampleable.
    """
    log_delta = np.log(_points(grid, g.x0) - g.x0)
    if log_delta.shape[0] == 0:
        raise DomainError("grid must contain at least one point")
    n_real = _as_int(n_real, "n_real", 1)
    _require_sampleable(g)
    return log_delta, n_real


def _exp_terms(n: np.ndarray, log_delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``exp(n @ log_delta.T)`` of (rows, d) powers, evaluated in place in ``out``.

    At d = 1 each exponent is the one product n * log(x - x0), which
    ``np.multiply`` forms directly; matmul would run numpy's own loop over an
    inner dimension of 1 at several times the cost, for the same bits.
    """
    if log_delta.shape[1] == 1:
        np.multiply(n, log_delta.T, out=out)
    else:
        np.matmul(n, log_delta.T, out=out)
    return np.exp(out, out=out)


def _tile_sums(block, counts, chunks, log_delta, buffer) -> None:
    """Add each realization's terms into its row of ``block``, a tile at a time.

    A tile is ``buffer.shape[0]`` consecutive events of one chunk; its terms
    are summed per realization by one ``np.add.reduceat``, and a realization
    that spans tiles gets one partial sum from each, added in event order.
    """
    tile_rows = buffer.shape[0]
    # Nonempty rows and the block offset of their first event. Rows with no
    # events own no event and keep their 0.0 (a reduceat over every row's
    # offset would give them the next row's term).
    rows = np.flatnonzero(counts)
    first = (np.cumsum(counts) - counts)[rows]
    start = 0
    for a, n in chunks:
        for t in range(0, a.shape[0], tile_rows):
            ta, tn = a[t : t + tile_rows], n[t : t + tile_rows]
            tile = _exp_terms(tn, log_delta, buffer[: ta.shape[0]])
            tile *= ta[:, None]
            # Rows owning the tile's events, and where each one's run starts
            # inside the tile (the first may begin before it).
            s = start + t
            i0 = int(np.searchsorted(first, s, side="right")) - 1
            i1 = int(np.searchsorted(first, s + ta.shape[0], side="left"))
            runs = np.maximum(first[i0:i1] - s, 0)
            block[rows[i0:i1]] += np.add.reduceat(tile, runs, axis=0)
        start += a.shape[0]


def _grouped_sums(block, counts, chunks, log_delta, buffer) -> None:
    """Add each realization's terms into its row of ``block``, a count group at a time.

    Every chunk cuts the realizations it holds into pieces: a piece ends at
    the realization's end, at the chunk's end, or after ``_TILE // n_points``
    events (at least 1). Pieces of one rank (first, second, ... piece of a
    realization in the chunk) and one length c are gathered r at a time,
    with r * c * n_points <= ``_TILE`` (or r = c = 1 on a grid wider than
    ``_TILE``), into (r, c) coefficients and (r, c, n_points) terms; one
    ``np.einsum`` product of the two gives the r piece sums. Ranks are taken
    in order, so a realization's pieces are added to its row in event order,
    and no row is written twice by one fancy-indexed add.
    """
    n_points = log_delta.shape[0]
    span = max(1, _TILE // n_points)
    rows = np.flatnonzero(counts)
    ends = np.cumsum(counts)[rows]
    first = ends - counts[rows]
    start = 0
    for a, n in chunks:
        stop = start + a.shape[0]
        # The realizations with events in this chunk, and their events in it.
        i0 = int(np.searchsorted(ends, start, side="right"))
        i1 = int(np.searchsorted(first, stop, side="left"))
        lo = np.maximum(first[i0:i1], start) - start
        hi = np.minimum(ends[i0:i1], stop) - start
        pieces = -(-(hi - lo) // span)
        owner = np.repeat(rows[i0:i1], pieces)
        rank = np.arange(owner.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        p_lo = np.repeat(lo, pieces) + rank * span
        p_len = np.minimum(np.repeat(hi, pieces) - p_lo, span)
        order = np.lexsort((p_len, rank))
        rank, p_len = rank[order], p_len[order]
        cuts = np.flatnonzero((np.diff(rank) != 0) | (np.diff(p_len) != 0)) + 1
        for u, w in zip([0, *cuts], [*cuts, order.size]):
            c = int(p_len[u])
            step = max(1, _TILE // (c * n_points))
            for g0 in range(u, w, step):
                sel = order[g0 : min(w, g0 + step)]
                idx = (p_lo[sel][:, None] + np.arange(c)).ravel()
                terms = _exp_terms(n[idx], log_delta, buffer[: idx.size])
                coeff = a[idx].reshape(sel.size, c)
                # einsum, not a batched matmul: the sums never reach BLAS, so
                # they do not depend on its thread count.
                block[owner[sel]] += np.einsum(
                    "rc,rcp->rp", coeff, terms.reshape(sel.size, c, n_points)
                )
        start = stop


def mc_values(g: GeneralIntensity, grid, n_real: int, rng: RngStream) -> np.ndarray:
    """Random-sum values of n_real realizations at every grid point.

    Returns an (n_real, n_points) matrix: row i is realization i evaluated
    across the whole grid, so any per-point statistic computed from one
    matrix shares its realizations coherently. ``mc_mean`` and ``envelope``
    are reductions of this matrix.

    Realizations come in blocks of ``_BLOCK``: rows ``b*_BLOCK`` onward are
    one block drawn from stream ``rng.child(b)`` in the order of
    ``_draw_block`` (the last block may be shorter). Splitting ``n_real`` on
    block boundaries, with the later part drawn from ``rng.child(k)``,
    reproduces the same matrix bit for bit. Rows with no events are 0.0.

    Row i is 0.0 plus realization i's terms a_j * exp(n_j . log(x - x0)),
    summed piece by piece, the pieces taken in event order. Below
    ``_GROUP_POINTS`` grid points a piece is a realization's run of events
    inside one tile of ``_TILE // n_points`` consecutive events of a chunk,
    summed by ``np.add.reduceat``. From ``_GROUP_POINTS`` points on, a piece
    is at most ``_TILE // n_points`` of one realization's events inside one
    chunk, and the pieces of one length are summed together, one
    ``np.einsum`` product per group. Either way a block's rows depend only on
    that block's draws and the grid, so the split above holds on both paths;
    the two paths sum in different orders and agree to rounding.
    """
    log_delta, n_real = _mc_inputs(g, grid, n_real)
    arrays = _component_arrays(g)
    values = np.zeros((n_real, log_delta.shape[0]))
    # Every tile or group is evaluated in place in this one buffer; neither
    # spans two event chunks, so each has at most _CHUNK rows of events.
    tile_rows = max(1, min(_TILE // log_delta.shape[0], _CHUNK))
    buffer = np.empty((tile_rows, log_delta.shape[0]))
    block_sums = _grouped_sums if log_delta.shape[0] >= _GROUP_POINTS else _tile_sums
    with np.errstate(over="ignore", invalid="ignore"):
        for b, lo in enumerate(range(0, n_real, _BLOCK)):
            block = values[lo : lo + _BLOCK]
            counts, chunks = _draw_block(g, arrays, rng.child(b).generator(), block.shape[0])
            block_sums(block, counts, chunks, log_delta, buffer)
    if not np.isfinite(values).all():
        raise NumericRangeError(
            "a realization value exceeds the largest finite double; "
            "rescale inputs/outputs to smaller units"
        )
    return values


def mc_mean(g: GeneralIntensity, x, n_real: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo mean of the random sum at x over n_real realizations.

    Returns (mean, stderr) with stderr the sample standard deviation divided
    by sqrt(n_real). This is the simulation cross-check of the closed-form
    mean: the two agree within a few stderr for any sampleable model.
    """
    n_real = _as_int(n_real, "n_real", 2)
    values = mc_values(g, [x], n_real, rng)[:, 0]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_real))
    return mean, stderr


def envelope(g: GeneralIntensity, grid, n_real: int, alpha: float, rng: RngStream) -> Envelope:
    """Pointwise (alpha/2, 1-alpha/2) empirical quantile band at each grid point.

    The result is that of the (n_real, n_points) matrix of :func:`mc_values`
    with the same ``rng``: ``lower`` and ``upper`` are its
    ``np.quantile(..., axis=0, method="inverted_cdf")`` bit for bit, and
    ``mean`` is its column sums taken in row order, divided by n_real (bit
    for bit ``values.mean(axis=0)`` on grids of two or more points; on a
    one-point grid numpy sums pairwise instead, and the two agree to
    rounding). Deterministic per (seed, stream_id). Inputs are checked
    before any realization is drawn.

    The matrix is never held. Block b (``_BLOCK`` rows) is drawn by
    ``mc_values(g, grid, rows, rng.child(b))``, which are the matrix's rows
    ``b*_BLOCK`` onward, and folded into two running tails per point that
    hold the k_lo smallest and the k_hi largest values seen so far. With
    j_lo and j_hi the order-statistic indices that the inverted CDF picks for
    n_real, k_lo = j_lo + 1 and k_hi = n_real - j_hi, so ``lower`` is the
    k_lo-th smallest value and ``upper`` the k_hi-th largest. A tail of k
    values has room for max(k, _BLOCK) more and is partitioned only when the
    next block would not fit, so the merge costs O(n_real * n_points) and
    memory is O((k_lo + k_hi + _BLOCK) * n_points) doubles, with k_lo and
    k_hi about alpha/2 * n_real; finding j_lo and j_hi takes a further 16
    bytes per realization, freed before the first block.
    """
    pts = _point_matrix(grid, g.d)
    alpha = _alpha(alpha)
    _, n_real = _mc_inputs(g, pts, n_real)
    probs = [alpha / 2.0, 1.0 - alpha / 2.0]
    j_lo, j_hi = np.quantile(np.arange(n_real, dtype=float), probs, method="inverted_cdf")
    # Each tail is [k, fill, buffer]: the buffer's first fill columns hold
    # values whose k smallest are the k smallest seen so far. The high tail
    # holds negated values, so both keep their k smallest. A partition puts
    # them in columns :k and frees the slack after them; the slack is at
    # least a block wide and at least k, so each partition follows at least
    # max(k, block) new values.
    width = min(_BLOCK, n_real)
    tails = [
        [k, 0, np.empty((pts.shape[0], k + max(k, width)))]
        for k in (int(j_lo) + 1, n_real - int(j_hi))
    ]
    total = None
    for b, lo in enumerate(range(0, n_real, _BLOCK)):
        block = mc_values(g, pts, min(_BLOCK, n_real - lo), rng.child(b))
        rows = block.shape[0]
        for tail, sign in zip(tails, (1.0, -1.0)):
            k, fill, buffer = tail
            if fill + rows > buffer.shape[1]:
                buffer[:, :fill].partition(k - 1, axis=1)
                fill = k
            np.multiply(block.T, sign, out=buffer[:, fill : fill + rows])
            tail[1] = fill + rows
        # Column sums in row order, as values.sum(axis=0) takes them on two
        # or more columns: the running total enters as the block's first row.
        if total is not None:
            block[0] += total
        total = block.sum(axis=0)
    for k, fill, buffer in tails:
        buffer[:, :fill].partition(k - 1, axis=1)
    (k_lo, _, low), (k_hi, _, high) = tails
    return Envelope(
        grid=pts,
        lower=low[:, k_lo - 1],
        upper=-high[:, k_hi - 1],
        mean=total / n_real,
        alpha=alpha,
        n_real=n_real,
    )


def envelope_to_csv(env: Envelope) -> str:
    """CSV text with columns x_1..x_d, lower, mean, upper; one row per point."""
    header = [f"x_{r + 1}" for r in range(env.grid.shape[1])] + ["lower", "mean", "upper"]
    return csv_text(header, [*env.grid.T, env.lower, env.mean, env.upper])
