"""Property tests: the closed-form kernel (block layout, per-component sum,
row errors, overflow), the parameter transform, the trust-region step, Monte
Carlo block partitions, the envelope against the realization matrix, the CSV
writer against per-cell repr, and the stops of the order scan."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stochtaylor.fit as fit_mod
from stochtaylor import (
    ComponentParams,
    Dataset,
    DomainError,
    FitConfig,
    FitFailure,
    FitResult,
    GeneralIntensity,
    NumericRangeError,
    RngStream,
    SteModel,
    centered_power_moment,
    envelope,
    evaluate,
    from_taylor_polynomial,
    mc_values,
    objective_value,
    pack_params,
    power_moment,
    predict_grid,
    rss,
    select_model,
    unpack_params,
)
from stochtaylor.fit import SIGMA_FLOOR
from stochtaylor.model import (
    _BLOCK_ROWS,
    _CSV_TABLE_TEXTS,
    _LOG_MAX,
    _mean_values,
    csv_text,
)
from stochtaylor.simulate import _BLOCK as _MC_BLOCK
from stochtaylor.simulate import _GROUP_POINTS, _GUIDE_BINS, _inverse_cdf

from conftest import STEP_RTOL, gram_and_svd_steps, radius_for, random_intensity, random_model


# Derandomized and without an example database: the suite stays deterministic
# and leaves no files behind.
def examples(n: int) -> settings:
    return settings(derandomize=True, database=None, deadline=None, max_examples=n)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@examples(12)
@given(
    seed=seeds,
    d=st.integers(1, 3),
    m=st.integers(1, 6),
    extra=st.integers(1, _BLOCK_ROWS),
)
def test_predict_grid_on_several_blocks_matches_per_row_evaluate(seed, d, m, extra):
    # A fitted model, and a mixture with non-uniform weights and a
    # non-integer rate: both go through the one kernel.
    gen = RngStream(seed, 1).generator()
    for g in (random_model(seed, d, m), random_intensity(seed, d, m)):
        points = np.asarray(g.x0) + gen.uniform(1e-3, 4.0, (_BLOCK_ROWS + extra, d))
        got = predict_grid(g, points)
        want = np.array([evaluate(g, p) for p in points])
        assert np.array_equal(got, want)


@examples(20)
@given(seed=seeds, d=st.integers(1, 3), m=st.integers(1, 49), n=st.integers(1, 40))
@example(seed=0, d=2, m=49, n=7)
def test_model_mean_is_the_running_sum_of_its_one_component_means(seed, d, m, n):
    # A model's mean scales each term by lam * w_m = M * (1/M), which is
    # exactly 1.0 for every M < 49 and rounds below 1.0 at M = 49.
    model = random_model(seed, d, m)
    points = np.asarray(model.x0) + RngStream(seed, 1).generator().uniform(1e-3, 4.0, (n, d))
    parts = [
        predict_grid(SteModel(d=d, components=(c,), x0=model.x0), points)
        for c in model.components
    ]
    want = parts[0].copy()
    for part in parts[1:]:
        want += part
    got = predict_grid(model, points)
    if m < 49:
        assert np.array_equal(got, want)
    else:
        tol = 4.0 * m * np.finfo(float).eps * np.sum(np.abs(parts), axis=0)
        assert np.all(np.abs(got - want) <= tol)


BAD_VALUES = ("nan", "inf", "-inf", "at origin", "below origin")


@examples(60)
@given(seed=seeds, d=st.integers(1, 2), n=st.integers(1, 40), data=st.data())
def test_bad_point_raises_domain_error_naming_its_row(seed, d, n, data):
    k = data.draw(st.integers(0, n - 1), label="bad row")
    r = data.draw(st.integers(0, d - 1), label="bad coordinate")
    kind = data.draw(st.sampled_from(BAD_VALUES), label="bad value")
    model = random_model(seed, d, 2)
    gen = RngStream(seed, 1).generator()
    points = np.asarray(model.x0) + gen.uniform(0.1, 2.0, (n, d))
    points[k, r] = {
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "at origin": model.x0[r],
        "below origin": model.x0[r] - gen.uniform(1e-9, 5.0),
    }[kind]
    names_row = rf"\brow {k}\b"
    with pytest.raises(DomainError, match=names_row):
        predict_grid(model, points)
    with pytest.raises(DomainError, match=names_row):
        mc_values(model, points, 1, RngStream(seed, 2))
    if math.isfinite(points[k, r]):  # a Dataset holds finite entries only
        with pytest.raises(DomainError, match=names_row):
            rss(model, Dataset(points, np.zeros(n)))


@examples(300)
@given(
    log_d=st.one_of(st.floats(-7.0, -0.5), st.floats(0.5, 14.0)),
    excess=st.floats(-150.0, 150.0),
    sigma=st.floats(0.0, 6.0),
    log10_mu_a=st.floats(-50.0, 50.0),
    negative=st.booleans(),
    sigma_a=st.floats(0.0, 2.0),
    rho=st.floats(-1.0, 1.0),
)
def test_kernel_raises_exactly_when_a_component_leaves_double_range(
    log_d, excess, sigma, log10_mu_a, negative, sigma_a, rho
):
    # mu is solved for so that the component's log-magnitude lies ``excess``
    # above log(DBL_MAX); hypothesis then probes both sides of the boundary.
    delta = math.exp(log_d)
    log_d = math.log(delta)
    mu_a = -(10.0**log10_mu_a) if negative else 10.0**log10_mu_a
    corr_term = sigma_a * rho * sigma * log_d
    coeff = mu_a + corr_term
    # Heavy cancellation in the coefficient is a precision question, not a
    # range one; keep the coefficient well resolved.
    assume(abs(coeff) >= 1e-6 * (abs(mu_a) + abs(corr_term)))
    log_power = _LOG_MAX + excess - math.log(abs(coeff))
    mu = log_power / log_d - 0.5 * sigma * sigma * log_d
    comp = ComponentParams(mu_a, sigma_a, (mu,), (sigma,), (rho,))
    log_mag = math.log(abs(coeff)) + (mu + 0.5 * sigma * sigma * log_d) * log_d
    assume(abs(log_mag - _LOG_MAX) > 1e-6)

    def kernel() -> float:
        g = GeneralIntensity(lam=1.0, weights=(1.0,), components=(comp,), d=1, x0=(0.0,))
        return _mean_values([[delta]], g)[0]

    if log_mag > _LOG_MAX:
        with pytest.raises(NumericRangeError):
            kernel()
        return
    value = kernel()
    # E[a delta**n] = mu_a E[delta**n] + sigma_a rho E[(n - mu) delta**n] / sigma.
    try:
        expected = mu_a * power_moment(delta, mu, sigma)
        if sigma > 0.0:
            expected += sigma_a * rho * centered_power_moment(delta, mu, sigma) / sigma
    except NumericRangeError:
        expected = math.inf
    if not math.isfinite(expected):  # a moment alone overflows; the product does not
        expected = math.copysign(math.exp(log_mag), coeff)
    assert value == pytest.approx(expected, rel=1e-9, abs=1e-300)


@st.composite
def components_near_the_clamps(draw, d: int, mu_a: float) -> ComponentParams:
    # sigmas at zero and around the floor, and correlation vectors on both
    # sides of sum(rho^2) = 1, where pack_params clamps
    sigmas = st.one_of(st.just(0.0), st.floats(0.0, 2.0 * SIGMA_FLOOR), st.floats(0.0, 3.0))
    return ComponentParams(
        mu_a=mu_a,
        sigma_a=draw(sigmas),
        mu_n=tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))),
        sigma_n=tuple(draw(st.lists(sigmas, min_size=d, max_size=d))),
        rho=tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))),
    )


@examples(200)
@given(d=st.integers(1, 3), data=st.data())
def test_pack_unpack_round_trip_up_to_the_clamps(d, data):
    # distinct mu_a fix the canonical component order on both sides
    mu_a = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5, unique=True))
    comps = tuple(data.draw(components_near_the_clamps(d, a)) for a in mu_a)
    x0 = tuple(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    model = SteModel(d=d, components=comps, x0=x0, sigma2=0.0)
    clone = unpack_params(pack_params(model), model.m, d, x0)
    assert clone.x0 == model.x0
    for got, want in zip(clone.components, model.components):
        assert got.mu_a == want.mu_a
        assert got.mu_n == want.mu_n
        # a standard deviation at or below the floor comes back as the floor
        for g, w in zip((got.sigma_a, *got.sigma_n), (want.sigma_a, *want.sigma_n)):
            assert g == pytest.approx(max(w, SIGMA_FLOOR), rel=1e-12)
        # a correlation vector with sum(rho^2) >= 1 comes back scaled just inside
        rho = np.asarray(want.rho)
        ssq = float(rho @ rho)
        if ssq >= 1.0:
            rho = rho * math.sqrt((1.0 - 1e-12) / ssq)
        assert np.asarray(got.rho) == pytest.approx(rho, rel=0.0, abs=1e-9)


def loop_jacobian(v, m, d, log_delta):
    """The plain per-component chain rule for d(prediction)/dv, the reference
    ``fit._prediction_jacobian`` is held to, and a bound on each entry's
    rounding: the same sums over absolute values of their terms. The z-block
    goes through the d x d matrix d rho / d z = I / s - z z^T / s**3."""
    width = 3 * d + 2
    K = log_delta.shape[0]
    J = np.empty((K, m * width))
    bound = np.empty_like(J)
    for i, (mu_a, s_a, mu_n, s_n, z) in enumerate(
        zip(*fit_mod._split_params(v.reshape(m, width), d))
    ):
        base = i * width
        sigma_a = SIGMA_FLOOR + math.exp(s_a)
        sigma_n = SIGMA_FLOOR + np.exp(s_n)
        s = math.sqrt(1.0 + float(z @ z))
        rho = z / s
        corr = log_delta @ (rho * sigma_n)
        P = np.exp(log_delta @ mu_n + log_delta**2 @ (0.5 * sigma_n**2))
        C = mu_a + sigma_a * corr
        d_sigma_a = corr * P
        d_mu_n = (C * P)[:, None] * log_delta
        via_coeff = sigma_a * rho * log_delta * P[:, None]
        via_power = d_mu_n * sigma_n * log_delta
        d_rho = sigma_a * sigma_n * log_delta * P[:, None]
        d_rho_d_z = np.eye(d) / s - np.outer(z, z) / s**3
        J[:, base] = P
        J[:, base + 1] = d_sigma_a * (sigma_a - SIGMA_FLOOR)
        J[:, base + 2 : base + 2 + d] = d_mu_n
        J[:, base + 2 + d : base + 2 + 2 * d] = (via_coeff + via_power) * (sigma_n - SIGMA_FLOOR)
        J[:, base + 2 + 2 * d : base + width] = d_rho @ d_rho_d_z
        bound[:, base : base + 2 + 2 * d] = np.abs(J[:, base : base + 2 + 2 * d])
        bound[:, base + 2 + d : base + 2 + 2 * d] = (np.abs(via_coeff) + np.abs(via_power)) * (
            sigma_n - SIGMA_FLOOR
        )
        bound[:, base + 2 + 2 * d : base + width] = np.abs(d_rho) @ (
            np.eye(d) / s + np.abs(np.outer(z, z)) / s**3
        )
    return J, bound


@examples(150)
@given(
    seed=seeds,
    d=st.integers(1, 3),
    m=st.integers(1, 8),
    K=st.integers(1, 600),
    region=st.sampled_from(["plain", "large z and sigma"]),
)
def test_vectorised_jacobian_matches_the_component_loop(seed, d, m, K, region):
    gen = RngStream(seed, 0).generator()
    log_delta = gen.normal(0.0, 1.5, (K, d))
    V = gen.normal(0.0, 1.5, (m, 3 * d + 2))
    if region == "large z and sigma":
        V[:, 2 + 2 * d :] *= 30.0
        V[int(gen.integers(m)), 1] = gen.uniform(190.0, 210.0)
    v = V.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        _, aux = fit_mod._forward(v, m, d, log_delta)
        got = fit_mod._prediction_jacobian(aux, m, d, log_delta)
        want, bound = loop_jacobian(v, m, d, log_delta)
    assert got.shape == want.shape and got.T.flags.c_contiguous
    # Entries finite in both agree within 1e-12 of their column's largest
    # rounding bound. The two forms order their products differently, so
    # near the largest double one may overflow where the other does not;
    # then the finite one is above 1e300, and J^T J overflows either way.
    both = np.isfinite(got) & np.isfinite(want)
    assert np.all(np.abs(got[np.isfinite(got) & ~both]) > 1e300)
    assert np.all(np.abs(want[np.isfinite(want) & ~both]) > 1e300)
    scale = np.where(both, bound, 0.0).max(axis=0)
    column = np.nonzero(both)[1]
    assert np.all(np.abs(got[both] - want[both]) <= 1e-12 * scale[column] + 1e-300)


@examples(100)
@given(seed=seeds, d=st.integers(1, 3), m=st.integers(1, 8), large_z=st.booleans())
def test_objective_value_equals_rss_of_the_unpacked_model(seed, d, m, large_z):
    # objective_value runs fit._forward, rss runs model._mean_values: the two
    # mean kernels share no code. Parameters are drawn where no term
    # overflows: there the two policies differ on purpose (the objective
    # goes non-finite, rss raises NumericRangeError).
    gen = RngStream(seed, 0).generator()
    K = 40
    X = gen.uniform(0.2, 3.0, (K, d))
    data = Dataset(X, np.cos(X.sum(axis=1)))
    V = np.empty((m, 3 * d + 2))
    mu_a, s_a, mu_n, s_n, z = fit_mod._split_params(V, d)
    mu_a[...] = gen.uniform(-5.0, 5.0, m)
    s_a[...] = gen.uniform(-4.0, 2.0, m)
    mu_n[...] = gen.uniform(-4.0, 4.0, (m, d))
    s_n[...] = gen.uniform(-4.0, 1.0, (m, d))
    z[...] = gen.normal(0.0, 1e3 if large_z else 1.0, (m, d))
    v = V.reshape(-1)
    x0 = (0.0,) * d
    want = rss(unpack_params(v, m, d, x0), data)
    assert objective_value(v, m, data, x0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("index", [1, 3])
def test_unpack_params_of_an_overflowing_sigma_raises_without_a_warning(index):
    # [mu_a, s_a, mu_n, s_n, z] at d=1: index 1 is s_a, 3 is s_n; exp(800) overflows.
    v = np.zeros(5)
    v[index] = 800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="sigma"):
            unpack_params(v, 1, 1, (0.0,))


@examples(100)
@given(
    seed=seeds,
    K=st.integers(1, 40),
    n=st.integers(1, 20),
    kind=st.sampled_from(["plain", "zero column", "scaled columns"]),
    log_tau=st.floats(-6.0, 0.0),
    seed_alpha=st.sampled_from([0.0, 0.5, 2.0]),
)
def test_gram_trust_region_step_matches_the_svd_step(seed, K, n, kind, log_tau, seed_alpha):
    # Any J, full rank or not, and a radius whose exact step has alpha =
    # tau * s_max**2: the Gram form gives the SVD reference's p and alpha.
    gen = RngStream(seed, 0).generator()
    J = gen.standard_normal((K, n))
    if kind == "zero column":
        J[:, int(gen.integers(n))] = 0.0
    elif kind == "scaled columns":
        J *= 10.0 ** gen.uniform(-8.0, 12.0, n)
    f = gen.standard_normal(K)
    alpha_star = 10.0**log_tau * np.linalg.norm(J, 2) ** 2
    assume(alpha_star > 0.0)
    Delta = radius_for(J, f, alpha_star)
    assume(Delta > 0.0)
    (p, alpha), (p_ref, alpha_ref) = gram_and_svd_steps(J, f, Delta, seed_alpha * alpha_star)
    assert np.linalg.norm(p - p_ref) <= STEP_RTOL * Delta
    assert alpha == pytest.approx(alpha_ref, rel=STEP_RTOL)


def flat_direction(V: np.ndarray, i: int, d: int) -> np.ndarray:
    """Component i's direction along which the mean does not change.

    The mean depends on sigma_a and rho only through sigma_a * rho_r *
    sigma_n_r: stepping z along itself moves rho = z / s by rho / s**2, and
    the s_a entry moves sigma_a by -sigma_a / s**2 to keep the product fixed.
    At z = 0 that is a pure s_a move, whose Jacobian column is 0.
    """
    _, s_a, _, _, z = fit_mod._split_params(V, d)
    sigma_a = SIGMA_FLOOR + np.exp(s_a[i])
    s_sq = 1.0 + z[i] @ z[i]
    out = np.zeros_like(V)
    _, v_s_a, _, _, v_z = fit_mod._split_params(out, d)
    v_z[i] = z[i]
    v_s_a[i] = -sigma_a / ((sigma_a - SIGMA_FLOOR) * s_sq)
    return out.reshape(-1)


@examples(100)
@given(
    seed=seeds,
    d=st.integers(1, 3),
    m=st.integers(1, 4),
    extra=st.integers(0, 200),
    at_zero=st.sampled_from(["none", "one", "all"]),
)
def test_fit_jacobian_has_a_flat_direction_per_component(seed, d, m, extra, at_zero):
    # The precondition of the trust-region step: a fit's J is never of full
    # rank, so every step is Moré's search on the trust-region boundary and
    # fit._trust_region_step has no Gauss-Newton branch. A change to the
    # parameter layout that removes a flat direction (for example the 3d+1
    # layout [mu_a, b, mu_n, s_n]) must bring that branch back.
    K = 2 * m * (3 * d + 2) + extra
    gen = RngStream(seed, 0).generator()
    log_delta = np.asfortranarray(gen.uniform(-2.0, 2.0, (K, d)))
    V = np.empty((m, 3 * d + 2))
    mu_a, s_a, mu_n, s_n, z = fit_mod._split_params(V, d)
    mu_a[...] = gen.normal(0.0, 1.0, m)
    s_a[...] = gen.uniform(-3.0, 2.0, m)
    mu_n[...] = gen.normal(0.0, 1.0, (m, d))
    s_n[...] = gen.uniform(-3.0, 0.5, (m, d))
    z[...] = gen.normal(0.0, 1.0, (m, d))
    if at_zero == "one":
        z[int(gen.integers(m))] = 0.0
    elif at_zero == "all":
        z[...] = 0.0
    _, aux = fit_mod._forward(V.reshape(-1), m, d, log_delta)
    J = fit_mod._prediction_jacobian(aux, m, d, log_delta)
    J_norm = np.linalg.norm(J, 2)
    for i in range(m):
        v = flat_direction(V, i, d)
        assert np.linalg.norm(J @ v) <= 1e-12 * J_norm * np.linalg.norm(v)
    _, w, _ = fit_mod._gram_eigen(J, np.zeros(J.shape[1]))
    assert np.count_nonzero(w <= np.finfo(float).eps * K * w[0]) >= m


@examples(100)
@given(
    coeffs=st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=1, max_size=9),
    x0=st.floats(-50.0, 50.0),
    offsets=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=30),
)
def test_taylor_polynomial_model_matches_polyval(coeffs, x0, offsets):
    model = from_taylor_polynomial(coeffs, x0)
    delta = np.asarray(offsets)
    points = x0 + delta
    # offsets too small to survive the shift are not what this checks
    assume(np.all(points > x0))
    shifted = points - x0
    want = np.polyval(coeffs[::-1], shifted)
    got = predict_grid(model, points[:, None])
    # error bound of summing the terms c_k * delta**k, whatever their order
    scale = np.polyval(np.abs(coeffs[::-1]), shifted)
    assert np.all(np.abs(got - want) <= 1e-12 * scale + 1e-300)


# ---------------------------------------------------------------------------
# Monte Carlo: realizations are drawn a block per stream.
# ---------------------------------------------------------------------------


@st.composite
def weight_vectors(draw):
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    assume(sum(raw) > 0.0)
    return tuple(np.asarray(raw) / sum(raw))


@examples(300)
@given(weights=weight_vectors(), extra=st.lists(st.floats(0.0, 1.0, exclude_max=True)))
# Boundaries on bin edges (multiples of 1/_GUIDE_BINS), so no bin is split.
@example(weights=tuple(k / 1024 for k in (1, 511, 256, 255, 1)), extra=[])
# cum_w[-1] = 0.9999999999999999: uniforms above it go to the last component.
@example(weights=(0.1,) * 10, extra=[])
# Tiny weights: several boundaries inside bin 0.
@example(weights=(1e-6, 2e-6, 1e-7, 1e-9, 1.0 - 3.101e-6), extra=[5e-7, 3.05e-6])
@example(weights=(1.0,), extra=[])
def test_guide_table_gives_the_searchsorted_component(weights, extra):
    # Every bin edge, every cumulative weight and their neighbouring doubles,
    # plus drawn uniforms: the places where a table and a search can differ.
    cum_w = np.cumsum(weights)
    points = np.concatenate([np.arange(_GUIDE_BINS + 1) / _GUIDE_BINS, cum_w, extra])
    u = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    want = np.clip(np.searchsorted(cum_w, u, side="right"), 0, len(weights) - 1)
    components = _inverse_cdf(weights)
    # All at once through the guide table, and in runs too short to build it.
    assert u.size >= _GUIDE_BINS
    assert np.array_equal(components(u.copy()), want)
    runs = [components(run.copy()) for run in np.array_split(u, 8)]
    assert np.array_equal(np.concatenate(runs), want)


@examples(25)
@given(
    seed=seeds,
    d=st.integers(1, 3),
    m=st.integers(1, 4),
    lam=st.floats(0.1, 40.0),
    blocks=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    tail=st.integers(1, _MC_BLOCK),
    n_points=st.sampled_from([3, _GROUP_POINTS - 1, _GROUP_POINTS, 2 * _GROUP_POINTS + 3]),
)
@example(seed=5, d=1, m=2, lam=40.0, blocks=[2], tail=9, n_points=_GROUP_POINTS)
def test_mc_values_split_on_block_boundaries_is_bit_identical(
    seed, d, m, lam, blocks, tail, n_points
):
    # Pieces of whole blocks, then a last piece of any length; each piece
    # draws from rng.child(first block of the piece). Up to 40 events per
    # realization, so some blocks span several event chunks. Grids on both
    # sides of _GROUP_POINTS take both reductions.
    model = random_model(seed, d, m)
    g = GeneralIntensity(
        lam=lam, weights=model.weights, components=model.components, d=d, x0=model.x0
    )
    gen = RngStream(seed, 1).generator()
    points = np.asarray(model.x0) + gen.uniform(0.2, 2.0, (n_points, d))
    rng = RngStream(seed, 2)
    sizes = [k * _MC_BLOCK for k in blocks] + [tail]
    starts = np.cumsum([0] + blocks)
    whole = mc_values(g, points, sum(sizes), rng)
    pieces = [mc_values(g, points, size, rng.child(int(b))) for size, b in zip(sizes, starts)]
    assert np.array_equal(whole, np.vstack(pieces))


@examples(40)
@given(
    seed=seeds,
    d=st.integers(1, 2),
    m=st.integers(1, 3),
    lam=st.floats(0.05, 3.0),
    n_points=st.one_of(st.integers(1, 4), st.integers(_GROUP_POINTS, _GROUP_POINTS + 4)),
    n_real=st.sampled_from([1, 2, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 2 * _MC_BLOCK + 7]),
    alpha=st.floats(1e-3, 0.999),
)
@example(seed=3, d=2, m=2, lam=0.05, n_points=2, n_real=2 * _MC_BLOCK + 7, alpha=1e-3)
@example(seed=4, d=1, m=1, lam=3.0, n_points=1, n_real=2 * _MC_BLOCK + 7, alpha=0.999)
@example(seed=6, d=1, m=3, lam=3.0, n_points=_GROUP_POINTS, n_real=2 * _MC_BLOCK + 7, alpha=0.2)
def test_envelope_is_the_reduction_of_the_matrix(seed, d, m, lam, n_points, n_real, alpha):
    # envelope draws block by block and keeps only two tails per point; it
    # must give what the whole mc_values matrix gives, on grids on both sides
    # of _GROUP_POINTS. Low rates leave many rows exactly 0.0, so the order
    # statistics are full of ties.
    model = random_model(seed, d, m)
    g = GeneralIntensity(
        lam=lam, weights=model.weights, components=model.components, d=d, x0=model.x0
    )
    gen = RngStream(seed, 1).generator()
    points = np.asarray(model.x0) + gen.uniform(0.2, 2.0, (n_points, d))
    env = envelope(g, points, n_real, alpha, RngStream(seed, 2))
    values = mc_values(g, points, n_real, RngStream(seed, 2))
    probs = [alpha / 2.0, 1.0 - alpha / 2.0]
    lower, upper = np.quantile(values, probs, axis=0, method="inverted_cdf")
    assert np.array_equal(env.lower, lower)
    assert np.array_equal(env.upper, upper)
    want = values.mean(axis=0)
    if n_points >= 2:
        assert np.array_equal(env.mean, want)
    else:
        # One column: numpy sums it pairwise, envelope in row order across
        # blocks. Both are n_real-term sums of the same values.
        scale = n_real * np.finfo(float).eps * np.abs(values).mean(axis=0)
        assert np.all(np.abs(env.mean - want) <= 2.0 * scale)


# Values whose text is easy to get wrong when cells are formatted once per
# distinct value: signed zeros, NaNs of either sign, infinities, the smallest
# subnormal.
_CSV_SPECIALS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324)


# Column kinds for csv_text, on both of its paths. "float" and "int" repeat
# a few values, as grid coordinates and pattern indices do; "float_distinct"
# and "int_distinct" hold about one value per row, as a value column does;
# the "below" and "above" kinds hold exactly _CSV_TABLE_TEXTS distinct bit
# patterns and one more, on either side of the threshold (or one per row, on
# fewer rows).
_CSV_KINDS = [
    "float", "int", "float_distinct", "int_distinct",
    "float_below", "float_above", "int_below", "int_above",
]


@examples(60)
@given(
    seed=seeds,
    n_rows=st.sampled_from([0, 1, 511, 512, 513, 1024, 1025, 2048]),
    kinds=st.lists(st.sampled_from(_CSV_KINDS), min_size=1, max_size=5),
    pool=st.lists(st.one_of(st.sampled_from(_CSV_SPECIALS), st.floats()), max_size=6),
)
def test_csv_text_is_the_repr_of_every_cell(seed, n_rows, kinds, pool):
    # The repeating float columns are strided views of one (n_rows, k)
    # array, as the CLI passes a grid's coordinates; they draw from the
    # specials, the pool and four normals. The other float columns mix the
    # specials into normals, so a table keyed on value rather than bits
    # would print -0.0 as 0.0.
    gen = RngStream(seed, 0).generator()
    floats = np.array([*_CSV_SPECIALS, *pool, *gen.standard_normal(4)])
    grid = floats[gen.integers(0, floats.size, (n_rows, kinds.count("float")))]
    repeating = iter(grid.T)

    def column(kind):
        if kind == "float":
            return next(repeating)
        if kind == "int":
            big = gen.integers(-(2**63), 2**63 - 1, n_rows)
            return np.where(gen.random(n_rows) < 0.1, big, 0) + gen.integers(-3, 4, n_rows)
        if kind == "float_distinct":
            specials = np.array(_CSV_SPECIALS)[gen.integers(0, len(_CSV_SPECIALS), n_rows)]
            return np.where(gen.random(n_rows) < 0.1, specials, gen.standard_normal(n_rows))
        if kind == "int_distinct":
            return gen.integers(-(2**63), 2**63 - 1, n_rows)
        # k distinct bit patterns, each at least once, in random order.
        k = min(_CSV_TABLE_TEXTS + kind.endswith("above"), n_rows)
        if kind.startswith("int"):
            distinct = np.arange(k) - k // 2
        else:
            distinct = np.concatenate([_CSV_SPECIALS, gen.standard_normal(k)])[:k]
        assert np.unique(distinct.view("u8")).size == k
        return gen.permutation(np.concatenate([distinct, distinct[gen.integers(0, k, n_rows - k)]]))

    columns = [column(kind) for kind in kinds]
    header = [f"c{i}" for i in range(len(columns))]
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    # Compared as lists of lines: on a failure pytest then names the first
    # line that differs, where a diff of two long texts takes minutes.
    assert csv_text(header, columns).split("\n") == [*lines, ""]


# ---------------------------------------------------------------------------
# Order selection: the scan stops where its two documented stops say, and
# picks what a full scan picks whenever the floor stop ended it.
# ---------------------------------------------------------------------------

_STUB_MODEL = from_taylor_polynomial((1.0,), 0.0)
_FLOOR_FACTORS = (0.0, 0.25, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 10.0, 1e3)


def _window_threshold(fitted, floor: float, K: int, select_tol: float) -> float:
    # The documented rule, re-derived here rather than taken from fit.py.
    rss_min = min(fitted)
    one_se = 0.75 * math.sqrt(2.0 * K) * (rss_min / K)
    return (1.0 + select_tol) * rss_min + floor + one_se


def _window_choice(fitted: dict, floor: float, K: int, select_tol: float) -> int:
    threshold = _window_threshold(list(fitted.values()), floor, K, select_tol)
    return min(m for m, v in fitted.items() if v <= threshold)


def _documented_scan(table, floor: float, K: int, select_tol: float):
    """(choice, last order tried, stop) of the documented scan over ``table``.

    After order m is tried, with c the choice over the orders fitted so far:
    the floor stop fires when RSS_c <= floor, else the margin stop when
    m >= c + 3. Neither fires at the last order.
    """
    fitted, chosen = {}, None
    for m, value in enumerate(table, start=1):
        if value is not None:
            fitted[m] = value
            chosen = _window_choice(fitted, floor, K, select_tol)
        if chosen is None or m == len(table):
            continue
        if fitted[chosen] <= floor:
            return chosen, m, "floor"
        if m >= chosen + 3:
            return chosen, m, "margin"
    return chosen, len(table), None


@st.composite
def order_scans(draw):
    """(K, select_tol, table) with table[m-1] = RSS_M, or None for a failed order.

    The data behind a scan are K ones, so floor = 1e-8 * K. Entries sit on
    both sides of the floor and of the threshold of the orders drawn so far,
    repeat earlier entries exactly, or are missing. Optionally one entry is
    then moved onto (or next to) the threshold of all the other entries, the
    edge of the final window, where `<=` and the se width decide the choice.
    Up to 9 orders leave room for the margin stop past choices up to 5.
    """
    K = draw(st.sampled_from((1, 7, 500)))
    select_tol = draw(st.sampled_from((0.0, 1e-3, 0.5)))
    floor = 1e-8 * K
    table = []
    for _ in range(draw(st.integers(1, 9), label="M_max")):
        fitted = [v for v in table if v is not None]
        options = [
            st.none(),
            st.sampled_from(_FLOOR_FACTORS).map(lambda f: f * floor),
            st.floats(0.0, 4.0 * floor),
        ]
        if fitted:
            threshold = _window_threshold(fitted, floor, K, select_tol)
            options.append(st.sampled_from(fitted))
            options.append(
                st.sampled_from(
                    (threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, math.inf))
                )
            )
        table.append(draw(st.one_of(options)))
    fitted_at = [i for i, v in enumerate(table) if v is not None]
    if len(fitted_at) >= 2 and draw(st.booleans(), label="on_final_edge"):
        i = draw(st.sampled_from(fitted_at))
        others = [table[j] for j in fitted_at if j != i]
        threshold = _window_threshold(others, floor, K, select_tol)
        table[i] = draw(
            st.sampled_from(
                (threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, math.inf))
            )
        )
    return K, select_tol, table


@examples(400)
@given(scan=order_scans())
# RSS_1 = 1.5*floor, RSS_2 = 0.5*floor: a third order decides between them
@example(scan=(500, 1e-3, [7.5e-6, 2.5e-6, 0.0]))
# RSS_1 exactly on the edge of the window that RSS_2 sets
@example(scan=(500, 1e-3, [_window_threshold([2.5e-5], 5e-6, 500, 1e-3), 2.5e-5]))
@example(scan=(500, 1e-3, [7.5e-6, 2.5e-6, 1e-5]))
@example(scan=(500, 1e-3, [None, 5e-6, None, 0.0]))
# The margin stop after M=4 keeps M=1; the full table would choose M=5.
@example(scan=(500, 1e-3, [1e-3, 1e-3, 1e-3, 1e-3, 0.0]))
def test_scan_stops_as_documented_and_is_exact_at_the_floor(scan):
    K, select_tol, table = scan
    data = Dataset(np.ones((K, 1)), np.ones(K))
    floor = 1e-8 * K
    results = {
        m: FitResult(_STUB_MODEL, rss=v, sigma2=v / K, n_starts_converged=1, best_start_index=0)
        for m, v in enumerate(table, start=1)
        if v is not None
    }
    fitted = []

    def fake_fit_fixed_m(data, m, cfg, x0):
        fitted.append(m)
        if m not in results:
            raise FitFailure(f"all starts failed for M={m}")
        return results[m]

    cfg = FitConfig()
    with mock.patch.object(fit_mod, "fit_fixed_m", fake_fit_fixed_m), mock.patch.object(
        fit_mod, "_SELECT_TOL", select_tol
    ):
        if not results:
            with pytest.raises(FitFailure):
                select_model(data, len(table), cfg, x0=[0.0])
            return
        sel = select_model(data, len(table), cfg, x0=[0.0])
    chosen, last_tried, stop = _documented_scan(table, floor, K, select_tol)
    assert sel.chosen_m == chosen
    assert sel.stopped_by == stop
    assert fitted == list(range(1, last_tried + 1))
    assert sel.skipped == tuple(range(last_tried + 1, len(table) + 1))
    assert sel.per_m == {m: results[m] for m in fitted if m in results}
    # Only the margin stop may differ from the window rule applied to every
    # order's RSS.
    if stop != "margin":
        assert sel.chosen_m == _window_choice(
            {m: r.rss for m, r in results.items()}, floor, K, select_tol
        )
    if stop == "floor":
        assert sel.chosen.rss <= floor
