"""Property tests of the closed-form kernel: block layout, row errors, overflow."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochtaylor import (
    ComponentParams,
    Dataset,
    DomainError,
    GeneralIntensity,
    NumericRangeError,
    RngStream,
    centered_power_moment,
    evaluate,
    mc_values,
    power_moment,
    predict_grid,
    rss,
)
from stochtaylor.model import (
    _BLOCK_ROWS,
    _LOG_MAX,
    _mean_values,
    _stack_components,
)

from conftest import random_model


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
    model = random_model(seed, d, m)
    gen = RngStream(seed, 1).generator()
    points = np.asarray(model.x0) + gen.uniform(1e-3, 4.0, (_BLOCK_ROWS + extra, d))
    got = predict_grid(model, points)
    want = np.array([evaluate(model, p) for p in points])
    assert np.array_equal(got, want)


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
        mc_values(GeneralIntensity.from_model(model), points, 1, RngStream(seed, 2))
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
        return _mean_values([[delta]], (0.0,), _stack_components([comp]))[0]

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
