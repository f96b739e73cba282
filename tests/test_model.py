"""Closed-form evaluation: moments, components, models, serialization."""

import json
import math
import os
import stat
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stochtaylor import (
    ComponentParams,
    DomainError,
    GeneralIntensity,
    NumericRangeError,
    RngStream,
    SteModel,
    centered_power_moment,
    evaluate,
    from_taylor_polynomial,
    load_model,
    mc_mean,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    power_moment,
    predict_grid,
    predict_original_units,
    save_model,
)
from stochtaylor.model import SCHEMA_VERSION, _as_float_array, _point_matrix, csv_text

from conftest import random_model


class TestPowerMoment:
    def test_sigma_zero_is_plain_power(self):
        assert power_moment(2.0, 3.0, 0.0) == 8.0

    def test_delta_one_is_one(self):
        assert power_moment(1.0, 7.3, 2.1) == 1.0

    def test_lognormal_mean_against_monte_carlo(self):
        gen = RngStream(11, 0).generator()
        draws = math.e ** gen.standard_normal(10**6)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(power_moment(math.e, 0.0, 1.0) - draws.mean()) <= 3.0 * se
        assert power_moment(math.e, 0.0, 1.0) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_randomized_triples_against_monte_carlo(self):
        gen = RngStream(12, 0).generator()
        for _ in range(5):
            delta = float(gen.uniform(0.2, 3.0))
            mu = float(gen.uniform(-2.0, 2.0))
            sigma = float(gen.uniform(0.05, 1.2))
            draws = delta ** (mu + sigma * gen.standard_normal(200_000))
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(power_moment(delta, mu, sigma) - draws.mean()) <= 4.0 * se

    def test_always_positive(self):
        gen = RngStream(13, 0).generator()
        for _ in range(50):
            value = power_moment(
                float(gen.uniform(0.01, 5.0)),
                float(gen.uniform(-4.0, 4.0)),
                float(gen.uniform(0.0, 2.0)),
            )
            assert value > 0.0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(DomainError):
            power_moment(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            power_moment(-2.0, 1.0, 1.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            power_moment(2.0, 1.0, -0.5)

    def test_overflow_raises_numeric_range_error(self):
        with pytest.raises(NumericRangeError):
            power_moment(1e10, 0.0, 10.0)


class TestCenteredPowerMoment:
    def test_sigma_zero_is_zero(self):
        assert centered_power_moment(5.0, 2.0, 0.0) == 0.0

    def test_delta_one_is_zero(self):
        assert centered_power_moment(1.0, 2.0, 3.0) == 0.0

    def test_weighted_mean_against_monte_carlo(self):
        gen = RngStream(14, 0).generator()
        n = gen.standard_normal(10**6)
        draws = n * math.e**n
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(centered_power_moment(math.e, 0.0, 1.0) - draws.mean()) <= 3.0 * se
        assert centered_power_moment(math.e, 0.0, 1.0) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_randomized_triples_against_monte_carlo(self):
        gen = RngStream(15, 0).generator()
        for _ in range(5):
            delta = float(gen.uniform(0.2, 3.0))
            mu = float(gen.uniform(-2.0, 2.0))
            sigma = float(gen.uniform(0.05, 1.2))
            n = mu + sigma * gen.standard_normal(200_000)
            draws = (n - mu) * delta**n
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(centered_power_moment(delta, mu, sigma) - draws.mean()) <= 4.0 * se


class TestComponentParams:
    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            ComponentParams(0.0, -1.0, (1.0,), (0.1,), (0.0,))
        with pytest.raises(DomainError):
            ComponentParams(0.0, 1.0, (1.0,), (-0.1,), (0.0,))

    def test_rejects_rho_outside_unit_interval(self):
        with pytest.raises(DomainError):
            ComponentParams(0.0, 1.0, (1.0,), (0.1,), (1.5,))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            ComponentParams(0.0, 1.0, (1.0, 2.0), (0.1,), (0.0,))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ComponentParams(math.nan, 1.0, (1.0,), (0.1,), (0.0,))

    @pytest.mark.parametrize(
        "args",
        [
            (True, 1.0, (1.0,), (0.1,), (0.0,)),
            (0.0, np.bool_(True), (1.0,), (0.1,), (0.0,)),
            (0.0, 1.0, (True,), (0.1,), (0.0,)),
            (0.0, 1.0, (1.0,), (0.1,), (np.bool_(False),)),
        ],
        ids=["mu_a", "sigma_a-numpy", "mu_n", "rho-numpy"],
    )
    def test_rejects_booleans(self, args):
        with pytest.raises(DomainError, match="must be"):
            ComponentParams(*args)


def eval_component(comp: ComponentParams, x, x0) -> float:
    """Closed-form contribution of one component: a one-component model's mean."""
    return evaluate(SteModel(d=comp.d, components=(comp,), x0=x0), x)


class TestEvalComponent:
    def test_degenerate_component_is_monomial(self):
        comp = ComponentParams(1.0, 0.0, (1.0,), (0.0,), (0.0,))
        assert eval_component(comp, (3.0,), (0.0,)) == 3.0

    def test_unit_offset_collapses_to_mean_coefficient(self):
        comp = ComponentParams(2.5, 1.7, (0.3, -1.1), (0.6, 0.2), (0.4, -0.5))
        assert eval_component(comp, (1.0, 2.0), (0.0, 1.0)) == 2.5

    def test_bivariate_normal_monte_carlo_oracle(self):
        comp = ComponentParams(0.5, 0.3, (1.2,), (0.4,), (0.6,))
        gen = RngStream(16, 0).generator()
        cov = np.array([[0.3**2, 0.6 * 0.3 * 0.4], [0.6 * 0.3 * 0.4, 0.4**2]])
        a, n = gen.multivariate_normal([0.5, 1.2], cov, size=10**6).T
        draws = a * 2.0**n
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(eval_component(comp, (2.0,), (0.0,)) - draws.mean()) <= 3.0 * se

    def test_moment_product_decomposition(self):
        # E[a prod_r delta_r^n_r] must equal
        # mu_a * prod_r pm_r + sigma_a * sum_r rho_r (cpm_r / sigma_r) prod_{s!=r} pm_s
        gen = RngStream(17, 0).generator()
        for d in (1, 2, 3):
            for _ in range(5):
                comp = ComponentParams(
                    mu_a=float(gen.uniform(-2.0, 2.0)),
                    sigma_a=float(gen.uniform(0.1, 1.0)),
                    mu_n=tuple(gen.uniform(-1.0, 1.5, d)),
                    sigma_n=tuple(gen.uniform(0.05, 0.5, d)),
                    rho=tuple(gen.uniform(-0.5, 0.5, d)),
                )
                x = tuple(gen.uniform(0.3, 2.5, d))
                x0 = (0.0,) * d
                pm = [power_moment(x[r], comp.mu_n[r], comp.sigma_n[r]) for r in range(d)]
                cpm = [
                    centered_power_moment(x[r], comp.mu_n[r], comp.sigma_n[r]) for r in range(d)
                ]
                total = comp.mu_a * math.prod(pm)
                for r in range(d):
                    rest = math.prod(pm[s] for s in range(d) if s != r)
                    total += comp.sigma_a * comp.rho[r] * (cpm[r] / comp.sigma_n[r]) * rest
                value = eval_component(comp, x, x0)
                assert value == pytest.approx(total, rel=1e-12, abs=1e-15)

    def test_rejects_point_at_or_below_origin(self):
        comp = ComponentParams(1.0, 0.0, (1.0,), (0.0,), (0.0,))
        with pytest.raises(DomainError):
            eval_component(comp, (0.0,), (0.0,))
        with pytest.raises(DomainError):
            eval_component(comp, (-1.0,), (0.0,))


class TestSteModel:
    def test_components_sorted_by_coefficient_mean(self):
        lo = ComponentParams(-1.0, 0.0, (0.0,), (0.0,), (0.0,))
        hi = ComponentParams(2.0, 0.0, (1.0,), (0.0,), (0.0,))
        model = SteModel(d=1, components=(hi, lo), x0=(0.0,))
        assert model.components == (lo, hi)

    def test_evaluation_is_permutation_invariant(self):
        gen = RngStream(18, 0).generator()
        model = random_model(19, 2, 3)
        shuffled = SteModel(
            d=model.d,
            components=tuple(model.components[i] for i in gen.permutation(3)),
            x0=model.x0,
            sigma2=model.sigma2,
        )
        x = (1.3, 2.2)
        assert evaluate(shuffled, x) == evaluate(model, x)

    def test_printed_identity_fit_value_at_log_zero(self):
        # At x - x0 = 1 both log terms vanish, so the value is exactly mu_a.
        comp = ComponentParams(
            1.000023, 2.031777e-5, (0.9999452,), (math.sqrt(2 * 2.517725e-5),), (0.0,)
        )
        model = SteModel(d=1, components=(comp,), x0=(0.0,))
        assert evaluate(model, (1.0,)) == 1.000023

    def test_two_component_unit_offset_sums_coefficient_means(self):
        comps = (
            ComponentParams(2.0, 0.4, (1.0,), (0.2,), (0.3,)),
            ComponentParams(-0.5, 0.9, (2.0,), (0.5,), (-0.2,)),
        )
        model = SteModel(d=1, components=comps, x0=(2.0,))
        assert evaluate(model, (3.0,)) == 1.5

    def test_matches_simulation_mean(self):
        model = random_model(20, 2, 3)
        x = (1.7, 2.3)
        mean, stderr = mc_mean(model, x, 10**5, RngStream(21, 0))
        assert abs(mean - evaluate(model, x)) <= 3.0 * stderr

    def test_rejects_mixed_dimensions(self):
        c1 = ComponentParams(1.0, 0.0, (1.0,), (0.0,), (0.0,))
        c2 = ComponentParams(2.0, 0.0, (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(DomainError):
            SteModel(d=1, components=(c1, c2), x0=(0.0,))

    def test_rejects_nonpositive_rescale(self):
        comp = ComponentParams(1.0, 0.0, (1.0,), (0.0,), (0.0,))
        with pytest.raises(DomainError):
            SteModel(d=1, components=(comp,), x0=(0.0,), rescale=(0.0, 1.0))

    def test_rejects_no_components(self):
        with pytest.raises(DomainError, match="at least one component is required"):
            SteModel(d=1, components=(), x0=(0.0,))

    def test_rejects_boolean_dimension(self):
        # d=True would save as "d": true, which model_from_dict refuses.
        comp = ComponentParams(1.0, 0.0, (1.0,), (0.0,), (0.0,))
        with pytest.raises(DomainError, match="d must be a positive integer"):
            SteModel(d=True, components=(comp,), x0=(0.0,))

    def test_is_the_rate_m_uniform_weight_intensity(self):
        model = random_model(24, 2, 5)
        assert isinstance(model, GeneralIntensity)
        assert model.lam == 5.0
        assert model.weights == (1.0 / 5,) * 5
        refitted = replace(model, sigma2=2.5)
        assert refitted.sigma2 == 2.5
        assert (refitted.lam, refitted.weights) == (model.lam, model.weights)
        with pytest.raises(TypeError):
            SteModel(lam=2.0, d=model.d, components=model.components, x0=model.x0)

    def test_overflow_raises_numeric_range_error(self):
        comp = ComponentParams(1.0, 0.0, (1.0,), (20.0,), (0.0,))
        model = SteModel(d=1, components=(comp,), x0=(0.0,))
        with pytest.raises(NumericRangeError):
            evaluate(model, (1e6,))


class TestGeneralIntensity:
    def test_uniform_reduction_matches_evaluate_bit_for_bit(self):
        model = random_model(22, 1, 3)
        g = GeneralIntensity.from_model(model)
        for x in (0.7, 1.0, 2.9):
            assert evaluate(g, (x,)) == evaluate(model, (x,))

    def test_unit_offset_scales_by_rate_times_weight(self):
        comp = ComponentParams(3.0, 0.8, (1.0,), (0.4,), (0.1,))
        g = GeneralIntensity(lam=0.5, weights=(1.0,), components=(comp,), d=1, x0=(0.0,))
        assert evaluate(g, (1.0,)) == 0.5 * 3.0

    def test_weighted_mixture_matches_simulation_mean(self):
        comps = (
            ComponentParams(1.0, 0.3, (0.5,), (0.2,), (0.4,)),
            ComponentParams(-0.7, 0.5, (1.3,), (0.3,), (-0.3,)),
        )
        g = GeneralIntensity(lam=3.0, weights=(0.2, 0.8), components=comps, d=1, x0=(0.0,))
        mean, stderr = mc_mean(g, (2.0,), 10**5, RngStream(23, 0))
        assert abs(mean - evaluate(g, (2.0,))) <= 3.0 * stderr

    def test_rejects_bad_weights(self):
        comp = ComponentParams(1.0, 0.0, (1.0,), (0.0,), (0.0,))
        with pytest.raises(DomainError):
            GeneralIntensity(lam=1.0, weights=(0.5, 0.6), components=(comp, comp), d=1, x0=(0.0,))
        with pytest.raises(DomainError):
            GeneralIntensity(lam=1.0, weights=(-0.2, 1.2), components=(comp, comp), d=1, x0=(0.0,))

    def test_rejects_nonpositive_rate(self):
        comp = ComponentParams(1.0, 0.0, (1.0,), (0.0,), (0.0,))
        with pytest.raises(DomainError):
            GeneralIntensity(lam=0.0, weights=(1.0,), components=(comp,), d=1, x0=(0.0,))


class TestFromTaylorPolynomial:
    def test_cubic_values(self):
        model = from_taylor_polynomial((0.0, -6.0, 0.0, 1.0), 0.0)
        assert evaluate(model, (2.0,)) == pytest.approx(-4.0, abs=1e-12)
        for x in (0.5, 1.0, 3.0):
            assert evaluate(model, (x,)) == pytest.approx(x**3 - 6 * x, rel=1e-12, abs=1e-12)

    def test_constant(self):
        model = from_taylor_polynomial((1.0,), 5.0)
        assert evaluate(model, (7.0,)) == 1.0

    def test_truncated_exponential_series(self):
        model = from_taylor_polynomial((1.0, 1.0, 0.5, 1 / 6, 1 / 24), 0.0)
        assert evaluate(model, (1.0,)) == pytest.approx(
            1 + 1 + 0.5 + 1 / 6 + 1 / 24, rel=1e-12
        )
        assert evaluate(model, (1.0,)) == pytest.approx(2.708333, abs=5e-7)

    def test_random_coefficients_reproduce_polynomial(self):
        gen = RngStream(24, 0).generator()
        for _ in range(10):
            order = int(gen.integers(1, 7))
            coeffs = gen.uniform(-3.0, 3.0, order)
            x0 = float(gen.uniform(-1.0, 1.0))
            model = from_taylor_polynomial(coeffs, x0)
            xs = x0 + np.linspace(0.05, 2.5, 100)
            want = np.polynomial.polynomial.polyval(xs - x0, coeffs)
            got = predict_grid(model, xs[:, None])
            scale = max(1.0, float(np.abs(want).max()))
            assert np.max(np.abs(got - want)) <= 1e-10 * scale

    def test_zero_coefficient_components_are_kept_consistent(self):
        model = from_taylor_polynomial((0.0, 1.0), 0.0)
        assert evaluate(model, (4.0,)) == pytest.approx(4.0, rel=1e-14)


class TestPredictGrid:
    def test_identity_model_on_small_grid(self):
        model = from_taylor_polynomial((0.0, 1.0), 0.0)
        got = predict_grid(model, np.array([[1.0], [2.0], [3.0]]))
        assert got == pytest.approx([1.0, 2.0, 3.0], rel=1e-14)

    def test_empty_grid(self):
        model = from_taylor_polynomial((1.0,), 0.0)
        assert predict_grid(model, np.empty((0, 1))).shape == (0,)

    def test_cubic_against_direct_polynomial(self):
        model = from_taylor_polynomial((0.0, -6.0, 0.0, 1.0), 0.0)
        xs = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        got = predict_grid(model, xs[:, None])
        assert got == pytest.approx(xs**3 - 6 * xs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "points", [[[True]], np.array([True]), [1.0, True], [[1.0], [np.True_]]],
        ids=["nested-list", "bool-array", "mixed-list", "numpy-bool-in-list"],
    )
    def test_rejects_booleans(self, points):
        model = from_taylor_polynomial((1.0,), 0.0)
        with pytest.raises(DomainError, match="points must be real numbers"):
            predict_grid(model, points)

    def test_float_array_is_read_without_a_copy(self):
        points = np.array([[1.0], [2.0]])
        assert _point_matrix(points, 1) is points
        assert _as_float_array(points, "points") is points


class TestPredictOriginalUnits:
    def test_rescale_round_trip(self):
        comp = ComponentParams(1.0, 0.2, (1.0,), (0.1,), (0.3,))
        scaled = SteModel(d=1, components=(comp,), x0=(0.0,), rescale=(6000.0, 2.0))
        raw_points = np.array([[600.0], [1200.0], [3000.0]])
        got = predict_original_units(scaled, raw_points)
        want = 2.0 * predict_grid(scaled, raw_points / 6000.0)
        assert got == pytest.approx(want, rel=1e-14)


class TestSerialization:
    def test_round_trip_preserves_values_exactly(self):
        model = random_model(25, 2, 3)
        clone = model_from_json(model_to_json(model))
        assert clone == model
        x = (1.4, 0.9)
        assert evaluate(clone, x) == evaluate(model, x)

    def test_dict_round_trip(self):
        model = random_model(26, 1, 2)
        assert model_from_dict(model_to_dict(model)) == model

    def test_rejects_unknown_schema_version(self):
        doc = model_to_dict(random_model(27, 1, 1))
        doc["version"] = SCHEMA_VERSION + 1
        with pytest.raises(DomainError):
            model_from_dict(doc)

    def test_rejects_missing_field(self):
        doc = model_to_dict(random_model(28, 1, 1))
        del doc["components"]
        with pytest.raises(DomainError):
            model_from_dict(doc)

    @pytest.mark.parametrize("field, text", [("rescale", "23"), ("x0", "0")])
    def test_rejects_a_string_for_a_vector(self, field, text):
        # A string is not read as a vector of one-character numbers.
        doc = model_to_dict(random_model(28, 1, 1))
        doc[field] = text
        with pytest.raises(DomainError, match=f"{field} must be a sequence of reals"):
            model_from_dict(doc)

    def test_save_and_load(self, tmp_path):
        model = random_model(29, 1, 2)
        path = os.path.join(tmp_path, "model.json")
        save_model(model, path)
        assert load_model(path) == model
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["version"] == SCHEMA_VERSION

    def test_saved_model_mode_follows_the_umask(self, tmp_path):
        path = os.path.join(tmp_path, "model.json")
        previous = os.umask(0o022)
        try:
            save_model(random_model(29, 1, 2), path)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
        assert os.listdir(tmp_path) == ["model.json"]


class TestCsvText:
    def test_memory_of_a_cli_predict(self):
        # The 40,000 rows of a CLI predict on a 200x200 grid. The text and
        # its blocks take twice its length; also copying the whole text once
        # more, as a final newline appended to it would, reaches three times.
        axis = np.linspace(0.1, 7.0, 200)
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        values = np.exp(points[:, 0]) * np.sin(points[:, 1])
        tracemalloc.start()
        try:
            text = csv_text(["x_1", "x_2", "value"], [*points.T, values])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 40_001
        assert peak <= 2.5 * len(text)
