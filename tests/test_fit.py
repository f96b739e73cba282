"""Origin rule, RSS, parameter transform, optimizer, model-order selection."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import stochtaylor.fit as fit_mod
from stochtaylor import (
    Dataset,
    DomainError,
    FitConfig,
    FitFailure,
    FitResult,
    RngStream,
    SelectedFit,
    UnderdeterminedWarning,
    choose_origin,
    evaluate,
    fit_fixed_m,
    from_taylor_polynomial,
    objective_gradient,
    objective_value,
    pack_params,
    predict_grid,
    rss,
    select_model,
    sigma2_mle,
    unpack_params,
)
from stochtaylor.bench import get_test_function, make_dataset
from stochtaylor.fit import params_width, selected_fit_to_dict

from conftest import STEP_RTOL, gram_and_svd_steps, radius_for, random_model


def single_power_dataset(K: int = 200) -> Dataset:
    x = np.linspace(0.1, 3.0, K)
    return Dataset(x[:, None], 2.0 * x**1.5)


class TestChooseOrigin:
    def test_five_percent_below_range(self):
        x0 = choose_origin(np.array([[1.0], [2.0], [3.0]]))
        assert x0 == pytest.approx([0.9], abs=1e-15)

    def test_constant_column_floor(self):
        x0 = choose_origin(np.array([[5.0], [5.0], [5.0]]))
        assert x0 == pytest.approx([5.0 - 1e-6], abs=1e-18)

    def test_per_coordinate(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        x0 = choose_origin(X)
        assert x0 == pytest.approx([1.0 - 0.1, 10.0 - 1.0], abs=1e-12)

    def test_offset_is_a_module_constant(self):
        assert fit_mod._ORIGIN_FRAC == 0.05
        with pytest.raises(TypeError):
            choose_origin(np.array([[1.0], [2.0]]), 0.05)


class TestRss:
    def test_exact_generator_is_zero(self):
        model = from_taylor_polynomial((0.5, -1.0, 2.0), 0.0)
        x = np.linspace(0.2, 2.0, 50)
        data = Dataset(x[:, None], predict_grid(model, x[:, None]))
        assert rss(model, data) <= 1e-18 * float(data.y @ data.y)

    def test_zero_model_gives_sum_of_squares(self):
        model = from_taylor_polynomial((0.0,), 0.0)
        x = np.linspace(0.5, 2.0, 20)
        y = np.sin(x)
        data = Dataset(x[:, None], y)
        assert rss(model, data) == pytest.approx(float(y @ y), rel=1e-14)

    def test_noise_variance_recovered_on_cubic(self):
        fn = get_test_function("cubic")
        data = make_dataset(fn, 100, 1.0, RngStream(0, 0))
        cfg = FitConfig(n_starts=20, max_iters=40, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderdeterminedWarning)
            sel = select_model(data, 5, cfg)
        assert 0.5 <= sel.chosen.sigma2 <= 2.0


class TestSigma2Mle:
    def test_zero_rss(self):
        assert sigma2_mle(0.0, 10) == 0.0

    def test_plain_ratio(self):
        assert sigma2_mle(5.0, 10) == 0.5

    def test_rejects_boolean_k(self):
        with pytest.raises(DomainError):
            sigma2_mle(5.0, True)

    def test_matches_fit_result_exactly(self):
        data = single_power_dataset(60)
        result = fit_fixed_m(data, 1, FitConfig(n_starts=4, max_iters=100, seed=0), [0.0])
        assert result.sigma2 == result.rss / data.K


class TestPackUnpack:
    def test_round_trip(self):
        model = random_model(60, 2, 3)
        clone = unpack_params(pack_params(model), model.m, model.d, model.x0)
        for got, want in zip(clone.components, model.components):
            assert got.mu_a == pytest.approx(want.mu_a, abs=1e-10)
            assert got.sigma_a == pytest.approx(want.sigma_a, rel=1e-10, abs=1e-10)
            assert np.asarray(got.mu_n) == pytest.approx(np.asarray(want.mu_n), abs=1e-10)
            assert np.asarray(got.sigma_n) == pytest.approx(
                np.asarray(want.sigma_n), rel=1e-10, abs=1e-10
            )
            assert np.asarray(got.rho) == pytest.approx(np.asarray(want.rho), abs=1e-10)

    def test_zero_z_gives_zero_rho(self):
        d = 2
        v = np.zeros(params_width(d))
        v[0] = 1.5
        model = unpack_params(v, 1, d, (0.0, 0.0))
        assert model.components[0].rho == (0.0, 0.0)

    def test_correlation_norm_saturates_monotonically(self):
        d = 2
        sums = []
        for t in (1.0, 10.0, 100.0):
            v = np.zeros(params_width(d))
            v[2 + 2 * d :] = t / math.sqrt(d)
            model = unpack_params(v, 1, d, (0.0, 0.0))
            sums.append(sum(r**2 for r in model.components[0].rho))
        assert sums[0] < sums[1] < sums[2] < 1.0
        assert sums[2] > 0.999

    def test_sigma_stays_above_floor(self):
        v = -1e6 * np.ones(params_width(1))
        model = unpack_params(v, 1, 1, (0.0,))
        assert model.components[0].sigma_a >= fit_mod.SIGMA_FLOOR
        assert model.components[0].sigma_n[0] >= fit_mod.SIGMA_FLOOR

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            unpack_params(np.zeros(7), 1, 1, (0.0,))


class TestObjective:
    # objective_value runs fit._forward, rss runs model._mean_values: the two
    # mean implementations share no code, and this keeps them in agreement.
    @pytest.mark.parametrize("m, d", [(2, 1), (2, 2), (3, 3)])
    def test_value_equals_rss_of_unpacked_model(self, m, d):
        model = random_model(61, d, m)
        v = pack_params(model)
        x = np.linspace(0.5, 2.5, 40)
        X = np.stack([np.roll(x, 7 * r) for r in range(d)], axis=1)
        data = Dataset(X, np.cos(X.sum(axis=1)))
        x0 = (0.0,) * d
        want = rss(unpack_params(v, m, d, x0), data)
        assert objective_value(v, m, data, x0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m, d", [(2, 1), (2, 2), (3, 3), (2, 3)])
    def test_gradient_matches_central_differences(self, m, d):
        gen = RngStream(62, 0).generator()
        x = np.linspace(0.4, 2.2, 40)
        X = np.stack([np.roll(x, 7 * r) for r in range(d)], axis=1)
        data = Dataset(X, np.sin(2 * X.sum(axis=1)))
        x0 = (0.0,) * d
        step = 1e-6
        for _ in range(5):
            v = gen.uniform(-1.0, 1.0, m * params_width(d))
            grad = objective_gradient(v, m, data, x0)
            for j in range(v.size):
                vp, vm = v.copy(), v.copy()
                vp[j] += step
                vm[j] -= step
                fd = (objective_value(vp, m, data, x0) - objective_value(vm, m, data, x0)) / (
                    2 * step
                )
                scale = max(abs(fd), abs(grad[j]), 1e-8)
                assert abs(grad[j] - fd) <= 1e-4 * scale

    def test_trial_step_into_overflow_is_rejected(self, monkeypatch):
        # One overflow policy: the objective is not clipped, so TRF judges an
        # overflowing trial itself. Component 1 of 3 (d=2) is stepped to
        # mu_n = 400 (every power factor overflows: non-finite residuals) or
        # to mu_a = 1e80 (finite residuals, a cost of about 1e160). Either
        # trial is rejected: x and cost stay, and the radius shrinks to 0.25
        # x the step norm.
        m, d, K = 3, 2, 30
        width = params_width(d)
        gen = RngStream(63, 0).generator()
        data = Dataset(gen.uniform(3.0, 6.0, (K, d)), gen.normal(size=K))
        _, _, log_delta = fit_mod._log_offsets(data, m, (0.0, 0.0))
        fun, jac = fit_mod._least_squares_callbacks(data.y, m, d, log_delta)
        v = gen.uniform(-0.5, 0.5, m * width)
        f = fun(v)
        cost = 0.5 * float(f @ f)
        real_step = fit_mod._trust_region_step
        for cols, value, finite in (
            (slice(width + 2, width + 2 + d), 400.0, False),
            (slice(width, width + 1), 1e80, True),
        ):
            step = np.zeros_like(v)
            step[cols] = value - v[cols]
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.isfinite(fun(v + step)).all() == finite
            for max_nfev in (2, 3):
                radii = []

                def first_step_into_overflow(gv, w, V, Delta, alpha):
                    radii.append(Delta)
                    if len(radii) == 1:
                        return step.copy(), 0.0
                    return real_step(gv, w, V, Delta, alpha)

                monkeypatch.setattr(fit_mod, "_trust_region_step", first_step_into_overflow)
                with np.errstate(over="ignore", invalid="ignore"):
                    result = fit_mod.least_squares(fun, v, jac=jac, max_nfev=max_nfev)
                if max_nfev == 2:
                    assert np.array_equal(result.x, v) and result.cost == cost
                    assert (result.nfev, result.njev, result.status) == (2, 1, 0)
                else:
                    assert radii[1] == pytest.approx(0.25 * np.linalg.norm(step), rel=1e-15)

    def test_start_in_overflow_fails_alone_without_warnings(self, monkeypatch):
        # Start 2 begins at mu_n = 400 (non-finite residuals at x0) and start 4
        # at mu_a = 1e200 (its Gram matrix overflows). Each fails alone with
        # _NotFinite, the other starts run exactly as without them, and no
        # RuntimeWarning leaves fit_fixed_m.
        m, d, K = 2, 2, 60
        width = params_width(d)
        gen = RngStream(65, 0).generator()
        X = gen.uniform(3.0, 6.0, (K, d))
        data = Dataset(X, np.exp(-X.sum(axis=1)) + 0.01 * gen.normal(size=K))
        cfg = FitConfig(n_starts=6, max_iters=120, seed=0)
        real = fit_mod.least_squares

        def fit(poison):
            outcomes = []

            def least_squares(fun, x0, *, jac, max_nfev):
                x0 = np.array(x0)
                if len(outcomes) in poison:
                    index, value = poison[len(outcomes)]
                    x0[index] = value
                try:
                    outcome = real(fun, x0, jac=jac, max_nfev=max_nfev)
                except fit_mod._NotFinite as exc:
                    outcome = exc
                outcomes.append(outcome)
                if isinstance(outcome, Exception):
                    raise outcome
                return outcome

            monkeypatch.setattr(fit_mod, "least_squares", least_squares)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return fit_fixed_m(data, m, cfg, (0.0, 0.0)), outcomes

        clean, clean_runs = fit({})
        poisoned, runs = fit({2: (slice(2, 2 + d), 400.0), 4: (width, 1e200)})
        assert len(runs) == cfg.n_starts
        for s, (got, want) in enumerate(zip(runs, clean_runs)):
            if s in (2, 4):
                assert isinstance(got, fit_mod._NotFinite)
            else:
                assert np.array_equal(got.x, want.x) and got.cost == want.cost
        best = min((r.cost, s) for s, r in enumerate(runs) if s not in (2, 4))[1]
        assert poisoned.best_start_index == best
        if clean.best_start_index not in (2, 4):
            assert poisoned.rss == clean.rss

    def test_jacobian_reuses_only_the_last_residuals_forward_pass(self, monkeypatch):
        m, d, K = 3, 2, 40
        gen = RngStream(64, 0).generator()
        log_delta = np.log(gen.uniform(1.5, 3.0, (K, d)))
        v, w = gen.uniform(-0.5, 0.5, (2, m * params_width(d)))
        forward = fit_mod._forward

        def direct(u):
            return fit_mod._prediction_jacobian(forward(u, m, d, log_delta)[1], m, d, log_delta)

        calls = []
        monkeypatch.setattr(fit_mod, "_forward", lambda *a: calls.append(1) or forward(*a))
        residuals, jacobian = fit_mod._least_squares_callbacks(
            gen.normal(size=K), m, d, log_delta
        )
        residuals(v)
        assert np.array_equal(jacobian(w), direct(w)) and len(calls) == 2
        assert np.array_equal(jacobian(v.copy()), direct(v)) and len(calls) == 2
        # The same array object, changed after the residual call, is recomputed.
        u = v.copy()
        residuals(u)
        u[0] += 1.0
        assert np.array_equal(jacobian(u), direct(u)) and len(calls) == 4

    def test_rejects_bad_x0_and_parameter_length(self):
        data = Dataset(np.linspace(0.5, 2.0, 10)[:, None], np.linspace(1.0, 2.0, 10))
        v = np.zeros(params_width(1))
        for objective in (objective_value, objective_gradient):
            with pytest.raises(DomainError, match="x0"):
                objective(v, 1, data, (0.0, 0.0))
            with pytest.raises(DomainError, match="x0"):
                objective(v, 1, data, (math.nan,))
            with pytest.raises(DomainError, match="parameter vector"):
                objective(np.zeros(7), 1, data, (0.0,))


class TestDataset:
    def test_promotes_one_dimensional_x(self):
        data = Dataset(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert data.X.shape == (2, 1)
        assert data.K == 2 and data.d == 1

    def test_arrays_are_read_only(self):
        data = single_power_dataset(10)
        with pytest.raises(ValueError):
            data.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.y[0] = 99.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            Dataset(np.ones((3, 1)), np.ones(2))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Dataset(np.array([[1.0], [math.inf]]), np.ones(2))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Dataset(np.empty((0, 1)), np.empty(0))

    @pytest.mark.parametrize(
        "X, y",
        [
            ([[True], [np.True_]], [True, False]),
            (np.array([[1.0], [2.0]]), np.array([True, False])),
            ([[1.0], [True]], [1.0, 2.0]),
        ],
    )
    def test_rejects_booleans(self, X, y):
        with pytest.raises(DomainError, match="must be real numbers"):
            Dataset(X, y)


class TestFitConfig:
    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.n_starts == 20
        assert cfg.max_iters == 500
        assert cfg.seed == 0

    def test_fields(self):
        names = [f.name for f in dataclasses.fields(FitConfig)]
        assert names == ["n_starts", "max_iters", "seed"]
        for removed in ("rel_tol", "delta_frac"):
            with pytest.raises(TypeError):
                FitConfig(**{removed: 0.05})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_starts": 0},
            {"max_iters": 0},
            {"n_starts": True},
            {"max_iters": True},
            {"n_starts": "3"},
            {"max_iters": np.bool_(True)},
            {"seed": 2.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            FitConfig(**kwargs)


def trf_problem(function_id: str, K: int, m: int):
    """fit_fixed_m's residual and Jacobian callbacks and anchor on a K-sample dataset."""
    fn = get_test_function(function_id)
    data = make_dataset(fn, K, fn.sigma, RngStream(3, 0))
    _, _, log_delta = fit_mod._log_offsets(data, m, choose_origin(data.X))
    callbacks = fit_mod._least_squares_callbacks(data.y, m, data.d, log_delta)
    return callbacks, fit_mod._taylor_start(data.y, m, data.d, log_delta)


def jittered(anchor: np.ndarray, start: int) -> np.ndarray:
    """fit_fixed_m's start ``start`` at seed 0."""
    if start == 0:
        return anchor
    noise = RngStream(0, start).generator().standard_normal(anchor.size)
    return anchor + min(fit_mod._JITTER_STEP * start, fit_mod._JITTER_CAP) * noise


def traced(callbacks):
    """The callbacks with a log: ``trials`` holds each residual call's x and
    cost, and ``accepted`` the cost at each Jacobian call, that is at x0 and
    at every point whose step TRF took, except a step that ended the run."""
    fun, jac = callbacks
    trials, accepted = [], []

    def traced_fun(x):
        f = fun(x)
        trials.append((x.copy(), 0.5 * float(f @ f)))
        return f

    def traced_jac(x):
        accepted.append(trials[-1][1])
        return jac(x)

    return (traced_fun, traced_jac), trials, accepted


def assert_cost_falls(trials, accepted, result) -> bool:
    """Every taken step lowered the cost, and the result is the last point
    taken. Returns whether the last trial was taken: TRF takes a trial point
    when its cost is below the current one, and a taken step that ended the
    run gets no Jacobian."""
    taken = [trials[0][1]]
    last_taken = False
    for _, cost in trials[1:]:
        last_taken = cost < taken[-1]
        if last_taken:
            taken.append(cost)
    assert accepted == (taken[:-1] if last_taken else taken)
    assert result.cost == taken[-1]
    assert result.njev == len(accepted)
    return last_taken


def scipy_trf(callbacks, x0, max_nfev: int):
    """scipy's TRF with fit_fixed_m's settings."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    fun, jac = callbacks
    return scipy_optimize.least_squares(
        fun,
        x0,
        jac=jac,
        method="trf",
        ftol=fit_mod._REL_TOL,
        xtol=fit_mod._XTOL,
        gtol=None,
        max_nfev=max_nfev,
    )


def trf_against_scipy(callbacks, x0, max_nfev: int):
    """fit.least_squares's result, checked against scipy's TRF with fit_fixed_m's settings.

    The step comes from the Gram matrix, scipy's from an SVD, so the runs
    agree up to rounding: the same status and residual count, the same
    Jacobian count less the one that scipy takes after a step that ends the
    run, and cost and residuals within 1e-9 relative (the largest deviation
    measured on these cases is 7e-11). x is not compared entry by entry:
    the mean depends on sigma_a and rho only through their product, so
    rounding moves x along that flat direction (by up to 8e-6 relative on
    the ftol stop below) without changing the fit.
    """
    (fun, jac), trials, accepted = traced(callbacks)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ours = fit_mod.least_squares(fun, x0, jac=jac, max_nfev=max_nfev)
        ref = scipy_trf(callbacks, x0, max_nfev)
        residual_gap = np.max(np.abs(callbacks[0](ours.x) - ref.fun))
    assert (ours.status, ours.nfev) == (ref.status, ref.nfev)
    assert ours.cost == pytest.approx(ref.cost, rel=1e-9, abs=0.0)
    assert residual_gap <= 1e-9 * np.max(np.abs(ref.fun))
    last_step_taken = assert_cost_falls(trials, accepted, ours)
    # scipy also evaluates the Jacobian at the point of a step that ends the run.
    assert ours.njev == ref.njev - last_step_taken
    return ours


# (function, K, M); exp2d at K=10, M=2 has 16 parameters for 10 residuals.
TRF_PROBLEMS = [
    ("identity", 40, 1),
    ("cubic", 40, 1),
    ("cubic", 40, 3),
    ("exp2d", 60, 1),
    ("exp2d", 60, 2),
    ("exp2d", 60, 3),
    ("exp2d", 10, 2),
]


class TestLeastSquares:
    """fit.least_squares is scipy's unbounded TRF up to rounding: same stop and counts,
    less the Jacobian that scipy takes after a step that ends the run."""

    @pytest.mark.parametrize("budget", [2, 5, 25])
    @pytest.mark.parametrize("start", [0, 1, 3])
    @pytest.mark.parametrize("problem", TRF_PROBLEMS, ids=lambda p: "%s-K%d-M%d" % p)
    def test_matches_scipy(self, problem, start, budget):
        callbacks, anchor = trf_problem(*problem)
        trf_against_scipy(callbacks, jittered(anchor, start), budget)

    @pytest.mark.parametrize("problem", TRF_PROBLEMS, ids=lambda p: "%s-K%d-M%d" % p)
    def test_zero_start_matches_scipy(self, problem):
        # ||x0|| = 0: scipy's rule makes the first trust radius 1. At x = 0
        # most columns of J vanish, so the runs part along flat directions
        # from the first step on; what they share is that radius and the stop.
        callbacks, anchor = trf_problem(*problem)
        (fun, jac), trials, accepted = traced(callbacks)
        x0 = np.zeros_like(anchor)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ours = fit_mod.least_squares(fun, x0, jac=jac, max_nfev=25)
            ref = scipy_trf(callbacks, x0, 25)
        assert np.linalg.norm(trials[1][0]) <= 1.0 + 1e-12
        assert ours.status == ref.status
        assert_cost_falls(trials, accepted, ours)

    def test_each_stop_matches_scipy(self):
        callbacks, anchor = trf_problem("identity", 40, 1)
        assert trf_against_scipy(callbacks, anchor, 2).status == 0
        assert trf_against_scipy(callbacks, jittered(anchor, 1), 200).status == 2
        # s_a at -1e9 makes ||x|| ~ 1e9 while the residuals do not depend on
        # it, so the first accepted step is below xtol * ||x||.
        far = anchor.copy()
        far[1] = -1e9
        assert trf_against_scipy(callbacks, far, 25).status == 3

    def test_takes_only_the_fits_arguments(self):
        (fun, jac), anchor = trf_problem("identity", 40, 1)
        with pytest.raises(TypeError):
            fit_mod.least_squares(fun, anchor, jac=jac, max_nfev=5, ftol=1e-3)
        with pytest.raises(TypeError):
            fit_mod.least_squares(fun, anchor, jac, 5)

    def test_non_finite_start_residuals_or_jacobian_raise(self):
        # scipy raises ValueError for both.
        (fun, jac), anchor = trf_problem("identity", 40, 1)
        with pytest.raises(ValueError, match="not finite"):
            fit_mod.least_squares(lambda v: fun(v) * math.inf, anchor, jac=jac, max_nfev=5)
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_mod.least_squares(fun, anchor, jac=lambda v: jac(v) * math.nan, max_nfev=5)


def gaussian_jacobian(kind: str, K: int, n: int, seed: int = 5):
    """A K x n Jacobian and K residuals: ``plain`` Gaussian, ``zero-column``
    with the s_a column of a component at rho = 0 (exactly 0), or ``scaled``
    with column scales from 1e-8 to 1e12."""
    gen = RngStream(seed, 0).generator()
    J = gen.standard_normal((K, n))
    if kind == "zero-column":
        J[:, 1] = 0.0
    elif kind == "scaled":
        J *= np.logspace(-8.0, 12.0, n)
    return J, gen.standard_normal(K)


class TestGramStep:
    """fit._trust_region_step from the Gram matrix is the SVD form's step."""

    @pytest.mark.parametrize("alpha_in", [0.0, "twice"])
    @pytest.mark.parametrize("tau", [1e-6, 1e-3, 1.0])
    @pytest.mark.parametrize(
        "kind, K, n, full_column_rank",
        [
            ("plain", 40, 8, True),
            ("zero-column", 40, 8, False),
            ("plain", 10, 16, False),
            ("scaled", 30, 8, False),
        ],
    )
    def test_boundary_step(self, kind, K, n, full_column_rank, tau, alpha_in):
        # A fit's J is never of full rank, but the root search does not need
        # it to be: a plain full-rank J gets the SVD form's step too.
        J, f = gaussian_jacobian(kind, K, n)
        assert (np.linalg.matrix_rank(J) == n) == full_column_rank
        alpha_star = tau * np.linalg.norm(J, 2) ** 2
        Delta = radius_for(J, f, alpha_star)
        alpha_in = 2.0 * alpha_star if alpha_in == "twice" else alpha_in
        (p, alpha), (p_ref, alpha_ref) = gram_and_svd_steps(J, f, Delta, alpha_in)
        assert np.linalg.norm(p - p_ref) <= STEP_RTOL * Delta
        assert alpha == pytest.approx(alpha_ref, rel=STEP_RTOL)
        assert np.linalg.norm(p) == pytest.approx(Delta, rel=1e-12)


# The solver itself, for wrappers that monkeypatch fit.least_squares more than once.
LEAST_SQUARES = fit_mod.least_squares


class TestFitFixedM:
    def test_single_power_recovery(self):
        data = single_power_dataset()
        result = fit_fixed_m(data, 1, FitConfig(seed=0), [0.0])
        assert result.rss <= 1e-8 * float(data.y @ data.y)
        held = np.linspace(0.15, 2.8, 37)[:, None]
        got = predict_grid(result.model, held)
        want = 2.0 * held[:, 0] ** 1.5
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-4

    def test_sigma2_attached_to_model(self):
        data = single_power_dataset(80)
        result = fit_fixed_m(data, 1, FitConfig(n_starts=4, max_iters=100, seed=0), [0.0])
        assert result.model.sigma2 == result.sigma2

    def test_underdetermined_warns_but_fits(self):
        x = np.linspace(0.5, 2.0, 8)
        data = Dataset(x[:, None], x)
        with pytest.warns(UnderdeterminedWarning):
            result = fit_fixed_m(data, 2, FitConfig(n_starts=2, max_iters=8, seed=0), [0.0])
        assert result.underdetermined
        assert math.isfinite(result.rss)

    def test_underdetermined_warning_names_the_callers_line(self):
        x = np.linspace(0.5, 2.0, 8)
        data = Dataset(x[:, None], 2.0 + np.sin(3.0 * x))
        cfg = FitConfig(n_starts=2, max_iters=8, seed=0)
        with pytest.warns(UnderdeterminedWarning) as direct:
            fit_fixed_m(data, 2, cfg, [0.0])
        with pytest.warns(UnderdeterminedWarning) as nested:
            select_model(data, 2, cfg, x0=[0.0])
        for record in [*direct, *nested]:
            assert record.filename == __file__

    def test_deterministic(self):
        data = single_power_dataset(100)
        cfg = FitConfig(n_starts=6, max_iters=120, seed=3)
        r1 = fit_fixed_m(data, 2, cfg, [0.0])
        r2 = fit_fixed_m(data, 2, cfg, [0.0])
        assert r1.model == r2.model
        assert r1.rss == r2.rss
        assert r1.best_start_index == r2.best_start_index

    def test_all_starts_failing_raises_named_error(self, monkeypatch):
        class Diverged:
            cost = math.inf
            status = 0
            x = None

        monkeypatch.setattr(fit_mod, "least_squares", lambda *a, **k: Diverged())
        data = single_power_dataset(30)
        with pytest.raises(FitFailure, match="M=3"):
            fit_fixed_m(data, 3, FitConfig(n_starts=2, max_iters=8, seed=0), [0.0])

    @staticmethod
    def non_finite_at(monkeypatch, bad_starts, which: str = "jac") -> list:
        """Make the Jacobian (``which="jac"``) or the residuals (``"fun"``) of the
        starts ``bad_starts`` (all when None) non-finite; returns each start's
        TrfResult, None for a start that raised."""
        results = []

        def least_squares(fun, x0, *, jac, max_nfev):
            bad = bad_starts is None or len(results) in bad_starts
            results.append(None)
            if bad and which == "jac":
                result = LEAST_SQUARES(fun, x0, jac=lambda v: jac(v) * math.nan, max_nfev=max_nfev)
            elif bad:
                result = LEAST_SQUARES(lambda v: fun(v) * math.inf, x0, jac=jac, max_nfev=max_nfev)
            else:
                result = LEAST_SQUARES(fun, x0, jac=jac, max_nfev=max_nfev)
            results[-1] = result
            return result

        monkeypatch.setattr(fit_mod, "least_squares", least_squares)
        return results

    @pytest.mark.parametrize("which", ["jac", "fun"])
    def test_a_start_with_non_finite_values_fails_alone(self, monkeypatch, which):
        x = np.linspace(0.1, 3.0, 30)
        noise = 0.01 * RngStream(0, 0).generator().standard_normal(30)
        data = Dataset(x[:, None], 2.0 * x**1.5 + noise)
        cfg = FitConfig(n_starts=3, max_iters=600, seed=0)
        clean_runs = self.non_finite_at(monkeypatch, ())
        clean = fit_fixed_m(data, 1, cfg, [0.0])
        converged = [run.status > 0 for run in clean_runs]
        # Start 0 wins and start 2 does not converge: dropping either one shows.
        assert clean.best_start_index == 0 and converged == [True, True, False]
        for bad in (0, 2):
            runs = self.non_finite_at(monkeypatch, (bad,), which)
            result = fit_fixed_m(data, 1, cfg, [0.0])
            assert runs[bad] is None and len(runs) == 3
            assert result.n_starts_converged == sum(converged) - converged[bad]
            winner = min((run.cost, s) for s, run in enumerate(clean_runs) if s != bad)[1]
            assert result.best_start_index == winner
            if winner == clean.best_start_index:
                assert (result.model, result.rss) == (clean.model, clean.rss)

    def test_every_start_with_a_non_finite_jacobian_is_a_named_failure(self, monkeypatch):
        runs = self.non_finite_at(monkeypatch, None)
        data = single_power_dataset(30)
        with pytest.raises(FitFailure, match="M=2"):
            fit_fixed_m(data, 2, FitConfig(n_starts=3, max_iters=30, seed=0), [0.0])
        assert runs == [None, None, None]

    def test_skips_a_start_whose_rss_overflows(self, monkeypatch):
        # Finite predictions whose squared residuals overflow: the start is
        # passed over like one whose prediction overflows.
        real_rss = fit_mod.rss
        calls = []

        def first_overflows(model, data):
            calls.append(model)
            return math.inf if len(calls) == 1 else real_rss(model, data)

        monkeypatch.setattr(fit_mod, "rss", first_overflows)
        data = single_power_dataset(30)
        result = fit_fixed_m(data, 1, FitConfig(n_starts=2, max_iters=40, seed=0), [0.0])
        assert len(calls) == 2
        assert math.isfinite(result.rss) and result.rss == real_rss(result.model, data)

    def test_rejects_bad_m_and_x0(self):
        data = single_power_dataset(20)
        with pytest.raises(DomainError):
            fit_fixed_m(data, 0, FitConfig(), [0.0])
        with pytest.raises(DomainError):
            fit_fixed_m(data, 1, FitConfig(), [0.0, 0.0])

    def test_rejects_boolean_m(self):
        data = single_power_dataset(20)
        with pytest.raises(DomainError):
            fit_fixed_m(data, True, FitConfig(), [0.0])
        with pytest.raises(DomainError):
            objective_value(pack_params(random_model(3, 1, 1)), data, True, [0.0])


# Noisy-style data: K=100 ones, so the tie floor is 1e-6 and RSS near 100
# never reaches it.
NOISY_STYLE = Dataset(np.linspace(1.0, 2.0, 100)[:, None], np.ones(100))


def stub_rss_table(monkeypatch, table) -> list:
    """Make fit_fixed_m return RSS table[m-1] (None: every start fails); returns the orders tried."""
    model = from_taylor_polynomial((1.0,), 0.0)
    tried = []

    def fake_fit_fixed_m(data, m, cfg, x0):
        tried.append(m)
        if table[m - 1] is None:
            raise FitFailure(f"all starts failed for M={m}")
        return FitResult(model, table[m - 1], table[m - 1] / data.K, 1, 0)

    monkeypatch.setattr(fit_mod, "fit_fixed_m", fake_fit_fixed_m)
    return tried


class TestSelectModel:
    def test_rejects_boolean_m_max(self):
        with pytest.raises(DomainError):
            select_model(single_power_dataset(20), True, FitConfig(), x0=[0.0])

    def test_identity_data_selects_one_component(self):
        fn = get_test_function("identity")
        data = make_dataset(fn, 200, 1e-5, RngStream(1, 0))
        cfg = FitConfig(n_starts=4, max_iters=200, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderdeterminedWarning)
            sel = select_model(data, 8, cfg, x0=[0.0])
        assert sel.chosen_m == 1

    def test_noiseless_ties_resolve_to_smallest_m(self):
        data = single_power_dataset(120)
        cfg = FitConfig(n_starts=4, max_iters=200, seed=0)
        sel = select_model(data, 3, cfg, x0=[0.0])
        assert sel.chosen_m == 1
        # larger orders may reach numerically smaller RSS, yet stay inside
        # the tie window, so the smallest order wins
        assert sel.chosen.rss <= (1 + fit_mod._SELECT_TOL) * min(
            r.rss for r in sel.per_m.values()
        ) + 1e-6 * float(data.y @ data.y)

    def test_reports_all_orders(self):
        # the order chosen from M=1..2 already sits below the tie floor, so
        # the scan stops there and reports M=3 as skipped
        data = single_power_dataset(100)
        sel = select_model(data, 3, FitConfig(n_starts=2, max_iters=40, seed=0))
        orders = [*sel.per_m, *sel.failures, *sel.skipped]
        assert sorted(orders) == [1, 2, 3]
        assert sel.skipped == (3,)
        assert sel.stopped_by == "floor"
        assert sel.chosen is sel.per_m[sel.chosen_m]
        assert sel.failures == {}

    def test_noisy_data_fits_every_order(self):
        fn = get_test_function("cubic")
        data = make_dataset(fn, 80, 1.0, RngStream(5, 0))
        sel = select_model(data, 3, FitConfig(n_starts=4, max_iters=40, seed=0))
        assert sel.skipped == ()
        assert sel.stopped_by is None
        assert set(sel.per_m) == {1, 2, 3}
        assert sel.failures == {}

    @pytest.mark.parametrize(
        "failed, chosen_m, tried, skipped",
        [(None, 1, 4, (5, 6)), (3, 1, 4, (5, 6)), (4, 1, 4, (5, 6)), (1, 2, 5, (6,))],
    )
    def test_margin_stop_skips_orders_three_past_the_choice(
        self, monkeypatch, failed, chosen_m, tried, skipped
    ):
        # every order ties within the window, so the choice is the first
        # fitted one; the scan stops once three more orders were tried, a
        # failed one included
        table = [100.0, 99.9, 99.8, 99.7, 99.6, 99.5]
        if failed:
            table[failed - 1] = None
        orders_tried = stub_rss_table(monkeypatch, table)
        sel = select_model(NOISY_STYLE, 6, FitConfig(), x0=[0.0])
        assert orders_tried == list(range(1, tried + 1))
        assert sel.chosen_m == chosen_m
        assert sel.skipped == skipped
        assert sel.stopped_by == "margin"
        assert set(sel.failures) == ({failed} if failed else set())
        assert set(sel.per_m) == set(range(1, tried + 1)) - set(sel.failures)

    @pytest.mark.parametrize(
        "table, chosen_m",
        [
            ([100.0, 99.9, 99.8], 1),
            ([200.0, 100.0, 99.9, 99.8], 2),
            ([200.0, None, 100.0, 99.9, 99.8], 3),
        ],
    )
    def test_scan_shorter_than_the_margin_fits_every_order(self, monkeypatch, table, chosen_m):
        # m_max < chosen + 3: neither stop fires before the last order
        orders_tried = stub_rss_table(monkeypatch, table)
        sel = select_model(NOISY_STYLE, len(table), FitConfig(), x0=[0.0])
        assert orders_tried == list(range(1, len(table) + 1))
        assert sel.chosen_m == chosen_m
        assert sel.skipped == ()
        assert sel.stopped_by is None

    def test_margin_stop_can_differ_from_the_full_scan(self, monkeypatch):
        # order 5 would lower the window below orders 1-4, but the scan stops
        # after order 4
        orders_tried = stub_rss_table(monkeypatch, [100.0, 99.9, 99.8, 99.7, 1.0])
        sel = select_model(NOISY_STYLE, 5, FitConfig(), x0=[0.0])
        assert orders_tried == [1, 2, 3, 4]
        assert (sel.chosen_m, sel.skipped, sel.stopped_by) == (1, (5,), "margin")
        fit_doc = selected_fit_to_dict(sel)["fit"]
        assert (fit_doc["skipped"], fit_doc["stopped_by"]) == ([5], "margin")

    def test_deterministic(self):
        fn = get_test_function("cubic")
        data = make_dataset(fn, 80, 1.0, RngStream(5, 0))
        cfg = FitConfig(n_starts=4, max_iters=40, seed=0)
        s1 = select_model(data, 3, cfg)
        s2 = select_model(data, 3, cfg)
        assert s1.chosen_m == s2.chosen_m
        assert s1.chosen.model == s2.chosen.model
        assert {m: r.rss for m, r in s1.per_m.items()} == {
            m: r.rss for m, r in s2.per_m.items()
        }

    def test_explicit_origin_is_used(self):
        data = single_power_dataset(60)
        sel = select_model(data, 1, FitConfig(n_starts=2, max_iters=40, seed=0), x0=[-0.5])
        assert sel.chosen.model.x0 == (-0.5,)

    def test_inconsistent_selected_fit_rejected(self):
        data = single_power_dataset(40)
        cfg = FitConfig(n_starts=2, max_iters=20, seed=0)
        r1 = fit_fixed_m(data, 1, cfg, [0.0])
        r2 = fit_fixed_m(data, 2, cfg, [0.0])
        with pytest.raises(DomainError):
            SelectedFit(per_m={1: r1, 2: r2}, chosen_m=1, chosen=r2, failures={})
        with pytest.raises(DomainError, match="partition"):
            SelectedFit(per_m={1: r1, 2: r2}, chosen_m=1, chosen=r1, failures={}, skipped=(2,))
        with pytest.raises(DomainError, match="partition"):
            SelectedFit(per_m={1: r1}, chosen_m=1, chosen=r1, failures={}, skipped=(3,))
        with pytest.raises(DomainError, match="stopped_by"):
            SelectedFit(per_m={1: r1}, chosen_m=1, chosen=r1, failures={}, skipped=(2,))
        with pytest.raises(DomainError, match="stopped_by"):
            SelectedFit(per_m={1: r1, 2: r2}, chosen_m=1, chosen=r1, failures={}, stopped_by="floor")
        with pytest.raises(DomainError, match="stopped_by"):
            SelectedFit(
                per_m={1: r1}, chosen_m=1, chosen=r1, failures={}, skipped=(2,), stopped_by="rss"
            )


class TestSerializationHelpers:
    def test_selected_fit_dict_includes_rss_table(self):
        data = single_power_dataset(50)
        sel = select_model(data, 2, FitConfig(n_starts=2, max_iters=40, seed=0))
        doc = selected_fit_to_dict(sel)
        json.dumps(doc)
        assert doc["fit"]["chosen_m"] == sel.chosen_m
        assert set(doc["fit"]["per_m_rss"]) == {"1", "2"}
        for m in sel.skipped:
            assert doc["fit"]["per_m_rss"][str(m)] is None
        assert doc["fit"]["skipped"] == list(sel.skipped)
        assert doc["fit"]["stopped_by"] == sel.stopped_by
        assert (sel.stopped_by is None) == (not sel.skipped)
