"""Test-function registry, synthetic datasets, experiment runs, reports."""

import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest

from stochtaylor import DataError, DomainError, FitConfig, RngStream, UnderdeterminedWarning
from stochtaylor.bench import (
    DEFAULT_GRID_POINTS,
    REGISTRY,
    ExperimentReport,
    ExperimentSpec,
    SeedRecord,
    default_spec,
    get_test_function,
    load_experiment_specs,
    make_dataset,
    report_to_csv,
    report_to_json,
    run_experiment,
    spec_from_dict,
    spec_to_dict,
    write_report,
)

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "stochtaylor", "specs")


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(K=40, n_seeds=2, m_max=2, n_starts=2, max_iters=20)
    base.update(overrides)
    return default_spec("identity", **base)


class TestRegistry:
    def test_expected_functions(self):
        assert set(REGISTRY) == {"identity", "cubic", "trig_mix", "exp2d", "polyexp2d"}

    def test_dimensions(self):
        assert get_test_function("identity").d == 1
        assert get_test_function("cubic").d == 1
        assert get_test_function("trig_mix").d == 1
        assert get_test_function("exp2d").d == 2
        assert get_test_function("polyexp2d").d == 2

    def test_values_finite_on_fit_window(self):
        gen = RngStream(70, 0).generator()
        for fn in REGISTRY.values():
            lo = np.asarray(fn.fit_lower)
            hi = np.asarray(fn.fit_upper)
            X = lo + (hi - lo) * gen.random((200, fn.d))
            assert np.isfinite(fn(X)).all()

    def test_known_values(self):
        cubic = get_test_function("cubic")
        assert cubic(np.array([[2.0]]))[0] == pytest.approx(2.0**3 - 6 * 2.0)
        exp2d = get_test_function("exp2d")
        assert exp2d(np.array([[0.5, 1.0]]))[0] == pytest.approx(math.exp(-0.25 + 1.0))
        poly = get_test_function("polyexp2d")
        x, y = 0.3, 0.8
        assert poly(np.array([[x, y]]))[0] == pytest.approx(
            x**3 * y - y**2 * math.exp(x) + 3 * x * y
        )

    def test_unknown_id_raises(self):
        with pytest.raises(DomainError, match="quartic"):
            get_test_function("quartic")


class TestMakeDataset:
    def test_noiseless_identity_is_exact(self):
        fn = get_test_function("identity")
        data = make_dataset(fn, 50, 0.0, RngStream(71, 0))
        assert np.array_equal(data.y, data.X[:, 0])

    def test_noise_variance(self):
        fn = get_test_function("cubic")
        data = make_dataset(fn, 500, 1.0, RngStream(72, 0))
        resid = data.y - fn(data.X)
        assert 0.7 <= resid.var(ddof=1) <= 1.3

    def test_bit_identical_per_stream(self):
        fn = get_test_function("trig_mix")
        d1 = make_dataset(fn, 30, 0.2, RngStream(73, 0))
        d2 = make_dataset(fn, 30, 0.2, RngStream(73, 0))
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)

    def test_rows_sorted_lexicographically(self):
        fn = get_test_function("exp2d")
        data = make_dataset(fn, 100, 0.1, RngStream(74, 0))
        order = np.lexsort(data.X.T[::-1])
        assert np.array_equal(order, np.arange(100))

    def test_samples_stay_inside_half_open_window(self):
        fn = get_test_function("identity")
        data = make_dataset(fn, 1000, 0.0, RngStream(75, 0))
        assert np.all(data.X[:, 0] > 0.0)
        assert np.all(data.X[:, 0] <= 5.0)

    def test_rejects_bad_arguments(self):
        fn = get_test_function("identity")
        with pytest.raises(DomainError):
            make_dataset(fn, 0, 1.0, RngStream(0, 0))
        with pytest.raises(DomainError):
            make_dataset(fn, 10, -1.0, RngStream(0, 0))

    def test_rejects_boolean_k(self):
        with pytest.raises(DomainError):
            make_dataset(get_test_function("identity"), True, 1.0, RngStream(0, 0))

    @pytest.mark.parametrize("sigma", [True, np.bool_(False), math.inf, math.nan])
    def test_rejects_boolean_and_non_finite_sigma(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            make_dataset(get_test_function("identity"), 10, sigma, RngStream(0, 0))


class TestExperimentSpec:
    def test_default_spec_pulls_registry_values(self):
        spec = default_spec("identity")
        assert spec.K == 500
        assert spec.sigma == 1e-5
        assert spec.m_max == 15
        assert spec.n_starts == 4
        assert spec.max_iters == 400
        assert spec.x0 == (0.0,)
        assert spec.eval_upper == (7.0,)

    def test_default_k_is_largest_registered(self):
        assert default_spec("cubic").K == 500
        assert default_spec("cubic", K=25).K == 25

    def test_rejects_eval_window_not_containing_fit_window(self):
        with pytest.raises(DomainError):
            default_spec("identity", eval_lower=(1.0,), eval_upper=(7.0,))
        with pytest.raises(DomainError):
            default_spec("identity", eval_upper=(4.0,))

    def test_rejects_bad_scalars(self):
        with pytest.raises(DomainError):
            default_spec("identity", K=0)
        with pytest.raises(DomainError):
            default_spec("identity", sigma=-0.1)
        with pytest.raises(DomainError):
            default_spec("identity", n_seeds=0)

    @pytest.mark.parametrize("sigma", [True, math.inf, math.nan])
    def test_rejects_boolean_and_non_finite_sigma(self, sigma):
        with pytest.raises(DomainError, match="sigma"):
            default_spec("identity", sigma=sigma)

    def test_rejects_boolean_window_bounds(self):
        with pytest.raises(DomainError, match="fit_upper"):
            default_spec("identity", fit_lower=(0.0,), fit_upper=(True,))

    @pytest.mark.parametrize("field", ["K", "m_max", "n_seeds"])
    def test_rejects_boolean_counts(self, field):
        with pytest.raises(DomainError):
            dataclasses.replace(default_spec("identity"), **{field: True})

    @pytest.mark.parametrize("field, minimum", [("n_starts", 1), ("max_iters", 1)])
    def test_checks_optional_counts(self, field, minimum):
        spec = default_spec("identity")
        for bad in (True, 2.5, minimum - 1, "3", None):
            with pytest.raises(DomainError, match=field):
                dataclasses.replace(spec, **{field: bad})
        assert getattr(dataclasses.replace(spec, **{field: float(minimum)}), field) == minimum

    def test_counts_default_to_fit_config(self):
        spec = default_spec("exp2d")
        assert (spec.n_starts, spec.max_iters) == (FitConfig().n_starts, FitConfig().max_iters)
        fn = get_test_function("exp2d")
        assert (fn.n_starts, fn.max_iters) == (20, 500)

    def test_rejects_non_finite_x0(self):
        for bad in ((math.nan,), (math.inf,), (-math.inf,)):
            with pytest.raises(DomainError, match="x0 must be finite"):
                dataclasses.replace(default_spec("identity"), x0=bad)

    def test_x0_is_required(self):
        with pytest.raises(DomainError, match="x0"):
            dataclasses.replace(default_spec("identity"), x0=None)
        with pytest.raises(TypeError, match="x0"):
            ExperimentSpec("identity", 30, 0.0, 1, (0.0,), (1.0,), (0.0,), (1.0,))

    @pytest.mark.parametrize(
        "doc",
        [
            {"function": "cubic", "K": 500, "x0": [0.001]},
            {"function": "cubic", "K": 25, "x0": [0.5], "n_seeds": 2},
            {"function": "cubic", "x0": [0.0], "eval_window": {"lower": [-1.0], "upper": [4.0]}},
            {"function": "exp2d", "x0": [-0.05, 0.2]},
        ],
        ids=["above-fit-edge", "inside-fit-window", "inside-eval-window", "one-coordinate"],
    )
    def test_rejects_x0_inside_the_windows(self, doc):
        # A sample or an evaluation grid point at or below x0 would fail the fit
        # or the distance of some seed; the spec is refused before any fit.
        with pytest.raises(DomainError, match="x0"):
            spec_from_dict(doc)

    def test_no_grid_points_field(self):
        names = [f.name for f in dataclasses.fields(ExperimentSpec)]
        assert "grid_points" not in names
        assert len(names) == 13

    def test_rejects_wrong_window_length(self):
        with pytest.raises(DomainError):
            default_spec("exp2d", fit_lower=(0.0,))

    def test_dict_round_trip(self):
        spec = default_spec("trig_mix", K=100, seed=9)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_dict_defaults_fall_back_to_registry(self):
        doc = spec_to_dict(default_spec("cubic"))
        for key in ("n_starts", "max_iters", "x0"):
            doc.pop(key, None)
        spec = spec_from_dict(doc)
        assert spec.n_starts == 20
        assert spec.max_iters == 40
        assert spec.x0 == (0.0,)

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"n_seed": 1}, "'n_seed'"),
            ({"n_starts": None}, "'n_starts'"),
            ({"fit_window": None}, "'fit_window'"),
            ({"fit_window": {}}, "'fit_window'"),
            ({"eval_window": []}, "'eval_window'"),
            ({"eval_window": {"lower": [0.0], "upper": [7.0], "step": 1}}, "'step'"),
        ],
    )
    def test_dict_rejects_unknown_keys_nulls_and_bad_windows(self, change, named):
        doc = {**spec_to_dict(default_spec("cubic", K=25)), **change}
        with pytest.raises(DataError, match=named):
            spec_from_dict(doc)


class TestShippedSpecs:
    @pytest.mark.parametrize(
        "name", ["identity", "cubic", "trig_mix", "exp2d", "polyexp2d"]
    )
    def test_function_files_match_defaults(self, name):
        specs = load_experiment_specs(os.path.join(SPEC_DIR, f"{name}.json"))
        fn = get_test_function(name)
        assert [s.K for s in specs] == list(fn.k_values)
        for spec, K in zip(specs, fn.k_values):
            assert spec == default_spec(name, K=K)

    def test_study_file_covers_all_functions_and_sizes(self):
        specs = load_experiment_specs(os.path.join(SPEC_DIR, "study.json"))
        want = {
            (fn.id, K) for fn in REGISTRY.values() for K in fn.k_values
        }
        assert {(s.function, s.K) for s in specs} == want

    @pytest.mark.parametrize(
        "name", ["identity", "cubic", "trig_mix", "exp2d", "polyexp2d", "study"]
    )
    def test_files_are_what_spec_to_dict_writes(self, name):
        functions = list(REGISTRY.values()) if name == "study" else [REGISTRY[name]]
        want = [spec_to_dict(default_spec(fn.id, K=K)) for fn in functions for K in fn.k_values]
        with open(os.path.join(SPEC_DIR, f"{name}.json"), encoding="utf-8") as fh:
            assert json.load(fh) == want

    def test_single_object_file_loads(self, tmp_path):
        path = os.path.join(tmp_path, "one.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec_to_dict(default_spec("identity")), fh)
        specs = load_experiment_specs(path)
        assert len(specs) == 1
        assert specs[0] == default_spec("identity")


class TestRunExperiment:
    def run_tiny(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderdeterminedWarning)
            return run_experiment(tiny_spec())

    def test_report_shape_and_medians(self):
        report = self.run_tiny()
        assert len(report.per_seed) == 2
        assert report.n_failed == 0
        for rec in report.per_seed:
            assert rec.error is None
            assert rec.chosen_m in (1, 2)
            assert rec.rss >= 0.0
            assert rec.d_sq >= 0.0
            assert rec.d_l1 >= 0.0
        for key in ("chosen_m", "rss", "sigma2_hat", "d_sq", "d_l1"):
            assert math.isfinite(report.medians[key])

    def test_deterministic_apart_from_timing(self):
        r1, r2 = self.run_tiny(), self.run_tiny()
        for a, b in zip(r1.per_seed, r2.per_seed):
            assert (a.chosen_m, a.rss, a.sigma2_hat, a.d_sq, a.d_l1) == (
                b.chosen_m,
                b.rss,
                b.sigma2_hat,
                b.d_sq,
                b.d_l1,
            )
        assert report_to_csv(r1) == report_to_csv(r2)
        assert report_to_json(r1) == report_to_json(r2)

    def test_noiseless_identity_picks_one_component_every_seed(self):
        spec = tiny_spec(sigma=0.0, K=60, n_starts=4, max_iters=400)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderdeterminedWarning)
            report = run_experiment(spec)
        assert all(rec.chosen_m == 1 for rec in report.per_seed)

    def test_csv_report_layout(self):
        report = self.run_tiny()
        lines = report_to_csv(report).strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "seed"
        assert "chosen_m" in header and "d_sq" in header and "d_l1" in header
        assert "wall_time_s" not in header
        assert lines[-1].startswith("median")
        assert len(lines) == 1 + len(report.per_seed) + 1

    def test_json_report_parses(self):
        report = self.run_tiny()
        doc = json.loads(report_to_json(report))
        assert doc["spec"]["function"] == "identity"
        assert len(doc["per_seed"]) == 2
        assert "d_sq" in doc["medians"]

    def test_write_report(self, tmp_path):
        report = self.run_tiny()
        csv_path = os.path.join(tmp_path, "r.csv")
        json_path = os.path.join(tmp_path, "r.json")
        write_report(report, csv_path, json_path)
        with open(csv_path, encoding="utf-8") as fh:
            assert fh.read() == report_to_csv(report)
        with open(json_path, encoding="utf-8") as fh:
            json.load(fh)

    def test_grid_points_default(self):
        assert DEFAULT_GRID_POINTS == {1: 1000, 2: 200}


# The spec block of every report_to_json text built from hand_report().
_HAND_SPEC_JSON = """\
  "spec": {
    "function": "identity",
    "K": 30,
    "sigma": 1e-05,
    "m_max": 15,
    "fit_window": {
      "lower": [
        0.0
      ],
      "upper": [
        5.0
      ]
    },
    "eval_window": {
      "lower": [
        0.0
      ],
      "upper": [
        7.0
      ]
    },
    "n_seeds": 2,
    "seed": 0,
    "x0": [
      0.0
    ],
    "n_starts": 4,
    "max_iters": 400
  },
"""


class TestReportFormat:
    """Exact report text of a hand-built report: one fitted and one failed seed."""

    @staticmethod
    def hand_report() -> ExperimentReport:
        ok = SeedRecord(0, 1, 0.25, 0.125, 1e-06, 0.001, wall_time_s=1.5)
        failed = SeedRecord(
            1, None, None, None, None, None, wall_time_s=0.75,
            error="FitFailure: no start converged, M=1",
        )
        medians = {
            "chosen_m": 1.0, "rss": 0.25, "sigma2_hat": 0.125,
            "d_sq": 1e-06, "d_l1": 0.001, "wall_time_s": 1.125,
        }
        spec = default_spec("identity", K=30, n_seeds=2)
        return ExperimentReport(spec=spec, per_seed=(ok, failed), medians=medians)

    def test_csv_without_timing(self):
        assert report_to_csv(self.hand_report()) == (
            "seed,chosen_m,rss,sigma2_hat,d_sq,d_l1,error\n"
            "0,1,0.25,0.125,1e-06,0.001,\n"
            "1,,,,,,FitFailure: no start converged; M=1\n"
            "median,1.0,0.25,0.125,1e-06,0.001,\n"
        )

    def test_json_without_timing(self):
        assert report_to_json(self.hand_report()) == "{\n" + _HAND_SPEC_JSON + """\
  "per_seed": [
    {
      "seed_index": 0,
      "chosen_m": 1,
      "rss": 0.25,
      "sigma2_hat": 0.125,
      "d_sq": 1e-06,
      "d_l1": 0.001,
      "error": null
    },
    {
      "seed_index": 1,
      "chosen_m": null,
      "rss": null,
      "sigma2_hat": null,
      "d_sq": null,
      "d_l1": null,
      "error": "FitFailure: no start converged, M=1"
    }
  ],
  "medians": {
    "chosen_m": 1.0,
    "rss": 0.25,
    "sigma2_hat": 0.125,
    "d_sq": 1e-06,
    "d_l1": 0.001
  }
}
"""
