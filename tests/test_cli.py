"""Command-line surface: ingestion, subcommands, exit codes, determinism."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from stochtaylor import (
    ComponentParams,
    DataError,
    RngStream,
    SteModel,
    UnderdeterminedWarning,
    evaluate,
    load_model,
    predict_grid,
    sample_pattern,
    save_model,
)
from stochtaylor import cli
from stochtaylor.bench import default_spec, spec_to_dict
from stochtaylor.cli import ingest, main

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "stochtaylor", "data")
IDENTITY_SAMPLE = os.path.join(DATA_DIR, "identity_sample.csv")
TWO_INDEX = os.path.join(DATA_DIR, "two_index.csv")


def run_cli(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedWarning)
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    body = np.asarray([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, body


@pytest.fixture()
def power_csv(tmp_path):
    path = os.path.join(tmp_path, "power.csv")
    x = np.linspace(0.2, 3.0, 40)
    write_csv(path, ["x_1", "y"], np.stack([x, 2.0 * x**1.5], axis=1))
    return path


@pytest.fixture()
def toy_model_file(tmp_path):
    comp = ComponentParams(1.0, 0.2, (1.0,), (0.1,), (0.3,))
    model = SteModel(d=1, components=(comp,), x0=(0.0,))
    path = os.path.join(tmp_path, "toy.json")
    save_model(model, path)
    return path, model


class TestIngest:
    def test_plain_ingestion(self, power_csv):
        data = ingest(power_csv)
        assert data.K == 40 and data.d == 1
        assert data.y[0] == pytest.approx(2.0 * 0.2**1.5)

    def test_rescale_divides_columns_exactly(self, tmp_path):
        path = os.path.join(tmp_path, "raw.csv")
        write_csv(path, ["x_1", "y"], [[6000.0, 12000.0], [12000.0, 18000.0]])
        data = ingest(path, rescale=(6000.0, 6000.0))
        assert np.array_equal(data.X[:, 0], [1.0, 2.0])
        assert np.array_equal(data.y, [2.0, 3.0])

    def test_rejects_wrong_factor_count(self, power_csv):
        from stochtaylor import DataError

        with pytest.raises(DataError):
            ingest(power_csv, rescale=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("factors", [(math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0)])
    def test_rejects_non_finite_or_non_positive_factor(self, power_csv, factors):
        with pytest.raises(DataError, match="power.csv"):
            ingest(power_csv, rescale=factors)

    def test_names_offending_row(self, tmp_path):
        from stochtaylor import DataError

        path = os.path.join(tmp_path, "bad.csv")
        rows = [[float(i), float(i)] for i in range(1, 6)]
        lines = ["x_1,y"] + [f"{a},{b}" for a, b in rows] + ["oops,3.0"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="row 7"):
            ingest(path)

    def test_rejects_empty_file(self, tmp_path):
        from stochtaylor import DataError

        path = os.path.join(tmp_path, "empty.csv")
        open(path, "w", encoding="utf-8").close()
        with pytest.raises(DataError, match="empty"):
            ingest(path)


class TestFitCommand:
    def test_fit_writes_model_and_rss_table(self, capsys, tmp_path, power_csv):
        out = os.path.join(tmp_path, "model.json")
        code, stdout, _ = run_cli(
            capsys,
            "fit", "--input", power_csv, "--m-max", "2",
            "--starts", "4", "--seed", "0", "--x0", "0.0", "--out", out,
        )
        assert code == 0
        assert "chosen_m=" in stdout and out in stdout
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["fit"]["chosen_m"] == 1
        assert set(doc["fit"]["per_m_rss"]) == {"1", "2"}
        # RSS_1 is below the tie floor: M=2 is skipped, and listed as such
        assert doc["fit"]["per_m_rss"]["2"] is None
        assert doc["fit"]["skipped"] == [2]
        model = load_model(out)
        assert model.d == 1

    def test_shipped_identity_sample_selects_one_component(self, capsys, tmp_path):
        # the reference identity fit expands around the origin; the automatic
        # data-driven offset lands below zero, where y = x is no longer a
        # single power and two components are the honest selection
        out = os.path.join(tmp_path, "identity.json")
        code, stdout, _ = run_cli(
            capsys,
            "fit", "--input", IDENTITY_SAMPLE, "--m-max", "15",
            "--starts", "4", "--seed", "0", "--x0", "0.0", "--out", out,
        )
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["fit"]["chosen_m"] == 1
        assert "chosen_m=1" in stdout

    def test_explicit_origin_flag(self, capsys, tmp_path, power_csv):
        out = os.path.join(tmp_path, "model.json")
        code, _, _ = run_cli(
            capsys,
            "fit", "--input", power_csv, "--m-max", "1",
            "--starts", "2", "--x0", "0.0", "--out", out,
        )
        assert code == 0
        assert load_model(out).x0 == (0.0,)

    def test_negative_origin_takes_the_equals_form(self, capsys, tmp_path):
        # a separate "-0.05,..." would be read as a flag
        out = os.path.join(tmp_path, "model.json")
        code, _, _ = run_cli(
            capsys,
            "fit", "--input", TWO_INDEX, "--m-max", "1",
            "--starts", "2", "--x0=-0.05,-0.05", "--out", out,
        )
        assert code == 0
        assert load_model(out).x0 == (-0.05, -0.05)

    def test_origin_offset_is_not_a_flag(self, capsys, tmp_path, power_csv):
        out = os.path.join(tmp_path, "model.json")
        code, _, err = run_cli(
            capsys,
            "fit", "--input", power_csv, "--m-max", "1", "--delta-frac", "0.1", "--out", out,
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"
        assert not os.path.exists(out)


class TestPredictCommand:
    def fit_power(self, capsys, tmp_path, power_csv):
        out = os.path.join(tmp_path, "model.json")
        code, _, _ = run_cli(
            capsys,
            "fit", "--input", power_csv, "--m-max", "1",
            "--starts", "4", "--seed", "0", "--out", out,
        )
        assert code == 0
        return out

    def test_round_trip_matches_in_memory_evaluation(self, capsys, tmp_path, power_csv):
        model_path = self.fit_power(capsys, tmp_path, power_csv)
        out = os.path.join(tmp_path, "pred.csv")
        code, _, _ = run_cli(
            capsys, "predict", "--model", model_path, "--points", power_csv, "--out", out
        )
        assert code == 0
        header, body = read_rows(out)
        assert header == ["x_1", "value"]
        model = load_model(model_path)
        want = predict_grid(model, body[:, :1])
        assert np.array_equal(body[:, 1], want)

    def test_unit_offset_prediction_sums_coefficient_means(self, capsys, tmp_path, power_csv):
        model_path = self.fit_power(capsys, tmp_path, power_csv)
        model = load_model(model_path)
        points = os.path.join(tmp_path, "pts.csv")
        write_csv(points, ["x_1"], [[model.x0[0] + 1.0]])
        out = os.path.join(tmp_path, "pred.csv")
        code, _, _ = run_cli(
            capsys, "predict", "--model", model_path, "--points", points, "--out", out
        )
        assert code == 0
        _, body = read_rows(out)
        want = sum(c.mu_a for c in model.components)
        assert body[0, 1] == pytest.approx(want, rel=1e-12)

    def test_grid_flag(self, capsys, tmp_path, toy_model_file):
        model_path, model = toy_model_file
        out = os.path.join(tmp_path, "pred.csv")
        code, _, _ = run_cli(
            capsys, "predict", "--model", model_path, "--grid", "0.5:2.5:5", "--out", out
        )
        assert code == 0
        _, body = read_rows(out)
        assert body.shape == (5, 2)
        assert np.array_equal(body[:, 0], np.linspace(0.5, 2.5, 5))
        assert body[0, 1] == evaluate(model, (0.5,))

    def test_negative_grid_takes_the_equals_form(self, capsys, tmp_path):
        comp = ComponentParams(1.0, 0.2, (1.0,), (0.1,), (0.3,))
        model = SteModel(d=1, components=(comp,), x0=(-2.0,))
        model_path = os.path.join(tmp_path, "shifted.json")
        save_model(model, model_path)
        out = os.path.join(tmp_path, "pred.csv")
        code, _, _ = run_cli(
            capsys, "predict", "--model", model_path, "--grid=-1.5:1:6", "--out", out
        )
        assert code == 0
        _, body = read_rows(out)
        assert np.array_equal(body[:, 0], np.linspace(-1.5, 1.0, 6))
        assert np.array_equal(body[:, 1], predict_grid(model, body[:, :1]))

    def test_rescaling_coherence(self, capsys, tmp_path, power_csv):
        # fitting rescaled data must predict in original units: equal to
        # manually scaling the data, fitting, and multiplying by c_y
        c_x, c_y = 2.0, 3.0
        scaled_csv = os.path.join(tmp_path, "scaled.csv")
        _, raw = read_rows(power_csv)
        write_csv(scaled_csv, ["x_1", "y"], np.stack([raw[:, 0] / c_x, raw[:, 1] / c_y], axis=1))

        model_r = os.path.join(tmp_path, "rescaled.json")
        code, _, _ = run_cli(
            capsys,
            "fit", "--input", power_csv, "--m-max", "1", "--starts", "4",
            "--seed", "0", "--rescale", f"{c_x},{c_y}", "--out", model_r,
        )
        assert code == 0
        model_s = os.path.join(tmp_path, "scaled.json")
        code, _, _ = run_cli(
            capsys,
            "fit", "--input", scaled_csv, "--m-max", "1", "--starts", "4",
            "--seed", "0", "--out", model_s,
        )
        assert code == 0

        pts = os.path.join(tmp_path, "pts.csv")
        write_csv(pts, ["x_1"], [[0.5], [1.0], [2.0]])
        pts_scaled = os.path.join(tmp_path, "pts_scaled.csv")
        write_csv(pts_scaled, ["x_1"], [[0.5 / c_x], [1.0 / c_x], [2.0 / c_x]])

        out_r = os.path.join(tmp_path, "pred_r.csv")
        out_s = os.path.join(tmp_path, "pred_s.csv")
        assert run_cli(capsys, "predict", "--model", model_r, "--points", pts, "--out", out_r)[0] == 0
        assert run_cli(capsys, "predict", "--model", model_s, "--points", pts_scaled, "--out", out_s)[0] == 0
        _, body_r = read_rows(out_r)
        _, body_s = read_rows(out_s)
        assert body_r[:, 1] == pytest.approx(c_y * body_s[:, 1], rel=1e-10)


class TestEnvelopeCommand:
    def test_writes_ordered_band(self, capsys, tmp_path, toy_model_file):
        model_path, _ = toy_model_file
        out = os.path.join(tmp_path, "env.csv")
        code, _, _ = run_cli(
            capsys,
            "envelope", "--model", model_path, "--grid", "0.5:3.0:12",
            "--n-real", "300", "--alpha", "0.05", "--seed", "1", "--out", out,
        )
        assert code == 0
        header, body = read_rows(out)
        assert header == ["x_1", "lower", "mean", "upper"]
        assert body.shape == (12, 4)
        assert np.all(body[:, 1] <= body[:, 2])
        assert np.all(body[:, 2] <= body[:, 3])

    def test_deterministic_bytes(self, capsys, tmp_path, toy_model_file):
        model_path, _ = toy_model_file
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = os.path.join(tmp_path, name)
            code, _, _ = run_cli(
                capsys,
                "envelope", "--model", model_path, "--grid", "0.5:3.0:8",
                "--n-real", "200", "--seed", "7", "--out", out,
            )
            assert code == 0
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]


class TestSimulateCommand:
    def test_pattern_dump_layout(self, capsys, tmp_path, toy_model_file):
        model_path, _ = toy_model_file
        out = os.path.join(tmp_path, "sim.csv")
        code, _, _ = run_cli(
            capsys, "simulate", "--model", model_path, "--n", "5", "--seed", "3", "--out", out
        )
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "pattern,event,a,n_1"
        indices = {int(line.split(",")[0]) for line in lines[1:]}
        assert indices <= set(range(5))

    def test_deterministic_bytes(self, capsys, tmp_path, toy_model_file):
        model_path, _ = toy_model_file
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = os.path.join(tmp_path, name)
            code, _, _ = run_cli(
                capsys, "simulate", "--model", model_path, "--n", "10", "--seed", "5", "--out", out
            )
            assert code == 0
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("d", [1, 2])
    def test_exact_bytes(self, capsys, tmp_path, d):
        # Rows are pattern index, event index, then repr of a and each power.
        comps = tuple(
            ComponentParams(mu_a, 0.3, (0.5 + mu_a,) * d, (0.2,) * d, (0.4,) * d)
            for mu_a in (1.0, -0.5)[:d]
        )
        model = SteModel(d=d, components=comps, x0=(0.0,) * d)
        model_path = os.path.join(tmp_path, "m.json")
        save_model(model, model_path)
        out = os.path.join(tmp_path, "sim.csv")
        code, _, _ = run_cli(
            capsys, "simulate", "--model", model_path, "--n", "20", "--seed", "7", "--out", out
        )
        assert code == 0
        lines = [",".join(["pattern", "event", "a"] + [f"n_{r + 1}" for r in range(d)])]
        counts = []
        for i in range(20):
            pattern = sample_pattern(model, RngStream(7, i))
            counts.append(pattern.count)
            for j, event in enumerate(pattern.events):
                lines.append(",".join([str(i), str(j)] + [repr(float(v)) for v in event]))
        assert 0 in counts and max(counts) >= 2
        with open(out, "rb") as fh:
            assert fh.read() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_rejects_nonpositive_n(self, capsys, tmp_path, toy_model_file):
        model_path, _ = toy_model_file
        out = os.path.join(tmp_path, "sim.csv")
        code, _, err = run_cli(
            capsys, "simulate", "--model", model_path, "--n", "0", "--out", out
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"


class TestDistanceCommand:
    def test_constant_difference(self, capsys, tmp_path):
        pred = os.path.join(tmp_path, "pred.csv")
        truth = os.path.join(tmp_path, "truth.csv")
        n = 11
        write_csv(pred, ["value"], [[2.0]] * n)
        write_csv(truth, ["value"], [[0.0]] * n)
        code, stdout, _ = run_cli(
            capsys, "distance", "--pred", pred, "--truth", truth, "--grid", f"0:3:{n}"
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["d_sq"] == pytest.approx(4.0 * 3.0, rel=1e-12)
        assert doc["d_l1"] == pytest.approx(2.0 * 3.0, rel=1e-12)

    def test_size_mismatch_is_a_data_error(self, capsys, tmp_path):
        pred = os.path.join(tmp_path, "pred.csv")
        truth = os.path.join(tmp_path, "truth.csv")
        write_csv(pred, ["value"], [[1.0]] * 5)
        write_csv(truth, ["value"], [[1.0]] * 5)
        code, _, err = run_cli(
            capsys, "distance", "--pred", pred, "--truth", truth, "--grid", "0:1:9"
        )
        assert code == 2
        assert json.loads(err)["error"] == "data"


class TestBenchCommand:
    def test_runs_spec_file_and_writes_reports(self, capsys, tmp_path):
        spec = default_spec("identity", K=30, n_seeds=2, m_max=2, n_starts=2, max_iters=20)
        spec_path = os.path.join(tmp_path, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump([spec_to_dict(spec)], fh)
        out_dir = os.path.join(tmp_path, "reports")
        code, stdout, stderr = run_cli(
            capsys, "bench", "--spec", spec_path, "--out", out_dir
        )
        assert code == 0
        assert "identity K=30" in stdout
        assert "wall time" in stderr
        csv_path = os.path.join(out_dir, "identity_K30.csv")
        json_path = os.path.join(out_dir, "identity_K30.json")
        assert os.path.exists(csv_path) and os.path.exists(json_path)
        with open(csv_path, encoding="utf-8") as fh:
            assert "wall_time_s" not in fh.readline()

    def test_seed_override_and_determinism(self, capsys, tmp_path):
        spec = default_spec("identity", K=30, n_seeds=4, m_max=2, n_starts=2, max_iters=20)
        spec_path = os.path.join(tmp_path, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec_to_dict(spec), fh)
        blobs = []
        for name in ("r1", "r2"):
            out_dir = os.path.join(tmp_path, name)
            code, _, _ = run_cli(
                capsys, "bench", "--spec", spec_path, "--seeds", "2", "--out", out_dir
            )
            assert code == 0
            with open(os.path.join(out_dir, "identity_K30.csv"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]
        assert blobs[0].decode().count("\n") == 4  # header + 2 seeds + median


class TestErrorContract:
    def test_unknown_flag_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", "--bogus", "1")
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_missing_input_file_is_data_error(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "m.json")
        code, _, err = run_cli(
            capsys, "fit", "--input", os.path.join(tmp_path, "nope.csv"),
            "--m-max", "1", "--out", out,
        )
        assert code == 2
        assert json.loads(err)["error"] == "data"

    def test_non_numeric_cell_names_physical_row(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        lines = ["x_1,y"] + [f"{i}.0,{i}.0" for i in range(1, 6)] + ["oops,3.0"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = os.path.join(tmp_path, "m.json")
        code, _, err = run_cli(
            capsys, "fit", "--input", path, "--m-max", "1", "--out", out
        )
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "data"
        assert "row 7" in doc["message"]

    def test_malformed_grid_is_usage_error(self, capsys, tmp_path, toy_model_file):
        model_path, _ = toy_model_file
        out = os.path.join(tmp_path, "p.csv")
        code, _, err = run_cli(
            capsys, "predict", "--model", model_path, "--grid", "nonsense", "--out", out
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_non_finite_grid_is_usage_error(self, capsys, tmp_path, toy_model_file):
        model_path, _ = toy_model_file
        out = os.path.join(tmp_path, "p.csv")
        code, _, err = run_cli(
            capsys, "predict", "--model", model_path, "--grid", "nan:1:5", "--out", out
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_wrong_rescale_count_is_data_error(self, capsys, tmp_path, power_csv):
        out = os.path.join(tmp_path, "m.json")
        code, _, err = run_cli(
            capsys, "fit", "--input", power_csv, "--m-max", "1", "--rescale", "1,2,3",
            "--out", out,
        )
        assert code == 2
        assert json.loads(err)["error"] == "data"
        assert not os.path.exists(out)

    def test_infinite_rescale_is_data_error(self, capsys, tmp_path, power_csv):
        out = os.path.join(tmp_path, "m.json")
        code, _, err = run_cli(
            capsys, "fit", "--input", power_csv, "--m-max", "1", "--rescale", "inf,1",
            "--out", out,
        )
        assert code == 2
        assert json.loads(err)["error"] == "data"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("reader", ["fit-input", "predict-model", "bench-spec", "distance-pred"])
    def test_non_utf8_file_is_data_error(self, capsys, tmp_path, reader):
        bad = os.path.join(tmp_path, "bad.txt")
        with open(bad, "wb") as fh:
            fh.write(b"\xff\xfex_1,y\n1.0,2.0\n")
        out = os.path.join(tmp_path, "out")
        argv = {
            "fit-input": ["fit", "--input", bad, "--m-max", "1", "--out", out],
            "predict-model": ["predict", "--model", bad, "--grid", "0.5:1:3", "--out", out],
            "bench-spec": ["bench", "--spec", bad, "--out", out],
            "distance-pred": ["distance", "--pred", bad, "--truth", bad, "--grid", "0:1:2"],
        }[reader]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "data"
        assert bad in error["message"]
        assert not os.path.exists(out)

    def test_overflowing_prediction_is_numeric_error(self, capsys, tmp_path):
        comp = ComponentParams(1.0, 0.0, (60.0,), (0.0,), (0.0,))
        model = SteModel(d=1, components=(comp,), x0=(0.0,))
        model_path = os.path.join(tmp_path, "steep.json")
        save_model(model, model_path)
        pts = os.path.join(tmp_path, "pts.csv")
        write_csv(pts, ["x_1"], [[1e6]])
        out = os.path.join(tmp_path, "p.csv")
        code, _, err = run_cli(
            capsys, "predict", "--model", model_path, "--points", pts, "--out", out
        )
        assert code == 3
        assert json.loads(err)["error"] == "numeric"

    def test_corrupt_model_file_is_data_error(self, capsys, tmp_path):
        model_path = os.path.join(tmp_path, "broken.json")
        with open(model_path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        out = os.path.join(tmp_path, "p.csv")
        code, _, err = run_cli(
            capsys, "predict", "--model", model_path, "--grid", "0.5:1:3", "--out", out
        )
        assert code == 2
        assert json.loads(err)["error"] == "data"

    @pytest.mark.parametrize(
        "change",
        [
            {"K": "abc"},
            {"fit_window": {"upper": [2.0]}},
            {"x0": 5},
            {"K": 25.9},
            {"m_max": True},
            {"seed": 2.5},
            {"grid_points": 1},
            {"K": None},
            {"sigma": None},
            {"sigma": True},
            {"sigmaa": 9},
            {"n_starts": None},
            {"x0": None},
            {"fit_window": None},
            {"fit_window": {}},
            {"eval_window": {"lower": [0.0], "upper": [7.0], "step": 1}},
            {"x0": [0.001]},
            {"x0": [0.5]},
            {"x0": [0.0], "eval_window": {"lower": [-1.0], "upper": [7.0]}},
        ],
        ids=[
            "K-not-a-number",
            "fit-window-without-lower",
            "x0-not-a-list",
            "K-not-integral",
            "m_max-boolean",
            "seed-not-integral",
            "unknown-key-grid_points",
            "K-null",
            "sigma-null",
            "sigma-boolean",
            "unknown-key-sigmaa",
            "n_starts-null",
            "x0-null",
            "fit-window-null",
            "fit-window-empty",
            "eval-window-extra-key",
            "x0-above-fit-window-edge",
            "x0-inside-fit-window",
            "x0-inside-eval-window",
        ],
    )
    def test_malformed_spec_is_data_error(self, capsys, tmp_path, change):
        doc = {**spec_to_dict(default_spec("identity", K=25)), **change}
        spec_path = os.path.join(tmp_path, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp_path, "reports")
        code, _, err = run_cli(capsys, "bench", "--spec", spec_path, "--out", out)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "data"
        assert all(key in error["message"] for key in change)

    @pytest.mark.parametrize(
        "change",
        [
            {"mu_n": 1.0},
            {"components": 5},
            {"d": "x"},
            {"d": True},
            {"d": 1.5},
            {"rescale": "23"},
            {"x0": "0"},
        ],
        ids=[
            "mu_n-not-a-list",
            "components-not-a-list",
            "d-not-a-number",
            "d-boolean",
            "d-not-integral",
            "rescale-a-string",
            "x0-a-string",
        ],
    )
    def test_malformed_model_is_data_error(self, capsys, tmp_path, toy_model_file, change):
        model_path, _ = toy_model_file
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if "mu_n" in change:
            doc["components"][0].update(change)
        else:
            doc.update(change)
        with open(model_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp_path, "p.csv")
        code, _, err = run_cli(
            capsys, "predict", "--model", model_path, "--grid", "0.5:1:3", "--out", out
        )
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "data"


class TestParserReuse:
    def test_calls_on_one_parser_match_calls_on_fresh_ones(
        self, capsys, tmp_path, toy_model_file, power_csv
    ):
        # main builds its parser once per process. A usage error, three
        # commands and a data error, made one after another on that parser,
        # give the exit codes, output, stderr lines and file bytes of the same
        # calls each made on a freshly built parser.
        model_path, _ = toy_model_file
        names = ("nope.json", "p.csv", "e.csv", "m.json", "q.csv")
        missing, p_csv, e_csv, m_json, q_csv = (os.path.join(tmp_path, n) for n in names)
        calls = [
            ("fit", "--bogus", "1"),
            ("predict", "--model", model_path, "--grid", "0.5:2:40", "--out", p_csv),
            (
                "envelope", "--model", model_path, "--grid", "0.5:2:9",
                "--n-real", "300", "--seed", "4", "--out", e_csv,
            ),
            ("fit", "--input", power_csv, "--m-max", "1", "--rescale", "2,3", "--out", m_json),
            ("predict", "--model", missing, "--grid", "0.5:2:4", "--out", q_csv),
        ]

        def run_all(fresh):
            results = []
            for argv in calls:
                if fresh:
                    cli._build_parser.cache_clear()
                code, stdout, err = run_cli(capsys, *argv)
                path = argv[argv.index("--out") + 1] if "--out" in argv else None
                data = None
                if path is not None and os.path.exists(path):
                    with open(path, "rb") as fh:
                        data = fh.read()
                    os.remove(path)
                results.append((code, stdout, err, data))
            return results

        shared = run_all(fresh=False)
        assert cli._build_parser() is cli._build_parser()
        assert [r[0] for r in shared] == [1, 0, 0, 0, 2]
        assert [json.loads(r[2])["error"] for r in shared if r[0]] == ["usage", "data"]
        assert all(r[3] for r in shared[1:4])
        assert run_all(fresh=True) == shared
