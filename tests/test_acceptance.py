"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Each test prints its verdict with the measured values and elapsed time
straight to the terminal (bypassing capture) before asserting, so a full
run always shows eleven lines. Stochastic checks are seeded and therefore
deterministic per build.
"""

import json
import math
import os
import sys
import time
import warnings

import numpy as np
import pytest

from stochtaylor import (
    Dataset,
    FitConfig,
    RngStream,
    UnderdeterminedWarning,
    centered_power_moment,
    envelope,
    evaluate,
    fit_fixed_m,
    from_taylor_polynomial,
    mc_values,
    objective_gradient,
    objective_value,
    power_moment,
    predict_grid,
    select_model,
)
from stochtaylor.bench import default_spec, get_test_function, make_dataset, run_experiment, spec_to_dict
from stochtaylor.cli import main as cli_main
from stochtaylor.fit import params_width

from conftest import random_intensity

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "stochtaylor", "data")

_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _stash_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(name: str, ok: bool, detail: str, elapsed: float, bound: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {name}: {verdict} - {detail} [{elapsed:.1f}s / {bound:.0f}s]"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print("\n" + line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def medians(function_id: str, K: int) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedWarning)
        rep = run_experiment(default_spec(function_id, K=K))
    assert rep.n_failed == 0
    return rep.medians


def test_criterion_01_moment_oracles():
    t0 = time.perf_counter()
    gen = RngStream(101, 0).generator()
    worst = 0.0
    for _ in range(20):
        delta = float(gen.uniform(0.2, 3.0))
        mu = float(gen.uniform(-2.0, 2.0))
        sigma = float(gen.uniform(0.05, 1.2))
        n = mu + sigma * gen.standard_normal(10**6)
        powers = delta**n
        for draws, value in (
            (powers, power_moment(delta, mu, sigma)),
            ((n - mu) * powers, centered_power_moment(delta, mu, sigma)),
        ):
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            worst = max(worst, abs(value - draws.mean()) / se)
    elapsed = time.perf_counter() - t0
    ok = worst <= 3.0 and elapsed < 10.0
    report("1 moment oracles", ok, f"worst |z| = {worst:.2f} (need <= 3)", elapsed, 10)
    assert worst <= 3.0
    assert elapsed < 10.0


def test_criterion_02_campbell_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(10):
        g = random_intensity(200 + k, 1 + k % 2, 1 + k % 3)
        pts = RngStream(300 + k, 0).generator().uniform(0.4, 2.5, (3, g.d))
        values = mc_values(g, pts, 10**5, RngStream(5000 + k, 0))
        for j in range(3):
            mean = float(values[:, j].mean())
            se = float(values[:, j].std(ddof=1) / math.sqrt(values.shape[0]))
            z = abs(mean - evaluate(g, pts[j])) / se
            worst = max(worst, z)
    elapsed = time.perf_counter() - t0
    ok = worst <= 4.0 and elapsed < 60.0
    report("2 campbell consistency", ok, f"worst |z| = {worst:.2f} (need <= 4)", elapsed, 60)
    assert worst <= 4.0
    assert elapsed < 60.0


def test_criterion_03_taylor_reduction():
    t0 = time.perf_counter()
    gen = RngStream(103, 0).generator()
    worst = 0.0
    for _ in range(10):
        order = int(gen.integers(1, 9))
        coeffs = gen.uniform(-3.0, 3.0, order)
        x0 = float(gen.uniform(-1.0, 1.0))
        model = from_taylor_polynomial(coeffs, x0)
        xs = x0 + np.linspace(0.05, 2.5, 100)
        want = np.polynomial.polynomial.polyval(xs - x0, coeffs)
        got = predict_grid(model, xs[:, None])
        scale = max(1.0, float(np.abs(want).max()))
        worst = max(worst, float(np.abs(got - want).max()) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report("3 taylor reduction", ok, f"worst rel error = {worst:.2e} (need <= 1e-10)", elapsed, 1)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_04_identity_recovery():
    t0 = time.perf_counter()
    med = medians("identity", 500)
    elapsed = time.perf_counter() - t0
    ok = med["chosen_m"] == 1.0 and med["d_sq"] <= 1e-4 and elapsed < 120.0
    report(
        "4 identity recovery",
        ok,
        f"median chosen_m = {med['chosen_m']:g} (need 1), median d_sq = {med['d_sq']:.3e} (need <= 1e-4)",
        elapsed,
        120,
    )
    assert med["chosen_m"] == 1.0
    assert med["d_sq"] <= 1e-4
    assert elapsed < 120.0


def test_criterion_05_cubic_recovery():
    t0 = time.perf_counter()
    med = {K: medians("cubic", K)["d_sq"] for K in (25, 100, 500)}
    elapsed = time.perf_counter() - t0
    ok = med[500] <= 1.0 and med[100] <= 5.0 and med[500] < med[25] and elapsed < 600.0
    report(
        "5 cubic recovery",
        ok,
        f"median d_sq K=25/100/500 = {med[25]:.3f}/{med[100]:.3f}/{med[500]:.3f} "
        "(need K500 <= 1, K100 <= 5, K500 < K25)",
        elapsed,
        600,
    )
    assert med[500] <= 1.0
    assert med[100] <= 5.0
    assert med[500] < med[25]
    assert elapsed < 600.0


def test_criterion_06_trig_mix_recovery():
    t0 = time.perf_counter()
    med = {K: medians("trig_mix", K)["d_sq"] for K in (25, 100, 500)}
    elapsed = time.perf_counter() - t0
    trend = med[100] <= 1.5 * med[25] and med[500] <= 1.5 * med[100]
    ok = med[500] <= 2.0 and trend and elapsed < 600.0
    report(
        "6 trig-mix recovery",
        ok,
        f"median d_sq K=25/100/500 = {med[25]:.3f}/{med[100]:.3f}/{med[500]:.3f} "
        "(need K500 <= 2, nonincreasing within 1.5x)",
        elapsed,
        600,
    )
    assert med[500] <= 2.0
    assert trend
    assert elapsed < 600.0


def test_criterion_07_multivariate_recovery():
    t0 = time.perf_counter()
    med = {fid: medians(fid, 500)["d_sq"] for fid in ("exp2d", "polyexp2d")}
    elapsed = time.perf_counter() - t0
    ok = all(v <= 0.5 for v in med.values()) and elapsed < 1800.0
    report(
        "7 multivariate recovery",
        ok,
        f"median d_sq exp2d = {med['exp2d']:.4f}, polyexp2d = {med['polyexp2d']:.4f} "
        "(need <= 0.5 each)",
        elapsed,
        1800,
    )
    assert med["exp2d"] <= 0.5
    assert med["polyexp2d"] <= 0.5
    assert elapsed < 1800.0


def test_criterion_08_envelope_sanity():
    t0 = time.perf_counter()
    fn = get_test_function("identity")
    data = make_dataset(fn, 500, 1e-5, RngStream(0, 0))
    result = fit_fixed_m(data, 1, FitConfig(n_starts=4, max_iters=400, seed=0), [0.0])
    grid = np.linspace(0.007, 7.0, 200)[:, None]
    curve = predict_grid(result.model, grid)
    env = envelope(result.model, grid, 10**4, 0.05, RngStream(77, 0))
    coverage = float(np.mean((env.lower <= curve) & (curve <= env.upper)))

    nested = True
    prev = None
    for alpha in (0.01, 0.05, 0.2, 0.5):
        band = envelope(result.model, grid, 2_000, alpha, RngStream(78, 0))
        if prev is not None:
            nested = nested and bool(
                np.all(band.lower >= prev.lower) and np.all(band.upper <= prev.upper)
            )
        prev = band
    elapsed = time.perf_counter() - t0
    ok = coverage >= 0.90 and nested and elapsed < 120.0
    report(
        "8 envelope sanity",
        ok,
        f"coverage = {coverage:.3f} (need >= 0.90), alpha-nesting exact = {nested}",
        elapsed,
        120,
    )
    assert coverage >= 0.90
    assert nested
    assert elapsed < 120.0


def test_criterion_09_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    step = 1e-6
    for case, (m, d) in enumerate(((2, 1), (1, 2))):
        gen = RngStream(109 + case, 0).generator()
        K = 40
        X = gen.uniform(0.4, 2.2, (K, d))
        data = Dataset(X, np.sin(2.0 * X[:, 0]))
        x0 = (0.0,) * d
        for _ in range(10):
            v = gen.uniform(-1.0, 1.0, m * params_width(d))
            grad = objective_gradient(v, m, data, x0)
            for j in range(v.size):
                vp, vm = v.copy(), v.copy()
                vp[j] += step
                vm[j] -= step
                fd = (
                    objective_value(vp, m, data, x0) - objective_value(vm, m, data, x0)
                ) / (2 * step)
                scale = max(abs(fd), abs(grad[j]), 1e-8)
                worst = max(worst, abs(grad[j] - fd) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    report("9 gradient check", ok, f"worst rel error = {worst:.2e} (need <= 1e-4)", elapsed, 10)
    assert worst <= 1e-4
    assert elapsed < 10.0


def run_all_commands(workdir: str, capsys) -> tuple[dict, str]:
    """One pass of every CLI command into workdir; returns file bytes + stdout."""
    os.makedirs(workdir, exist_ok=True)
    x = np.linspace(0.2, 3.0, 40)
    input_csv = os.path.join(workdir, "input.csv")
    lines = ["x_1,y"] + [f"{repr(float(a))},{repr(float(2.0 * a**1.5))}" for a in x]
    with open(input_csv, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    spec_path = os.path.join(workdir, "spec.json")
    spec = default_spec("identity", K=30, n_seeds=2, m_max=2, n_starts=2, max_iters=20)
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh)

    model = os.path.join(workdir, "model.json")
    pred = os.path.join(workdir, "pred.csv")
    env = os.path.join(workdir, "env.csv")
    sim = os.path.join(workdir, "sim.csv")
    bench_dir = os.path.join(workdir, "bench")
    commands = [
        ["fit", "--input", input_csv, "--m-max", "2", "--starts", "4", "--seed", "0",
         "--out", model],
        ["predict", "--model", model, "--grid", "0.5:2.8:25", "--out", pred],
        ["envelope", "--model", model, "--grid", "0.5:2.8:15", "--n-real", "500",
         "--alpha", "0.05", "--seed", "11", "--out", env],
        ["simulate", "--model", model, "--n", "20", "--seed", "12", "--out", sim],
        ["distance", "--pred", pred, "--truth", pred, "--grid", "0.5:2.8:25"],
        ["bench", "--spec", spec_path, "--seeds", "2", "--out", bench_dir],
    ]
    stdout_all = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedWarning)
        for argv in commands:
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{argv[0]} exited {code}: {captured.err}"
            stdout_all.append(captured.out)
    outputs = {}
    for path in (model, pred, env, sim,
                 os.path.join(bench_dir, "identity_K30.csv"),
                 os.path.join(bench_dir, "identity_K30.json")):
        with open(path, "rb") as fh:
            outputs[os.path.relpath(path, workdir)] = fh.read()
    return outputs, "".join(stdout_all)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    workdir = os.path.join(tmp_path, "run")
    files_a, stdout_a = run_all_commands(workdir, capsys)
    files_b, stdout_b = run_all_commands(workdir, capsys)
    elapsed = time.perf_counter() - t0
    same_files = files_a == files_b
    same_stdout = stdout_a == stdout_b
    ok = same_files and same_stdout and elapsed < 120.0
    report(
        "10 cli determinism",
        ok,
        f"byte-identical files = {same_files} ({len(files_a)} files), "
        f"identical stdout = {same_stdout}",
        elapsed,
        120,
    )
    assert same_files
    assert same_stdout
    assert elapsed < 120.0


def test_criterion_11_two_index_replay():
    t0 = time.perf_counter()
    rows = np.loadtxt(os.path.join(DATA_DIR, "two_index.csv"), delimiter=",", skiprows=1)
    t, y = rows[:, 0], rows[:, 2]
    X = rows[:, :2]
    t_split = t.min() + 0.875 * (t.max() - t.min())
    train = t <= t_split
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderdeterminedWarning)
        sel = select_model(Dataset(X=X[train], y=y[train]), 4, FitConfig(seed=0))
    model = sel.chosen.model
    rmse_in = float(np.sqrt(np.mean((predict_grid(model, X[train]) - y[train]) ** 2)))
    held_span = t.max() - t_split
    early = (t > t_split) & (t <= t_split + (2.0 / 3.0) * held_span)
    rmse_held = float(np.sqrt(np.mean((predict_grid(model, X[early]) - y[early]) ** 2)))
    elapsed = time.perf_counter() - t0
    ratio = rmse_held / rmse_in
    ok = rmse_held <= 2.0 * rmse_in and elapsed < 600.0
    report(
        "11 two-index replay",
        ok,
        f"held-out RMSE = {rmse_held:.5f} vs in-sample {rmse_in:.5f} "
        f"(ratio {ratio:.2f}, need <= 2)",
        elapsed,
        600,
    )
    assert rmse_held <= 2.0 * rmse_in
    assert elapsed < 600.0
