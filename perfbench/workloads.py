"""The benchmark's workloads: inputs made from the seed, requests, output checks.

Each workload is one request type that the client repeats:

* ``fit-noiseless`` and ``fit-noisy``: one CLI ``bench`` call over a spec
  file of canonical experiment specs (one fit is make_dataset ->
  select_model -> predict_grid on the evaluation grid -> distances).
* ``serve-cli``: one CLI ``predict`` call on a 200x200 grid of a d=2, M=8
  model, then one CLI ``envelope`` call, 10^4 realizations on 200 points of
  a d=1, M=8 model.
* ``serve-mc-mean``: one library ``mc_mean`` call, 10^5 realizations at one
  point of the same d=1, M=8 model.

``setup`` writes every input file into the run's work directory and returns
a digest of the generated inputs, so two set-ups from one seed can be
compared byte for byte. ``request`` is the timed call and nothing else.
``inspect`` reads what the request produced, returns a digest of the output
files and the output checks. Requests go through module attributes
(``st_cli.main``, ``st_sim.mc_mean``) so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

import stochtaylor.bench as st_bench
import stochtaylor.cli as st_cli
import stochtaylor.simulate as st_sim
from stochtaylor.model import (
    ComponentParams,
    GeneralIntensity,
    SteModel,
    evaluate,
    evaluate_general,
    load_model,
    save_model,
)
from stochtaylor.rng import RngStream

# Criteria 5 and 6 gate the median d_sq over the five datasets of master
# seed 0, so trig_mix and cubic always run on those datasets; their medians
# then mean what the criteria mean. Other master seeds are not what the
# criteria state: at master seed 4 the trig_mix K=500 median is 3.19 (> 2).
ACCEPTANCE_SEED = 0

# function -> (bound on median d_sq, required median chosen_m or None),
# from acceptance criteria 4-7.
FIT_GATES = {
    "identity": (1e-4, 1.0),
    "cubic": (1.0, None),
    "trig_mix": (2.0, None),
    "exp2d": (0.5, None),
    "polyexp2d": (0.5, None),
}

# Serve checks: predicted values against scalar evaluate, Monte Carlo mean
# against the closed form, and envelope coverage of the closed-form mean.
PREDICT_REL_TOL = 1e-9
MC_MEAN_MAX_Z = 4.0
ENVELOPE_MIN_COVERAGE = 0.9


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``SMOKE`` shrinks every one for the smoke test."""

    fit_K: int = 500
    fit_overrides: tuple[tuple[str, int], ...] = ()
    quality_seeds: int = 5
    grid_points: int = 200
    envelope_real: int = 10**4
    mc_real: int = 10**5
    predict_checks: int = 64


FULL = Sizes()
SMOKE = Sizes(
    fit_K=60,
    fit_overrides=(("m_max", 2), ("n_starts", 2), ("max_iters", 20)),
    quality_seeds=2,
    grid_points=20,
    envelope_real=300,
    mc_real=2000,
    predict_checks=8,
)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Inspection:
    """What one request produced: output digest, comparable summary, checks."""

    digest: str
    summary: dict
    checks: list
    gates_checked: int = 0
    gates_missed: int = 0


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = st_cli.main(argv)
    return code, sink.getvalue()


def _exit_check(code: int, log: str, command: str) -> Check:
    detail = f"exit {code}" + (f": {log.strip()[-300:]}" if code else "")
    return Check(f"{command}.exit_code", code == 0, detail)


def _random_model(seed: int, stream: int, d: int, m: int) -> SteModel:
    """Sampleable model with moderate moments (sum(rho^2) < 1 per component)."""
    gen = RngStream(seed, stream).generator()
    comps = []
    for _ in range(m):
        rho = gen.uniform(-1.0, 1.0, d)
        rho = rho / max(1.0, 1.05 * math.sqrt(float(rho @ rho)))
        comps.append(
            ComponentParams(
                mu_a=float(gen.uniform(-2.0, 2.0)),
                sigma_a=float(gen.uniform(0.0, 0.8)),
                mu_n=tuple(gen.uniform(-1.0, 1.5, d)),
                sigma_n=tuple(gen.uniform(0.0, 0.5, d)),
                rho=tuple(rho),
            )
        )
    return SteModel(d=d, components=tuple(comps), x0=(0.0,) * d)


def _grid_arg(lower, upper, n: int) -> str:
    return ",".join(f"{float(lo)!r}:{float(hi)!r}:{n}" for lo, hi in zip(lower, upper))


# ---------------------------------------------------------------------------
# Fit workloads: one CLI bench call over the workload's spec file.
# ---------------------------------------------------------------------------


class FitWorkload:
    def __init__(self, name: str, sizes: Sizes) -> None:
        self.name = name
        self.sizes = sizes

    def _spec_docs(self, seed: int) -> list[dict]:
        if self.name == "fit-noiseless":
            entries = [("identity", seed, 1)]
        else:
            quality = self.sizes.quality_seeds
            entries = [
                ("exp2d", seed, 1),
                ("polyexp2d", seed, 1),
                ("trig_mix", ACCEPTANCE_SEED, quality),
                ("cubic", ACCEPTANCE_SEED, quality),
            ]
        overrides = dict(self.sizes.fit_overrides)
        return [
            {"function": fn, "K": self.sizes.fit_K, "seed": s, "n_seeds": n, **overrides}
            for fn, s, n in entries
        ]

    def setup(self, seed: int, workdir: str) -> tuple[dict, str]:
        spec_path = os.path.join(workdir, "specs.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(self._spec_docs(seed), handle, indent=2)
        specs = st_bench.load_experiment_specs(spec_path)
        chunks = [_read_bytes(spec_path)]
        # The datasets run_experiment will draw, regenerated here so that two
        # set-ups from one seed can be compared byte for byte.
        for spec in specs:
            fn = replace(
                st_bench.get_test_function(spec.function),
                fit_lower=spec.fit_lower,
                fit_upper=spec.fit_upper,
                eval_lower=spec.eval_lower,
                eval_upper=spec.eval_upper,
            )
            for i in range(spec.n_seeds):
                data = st_bench.make_dataset(fn, spec.K, spec.sigma, RngStream(spec.seed, i))
                chunks += [data.X.tobytes(), data.y.tobytes()]
        state = {
            "spec_path": spec_path,
            "out_dir": os.path.join(workdir, "reports"),
            "stems": [f"{spec.function}_K{spec.K}" for spec in specs],
        }
        return state, _sha256(*chunks)

    def request(self, state: dict):
        return _cli(["bench", "--spec", state["spec_path"], "--out", state["out_dir"]])

    def inspect(self, state: dict, output) -> Inspection:
        code, log = output
        checks = [_exit_check(code, log, "bench")]
        if code != 0:
            return Inspection("", {}, checks)
        chunks = []
        summary = {}
        gates_checked = gates_missed = 0
        for stem in state["stems"]:
            base = os.path.join(state["out_dir"], stem)
            csv_bytes = _read_bytes(base + ".csv")
            json_bytes = _read_bytes(base + ".json")
            chunks += [csv_bytes, json_bytes]
            report = json.loads(json_bytes)
            function = report["spec"]["function"]
            errors = [rec["error"] for rec in report["per_seed"] if rec["error"]]
            checks.append(Check(f"{function}.seeds_fitted", not errors, "; ".join(errors)))
            med = report["medians"]
            summary[function] = {
                "chosen_m": [rec["chosen_m"] for rec in report["per_seed"]],
                "d_sq": [rec["d_sq"] for rec in report["per_seed"]],
                "chosen_m_med": med["chosen_m"],
                "d_sq_med": med["d_sq"],
            }
            bound, want_m = FIT_GATES[function]
            ok = med["d_sq"] <= bound and (want_m is None or med["chosen_m"] == want_m)
            need = f"d_sq <= {bound:g}" + ("" if want_m is None else f", chosen_m = {want_m:g}")
            detail = f"median d_sq {med['d_sq']!r}, chosen_m {med['chosen_m']:g} (need {need})"
            checks.append(Check(f"{function}.gate", ok, detail))
            gates_checked += 1
            gates_missed += not ok
        return Inspection(_sha256(*chunks), summary, checks, gates_checked, gates_missed)


# ---------------------------------------------------------------------------
# Serve workloads: requests on seeded random models, no fitting.
# ---------------------------------------------------------------------------


class ServeCliWorkload:
    """One request is a CLI ``predict`` (d=2 grid) followed by a CLI ``envelope`` (d=1)."""

    name = "serve-cli"

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, workdir: str) -> tuple[dict, str]:
        n = self.sizes.grid_points
        paths = {d: os.path.join(workdir, f"model_d{d}.json") for d in (1, 2)}
        save_model(_random_model(seed, 1, d=2, m=8), paths[2])
        save_model(_random_model(seed, 2, d=1, m=8), paths[1])
        gen = RngStream(seed, 3).generator()
        lower = gen.uniform(0.1, 0.3, 2)
        predict_grid_arg = _grid_arg(lower, lower + gen.uniform(1.5, 2.2, 2), n)
        lower = gen.uniform(0.2, 0.4, 1)
        envelope_grid_arg = _grid_arg(lower, lower + gen.uniform(2.0, 2.6, 1), n)
        check_rows = np.sort(gen.choice(n * n, self.sizes.predict_checks, replace=False))
        predict_out = os.path.join(workdir, "predict.csv")
        envelope_out = os.path.join(workdir, "envelope.csv")
        state = {
            "models": {d: load_model(path) for d, path in paths.items()},
            "predict_argv": [
                "predict", "--model", paths[2], "--grid", predict_grid_arg, "--out", predict_out,
            ],
            "envelope_argv": [
                "envelope", "--model", paths[1], "--grid", envelope_grid_arg,
                "--n-real", str(self.sizes.envelope_real), "--alpha", "0.05",
                "--seed", str(seed), "--out", envelope_out,
            ],
            "predict_out": predict_out,
            "envelope_out": envelope_out,
            "check_rows": check_rows.tolist(),
        }
        argv_text = " ".join(state["predict_argv"] + state["envelope_argv"]).replace(workdir, "")
        digest = _sha256(
            _read_bytes(paths[2]), _read_bytes(paths[1]), argv_text.encode(), check_rows.tobytes()
        )
        return state, digest

    def request(self, state: dict):
        return _cli(state["predict_argv"]), _cli(state["envelope_argv"])

    def inspect(self, state: dict, output) -> Inspection:
        (p_code, p_log), (e_code, e_log) = output
        checks = [_exit_check(p_code, p_log, "predict"), _exit_check(e_code, e_log, "envelope")]
        if p_code != 0 or e_code != 0:
            return Inspection("", {}, checks)
        predict_raw = _read_bytes(state["predict_out"])
        envelope_raw = _read_bytes(state["envelope_out"])
        checks += self._check_predict(state, predict_raw.decode("utf-8"))
        checks += self._check_envelope(state, envelope_raw.decode("utf-8"))
        return Inspection(_sha256(predict_raw, envelope_raw), {}, checks)

    def _check_predict(self, state: dict, text: str) -> list:
        lines = text.splitlines()
        n_rows = self.sizes.grid_points**2
        checks = [Check("predict.rows", len(lines) - 1 == n_rows, f"{len(lines) - 1} rows")]
        if len(lines) - 1 != n_rows:
            return checks
        worst = 0.0
        for k in state["check_rows"]:
            *point, value = (float(v) for v in lines[1 + k].split(","))
            want = evaluate(state["models"][2], point)
            worst = max(worst, abs(value - want) / max(1.0, abs(want)))
        detail = f"worst relative error {worst:.3g} on {len(state['check_rows'])} points"
        checks.append(Check("predict.matches_evaluate", worst <= PREDICT_REL_TOL, detail))
        return checks

    def _check_envelope(self, state: dict, text: str) -> list:
        rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
        n = self.sizes.grid_points
        checks = [Check("envelope.rows", rows.shape == (n, 4), f"shape {rows.shape}")]
        if rows.shape != (n, 4):
            return checks
        x, lower, upper = rows[:, 0], rows[:, 1], rows[:, 3]
        checks.append(Check("envelope.lower_le_upper", bool(np.all(lower <= upper)), ""))
        closed_form = np.array([evaluate(state["models"][1], [v]) for v in x])
        coverage = float(np.mean((lower <= closed_form) & (closed_form <= upper)))
        detail = f"closed-form mean inside the band on {coverage:.3f} of points"
        checks.append(Check("envelope.mean_inside_band", coverage >= ENVELOPE_MIN_COVERAGE, detail))
        return checks


class McMeanWorkload:
    name = "serve-mc-mean"

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, workdir: str) -> tuple[dict, str]:
        model = _random_model(seed, 2, d=1, m=8)
        model_path = os.path.join(workdir, "model_d1.json")
        save_model(model, model_path)
        point = [float(RngStream(seed, 3).generator().uniform(0.6, 1.8))]
        state = {
            "intensity": GeneralIntensity.from_model(load_model(model_path)),
            "point": point,
            "n_real": self.sizes.mc_real,
            "rng": RngStream(seed, 0),
        }
        return state, _sha256(_read_bytes(model_path), repr(point).encode())

    def request(self, state: dict):
        return st_sim.mc_mean(state["intensity"], state["point"], state["n_real"], state["rng"])

    def inspect(self, state: dict, output) -> Inspection:
        mean, stderr = output
        want = evaluate_general(state["intensity"], state["point"])
        z = abs(mean - want) / stderr if stderr > 0.0 else math.inf
        checks = [
            Check(
                "matches_closed_form",
                math.isfinite(mean) and z <= MC_MEAN_MAX_Z,
                f"mean {mean!r}, closed form {want!r}, |z| {z:.3f} (need <= {MC_MEAN_MAX_Z:g})",
            )
        ]
        return Inspection(_sha256(repr((mean, stderr)).encode()), {}, checks)


def make(name: str, sizes: Sizes):
    if name in ("fit-noiseless", "fit-noisy"):
        return FitWorkload(name, sizes)
    for cls in (ServeCliWorkload, McMeanWorkload):
        if cls.name == name:
            return cls(sizes)
    raise KeyError(name)
