"""Reduced-size smoke test of the benchmark command.

Every workload runs at smoke sizes, untraced and traced, through the real
command line. The test checks the result contract (the last line of standard
output is the JSON result and it carries every metric BENCHMARK.json lists,
with its unit), that the output checks ran, and that the command refuses to
run without the package sources.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED)]
    argv += ["--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_checks_outputs(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), name
        assert any(line.split()[:1] == [name] and line.endswith(" " + entry["unit"]) for line in lines)
    assert result["attempted"] >= 2

    record_path = ROOT / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{trace}-smoke.json"
    record = json.loads(record_path.read_text())
    assert record["setup_deterministic"]
    assert len(record["setup_samples_s"]) == 3
    for request in record["requests"]:
        assert request["error"] is None
        assert request["checks"], "no output check ran"
    traced = [r["traced"] for r in record["requests"]]
    assert traced == [bool(trace) and i > 0 for i in range(len(traced))]
    if trace:
        # The traced request reproduced the untraced one byte for byte.
        first, second = record["requests"][:2]
        assert first["output_digest"] == second["output_digest"]
        assert first["summary"] == second["summary"]
    if workload.startswith("serve-"):
        assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_every_patched_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from stochtaylor import bench, cli, fit, model, rng, simulate

    owners = (bench, cli, fit, model, simulate, rng.RngStream)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fit.fit_fixed_m is not before[2]["fit_fixed_m"]
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        for attr, value in saved.items():
            assert vars(owner)[attr] is value, (owner, attr)
