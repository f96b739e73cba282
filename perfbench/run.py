"""Benchmark command for stochtaylor: one workload per process, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-noisy --seed 1 --seconds 15 --trace 0

One client sends one request at a time and sends the next only after the
previous one completed and its outputs were checked. It keeps going while
the measurement window (``--seconds``) still has room for one more request
of median length; every run makes at least one request. BLAS is pinned to
one thread.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``:
the median request time, the set-up time (median of three set-ups, each in a
fresh process: imports plus generation of the input files) and the peak
resident memory. ``--trace 1`` first makes one untraced request, then
repeats the request with spans recorded at each stochtaylor module boundary
(see ``spans.py``) and reports the per-layer metrics. Every traced request
must produce byte-identical outputs to the untraced one.

Operations counted in ``attempted``: every request, plus the comparison of
the set-up digests. An operation fails when it raises, exits non-zero, or
fails an output check; ``correct`` is true only when none failed. The last
line of standard output is the JSON result; the lines before it print every
metric with its unit. A record with the environment, every request and
every check goes to ``perfbench/out/``; the traced run also writes its spans
there as CSV.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
# Traced requests stop once this many spans are held (at least one request).
MAX_TRACE_SPANS = 1_000_000


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_sha():
    """Commit of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "platform": platform.platform(),
    }


def prepare(args, workdir: str):
    """Imports plus input generation: the part of a run that setup_s times."""
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.make(args.workload, sizes)
    state, digest = workload.setup(args.seed, workdir)
    return workload, state, digest, time.perf_counter() - T_START


def setup_in_child(args) -> dict:
    """One more set-up in a fresh interpreter; returns its time and input digest."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0",
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_request(workload, state, tracer=None, request_id=-1) -> dict:
    """Time one request, then inspect its outputs (outside the timed part)."""
    error = inspection = None
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.request_id = request_id
        span = tracer.open("client.request")
    try:
        output = workload.request(state)
    except Exception:  # a failed request is counted, the client keeps going
        error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.close(span)
            tracer.request_id = -1
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            inspection = workload.inspect(state, output)
        except Exception:
            error = traceback.format_exc()
    return {"time_s": elapsed, "error": error, "inspection": inspection}


def closed_loop(workload, state, seconds: float, tracer=None, first_id: int = 0) -> list:
    records = []
    t_begin = time.perf_counter()
    while True:
        records.append(one_request(workload, state, tracer, first_id + len(records)))
        elapsed = time.perf_counter() - t_begin
        median = statistics.median(rec["time_s"] for rec in records)
        if elapsed + median > seconds:
            break
        if tracer is not None and len(tracer) > MAX_TRACE_SPANS:
            break
    return records


def judge(records: list) -> None:
    """Mark each record ok or not; outputs must match the first request's."""
    first = records[0]["inspection"]
    for rec in records:
        insp = rec["inspection"]
        problems = []
        if rec["error"] is not None:
            problems.append("raised: " + rec["error"].strip().splitlines()[-1])
        if insp is not None:
            problems += [f"{c.name}: {c.detail}" for c in insp.checks if not c.ok]
            if first is not None and (insp.digest, insp.summary) != (first.digest, first.summary):
                problems.append("outputs differ from the first request's")
        rec["problems"] = problems


def per_layer_metrics(names, tracer, traced: list, reference: dict):
    """Per-layer metrics by name, derived from the spans of the traced requests.

    Names follow one scheme: ``<span>.calls`` is calls per request,
    ``<span>.pct`` and ``<span>.self_pct`` are the span's inclusive and self
    time as a share of the traced request time, ``layer.<module>.self_pct``
    sums self time over a layer, and any other name is a counter per request.
    """
    summary = tracer.summary()
    spans = summary["spans"]
    n = len(traced)
    request_total = spans["client.request"]["s"]
    traced_median = statistics.median(rec["time_s"] for rec in traced)
    starts = spans.get("fit.least_squares", {}).get("calls", 0)
    special = {
        "trace.request_s": traced_median,
        "trace_overhead_frac": (traced_median - reference["time_s"]) / reference["time_s"],
        "fit.converged_ratio": (
            summary["counts"].get("fit.least_squares.converged", 0) / starts if starts else 0.0
        ),
    }

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    def value(name: str) -> float:
        if name in special:
            return special[name]
        if name.startswith("layer.") and name.endswith(".self_pct"):
            return 100.0 * summary["layer_self_s"][name.split(".")[1]] / request_total
        for suffix, key in ((".self_pct", "self_s"), (".pct", "s")):
            if name.endswith(suffix):
                return 100.0 * span(name[: -len(suffix)], key) / request_total
        if name.endswith(".calls"):
            return span(name[: -len(".calls")], "calls") / n
        return summary["counts"].get(name, 0) / n

    return {name: value(name) for name in names}, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "stochtaylor" / "__init__.py").is_file():
        return fail(f"no stochtaylor sources under {ROOT / 'src'}")
    config_path = ROOT / "BENCHMARK.json"
    if not config_path.is_file():
        return fail(f"missing {config_path}")
    config = json.loads(config_path.read_text())
    whys = {w["name"]: w["why"] for w in config["workloads"]}
    if args.workload not in whys:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(whys)}")
    sys.path.insert(0, str(ROOT / "src"))
    import stochtaylor

    if Path(stochtaylor.__file__).resolve().parent != ROOT / "src" / "stochtaylor":
        return fail(f"stochtaylor imported from {stochtaylor.__file__}, not from {ROOT / 'src'}")
    from stochtaylor.fit import UnderdeterminedWarning

    warnings.simplefilter("ignore", UnderdeterminedWarning)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload, state, digest, own_setup_s = prepare(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s, "digest": digest}))
            return 0
        return measure(args, config, whys[args.workload], workload, state, digest, own_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, config, why, workload, state, digest, own_setup_s) -> int:
    children = [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_samples = [own_setup_s] + [child["setup_s"] for child in children]
    setup_deterministic = all(child["digest"] == digest for child in children)

    tracer = None
    if args.trace:
        from spans import Tracer

        reference = one_request(workload, state)
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(workload, state, args.seconds, tracer, first_id=1)
        finally:
            tracer.uninstall()
        records = [reference] + traced
    else:
        records = closed_loop(workload, state, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    judge(records)

    failed = sum(1 for rec in records if rec["problems"]) + (not setup_deterministic)
    attempted = len(records) + 1
    inspections = [rec["inspection"] for rec in records if rec["inspection"] is not None]
    gates_checked = sum(i.gates_checked for i in inspections)
    gates_missed = sum(i.gates_missed for i in inspections)
    extra = {
        "error_frac": (failed / attempted, "ratio"),
        "requests": (len(records), "count"),
    }
    if gates_checked:
        extra["quality_miss_frac"] = (gates_missed / gates_checked, "ratio")
        for function, entry in (inspections[0].summary if inspections else {}).items():
            extra[f"bench.d_sq_med.{function}"] = (entry["d_sq_med"], "1")
            extra[f"bench.chosen_m_med.{function}"] = (entry["chosen_m_med"], "count")

    summary = None
    if args.trace:
        listed = config["per_layer"]
        names = [m["name"] for m in listed]
        values, summary = per_layer_metrics(names, tracer, records[1:], records[0])
    else:
        values = {
            "request_s": statistics.median(rec["time_s"] for rec in records),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        listed = config["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    if tracer is not None:
        tracer.write_csv(str(OUT_DIR / f"{stem}-spans.csv"), T_START)
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "setup_samples_s": setup_samples,
        "setup_deterministic": setup_deterministic,
        "input_digest": digest,
        "metrics": metrics,
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        "span_summary": summary,
        "requests": [
            {
                "time_s": rec["time_s"],
                "traced": bool(args.trace) and i > 0,
                "problems": rec["problems"],
                "error": rec["error"],
                "output_digest": rec["inspection"].digest if rec["inspection"] else None,
                "summary": rec["inspection"].summary if rec["inspection"] else None,
                "checks": [vars(c) for c in rec["inspection"].checks] if rec["inspection"] else [],
            }
            for i, rec in enumerate(records)
        ],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {why}")
    print("environment " + json.dumps(record["environment"]))
    print(f"{len(records)} requests, {failed} of {attempted} operations failed")
    for rec in records:
        for problem in rec["problems"]:
            print(f"  failed: {problem}")
    if not setup_deterministic:
        print("  failed: set-ups from one seed produced different inputs")
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']!r} {entry['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name:34s} {value!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
