"""In-memory spans around stochtaylor's module boundaries, for the traced run.

The tracer never edits the package. It swaps the module attribute that each
caller looks up for a wrapper that records a span around the call: for
example ``select_model`` resolves ``fit_fixed_m`` through the ``fit`` module
globals, so replacing ``stochtaylor.fit.fit_fixed_m`` traces every order it
fits. ``RngStream.generator`` is replaced on the class, which every module
shares. :meth:`Tracer.uninstall` puts every original back.

A span records its name, start, end, parent span and request id. The first
dotted part of the name is its layer (a package module, or ``client`` for
the benchmark's own request span). Spans stay in compact arrays until the
run ends; :meth:`Tracer.write_csv` writes them out and :meth:`Tracer.summary`
derives call counts, inclusive time and self time (span time minus the time
its direct children cover) per span name and per layer.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("model", "fit", "simulate", "rng", "metrics", "bench", "cli", "client")


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, hook=None) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, hook))

    def patch_count(self, owner, attr: str, hook) -> None:
        """Replace with a wrapper that only counts (no span)."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            hook(tracer, args, kwargs)
            return fn(*args, **kwargs)

        self.patch(owner, attr, counted)

    def install(self) -> None:
        """Wrap the public functions at each stochtaylor module boundary."""
        from stochtaylor import bench, cli, fit, model, rng, simulate

        # cli -> bench / model / simulate
        self.patch_span(cli, "main", "cli.main")
        self.patch_span(cli, "load_model", "model.load_model")
        self.patch_span(cli, "envelope", "simulate.envelope")
        self.patch_span(cli, "load_experiment_specs", "bench.load_experiment_specs")
        self.patch_span(cli, "run_experiment", "bench.run_experiment")
        self.patch_span(cli, "write_report", "bench.write_report")
        self.patch_count(cli, "atomic_write_text", _bytes_hook)
        self.patch_count(bench, "atomic_write_text", _bytes_hook)
        # bench -> fit / model / metrics
        self.patch_span(bench, "make_dataset", "bench.make_dataset")
        self.patch_span(bench, "select_model", "fit.select_model")
        self.patch_span(bench, "predict_grid", "model.predict_grid", _points_hook)
        self.patch_span(bench, "integrated_sq_distance", "metrics.distance")
        self.patch_span(bench, "l1_distance", "metrics.distance")
        self.patch_span(bench, "shift_window_above", "metrics.shift_window_above")
        # fit internals and fit -> model / scipy
        self.patch_span(fit, "fit_fixed_m", "fit.fit_fixed_m")
        self.patch_span(fit, "rss", "fit.rss")
        self.patch_span(fit, "evaluate", "model.evaluate")
        self.patch(fit, "least_squares", self._traced_least_squares(fit.least_squares))
        # model: called by cli through predict_original_units
        self.patch_span(model, "predict_grid", "model.predict_grid", _points_hook)
        # simulate internals; the client calls simulate.mc_mean
        self.patch_span(simulate, "mc_mean", "simulate.mc_mean")
        self.patch_span(simulate, "mc_values", "simulate.mc_values", _realizations_hook)
        # rng: every module shares the class
        self.patch_span(rng.RngStream, "generator", "rng.generator")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_least_squares(self, original):
        """TRF wrapper: spans for the solver and for its fun/jac callbacks."""
        tracer = self

        @functools.wraps(original)
        def least_squares(fun, x0, *args, jac="2-point", **kwargs):
            fun = tracer.wrap(fun, "fit.residual")
            if callable(jac):
                jac = tracer.wrap(jac, "fit.jacobian")
            idx = tracer.open("fit.least_squares")
            try:
                result = original(fun, x0, *args, jac=jac, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts["fit.nfev"] += int(result.nfev)
            tracer.counts["fit.njev"] += int(result.njev or 0)
            tracer.counts["fit.least_squares.converged"] += int(result.status > 0)
            return result

        return least_squares

    # -- output --------------------------------------------------------------

    def write_csv(self, path: str, origin: float) -> None:
        """One line per span: id, name, start and end (s after origin), parent, request."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start_s,end_s,parent,request\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i] - origin!r},"
                    f"{self.end[i] - origin!r},{self.parent[i]},{self.request[i]}\n"
                )

    def summary(self) -> dict:
        """Per span name and per layer: calls, inclusive seconds and self seconds."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        child_time = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        # Only spans inside a client request count.
        inside = np.frombuffer(self.request, dtype=np.int32) >= 0
        name_id = name_id[inside]
        n_names = len(self.names)
        calls = np.bincount(name_id, minlength=n_names)
        total = np.bincount(name_id, weights=duration[inside], minlength=n_names)
        own = np.bincount(name_id, weights=self_time[inside], minlength=n_names)
        by_name = {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }
        by_layer = {layer: 0.0 for layer in LAYERS}
        for name, entry in by_name.items():
            by_layer[name.split(".")[0]] += entry["self_s"]
        return {"spans": by_name, "layer_self_s": by_layer, "counts": dict(self.counts)}


def _points_hook(tracer: Tracer, args, kwargs) -> None:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tracer.counts["model.predict_grid.points"] += len(grid)


def _realizations_hook(tracer: Tracer, args, kwargs) -> None:
    n_real = args[2] if len(args) > 2 else kwargs["n_real"]
    tracer.counts["simulate.mc_values.realizations"] += int(n_real)


def _bytes_hook(tracer: Tracer, args, kwargs) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.counts["cli.output_bytes"] += len(text.encode("utf-8"))
