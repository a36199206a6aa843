"""Per-layer tracing of qdemon from outside the package.

Each qdemon module is one layer. ``Tracer.installed()`` wraps every public
function (and the ``__init__`` of every public class) of every layer and
patches the wrapper into each qdemon namespace that holds the function by
name, so calls between modules and within one module both pass through it.
numpy's ``eigh``/``eigvalsh`` are wrapped to count eigendecompositions made
while a qdemon call is open.

Every call is counted. A span (op, id, parent, layer, name, start, end) is
recorded only where a call crosses into another layer, or enters qdemon from
the benchmark; a call within the layer of the innermost open span adds its
time to that span. A layer's self time is the summed duration of its spans
minus the time covered by their child spans. Spans stay in memory until
``write_spans`` at the end of the run, packed six integers to a span
(op, id, parent, name index, start, end) to keep a long traced run small.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("qmatrix", "spin_demon", "channel", "circuits", "interferometer", "engine", "cli")

#: counters bumped on every call of a function, before it runs
ON_CALL = {
    "qmatrix.check_density_matrix": "qmatrix.validations",
    "qmatrix.check_unitary": "qmatrix.validations",
    "channel.joint_unitary": "channel.joint_unitary_builds",
    "engine.bit_entropy": "engine.entropy_evals",
    "engine.bit_entropy_prime": "engine.entropy_evals",
}


def _count_flux(counts, report):
    counts["interferometer.flux_points"] += len(report.flux)


def _count_optimizer(counts, result):
    counts["engine.optimizer_calls"] += 1
    counts["engine.optimizer_iterations"] += int(result.iterations)
    counts["engine.optimizer_nonconverged"] += int(not result.converged)


#: counters read from a function's return value
ON_RETURN = {
    "interferometer.run_double_mzi": _count_flux,
    "engine.optimize_epsilon_power": _count_optimizer,
    "engine.optimize_epsilon_eta": _count_optimizer,
}

COUNTERS = ("qmatrix.validations", "qmatrix.eig_calls", "channel.joint_unitary_builds",
            "interferometer.flux_points", "engine.optimizer_calls",
            "engine.optimizer_iterations", "engine.optimizer_nonconverged",
            "engine.entropy_evals")


class Tracer:
    """Counts and spans of one traced pass; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.stack: list[tuple[int, str]] = []
        self.names: list[str] = []
        self._spans = array("q")
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, key: str, fn):
        stack, calls, counts, spans = self.stack, self.calls, self.counts, self._spans
        name_id = len(self.names)
        self.names.append(key)
        on_call = ON_CALL.get(key)
        on_return = ON_RETURN.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            if on_call is not None:
                counts[on_call] += 1
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = tracer._next_id
                tracer._next_id += 1
                parent = stack[-1][0] if stack else -1
                stack.append((sid, layer))
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter_ns()
                    stack.pop()
                    spans.extend((tracer.op, sid, parent, name_id, t0, t1))
            if on_return is not None:
                on_return(counts, result)
            return result

        return traced

    def span_count(self) -> int:
        return len(self._spans) // 6

    def span_records(self):
        """Spans as (op, id, parent, layer, name, start_ns, end_ns) tuples."""
        s = self._spans
        for i in range(0, len(s), 6):
            name = self.names[s[i + 3]]
            yield s[i], s[i + 1], s[i + 2], name.split(".", 1)[0], name, s[i + 4], s[i + 5]

    def _wrap_eig(self, fn):
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                counts["qmatrix.eig_calls"] += 1
            return fn(*args, **kwargs)

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        package = importlib.import_module("qdemon")
        modules = [importlib.import_module(f"qdemon.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(layer, key, obj))
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and "__init__" in vars(obj)):
                    self._patch(obj, "__init__", self._wrap(layer, key, vars(obj)["__init__"]))
        for mod in (package, *modules):
            for name, obj in list(vars(mod).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    self._patch(mod, name, found[1])
        for name in ("eigh", "eigvalsh"):
            self._patch(np.linalg, name, self._wrap_eig(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times_ns(spans) -> Counter:
    """Per-layer self time: span durations minus their direct children's.

    ``spans`` must come in the order they ended, children before their
    parent, as the tracer records them; one pass then suffices.
    """
    child: dict[int, int] = {}
    totals = Counter()
    for _op, sid, parent, layer, _name, t0, t1 in spans:
        duration = t1 - t0
        totals[layer] += duration - child.pop(sid, 0)
        if parent >= 0:
            child[parent] = child.get(parent, 0) + duration
    return totals


def source_lines(layer: str) -> int:
    path = Path(importlib.import_module(f"qdemon.{layer}").__file__)
    return len(path.read_text(encoding="utf-8").splitlines())


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer calls, self time and source lines, plus the named counters."""
    self_ns = self_times_ns(tracer.span_records())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.self_ms"] = (self_ns[layer] / 1e6, "ms")
        metrics[f"{layer}.src_lines"] = (source_lines(layer), "lines")
    for name in COUNTERS:
        metrics[name] = (tracer.counts[name], "count")
    return metrics


def write_spans(path: Path, tracer: Tracer) -> None:
    """Gzipped CSV of every span, one row each."""
    with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["op", "span", "parent", "layer", "name", "start_ns", "end_ns"])
        writer.writerows(tracer.span_records())
