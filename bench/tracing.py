"""Spans around spectradag's public functions, for the benchmark's traced run.

``Tracer.patched()`` rebinds each public function at every module
attribute through which the benchmark or the package calls it (the
``from .cpsd import cpsd_f`` in reconstruct is a binding of its own),
records one span per call (layer, name, start, end, parent) and restores
the originals on exit. Spans stay in memory until ``dump``.

``reconstruct`` is traced as ``order_nodes`` followed by
``identify_parents``: the same two scans through the package's public
API, so ordering and parent identification are timed apart. The traced
result carries only ``graph``, the one field its callers read.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

from spectradag import cpsd, experiments, graphs, models, reconstruct

# (module, attribute, layer): every binding the workloads reach.
BINDINGS = (
    (graphs, "random_dag", "graphs"),
    (experiments, "random_dag", "graphs"),
    (experiments, "graph_equal", "graphs"),
    (experiments, "structural_hamming", "graphs"),
    (models, "build_model", "models"),
    (experiments, "build_model", "models"),
    (models, "exact_psdm", "models"),
    (cpsd, "exact_psdm", "models"),
    (cpsd, "default_gamma", "cpsd"),
    (experiments, "default_gamma", "cpsd"),
    (cpsd, "cpsd_deficit", "cpsd"),
    (cpsd, "sample_psdm", "cpsd"),
    (experiments, "sample_psdm", "cpsd"),
    (cpsd, "cpsd_f", "cpsd"),
    (reconstruct, "cpsd_f", "cpsd"),
    (cpsd, "iter_trajectory_blocks", "simulate"),
    (reconstruct, "order_nodes", "reconstruct"),
    (reconstruct, "identify_parents", "reconstruct"),
    (reconstruct, "reconstruct", "reconstruct"),
    (experiments, "reconstruct", "reconstruct"),
    (experiments, "run_experiment", "experiments"),
)

# Layers whose own time, inside an operation, is "not covered by a layer span".
HARNESS_LAYERS = ("bench", "experiments")
# The two scans a reconstruction is traced as; f_calls counts cpsd_f under them.
SCANS = ("order_nodes", "identify_parents")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, name, start, end, parent index]
        self._stack: list[int] = []
        self.values: dict[int, int] = {}  # simulator span -> values it yielded
        self.ridge_rescues = 0
        self.clamps = 0

    def _open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([layer, name, time.perf_counter(), None, parent])
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        idx = self._open(layer, name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, layer, fn):
        # try/finally rather than span(): cpsd_f runs thousands of times per
        # reconstruction, and a generator-based context manager costs more
        name = fn.__name__

        def traced(*args, **kwargs):
            idx = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_blocks(self, layer, fn):
        name = fn.__name__

        def traced(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                idx = self._open(layer, name)
                try:
                    block = next(blocks, None)
                finally:
                    self._close(idx)
                if block is None:
                    return
                self.values[idx] = block.size
                yield block

        return traced

    def _wrap_f(self, layer, fn):
        inner = self._wrap(layer, fn)

        def traced(*args, **kwargs):
            value = inner(*args, **kwargs)
            self.ridge_rescues += value.ridge_applied
            self.clamps += value.clamped
            return value

        return traced

    def _reconstruct(self, layer):
        def reconstruct_(psdm, params, *, search="fixed_size"):
            with self.span(layer, "reconstruct"):
                order, optsets = reconstruct.order_nodes(psdm, params, search=search)
                graph = reconstruct.identify_parents(psdm, order, optsets, params)
            return SimpleNamespace(graph=graph)

        return reconstruct_

    def _traced(self, attr, layer, fn):
        if attr == "iter_trajectory_blocks":
            return self._wrap_blocks(layer, fn)
        if attr == "cpsd_f":
            return self._wrap_f(layer, fn)
        if attr == "reconstruct":
            return self._reconstruct(layer)
        return self._wrap(layer, fn)

    @contextmanager
    def patched(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in BINDINGS]
        try:
            for (module, attr, layer), (_, _, fn) in zip(BINDINGS, saved):
                setattr(module, attr, self._traced(attr, layer, fn))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def dump(self, path) -> None:
        """Write the spans as JSON, times in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [layer, name, round((s - t0) * 1e6), round((e - t0) * 1e6), parent]
            for layer, name, s, e, parent in self.spans
        ]
        doc = {"columns": ["layer", "name", "start_us", "end_us", "parent"], "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures over the spans inside the benchmark's operations.

    A function the operations never call (the simulator on exact-recovery,
    say) is reported from its calls during set-up instead, so that every
    figure is a measured one. The rescue and clamp counts cover every
    traced call.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    in_op = [False] * len(spans)
    for idx, (layer, _, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_op[idx] = in_op[parent]
        else:
            in_op[idx] = layer == "bench"

    def chosen(name):
        every = [idx for idx, s in enumerate(spans) if s[1] == name]
        return [idx for idx in every if in_op[idx]] or every

    def total(indices):
        return sum(spans[idx][3] - spans[idx][2] for idx in indices)

    def mean(name):
        indices = chosen(name)
        return total(indices) / len(indices)

    ops = sum(1 for s in spans if s[0] == "bench")
    scans = {idx for idx, s in enumerate(spans) if in_op[idx] and s[1] in SCANS}
    f_in_scans = sum(1 for s in spans if s[1] == "cpsd_f" and s[4] in scans)
    reconstructions = sum(1 for idx, s in enumerate(spans) if in_op[idx] and s[1] == "reconstruct")
    harness = sum(
        s[3] - s[2] - child[idx]
        for idx, s in enumerate(spans)
        if in_op[idx] and s[0] in HARNESS_LAYERS
    )
    block_spans = chosen("iter_trajectory_blocks")
    blocks = total(block_spans)
    sampling = chosen("sample_psdm")
    return {
        "models.build_ms": 1e3 * mean("build_model"),
        "cpsd.gamma_ms": 1e3 * mean("default_gamma"),
        "simulate.blocks_ms": 1e3 * blocks / len(sampling),
        "simulate.values_per_s": sum(tracer.values.get(idx, 0) for idx in block_spans) / blocks,
        "cpsd.estimate_ms": 1e3 * (total(sampling) - blocks) / len(sampling),
        "reconstruct.order_ms": 1e3 * mean("order_nodes"),
        "reconstruct.parents_ms": 1e3 * mean("identify_parents"),
        "reconstruct.f_calls": f_in_scans / reconstructions,
        "cpsd.f_us": 1e6 * mean("cpsd_f"),
        "cpsd.ridge_rescues": tracer.ridge_rescues,
        "cpsd.clamps": tracer.clamps,
        "experiments.overhead_ms": 1e3 * harness / ops,
    }
