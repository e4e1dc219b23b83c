"""Span tracing around the public functions of each snnemu layer.

The tracer patches named functions and methods from outside the package, so
the code under test is unchanged. Each call made while a request is being
traced becomes a span (label, start, end, parent span, request id), kept in
flat in-memory arrays and written out once at the end of the run.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so self times partition the traced request time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (per-layer metric, "module:qualified.name"). Functions that another module
# imports by name are patched where they are called from.
TARGETS = [
    ("synapse.mac_s", "snnemu.synapse:WeightMemory.row_weights"),
    ("synapse.scan_s", "snnemu.npu:decode_spike_stream"),
    ("synapse.sat_decay_s", "snnemu.synapse:PostSynapticState.saturate"),
    ("synapse.sat_decay_s", "snnemu.synapse:PostSynapticState.decay"),
    ("neuron.update_s", "snnemu.npu:step_arrays"),
    ("npu.timestep_self_s", "snnemu.npu:Npu.timestep"),
    ("processor.timestep_self_s", "snnemu.processor:Processor.timestep"),
    ("processor.build_s", "snnemu.netio:NetworkDescription.build_processor"),
    ("processor.build_s", "snnemu.apps:build_sudoku_network"),
    ("netio.stimulus_s", "snnemu.netio:run"),
    ("netio.stimulus_s", "snnemu.apps:solve_sudoku"),
    ("netio.noise_s", "snnemu.netio:Lcg.int_range"),
    ("netio.load_s", "snnemu.netio:NetworkDescription.load"),
    ("netio.load_s", "snnemu.netio:StimulusTrace.load"),
    ("netio.load_s", "snnemu.apps:SudokuPuzzle.from_text"),
    ("netio.write_s", "snnemu.netio:save_raster"),
    ("netio.write_s", "snnemu.netio:save_cycles"),
    ("apps.decode_s", "snnemu.apps:decode_sudoku_solution"),
    ("apps.decode_s", "snnemu.apps:verify_sudoku"),
    ("apps.decode_s", "snnemu.apps:decide_direction"),
]
LAYERS = list(dict.fromkeys(layer for layer, _ in TARGETS))

# Calls nested inside these are part of their work and get no span of their
# own: loading a weight image unpacks every row through row_weights, which
# is load time, not MAC time.
OPAQUE = {"snnemu.netio:NetworkDescription.load"}

# 12-bit signed accumulator range that saturate() clamps to.
SAT_MIN, SAT_MAX = -2048, 2047

REQUEST = "bench.request"


def _count_clips(tracer: "Tracer", args: tuple) -> None:
    y = args[0].y
    tracer.sat_clips += int(np.count_nonzero((y < SAT_MIN) | (y > SAT_MAX)))


PRE_HOOKS = {"snnemu.synapse:PostSynapticState.saturate": _count_clips}


def resolve(target: str):
    """Return (owner, attribute, raw attribute value), or None if the module,
    class or attribute no longer exists."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class Tracer:
    """Records spans for calls made inside `request()` while installed."""

    def __init__(self):
        self.labels = [REQUEST] + [t for _, t in TARGETS]
        self.label_layer = [None] + [layer for layer, _ in TARGETS]
        self.label = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.sat_clips = 0
        self.absent = [t for _, t in TARGETS if resolve(t) is None]
        self._stack = [-1]
        self._request = -1
        self._requests = 0
        self._opaque = 0
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- spans -------------------------------------------------------------

    def _open(self, label: int) -> int:
        idx = len(self.start)
        self.label.append(label)
        self.parent.append(self._stack[-1])
        self.request_id.append(self._request)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def request(self):
        """Root span of one request; spans are recorded only inside one."""
        self._request = self._requests
        self._requests += 1
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self._request = -1

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, label: int, target: str):
        tracer = self
        opaque = target in OPAQUE
        pre = PRE_HOOKS.get(target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request < 0 or tracer._opaque:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            idx = tracer._open(label)
            tracer._opaque += opaque
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._opaque -= opaque
                tracer._close(idx)

        return traced

    def install(self) -> None:
        for label, target in enumerate(self.labels[1:], start=1):
            found = resolve(target)
            if found is None:
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, label, target))
            else:
                patched = self._wrap(raw, label, target)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def arrays(self, first: int = 0) -> dict[str, np.ndarray]:
        return {
            "label": np.frombuffer(self.label, dtype=np.intc)[first:],
            "parent": np.frombuffer(self.parent, dtype=np.intc)[first:],
            "request": np.frombuffer(self.request_id, dtype=np.intc)[first:],
            "start": np.frombuffer(self.start, dtype=np.int64)[first:],
            "end": np.frombuffer(self.end, dtype=np.int64)[first:],
        }

    def layer_self_ns(self, first: int = 0) -> dict[str, int]:
        """Self time per layer over the spans recorded since index `first`."""
        a = self.arrays(first)
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= first
        np.add.at(child, a["parent"][nested] - first, dur[nested])
        per_label = np.bincount(
            a["label"], weights=dur - child, minlength=len(self.labels)
        )
        out = dict.fromkeys(LAYERS, 0)
        for label, layer in enumerate(self.label_layer):
            if layer is not None:
                out[layer] += int(per_label[label])
        return out

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())
