"""In-memory spans around qmapft's public functions, installed from outside.

`installed(tracer)` replaces each listed function wherever a qmapft module
binds it (its defining module, the modules that imported it by name, and
the package namespace) with a wrapper that records one span per call:
layer, start, end, parent span and operation id.  The wrappers are removed
when the block exits, so untraced operations run the unmodified program.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (module, function) -> layer; a layer's metrics are named after it.
LAYERS = {
    ("qmapft.process", "enumerate_trajectories"): "process.enumerate",
    ("qmapft.process", "verify_detailed_ft"): "process.detailed_ft_match",
    ("qmapft.process", "build_dual_process"): "process.dual_process",
    ("qmapft.process", "compile_process"): "process.compile",
    ("qmapft.process", "verify_integral_ft"): "process.integral_ft",
    ("qmapft.process", "sample_trajectories"): "process.sample",
    ("qmapft.maps", "invariant_state"): "maps.invariant_state",
    ("qmapft.maps", "apply_map"): "maps.apply_map",
    ("qmapft.potential", "build_potential_structure"): "potential.classify",
    ("qmapft.potential", "build_dual"): "potential.dual",
    ("qmapft.linalg", "hermitian_eig"): "linalg.hermitian_eig",
    ("qmapft.serialize", "load_process_file"): "serialize.load",
    ("qmapft.serialize", "load_map_file"): "serialize.load",
    ("qmapft.serialize", "dumps_report"): "serialize.report",
    ("qmapft.serialize", "sigma_histogram_csv"): "serialize.report",
    ("qmapft.models", "thermal_qubit_map"): "models.build",
    ("qmapft.models", "lindblad_step"): "models.build",
    ("qmapft.models", "unitary_map"): "models.build",
    ("qmapft.models", "projective_measurement"): "models.build",
    ("qmapft.models", "dephasing_map"): "models.build",
}
ROOT_LAYER = "cli"

# Span fields, stored as lists to keep the per-call cost low.
LAYER, START, END, PARENT, OP, BRANCHES = range(6)


def _branches(ensemble) -> int:
    """Branches in an enumerated ensemble, read without timing it."""
    if hasattr(ensemble, "trajectories"):
        return len(ensemble.trajectories)
    return len(ensemble.sigmas())


class Tracer:
    """Spans of one benchmark run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = None

    def _open(self, layer: str) -> list:
        span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of the given layer."""
        span = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, layer: str, fn):
        counts_branches = layer == "process.enumerate"

        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts_branches:
                span[BRANCHES] = _branches(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def self_times(self) -> list:
        """Per span, its duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own


@contextmanager
def installed(tracer: Tracer):
    """Patch every qmapft binding of the LAYERS functions for the block's duration."""
    wrappers = {}
    for (modname, attr), layer in LAYERS.items():
        fn = getattr(importlib.import_module(modname), attr)
        wrappers[id(fn)] = (fn, tracer.wrap(layer, fn))
    patched = []
    try:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "qmapft" or modname.startswith("qmapft.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
