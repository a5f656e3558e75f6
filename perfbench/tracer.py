"""
Outside-in span tracer for hmflab's public functions.

The tracer replaces a public function by a timing wrapper in every hmflab
namespace that binds it.  ``simulate`` and ``diagnostics`` import their
helpers by name (``from .grids import cubic_interp``), so patching
``hmflab.grids`` alone would miss every hot-path call; the wrapper is
therefore installed wherever the original object is found.  Spans are kept
in memory with the index of their parent span and aggregated once, after
the traced iteration, into per-layer totals.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

_COMPLEX = 16
_FLOAT = 8


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cubic_interp_counts(args, kwargs, result):
    # computed bytes: read the row, write the zero-padded copy, read each
    # target, gather 4 neighbours per node and write one output per node
    grid = _arg(args, kwargs, 1, "grid")
    nodes = int(np.size(_arg(args, kwargs, 2, "targets")))
    moved = (_COMPLEX * grid.n_xi + _COMPLEX * (grid.n_xi + 4)
             + nodes * (_FLOAT + 4 * _COMPLEX + _COMPLEX))
    return {"nodes": nodes, "bytes_computed": moved}


def _points(pos, name):
    def count(args, kwargs, result):
        return {"points": int(np.size(_arg(args, kwargs, pos, name)))}
    return count


def _trapezoid_counts(args, kwargs, result):
    return {"steps": int(np.size(_arg(args, kwargs, 0, "kernel_samples"))) - 1}


def _run_counts(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"steps": cfg.n_steps,
            "snapshot_bytes": sum(s.values.nbytes for s in result.snapshots)}


def _scattering_counts(args, kwargs, result):
    # same index arithmetic as scattering_limit: one rhs rebuild per
    # snapshot in the closed accumulation range
    traj = _arg(args, kwargs, 0, "traj")
    carry = kwargs.get("carry", args[2] if len(args) > 2 else None)
    times = traj.snapshot_times
    i1 = int(np.argmin(np.abs(times - result.t_final)))
    i0 = 0 if carry is None else int(np.argmin(np.abs(times - carry.t_final)))
    return {"rhs_rebuilds": i1 - i0 + 1}


def _file_bytes(pos, name):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, pos, name))}
    return count


# (defining module, function, layer name, per-call counter)
TARGETS = (
    ("grids", "cubic_interp", "grids.cubic_interp", _cubic_interp_counts),
    ("grids", "norm_ladder", "grids.norm_ladder", None),
    ("grids", "symmetrized_values", "grids.symmetrized_values", None),
    ("grids", "write_field_csv", "grids.csv", _file_bytes(1, "path")),
    ("grids", "write_series_csv", "grids.csv", _file_bytes(0, "path")),
    ("profiles", "save_profile_csv", "grids.csv", _file_bytes(1, "path")),
    ("profiles", "profile_hat", "profiles.profile_hat", _points(1, "xi")),
    ("simulate", "run", "simulate.run", _run_counts),
    ("simulate", "extract_field_modes", "simulate.extract_field_modes", None),
    ("penrose", "penrose_check", "penrose.penrose_check", None),
    ("penrose", "memory_kernel_transform", "penrose.memory_kernel_transform", _points(3, "tau")),
    ("penrose", "critical_parameter", "penrose.critical_parameter", None),
    ("volterra", "product_trapezoid", "volterra.product_trapezoid", _trapezoid_counts),
    ("volterra", "lemvolterra_harness", "volterra.lemvolterra_harness", None),
    ("diagnostics", "scattering_limit", "diagnostics.scattering_limit", _scattering_counts),
    ("diagnostics", "weak_limit_profile", "diagnostics.weak_limit_profile", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "write_timeseries_csv", "cli.write_timeseries_csv", None),
)

# parents under which a cubic_interp call is a field-mode read or a shifted read
_FIELD_MODE_PARENTS = {"simulate.extract_field_modes"}
_SHIFT_PARENTS = {"simulate.run", "diagnostics.scattering_limit"}


class Tracer:
    """Installs timing wrappers and collects spans ``[layer, parent, start, end, counts]``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "hmflab" or name.startswith("hmflab.")]
        for module, func, layer, counter in TARGETS:
            original = getattr(sys.modules[f"hmflab.{module}"], func)
            wrapper = self._wrap(layer, original, counter)
            for ns in namespaces:
                if ns.__dict__.get(func) is original:
                    setattr(ns, func, wrapper)
                    self._patched.append((ns, func, original))

    def uninstall(self) -> None:
        for ns, func, original in reversed(self._patched):
            setattr(ns, func, original)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, layer, fn, counter):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            span = [layer, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper


def aggregate(spans: list) -> dict:
    """
    Per-layer totals of one traced iteration: ``<layer>.s`` (inclusive),
    ``<layer>.self_s`` (inclusive minus child spans), ``<layer>.calls`` and
    every counter, plus the cubic_interp split by parent span and the
    number of Penrose verdicts taken inside ``critical_parameter``.
    """
    child = [0.0] * len(spans)
    for layer, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)

    def add(prefix, dur, self_s, counts):
        out[f"{prefix}.s"] += dur
        out[f"{prefix}.self_s"] += self_s
        out[f"{prefix}.calls"] += 1
        for key, val in (counts or {}).items():
            out[f"{prefix}.{key}"] += val

    for i, (layer, parent, start, end, counts) in enumerate(spans):
        dur = end - start
        add(layer, dur, dur - child[i], counts)
        parent_layer = spans[parent][0] if parent >= 0 else None
        if layer == "grids.cubic_interp":
            if parent_layer in _FIELD_MODE_PARENTS:
                add("grids.cubic_interp.field_modes", dur, dur - child[i], counts)
            elif parent_layer in _SHIFT_PARENTS:
                add("grids.cubic_interp.shifted", dur, dur - child[i], counts)
        if layer == "penrose.penrose_check":
            p = parent
            while p >= 0 and spans[p][0] != "penrose.critical_parameter":
                p = spans[p][1]
            if p >= 0:
                out["penrose.critical_parameter.verdicts"] += 1
    out["simulate.steps"] = out.get("simulate.run.steps", 0)
    out["simulate.snapshot_bytes"] = out.get("simulate.run.snapshot_bytes", 0)
    return dict(out)
