"""Spans around the library's public functions, recorded from outside.

``install`` replaces each function in ``FUNCTIONS`` with a wrapper in
every ``fracperim`` module that holds it, so calls between library
modules are traced too.  Spans (name, start, end, parent, thread, op id)
are kept in memory; ``layer_metrics`` turns them into per-function call
counts, self times and work counts.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass, field

# module -> public functions that get a span
FUNCTIONS = {
    "shapes": ("rasterize",),
    "kernels": ("build_table",),
    "perimeter": ("fractional_perimeter", "gagliardo_seminorm"),
    "deficit": ("s_deficit", "fraenkel_asymmetry", "reference_ball"),
    "rearrange": ("symmetric_rearrangement", "polya_szego_report"),
    "extension": ("extension_domain", "poisson_extend", "extension_energy",
                  "horizontal_rearrange"),
    "experiments": ("sweep_s",),
}


def _fft_points(cells) -> int:
    # fftconvolve pads the full (3n-2)-wide convolution to a fast length
    from scipy.fft import next_fast_len
    return math.prod(next_fast_len(3 * n - 2, True) for n in cells)


def _perimeter_counts(args, kwargs, result) -> dict:
    from fracperim.perimeter import DEFAULT_MARGIN
    e = args[0]
    margin = args[2] if len(args) > 2 else kwargs.get("bounding_margin", DEFAULT_MARGIN)
    box = math.prod(hi - lo + 1 + 2 * margin for lo, hi in e.bounding_cells())
    return {"cells": e.cell_count, "box_cells": box}


def _poisson_counts(args, kwargs, result) -> dict:
    grid = args[1]
    levels = grid.level_count
    points = math.prod(grid.base.cells)
    return {"levels": levels, "field_mb": levels * points * 8 / 2**20,
            "fft_points": levels * _fft_points(grid.base.cells)}


# Work counts taken after a call returns, outside its span.  Counts other
# than "cells" of rasterize are computed from array sizes.
COUNTERS = {
    "shapes.rasterize": lambda a, k, r: {"cells": r.cell_count},
    "kernels.build_table": lambda a, k, r: {"entries": len(r.entries)},
    "perimeter.fractional_perimeter": _perimeter_counts,
    "perimeter.gagliardo_seminorm":
        lambda a, k, r: {"pairs": int((a[0].values != 0).sum()) ** 2},
    "rearrange.symmetric_rearrangement":
        lambda a, k, r: {"cells": int(a[0].values.size)},
    "extension.poisson_extend": _poisson_counts,
    # for pool_util, not reported itself
    "experiments.sweep_s": lambda a, k, r: {"threads": a[0].threads},
}

# Metric name suffixes reported per function, besides calls and self_s.
EXTRA = {
    "shapes.rasterize": ("cells",),
    "kernels.build_table": ("entries",),
    "perimeter.fractional_perimeter": ("cells", "box_cells", "cells_per_s"),
    "perimeter.gagliardo_seminorm": ("pairs",),
    "rearrange.symmetric_rearrangement": ("cells",),
    "extension.poisson_extend": ("levels", "field_mb", "fft_points"),
}


@dataclass
class Span:
    span_id: int
    name: str
    start: int
    end: int
    parent: int | None
    thread: int
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder.

    Ops run one at a time on the thread that opens them.  A span that
    starts on another thread with nothing open there (a pool worker) hangs
    under the innermost span open on the op's thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, name, parent, time.perf_counter_ns()

    def end(self, token: tuple) -> Span:
        end = time.perf_counter_ns()
        span_id, name, parent, start = token
        self._stack().pop()
        span = Span(span_id, name, start, end, parent, threading.get_ident(),
                    self._op)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def op(self, op_id: int, label: str):
        """Root span of one op, opened on the calling thread."""
        self._op = op_id
        self._op_stack = self._stack()
        token = self.begin(f"op:{label}")
        try:
            yield
        finally:
            self.end(token)


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.end(token)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every listed function wherever a fracperim module binds it."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "fracperim" or key.startswith("fracperim."))]
    for mod_name, names in FUNCTIONS.items():
        home = sys.modules[f"fracperim.{mod_name}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapped = _wrap(tracer, f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        setattr(mod, attr, wrapped)


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> seconds of its interval not covered by its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end))
                for lo, hi in children.get(s.span_id, ())]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        out[s.span_id] = (s.end - s.start - _covered(kids)) * 1e-9
    return out


def layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    units = {"calls": "count", "self_s": "s", "cells": "count",
             "entries": "count", "box_cells": "count", "cells_per_s": "1/s",
             "pairs": "count", "levels": "count", "field_mb": "MB",
             "fft_points": "count"}
    out = []
    for mod_name, names in FUNCTIONS.items():
        for fn_name in names:
            fn = f"{mod_name}.{fn_name}"
            for stat in ("calls", "self_s") + EXTRA.get(fn, ()):
                out.append((f"{fn}.{stat}", units[stat]))
    out += [("experiments.pool_util", "share"), ("process.cpu_s", "s"),
            ("process.cpu_util", "share"), ("trace.overhead_s", "s")]
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function calls, self time and summed work counts."""
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    values: dict[str, float] = collections.defaultdict(int)
    busy = capacity = 0.0
    for s in spans:
        seconds = (s.end - s.start) * 1e-9
        parent = by_id.get(s.parent)
        # pool_util: time of sweep_s's children on pool threads, over
        # threads x the sweep_s wall time
        if parent is not None and parent.name == "experiments.sweep_s" \
                and s.thread != parent.thread:
            busy += seconds
        if s.name == "experiments.sweep_s":
            capacity += s.counts["threads"] * seconds
        if s.name.startswith("op:"):
            continue
        values[f"{s.name}.calls"] += 1
        values[f"{s.name}.self_s"] += selfs[s.span_id]
        values[f"{s.name}.seconds"] += seconds
        for key, val in s.counts.items():
            values[f"{s.name}.{key}"] += val
    fp_name = "perimeter.fractional_perimeter"
    if values[f"{fp_name}.seconds"]:
        values[f"{fp_name}.cells_per_s"] = values[f"{fp_name}.cells"] / values[f"{fp_name}.seconds"]
    if capacity:
        values["experiments.pool_util"] = busy / capacity
    reported = {name for name, _ in layer_names()}
    return {k: v for k, v in values.items() if k in reported}
