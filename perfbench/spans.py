"""In-memory span recording around linwalk's public functions.

Each layer boundary is a public function wrapped at the module where its
callers look it up (``linwalk.gaits.build_periodicity`` for the calls made
inside ``linwalk.gaits``, and so on).  A span records its name, start, end,
parent span and op id; spans stay in memory and are written out once, at
the end of a run.  A layer's self time is its span's duration minus the
part of that interval its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

# (module looked up in, attribute, layer name).  One layer may be looked up
# in several modules: every lookup site is wrapped under the same name.
LAYERS = (
    ("linwalk.transition", "assemble_double_support", "dynamics.extract"),
    ("linwalk.transition", "assemble_single_support", "dynamics.extract"),
    ("linwalk.analysis", "solve_forces", "dynamics.solve_forces"),
    ("linwalk.transition", "expm", "transition.expm"),
    ("linwalk.transition", "stride_maps", "transition.stride_maps"),
    ("linwalk.gaits", "stride_maps", "transition.stride_maps"),
    ("linwalk.analysis", "stride_maps", "transition.stride_maps"),
    ("linwalk.gaits", "build_periodicity", "gaits.build_periodicity"),
    ("linwalk.gaits", "null_basis", "gaits.null_basis"),
    ("linwalk.gaits", "solve_eqp", "gaits.solve_eqp"),
    ("linwalk.gaits", "synthesize_gait", "gaits.synthesize_gait"),
    ("linwalk.analysis", "synthesize_gait", "gaits.synthesize_gait"),
    ("linwalk.gaits", "find_relax_time", "gaits.find_relax_time"),
    ("linwalk.gaits", "relax_scan", "gaits.relax_scan"),
    ("linwalk.analysis", "economy_surface", "analysis.economy_surface"),
    ("linwalk.analysis", "economy_cell", "analysis.economy_cell"),
    ("linwalk.analysis", "com_work_per_distance", "analysis.work"),
    ("linwalk.analysis", "propagate_states", "analysis.propagate_states"),
    ("linwalk.analysis", "sample_trajectory", "analysis.sample_trajectory"),
    ("linwalk.analysis", "write_trajectory_csv", "analysis.csv"),
    ("linwalk.oracle", "integrate_batch", "oracle.integrate_batch"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into the span list, -1 for a top-level span
    op: int
    error: bool = False


class Tracer:
    """Records spans while ``op`` is set; does nothing while it is None."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


class Wrapped:
    """Installs tracing wrappers on the LAYERS lookup sites; ``restore``
    puts every original back.  A site that no longer exists raises
    AttributeError, after the sites wrapped so far are restored."""

    def __init__(self, tracer: Tracer, layers=LAYERS):
        self.saved: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, name in layers:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self.saved.append((module, attr, original))
                setattr(module, attr, _wrap(tracer, name, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            start, end = max(s.start, p.start), min(s.end, p.end)
            if end > start:
                children[s.parent].append((start, end))
    return [(s.end - s.start) - _union_length(children.get(i, []))
            for i, s in enumerate(spans)]


def layer_table(spans: list[Span],
                names=tuple(name for _, _, name in LAYERS)) -> dict[str, dict[str, float]]:
    """calls, errors, total_s and self_s per layer name; every name in
    `names` has a row, all zeros when it has no span."""
    table = {name: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
             for name in names}
    for s, own in zip(spans, self_times(spans)):
        row = table[s.name]
        row["calls"] += 1
        row["errors"] += int(s.error)
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return table


def top_level_time(spans: list[Span]) -> float:
    """Wall time covered by spans that have no parent span."""
    return _union_length([(s.start, s.end) for s in spans if s.parent < 0])


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of `name` spans with an `ancestor` span above them."""
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        n += p >= 0
    return n
