"""Outside-in span tracing for the benchmark's traced runs.

The tracer wraps public functions of the ``repro`` layers from here, in
the benchmark's own files: nothing under ``src/`` knows it is being
traced.  Each call of a wrapped function becomes one span
``(id, parent, name, start, end, request_id, thread)``; spans stay in
memory and are written out once, at the end of the run.

Self time is a span's duration minus the part of its interval covered
by its child spans, so the self times of one span tree add up to the
root's duration.

Wrappers check :attr:`Tracer.active` first, so a run can interleave
traced and untraced calls through the same installed wrappers and
report the tracing overhead as their ratio.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    request_id: Optional[str]
    thread: int


class Tracer:
    """Collects spans from wrapped functions, in memory."""

    def __init__(self, active: bool = False):
        self.active = active
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        request_id_of: Optional[Callable[..., Optional[str]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call while the tracer is active.

        ``request_id_of(*args, **kwargs)`` marks the call as a request
        root: its id is attached to this span and to every span opened
        beneath it on the same thread.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            outer_rid = getattr(local, "request_id", None)
            rid = request_id_of(*args, **kwargs) if request_id_of else outer_rid
            local.request_id = rid
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                local.request_id = outer_rid
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, rid,
                         threading.get_ident())
                )

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner: object, attr: str, name: str,
              request_id_of: Optional[Callable[..., Optional[str]]] = None) -> None:
        """Replace ``owner.attr`` with its traced version (undone by
        :meth:`uninstall`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, request_id_of))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [list(span) for span in self.spans]}, handle)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)["spans"]]


# -- the layers a traced run times ------------------------------------------

#: Span names of the timed layers and the per-layer metric each feeds.
#: ``core.hook`` covers both ``MemoizedRecurrentLayer.step`` and
#: ``.on_gates``; the engine spans are reported inclusive, not as self
#: time (see :func:`engine_times`).
LAYER_SPANS = {
    "nn.gemm": "nn.gemm_s",
    "nn.cell": "nn.cell_other_s",
    "core.predict": "core.predict_s",
    "core.pack_signs": "core.pack_signs_s",
    "core.hook": "core.hook_s",
    "core.stats": "core.stats_s",
    "core.substitute": "core.substitute_s",
    "models.head": "models.head_s",
}


def install_repro_wrappers(tracer: Tracer) -> None:
    """Wrap the public functions of every timed ``repro`` layer."""
    from repro.core import engine, layers, memo, predictors, stats
    from repro.nn.cells import GatedCell
    from repro.nn.rnn import RNNStack
    from repro.obs import REQUEST_ID_HEADER, ensure_request_id
    from repro.runner.transport.http_common import JsonApiHandler
    from repro.serve import state

    tracer.patch(GatedCell, "phase_preacts", "nn.gemm")
    for cell in _subclasses(GatedCell):
        if "step_hooked" in cell.__dict__:
            tracer.patch(cell, "step_hooked", "nn.cell")
    for predictor in _subclasses(predictors.GatePredictor):
        if "predict_many" in predictor.__dict__:
            tracer.patch(predictor, "predict_many", "core.predict")
    tracer.patch(layers, "pack_signs", "core.pack_signs")
    tracer.patch(layers.MemoizedRecurrentLayer, "step", "core.hook")
    tracer.patch(layers.MemoizedRecurrentLayer, "on_gates", "core.hook")
    for recorder in (stats.ReuseStats, *_subclasses(stats.ReuseStats)):
        if "record" in recorder.__dict__:
            tracer.patch(recorder, "record", "core.stats")
    tracer.patch(memo.MemoTable, "substitute", "core.substitute")
    # The serve tier imported the engine entry points by name, so both
    # bindings are wrapped.
    for module in (engine, state):
        tracer.patch(module, "apply_memoization", "core.engine.wrap")
        tracer.patch(module, "swap_scheme", "core.engine.swap")
    tracer.patch(RNNStack, "__call__", "models.stack")
    tracer.patch(state.TaskAdapter, "infer", "models.head")
    tracer.patch(state.ServeState, "infer", "serve.infer")
    tracer.patch(state.ServeState, "session_feed", "serve.session_feed")
    tracer.patch(state.ServeState, "retune", "serve.retune")
    tracer.patch(
        JsonApiHandler,
        "_dispatch",
        "serve.request",
        request_id_of=lambda handler, method: ensure_request_id(
            handler.headers.get(REQUEST_ID_HEADER)
        ),
    )


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# -- arithmetic over spans ---------------------------------------------------


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover
    (children clipped to the parent's interval)."""
    spans = list(spans)
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        ]
        covered = covered_length([c for c in clipped if c[1] > c[0]])
        result[span.id] = (span.end - span.start) - covered
    return result


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def descendants(spans: Iterable[Span], root_ids: Iterable[int]) -> List[Span]:
    """The spans under (and including) the given roots."""
    spans = list(spans)
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    by_id = {}
    for span in spans:
        children[span.parent].append(span)
        by_id[span.id] = span
    found, todo = [], [by_id[i] for i in root_ids if i in by_id]
    while todo:
        span = todo.pop()
        found.append(span)
        todo.extend(children.get(span.id, ()))
    return found


def engine_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Mean inclusive seconds per ``apply_memoization`` call made outside
    a retune (``core.engine.wrap_s``) and per ``swap_scheme`` call
    (``core.engine.swap_s``)."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}

    def inside_swap(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == "core.engine.swap":
                return True
            parent = by_id.get(parent.parent)
        return False

    wraps = [s.end - s.start for s in spans
             if s.name == "core.engine.wrap" and not inside_swap(s)]
    swaps = [s.end - s.start for s in spans if s.name == "core.engine.swap"]
    return {
        "core.engine.wrap_s": sum(wraps) / len(wraps) if wraps else 0.0,
        "core.engine.swap_s": sum(swaps) / len(swaps) if swaps else 0.0,
    }


def layer_metrics(spans: Iterable[Span], rows: int) -> Dict[str, float]:
    """Per-layer self seconds per row of memoized work."""
    totals = self_time_by_name(spans)
    return {
        metric: totals.get(name, 0.0) / max(rows, 1)
        for name, metric in LAYER_SPANS.items()
    }
