"""Self-tests of the benchmark's own logic (not of the program it runs).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from clock import REFERENCE_CPU_S, Clock, Sample  # noqa: E402
from common import percentile, use_checkout_source  # noqa: E402

use_checkout_source()

import paper  # noqa: E402
import serve_mix  # noqa: E402
from serve_mix import StepResult, make_schedule, max_rate_at_slo, slo_factor  # noqa: E402
from spans import Span, Tracer, covered_length, engine_times, self_time_by_name, self_times  # noqa: E402


# -- seeded inputs --------------------------------------------------------------


def test_paper_inputs_repeat_for_a_seed_and_change_with_it():
    first = paper.make_inputs(7, rows=2, steps=5)
    again = paper.make_inputs(7, rows=2, steps=5)
    other = paper.make_inputs(8, rows=2, steps=5)
    for name in paper.NETWORKS:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first[name], again[name]))
        assert not any(np.array_equal(a, b) for a, b in zip(first[name], other[name]))


def test_paper_inputs_are_correlated_frames():
    x = paper.make_inputs(3, rows=4, steps=400)["deepspeech2"][0]
    lag1 = np.mean(x[:, 1:] * x[:, :-1]) / np.mean(x * x)
    assert abs(lag1 - paper.RHO) < 0.05


def test_schedule_repeats_for_a_seed_and_changes_with_it():
    first = make_schedule(11, 20, utterances=24, frames=80)
    assert first == make_schedule(11, 20, utterances=24, frames=80)
    other = make_schedule(12, 20, utterances=24, frames=80)
    assert [e.due for e in first.infer] != [e.due for e in other.infer]
    assert [e.offset for e in first.infer if e.kind == "infer"] != [
        e.offset for e in other.infer if e.kind == "infer"]
    assert [e.utterance for e in first.sessions] != [e.utterance for e in other.sessions]


def test_schedule_shape():
    schedule = make_schedule(5, 20, utterances=24, frames=80)
    for index, step in enumerate(schedule.steps):
        mine = [e for e in schedule.infer if e.kind == "infer" and e.step == index]
        assert len(mine) == round(step.rate * (step.end - step.start)) >= 200
        assert all(step.start <= e.due <= step.end for e in mine)
    for events in (schedule.infer, schedule.sessions):
        assert [e.due for e in events] == sorted(e.due for e in events)
    retunes = [e.theta for e in schedule.infer if e.kind == "retune"]
    assert set(retunes) == set(serve_mix.THETAS)
    # Every session opens, feeds the whole utterance in order, then closes.
    by_session = {}
    for event in schedule.sessions:
        by_session.setdefault(event.session, []).append(event)
    for events in by_session.values():
        assert [e.kind for e in events] == ["open"] + ["chunk"] * 10 + ["close"]
        assert [e.offset for e in events if e.kind == "chunk"] == list(range(0, 80, 8))


# -- reference scaling ---------------------------------------------------------------


class FakeReference:
    """Reports the given kernel times, one per measurement."""

    def __init__(self, times):
        self.times = iter(times)

    def measure(self):
        return next(self.times)


def test_samples_scale_by_the_kernel_times_around_their_group():
    clock = Clock(FakeReference([REFERENCE_CPU_S, REFERENCE_CPU_S, 3 * REFERENCE_CPU_S]))
    samples = []
    assert clock.time(samples, lambda x: x + 1, 1) == 2
    clock.close_group()
    clock.time(samples, lambda: None)
    clock.time(samples, lambda: None)
    clock.close_group()
    assert [s.group for s in samples] == [0, 1, 1]
    assert clock.scale(0) == pytest.approx(1.0)
    # The host ran at half the calibration host's speed around group 1.
    assert clock.scale(1) == pytest.approx(0.5)
    scaled = clock.scaled(samples)
    assert scaled == pytest.approx([samples[0].cpu, samples[1].cpu / 2, samples[2].cpu / 2])


def test_a_slower_host_leaves_scaled_times_unchanged():
    work = [0.4, 0.7, 0.5]
    for slowdown in (1.0, 1.35):
        clock = Clock(FakeReference([slowdown * REFERENCE_CPU_S] * 4))
        for _ in work:
            clock.close_group()
        # Samples as a host ``slowdown`` times slower would time them.
        samples = [Sample(slowdown * seconds, slowdown * seconds, group)
                   for group, seconds in enumerate(work)]
        assert clock.scaled(samples) == pytest.approx(work)


# -- self time ---------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        Span(1, None, "root", 0.0, 10.0, None, 1),
        Span(2, 1, "a", 1.0, 4.0, None, 1),
        Span(3, 2, "b", 2.0, 3.0, None, 1),
        Span(4, 1, "a", 5.0, 6.0, None, 1),
    ]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert self_time_by_name(spans) == {"root": 6.0, "a": 3.0, "b": 1.0}
    assert math.isclose(sum(own.values()), 10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(1, None, "root", 0.0, 10.0, None, 1),
        Span(2, 1, "a", 2.0, 6.0, None, 2),
        Span(3, 1, "a", 4.0, 8.0, None, 3),
        Span(4, 1, "late", 9.0, 12.0, None, 4),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_engine_times_separate_wraps_inside_retunes():
    spans = [
        Span(1, None, "core.engine.wrap", 0.0, 2.0, None, 1),
        Span(2, None, "core.engine.swap", 3.0, 6.0, None, 1),
        Span(3, 2, "core.engine.wrap", 4.0, 5.0, None, 1),
    ]
    assert engine_times(spans) == {"core.engine.wrap_s": 2.0, "core.engine.swap_s": 3.0}


def test_tracer_links_parents_and_request_ids():
    tracer = Tracer()

    def inner():
        return 1

    def outer(request_id):
        return traced_inner() + 1

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer", request_id_of=lambda rid: rid)
    assert traced_outer("r1") == 2
    assert tracer.spans == []  # inactive: nothing recorded
    tracer.active = True
    traced_outer("r1")
    child, parent = tracer.spans
    assert (child.name, child.parent, child.request_id) == ("inner", parent.id, "r1")
    assert (parent.parent, parent.request_id) == (None, "r1")
    assert parent.start <= child.start <= child.end <= parent.end


# -- the SLO decision ------------------------------------------------------------------


def step(rate, infer_ms, chunk_ms=(), late_ms=None, achieved=None):
    return StepResult(rate, list(infer_ms), list(chunk_ms),
                      list(late_ms if late_ms is not None else [0.0] * len(infer_ms)),
                      achieved if achieved is not None else rate - 0.5)


def test_percentile_leaves_ten_samples_beyond_p95_of_200():
    values = list(range(200))
    p95 = percentile(values, 95)
    assert sum(v > p95 for v in values) == 10
    assert percentile([3.0, 1.0, float("inf")], 50) == 3.0


INFER_LIMIT = serve_mix.INFER_LIMIT_MS
CHUNK_LIMIT = 1000 * serve_mix.CHUNK_PERIOD_S


def test_slo_factor_takes_the_tightest_limit():
    fast = [5.0] * 180 + [0.8 * INFER_LIMIT] * 20
    assert slo_factor(step(40, fast, chunk_ms=[10.0] * 50)) == pytest.approx(0.8)
    slow_tail = [5.0] * 180 + [1.2 * INFER_LIMIT] * 20
    assert slo_factor(step(40, slow_tail)) == pytest.approx(1.2)
    late_chunks = [1.1 * CHUNK_LIMIT] * 50
    assert slo_factor(step(40, fast, chunk_ms=late_chunks)) == pytest.approx(1.1)
    # A failed request counts as missing the limit.
    failed = [5.0] * 180 + [float("inf")] * 20
    assert slo_factor(step(40, failed)) == float("inf")


def test_a_growing_backlog_breaks_the_slo_even_when_p95_passes():
    steady = [1.0, 3.0] * 100
    assert slo_factor(step(40, [5.0] * 200, late_ms=steady)) < 1
    # The last 20 sends are ever later; the (nearest-rank) median of
    # their lateness, 189 ms, is set against half the infer limit.
    growing = [float(i) for i in range(200)]
    assert slo_factor(step(40, [5.0] * 200, late_ms=growing)) == pytest.approx(
        189.0 / (INFER_LIMIT / 2))


def test_max_rate_is_the_achieved_rate_of_the_highest_passing_rate():
    ok = [0.5 * INFER_LIMIT] * 200
    bad = [3.0 * INFER_LIMIT] * 200
    steps = [step(25, ok, achieved=24.9), step(40, ok, achieved=39.8), step(200, bad)]
    assert max_rate_at_slo(steps) == 39.8
    # A failed request breaks the SLO at its rate.
    steps[1] = step(40, ok[:189] + [float("inf")] * 11)
    assert max_rate_at_slo(steps) == 24.9
    assert max_rate_at_slo([step(25, bad)]) == 0.0
