"""``paper_b16`` and ``paper_b1``: memoized vs plain forward at paper widths.

Two directional layers each of DeepSpeech2's GRU-800 and MNMT's
LSTM-1024 (Table 1 widths), weights from a fixed seed, BNN predictor
with throttling at theta = 0.3.  Inputs are AR(1) sequences (rho = 0.9)
drawn from the workload seed: consecutive frames are correlated the way
speech features and embeddings are, which gives 23-25% reuse, inside
the paper's 16-36% range (i.i.d. inputs give only 13-14%).

- ``paper_b16`` (16 rows, 16 steps) is the throughput regime: the
  predictor is about half of memoized time and masks are unioned over
  16 rows, so a skip-compute change should show no gain here.
- ``paper_b1`` (1 row, 64 steps) is the streaming regime: GEMMs are
  most of memoized time, so skip-compute or predict-before-compute
  shows here and nowhere else.

Each round of the timed loop runs one memoized forward of a batch
through both stacks and the plain forward of the same stacks on the
same inputs (alternating which goes first), then, on alternate rounds,
either streams the batch through the wrappers' ``step`` API in chunks
of 8 timesteps or retunes both wrapped stacks to another threshold and
back with ``swap_scheme``.  A round takes 2-4.5 s, so a run reports
medians only: a p95 over a run's 8-20 calls would be its slowest call.

Every timed operation is timed on the benchmark thread's CPU clock and
scaled to a reference host speed (see ``clock.py``): on a shared VM
wall-clock medians moved by up to 40% between runs of the same code.
Wall times are kept beside them and printed, ungated.
"""

from __future__ import annotations

import gc
import warnings
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from clock import REFERENCE_CPU_S, Clock, Reference, Sample
from common import Outcome, median
from spans import (LAYER_SPANS, Tracer, descendants, engine_times,
                   install_repro_wrappers, layer_metrics, self_time_by_name)

from repro.accel.config import EPURConfig
from repro.accel.timing import baseline_timing, memoized_timing
from repro.accel.trace import ReuseTrace
from repro.core import engine
from repro.core.engine import MemoizationScheme, memoized
from repro.core.stats import ReuseStats
from repro.models.specs import PAPER_NETWORKS
from repro.nn.gru import GRULayer
from repro.nn.lstm import LSTMLayer
from repro.nn.module import clone_with_shared_parameters
from repro.nn.rnn import RNNStack

Array = np.ndarray

#: ``(rows, timesteps)`` of one inference, per workload.
SHAPES = {"paper_b16": (16, 16), "paper_b1": (1, 64)}
NETWORKS = ("deepspeech2", "mnmt")
LAYERS_PER_NETWORK = 2
WEIGHT_SEED = 0
THETA = 0.3
RETUNE_THETA = 0.5
RHO = 0.9
CHUNK_STEPS = 8
#: Distinct input batches cycled through by the timed loop.
INPUT_BATCHES = 4
SETUP_REPEATS = 3
#: Untimed slice checked against the reference path: rows x steps.
SLICE = (2, 8)
#: Share of the traced memoized forward the timed layers' self times
#: must add up to; the rest is glue outside any named layer.
MIN_COVERAGE = 0.9


def ar1_sequences(rng: np.random.Generator, rows: int, steps: int,
                  width: int) -> Array:
    """``(rows, steps, width)`` AR(1) frames with unit stationary variance."""
    x = np.empty((rows, steps, width))
    x[:, 0] = rng.standard_normal((rows, width))
    scale = np.sqrt(1.0 - RHO * RHO)
    for t in range(1, steps):
        x[:, t] = RHO * x[:, t - 1] + scale * rng.standard_normal((rows, width))
    return x


def make_inputs(seed: int, rows: int, steps: int) -> Dict[str, List[Array]]:
    """The workload's input batches, per network, from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    return {
        name: [ar1_sequences(rng, rows, steps, PAPER_NETWORKS[name].input_size)
               for _ in range(INPUT_BATCHES)]
        for name in NETWORKS
    }


class PaperStacks:
    """One set-up: plain stacks, memoized clones sharing their weights,
    and the workload's inputs."""

    def __init__(self, seed: int, rows: int, steps: int):
        rng = np.random.default_rng(WEIGHT_SEED)
        self.scheme = MemoizationScheme(theta=THETA)
        self.plain: Dict[str, RNNStack] = {}
        self.memo: Dict[str, RNNStack] = {}
        self.stats: Dict[str, ReuseStats] = {}
        self.replacements = {}
        for name in NETWORKS:
            spec = PAPER_NETWORKS[name]
            layer = GRULayer if spec.cell_type == "gru" else LSTMLayer
            stack = RNNStack([
                layer(spec.input_size if i == 0 else spec.neurons, spec.neurons, rng=rng)
                for i in range(LAYERS_PER_NETWORK)
            ])
            self.plain[name] = stack
            self.memo[name] = clone_with_shared_parameters(stack)
            self.stats[name] = ReuseStats()
            self.replacements[name] = engine.apply_memoization(
                self.memo[name], self.scheme, self.stats[name]
            )
        self.inputs = make_inputs(seed, rows, steps)

    def memo_forward(self, k: int) -> Dict[str, Array]:
        return {name: self.memo[name](self.inputs[name][k]) for name in NETWORKS}

    def plain_forward(self, k: int) -> Dict[str, Array]:
        return {name: self.plain[name](self.inputs[name][k]) for name in NETWORKS}

    def memo_stream(self, k: int, clock: Clock, samples: List[Sample]) -> Dict[str, Array]:
        """Feed batch ``k`` through the wrappers' ``step`` API in chunks
        of :data:`CHUNK_STEPS`, timing each chunk into ``samples``;
        returns the outputs."""
        wrappers = {name: self.memo[name].layers for name in NETWORKS}
        states = {name: [w.start_state(self.inputs[name][k].shape[0])
                         for w in wrappers[name]] for name in NETWORKS}
        steps = self.inputs[NETWORKS[0]][k].shape[1]
        outputs = {name: [] for name in NETWORKS}

        def chunk(first: int) -> None:
            for name in NETWORKS:
                hidden = self.inputs[name][k][:, first:first + CHUNK_STEPS]
                for index, wrapper in enumerate(wrappers[name]):
                    out = np.empty(hidden.shape[:2] + (wrapper.hidden_size,))
                    state = states[name][index]
                    for t in range(hidden.shape[1]):
                        out[:, t], state = wrapper.step(hidden[:, t], state)
                    states[name][index] = state
                    hidden = out
                outputs[name].append(hidden)

        for first in range(0, steps, CHUNK_STEPS):
            clock.time(samples, chunk, first)
        return {name: np.concatenate(outputs[name], axis=1) for name in NETWORKS}

    def retune(self, old: MemoizationScheme, new: MemoizationScheme) -> None:
        for name in NETWORKS:
            engine.swap_scheme(self.memo[name], self.replacements[name], old, new,
                               self.stats[name])

    def snapshot_stats(self) -> Dict[str, ReuseStats]:
        return {name: ReuseStats.merged([stats]) for name, stats in self.stats.items()}


def same(a: Dict[str, Array], b: Dict[str, Array]) -> bool:
    return all(a[name].tobytes() == b[name].tobytes() for name in NETWORKS)


def reference_check(stacks: PaperStacks, warm: Dict[str, Array],
                    outcome: Outcome) -> None:
    """Memoized outputs and reuse counts on a small untimed slice must be
    bitwise those of the repo's independent reference path
    (``vectorized=False``), and the timed batch's rows must equal it."""
    rows, steps = SLICE
    for name in NETWORKS:
        x = stacks.inputs[name][0][:rows, :steps]
        results = []
        for vectorized in (False, True):
            model = clone_with_shared_parameters(stacks.plain[name])
            stats = ReuseStats()
            with warnings.catch_warnings():
                # The reference path drives the deprecated per-gate API.
                warnings.simplefilter("ignore", DeprecationWarning)
                with memoized(model, MemoizationScheme(theta=THETA, vectorized=vectorized),
                              stats):
                    results.append((model(x), stats))
        (ref, ref_stats), (vec, vec_stats) = results
        outcome.check(ref.tobytes() == vec.tobytes(),
                      f"{name}: memoized slice differs from the reference path")
        outcome.check(ref_stats.reused == vec_stats.reused
                      and ref_stats.total == vec_stats.total,
                      f"{name}: reuse counts differ from the reference path")
        outcome.check(warm[name][:rows, :steps].tobytes() == vec.tobytes(),
                      f"{name}: timed batch rows differ from the slice")


def modeled_speedup(stats: Dict[str, ReuseStats]) -> float:
    """E-PUR+BM over E-PUR cycles for both paper networks at the measured
    per-layer reuse (the ``repro.accel`` model, not a measurement)."""
    config = EPURConfig()
    base = memo = 0
    for name in NETWORKS:
        spec = PAPER_NETWORKS[name]
        base += baseline_timing(spec, config).total_cycles
        memo += memoized_timing(spec, config,
                                ReuseTrace.from_stats(stats[name], spec)).total_cycles
    return base / memo


def set_up(seed: int, rows: int, steps: int, repeats: int,
           clock: Clock) -> Tuple[PaperStacks, List[Sample]]:
    """Build the stacks ``repeats`` times (the last one is kept)."""
    stacks, samples = None, []
    for _ in range(repeats):
        stacks = None
        gc.collect()
        stacks = clock.time(samples, PaperStacks, seed, rows, steps)
        clock.close_group()
    return stacks, samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, float], Outcome, Dict[str, object]]:
    rows, steps = SHAPES[workload]
    outcome = Outcome()
    tracer = Tracer()
    clock = Clock(Reference(rows, steps // 2))
    if trace:
        install_repro_wrappers(tracer)
        tracer.active = True
    stacks, setup_samples = set_up(seed, rows, steps, 1 if trace else SETUP_REPEATS, clock)
    tracer.active = False

    warm = stacks.memo_forward(0)  # untimed: lets allocations settle
    warm_stats = stacks.snapshot_stats()
    reuse = ReuseStats.merged(list(warm_stats.values())).reuse_fraction()
    memo_ref: Dict[int, Dict[str, Array]] = {0: warm}
    plain_ref: Dict[int, Dict[str, Array]] = {}

    memo_samples: List[Sample] = []
    traced_samples: List[Sample] = []
    plain_samples: List[Sample] = []
    chunk_samples: List[Sample] = []
    retune_samples: List[Sample] = []
    traced_roots: List[int] = []

    def timed_memo(k: int, traced: bool = False) -> None:
        tracer.active = traced
        if traced:
            out = clock.time(traced_samples, tracer.span, "bench.memo_forward",
                             stacks.memo_forward, k)
            traced_roots.append(tracer.spans[-1].id)
        else:
            out = clock.time(memo_samples, stacks.memo_forward, k)
        tracer.active = False
        clock.close_group()
        expected = memo_ref.setdefault(k, out)
        outcome.count(True)
        outcome.check(same(out, expected), f"batch {k}: memoized output changed between calls")

    schemes = (stacks.scheme, stacks.scheme.with_theta(RETUNE_THETA))

    def retune_pair() -> None:
        for old, new in (schemes, schemes[::-1]):
            stacks.retune(old, new)

    def timed_retunes(traced: bool = False) -> None:
        """Retune to the other threshold and back, as one sample: the two
        directions cost differently (about 0.49 and 0.38 s), so a median
        over single swaps would sit in the gap between them."""
        tracer.active = traced
        clock.time(retune_samples, retune_pair)
        tracer.active = False
        clock.close_group()
        outcome.count(True, attempted=2)

    def timed_plain(k: int) -> None:
        out = clock.time(plain_samples, stacks.plain_forward, k)
        clock.close_group()
        expected = plain_ref.setdefault(k, out)
        outcome.count(True)
        outcome.check(same(out, expected), f"batch {k}: plain output changed between calls")

    deadline = perf_counter() + seconds
    round_index = 0
    while round_index < 2 or perf_counter() < deadline:
        k = round_index % INPUT_BATCHES
        if trace:
            timed_memo(k, traced=True)
            timed_memo(k)
            timed_plain(k)
        else:
            # Alternate which mode runs first so neither always runs warm.
            if round_index % 2:
                timed_plain(k)
                timed_memo(k)
            else:
                timed_memo(k)
                timed_plain(k)
            # Streaming and retuning take turns, so the forward calls,
            # the noisiest metrics, get more of the run.
            if round_index % 2:
                timed_retunes()
            else:
                chunks = len(chunk_samples)
                streamed = stacks.memo_stream(k, clock, chunk_samples)
                clock.close_group()
                outcome.count(True, attempted=len(chunk_samples) - chunks)
                outcome.check(same(streamed, memo_ref[k]),
                              f"batch {k}: streamed chunks differ from the batch forward")
        round_index += 1

    if trace:
        timed_retunes(traced=True)
    outcome.check(same(stacks.memo_forward(0), warm),
                  "memoized output changed after retuning back to theta=0.3")
    reference_check(stacks, warm, outcome)

    def scaled_median(samples: List[Sample]) -> float:
        return median(clock.scaled(samples))

    def wall_median(samples: List[Sample]) -> float:
        return median([sample.wall for sample in samples])

    overhead_vs_plain = scaled_median(memo_samples) / scaled_median(plain_samples)
    timed_ops = setup_samples + memo_samples + plain_samples + chunk_samples + retune_samples
    info = {
        "rows_per_inference": rows,
        "timesteps": steps,
        "theta": THETA,
        "memo_calls": len(memo_samples),
        "plain_calls": len(plain_samples),
        "chunks": len(chunk_samples),
        "retune_pairs": len(retune_samples),
        # How much of the timed operations' wall time this thread ran.
        "cpu_over_wall": (sum(sample.cpu for sample in timed_ops)
                          / sum(sample.wall for sample in timed_ops)),
        # The reference kernel's speed against the calibration host's.
        "host_speed": REFERENCE_CPU_S / median(clock.references),
        "reference_runs": len(clock.references),
        "core.reuse_fraction": reuse,
        "core.overhead_vs_plain": overhead_vs_plain,
        "accel.modeled_speedup (modeled, not measured)": modeled_speedup(warm_stats),
    }
    if not trace:
        metrics = {
            "setup_s": scaled_median(setup_samples),
            "memo_rows_per_s": rows / scaled_median(memo_samples),
            "plain_rows_per_s": rows / scaled_median(plain_samples),
            "chunk_p50_ms": 1000 * scaled_median(chunk_samples),
            "retune_p50_ms": 1000 * scaled_median(retune_samples) / 2,
        }
        wall = {
            "setup_wall_s": (wall_median(setup_samples), "s"),
            "memo_rows_per_wall_s": (rows / wall_median(memo_samples), "1/s"),
            "plain_rows_per_wall_s": (rows / wall_median(plain_samples), "1/s"),
            "chunk_wall_p50_ms": (1000 * wall_median(chunk_samples), "ms"),
            "retune_wall_p50_ms": (1000 * wall_median(retune_samples) / 2, "ms"),
        }
        info["ungated_metrics"] = {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in wall.items()}
        return metrics, outcome, info

    traced_times = [sample.wall for sample in traced_samples]  # the spans' clock
    tree = descendants(tracer.spans, traced_roots)
    by_name = self_time_by_name(tree)
    coverage = sum(by_name.get(name, 0.0) for name in LAYER_SPANS) / sum(traced_times)
    outcome.check(coverage >= MIN_COVERAGE,
                  f"timed layers cover {coverage:.3f} of the traced memoized forward, "
                  f"under {MIN_COVERAGE}")
    metrics = layer_metrics(tree, rows * len(traced_times))
    metrics.update(engine_times(tracer.spans))
    metrics.update({
        "core.reuse_fraction": reuse,
        "core.overhead_vs_plain": overhead_vs_plain,
        "accel.modeled_speedup": info["accel.modeled_speedup (modeled, not measured)"],
        "trace.overhead": median(traced_times) / wall_median(memo_samples),
        "trace.coverage": coverage,
    })
    info["spans"] = len(tracer.spans)
    info["glue_self_s_by_span"] = {
        name: seconds for name, seconds in by_name.items() if name not in LAYER_SPANS
    }
    tracer.uninstall()
    return metrics, outcome, info
