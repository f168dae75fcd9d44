"""Throughput trajectory of the vectorized memoization engine.

Times the four Table 1 networks' recurrent stacks — at their *paper*
gate geometries (cell type, neurons per layer/direction, layer widths) —
under fuzzy memoization in both engine modes:

- ``scalar``: the per-gate reference path (one predictor and one memo
  per gate, the BNN evaluated by ±1 matmul);
- ``vectorized``: the batched fast path (phase-stacked predictors,
  uint64-packed sign words, contiguous memo tables).

Both modes run the same weights on the same inputs and are asserted
bitwise identical (outputs and reuse counts).  Results are written to
``BENCH_eval.json`` at the repo root so the speedup trajectory is pinned
in-tree; CI re-runs this bench and uploads the file as an artifact.

Workload notes:

- The stack depth is capped (``layers_measured`` vs ``layers_paper`` in
  the JSON) to bound bench memory and runtime; per-layer-timestep cost
  is depth-independent, so the speedup is representative of the full
  stack.
- Weights are freshly initialised, not trained: the functional
  simulator's cost per timestep does not depend on weight values (reuse
  substitution is a masked copy either way), so throughput — the
  quantity this bench pins — is measured faithfully.  Quality under
  memoization is pinned elsewhere (golden suite, figure benches).
- ``REPRO_BENCH_EVAL_MIN_SPEEDUP`` overrides the final assertion's
  speedup floor (default 3.0; set to ``0`` to disable, e.g. on a noisy
  host).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.engine import MemoizationScheme, apply_memoization, restore
from repro.core.stats import ReuseStats
from repro.models.specs import BENCHMARK_NAMES, PAPER_NETWORKS, NetworkSpec
from repro.nn import Bidirectional, GRULayer, LSTMLayer, RNNStack

Array = np.ndarray

#: Fixed tiny sweep: one batched forward pass per (network, mode).
BATCH, TIMESTEPS = 16, 16
THETA = 0.3
PREDICTOR = "bnn"

#: Directional-layer cap per network (memory/runtime bound; the JSON
#: records both the measured and the paper depth).
DEPTH_CAP = 4

MODES = ("scalar", "vectorized")

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval.json"


def _build_stack(spec: NetworkSpec, depth_cap: int = DEPTH_CAP) -> Tuple[RNNStack, int]:
    """The spec's recurrent stack at paper geometry, depth-capped.

    Returns ``(stack, directional_layers)``.
    """
    rng = np.random.default_rng(7)
    widths = spec.layer_input_sizes()
    if spec.bidirectional:
        pair_widths = widths[::2][: depth_cap // 2]
        maker = Bidirectional.lstm if spec.cell_type == "lstm" else Bidirectional.gru
        layers = [maker(w, spec.neurons, rng=rng) for w in pair_widths]
        return RNNStack(layers), 2 * len(layers)
    maker = LSTMLayer if spec.cell_type == "lstm" else GRULayer
    layers = [maker(w, spec.neurons, rng=rng) for w in widths[:depth_cap]]
    return RNNStack(layers), len(layers)


class _Run:
    """One (network, mode) measurement: median seconds + outputs + stats."""

    def __init__(self, seconds: float, outputs: Array, stats: ReuseStats):
        self.seconds = seconds
        self.outputs = outputs
        self.reused = dict(stats.reused)
        self.total = dict(stats.total)


#: (network, mode) -> _Run, filled by the throughput tests and consumed
#: by the equivalence/trajectory tests and the module-teardown report.
_runs: Dict[Tuple[str, str], _Run] = {}

#: Single-network stack cache (LRU of one: the big stacks would otherwise
#: accumulate to ~0.5 GB of weights across the parametrised run).
_stack_cache: Dict[str, Tuple[RNNStack, int, Array]] = {}


def _network_workload(name: str) -> Tuple[RNNStack, int, Array]:
    if name not in _stack_cache:
        _stack_cache.clear()
        spec = PAPER_NETWORKS[name]
        stack, directional = _build_stack(spec)
        rng = np.random.default_rng(11)
        inputs = rng.standard_normal((BATCH, TIMESTEPS, spec.input_size))
        _stack_cache[name] = (stack, directional, inputs)
    return _stack_cache[name]


def _throughput(run: _Run, directional_layers: int) -> Dict[str, float]:
    layer_timesteps = BATCH * TIMESTEPS * directional_layers
    return {
        "seconds": run.seconds,
        "points_per_sec": BATCH / run.seconds,
        "timesteps_per_sec": layer_timesteps / run.seconds,
    }


@pytest.fixture(scope="module")
def eval_report():
    """Collects per-(network, mode) runs; writes BENCH_eval.json last."""
    yield _runs
    networks = {}
    for name in BENCHMARK_NAMES:
        scalar = _runs.get((name, "scalar"))
        vectorized = _runs.get((name, "vectorized"))
        if scalar is None or vectorized is None:
            continue
        spec = PAPER_NETWORKS[name]
        _, directional, _ = _network_workload(name)
        networks[name] = {
            "cell_type": spec.cell_type,
            "neurons": spec.neurons,
            "bidirectional": spec.bidirectional,
            "layers_paper": spec.layers,
            "layers_measured": directional,
            "rows": BATCH,
            "layer_timesteps": BATCH * TIMESTEPS * directional,
            "scalar": _throughput(scalar, directional),
            "vectorized": _throughput(vectorized, directional),
            "speedup": scalar.seconds / vectorized.seconds,
            "bitwise_equal": bool(
                np.array_equal(scalar.outputs, vectorized.outputs)
                and scalar.reused == vectorized.reused
                and scalar.total == vectorized.total
            ),
        }
    if not networks:
        return
    report = {
        "scale": "paper-geometry",
        "theta": THETA,
        "predictor": PREDICTOR,
        "batch": BATCH,
        "timesteps": TIMESTEPS,
        "networks": networks,
        "max_speedup": max(n["speedup"] for n in networks.values()),
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_throughput(benchmark, eval_report, name, mode):
    stack, directional, inputs = _network_workload(name)
    scheme = MemoizationScheme(
        theta=THETA, predictor=PREDICTOR, vectorized=(mode == "vectorized")
    )
    stats = ReuseStats()
    replacements = apply_memoization(stack, scheme, stats)
    outputs: List[Array] = []
    try:

        def run():
            stats.reset()
            outputs.append(stack(inputs))

        benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    finally:
        restore(replacements)
    seconds = benchmark.stats["median"]
    eval_report[(name, mode)] = _Run(seconds, outputs[-1], stats)
    benchmark.extra_info["points_per_sec"] = BATCH / seconds
    benchmark.extra_info["timesteps_per_sec"] = (
        BATCH * TIMESTEPS * directional / seconds
    )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_modes_bitwise_equal(benchmark, eval_report, name):
    """The two engine modes must agree bitwise on outputs and reuse."""
    scalar = eval_report.get((name, "scalar"))
    vectorized = eval_report.get((name, "vectorized"))
    if scalar is None or vectorized is None:
        pytest.skip("throughput tests did not run for this network")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    np.testing.assert_array_equal(scalar.outputs, vectorized.outputs)
    assert scalar.reused == vectorized.reused
    assert scalar.total == vectorized.total


def test_speedup_trajectory(benchmark, eval_report):
    """The vectorized engine must clear the pinned speedup floor."""
    floor = float(os.environ.get("REPRO_BENCH_EVAL_MIN_SPEEDUP", "3.0"))
    speedups = {
        name: eval_report[(name, "scalar")].seconds
        / eval_report[(name, "vectorized")].seconds
        for name in BENCHMARK_NAMES
        if (name, "scalar") in eval_report and (name, "vectorized") in eval_report
    }
    if not speedups:
        pytest.skip("no throughput measurements collected")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{name:12s} {ratio:5.2f}x" for name, ratio in speedups.items()]
    print("\n=== vectorized speedup over scalar ===\n" + "\n".join(lines))
    benchmark.extra_info["speedups"] = speedups
    assert max(speedups.values()) >= floor, (
        f"vectorized engine only reaches {max(speedups.values()):.2f}x "
        f"(floor {floor}x) — see BENCH_eval.json"
    )
