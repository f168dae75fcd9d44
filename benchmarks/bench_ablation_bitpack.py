"""Ablation: bit-packed XNOR/popcount vs ±1-matmul BNN evaluation.

This measures the functional simulator itself (all paths are bit-exact;
the hardware argument for XNOR/popcount is §2.2).  The geometries are the
ones the vectorized engine actually runs: a whole LSTM gate phase stacked
along the neuron axis, evaluated on a batch of operands.

- ``eesen-b16``: 4 gates x 320 neurons, 640-bit operands, B=16;
- ``mnmt-b16`` and ``mnmt-b1``: the MNMT LSTM-1024 phase, 4 gates x 1024
  neurons, 2048-bit operands (the BDPU's full row width), at B=16 (batch
  throughput) and B=1 (streaming).

Two paths are timed at each geometry:

- the ±1 int matmul (``BinaryGate.evaluate``, i.e. ``binary_dot``) —
  the kernel of the engine's scalar reference path,
- the engine's hot path: the operand packed once via ``pack_signs`` and
  fed to ``BinaryGate.evaluate_packed`` — exactly what
  ``MemoizedRecurrentLayer`` does per phase timestep.  The popcount
  kernel walks the packed words in cache-sized blocks against the gate's
  Fortran-ordered packed weights, with no ``(B, H, W)`` intermediate.

``test_paths_agree`` checks at every geometry that the matmul, the bare
``binary_dot_packed`` kernel and the engine path give the same integers.
"""

import numpy as np
import pytest

from repro.core.binarization import binary_dot_packed, pack_signs
from repro.core.bnn import BinaryGate

#: (gates, neurons, input, recurrent, batch) per geometry.
GEOMETRIES = {
    "eesen-b16": (4, 320, 320, 320, 16),
    "mnmt-b16": (4, 1024, 1024, 1024, 16),
    "mnmt-b1": (4, 1024, 1024, 1024, 1),
}


@pytest.fixture(scope="module", params=list(GEOMETRIES))
def phase_operands(request):
    gates, neurons, inputs, recurrent, batch = GEOMETRIES[request.param]
    rng = np.random.default_rng(0)
    w_x = rng.standard_normal((gates * neurons, inputs))
    w_h = rng.standard_normal((gates * neurons, recurrent))
    x = rng.standard_normal((batch, inputs))
    h = rng.standard_normal((batch, recurrent))
    return w_x, w_h, x, h


def test_bnn_matmul_path(benchmark, phase_operands):
    w_x, w_h, x, h = phase_operands
    gate = BinaryGate(w_x, w_h)
    result = benchmark(gate.evaluate, x, h)
    assert result.shape == (x.shape[0], w_x.shape[0])


def test_bnn_prepacked_engine_path(benchmark, phase_operands):
    """The vectorized engine's kernel: pack once, popcount the phase."""
    w_x, w_h, x, h = phase_operands
    gate = BinaryGate(w_x, w_h)
    operand = np.concatenate([x, h], axis=-1)

    def engine_step():
        return gate.evaluate_packed(pack_signs(operand))

    result = benchmark(engine_step)
    assert result.shape == (x.shape[0], w_x.shape[0])


def test_paths_agree(benchmark, phase_operands):
    w_x, w_h, x, h = phase_operands
    gate = BinaryGate(w_x, w_h)
    operand = np.concatenate([x, h], axis=-1)

    def all_three():
        return (
            gate.evaluate(x, h),
            binary_dot_packed(gate.packed_weights, pack_signs(operand), gate.n_bits),
            gate.evaluate_packed(pack_signs(operand)),
        )

    a, b, c = benchmark.pedantic(all_three, rounds=1, iterations=1)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)
