"""Tests for the BinaryGate mirror (paper Figure 9)."""

import numpy as np
import pytest

from repro.core.binarization import binarize, binary_dot, pack_signs
from repro.core.bnn import BinaryGate
from repro.metrics.correlation import pearson
from repro.nn.lstm import LSTMCell


@pytest.fixture
def rng():
    return np.random.default_rng(19)


class TestConstruction:
    def test_mirrors_concatenated_weights(self, rng):
        w_x = rng.standard_normal((4, 3))
        w_h = rng.standard_normal((4, 5))
        gate = BinaryGate(w_x, w_h)
        np.testing.assert_array_equal(
            gate.weights_bin, binarize(np.concatenate([w_x, w_h], axis=1))
        )
        assert gate.n_bits == 8
        assert gate.neurons == 4

    def test_rejects_mismatched_rows(self, rng):
        with pytest.raises(ValueError):
            BinaryGate(rng.standard_normal((4, 3)), rng.standard_normal((5, 3)))

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            BinaryGate(rng.standard_normal(4), rng.standard_normal((4, 3)))

    def test_storage_bits(self, rng):
        gate = BinaryGate(rng.standard_normal((4, 3)), rng.standard_normal((4, 5)))
        assert gate.storage_bits == 4 * 8

    def test_packed_weights_fortran_ordered(self, rng):
        """Lazy, ``(H, W)``, Fortran-ordered and equal to packing
        ``[w_x | w_h]``: the kernel's ``(W, H)`` view is C-contiguous."""
        w_x = rng.standard_normal((5, 30))
        w_h = rng.standard_normal((5, 40))
        gate = BinaryGate(w_x, w_h)
        assert gate._weights_packed is None
        packed = gate.packed_weights
        assert packed.shape == (5, 2)  # 70 bits -> two 64-bit words
        assert packed.dtype == np.uint64
        assert packed.flags["F_CONTIGUOUS"]
        assert packed.T.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(
            packed, pack_signs(np.concatenate([w_x, w_h], axis=1))
        )
        assert gate.packed_weights is packed


class TestEvaluate:
    def test_matches_reference_dot(self, rng):
        w_x = rng.standard_normal((6, 4))
        w_h = rng.standard_normal((6, 6))
        gate = BinaryGate(w_x, w_h)
        x = rng.standard_normal((2, 4))
        h = rng.standard_normal((2, 6))
        expected = binary_dot(
            gate.weights_bin, binarize(np.concatenate([x, h], axis=-1))
        )
        np.testing.assert_array_equal(gate.evaluate(x, h), expected)

    def test_packed_path_equivalent(self, rng):
        gate = BinaryGate(rng.standard_normal((6, 4)), rng.standard_normal((6, 7)))
        x = rng.standard_normal((3, 4))
        h = rng.standard_normal((3, 7))
        packed = pack_signs(np.concatenate([x, h], axis=-1))
        np.testing.assert_array_equal(gate.evaluate(x, h), gate.evaluate_packed(packed))

    def test_wrong_operand_width_raises(self, rng):
        gate = BinaryGate(rng.standard_normal((4, 3)), rng.standard_normal((4, 5)))
        with pytest.raises(ValueError):
            gate.evaluate(rng.standard_normal((1, 3)), rng.standard_normal((1, 4)))

    def test_output_is_integer_valued(self, rng):
        gate = BinaryGate(rng.standard_normal((4, 3)), rng.standard_normal((4, 5)))
        out = gate.evaluate(rng.standard_normal((2, 3)), rng.standard_normal((2, 5)))
        assert out.dtype == np.int32


class TestDotProductPreservation:
    """Anderson & Berg's property the predictor relies on (§3.1.2)."""

    def test_bnn_correlates_with_full_precision(self, rng):
        """Pooled correlation should be clearly positive on a real gate."""
        cell = LSTMCell(24, 32, rng=rng)
        w_x, w_h, _ = cell.gate_weights("i")
        gate = BinaryGate(w_x, w_h)
        samples_full = []
        samples_bin = []
        for _ in range(200):
            x = rng.standard_normal((1, 24))
            h = np.tanh(rng.standard_normal((1, 32)))
            samples_full.append((x @ w_x.T + h @ w_h.T).ravel())
            samples_bin.append(gate.evaluate(x, h).ravel().astype(float))
        r = pearson(np.concatenate(samples_full), np.concatenate(samples_bin))
        assert r > 0.5, f"expected strong BNN/RNN correlation, got {r:.3f}"
