"""Tests for sign binarization and binary dot products (Eq. 7-8)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import binarization
from repro.core.binarization import (
    binarize,
    binarize_bits,
    binary_dot,
    binary_dot_packed,
    pack_signs,
    padded_bit_length,
)


class TestBinarize:
    def test_signs(self):
        np.testing.assert_array_equal(
            binarize(np.array([-1.5, -0.0, 0.0, 2.0])), [-1, 1, 1, 1]
        )

    def test_zero_maps_to_plus_one(self):
        """Eq. 7: x >= 0 -> +1, so exactly zero binarizes to +1."""
        assert binarize(np.array([0.0]))[0] == 1

    def test_bits_convention(self):
        np.testing.assert_array_equal(
            binarize_bits(np.array([-3.0, 4.0])), [0, 1]
        )

    def test_dtype(self):
        assert binarize(np.zeros(4)).dtype == np.int8


class TestBinaryDot:
    def test_known_value(self):
        w = np.array([[1, -1, 1]], dtype=np.int8)
        x = np.array([1, 1, 1], dtype=np.int8)
        assert binary_dot(w, x)[0] == 1

    def test_batched(self):
        w = np.array([[1, -1], [1, 1]], dtype=np.int8)
        x = np.array([[1, 1], [-1, 1]], dtype=np.int8)
        out = binary_dot(w, x)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out, [[0, 2], [-2, 0]])

    def test_range_bound(self):
        """|dot| <= D and dot has the parity of D."""
        rng = np.random.default_rng(0)
        w = binarize(rng.standard_normal((5, 9)))
        x = binarize(rng.standard_normal(9))
        out = binary_dot(w, x)
        assert np.all(np.abs(out) <= 9)
        assert np.all((out - 9) % 2 == 0)


class TestPackedPath:
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_packed_equals_matmul(self, n_bits, neurons, seed):
        """The XNOR/popcount path is bit-exact vs the ±1 matmul path."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((neurons, n_bits))
        x = rng.standard_normal(n_bits)
        reference = binary_dot(binarize(w), binarize(x))
        packed = binary_dot_packed(pack_signs(w), pack_signs(x), n_bits)
        np.testing.assert_array_equal(reference, packed)

    def test_packed_batched(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 20))
        x = rng.standard_normal((6, 20))
        reference = binary_dot(binarize(w), binarize(x))
        packed = binary_dot_packed(pack_signs(w), pack_signs(x), 20)
        assert packed.shape == (6, 4)
        np.testing.assert_array_equal(reference, packed)

    def test_padding_cancels(self):
        """Non-multiple-of-64 widths must not corrupt the dot product."""
        w = np.ones((1, 3))
        x = np.ones(3)
        assert binary_dot_packed(pack_signs(w), pack_signs(x), 3)[0] == 3

    def test_packed_words_are_uint64(self):
        packed = pack_signs(np.ones((2, 70)))
        assert packed.dtype == np.uint64
        assert packed.shape == (2, 2)  # 70 bits -> two 64-bit words

    @pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 127, 128, 129, 200])
    def test_word_boundary_widths(self, n_bits):
        """Widths straddling 64-bit word boundaries stay bit-exact."""
        rng = np.random.default_rng(n_bits)
        w = rng.standard_normal((7, n_bits))
        x = rng.standard_normal((3, n_bits))
        reference = binary_dot(binarize(w), binarize(x))
        packed = binary_dot_packed(pack_signs(w), pack_signs(x), n_bits)
        np.testing.assert_array_equal(reference, packed)


class TestBlockedKernel:
    """The words-major blocked accumulation in ``binary_dot_packed``.

    Block size is derived from ``_BLOCK_BYTES``; patching it forces the
    one-word, ragged-remainder and single-block loops at small sizes.
    """

    @staticmethod
    def operands(neurons, n_bits, batch, seed=0):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((neurons, n_bits))
        x = rng.standard_normal((batch, n_bits))
        return w, x, binary_dot(binarize(w), binarize(x))

    @pytest.mark.parametrize(
        "words_per_block",
        [0, 1, 3, 5, 64],
        ids=["below-one-word", "one-word", "ragged", "exact", "oversized"],
    )
    def test_block_remainders(self, monkeypatch, words_per_block):
        """300 bits is W=5 words: a budget below one word (clamped to one),
        blocks of one word, a block size that leaves a short last block
        (3 + 2), one block of exactly W, and one block larger than W all
        give the matmul's integers."""
        neurons, n_bits, batch = 9, 300, 4
        budget = max(1, words_per_block * batch * neurons * 8)
        monkeypatch.setattr(binarization, "_BLOCK_BYTES", budget)
        w, x, reference = self.operands(neurons, n_bits, batch)
        packed = binary_dot_packed(pack_signs(w), pack_signs(x), n_bits)
        np.testing.assert_array_equal(reference, packed)

    @pytest.mark.parametrize(
        "budget", [1, 3 * 2 * 6 * 8, None], ids=["one-word", "ragged", "default"]
    )
    def test_fortran_and_c_weights_identical(self, monkeypatch, budget):
        """450 bits is W=8 words; blocks of 1, of 3 (3 + 3 + 2) and the
        default budget's single block."""
        if budget is not None:
            monkeypatch.setattr(binarization, "_BLOCK_BYTES", budget)
        w, x, reference = self.operands(6, 450, 2, seed=5)
        w_c = pack_signs(w)
        w_f = np.asfortranarray(w_c)
        assert w_c.flags["C_CONTIGUOUS"] and w_f.flags["F_CONTIGUOUS"]
        x_p = pack_signs(x)
        from_c = binary_dot_packed(w_c, x_p, 450)
        from_f = binary_dot_packed(w_f, x_p, 450)
        assert from_c.dtype == from_f.dtype == np.int32
        assert from_c.tobytes() == from_f.tobytes()
        np.testing.assert_array_equal(reference, from_f)

    def test_empty_batch(self):
        w_p = np.asfortranarray(pack_signs(np.ones((4, 70))))
        out = binary_dot_packed(w_p, np.zeros((0, 2), dtype=np.uint64), 70)
        assert out.shape == (0, 4)
        assert out.dtype == np.int32

    @pytest.mark.parametrize("n_bits", [64, 200, 2048])
    def test_one_d_operand_matches_batch_rows(self, n_bits):
        w, x, _ = self.operands(11, n_bits, 3, seed=n_bits)
        w_p = np.asfortranarray(pack_signs(w))
        x_p = pack_signs(x)
        batched = binary_dot_packed(w_p, x_p, n_bits)
        for row in range(x.shape[0]):
            single = binary_dot_packed(w_p, x_p[row], n_bits)
            assert single.shape == (11,)
            assert single.dtype == np.int32
            np.testing.assert_array_equal(single, batched[row])

    @pytest.mark.parametrize(
        "n_bits", [63, 64, 65, 127, 128, 129, 191, 192, 193, 2047, 2048, 2049]
    )
    def test_word_boundaries_batched(self, n_bits):
        w, x, reference = self.operands(13, n_bits, 5, seed=n_bits)
        packed = binary_dot_packed(
            np.asfortranarray(pack_signs(w)), pack_signs(x), n_bits
        )
        assert packed.shape == (5, 13)
        np.testing.assert_array_equal(reference, packed)

    def test_no_batch_by_neuron_by_word_intermediate(self):
        """LSTM-1024 phase (4096 neurons, 2048-bit operands) at B=16: a
        ``(B, H, W)`` uint64 XOR tensor alone would be 16 MB; the blocked
        kernel stays under 2 MB of peak temporaries."""
        neurons, n_bits, batch = 4096, 2048, 16
        rng = np.random.default_rng(0)
        w_p = np.asfortranarray(
            pack_signs(rng.standard_normal((neurons, n_bits), dtype=np.float32))
        )
        x_p = pack_signs(rng.standard_normal((batch, n_bits)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            out = binary_dot_packed(w_p, x_p, n_bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (batch, neurons)
        assert peak - before < 2 * 1024 * 1024, f"peak {peak - before} bytes"


class TestSignAgreement:
    """The popcount correlation signal == the float ±1 dot product.

    The vectorized predictor thresholds on the packed popcount output;
    these properties pin it to the mathematical definition: the dot
    product of the float-binarized sign vectors.
    """

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_popcount_equals_float_dot(self, n_bits, neurons, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((neurons, n_bits))
        x = rng.standard_normal((2, n_bits))
        float_dot = binarize(x).astype(np.float64) @ binarize(w).astype(np.float64).T
        packed = binary_dot_packed(pack_signs(w), pack_signs(x), n_bits)
        np.testing.assert_array_equal(float_dot, packed.astype(np.float64))

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_self_agreement_is_full(self, n_bits):
        """A sign vector dotted with itself yields exactly n_bits."""
        rng = np.random.default_rng(n_bits)
        v = rng.standard_normal((1, n_bits))
        packed = pack_signs(v)
        assert binary_dot_packed(packed, packed[0], n_bits)[0] == n_bits


class TestPaddedBitLength:
    @pytest.mark.parametrize(
        "n,expected", [(1, 64), (64, 64), (65, 128), (2048, 2048)]
    )
    def test_values(self, n, expected):
        assert padded_bit_length(n) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            padded_bit_length(0)
