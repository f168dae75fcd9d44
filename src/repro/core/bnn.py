"""Binary gate mirrors of trained full-precision gates (paper Figure 9).

A :class:`BinaryGate` is created by binarizing a gate's concatenated
forward/recurrent weight matrix ``[W_x | W_h]``.  At inference time it
binarizes the concatenated operand ``[x_t ; h_{t-1}]`` and produces the
integer dot product of Equation 8 for every neuron — the signal the
memoization predictor thresholds on.

A gate may mirror a *stack* of gates: the vectorized engine concatenates
the per-gate weight matrices of a whole phase along the neuron axis and
builds one ``BinaryGate`` over the stack, so a single XNOR/popcount pass
(:meth:`BinaryGate.evaluate_packed`) covers every gate of the cell.

The two evaluation methods are two independent kernels for the same
integers: :meth:`BinaryGate.evaluate_operand` always runs the ±1 matmul
(:func:`~repro.core.binarization.binary_dot`; the engine's scalar
reference path), :meth:`BinaryGate.evaluate_packed` always runs the
XNOR/popcount (:func:`~repro.core.binarization.binary_dot_packed`; the
vectorized fast path, mirroring the hardware BDPU).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.binarization import (
    binarize,
    binary_dot,
    binary_dot_packed,
    pack_signs,
)

Array = np.ndarray


class BinaryGate:
    """The BNN mirror of one RNN gate (or one stacked gate phase).

    Args:
        w_x: full-precision forward weights ``(H, E)``.
        w_h: full-precision recurrent weights ``(H, R)``.
    """

    def __init__(self, w_x: Array, w_h: Array):
        w_x = np.asarray(w_x)
        w_h = np.asarray(w_h)
        if w_x.ndim != 2 or w_h.ndim != 2:
            raise ValueError("gate weights must be 2-D")
        if w_x.shape[0] != w_h.shape[0]:
            raise ValueError(
                f"forward/recurrent neuron counts differ: "
                f"{w_x.shape[0]} vs {w_h.shape[0]}"
            )
        self.neurons = w_x.shape[0]
        self.input_size = w_x.shape[1]
        self.recurrent_size = w_h.shape[1]
        self.n_bits = self.input_size + self.recurrent_size
        self.weights_bin = binarize(np.concatenate([w_x, w_h], axis=1))
        self._weights_packed: Optional[Array] = None

    @property
    def packed_weights(self) -> Array:
        """``(H, W)`` uint64-packed weight signs, built on first use and cached.

        ``weights_bin`` is ±1 with the same ``>= 0`` convention as the raw
        weights, so packing it reproduces ``pack_signs([w_x | w_h])`` exactly.
        The words are stored in Fortran order: ``binary_dot_packed`` walks
        the ``(W, H)`` transpose word block by word block, and this layout
        makes each block a C-contiguous slice.
        """
        if self._weights_packed is None:
            self._weights_packed = np.asfortranarray(pack_signs(self.weights_bin))
        return self._weights_packed

    def evaluate(self, x: Array, h: Array) -> Array:
        """Binary dot products for operands ``x`` (B, E) and ``h`` (B, R).

        Returns:
            int32 array of shape ``(B, H)`` (or ``(H,)`` for 1-D input).
        """
        x = np.asarray(x)
        h = np.asarray(h)
        return self.evaluate_operand(np.concatenate([x, h], axis=-1))

    def evaluate_operand(self, operand: Array) -> Array:
        """±1-matmul binary dot products for an already-concatenated
        ``[x ; h]``."""
        operand = np.asarray(operand)
        if operand.shape[-1] != self.n_bits:
            raise ValueError(
                f"operand width {operand.shape[-1]} != expected {self.n_bits}"
            )
        return binary_dot(self.weights_bin, binarize(operand))

    def evaluate_packed(self, packed_operand: Array) -> Array:
        """Popcount evaluation of pre-packed operand signs.

        The fast path of the vectorized engine: the caller packs the
        concatenated operand once per phase (``pack_signs``) and this
        reduces to ``n_bits - 2 * popcount(w XOR x)`` per neuron (the
        same integers as :meth:`evaluate_operand`).  Packed weights are
        built lazily on the first call.
        """
        return binary_dot_packed(self.packed_weights, packed_operand, self.n_bits)

    @property
    def storage_bits(self) -> int:
        """Sign-buffer footprint of this gate in bits."""
        return self.neurons * self.n_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryGate(neurons={self.neurons}, n_bits={self.n_bits})"
