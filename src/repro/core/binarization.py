"""Sign binarization and binary dot products (paper Equations 7 and 8).

Two functionally identical evaluation paths are provided:

- a ±1 int8 matmul (``binary_dot``), the clearest reference; and
- a bit-packed XNOR/popcount path (``pack_signs`` + ``binary_dot_packed``)
  mirroring what the hardware FMU's BDPU actually does: multiply of
  binarized operands is XNOR, the reduction is a popcount adder tree, and
  the signed dot product is recovered as ``n - 2 * popcount(xor)``.

Sign bits are packed into ``uint64`` machine words so a whole gate phase
(every gate of an LSTM/GRU cell, stacked) reduces to a handful of XOR +
popcount operations per neuron — this is the compute path behind the
vectorized memoization engine, and the reason the BNN predictor costs a
popcount rather than an integer matmul.

``binary_dot_packed`` accumulates words-major: it walks the packed words
in blocks sized so one ``(B, k, H)`` XOR block fits a fixed cache budget
(``_BLOCK_BYTES``), popcounts the block and adds it into a single
``(B, H)`` int32 accumulator.  No ``(B, H, W)`` intermediate is ever
built, so its temporary memory is independent of the operand width.  The
kernel reads the weights through their ``(W, H)`` transpose, so weights
stored in Fortran order (as :class:`~repro.core.bnn.BinaryGate` keeps
them) are the fast layout; C-ordered weights give the same integers.

The test suite asserts both paths agree bit-exactly on random inputs,
including widths that are not multiples of the word size.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

#: Width of the packing words.  The FMU's BDPU operates on 2048-bit rows,
#: i.e. 32 of these 64-bit lanes.
_WORD_BITS = 64

#: uint8 bytes per packed word (``np.packbits`` emits bytes; groups of
#: eight bytes are reinterpreted as one ``uint64`` lane).
_BYTES_PER_WORD = _WORD_BITS // 8

#: Size in bytes of one XOR block in :func:`binary_dot_packed`: each step
#: handles ``max(1, _BLOCK_BYTES // (B * H * 8))`` packed words, so the
#: block stays cache-resident whatever the operand width.
_BLOCK_BYTES = 256 * 1024


def binarize(x: Array) -> Array:
    """Eq. 7: ``+1 if x >= 0 else -1``, as int8."""
    x = np.asarray(x)
    return np.where(x >= 0, 1, -1).astype(np.int8)


def binarize_bits(x: Array) -> Array:
    """Eq. 7 with the hardware storage convention: ``+1 -> 1``, ``-1 -> 0``."""
    x = np.asarray(x)
    return (x >= 0).astype(np.uint8)


def binary_dot(w_bin: Array, x_bin: Array) -> Array:
    """Eq. 8 reference path: integer dot product of ±1 operands.

    Args:
        w_bin: ``(H, D)`` ±1 weights (one row per neuron).
        x_bin: ``(D,)`` or ``(B, D)`` ±1 inputs.

    Returns:
        ``(H,)`` or ``(B, H)`` int32 dot products.
    """
    w_bin = np.asarray(w_bin, dtype=np.int32)
    x_bin = np.asarray(x_bin, dtype=np.int32)
    if x_bin.ndim == 1:
        return w_bin @ x_bin
    return x_bin @ w_bin.T


def pack_signs(x: Array) -> Array:
    """Pack sign bits of ``x`` along the last axis into uint64 words.

    The last axis is padded with zero-bits up to a multiple of 64 (the
    packed dot product corrects for padding via the true bit length).
    Both operands of :func:`binary_dot_packed` must be packed by this
    function: the byte order inside each word is platform-native, which
    cancels in XOR/popcount as long as the two sides agree.
    """
    bits = binarize_bits(x)
    packed = np.packbits(bits, axis=-1)
    remainder = packed.shape[-1] % _BYTES_PER_WORD
    if remainder:
        pad_shape = packed.shape[:-1] + (_BYTES_PER_WORD - remainder,)
        packed = np.concatenate(
            [packed, np.zeros(pad_shape, dtype=np.uint8)], axis=-1
        )
    if not packed.flags["C_CONTIGUOUS"]:
        packed = np.ascontiguousarray(packed)
    return packed.view(np.uint64)


def binary_dot_packed(w_packed: Array, x_packed: Array, n_bits: int) -> Array:
    """Eq. 8 hardware path: XNOR + popcount on packed sign bits.

    ``dot = n_bits - 2 * popcount(w XOR x)`` over the true ``n_bits`` lane
    width.  Padding bits cancel because both operands pad with 0 (XOR of
    equal pads is 0, contributing nothing to the popcount).  The result is
    the exact same integer the ±1 matmul produces, at a fraction of the
    cost: each 64 operand lanes cost one XOR and one popcount.

    The mismatch count is accumulated words-major over ``w_packed.T``: each
    step XORs a ``(B, k, H)`` block of ``k`` packed words against the
    operand words, popcounts it and sums it into one ``(B, H)`` int32
    accumulator.  ``k`` is chosen so the block fits ``_BLOCK_BYTES``; the
    temporaries therefore never grow with the word count ``W``.  Fortran-
    ordered ``w_packed`` makes every ``w_packed.T`` block a contiguous
    slice and is the fast layout; any layout gives the same integers.

    Args:
        w_packed: ``(H, W)`` packed weight signs (uint64 words).
        x_packed: ``(W,)`` or ``(B, W)`` packed input signs.
        n_bits: the unpadded operand length D.

    Returns:
        ``(H,)`` or ``(B, H)`` int32 dot products.
    """
    w_words = np.asarray(w_packed, dtype=np.uint64).T
    x_packed = np.asarray(x_packed, dtype=np.uint64)
    x_words = x_packed[None] if x_packed.ndim == 1 else x_packed
    words, neurons = w_words.shape
    batch = x_words.shape[0]
    step = max(1, _BLOCK_BYTES // max(1, batch * neurons * 8))
    acc = np.zeros((batch, neurons), dtype=np.int32)
    for start in range(0, words, step):
        block = np.bitwise_xor(
            w_words[None, start : start + step, :],
            x_words[:, start : start + step, None],
        )
        acc += np.bitwise_count(block).sum(axis=1, dtype=np.int32)
    acc *= -2
    acc += n_bits
    return acc[0] if x_packed.ndim == 1 else acc


def padded_bit_length(n_bits: int) -> int:
    """Number of bits actually stored after packing ``n_bits`` lanes."""
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    words = (n_bits + _WORD_BITS - 1) // _WORD_BITS
    return words * _WORD_BITS
