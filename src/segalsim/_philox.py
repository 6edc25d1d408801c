"""Batch evaluation of per-event random streams.

Event i draws from the stream numpy's ``Generator(Philox(key=seed +
(i << 64)))`` would give; because Philox is counter-based, the first
block of every event stream is a pure function of (seed, i) and all
events can be evaluated at once.  This module computes those blocks
vectorized over events in uint64 arithmetic, bit-identical to numpy
(same 4x64-10 network, and the same convention that the counter is
incremented before the first block is produced).  Each event may consume
at most the four 64-bit words of its first block.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK64 = 2**64 - 1
_SH32 = np.uint64(32)
_ROUNDS = 10
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53
_SH11 = np.uint64(11)
# Events per kernel call and per block of uniform_blocks: the kernel's eight
# uint64 buffers (512 KB) stay in cache, and its memory does not grow with
# the batch.
_CHUNK = 2**13


def _mulhilo(a: int, b: np.ndarray, lo: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    """Full 128-bit product of a constant and a vector, in place.

    ``b`` receives the high words and ``lo`` the low words; ``t`` and
    ``u`` are scratch buffers of the same size.
    """
    a_lo = np.uint64(a & 0xFFFFFFFF)
    a_hi = np.uint64(a >> 32)
    np.multiply(b, np.uint64(a), out=lo)
    np.bitwise_and(b, _MASK32, out=t)  # b_lo
    b >>= _SH32  # b_hi
    np.multiply(t, a_lo, out=u)
    u >>= _SH32
    t *= a_hi
    t += u  # mid1 = a_hi b_lo + (a_lo b_lo >> 32), below 2**64
    np.multiply(b, a_lo, out=u)
    b *= a_hi
    # mid2 = a_lo b_hi + (mid1 & MASK32) is below 2**64, so the wrapping
    # sum u + mid1 - (mid1 >> 32 << 32) is exact.
    u += t
    t >>= _SH32
    b += t
    t <<= _SH32
    u -= t
    u >>= _SH32
    b += u  # a_hi b_hi + (mid1 >> 32) + (mid2 >> 32)


def _first_block(seed: int, indices: np.ndarray, n_draws: int) -> np.ndarray:
    """Uniforms from the first block of the streams keyed by (seed, index).

    Row j equals the first ``n_draws`` ``random()`` values of the stream
    keyed by (seed, indices[j]); the Philox rounds run in place on four
    state words, the event key and three scratch buffers.  Takes ownership
    of ``indices``, a uint64 array: it becomes the event key and is
    overwritten, so the key costs no copy.  The key and the scratch
    buffers are dropped before the output is made.
    """
    n = indices.size
    k1 = indices
    x0 = np.ones(n, dtype=np.uint64)  # counter pre-increment
    x1, x2, x3, lo, t, u = (np.zeros(n, dtype=np.uint64) for _ in range(6))
    for r in range(_ROUNDS):
        k0 = np.uint64((seed + r * _W0) & _MASK64)
        _mulhilo(_M0, x0, lo, t, u)
        x0 ^= x3
        x0 ^= k1  # x0 now holds the next x2
        x3, lo = lo, x3
        _mulhilo(_M1, x2, lo, t, u)
        x2 ^= x1
        x2 ^= k0  # x2 now holds the next x0
        x1, lo = lo, x1
        x0, x2 = x2, x0
        k1 += _W1
    del indices, k1, lo, t, u
    out = np.empty((n, n_draws))
    for j, word in enumerate((x0, x1, x2, x3)[:n_draws]):
        word >>= _SH11
        out[:, j] = word
    out *= _DOUBLE_SCALE
    return out


def uniform_blocks(seed: int, n_events: int, n_draws: int) -> Iterator[np.ndarray]:
    """``event_uniforms(seed, n_events, n_draws)`` in consecutive blocks of
    at most ``_CHUNK`` rows, each evaluated when it is asked for."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if not 1 <= n_draws <= 4:
        raise ValueError("n_draws must be between 1 and 4")
    return (
        _first_block(seed, np.arange(i, min(i + _CHUNK, n_events), dtype=np.uint64), n_draws)
        for i in range(0, n_events, _CHUNK)
    )


def event_uniforms(seed: int, n_events: int, n_draws: int) -> np.ndarray:
    """First ``n_draws`` uniforms of every event stream, shape (n_events, n_draws).

    Row i equals the first ``n_draws`` ``random()`` values of numpy's
    ``Generator(Philox(key=seed + (i << 64)))`` bit for bit; ``n_draws``
    is capped by the four words of one block.
    """
    out = np.empty((n_events, n_draws))
    for i, block in enumerate(uniform_blocks(seed, n_events, n_draws)):
        out[i * _CHUNK : i * _CHUNK + len(block)] = block
    return out
