"""Batch evaluation of per-event random streams.

Event i draws from the stream numpy's ``Generator(Philox(key=seed +
(i << 64)))`` would give; because Philox is counter-based, the first
block of every event stream is a pure function of (seed, i) and all
events can be evaluated at once.  This module computes those blocks
vectorized over events in uint64 arithmetic, bit-identical to numpy
(same 4x64-10 network of Salmon et al., SC '11, and the same convention
that the counter is incremented before the first block is produced).
Each event may consume at most the four 64-bit words of its first block.

Only the work the drawn words read is done.  The counter (1, 0, 0, 0)
is the same for every event, so round 0 and half of round 1 are one
Python-int product per block, and the last round's M0 product, which
feeds words 2 and 3 only, is skipped for one or two draws: 16 vector
products a block (17 for three or four draws) where the plain network
makes 20.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


def _u64(value: int) -> np.ndarray:
    # A 0-d array: numpy 2 converts an np.uint64 scalar operand on every call.
    return np.array(value, np.uint64)


_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = _u64(0xBB67AE8584CAA73B)
_M0_WORDS = (_u64(_M0), _u64(_M0 & 0xFFFFFFFF), _u64(_M0 >> 32))
_M1_WORDS = (_u64(_M1), _u64(_M1 & 0xFFFFFFFF), _u64(_M1 >> 32))
_MASK32 = _u64(0xFFFFFFFF)
_MASK64 = 2**64 - 1
_SH32 = _u64(32)
_ROUNDS = 10
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53
_SH11 = _u64(11)
# Events per kernel call and per block of uniform_blocks: the kernel's eight
# uint64 buffers (512 KB) stay in cache, and its memory does not grow with
# the batch.
_CHUNK = 2**13


def _mulhilo(words: tuple[np.ndarray, ...], b: np.ndarray, lo: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    """Full 128-bit product of a constant and a vector, in place.

    ``words`` is the constant, its low and its high 32 bits
    (``_M0_WORDS`` or ``_M1_WORDS``).  ``b`` receives the high words and
    ``lo`` the low words; ``t`` and ``u`` are scratch buffers of the same
    size.
    """
    a, a_lo, a_hi = words
    np.multiply(b, a, out=lo)
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
    keyed by (seed, indices[j]).  A round maps the words (x0, x1, x2, x3)
    under the key (k0, k1) to (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2),
    hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)), and the key grows by (W0, W1) after
    each round.  Round 0 takes the counter (1, 0, 0, 0) under (seed, i)
    to (seed, 0, i, M0) for every event, so in round 1 M0 * seed is one
    Python-int product and the x3 it leaves is one number; vector work
    starts with M1 * i.  The last round's M0 product is made only for a
    third or fourth draw.  The rounds run in place on four state words,
    the event key and three scratch buffers.  Takes ownership of
    ``indices``, a uint64 array: it becomes word x0, so the event index
    costs no copy.  The key and the scratch buffers are dropped before the
    output is made.
    """
    n = indices.size
    # Round 1 on (seed, 0, i, M0) under the key (seed + W0, i + W1).
    hi, low = divmod(_M0 * seed, 2**64)
    k1 = np.add(indices, _W1)
    x0, x1, lo, t, u = indices, *(np.empty(n, np.uint64) for _ in range(4))
    _mulhilo(_M1_WORDS, x0, x1, t, u)
    x0 ^= _u64((seed + _W0) & _MASK64)
    x2 = np.bitwise_xor(k1, _u64(hi ^ _M0))
    x3 = _u64(low)
    for r in range(2, _ROUNDS):
        if r < _ROUNDS - 1 or n_draws > 2:  # the last M0 product feeds words 2 and 3 only
            k1 += _W1
            _mulhilo(_M0_WORDS, x0, lo, t, u)
            x0 ^= x3
            x0 ^= k1  # x0 now holds the next x2
            # After round 2 the old x3 is a buffer; before, it is one number.
            x3, lo = lo, x3 if x3.ndim else np.empty(n, np.uint64)
        _mulhilo(_M1_WORDS, x2, lo, t, u)
        x2 ^= x1
        x2 ^= _u64((seed + r * _W0) & _MASK64)  # x2 now holds the next x0
        x1, lo = lo, x1
        x0, x2 = x2, x0
    del indices, k1, lo, t, u
    out = np.empty((n, n_draws))
    for j, word in enumerate((x0, x1, x2, x3)[:n_draws]):
        word >>= _SH11
        np.multiply(word, _DOUBLE_SCALE, out=out[:, j])  # exact: word is below 2**53
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
