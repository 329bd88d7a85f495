"""Seeded uniform draws from numpy alone: the stream of
``Generator(Philox(seed)).uniform`` from numpy's random module, bit for bit,
without importing that module, which adds 5.3 MiB resident and about 10 ms
to a process that has imported numpy (numpy 2.4, x86-64 Linux).

The bit generator is Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC '11), keyed as numpy's
``SeedSequence`` keys it.  numpy keeps bit-generator streams stable across
its versions (NEP 19) but not the methods that turn words into variates;
this module fixes that conversion too.  Done in numpy array passes, a draw
costs about 25 ns against the 5 ns of numpy's own loop (one core of a
2-core x86-64 host), most of it in the 32-bit partial products of each
64-bit multiply.
"""

from __future__ import annotations

import numpy as np

from .numerics import BLOCK_ROWS

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

# SeedSequence's hash and mix constants, and the words in its pool.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# Philox4x64: the two round multipliers and the two Weyl key increments.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10


def _u64(value: int) -> np.ndarray:
    """``value`` as a read-only 0-d ``uint64`` array, which numpy's
    operators take with less overhead per call than a numpy scalar."""
    array = np.array(value, dtype=np.uint64)
    array.flags.writeable = False
    return array


_LOW32, _32, _11 = _u64(_MASK32), _u64(32), _u64(11)
# Each multiplier whole and as its 32-bit halves.
_FACTORS = {m: (_u64(m), _u64(m & _MASK32), _u64(m >> 32)) for m in (_M0, _M1)}


def _seed_key(seed: int) -> tuple[int, int]:
    """The Philox key that ``Philox(seed)`` takes from
    ``SeedSequence(seed).generate_state(2, uint64)``.

    The seed's 32-bit words, least significant first, are hashed into a
    pool of 4 words, every pool word is mixed into every other, words past
    the fourth are mixed into each, and the pool is hashed out again.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for value in pool:
        value ^= hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``x * m``, for ``uint64``
    words ``x``: the low words wrap, and the high words are built from the
    32-bit halves of both factors, where no partial sum reaches 2**64."""
    m, m_lo, m_hi = _FACTORS[m]
    x_lo = x & _LOW32
    hi = x >> _32
    mid = x_lo * m_lo
    mid >>= _32
    mid += hi * m_lo
    part = x_lo * m_hi
    np.bitwise_and(mid, _LOW32, x_lo)
    part += x_lo
    hi *= m_hi
    mid >>= _32
    hi += mid
    part >>= _32
    hi += part
    return hi, x * m


def _philox_units(key: tuple[int, int], first: int, count: int) -> np.ndarray:
    """Philox4x64-10 of the counters ``first, ..., first + count - 1``
    under ``key``, each output word ``w`` as ``(w >> 11) * 2**-53``: shape
    ``(count, 4)``, in stream order."""
    k0, k1 = key
    # Round 1 on the counter (c, 0, 0, 0): only its first word is multiplied.
    x2, x3 = _mulhilo(np.arange(first, first + count, dtype=np.uint64), _M0)
    x2 ^= _u64(k1)
    # Round 2: round 1 left k0 in the first word of every counter, so its
    # product is one Python integer.
    p0 = k0 * _M0
    k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
    x0, x1 = _mulhilo(x2, _M1)
    x0 ^= _u64(k0)
    x3 ^= _u64((p0 >> 64) ^ k1)
    x2, x3 = x3, np.full(count, p0 & _MASK64, dtype=np.uint64)
    for _ in range(_ROUNDS - 2):
        k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
        hi0, lo0 = _mulhilo(x0, _M0)
        hi1, lo1 = _mulhilo(x2, _M1)
        hi1 ^= x1
        hi1 ^= _u64(k0)
        hi0 ^= x3
        hi0 ^= _u64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    units = np.empty((count, 4))
    for j, word in enumerate((x0, x1, x2, x3)):
        word >>= _11        # below 2**53, so the int64 view converts exactly
        np.multiply(word.view(np.int64), 2.0 ** -53, units[:, j])
    return units


class PhiloxStream:
    """The uniform draws of ``Generator(Philox(seed))`` from numpy's random
    module: the same values, bit for bit, for any sequence of
    :meth:`uniform` calls.

    As numpy's bit generator does, the stream steps its counter before each
    block of 4 words and keeps the words of a block that one call leaves
    unused for the next.  It generates at most ``BLOCK_ROWS`` blocks at a
    time, so its temporaries stay bounded.
    """

    def __init__(self, seed: int) -> None:
        self._key = _seed_key(int(seed))
        self._blocks = 0                    # counters used so far
        self._spare = np.empty(0)           # the last block's unused draws

    def uniform(self, low=0.0, high=1.0, size=None):
        """``low + (high - low) * u`` with ``u`` uniform on [0, 1): the top
        53 bits of one word scaled by 2**-53, with array-bound ``low`` and
        ``high`` broadcast against ``size`` in row-major order.  Without
        ``size`` the shape is that of ``low`` and ``high`` broadcast, and a
        scalar comes back as a float."""
        shape = np.broadcast_shapes(np.shape(low), np.shape(high)) if size is None else size
        out = np.empty(shape)
        flat = out.reshape(-1)
        done = min(flat.size, self._spare.size)
        flat[:done] = self._spare[:done]
        self._spare = self._spare[done:]
        while done < flat.size:
            count = min(BLOCK_ROWS, -(-(flat.size - done) // 4))
            units = _philox_units(self._key, self._blocks + 1, count).reshape(-1)
            self._blocks += count
            take = min(flat.size - done, units.size)
            flat[done:done + take] = units[:take]
            self._spare = units[take:].copy()     # a view would keep the whole pass alive
            done += take
        low = np.asarray(low, dtype=float)
        out *= np.asarray(high, dtype=float) - low
        out += low
        return float(out) if out.ndim == 0 else out
