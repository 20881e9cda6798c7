"""Seeded random streams: numpy's PCG64 stream, computed without ``numpy.random``.

``Stream(seed, key)`` draws, call for call, the bits that
``numpy.random.Generator(numpy.random.PCG64(numpy.random.SeedSequence([seed, key])))``
draws:

* seeding is ``SeedSequence``'s pool hash of the 32-bit words of ``seed``
  and ``key``, expanded to the 256 bits PCG64 is seeded with;
* the generator is PCG64 (O'Neill 2014): a 128-bit LCG whose state is
  advanced before each 64-bit output, an XSL-RR output function, and the
  upper half of a 64-bit output kept for the next 32-bit draw;
* ``uniform`` scales the top 53 bits of a 64-bit output, and ``integers``
  is numpy's Lemire rejection on 32-bit words (Lemire 2019) for int64
  results.

An array of uniforms is drawn a block at a time, one 64-bit output per
entry in C order, leaving the buffered half word alone.  The block's LCG
states come from jump-ahead, ``s_k = a**k s_0 + inc * sum(a**j for j < k)``
for ``k = 1 .. 4096``, with both coefficient tables built once per process
and the 128-bit arithmetic done on uint64 limbs.
"""

from __future__ import annotations

import functools

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: Outputs computed together by jump-ahead; the jump tables hold this many.
_BLOCK = 4096
_LOW32 = np.uint64(_M32)


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0``; ``[0]`` for zero."""
    if n < 0:
        raise ValueError(f"seed and key must be nonnegative, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _seed_words(entropy: list[int]) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` as ints."""
    mult = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * _MULT_A & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    mult, out = _INIT_B, []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ mult
        mult = mult * _MULT_B & _M32
        value = value * mult & _M32
        out.append(value ^ value >> 16)
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


class Stream:
    """The PCG64 stream numpy's ``Generator`` draws from ``SeedSequence([seed, key])``.

    The four attributes are numpy's PCG64 state: the LCG ``state`` and
    increment ``inc``, and ``uinteger``, the upper half of the last 64-bit
    output, still to be drawn when ``has_uint32`` is 1.
    """

    def __init__(self, seed: int, key: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(_words(seed) + _words(key))
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self.state = ((self.inc + (s_hi << 64 | s_lo)) * _PCG_MULT + self.inc) & _M128
        self.has_uint32 = 0
        self.uinteger = 0

    def _next64(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _M128
        word, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = self._next64()
        self.has_uint32, self.uinteger = 1, word >> 32
        return word & _M32

    def uniform(self, low: float, high: float, size=None):
        """A float in [low, high), or an array of them of shape ``size``.

        An array is filled in C order from jump-ahead blocks.
        """
        low, span = float(low), float(high) - float(low)
        if size is None:
            return low + span * ((self._next64() >> 11) * 2.0 ** -53)
        out = np.empty(size)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            words = self._block(min(flat.size - start, _BLOCK))
            flat[start:start + words.size] = words >> np.uint64(11)
        return low + span * (out * 2.0 ** -53)

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) when ``high`` is not given.

        A one-value range makes no draw.  Ranges of 2**32 values or more,
        which numpy draws another way, are not supported.
        """
        if high is None:
            low, high = 0, low
        top = high - low - 1
        if top < 0:
            raise ValueError(f"integers: empty range [{low}, {high})")
        if top >= _M32:
            raise ValueError(f"integers: {top + 1} values; at most 2**32 - 1 are supported")
        if top == 0:
            return low
        span = top + 1
        product = self._next32() * span
        if product & _M32 < span:
            threshold = (_M32 - top) % span
            while product & _M32 < threshold:
                product = self._next32() * span
        return low + (product >> 32)

    def _block(self, n: int) -> np.ndarray:
        """The next ``n <= _BLOCK`` 64-bit outputs, computed together by jump-ahead."""
        pow_hi, pow_lo, sum_hi, sum_lo = (table[:n] for table in _jumps())
        s_hi, s_lo = _add128(*_mul128(pow_hi, pow_lo, self.state),
                             *_mul128(sum_hi, sum_lo, self.inc))
        self.state = int(s_hi[-1]) << 64 | int(s_lo[-1])
        word, rot = s_hi ^ s_lo, s_hi >> np.uint64(58)
        return word >> rot | word << ((np.uint64(64) - rot) & np.uint64(63))


def _mul128(hi: np.ndarray, lo: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray]:
    """``(hi << 64 | lo) * x`` modulo 2**128, on uint64 limbs."""
    x_hi, x_lo = np.uint64(x >> 64 & _M64), np.uint64(x & _M64)
    y0, y1 = np.uint64(x & _M32), np.uint64(x >> 32 & _M32)
    shift = np.uint64(32)
    lo0, lo1 = lo & _LOW32, lo >> shift
    p00, p01, p10 = lo0 * y0, lo0 * y1, lo1 * y0
    carry = ((p00 >> shift) + (p01 & _LOW32) + (p10 & _LOW32)) >> shift
    top = lo1 * y1 + (p01 >> shift) + (p10 >> shift) + carry + lo * x_hi + hi * x_lo
    return top, lo * x_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` modulo 2**128, on uint64 limbs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


@functools.cache
def _jumps() -> tuple[np.ndarray, ...]:
    """Limbs of ``a**k`` and ``sum(a**j for j < k)`` mod 2**128, k = 1 .. _BLOCK.

    Built by doubling: the entries for ``k + h`` are those for ``k`` times
    ``a**h``, plus ``sum(a**j for j < h)`` in the second table.
    """
    pow_hi, pow_lo = (np.array([part], np.uint64) for part in (_PCG_MULT >> 64, _PCG_MULT & _M64))
    sum_hi, sum_lo = np.zeros(1, np.uint64), np.ones(1, np.uint64)
    while pow_hi.size < _BLOCK:
        a_h = int(pow_hi[-1]) << 64 | int(pow_lo[-1])
        c_h = int(sum_hi[-1]) << 64 | int(sum_lo[-1])
        far_pow = _mul128(pow_hi, pow_lo, a_h)
        far_sum = _add128(*_mul128(sum_hi, sum_lo, a_h), np.uint64(c_h >> 64), np.uint64(c_h & _M64))
        pow_hi, pow_lo = np.concatenate((pow_hi, far_pow[0])), np.concatenate((pow_lo, far_pow[1]))
        sum_hi, sum_lo = np.concatenate((sum_hi, far_sum[0])), np.concatenate((sum_lo, far_sum[1]))
    return pow_hi, pow_lo, sum_hi, sum_lo
