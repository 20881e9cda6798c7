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
  results;
* ``standard_normal`` runs numpy's ziggurat on this stream's state, so
  ``numpy.random`` is imported only when a normal is drawn.
"""

from __future__ import annotations

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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
        """A float in [low, high), or an array of ``size`` of them filled in C order."""
        low, span = float(low), float(high) - float(low)
        if size is None:
            return low + span * ((self._next64() >> 11) * 2.0 ** -53)
        return np.array([self.uniform(low, high)
                         for _ in range(int(np.prod(size)))]).reshape(size)

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

    def standard_normal(self, shape) -> np.ndarray:
        """Normals of ``shape`` from numpy's ziggurat, drawn from and advancing this stream."""
        from numpy.random import PCG64, Generator

        bits = PCG64(0)  # the state set next replaces this seed's
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": self.state, "inc": self.inc},
                      "has_uint32": self.has_uint32, "uinteger": self.uinteger}
        out = Generator(bits).standard_normal(shape)
        after = bits.state
        self.state = after["state"]["state"]
        self.has_uint32, self.uinteger = after["has_uint32"], after["uinteger"]
        return out
