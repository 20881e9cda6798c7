"""Elliptic and trigonometric weight functions.

All statistical weights in this package are built from a single odd
function ``f``.  In the elliptic regime ``f(x) = theta1(i*x) / 2`` where
``theta1`` is the first Jacobi theta function in the series convention

    theta1(z) = 2 * sum_{n>=0} (-1)^n p^((n+1/2)^2) sin((2n+1) z),

with nome ``p``; in the trigonometric regime ``f = sinh``.  Powers of a
complex nome are computed as ``p**0.25 * p**(n*(n+1))`` so only one
fractional power is ever taken and the branch choice is fixed across
terms; they are tabulated once per nome.  The overall normalization of
``theta1`` is internal: every identity verified downstream is
homogeneous in ``f``.

:func:`f_weights` is the one weight accessor, and :func:`theta1_batch`
the one place the series is summed: at each point, the terms in order
until one and the term before it are both at most ``TERM_TOL`` times the
largest partial-sum size so far.  Its numpy operations round as the
Python ones of a loop over the terms: ``np.sin`` is ``cmath.sin`` up to
``|Im| = 708`` (``cmath.sin`` takes the sines beyond), ``np.hypot`` of
the parts is ``abs()``, complex products are spelled out in real parts
(numpy's complex ``*`` may round differently), and ``np.cumsum`` adds in
sequence, its first term plus ``0j`` as the loop's sum starts.  Python's
``max`` skips a NaN that numpy's maxima keep; that never decides a stop,
since a NaN term takes two products past ``DBL_MAX / 2``, and the sine
of the next term then overflows and raises.  A pass is one complex
``(points, terms)`` array, which holds the sine arguments and then, in
place, the terms and their partial sums, with float arrays of that shape
for the magnitudes of both and for the stop bounds.  A first pass sums
one chunk of terms per point, enough up to ``|Im z| = 2``; the points
that have not stopped are summed again over twice the terms, up to
``SERIES_CAP``.  :func:`f_weights` does its own arithmetic (``1j * lam``,
``theta / 2``) in Python's complex operations, never numpy's.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .errors import NomeTooLarge, NonConvergent, ZeroNome

#: Largest admissible |nome|.  Beyond this the q-series converges too
#: slowly for the fixed term cap and term tolerance.
MAX_NOME = 0.9

#: Relative size below which theta-series terms stop the summation.
TERM_TOL = 1e-18

#: Most terms summed at a point before :class:`NonConvergent` is raised.
SERIES_CAP = 200

#: Largest |Im z| at which ``np.sin(z)`` is ``cmath.sin(z)``: beyond
#: ``log(DBL_MAX / 4) = 708.4`` cmath rescales and rounds differently.
_SIN_EXACT_IM = 708.0

#: Point-term entries :func:`theta1_batch` sums at a time: the transient
#: arrays take about 80 bytes per entry, so a pass peaks near 0.7 MB.
_BATCH_ENTRIES = 8192


@dataclass(frozen=True)
class EllipticParams:
    """Nome of the theta series."""

    nome: complex

    def __post_init__(self) -> None:
        if self.nome == 0:
            raise ZeroNome("the nome must be nonzero: at nome 0 the factor p^(1/4) is 0, "
                           "so f vanishes everywhere")
        if abs(self.nome) >= MAX_NOME:
            raise NomeTooLarge(
                f"|nome| = {abs(self.nome):.6g} >= {MAX_NOME}; refusing to evaluate"
            )


@dataclass(frozen=True)
class Regime:
    """Which weight function is in force.

    ``params is None`` means trigonometric (``f = sinh``); otherwise the
    elliptic theta weight with the given nome.  Exactly one variant is
    active and every weight evaluation dispatches on it.
    """

    params: EllipticParams | None = None

    @classmethod
    def elliptic(cls, nome: complex) -> "Regime":
        return cls(EllipticParams(complex(nome)))

    @classmethod
    def trigonometric(cls) -> "Regime":
        return cls(None)

    @property
    def is_elliptic(self) -> bool:
        return self.params is not None


@lru_cache(maxsize=16)
def _theta1_coefficient_arrays(nome: complex, cap: int
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Real and imaginary parts of the z-free factors ``2 (-1)^n p^(1/4) p^(n(n+1))``
    and the odd multipliers ``2n+1`` of the first ``cap`` terms, and the chunk of
    terms :func:`theta1_batch` sums first: the terms until the factors fall below
    ``TERM_TOL`` of the first by more than the growth ``e^(4n)`` of the sines at
    ``|Im z| = 2`` (weights within 2 of the imaginary axis), plus three, at most
    ``cap``.  Keyed on the cap, so a table never outlives a change of ``SERIES_CAP``.
    """
    p = complex(nome)
    coeffs = [2.0 * (-1) ** n * p ** 0.25 * p ** (n * (n + 1)) for n in range(cap)]
    array = np.array(coeffs)
    arrays = (array.real.copy(), array.imag.copy(), np.arange(1, 2 * cap, 2, dtype=float))
    for array in arrays:
        array.setflags(write=False)
    chunk = next((n + 4 for n, c in enumerate(coeffs)
                  if abs(c) <= TERM_TOL * abs(coeffs[0]) * cmath.e ** (-4.0 * n)), cap)
    return arrays + (min(chunk, cap),)


def _sum_terms(z: np.ndarray, terms: int, tables: tuple
               ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """The first ``terms`` terms of the series at each point of ``z``: the partial
    sum where a point stops, a mask of the points that stop or fail, and by row
    the ``OverflowError`` of a sine or an ``abs()`` of each point that fails."""
    cr, ci, k = (table[:terms] for table in tables[:3])
    zr, zi = z.real[:, None], z.imag[:, None]
    raised = {}
    with np.errstate(all="ignore"):
        arg = np.empty((z.size, terms), dtype=complex)
        re, im = arg.real, arg.imag
        np.multiply(k, zr, out=re)  # (2n+1) * z as the complex (2n+1, 0) times z
        re -= 0.0 * zi
        np.multiply(k, zi, out=im)
        im += 0.0 * zr
        sine = np.sin(arg)
        if z.size and np.abs(z.imag).max() * k[-1] > _SIN_EXACT_IM:
            for r, c in zip(*np.nonzero(np.abs(im) > _SIN_EXACT_IM)):
                try:
                    sine[r, c] = cmath.sin(arg[r, c])
                except OverflowError as exc:
                    raised[r, c] = exc
        # the arguments are spent: their buffer takes the terms, then the partial sums
        run, sr, si = arg, sine.real, sine.imag
        np.multiply(cr, sr, out=re)
        re -= ci * si
        np.multiply(cr, si, out=im)
        im += ci * sr
        mags = np.hypot(re, im)
        run[:, 0] += 0j  # the loop's sum starts at 0j, which makes a -0.0 part 0.0
        np.cumsum(run, axis=1, out=run)
        sizes = np.hypot(re, im)
        sizes[:, 0] = np.maximum(sizes[:, 0], 1e-300)  # the stop bound's floor
        bound = np.maximum.accumulate(sizes, axis=1)
        bound *= TERM_TOL
        # a term stops the sum with the one before it; term 0 with the loop's inf
        events = np.empty((z.size, terms), dtype=bool)
        events[:, 0] = np.maximum(np.inf, mags[:, 0]) <= bound[:, 0]
        np.less_equal(np.maximum(mags[:, :-1], mags[:, 1:]), bound[:, 1:], out=events[:, 1:])
    fail = None
    if raised or not np.isfinite(bound[:, -1].max(initial=0.0)):
        # abs() raises at an infinite size of finite parts (a term overflows
        # alone only at n <= 1, where its partial sum overflows first)
        fail = np.isinf(sizes) & np.isfinite(run)
        for r, c in raised:
            fail[r, c] = True
        events |= fail
    rows, first = np.arange(z.size), events.argmax(axis=1)
    errors = {} if fail is None else {
        r: raised.get((r, first[r])) or OverflowError("absolute value too large")
        for r in np.flatnonzero(fail[rows, first]).tolist()}
    return run[rows, first], events[rows, first], errors


def theta1_batch(z: Sequence[complex], params: EllipticParams) -> np.ndarray:
    """First Jacobi theta function at every point of the 1-d ``z``, with no numpy warning.

    Each point has the bits of the term loop of the module docstring, or raises
    that loop's error (``OverflowError``, or :class:`NonConvergent` after
    ``SERIES_CAP`` terms) if it is the first failing point in index order.
    """
    tables = _theta1_coefficient_arrays(complex(params.nome), SERIES_CAP)
    return _summed(np.asarray(z, dtype=complex), tables[-1], tables, params)


def _summed(z: np.ndarray, terms: int, tables: tuple, params: EllipticParams) -> np.ndarray:
    """:func:`theta1_batch` with passes of ``terms`` terms, twice that for the points left."""
    out = np.empty(z.size, dtype=complex)
    left = np.zeros(z.size, dtype=bool)
    errors: dict[int, Exception] = {}
    rows = max(1, _BATCH_ENTRIES // terms)  # a pass holds at most _BATCH_ENTRIES terms
    for start in range(0, z.size, rows):
        block = slice(start, start + rows)
        out[block], settled, failed = _sum_terms(z[block], terms, tables)
        left[block] = ~settled
        errors.update((start + r, exc) for r, exc in failed.items())
    first = min(errors, default=z.size)
    if (later := np.flatnonzero(left[:first])).size:  # the points left before the first failure
        if terms == SERIES_CAP:
            raise NonConvergent(
                f"theta1 series did not meet term_tol={TERM_TOL} within {SERIES_CAP} terms "
                f"(|nome|={abs(complex(params.nome)):.4g}, z={complex(z[later[0]])})")
        out[later] = _summed(z[later], min(2 * terms, SERIES_CAP), tables, params)
    if errors:
        raise errors[first]
    return out


def f_weights(points: Sequence[complex], regime: Regime) -> list[complex]:
    """The weight ``f`` at each of ``points``: ``theta1(i*lam)/2`` or ``sinh(lam)``.

    The one weight accessor.  Elliptic weights come from one :func:`theta1_batch`
    call over the distinct points in order of first appearance, told apart by
    bit pattern (``0.0`` and ``-0.0`` stay apart); it raises what the batch raises.
    """
    if not regime.is_elliptic:
        return list(map(cmath.sinh, points))
    bits = np.array(points, dtype=complex).view("V16").tolist()
    distinct = dict(zip(bits, points))
    thetas = theta1_batch(list(map((1j).__mul__, distinct.values())), regime.params).tolist()
    weights = dict(zip(distinct, map(complex.__truediv__, thetas, repeat(2.0))))
    return list(map(weights.__getitem__, bits))


def six_vertex(gamma: complex) -> tuple[Callable[[complex], complex],
                                        Callable[[complex], complex], complex]:
    """Six-vertex weights ``(a, b, c)`` at crossing parameter ``gamma``.

    ``a(z) = sinh(z + gamma)``, ``b(z) = sinh(z)`` and the constant
    ``c = sinh(gamma)``; the only place these weights are built.
    """
    return (lambda z: cmath.sinh(z + gamma)), cmath.sinh, cmath.sinh(gamma)
