"""Elliptic and trigonometric weight functions.

All statistical weights in this package are built from a single odd
function ``f``.  In the elliptic regime ``f(x) = theta1(i*x) / 2`` where
``theta1`` is the first Jacobi theta function in the series convention

    theta1(z) = 2 * sum_{n>=0} (-1)^n p^((n+1/2)^2) sin((2n+1) z),

with nome ``p``; in the trigonometric regime ``f = sinh``.  Powers of a
complex nome are computed as ``p**0.25 * p**(n*(n+1))`` so only one
fractional power is ever taken and the branch choice is fixed across
terms.  These powers, with the sign and the factor 2, are tabulated
once per nome, not per term, so a ``theta1`` call evaluates only the
sines.  The overall normalization of ``theta1`` is internal: every
identity verified downstream is homogeneous in ``f``.

:func:`theta1_batch` sums the same series at an array of points and
returns the same bits as :func:`theta1` at each.  It sums the terms of a
point in the same order and applies the same stop rule.  The numpy
operations it uses are chosen to round exactly as the scalar ones:

* complex ``np.sin`` is ``cmath.sin``, and ``np.hypot`` of the real and
  imaginary parts is ``abs()`` of a complex;
* complex products are spelled out in real components, because numpy's
  complex ``*`` may round differently from Python's;
* running sums are ``np.cumsum``, which adds in sequence, seeded with
  ``0j`` as the scalar sum is.

The batch sums one chunk of terms per point, enough near the real axis.
``np.sin`` is ``cmath.sin`` only up to ``|Im| = 708``.  A point that
would need a sine beyond that, whose partial sums stop being finite
before it converges, or that does not converge within the chunk, is
summed by :func:`theta1` instead, which raises what the scalar series
raises.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NomeTooLarge, NonConvergent

#: Largest admissible |nome|.  Beyond this the q-series converges too
#: slowly for the fixed term cap and term tolerance.
MAX_NOME = 0.9

#: Relative size below which theta-series terms stop the summation.
TERM_TOL = 1e-18

#: Largest |Im z| at which ``np.sin(z)`` is ``cmath.sin(z)``: beyond
#: ``log(DBL_MAX / 4) = 708.4`` cmath rescales and rounds differently.
_SIN_EXACT_IM = 708.0

#: Points :func:`theta1_batch` sums at a time: the transient arrays take
#: about 1 KB per point, so a batch of any size peaks near 1 MB.
_BATCH_BLOCK = 1024


@dataclass(frozen=True)
class EllipticParams:
    """Nome and term cap of the theta series."""

    nome: complex
    series_cap: int = 200

    def __post_init__(self) -> None:
        if abs(self.nome) >= MAX_NOME:
            raise NomeTooLarge(
                f"|nome| = {abs(self.nome):.6g} >= {MAX_NOME}; refusing to evaluate"
            )
        if self.series_cap < 1:
            raise ValueError("series_cap must be a positive integer")


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
def _theta1_coefficients(params: EllipticParams) -> tuple[complex, ...]:
    """The z-free factors ``2 (-1)^n p^(1/4) p^(n(n+1))``, n < series_cap.

    Built once per nome and truncation policy; each entry is the
    product :func:`theta1` used to form per term, in the same order, so
    ``coeff * sin((2n+1) z)`` is the same double.
    """
    p = complex(params.nome)
    if abs(p) >= MAX_NOME:
        raise NomeTooLarge(f"|nome| = {abs(p):.6g} >= {MAX_NOME}")
    p_quarter = p ** 0.25
    return tuple(2.0 * (-1) ** n * p_quarter * p ** (n * (n + 1))
                 for n in range(params.series_cap))


@lru_cache(maxsize=16)
def _theta1_coefficient_arrays(params: EllipticParams
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Real parts, imaginary parts and odd multipliers ``2n+1`` of the terms,
    and the chunk of terms :func:`theta1_batch` sums per point.

    The chunk is the number of terms after which the coefficients alone
    fall below ``TERM_TOL`` of the first, plus four: one for the
    two-term stop rule and three for the growth of the sines near the
    real axis.  Points further from it are summed by :func:`theta1`.
    """
    coeffs = np.array(_theta1_coefficients(params), dtype=complex)
    arrays = (coeffs.real.copy(), coeffs.imag.copy(),
              np.arange(1, 2 * params.series_cap, 2, dtype=float))
    for array in arrays:
        array.setflags(write=False)
    small = np.abs(coeffs) <= TERM_TOL * abs(coeffs[0])
    return arrays + (int(small.argmax()) + 5 if small.any() else params.series_cap,)


def theta1(z: complex, params: EllipticParams) -> complex:
    """First Jacobi theta function, truncated q-series.

    Truncation stops once two consecutive terms fall below
    ``TERM_TOL`` times the largest partial-sum magnitude seen so far
    (two terms, because ``sin((2n+1)z)`` can vanish accidentally for
    real ``z``).  Raises :class:`NonConvergent` if ``series_cap`` terms
    were not enough.
    """
    tol = TERM_TOL
    total = 0j
    scale = 1e-300  # floor of the partial-sum scale
    prev_mag = cmath.inf
    for n, coeff in enumerate(_theta1_coefficients(params)):
        term = coeff * cmath.sin((2 * n + 1) * z)
        total += term
        size = abs(total)
        if size > scale:
            scale = size
        mag = abs(term)
        # max(mag, prev_mag), spelled out: no builtin call per term
        if (prev_mag if prev_mag > mag else mag) <= tol * scale:
            return total
        prev_mag = mag
    raise NonConvergent(
        f"theta1 series did not meet term_tol={TERM_TOL} "
        f"within {params.series_cap} terms (|nome|={abs(complex(params.nome)):.4g}, z={z})"
    )


def theta1_batch(z: Sequence[complex], params: EllipticParams) -> np.ndarray:
    """:func:`theta1` at every point of the 1-d ``z``, bit for bit.

    Blocks of ``_BATCH_BLOCK`` points are summed in turn, each in one
    array pass over the first chunk of terms (see the module docstring
    for why each operation rounds as in :func:`theta1`); a point takes
    its value where it first meets the stop rule.  The other points are
    summed by :func:`theta1` in index order at the end of their block,
    so the error raised is the one of the first failing point.  No
    numpy warning is emitted.
    """
    z = np.asarray(z, dtype=complex)
    if z.size > _BATCH_BLOCK:
        return np.concatenate([theta1_batch(z[i:i + _BATCH_BLOCK], params)
                               for i in range(0, z.size, _BATCH_BLOCK)])
    coeff_re, coeff_im, odd, chunk = _theta1_coefficient_arrays(params)
    k, cr, ci = odd[:chunk], coeff_re[:chunk], coeff_im[:chunk]
    zr, zi = z.real[:, None], z.imag[:, None]
    with np.errstate(all="ignore"):
        arg = np.empty((z.size, k.size), dtype=complex)
        arg.real = k * zr - 0.0 * zi  # (2n+1) * z as the complex (2n+1, 0) times z
        arg.imag = k * zi + 0.0 * zr
        sine = np.sin(arg)
        # column 0 of each table holds the value before the first term
        run = np.zeros((z.size, k.size + 1), dtype=complex)
        np.subtract(cr * sine.real, ci * sine.imag, out=run.real[:, 1:])
        np.add(cr * sine.imag, ci * sine.real, out=run.imag[:, 1:])
        mags = np.full(run.shape, np.inf)
        np.hypot(run.real[:, 1:], run.imag[:, 1:], out=mags[:, 1:])
        np.cumsum(run, axis=1, out=run)
        scales = np.full(run.shape, 1e-300)
        np.hypot(run.real[:, 1:], run.imag[:, 1:], out=scales[:, 1:])
        # a non-finite term or partial sum (the sum of two such sizes
        # may also overflow; theta1 then merely redoes the point)
        bad = ~np.isfinite(mags[:, 1:] + scales[:, 1:])
        np.maximum.accumulate(scales, axis=1, out=scales)
        stop = np.maximum(mags[:, :-1], mags[:, 1:]) <= TERM_TOL * scales[:, 1:]
    rows = np.arange(z.size)
    first = (stop | bad).argmax(axis=1)
    out = run[rows, first + 1]
    clean = stop[rows, first] & ~bad[rows, first]
    for i in np.flatnonzero(~clean | (np.abs(z.imag) * k[-1] > _SIN_EXACT_IM)):
        out[i] = theta1(complex(z[i]), params)
    return out


def f_weight(lam: complex, regime: Regime) -> complex:
    """The odd weight function: ``theta1(i*lam)/2`` or ``sinh(lam)``."""
    if regime.is_elliptic:
        return theta1(1j * lam, regime.params) / 2.0
    return cmath.sinh(lam)


def f_weights(lams: Sequence[complex], params: EllipticParams) -> list[complex]:
    """The elliptic :func:`f_weight` at each of ``lams``, from one :func:`theta1_batch`."""
    thetas = theta1_batch([1j * lam for lam in lams], params).tolist()
    return [t / 2.0 for t in thetas]


def six_vertex(gamma: complex) -> tuple[Callable[[complex], complex],
                                        Callable[[complex], complex], complex]:
    """Six-vertex weights ``(a, b, c)`` at crossing parameter ``gamma``.

    ``a(z) = sinh(z + gamma)``, ``b(z) = sinh(z)`` and the constant
    ``c = sinh(gamma)``; the only place these weights are built.
    """
    return (lambda z: cmath.sinh(z + gamma)), cmath.sinh, cmath.sinh(gamma)
