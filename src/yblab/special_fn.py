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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import NomeTooLarge, NonConvergent

#: Largest admissible |nome|.  Beyond this the q-series converges too
#: slowly for the fixed term cap and term tolerance.
MAX_NOME = 0.9


@dataclass(frozen=True)
class EllipticParams:
    """Nome and truncation policy for the theta series."""

    nome: complex
    series_cap: int = 200
    term_tol: float = 1e-18

    def __post_init__(self) -> None:
        if abs(self.nome) >= MAX_NOME:
            raise NomeTooLarge(
                f"|nome| = {abs(self.nome):.6g} >= {MAX_NOME}; refusing to evaluate"
            )
        if self.series_cap < 1:
            raise ValueError("series_cap must be a positive integer")
        if self.term_tol <= 0:
            raise ValueError("term_tol must be positive")


@dataclass(frozen=True)
class Regime:
    """Which weight function is in force.

    ``params is None`` means trigonometric (``f = sinh``); otherwise the
    elliptic theta weight with the given nome.  Exactly one variant is
    active and every weight evaluation dispatches on it.
    """

    params: EllipticParams | None = None

    @classmethod
    def elliptic(cls, nome: complex, series_cap: int = 200,
                 term_tol: float = 1e-18) -> "Regime":
        return cls(EllipticParams(complex(nome), series_cap, term_tol))

    @classmethod
    def trigonometric(cls) -> "Regime":
        return cls(None)

    @property
    def is_elliptic(self) -> bool:
        return self.params is not None

    def __str__(self) -> str:
        if self.is_elliptic:
            return f"elliptic(nome={self.params.nome:.6g})"
        return "trigonometric"


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


def theta1(z: complex, params: EllipticParams) -> complex:
    """First Jacobi theta function, truncated q-series.

    Truncation stops once two consecutive terms fall below
    ``term_tol`` times the largest partial-sum magnitude seen so far
    (two terms, because ``sin((2n+1)z)`` can vanish accidentally for
    real ``z``).  Raises :class:`NonConvergent` if ``series_cap`` terms
    were not enough.
    """
    tol = params.term_tol
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
        f"theta1 series did not meet term_tol={params.term_tol} "
        f"within {params.series_cap} terms (|nome|={abs(complex(params.nome)):.4g}, z={z})"
    )


def f_weight(lam: complex, regime: Regime) -> complex:
    """The odd weight function: ``theta1(i*lam)/2`` or ``sinh(lam)``."""
    if regime.is_elliptic:
        return theta1(1j * lam, regime.params) / 2.0
    return cmath.sinh(lam)


def six_vertex(gamma: complex) -> tuple[Callable[[complex], complex],
                                        Callable[[complex], complex], complex]:
    """Six-vertex weights ``(a, b, c)`` at crossing parameter ``gamma``.

    ``a(z) = sinh(z + gamma)``, ``b(z) = sinh(z)`` and the constant
    ``c = sinh(gamma)``; the only place these weights are built.
    """
    return (lambda z: cmath.sinh(z + gamma)), cmath.sinh, cmath.sinh(gamma)
