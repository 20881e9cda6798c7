"""Admissible-point samplers for the random verification suites.

The verified identities have their poles only at the zeros of the weight
``f``, a lattice known from the nome alone: ``n log p + i pi m`` for
``f(x) = theta1(i x) / 2`` (DLMF 20.2) and ``i pi m`` for ``sinh``.
Samplers reject candidates until every relevant point (a difference of
spectral points, a shifted dynamical argument) lies farther than
``ZERO_RADIUS`` from that lattice, so random suites never test on top of
a singularity; no weight is read to decide it.  In units of the cell, the
radius is 1/3142 of the imaginary period ``pi``, and of the real period
``log(1/|p|)`` 1/1609 at the default nome 0.2, 1/117 at nome 0.89 and
under 1/105 below the nome cap 0.9.
"""

from __future__ import annotations

import cmath
import math

from .errors import SamplingExhausted
from .rng import Stream
from .special_fn import Regime
from .yb_core import ModelContext

#: Sampling rectangle for spectral parameters.
RECT_RE = (-1.0, 1.0)
RECT_IM = (-0.4, 0.4)
#: Inhomogeneities come from a smaller box so differences stay in range.
MU_RE = (-0.5, 0.5)
MU_IM = (-0.2, 0.2)
#: Distance to the zero lattice of ``f`` below which a point is refused.
ZERO_RADIUS = 1e-3
#: Candidates a sampler draws before it raises :class:`SamplingExhausted`.
MAX_TRIES = 10_000

DEFAULT_GAMMA = 0.41 + 0.07j
DEFAULT_NOME = 0.2 + 0.0j


def draw_point(rng: Stream) -> complex:
    return complex(rng.uniform(*RECT_RE), rng.uniform(*RECT_IM))


def _admissible(ctx: ModelContext, points: list[complex]) -> bool:
    """Every one of ``points`` lies farther than ``ZERO_RADIUS`` from the zeros of ``f``.

    A point is reduced by the nearest lattice step along each period: a
    multiple of ``w = log(nome)`` by its real part (elliptic only), then a
    multiple of ``i pi`` by its imaginary part.  One column of the lattice is
    enough, since ``|Re w| > log(1/0.9) = 0.105`` below the nome cap, far
    more than twice the radius.
    """
    w = cmath.log(ctx.regime.params.nome) if ctx.is_elliptic else None
    for z in points:
        if w is not None:
            z -= round(z.real / w.real) * w
        z -= 1j * math.pi * round(z.imag / math.pi)
        if abs(z) <= ZERO_RADIUS:
            return False
    return True


def sample_spectral(ctx: ModelContext, rng: Stream, count: int,
                    avoid: tuple[complex, ...] = ()) -> tuple[complex, ...]:
    """Draw spectral points with pairwise-admissible differences.

    Candidates are rejected until ``p - q`` lies farther than ``ZERO_RADIUS``
    (1/117 of the real period at nome 0.89) from the zero lattice of ``f``
    against every previously accepted point and every point in ``avoid``;
    raises :class:`SamplingExhausted` after ``MAX_TRIES`` candidates.
    """
    points: list[complex] = []
    tries = 0
    while len(points) < count:
        tries += 1
        if tries > MAX_TRIES:
            raise SamplingExhausted("admissible-point sampling did not terminate")
        cand = draw_point(rng)
        if _admissible(ctx, [cand - o for o in points + list(avoid)]):
            points.append(cand)
    return tuple(points)


def sample_theta(ctx: ModelContext, rng: Stream,
                 shifts: range | None = None) -> complex:
    """Draw a dynamical parameter clear of weight-function zeros.

    ``shifts`` is the range of integer multiples k for which
    ``theta + k*gamma`` will actually be used; each must lie farther than
    ``ZERO_RADIUS`` (1/117 of the real period at nome 0.89) from the zero
    lattice of ``f``.  Trigonometric contexts do not use the dynamical
    parameter; zero is returned at once.  Raises :class:`SamplingExhausted`
    after ``MAX_TRIES`` candidates.
    """
    if not ctx.is_elliptic:
        return 0j
    if shifts is None:
        shifts = range(-(ctx.L + 2), 2 * ctx.L + 3)
    for _ in range(MAX_TRIES):
        cand = draw_point(rng)
        if _admissible(ctx, [cand + k * ctx.gamma for k in shifts]):
            return cand
    raise SamplingExhausted("admissible theta sampling did not terminate")


def sample_mu(rng: Stream, count: int) -> tuple[complex, ...]:
    """Inhomogeneities: distinct points from the small box."""
    points: list[complex] = []
    while len(points) < count:
        cand = complex(rng.uniform(*MU_RE), rng.uniform(*MU_IM))
        if all(abs(cand - o) > 1e-2 for o in points):
            points.append(cand)
    return tuple(points)


def random_context(L: int, rng: Stream, *,
                   elliptic: bool = True,
                   gamma: complex = DEFAULT_GAMMA,
                   nome: complex = DEFAULT_NOME) -> ModelContext:
    """Model context with seeded random inhomogeneities."""
    regime = Regime.elliptic(nome) if elliptic else Regime.trigonometric()
    return ModelContext(L=L, gamma=gamma, mu=sample_mu(rng, L), regime=regime)
