"""Admissible-point samplers for the random verification suites.

The verified identities have explicit poles at coincident spectral
points and at zeros of the weight function's shifted arguments; samplers
reject candidates until every relevant weight magnitude clears a floor,
so random suites never test on top of a singularity.

A sampler called on its own tests each candidate as it is drawn, with one
weight batch.  :func:`draw_checked`, which draws the samples of ``run``,
instead lets a whole draw accept every candidate while it records the
points, then tests them all with one batch; if that batch rejects a point
or raises, the draw runs again from a copy of the stream, testing each
candidate as it is drawn.  Either way a draw returns the parameters and
leaves the stream where testing each candidate would.
"""

from __future__ import annotations

import contextvars
import copy
from typing import Any, Callable

from .errors import NonConvergent, SamplingExhausted
from .rng import Stream
from .special_fn import Regime, f_weights
from .yb_core import ModelContext

#: Sampling rectangle for spectral parameters.
RECT_RE = (-1.0, 1.0)
RECT_IM = (-0.4, 0.4)
#: Inhomogeneities come from a smaller box so differences stay in range.
MU_RE = (-0.5, 0.5)
MU_IM = (-0.2, 0.2)
#: Weight-magnitude floor for admissibility.
MIN_WEIGHT = 1e-3
#: Candidates a sampler draws before it raises :class:`SamplingExhausted`.
MAX_TRIES = 10_000

DEFAULT_GAMMA = 0.41 + 0.07j
DEFAULT_NOME = 0.2 + 0.0j

#: Inside :func:`draw_checked`'s first run of a draw, the list the
#: admissibility tests record their points in instead of testing them.
_DEFERRED: contextvars.ContextVar[list[complex] | None] = \
    contextvars.ContextVar("_DEFERRED", default=None)


def draw_point(rng: Stream) -> complex:
    return complex(rng.uniform(*RECT_RE), rng.uniform(*RECT_IM))


def _clear(ctx: ModelContext, points: list[complex]) -> bool:
    """|f| > MIN_WEIGHT at every one of ``points``, from one weight batch."""
    return all(abs(w) > MIN_WEIGHT for w in f_weights(points, ctx.regime))


def _admissible(ctx: ModelContext, points: list[complex]) -> bool:
    """|f| > MIN_WEIGHT at every one of ``points``, from one weight batch; if it raises,
    point by point in order, so that a rejection hides the error of a later point.
    Inside a deferred draw the points are recorded and the answer is yes."""
    deferred = _DEFERRED.get()
    if deferred is not None:
        deferred.extend(points)
        return True
    try:
        return _clear(ctx, points)
    except (OverflowError, NonConvergent):
        return all(abs(ctx.f(p)) > MIN_WEIGHT for p in points)


def draw_checked(draw: Callable[[ModelContext, Any], dict], ctx: ModelContext,
                 rng: Any) -> tuple[dict, Any]:
    """``draw(ctx, rng)`` with its admissibility tests taken in one weight batch at the end.

    Returns the params, and the stream to draw on next, of the draw that tests
    each candidate as it is drawn, or raises that draw's error: that draw runs,
    on a copy of ``rng`` taken at the start, when the batch rejects a point or
    raises.  A draw that tests no point makes no weight call.
    """
    start = copy.deepcopy(rng)  # a Generator's shallow copy shares its bit generator
    recorded: list[complex] = []
    token = _DEFERRED.set(recorded)
    try:
        params = draw(ctx, rng)
    finally:
        _DEFERRED.reset(token)
    try:
        if not recorded or _clear(ctx, recorded):
            return params, rng
    except (OverflowError, NonConvergent):
        pass
    return draw(ctx, start), start


def sample_spectral(ctx: ModelContext, rng: Stream, count: int,
                    avoid: tuple[complex, ...] = ()) -> tuple[complex, ...]:
    """Draw spectral points with pairwise-admissible differences.

    Candidates are rejected until |f(p - q)| > MIN_WEIGHT against every
    previously accepted point and every point in ``avoid``; raises
    :class:`SamplingExhausted` after ``MAX_TRIES`` candidates.
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
    ``theta + k*gamma`` will actually be used; each must satisfy
    |f(theta + k*gamma)| > MIN_WEIGHT.  Trigonometric contexts do not
    use the dynamical parameter; zero is returned at once.  Raises
    :class:`SamplingExhausted` after ``MAX_TRIES`` candidates.
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
