"""Functional equations and operator identities.

Two families of linear functional equations are evaluated as normalized
residuals:

* the domain-wall equation, relating the partition function at a
  shifted dynamical parameter to partition functions with one spectral
  point swapped against an extra point ``lam_0``;
* the pair of scalar-product equations (one descended from the diagonal
  A-block, one from D), with independent swaps in the creation and
  annihilation sets.

Residuals are normalized by the sum of term magnitudes, not their max:
a transcription error then shows up as a residual near one even when
every term is tiny, which exposes catastrophic cancellation.

The exchange identities the equations descend from (commutation of a
diagonal block through a creation string, and its degree-n iterates) are
also verified directly as operator identities: each side is a sum of
block words, and :func:`~yblab.yb_core.relation_residual` applies them
to the identity columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import neg, pos
from typing import Callable

from .errors import RegimeMismatch, SingularCoefficient, SizeMismatch
from .lattice_qty import Evaluator, PairEvaluator, _creation_slots, as_values
from .special_fn import f_weights, six_vertex
from .yb_core import ModelContext, block_words, relation_residual, term_residual, worst

#: Relative floor for coefficient denominators.
DENOM_RTOL = 1e-12


def _guard(value: complex, scale: float, what: str) -> complex:
    if abs(value) <= DENOM_RTOL * max(scale, 1.0):
        raise SingularCoefficient(f"denominator {what} is singular: |{value}| ~ 0")
    return value


def _b_text(sgn: Callable[[complex], complex], x: str, y: str) -> str:
    """The guard text of ``b(sgn(x - y))``, naming the difference it evaluates."""
    return f"b({y} - {x})" if sgn is neg else f"b({x} - {y})"


def _swap_family(l0: complex, points: tuple[complex, ...], eig: Callable[[complex], complex],
                 sgn: Callable[[complex], complex], ctx: ModelContext) -> tuple[complex, ...]:
    """``c / b(sgn(lam_i - lam_0)) * prod_m eig(lam_i - mu_m) * prod_{j != i} a/b(sgn(lam_j -
    lam_i))`` at each point ``lam_i`` of ``points``: the trigonometric swap coefficients of the
    A family at ``(eig, sgn) = (a, pos)``, and of the D family, its reflection, at ``(b, neg)``.
    """
    a, b, c = six_vertex(ctx.gamma)
    head, cross = _b_text(sgn, "lam_i", "lam_0"), _b_text(sgn, "lam_j", "lam_i")
    out = []
    for i, li in enumerate(points):
        coeff = c / _guard(b(sgn(li - l0)), abs(c), head) * math.prod([eig(li - m) for m in ctx.mu])
        for lj in points[:i] + points[i + 1:]:
            z = sgn(lj - li)
            coeff *= a(z) / _guard(b(z), abs(c), cross)
        out.append(complex(coeff))
    return tuple(out)


@dataclass(frozen=True)
class FxCoefficients:
    """Coefficients of the domain-wall functional equation.

    ``n[i]`` multiplies the partition function with point ``i`` of the
    extended set (lam_0, lam_1, .., lam_L) removed; the list therefore
    has L+1 entries, index 0 corresponding to removal of lam_0 itself.
    """

    m0: complex
    n: tuple[complex, ...]


def fx_coefficients(l0: complex, X, theta: complex,
                    ctx: ModelContext) -> FxCoefficients:
    """Swap-equation coefficients for the partition function.

    Elliptic regime: the dynamical coefficients; the formula for N_i is
    uniform in i = 0..L (at i = 0 the singular-looking factors cancel
    pairwise).  Trigonometric regime: the theta-free coefficients
    obtained from the six-vertex extremal-state eigenvalues, N_1..N_L as
    :func:`_swap_family`'s A family; the i = 0 term is kept separate rather
    than folded into M_0, so this stays an independent transcription from
    the merged trigonometric form.
    """
    lams = as_values(X)
    L = ctx.L
    if len(lams) != L:
        raise SizeMismatch(f"need L = {L} spectral points, got {len(lams)}")
    g = ctx.gamma
    extended = (complex(l0),) + lams

    if ctx.is_elliptic:
        # every weight from one batch, listed in the order the formula reads it
        w = iter(f_weights([theta, theta + L * g] + [l0 - m for m in ctx.mu]
                           + [g, theta + (L + 1) * g]
                           + [p for i, li in enumerate(extended)
                              for p in [theta + g + l0 - li, l0 - li + g]
                              + [li - m + g for m in ctx.mu]
                              + [q for other in extended[:i] + extended[i + 1:]
                                 for q in (other - li + g, other - li)]],
                           ctx.regime))
        f_t, f_tl, *f_mu = islice(w, 2 + L)
        m0 = f_t / _guard(f_tl, 1.0, "f(theta + L*gamma)") * math.prod(f_mu)
        f_g, f_top = next(w), _guard(next(w), 1.0, "f(theta + (L+1)*gamma)")
        n = []
        for _ in extended:
            f_head, f_cross, *f_mu = islice(w, 2 + L)
            coeff = -(f_head / f_top) \
                * (f_g / _guard(f_cross, abs(f_g), "f(lam_0 - lam_i + gamma)")) * math.prod(f_mu)
            for _ in lams:  # the L other points
                coeff *= next(w) / _guard(next(w), abs(f_g), "f(lam - lam_i)")
            n.append(complex(coeff))
        return FxCoefficients(complex(m0), tuple(n))

    a, b, c = six_vertex(g)
    m0 = math.prod([b(l0 - m) for m in ctx.mu])
    n0 = -math.prod([a(l0 - m) for m in ctx.mu])
    for lam in lams:
        n0 *= a(lam - l0) / _guard(b(lam - l0), abs(c), "b(lam - lam_0)")
    return FxCoefficients(complex(m0), (complex(n0),) + _swap_family(l0, lams, a, pos, ctx))


def fx_residual(l0: complex, X, theta: complex, ctx: ModelContext,
                evaluate_z: Evaluator) -> float:
    """Normalized residual of the domain-wall swap equation.

    ``evaluate_z(sets, ctx)`` gives the partition function at each
    ``(points, theta)`` of ``sets`` in order, in this equation's model; a
    bulk route such as :func:`~yblab.lattice_qty.dwbc_partitions` is
    passed as it is.  It gets all L + 2 sets in one call.
    """
    lams = as_values(X)
    coeffs = fx_coefficients(l0, lams, theta, ctx)
    extended = (complex(l0),) + lams
    sets = [(lams, theta - ctx.gamma)] + [(extended[:i] + extended[i + 1:], theta)
                                          for i in range(len(extended))]
    return term_residual((coeffs.m0,) + coeffs.n, evaluate_z(sets, ctx))


@dataclass(frozen=True)
class SnadCoefficients:
    """Coefficients of the two scalar-product swap equations, the A type's then the D type's."""

    j0: complex
    kb: tuple[complex, ...]
    kc: tuple[complex, ...]
    jt0: complex
    ktb: tuple[complex, ...]
    ktc: tuple[complex, ...]


def snad_coefficients(l0: complex, XB, YC, ctx: ModelContext) -> SnadCoefficients:
    """Coefficients of the A-type and D-type scalar-product equations.

    ``equation(eig, sgn)`` builds each, at :func:`_swap_family`'s ``(a, pos)`` and
    ``(b, neg)``: its swap terms are that family at XB, and at YC negated.
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("scalar-product equations live in the trigonometric regime")
    xb, yc = as_values(XB), as_values(YC)
    if len(yc) != len(xb):
        raise SizeMismatch(f"|XB| = {len(xb)} differs from |YC| = {len(yc)}")
    a, b, c = six_vertex(ctx.gamma)
    ratio = lambda z, what: a(z) / _guard(b(z), abs(c), what)

    def equation(eig, sgn):
        head = math.prod([eig(l0 - m) for m in ctx.mu]) * (
            math.prod([ratio(sgn(y - l0), _b_text(sgn, "yc_i", "lam_0")) for y in yc])
            - math.prod([ratio(sgn(x - l0), _b_text(sgn, "xb_i", "lam_0")) for x in xb]))
        return (complex(head), _swap_family(l0, xb, eig, sgn, ctx),
                tuple(-k for k in _swap_family(l0, yc, eig, sgn, ctx)))

    return SnadCoefficients(*equation(a, pos), *equation(b, neg))


def snad_residuals(l0: complex, XB, YC, ctx: ModelContext,
                   evaluate_s: PairEvaluator) -> tuple[float, float]:
    """Normalized residuals of the two scalar-product swap equations.

    ``evaluate_s(pairs, ctx)`` gives the scalar product at each ``(XB,
    YC)`` of ``pairs`` in order, in this equation's model, as
    :func:`~yblab.lattice_qty.scalar_products_bf` does.  It gets all 2n + 1
    pairs in one call: the pair itself, then ``lam_0`` swapped for each
    point of XB, then for each point of YC.
    """
    xb = as_values(XB)
    yc = as_values(YC)
    n = len(xb)
    coeffs = snad_coefficients(l0, xb, yc, ctx)
    values = evaluate_s([(xb, yc)] + [((l0,) + xb[:i] + xb[i + 1:], yc) for i in range(n)]
                        + [(xb, (l0,) + yc[:i] + yc[i + 1:]) for i in range(n)], ctx)
    return (term_residual((coeffs.j0,) + coeffs.kb + coeffs.kc, values),
            term_residual((coeffs.jt0,) + coeffs.ktb + coeffs.ktc, values))


# --- operator identities -------------------------------------------------

def verify_ab(l1: complex, l2: complex, ctx: ModelContext) -> float:
    """Six-vertex exchange of the A-block at ``l1`` through one B block at ``l2``.

    It is the ``tay`` rule with no C string and the one-point B string ``(l2,)``.
    """
    return _tay_tdy(l1, (l2,), (), ctx, use_d=False)


def verify_bb(l1: complex, l2: complex, theta: complex, ctx: ModelContext) -> float:
    """Dynamical exchange rules at degree two; returns the worse residual.

    Checks both the creation-creation exchange (equal-argument ladder)
    and the diagonal-through-creation rule with its dynamical
    coefficients.
    """
    if not ctx.is_elliptic:
        raise RegimeMismatch("the dynamical exchange rules need the elliptic regime")
    g = ctx.gamma
    t1, t2 = theta + g, theta + 2 * g
    word = block_words([(l1, theta), (l2, theta), (l1, t1), (l2, t1), (l1, t2), (l2, t2)], ctx)
    res_bb = relation_residual(word, ((), [(None, [("B", l1, theta), ("B", l2, t1)])]),
                               ((), [(None, [("B", l2, theta), ("B", l1, t1)])]), ctx.dim)

    f_g, f_d, f_t2, f_plus, f_t1, f_cross = f_weights(
        [g, l2 - l1, t2, l2 - l1 + g, t1, t1 - l2 + l1], ctx.regime)
    f_d = _guard(f_d, abs(f_g), "f(lam_2 - lam_1)")
    f_t2 = _guard(f_t2, 1.0, "f(theta + 2*gamma)")
    return worst((res_bb, relation_residual(
        word, ((), [(None, [("A", l1, t1), ("B", l2, theta)])]),
        ((), [((f_plus / f_d) * (f_t1 / f_t2), [("B", l2, t1), ("A", l1, t2)]),
              (-((f_cross / f_d) * (f_g / f_t2)), [("B", l1, t1), ("A", l2, t2)])]), ctx.dim)))


def verify_abn(l0: complex, lams, theta: complex, ctx: ModelContext) -> float:
    """Degree-(n+1) iterate: diagonal block through a creation string.

    The creation string carries slot-tied dynamical arguments
    ``theta + j*gamma``; on the right-hand side each swap term replaces
    one spectral point of the string by ``lam_0``.
    """
    if not ctx.is_elliptic:
        raise RegimeMismatch("the degree-n exchange iterate is dynamical (elliptic)")
    lams = as_values(lams)
    n = len(lams)
    if n == 0:
        raise SizeMismatch("the creation string needs at least one spectral point")
    g = ctx.gamma
    t1, top = theta + g, theta + (n + 1) * g
    slots = lambda pts, t: _creation_slots(pts, t, ctx)
    swaps = [((l0,) + lams[:i] + lams[i + 1:], li) for i, li in enumerate(lams)]
    word = block_words([(l0, t1)] + slots(lams, theta - g) + slots(lams, theta) + [(l0, top)]
                       + [key for swapped, li in swaps
                          for key in slots(swapped, theta) + [(li, top)]], ctx)
    # the creation string at theta, then A(lam, top) acting first
    string_a = lambda pts, lam: [("B", *key) for key in slots(pts, theta)] + [("A", lam, top)]
    # every weight from one batch, listed in the order the formula reads it
    w = iter(f_weights([g, t1, top] + [p for lam in lams for p in (lam - l0 + g, lam - l0)]
                       + [p for i, li in enumerate(lams) for p in (t1 - li + l0, li - l0)
                          + tuple(q for j, lj in enumerate(lams) if j != i
                                  for q in (lj - li + g, lj - li))], ctx.regime))
    f_g, f_t1, f_top = islice(w, 3)
    head = f_t1 / (f_top := _guard(f_top, 1.0, "f(theta + (n+1)*gamma)"))
    for _ in lams:
        head *= next(w) / _guard(next(w), abs(f_g), "f(lam_j - lam_0)")
    terms = [(head, string_a(lams, l0))]
    for swapped, li in swaps:
        coeff = (next(w) / f_top) * (f_g / _guard(next(w), abs(f_g), "f(lam_i - lam_0)"))
        for _ in range(n - 1):
            coeff *= next(w) / _guard(next(w), abs(f_g), "f(lam_j - lam_i)")
        terms.append((-coeff, string_a(swapped, li)))
    lhs = [("A", l0, t1)] + [("B", *key) for key in slots(lams, theta - g)]
    return relation_residual(word, ((), [(None, lhs)]), ((), terms), ctx.dim)


def _tay_tdy(l0: complex, xb, yc, ctx: ModelContext, use_d: bool) -> float:
    if ctx.is_elliptic:
        raise RegimeMismatch("the theta-free exchange identities are trigonometric")
    xb = as_values(xb)
    yc = as_values(yc)
    if not xb + yc:
        raise SizeMismatch("the creation and annihilation strings need at least one point")
    a, b, c = six_vertex(ctx.gamma)
    word = block_words([(lam, 0.0) for lam in (l0,) + xb + yc], ctx)
    diag = lambda lam: [("D" if use_d else "A", lam, 0.0)]
    cstr = lambda pts: [("C", p, 0.0) for p in reversed(pts)]
    bstr = lambda pts: [("B", p, 0.0) for p in pts]
    sgn = neg if use_d else pos
    ratio = lambda z, what: a(z) / _guard(b(z), abs(c), what)

    def terms(pts, side, letters):
        """The terms of one side: the points ``pts`` at ``lam_0``, then each point
        swapped for ``lam_0``; ``letters(points, lam)`` spells a term's word."""
        head, cross = _b_text(sgn, f"{side}_i", "lam_0"), _b_text(sgn, f"{side}_j", f"{side}_i")
        yield math.prod([ratio(sgn(p - l0), head) for p in pts]), letters(pts, l0)
        for i, pi in enumerate(pts):
            coeff = c / _guard(b(sgn(pi - l0)), abs(c), head)
            for j, pj in enumerate(pts):
                if j != i:
                    coeff *= ratio(sgn(pj - pi), cross)
            yield -coeff, letters((l0,) + pts[:i] + pts[i + 1:], pi)

    # each left term ends in the B string; by linearity the C string acts once, on the right sum
    lhs = list(terms(yc, "yc", lambda pts, lam: diag(lam) + cstr(pts) + bstr(xb)))
    rhs = list(terms(xb, "xb", lambda pts, lam: bstr(pts) + diag(lam)))
    return relation_residual(word, ((), lhs), (cstr(yc), rhs), ctx.dim)


def verify_tay(l0: complex, xb, yc, ctx: ModelContext) -> float:
    """Order-(m+n+1) identity from commuting the A-block through both strings.

    The C string has the m points ``yc``, the B string the n points ``xb``; m + n >= 1.
    """
    return _tay_tdy(l0, xb, yc, ctx, use_d=False)


def verify_tdy(l0: complex, xb, yc, ctx: ModelContext) -> float:
    """Order-(m+n+1) identity: the D-block commuted through the strings of :func:`verify_tay`."""
    return _tay_tdy(l0, xb, yc, ctx, use_d=True)


#: The exchange identities by kind, with their parameters: ``ab`` (l1, l2),
#: ``bb`` (l1, l2, theta), ``abn`` (l0, lams, theta), ``tay``/``tdy`` (l0, xb, yc).
IDENTITIES: dict[str, Callable[..., float]] = {
    "ab": verify_ab, "bb": verify_bb, "abn": verify_abn, "tay": verify_tay, "tdy": verify_tdy}


def verify_identity(kind: str, ctx: ModelContext, **params) -> float:
    """The identity ``kind`` of :data:`IDENTITIES` at ``params``, passed by name."""
    if kind not in IDENTITIES:
        raise ValueError(f"unknown identity kind {kind!r}; expected one of {tuple(IDENTITIES)}")
    return IDENTITIES[kind](ctx=ctx, **params)
