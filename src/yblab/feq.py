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
also verified directly as dense operator identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import RegimeMismatch, SingularCoefficient, SizeMismatch
from .lattice_qty import Evaluator, as_values
from .special_fn import six_vertex
from .yb_core import (ModelContext, _monodromy_blocks, build_chains, monodromy_blocks, residual,
                      term_residual)

#: Relative floor for coefficient denominators.
DENOM_RTOL = 1e-12


def _guard(value: complex, scale: float, what: str) -> complex:
    if abs(value) <= DENOM_RTOL * max(scale, 1.0):
        raise SingularCoefficient(f"denominator {what} is singular: |{value}| ~ 0")
    return value


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
    obtained from the six-vertex extremal-state eigenvalues; the i = 0
    term is kept separate rather than folded into M_0, so this stays an
    independent transcription from the merged trigonometric form.
    """
    lams = as_values(X)
    L = ctx.L
    if len(lams) != L:
        raise SizeMismatch(f"need L = {L} spectral points, got {len(lams)}")
    g = ctx.gamma
    f = ctx.f
    extended = (complex(l0),) + lams

    if ctx.is_elliptic:
        m0 = f(theta) / _guard(f(theta + L * g), 1.0, "f(theta + L*gamma)") \
            * np.prod([f(l0 - m) for m in ctx.mu])
        f_g = f(g)
        f_top = _guard(f(theta + (L + 1) * g), 1.0, "f(theta + (L+1)*gamma)")
        n = []
        for i, li in enumerate(extended):
            rest = extended[:i] + extended[i + 1:]
            coeff = -(f(theta + g + l0 - li) / f_top) \
                * (f_g / _guard(f(l0 - li + g), abs(f_g), "f(lam_0 - lam_i + gamma)")) \
                * np.prod([f(li - m + g) for m in ctx.mu])
            for other in rest:
                coeff *= f(other - li + g) \
                    / _guard(f(other - li), abs(f_g), "f(lam - lam_i)")
            n.append(complex(coeff))
        return FxCoefficients(complex(m0), tuple(n))

    a, b, c = six_vertex(g)
    m0 = np.prod([b(l0 - m) for m in ctx.mu])
    n0 = -np.prod([a(l0 - m) for m in ctx.mu])
    for lam in lams:
        n0 *= a(lam - l0) / _guard(b(lam - l0), abs(c), "b(lam - lam_0)")
    n = [complex(n0)]
    for i, li in enumerate(lams):
        coeff = (c / _guard(b(li - l0), abs(c), "b(lam_i - lam_0)")) \
            * np.prod([a(li - m) for m in ctx.mu])
        for j, lj in enumerate(lams):
            if j != i:
                coeff *= a(lj - li) / _guard(b(lj - li), abs(c), "b(lam_j - lam_i)")
        n.append(complex(coeff))
    return FxCoefficients(complex(m0), tuple(n))


def fx_residual(l0: complex, X, theta: complex, ctx: ModelContext,
                evaluate_z: Evaluator) -> float:
    """Normalized residual of the domain-wall swap equation.

    ``evaluate_z(sets)`` gives the partition function at each ``(points,
    theta)`` of ``sets`` in order; it is injected so both the brute-force
    contraction (:func:`~yblab.lattice_qty.dwbc_partitions`) and the
    residue evaluator can be run through the same equation.  It gets
    all L + 2 sets in one call.
    """
    lams = as_values(X)
    coeffs = fx_coefficients(l0, lams, theta, ctx)
    extended = (complex(l0),) + lams
    sets = [(lams, theta - ctx.gamma)] + [(extended[:i] + extended[i + 1:], theta)
                                          for i in range(len(extended))]
    return term_residual([c * z for c, z in zip((coeffs.m0,) + coeffs.n, evaluate_z(sets),
                                                strict=True)])


@dataclass(frozen=True)
class SnadCoefficients:
    """Coefficients of the two scalar-product swap equations."""

    j0: complex
    jt0: complex
    kb: tuple[complex, ...]
    kc: tuple[complex, ...]
    ktb: tuple[complex, ...]
    ktc: tuple[complex, ...]


def snad_coefficients(l0: complex, XB, YC, ctx: ModelContext) -> SnadCoefficients:
    """Coefficients of the A-type and D-type scalar-product equations."""
    if ctx.is_elliptic:
        raise RegimeMismatch("scalar-product equations live in the trigonometric regime")
    xb = as_values(XB)
    yc = as_values(YC)
    n = len(xb)
    if len(yc) != n:
        raise SizeMismatch(f"|XB| = {n} differs from |YC| = {len(yc)}")
    a, b, c = six_vertex(ctx.gamma)

    def ratio(z, what):
        return a(z) / _guard(b(z), abs(c), what)

    j0 = np.prod([a(l0 - m) for m in ctx.mu]) * (
        np.prod([ratio(y - l0, "b(yc_i - lam_0)") for y in yc])
        - np.prod([ratio(x - l0, "b(xb_i - lam_0)") for x in xb]))
    jt0 = np.prod([b(l0 - m) for m in ctx.mu]) * (
        np.prod([ratio(l0 - y, "b(lam_0 - yc_i)") for y in yc])
        - np.prod([ratio(l0 - x, "b(lam_0 - xb_i)") for x in xb]))

    def family(points, alpha, tilde):
        out = []
        for i, li in enumerate(points):
            rest = [points[j] for j in range(n) if j != i]
            if tilde:
                coeff = alpha * c / _guard(b(l0 - li), abs(c), "b(lam_0 - lam_i)") \
                    * np.prod([b(li - m) for m in ctx.mu])
                for lj in rest:
                    coeff *= ratio(li - lj, "b(lam_i - lam_j)")
            else:
                coeff = alpha * c / _guard(b(li - l0), abs(c), "b(lam_i - lam_0)") \
                    * np.prod([a(li - m) for m in ctx.mu])
                for lj in rest:
                    coeff *= ratio(lj - li, "b(lam_j - lam_i)")
            out.append(complex(coeff))
        return tuple(out)

    return SnadCoefficients(
        j0=complex(j0), jt0=complex(jt0),
        kb=family(xb, 1, False), kc=family(yc, -1, False),
        ktb=family(xb, 1, True), ktc=family(yc, -1, True))


def snad_residuals(l0: complex, XB, YC, ctx: ModelContext,
                   evaluate_s: Callable[[Sequence[complex], Sequence[complex]], complex]
                   ) -> tuple[float, float]:
    """Normalized residuals of the two scalar-product swap equations."""
    xb = as_values(XB)
    yc = as_values(YC)
    n = len(xb)
    coeffs = snad_coefficients(l0, xb, yc, ctx)
    s0 = evaluate_s(xb, yc)
    s_bswap = [evaluate_s((l0,) + xb[:i] + xb[i + 1:], yc) for i in range(n)]
    s_cswap = [evaluate_s(xb, (l0,) + yc[:i] + yc[i + 1:]) for i in range(n)]

    def residual(head, kb, kc):
        return term_residual([head * s0] + [k * s for k, s in zip(kb, s_bswap)]
                             + [k * s for k, s in zip(kc, s_cswap)])

    return (residual(coeffs.j0, coeffs.kb, coeffs.kc),
            residual(coeffs.jt0, coeffs.ktb, coeffs.ktc))


# --- operator identities -------------------------------------------------

IDENTITY_KINDS = ("ab", "bb", "abn", "tay", "tdy")


def _block_table(ctx: ModelContext, keys: Sequence[tuple[complex, complex]] = ()
                 ) -> Callable[[complex, complex], tuple]:
    """``monodromy_blocks`` by ``(lam, theta)``, each built once; one table per check.

    One chain lookup serves them all; it builds the chains of the
    ``(lam, theta)`` ``keys``, in check order, from one weight batch.
    """
    chains = build_chains([(lam, theta, 0) for lam, theta in keys], ctx)
    return cache(lambda lam, theta: _monodromy_blocks(chains, lam, theta, ctx))


def _string(blocks: Sequence[np.ndarray], dim: int) -> np.ndarray:
    out = np.eye(dim, dtype=complex)
    for m in blocks:
        out = out @ m
    return out


def verify_ab(l1: complex, l2: complex, ctx: ModelContext) -> float:
    """Six-vertex exchange of a diagonal block through one creation block."""
    if ctx.is_elliptic:
        raise RegimeMismatch("the theta-free exchange rule is trigonometric")
    a, b, c = six_vertex(ctx.gamma)
    d = l2 - l1
    _guard(b(d), abs(c), "b(lam_2 - lam_1)")
    a1, b1 = monodromy_blocks(l1, 0.0, ctx)[:2]
    a2, b2 = monodromy_blocks(l2, 0.0, ctx)[:2]
    lhs = a1 @ b2
    rhs = (a(d) / b(d)) * b2 @ a1 - (c / b(d)) * b1 @ a2
    return residual(lhs, rhs)


def verify_bb(l1: complex, l2: complex, theta: complex, ctx: ModelContext) -> float:
    """Dynamical exchange rules at degree two; returns the worse residual.

    Checks both the creation-creation exchange (equal-argument ladder)
    and the diagonal-through-creation rule with its dynamical
    coefficients.
    """
    if not ctx.is_elliptic:
        raise RegimeMismatch("the dynamical exchange rules need the elliptic regime")
    f = ctx.f
    g = ctx.gamma
    f_g = f(g)
    t1, t2 = theta + g, theta + 2 * g
    blocks = _block_table(ctx, [(l1, theta), (l2, theta), (l1, t1), (l2, t1), (l1, t2), (l2, t2)])
    b11 = blocks(l1, theta)[1]
    b21 = blocks(l2, theta)[1]
    b12 = blocks(l1, t1)[1]
    b22 = blocks(l2, t1)[1]
    res_bb = residual(b11 @ b22, b21 @ b12)

    f_d = _guard(f(l2 - l1), abs(f_g), "f(lam_2 - lam_1)")
    f_t2 = _guard(f(t2), 1.0, "f(theta + 2*gamma)")
    lhs = blocks(l1, t1)[0] @ b21
    rhs = (f(l2 - l1 + g) / f_d) * (f(t1) / f_t2) * b22 @ blocks(l1, t2)[0] \
        - (f(t1 - l2 + l1) / f_d) * (f_g / f_t2) * b12 @ blocks(l2, t2)[0]
    return max(res_bb, residual(lhs, rhs))


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
    f = ctx.f
    g = ctx.gamma
    t1, top = theta + g, theta + (n + 1) * g
    slots = lambda pts, t: [(p, t + j * g) for j, p in enumerate(pts, 1)]
    swaps = [((l0,) + lams[:i] + lams[i + 1:], li) for i, li in enumerate(lams)]
    blocks = _block_table(ctx, [(l0, t1)] + slots(lams, theta - g) + slots(lams, theta)
                          + [(l0, top)] + [key for swapped, li in swaps
                                           for key in slots(swapped, theta) + [(li, top)]])
    a_of = lambda lam, t: blocks(lam, t)[0]
    y_of = lambda pts, t: _string([blocks(*key)[1] for key in slots(pts, t)], ctx.dim)

    lhs = a_of(l0, t1) @ y_of(lams, theta - g)
    f_g = f(g)
    head = f(t1) / (f_top := _guard(f(top), 1.0, "f(theta + (n+1)*gamma)"))
    for lam in lams:
        head *= f(lam - l0 + g) / _guard(f(lam - l0), abs(f_g), "f(lam_j - lam_0)")
    rhs = head * y_of(lams, theta) @ a_of(l0, top)
    for i, (swapped, li) in enumerate(swaps):
        coeff = (f(t1 - li + l0) / f_top) \
            * (f_g / _guard(f(li - l0), abs(f_g), "f(lam_i - lam_0)"))
        for j, lj in enumerate(lams):
            if j != i:
                coeff *= f(lj - li + g) / _guard(f(lj - li), abs(f_g), "f(lam_j - lam_i)")
        rhs = rhs - coeff * y_of(swapped, theta) @ a_of(li, top)
    return residual(lhs, rhs)


def _tay_tdy(l0: complex, xb, yc, ctx: ModelContext, use_d: bool) -> float:
    if ctx.is_elliptic:
        raise RegimeMismatch("the order-(2n+1) exchange identities are trigonometric")
    xb = as_values(xb)
    yc = as_values(yc)
    n = len(xb)
    if len(yc) != n:
        raise SizeMismatch(f"|XB| = {n} differs from |YC| = {len(yc)}")
    a, b, c = six_vertex(ctx.gamma)
    dim = ctx.dim
    blk = 3 if use_d else 0
    blocks = _block_table(ctx)
    diag = lambda lam: blocks(lam, 0.0)[blk]
    bmat = lambda lam: blocks(lam, 0.0)[1]
    cmat = lambda lam: blocks(lam, 0.0)[2]
    cstr = lambda pts: _string([cmat(p) for p in reversed(pts)], dim)
    bstr = lambda pts: _string([bmat(p) for p in pts], dim)
    sgn = (lambda z: -z) if use_d else (lambda z: z)

    def ratio(z, what):
        return a(z) / _guard(b(z), abs(c), what)

    cc = cstr(yc)
    bb = bstr(xb)
    lhs = np.prod([ratio(sgn(y - l0), "b(yc_i - lam_0)") for y in yc]) * diag(l0) @ cc @ bb
    for i, yi in enumerate(yc):
        coeff = c / _guard(b(sgn(yi - l0)), abs(c), "b(yc_i - lam_0)")
        for j, yj in enumerate(yc):
            if j != i:
                coeff *= ratio(sgn(yj - yi), "b(yc_j - yc_i)")
        swapped = (l0,) + yc[:i] + yc[i + 1:]
        lhs = lhs - coeff * diag(yi) @ cstr(swapped) @ bb
    rhs = np.prod([ratio(sgn(x - l0), "b(xb_i - lam_0)") for x in xb]) * cc @ bb @ diag(l0)
    for i, xi in enumerate(xb):
        coeff = c / _guard(b(sgn(xi - l0)), abs(c), "b(xb_i - lam_0)")
        for j, xj in enumerate(xb):
            if j != i:
                coeff *= ratio(sgn(xj - xi), "b(xb_j - xb_i)")
        swapped = (l0,) + xb[:i] + xb[i + 1:]
        rhs = rhs - coeff * cc @ bstr(swapped) @ diag(xi)
    return residual(lhs, rhs)


def verify_tay(l0: complex, XB, YC, ctx: ModelContext) -> float:
    """Order-(2n+1) identity from commuting the A-block through both strings."""
    return _tay_tdy(l0, XB, YC, ctx, use_d=False)


def verify_tdy(l0: complex, XB, YC, ctx: ModelContext) -> float:
    """Order-(2n+1) identity from commuting the D-block through both strings."""
    return _tay_tdy(l0, XB, YC, ctx, use_d=True)


def verify_identity(kind: str, ctx: ModelContext, **params) -> float:
    """Dispatch on identity kind; see the per-kind functions for parameters.

    Kinds: ``ab`` (l1, l2), ``bb`` (l1, l2, theta), ``abn`` (l0, lams,
    theta), ``tay``/``tdy`` (l0, xb, yc).
    """
    kind = kind.lower()
    if kind == "ab":
        return verify_ab(params["l1"], params["l2"], ctx)
    if kind == "bb":
        return verify_bb(params["l1"], params["l2"], params["theta"], ctx)
    if kind == "abn":
        return verify_abn(params["l0"], params["lams"], params["theta"], ctx)
    if kind == "tay":
        return verify_tay(params["l0"], params["xb"], params["yc"], ctx)
    if kind == "tdy":
        return verify_tdy(params["l0"], params["xb"], params["yc"], ctx)
    raise ValueError(f"unknown identity kind {kind!r}; expected one of {IDENTITY_KINDS}")
