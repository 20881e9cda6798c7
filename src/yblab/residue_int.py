"""Residue evaluation of the multiple-contour-integral formulas.

The contours enclose only the spectral points, and every enclosed pole
is simple, so each integral is a finite sum over injective assignments
of integration variables to spectral points (non-injective assignments
carry a vanishing pair factor and are never enumerated).  Residue
extraction deletes one denominator factor per variable and divides by
the weight function's derivative at zero; for the partition function
that derivative cancels the prefactor exactly, and for the scalar
product it equals one.

Trigonometric partition function: the height-dependent factor of the
integrand degenerates to unity.  Taking the dynamical parameter to
infinity turns that factor into exp(mu_j - w_j) per variable, and the
diagonal gauge linking the limiting asymmetric six-vertex weights to the
symmetric ones used by this package contributes exp(lam_j - mu_j); on
the residue support the integration variables are a permutation of the
spectral points, so the product of both is exactly one.

Why the sums are recursions over subsets.  An assignment fills slots
0, 1, ... in order.  When every factor a slot contributes is fixed by
the set of points already placed and the point it receives, the sum over
all orders is a sum over sets: with D[{}] = 1 and D[S | {b}] +=
D[S] * factor(S, b), D[all points] is the whole sum, each term's factors
multiplied in slot order.  Both integrands factor that way once the
parts that no assignment changes are taken out:

* partition function: the residue denominator prod_{a != b} f(lam_a -
  lam_b) is the same for every assignment, and its half
  prod_{i<j} f(w_j - w_i) cancels the plain pair factor of the
  integrand, leaving f(w_j - w_i + gamma) / f(w_i - w_j) per pair of
  slots i < j.  Putting point b into slot |S| after the set S of
  earlier points therefore multiplies a term by a factor fixed by
  (S, b), and the sum over all L! orders is a sum over the 2^L subsets
  S, built up one point at a time;
* scalar product: prod_{i<j} b(w_i - w_j)^2 over the residue
  denominator prod_{a != b} b(w_a - w_b) is (-1)^(n(n-1)/2) on each
  side, since b = sinh is odd, so the two sides cancel to one.  The
  reciprocal factor 1/r_i of slot i depends only on the sets R and Rbar
  of points not yet placed, and the numerator of that slot only on them
  and on the two points (p, q) placed in it.  The (n!)^2 assignments
  therefore collapse onto the C(2n, n) pairs of equal-size sets.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Sequence

from .errors import CoincidentPoints, RegimeMismatch, SingularR, SizeMismatch
from .lattice_qty import as_values
from .special_fn import f_weights, six_vertex
from .yb_core import ModelContext

#: Minimum pairwise separation before points count as coincident.
COINCIDENCE_TOL = 1e-8


def require_distinct(points: Sequence[complex], what: str) -> None:
    """Raise :class:`CoincidentPoints` if two points lie within COINCIDENCE_TOL."""
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < COINCIDENCE_TOL:
                raise CoincidentPoints(
                    f"{what}: points {i} and {j} coincide within {COINCIDENCE_TOL}")


def _members(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _subset_products(table: list[list[complex]]) -> list[list[complex]]:
    """``out[S][b]`` = product of ``table[a][b]`` over the members a of bit set S."""
    out = [[1 + 0j] * len(table)]
    for S in range(1, 1 << len(table)):
        low = S & -S
        out.append([x * y for x, y in zip(out[S ^ low], table[low.bit_length() - 1])])
    return out


def z_contour(X, theta: complex, ctx: ModelContext) -> complex:
    """Domain-wall partition function as a residue sum.

    Sums the L! simple-pole residues of the contour representation (the
    variables w are assigned a permutation of the spectral points) by a
    recursion over the subsets of points placed so far, from O(L^2)
    weight values; see the module docstring.
    """
    lams = as_values(X)
    L = ctx.L
    if len(lams) != L:
        raise SizeMismatch(f"need L = {L} spectral points, got {len(lams)}")
    require_distinct(lams, "z_contour")
    g = ctx.gamma
    mu = ctx.mu
    ths = [theta + (i + 1) * g for i in range(L)] if ctx.is_elliptic else []
    # every weight below from one batch, listed in the order it is read
    w = iter(f_weights([p for a in range(L) for b in range(L) if a != b
                        for p in (lams[b] - lams[a] + g, lams[a] - lams[b])]
                       + [m - lam for m in mu for lam in lams]
                       + [lam - m + g for m in mu for lam in lams]
                       + [p for th, m in zip(ths, mu) for p in [th] + [th - lam + m for lam in lams]]
                       + [g], ctx.regime))
    # pair[a][b]: point a in an earlier slot than point b (numerator read first)
    pair = [[next(w) / next(w) if a != b else 0j for b in range(L)] for a in range(L)]
    below = [list(islice(w, L)) for _ in mu]    # f(mu_j - w), j < slot
    above = [list(islice(w, L)) for _ in mu]    # f(w - mu_j + g), j > slot
    slot = [[math.prod(below[j][b] for j in range(i))
             * math.prod(above[j][b] for j in range(i + 1, L)) for b in range(L)]
            for i in range(L)]
    for i in range(len(ths)):
        f_th = next(w)
        slot[i] = [s * f_shift / f_th for s, f_shift in zip(slot[i], islice(w, L))]
    after = _subset_products(pair)
    # sums[S]: the sum over orders of the points in S, placed in slots 0..|S|-1
    sums = [0j] * (1 << L)
    sums[0] = 1 + 0j
    for S in range((1 << L) - 1):
        row, prods, partial = slot[S.bit_count()], after[S], sums[S]
        for b in range(L):
            if not S >> b & 1:
                sums[S | 1 << b] += partial * row[b] * prods[b]
    return complex(next(w) ** L * sums[-1])


def _side_tables(pts: tuple[complex, ...], mu: tuple[complex, ...], a, b):
    """Slot factors of one side (the w or the wbar variables) of ``sn_contour``.

    With n points, ``i = n - 1 - |M|`` the slot that point p fills while
    the points M remain for later slots, ``head = prod_{k<i} a(p - mu_k)``
    and ``t[u][v] = a(u - v) / b(u - v)``:

    * ``first[M][p] = head * prod_{k>=i} b(mu_k - p) * prod_{m in M} t[p][m] / b(p - mu_i)``
    * ``second[M][p] = head * prod_{k>=i} a(p - mu_k) * prod_{m in M} t[m][p] / b(p - mu_i)``
    * ``recip[R] = prod_{k in R} a(p_k - mu_i) / b(p_k - mu_i)`` with ``i = n - |R|``.
    """
    n, L = len(pts), len(mu)
    a_mu = [[a(p - m) for m in mu] for p in pts]
    b_mu = [[b(p - m) for m in mu[:n]] for p in pts]
    mu_b = [[b(m - p) for m in mu] for p in pts]
    t = [[a(u - v) / b(u - v) if j != k else 0j for k, v in enumerate(pts)]
         for j, u in enumerate(pts)]
    out = _subset_products([list(col) for col in zip(*t)])   # prod_{m in M} t[p][m]
    into = _subset_products(t)                                # prod_{m in M} t[m][p]
    full = (1 << n) - 1
    first, second = [], []
    for M in range(1 << n):
        i = n - 1 - M.bit_count()
        row1, row2 = [0j] * n, [0j] * n
        for p in _members(full ^ M):
            head = math.prod(a_mu[p][:i]) / b_mu[p][i]
            row1[p] = head * math.prod(mu_b[p][i:L]) * out[M][p]
            row2[p] = head * math.prod(a_mu[p][i:L]) * into[M][p]
        first.append(row1)
        second.append(row2)
    ratio = [[x / y for x, y in zip(a_mu[k], b_mu[k])] for k in range(n)]
    recip = [math.prod(ratio[k][n - R.bit_count()] for k in _members(R))
             for R in range(1 << n)]
    return first, second, recip


def sn_contour(XB, YC, ctx: ModelContext) -> complex:
    """Off-shell scalar product as a double residue sum over (n!)^2 assignments.

    The w-variables pick up the annihilation-side points and the wbar
    variables the creation-side points; each deleted ``sinh`` factor has
    unit derivative at its zero, so the residues need no extra constant.
    The sum runs as a recursion over pairs of equal-size sets of points
    not yet placed (see the module docstring).  Raises :class:`SingularR`
    when a reciprocal factor sits on a zero for some assignment, which
    calls for resampling rather than regularizing.
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("the scalar-product contour formula is trigonometric")
    xb = as_values(XB)
    yc = as_values(YC)
    n = len(xb)
    if len(yc) != n:
        raise SizeMismatch(f"|XB| = {n} differs from |YC| = {len(yc)}")
    if n > ctx.L:
        raise SizeMismatch(f"n = {n} exceeds L = {ctx.L}")
    require_distinct(list(xb) + list(ctx.mu), "sn_contour (creation side vs mu)")
    require_distinct(list(yc) + list(ctx.mu), "sn_contour (annihilation side vs mu)")
    a, b, c = six_vertex(ctx.gamma)
    w_first, w_second, w_recip = _side_tables(yc, ctx.mu, a, b)
    wb_first, wb_second, wb_recip = _side_tables(xb, ctx.mu, a, b)
    full = (1 << n) - 1
    # layer[(S, T)]: sum over the assignments of YC points S and XB points T
    # to slots 0..|S|-1
    layer = {(0, 0): 1 + 0j}
    for i in range(n):
        nxt: dict[tuple[int, int], complex] = {}
        for (S, T), partial in layer.items():
            R, Rbar = full ^ S, full ^ T
            r_plus, r_minus = w_recip[R], wb_recip[Rbar]
            r_i = r_plus - r_minus
            if abs(r_i) <= 1e-12 * (abs(r_plus) + abs(r_minus)):
                raise SingularR(
                    f"reciprocal factor {i + 1} vanishes while YC points "
                    f"{_members(R)} and XB points {_members(Rbar)} remain; "
                    f"resample the spectral points")
            partial /= r_i
            # slot i's numerator lam_plus - lam_minus, with the slot factors
            # of both points, for YC point p and XB point q in slot i
            for p in _members(R):
                M = R ^ 1 << p
                lp, lm = partial * w_first[M][p], partial * w_second[M][p]
                for q in _members(Rbar):
                    N = Rbar ^ 1 << q
                    key = (S | 1 << p, T | 1 << q)
                    nxt[key] = nxt.get(key, 0j) + lp * wb_second[N][q] - lm * wb_first[N][q]
        layer = nxt
    pref = (-1) ** (ctx.L * n + n * (n + 1) // 2) * c ** (2 * n)
    return complex(pref * layer[(full, full)])
