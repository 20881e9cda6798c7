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
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import CoincidentPoints, RegimeMismatch, SingularR, SizeMismatch
from .lattice_qty import as_values
from .special_fn import six_vertex
from .yb_core import ModelContext

#: Minimum pairwise separation before points count as coincident.
COINCIDENCE_TOL = 1e-8


def _require_distinct(points: Sequence[complex], what: str) -> None:
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) < COINCIDENCE_TOL:
                raise CoincidentPoints(
                    f"{what}: points {i} and {j} coincide within {COINCIDENCE_TOL}")


def z_contour(X, theta: complex, ctx: ModelContext) -> complex:
    """Domain-wall partition function as a residue sum.

    Sums the L! simple-pole residues of the contour representation: the
    variables w are assigned a permutation of the spectral points, the
    matched denominator factors are deleted, and all remaining factors
    are evaluated at the assignment.
    """
    lams = as_values(X)
    L = ctx.L
    if len(lams) != L:
        raise SizeMismatch(f"need L = {L} spectral points, got {len(lams)}")
    _require_distinct(lams, "z_contour")
    f = ctx.f
    g = ctx.gamma
    elliptic = ctx.is_elliptic
    pref = f(g) ** L
    total = 0j
    for sigma in itertools.permutations(range(L)):
        w = [lams[sigma[i]] for i in range(L)]
        term = pref
        for i in range(L):
            for j in range(i + 1, L):
                term *= f(w[j] - w[i] + g) * f(w[j] - w[i])
        if elliptic:
            for j in range(L):
                term *= f(theta + (j + 1) * g - w[j] + ctx.mu[j]) \
                    / f(theta + (j + 1) * g)
        for i in range(L):
            for j in range(L):
                if j < i:
                    term *= f(ctx.mu[j] - w[i])
                elif j > i:
                    term *= f(w[i] - ctx.mu[j] + g)
        den = 1.0 + 0j
        for i in range(L):
            for j in range(L):
                if j != sigma[i]:
                    den *= f(w[i] - lams[j])
        total += term / den
    return complex(total)


def sn_contour(XB, YC, ctx: ModelContext) -> complex:
    """Off-shell scalar product as a double residue sum, (n!)^2 terms.

    The w-variables pick up the annihilation-side points and the wbar
    variables the creation-side points; each deleted ``sinh`` factor has
    unit derivative at its zero, so the residues need no extra constant.
    Raises :class:`SingularR` when a reciprocal factor sits on a zero at
    the assignment, which calls for resampling rather than regularizing.
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
    _require_distinct(list(xb) + list(ctx.mu), "sn_contour (creation side vs mu)")
    _require_distinct(list(yc) + list(ctx.mu), "sn_contour (annihilation side vs mu)")
    L = ctx.L
    mu = ctx.mu
    a, b, c = six_vertex(ctx.gamma)
    pref = (-1) ** (L * n + n * (n + 1) // 2) * c ** (2 * n)
    total = 0j
    for sigma in itertools.permutations(range(n)):
        w = [yc[sigma[i]] for i in range(n)]
        for sigma_bar in itertools.permutations(range(n)):
            wb = [xb[sigma_bar[i]] for i in range(n)]
            num = 1.0 + 0j
            for i in range(n):
                for j in range(i + 1, n):
                    num *= b(w[i] - w[j]) ** 2 * b(wb[i] - wb[j]) ** 2 \
                        * a(w[j] - mu[i]) * a(wb[j] - mu[i])
            den0 = np.prod([b(w[i] - mu[i]) * b(wb[i] - mu[i]) for i in range(n)]) \
                if n else 1.0
            ratio_prod = 1.0 + 0j
            for i in range(n):
                r_plus = np.prod([a(w[k] - mu[i]) / b(w[k] - mu[i])
                                  for k in range(i, n)])
                r_minus = np.prod([a(wb[k] - mu[i]) / b(wb[k] - mu[i])
                                   for k in range(i, n)])
                r_i = r_plus - r_minus
                if abs(r_i) < 1e-12 * (abs(r_plus) + abs(r_minus)):
                    raise SingularR(
                        f"reciprocal factor {i + 1} vanishes at the assignment "
                        f"{sigma}|{sigma_bar}; resample the spectral points")
                lam_plus = np.prod([a(wb[i] - mu[k]) * b(mu[k] - w[i])
                                    for k in range(i, L)])
                lam_minus = np.prod([a(w[i] - mu[k]) * b(mu[k] - wb[i])
                                     for k in range(i, L)])
                for k in range(i + 1, n):
                    lam_plus *= (a(w[i] - w[k]) / b(w[i] - w[k])) \
                        * (a(wb[k] - wb[i]) / b(wb[k] - wb[i]))
                    lam_minus *= (a(w[k] - w[i]) / b(w[k] - w[i])) \
                        * (a(wb[i] - wb[k]) / b(wb[i] - wb[k]))
                ratio_prod *= (lam_plus - lam_minus) / r_i
            den = 1.0 + 0j
            for i in range(n):
                for j in range(n):
                    if j != sigma[i]:
                        den *= b(w[i] - yc[j])
                    if j != sigma_bar[i]:
                        den *= b(wb[i] - xb[j])
            total += pref * num / den0 * ratio_prod / den
    return complex(total)
