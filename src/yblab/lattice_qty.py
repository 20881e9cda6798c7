"""Brute-force lattice quantities.

Everything here is computed by literal contraction of monodromy blocks
on the chain space: the partition function and scalar products apply
the blocks to vectors, matrix-free, and the extremal-state checks use
the dense blocks.  These are the reference oracles against which the
closed-form residue evaluators are checked.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import RegimeMismatch, SizeMismatch
from .yb_core import (ABS_FLOOR, ModelContext, _apply_block, apply_block, build_chains,
                      monodromy_blocks, residual)

#: A bulk partition-function evaluator: the value at each ``(points,
#: theta)`` of a list, in order, as :func:`dwbc_partitions` gives them.
Evaluator = Callable[[Sequence[tuple[Sequence[complex], complex]]], Sequence[complex]]


def as_values(points: Iterable[complex]) -> tuple[complex, ...]:
    """Coerce a sequence of spectral points to a tuple of complex values."""
    return tuple(complex(v) for v in points)


def _creation_slots(lams: Sequence[complex], theta: complex,
                    ctx: ModelContext) -> list[tuple[complex, complex]]:
    """``(lam_j, theta + j*gamma)`` of the creation blocks, in the order they act (j = L..1)."""
    return [(lams[j - 1], theta + j * ctx.gamma) for j in range(len(lams), 0, -1)]


def dwbc_partition(X, theta: complex, ctx: ModelContext) -> complex:
    """Domain-wall partition function by direct contraction.

    Applies the ordered product of creation blocks B(lam_j, theta +
    j*gamma), j = 1..L, to the all-up state (matrix-free, rightmost
    block first) and projects on the all-down state.  The
    dynamical argument is tied to the slot j, not to the value occupying
    it, which is what makes the result symmetric in the spectral set.
    The L chains are built from one weight batch up front.
    """
    return dwbc_partitions([(X, theta)], ctx)[0]


def dwbc_partitions(sets: Sequence[tuple[Iterable[complex], complex]],
                    ctx: ModelContext) -> list[complex]:
    """:func:`dwbc_partition` at each ``(X, theta)`` of ``sets``, in order.

    The chains of all the sets are built from one weight batch first;
    errors are raised as the sets, contracted in order, meet them.
    """
    sets = [(as_values(X), theta) for X, theta in sets]
    chains = build_chains([(lam, theta_j, 0) for lams, theta in sets
                           for lam, theta_j in _creation_slots(lams, theta, ctx)], ctx)
    values = []
    for lams, theta in sets:
        if len(lams) != ctx.L:
            raise SizeMismatch(f"need exactly L = {ctx.L} spectral points, got {len(lams)}")
        vec = np.zeros(ctx.dim, dtype=complex)
        vec[0] = 1.0
        for lam, theta_j in _creation_slots(lams, theta, ctx):
            vec = _apply_block(chains, "B", lam, theta_j, ctx, vec)
        values.append(complex(vec[-1]))
    return values


def scalar_product_bf(XB, YC, ctx: ModelContext) -> complex:
    """Off-shell scalar product <0| prod C(y) prod B(x) |0>, six-vertex regime.

    Defined only after the trigonometric limit; elliptic contexts are
    rejected.  ``n > L`` is allowed and gives an exact zero (the
    creation string leaves the weight lattice).
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("scalar products are defined in the trigonometric regime only")
    xb = as_values(XB)
    yc = as_values(YC)
    if len(xb) != len(yc):
        raise SizeMismatch(f"|XB| = {len(xb)} differs from |YC| = {len(yc)}")
    vec = np.zeros(ctx.dim, dtype=complex)
    vec[0] = 1.0
    for lam in reversed(xb):
        vec = apply_block("B", lam, 0.0, ctx, vec)
    for lam in yc:
        vec = apply_block("C", lam, 0.0, ctx, vec)
    return complex(vec[0])


def hw_action_residuals(lam: complex, theta: complex,
                        ctx: ModelContext) -> dict[str, float]:
    """Residuals of the highest/lowest-weight action statements.

    The diagonal blocks act on the extremal states by explicit
    eigenvalues; the off-diagonal blocks annihilate one of them.  Right
    actions (on kets) and left actions (on plain-transpose bras) are both
    checked.  Annihilation residuals are normalized by the block's own
    max norm.  In the trigonometric regime the eigenvalues are the
    products of six-vertex weights a resp. b over the inhomogeneities.
    """
    f = ctx.f
    g = ctx.gamma
    L = ctx.L
    a_mat, b_mat, c_mat, d_mat = monodromy_blocks(lam, theta, ctx)
    up = np.zeros(ctx.dim, dtype=complex)
    up[0] = 1.0
    down = np.zeros(ctx.dim, dtype=complex)
    down[-1] = 1.0

    prod_shift = np.prod([f(lam - m + g) for m in ctx.mu])
    prod_plain = np.prod([f(lam - m) for m in ctx.mu])
    if ctx.is_elliptic:
        eig_a_up = prod_shift
        eig_a_down = f(theta - g) / f(theta + (L - 1) * g) * prod_plain
        eig_d_up = f(theta + g) / f(theta - (L - 1) * g) * prod_plain
        eig_d_down = prod_shift
    else:
        eig_a_up = prod_shift          # prod a(lam - mu_j)
        eig_a_down = prod_plain        # prod b(lam - mu_j)
        eig_d_up = prod_plain
        eig_d_down = prod_shift

    def annihilated(m, v):
        return float(np.max(np.abs(v)) / max(np.max(np.abs(m)), ABS_FLOOR))

    res = {
        "A_ket_up": residual(a_mat @ up, eig_a_up * up),
        "A_ket_down": residual(a_mat @ down, eig_a_down * down),
        "D_ket_up": residual(d_mat @ up, eig_d_up * up),
        "D_ket_down": residual(d_mat @ down, eig_d_down * down),
        "A_bra_down": residual(down @ a_mat, eig_a_down * down),
        "A_bra_up": residual(up @ a_mat, eig_a_up * up),
        "D_bra_up": residual(up @ d_mat, eig_d_up * up),
        "D_bra_down": residual(down @ d_mat, eig_d_down * down),
        "C_ket_up": annihilated(c_mat, c_mat @ up),
        "B_ket_down": annihilated(b_mat, b_mat @ down),
        "C_bra_down": annihilated(c_mat, down @ c_mat),
        "B_bra_up": annihilated(b_mat, up @ b_mat),
    }
    return res


def check_hw_actions(lam: complex, theta: complex, ctx: ModelContext) -> float:
    """Worst residual over all highest/lowest-weight action statements."""
    return max(hw_action_residuals(lam, theta, ctx).values())
