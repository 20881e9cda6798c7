"""Brute-force lattice quantities.

Everything here is computed by literal contraction of monodromy blocks
on the chain space, in block words of :func:`~yblab.yb_core.block_words`:
the partition function and scalar products apply them to the all-up
state, the extremal-state checks the whole monodromy ``T`` to the
identity, whose four quarters are the blocks.  The bulk routes
:func:`dwbc_partitions` and :func:`scalar_products_bf` take the terms of a
functional equation, one quantity at many point sets, as the columns of
one word on the all-up state, each column with its own keys;
:func:`dwbc_partition` and :func:`scalar_product_bf` are their one-set views.
These are the reference oracles for the closed-form residue evaluators.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFinite, RegimeMismatch, SizeMismatch
from .special_fn import f_weights
from .yb_core import ABS_FLOOR, ModelContext, block_words, residual

#: A bulk partition-function route ``evaluate(sets, ctx)``: the value at each
#: ``(points, theta)`` of ``sets`` in model ``ctx``, in order, as :func:`dwbc_partitions`.
Evaluator = Callable[[Sequence[tuple[Sequence[complex], complex]], ModelContext],
                     Sequence[complex]]

#: A bulk scalar-product route ``evaluate(pairs, ctx)``: the value at each
#: ``(XB, YC)`` of ``pairs`` in model ``ctx``, in order, as :func:`scalar_products_bf`.
PairEvaluator = Callable[[Sequence[tuple[Sequence[complex], Sequence[complex]]], ModelContext],
                         Sequence[complex]]


def as_values(points: Iterable[complex]) -> tuple[complex, ...]:
    """Coerce a sequence of spectral points to a tuple of complex values."""
    return tuple(complex(v) for v in points)


def _creation_slots(lams: Sequence[complex], theta: complex,
                    ctx: ModelContext) -> list[tuple[complex, complex]]:
    """``(lam_j, theta + j*gamma)`` of the creation blocks, in operator order (j = 1..L)."""
    return [(lam, theta + j * ctx.gamma) for j, lam in enumerate(lams, 1)]


def _all_up(ctx: ModelContext, columns: int) -> np.ndarray:
    """``columns`` copies of the all-up chain state, basis vector 0, as columns."""
    vec = np.zeros((ctx.dim, columns), dtype=complex)
    vec[0] = 1.0
    return vec


def dwbc_partition(X, theta: complex, ctx: ModelContext) -> complex:
    """Domain-wall partition function by direct contraction.

    Applies the ordered product of creation blocks B(lam_j, theta +
    j*gamma), j = 1..L, to the all-up state (matrix-free, rightmost
    block first) and projects on the all-down state.  The
    dynamical argument is tied to the slot j, not to the value occupying
    it, which is what makes the result symmetric in the spectral set.
    The one-set view of :func:`dwbc_partitions`.
    """
    return dwbc_partitions([(X, theta)], ctx)[0]


def dwbc_partitions(sets: Sequence[tuple[Iterable[complex], complex]],
                    ctx: ModelContext) -> list[complex]:
    """:func:`dwbc_partition` at each ``(X, theta)`` of ``sets``, in order.

    The sizes of all the sets are checked first, then the chains of all
    the sets are built from one weight batch, in set order.  Every
    creation string is ``B^L``, so the sets are the columns of one block
    word on the all-up state: letter ``j`` reads ``(lam_j, theta +
    j*gamma)`` of each set in its column.
    """
    sets = [(as_values(X), theta) for X, theta in sets]
    for lams, _ in sets:
        if len(lams) != ctx.L:
            raise SizeMismatch(f"need exactly L = {ctx.L} spectral points, got {len(lams)}")
    if not sets:
        return []
    slots = [_creation_slots(lams, theta, ctx) for lams, theta in sets]
    word = block_words([key for keys in slots for key in reversed(keys)], ctx)
    letters = [("B", *zip(*column)) for column in zip(*slots)]
    return [complex(z) for z in word(letters, _all_up(ctx, len(sets)))[-1]]


def scalar_product_bf(XB, YC, ctx: ModelContext) -> complex:
    """Off-shell scalar product <0| prod C(y) prod B(x) |0>, six-vertex regime.

    Defined only after the trigonometric limit; elliptic contexts are
    rejected.  ``n > L`` is allowed and gives an exact zero (the
    creation string leaves the weight lattice).  The one-pair view of
    :func:`scalar_products_bf`.
    """
    return scalar_products_bf([(XB, YC)], ctx)[0]


def scalar_products_bf(pairs: Sequence[tuple[Iterable[complex], Iterable[complex]]],
                       ctx: ModelContext) -> list[complex]:
    """:func:`scalar_product_bf` at each ``(XB, YC)`` of ``pairs``, in order.

    Every pair has the same size ``n``, checked first, so every string
    is ``C^n B^n``: the 2n chains of all the pairs are built up front,
    and the pairs are the columns of one block word on the all-up state.
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("scalar products are defined in the trigonometric regime only")
    pairs = [(as_values(XB), as_values(YC)) for XB, YC in pairs]
    for xb, yc in pairs:
        if len(xb) != len(yc):
            raise SizeMismatch(f"|XB| = {len(xb)} differs from |YC| = {len(yc)}")
        if len(xb) != len(pairs[0][0]):
            raise SizeMismatch(f"pairs of sizes {len(pairs[0][0])} and {len(xb)} in one call")
    if not pairs:
        return []
    word = block_words([(lam, 0.0) for xb, yc in pairs for lam in xb + yc], ctx)
    zeros = (0.0,) * len(pairs)
    letters = [("C", ys, zeros) for ys in zip(*(yc[::-1] for _, yc in pairs))] \
        + [("B", xs, zeros) for xs in zip(*(xb for xb, _ in pairs))]
    return [complex(s) for s in word(letters, _all_up(ctx, len(pairs)))[0]]


def hw_action_residuals(lam: complex, theta: complex,
                        ctx: ModelContext) -> dict[str, float]:
    """Residuals of the highest/lowest-weight action statements.

    The diagonal blocks act on the extremal states by explicit
    eigenvalues; the off-diagonal blocks annihilate one of them.  Right
    actions (on kets) and left actions (on plain-transpose bras) are both
    checked.  Each statement is read off a quarter of the whole monodromy
    by index: a ket statement reads column ``k`` of its block, a bra
    statement row ``k`` (``k = 0`` all up, ``k = d - 1`` all down).
    Annihilation residuals are normalized by the block's own max norm.
    In the trigonometric regime the eigenvalues are the products of
    six-vertex weights a resp. b over the inhomogeneities.
    """
    g, L, d = ctx.gamma, ctx.L, ctx.dim
    # the whole monodromy, one T word on the 2^(L+1) identity; its quarters are A, B, C, D
    full = block_words([(lam, theta)], ctx)([("T", lam, theta)], np.eye(2 * d, dtype=complex))
    if not np.isfinite(full).all():
        # an annihilation ratio against a non-finite block could read 0
        raise NonFinite("chain operator has non-finite entries")

    weights = f_weights([lam - m + g for m in ctx.mu] + [lam - m for m in ctx.mu] + (
        [theta - g, theta + (L - 1) * g, theta + g, theta - (L - 1) * g] if ctx.is_elliptic
        else []), ctx.regime)
    shift, plain = math.prod(weights[:L]), math.prod(weights[L:2 * L])  # prod a resp. b (trig)
    f_a, f_a_top, f_d, f_d_top = weights[2 * L:] if ctx.is_elliptic else (1, 1, 1, 1)
    # (block, extremal state) -> eigenvalue; B and C annihilate the state instead
    eigenvalues = {("A", "up"): shift, ("A", "down"): f_a / f_a_top * plain,
                   ("D", "up"): f_d / f_d_top * plain, ("D", "down"): shift}
    res = {}
    for key in ("A_ket_up", "A_ket_down", "D_ket_up", "D_ket_down",
                "A_bra_down", "A_bra_up", "D_bra_up", "D_bra_down",
                "C_ket_up", "B_ket_down", "C_bra_down", "B_bra_up"):
        block, side, state = key.split("_")
        row, col = divmod("ABCD".index(block), 2)
        quarter = full[row * d:(row + 1) * d, col * d:(col + 1) * d]
        k = 0 if state == "up" else d - 1
        image = quarter[:, k] if side == "ket" else quarter[k]
        if (block, state) in eigenvalues:
            expected = np.zeros(d, dtype=complex)
            expected[k] = eigenvalues[block, state]
            res[key] = residual(image, expected)
        else:
            res[key] = float(np.max(np.abs(image)) / max(np.max(np.abs(quarter)), ABS_FLOOR))
    return res
