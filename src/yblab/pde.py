"""Differential structure of the six-vertex partition function.

In the variables ``x_i = exp(2 lam_i)`` the domain-wall partition
function is ``prod x_j^((1-L)/2)`` times a polynomial of per-variable
degree L-1.  The swap equation then becomes a pencil of differential
operators in the auxiliary variable ``x_0``: substitution of one
variable is realized on bounded-degree polynomials by a truncated Taylor
series, and grouping powers of ``x_0`` yields a family of operators that
all annihilate the partition polynomial.

Normalization of the pencil: the raw swap operator carries an overall
``x_0^(-L/2)`` (from the half-integer prefactors) and a constant factor
``1 - q^(-2)`` relative to the compact closed form of the leading
operator.  Both are stripped before coefficient extraction, after which
the pencil is a genuine polynomial of degree L-1 in ``x_0`` whose top
coefficient matches :func:`omega_leading_apply` exactly.  Half-integer
powers are always computed as ``exp(k * lam)`` from the original
spectral parameter, never via a complex square root, so no branch
ambiguity enters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (CoincidentPoints, DegreeMismatch, InterpolationIllConditioned,
                     RegimeMismatch, SingularCoefficient)
from .lattice_qty import as_values
from .special_fn import six_vertex
from .yb_core import ABS_FLOOR, ModelContext, apply_block

#: Deterministic spectral-parameter candidates for pencil-extraction nodes.
_NODE_CANDIDATES = tuple(
    complex(re, im) for re, im in [
        (0.13, 0.057), (-0.31, -0.083), (0.47, 0.031), (-0.59, 0.101),
        (0.71, -0.047), (-0.83, 0.067), (0.23, -0.113), (-0.11, 0.089),
        (0.53, 0.149), (-0.41, -0.131), (0.37, 0.073), (-0.67, -0.019),
        (0.61, 0.127), (-0.23, -0.061), (0.89, 0.041), (-0.49, 0.139),
    ])


@dataclass(frozen=True)
class MultiPoly:
    """Dense multivariate polynomial, bounded degree per variable.

    ``coeffs[d1, ..., dn]`` multiplies ``x_1^d1 * ... * x_n^dn``.
    Evaluation is Horner over variables; derivatives act exactly on the
    coefficient tensor, so derivatives of order above ``max_deg`` are
    exactly zero.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 0:
            c = c.reshape(1)
        if len(set(c.shape)) != 1:
            raise ValueError(f"coefficient tensor must be a hypercube, got {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @property
    def nvars(self) -> int:
        return self.coeffs.ndim

    @property
    def max_deg(self) -> int:
        return self.coeffs.shape[0] - 1

    def evaluate(self, point: Sequence[complex]) -> complex:
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        v = self.coeffs
        for x in point:
            acc = v[-1]
            for d in range(v.shape[0] - 2, -1, -1):
                acc = acc * x + v[d]
            v = acc
        return complex(v)

    def derivatives(self, axis: int, count: int) -> Iterator["MultiPoly"]:
        """Derivatives of order 0..count-1 in variable ``axis``, lowest first.

        Each is one exact step (``c[1:] * arange``) from the one before,
        padded back to the hypercube shape so axes stay aligned; orders
        above ``max_deg`` are exactly zero.
        """
        c = np.moveaxis(self.coeffs, axis, 0)
        for order in range(count):
            if order:
                if c.shape[0] == 1:
                    c = np.zeros_like(c)
                else:
                    c = c[1:] * np.arange(1, c.shape[0]).reshape((-1,) + (1,) * (c.ndim - 1))
            pad = self.coeffs.shape[0] - c.shape[0]
            padded = c if pad == 0 else np.concatenate(
                [c, np.zeros((pad,) + c.shape[1:], dtype=complex)], axis=0)
            yield MultiPoly(np.moveaxis(padded, 0, axis))

    def derivative(self, axis: int, order: int = 1) -> "MultiPoly":
        """The ``order``-th derivative in variable ``axis``, the last of :meth:`derivatives`."""
        if order < 0:
            raise ValueError(f"derivative order must be non-negative, got {order}")
        *_, last = self.derivatives(axis, order + 1)
        return last

    def actual_degree(self, axis: int) -> int:
        c = np.moveaxis(self.coeffs, axis, 0)
        nz = [d for d in range(c.shape[0]) if np.any(c[d] != 0)]
        return max(nz) if nz else 0


@dataclass(frozen=True)
class PdeVars:
    """Exponentiated variables plus the original parameters they came from.

    Keeping ``lam``/``mu`` alongside ``x``/``y`` lets every half-integer
    power be computed from the logarithmic side.
    """

    x: tuple[complex, ...]
    y: tuple[complex, ...]
    q: complex
    lam: tuple[complex, ...]
    mu: tuple[complex, ...]
    gamma: complex

    @classmethod
    def from_lambdas(cls, lams, ctx: ModelContext) -> "PdeVars":
        lams = as_values(lams)
        return cls(
            x=tuple(cmath.exp(2 * l) for l in lams),
            y=tuple(cmath.exp(2 * m) for m in ctx.mu),
            q=cmath.exp(ctx.gamma),
            lam=lams,
            mu=ctx.mu,
            gamma=complex(ctx.gamma),
        )


def dia_apply(fn: Callable[[Sequence[complex]], complex], i: int,
              alpha: int = 0) -> Callable[[Sequence[complex]], complex]:
    """Variable-replacement operator by literal substitution.

    ``fn`` takes one argument sequence; the returned evaluator feeds it
    the same sequence with entry ``i`` replaced by entry ``alpha``.
    Repeated application is idempotent by construction.
    """
    if i == alpha:
        raise IndexError("replacement index must differ from the source index")

    def replaced(args: Sequence[complex]) -> complex:
        args = list(args)
        if not (0 <= alpha < len(args) and 0 <= i < len(args)):
            raise IndexError(f"indices ({i}, {alpha}) out of range for {len(args)} arguments")
        args[i] = args[alpha]
        return fn(args)

    return replaced


def dia_realized(p: MultiPoly, i: int, alpha_value: complex,
                 point: Sequence[complex], m: int | None = None) -> complex:
    """Variable replacement via the truncated-Taylor realization.

    Evaluates ``sum_{k<=m} (alpha_value - x_i)^k / k! * d^k p / dx_i^k``
    at ``point``; exact on polynomials of degree at most ``m`` in
    variable ``i``.  ``m`` defaults to the polynomial's degree bound.
    """
    if m is None:
        m = p.max_deg
    actual = p.actual_degree(i)
    if m < actual:
        raise DegreeMismatch(f"realization order m = {m} below actual degree {actual}")
    step = complex(alpha_value) - complex(point[i])
    return _taylor_sum([d.evaluate(point) for d in p.derivatives(i, m + 1)], step)


def _taylor_sum(derivs: Sequence[complex], step: complex) -> complex:
    """``sum_k step^k / k! * derivs[k]``, summed in increasing k."""
    total = 0j
    power = 1.0 + 0j
    for k, value in enumerate(derivs):
        total += power / math.factorial(k) * value
        power *= step
    return complex(total)


def fzt_coefficients(l0: complex, X, ctx: ModelContext
                     ) -> tuple[complex, tuple[complex, ...]]:
    """Merged-form six-vertex swap-equation coefficients.

    This transcription folds the removal-of-``lam_0`` term into the head
    coefficient, so exactly L+1 terms remain: one multiplying the
    partition function itself and one per single-point swap.
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("the merged swap equation is trigonometric")
    lams = as_values(X)
    a, b, c = six_vertex(ctx.gamma)
    head = np.prod([b(l0 - m) for m in ctx.mu]) \
        - np.prod([a(l0 - m) for m in ctx.mu]) \
        * np.prod([a(l - l0) / b(l - l0) for l in lams])
    swaps = []
    for i, li in enumerate(lams):
        den = b(li - l0)
        if abs(den) <= 1e-12 * abs(c):
            raise SingularCoefficient(f"b(lam_{i + 1} - lam_0) ~ 0")
        coeff = (c / den) * np.prod([a(li - m) for m in ctx.mu])
        for j, lj in enumerate(lams):
            if j != i:
                coeff *= a(lj - li) / b(lj - li)
        swaps.append(complex(coeff))
    return complex(head), tuple(swaps)


def fzt_residual(l0: complex, X, ctx: ModelContext,
                 evaluate_z: Callable[[Sequence[complex], complex], complex]) -> float:
    """Normalized residual of the merged six-vertex swap equation."""
    lams = as_values(X)
    head, swaps = fzt_coefficients(l0, lams, ctx)
    terms = [head * evaluate_z(lams, 0.0)]
    for i, coeff in enumerate(swaps):
        swapped = (complex(l0),) + lams[:i] + lams[i + 1:]
        terms.append(coeff * evaluate_z(swapped, 0.0))
    return float(abs(sum(terms)) / (sum(abs(t) for t in terms) + ABS_FLOOR))


def interpolate_zbar(ctx: ModelContext) -> MultiPoly:
    """Reconstruct the partition polynomial on the roots-of-unity grid.

    Every axis has the same L nodes ``lam_k = i pi k / L``, so that
    ``x_k = exp(2 lam_k)`` is the k-th power of ``omega = exp(2 pi i / L)``.
    The partition function is evaluated on the L^L grid, the
    half-integer prefactor is stripped as ``exp((L-1) lam_j)`` per
    variable, and one ``fftn`` divided by L^L turns the node values into
    monomial coefficients: on these nodes each per-axis Vandermonde
    matrix is sqrt(L) times a unitary one, so the transform has
    condition number 1 and needs no node search or separation check.

    The grid is one batched contraction, the :func:`dwbc_partition`
    product with every node of a slot at once: starting from the all-up
    state, slot j = L..1 applies B(node, j*gamma) for each of the L
    nodes to all columns so far, so L^2 block applications give the
    L^L values in C order, each equal to its own contraction.
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("the partition polynomial is defined in the trigonometric regime")
    L = ctx.L
    if L > 4:
        raise ValueError(f"grid interpolation is L^L evaluations; L = {L} > 4 refused")
    nodes = 1j * np.pi * np.arange(L) / L

    cols = np.zeros((ctx.dim, 1), dtype=complex)
    cols[0] = 1.0
    for j in range(L, 0, -1):
        cols = np.concatenate([apply_block("B", lam, 0.0 + j * ctx.gamma, ctx, cols)
                               for lam in nodes], axis=1)
    grid = cols[-1].reshape((L,) * L)
    values = grid * np.exp((L - 1) * sum(np.ix_(*(nodes,) * L)))
    return MultiPoly(np.fft.fftn(values) / L ** L)


@dataclass(frozen=True)
class OmegaActions:
    """Extracted pencil coefficients applied to a polynomial, plus the scale.

    ``coefficients[k]`` is the value of the k-th pencil operator on the
    input polynomial at the evaluation point; ``scale`` is the largest
    sum of term magnitudes over the extraction nodes and is the correct
    yardstick for judging how well the values vanish.
    """

    coefficients: tuple[complex, ...]
    scale: float

    @property
    def leading(self) -> complex:
        return self.coefficients[-1]


def _pencil_nodes(point: PdeVars, count: int) -> list[complex]:
    picked: list[complex] = []
    xs = point.x
    for cand in _NODE_CANDIDATES:
        x0 = cmath.exp(2 * cand)
        if all(abs(x0 - xi) > 0.05 for xi in xs) \
                and all(abs(x0 - cmath.exp(2 * p)) > 0.05 for p in picked):
            picked.append(cand)
        if len(picked) == count:
            return picked
    raise InterpolationIllConditioned(
        "could not place enough extraction nodes away from the spectral points")


def _swap_operator_value(z_value: complex, derivs: Sequence[Sequence[complex]],
                         point: PdeVars, ctx: ModelContext, l0: complex
                         ) -> tuple[complex, float]:
    """One evaluation of the normalized swap pencil; returns (value, term scale).

    ``z_value`` is the polynomial at ``point.x`` and ``derivs[i][k]`` its
    k-th derivative in ``x_i`` there; replacing ``x_i`` by ``x_0`` is
    their truncated Taylor sum, as in :func:`dia_realized`.
    """
    L = ctx.L
    lams = point.lam
    head, swaps = fzt_coefficients(l0, lams, ctx)
    half = lambda l: cmath.exp((1 - L) * l)
    head_check = head * np.prod([half(l) for l in lams])
    terms = [head_check * z_value]
    x0 = cmath.exp(2 * l0)
    for i, coeff in enumerate(swaps):
        coeff_check = coeff * half(l0) \
            * np.prod([half(lams[j]) for j in range(L) if j != i])
        terms.append(coeff_check * _taylor_sum(derivs[i], x0 - complex(point.x[i])))
    kappa = 2.0 ** (-L) * cmath.exp(-sum(ctx.mu)) * cmath.exp((1 - L) * sum(lams))
    norm = cmath.exp(L * l0) / (kappa * (1 - point.q ** (-2)))
    value = sum(terms) * norm
    scale = float(sum(abs(t) for t in terms) * abs(norm))
    return complex(value), scale


def omega_actions(zbar: MultiPoly, point: PdeVars, ctx: ModelContext) -> OmegaActions:
    """Apply the full pencil of swap operators to a polynomial.

    The normalized swap operator is evaluated at L extraction nodes in
    the auxiliary variable plus two held-out nodes; the degree-(L-1)
    polynomial in ``x_0`` is fitted and checked against the held-out
    values (failure raises :class:`InterpolationIllConditioned` -- the
    polynomiality of the pencil is verified, never assumed).  The
    returned coefficients are the pencil operators applied to ``zbar``
    at ``point``; for the true partition polynomial all of them vanish.

    The value of ``zbar`` and the L x L table of its derivatives
    ``d^k zbar / dx_i^k`` at ``point`` are evaluated once (L^2 + 1
    evaluations); every node reuses them, and only the Taylor powers
    ``(x_0 - x_i)^k / k!`` depend on the node.
    """
    L = ctx.L
    if zbar.nvars != L or zbar.max_deg != L - 1:
        raise DegreeMismatch(
            f"expected an {L}-variable polynomial of degree {L - 1}, "
            f"got {zbar.nvars} variables of degree {zbar.max_deg}")
    node_lams = _pencil_nodes(point, L + 2)
    z_value = zbar.evaluate(point.x)
    derivs = [[d.evaluate(point.x) for d in zbar.derivatives(i, L)] for i in range(L)]
    values, scales = [], []
    for l0 in node_lams:
        v, s = _swap_operator_value(z_value, derivs, point, ctx, l0)
        values.append(v)
        scales.append(s)
    scale = max(scales)
    x0s = np.array([cmath.exp(2 * l) for l in node_lams])
    vander = np.vander(x0s[:L], L, increasing=True)
    coeffs = np.linalg.solve(vander, np.array(values[:L]))
    for k in (L, L + 1):
        fitted = sum(coeffs[d] * x0s[k] ** d for d in range(L))
        if abs(fitted - values[k]) > 1e-6 * max(scale, ABS_FLOOR):
            raise InterpolationIllConditioned(
                f"held-out node {k} misses the degree-{L - 1} fit by "
                f"{abs(fitted - values[k]):.3e} against scale {scale:.3e}")
    return OmegaActions(tuple(complex(c) for c in coeffs), scale)


def omega_leading_apply(zbar: MultiPoly, point: PdeVars, ctx: ModelContext) -> complex:
    """Compact closed form of the leading pencil operator, applied directly.

    The operator is multiplication by ``sum_i abar(x_i, y_i)`` minus
    ``q^(2(1-L)) / (L-1)!`` times the sum over i of
    ``prod_j abar(x_i, y_j) * prod_{j != i} abar(x_j, x_i)/bbar(x_j, x_i)``
    acting with the (L-1)-th derivative in ``x_i``, where
    ``abar(x, y) = x q^2 - y`` and ``bbar(x, y) = x - y``.
    """
    L = ctx.L
    xs, ys, q = point.x, point.y, point.q
    abar = lambda u, v: u * q ** 2 - v
    bbar = lambda u, v: u - v
    total = sum(abar(xs[i], ys[i]) for i in range(L)) * zbar.evaluate(xs)
    for i in range(L):
        weight = np.prod([abar(xs[i], ys[j]) for j in range(L)])
        for j in range(L):
            if j != i:
                den = bbar(xs[j], xs[i])
                if abs(den) < 1e-12 * max(abs(xs[j]), abs(xs[i]), 1.0):
                    raise CoincidentPoints(f"x_{j + 1} and x_{i + 1} coincide")
                weight *= abar(xs[j], xs[i]) / den
        total -= q ** (2 * (1 - L)) / math.factorial(L - 1) \
            * weight * zbar.derivative(i, L - 1).evaluate(xs)
    return complex(total)
