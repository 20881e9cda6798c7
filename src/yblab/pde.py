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
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (CoincidentPoints, DegreeMismatch, InterpolationIllConditioned,
                     RegimeMismatch, SingularCoefficient)
from .lattice_qty import Evaluator, as_values
from .special_fn import six_vertex
from .yb_core import ABS_FLOOR, ModelContext, _apply_block, build_chains, term_residual

#: Deterministic spectral-parameter candidates for pencil-extraction nodes.
_NODE_CANDIDATES = tuple(
    complex(re, im) for re, im in [
        (0.13, 0.057), (-0.31, -0.083), (0.47, 0.031), (-0.59, 0.101),
        (0.71, -0.047), (-0.83, 0.067), (0.23, -0.113), (-0.11, 0.089),
        (0.53, 0.149), (-0.41, -0.131), (0.37, 0.073), (-0.67, -0.019),
        (0.61, 0.127), (-0.23, -0.061), (0.89, 0.041), (-0.49, 0.139),
    ])


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Dense multivariate polynomial, bounded degree per variable.

    ``coeffs[d1, ..., dn]`` multiplies ``x_1^d1 * ... * x_n^dn``.  The
    polynomial keeps a read-only copy of the array it is given, so the
    caller's array stays writable and later writes to it do not reach
    the polynomial.  Evaluation is Horner over variables; derivatives
    act exactly on the coefficient tensor, so derivatives of order above
    ``max_deg`` are exactly zero.  The tensors of every ``d^k/dx_i^k``
    with ``k <= max_deg`` are built on the first
    :meth:`derivative_table` and kept as one read-only stack.  Equality
    and hashing are by identity.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim == 0:
            c = c.reshape(1)
        if len(set(c.shape)) != 1:
            raise ValueError(f"coefficient tensor must be a hypercube, got {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def nvars(self) -> int:
        return self.coeffs.ndim

    @property
    def max_deg(self) -> int:
        return self.coeffs.shape[0] - 1

    def _check_point(self, point: Sequence[complex]) -> None:
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")

    def evaluate(self, point: Sequence[complex]) -> complex:
        self._check_point(point)
        return _horner(self.coeffs, point)[0]

    @functools.cached_property
    def _derivative_stack(self) -> np.ndarray:
        """``stack[..., i * (max_deg + 1) + k]`` holds the coefficients of ``d^k/dx_i^k``."""
        stack = np.stack([d.coeffs for i in range(self.nvars)
                          for d in self.derivatives(i, self.max_deg + 1)], axis=-1)
        stack.flags.writeable = False
        return stack

    def derivative_table(self, point: Sequence[complex]) -> tuple[tuple[complex, ...], ...]:
        """``table[i][k]`` is ``d^k/dx_i^k`` at ``point``, for k = 0..max_deg.

        One Horner pass over the cached derivative stack; each entry has
        the bits of ``derivative(i, k).evaluate(point)``.
        """
        self._check_point(point)
        values = _horner(self._derivative_stack, point)
        m = self.max_deg + 1
        return tuple(tuple(values[i * m:(i + 1) * m]) for i in range(self.nvars))

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


def _horner(coeffs: np.ndarray, point: Sequence[complex]) -> list[complex]:
    """Polynomials evaluated at ``point``, one value per polynomial.

    The first ``len(point)`` axes of ``coeffs`` are the variables' powers;
    an optional last axis stacks polynomials.  Every variable but the last
    is one array Horner step over the whole stack: numpy's elementwise
    loops round each element alike whatever the array's size or layout,
    so a value does not depend on the stack it is part of.  The last
    variable's step runs per polynomial on numpy scalars, whose complex
    arithmetic rounds differently from the array loops; it is the step a
    single evaluation has always taken.
    """
    v = coeffs
    for x in point[:-1]:
        acc = v[-1]
        for d in range(v.shape[0] - 2, -1, -1):
            acc = acc * x + v[d]
        v = acc
    x = point[-1]
    values = []
    for column in (v.T if v.ndim > 1 else (v,)):
        acc = column[-1]
        for d in range(column.shape[0] - 2, -1, -1):
            acc = acc * x + column[d]
        values.append(complex(acc))
    return values


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


def _fzt_point(lams: tuple[complex, ...], ctx: ModelContext
               ) -> tuple[tuple[complex, ...], tuple[tuple[complex, ...], ...]]:
    """The factors of the merged swap coefficients free of ``lam_0``.

    Returns ``(a_mu, ratios)``: ``a_mu[i]`` is ``prod_m a(lam_i - mu_m)``
    and ``ratios[i]`` lists ``a(lam_j - lam_i) / b(lam_j - lam_i)`` over
    ``j != i`` in increasing j.
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("the merged swap equation is trigonometric")
    a, b, _ = six_vertex(ctx.gamma)
    return (tuple(np.prod([a(li - m) for m in ctx.mu]) for li in lams),
            tuple(tuple(a(lj - li) / b(lj - li) for j, lj in enumerate(lams) if j != i)
                  for i, li in enumerate(lams)))


def _fzt_node(l0: complex, lams: tuple[complex, ...], a_mu, ratios, ctx: ModelContext
              ) -> tuple[complex, tuple[complex, ...]]:
    a, b, c = six_vertex(ctx.gamma)
    head = np.prod([b(l0 - m) for m in ctx.mu]) \
        - np.prod([a(l0 - m) for m in ctx.mu]) \
        * np.prod([a(l - l0) / b(l - l0) for l in lams])
    swaps = []
    for i, li in enumerate(lams):
        den = b(li - l0)
        if abs(den) <= 1e-12 * abs(c):
            raise SingularCoefficient(f"b(lam_{i + 1} - lam_0) ~ 0")
        coeff = (c / den) * a_mu[i]
        for ratio in ratios[i]:
            coeff *= ratio
        swaps.append(complex(coeff))
    return complex(head), tuple(swaps)


def fzt_coefficients(l0: complex, X, ctx: ModelContext
                     ) -> tuple[complex, tuple[complex, ...]]:
    """Merged-form six-vertex swap-equation coefficients.

    This transcription folds the removal-of-``lam_0`` term into the head
    coefficient, so exactly L+1 terms remain: one multiplying the
    partition function itself and one per single-point swap.  It is
    written in two parts, the factors free of ``lam_0`` and the terms in
    ``lam_0``, so that the pencil can reuse the first at every node.
    """
    lams = as_values(X)
    return _fzt_node(l0, lams, *_fzt_point(lams, ctx), ctx)


def fzt_residual(l0: complex, X, ctx: ModelContext, evaluate_z: Evaluator) -> float:
    """Normalized residual of the merged six-vertex swap equation.

    ``evaluate_z`` is a bulk evaluator as for :func:`~yblab.feq.fx_residual`;
    it gets all L + 1 sets, at ``theta = 0``, in one call.
    """
    lams = as_values(X)
    head, swaps = fzt_coefficients(l0, lams, ctx)
    sets = [(lams, 0.0)] + [((complex(l0),) + lams[:i] + lams[i + 1:], 0.0)
                            for i in range(len(swaps))]
    return term_residual([c * z for c, z in zip((head,) + swaps, evaluate_z(sets),
                                                strict=True)])


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

    chains = build_chains((), ctx)
    cols = np.zeros((ctx.dim, 1), dtype=complex)
    cols[0] = 1.0
    for j in range(L, 0, -1):
        cols = np.concatenate([_apply_block(chains, "B", lam, 0.0 + j * ctx.gamma, ctx, cols)
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


def _check_pencil_shape(zbar: MultiPoly, L: int) -> None:
    if zbar.nvars != L or zbar.max_deg != L - 1:
        raise DegreeMismatch(
            f"expected an {L}-variable polynomial of degree {L - 1}, "
            f"got {zbar.nvars} variables of degree {zbar.max_deg}")


def omega_actions(zbar: MultiPoly, point: PdeVars, ctx: ModelContext) -> OmegaActions:
    """Apply the full pencil of swap operators to a polynomial.

    The normalized swap operator is evaluated at L extraction nodes in
    the auxiliary variable plus two held-out nodes; the degree-(L-1)
    polynomial in ``x_0`` is fitted and checked against the held-out
    values (failure raises :class:`InterpolationIllConditioned` -- the
    polynomiality of the pencil is verified, never assumed).  The
    returned coefficients are the pencil operators applied to ``zbar``
    at ``point``; for the true partition polynomial all of them vanish.

    One call takes one :meth:`MultiPoly.derivative_table` of ``zbar`` at
    ``point`` (the polynomial and its L x L derivatives, from the
    polynomial's cached derivative stack) and computes the factors of
    the swap coefficients that do not involve ``lam_0`` once; each node
    adds only its ``lam_0`` terms and the Taylor powers
    ``(x_0 - x_i)^k / k!``.  Hoisting moves values, not operations, so
    the result has the bits of the per-node route.
    """
    L = ctx.L
    _check_pencil_shape(zbar, L)
    node_lams = _pencil_nodes(point, L + 2)
    derivs = zbar.derivative_table(point.x)
    lams = point.lam
    a_mu, ratios = _fzt_point(lams, ctx)
    half = lambda l: cmath.exp((1 - L) * l)
    head_half = np.prod([half(l) for l in lams])
    swap_half = [np.prod([half(lams[j]) for j in range(L) if j != i]) for i in range(L)]
    kappa = 2.0 ** (-L) * cmath.exp(-sum(ctx.mu)) * cmath.exp((1 - L) * sum(lams))
    norm_den = kappa * (1 - point.q ** (-2))
    values, scales = [], []
    for l0 in node_lams:
        # the normalized swap operator at this node: replacing x_i by x_0
        # is the truncated Taylor sum of derivs[i], as in dia_realized
        head, swaps = _fzt_node(l0, lams, a_mu, ratios, ctx)
        terms = [head * head_half * derivs[0][0]]
        x0 = cmath.exp(2 * l0)
        half_l0 = half(l0)
        for i, coeff in enumerate(swaps):
            terms.append(coeff * half_l0 * swap_half[i]
                         * _taylor_sum(derivs[i], x0 - complex(point.x[i])))
        norm = cmath.exp(L * l0) / norm_den
        values.append(complex(sum(terms) * norm))
        scales.append(float(sum(abs(t) for t in terms) * abs(norm)))
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
    ``abar(x, y) = x q^2 - y`` and ``bbar(x, y) = x - y``.  ``zbar``
    must have the pencil's shape (L variables, degree L - 1); its value
    and (L-1)-th derivatives come from one
    :meth:`MultiPoly.derivative_table`.
    """
    L = ctx.L
    _check_pencil_shape(zbar, L)
    xs, ys, q = point.x, point.y, point.q
    derivs = zbar.derivative_table(xs)
    abar = lambda u, v: u * q ** 2 - v
    bbar = lambda u, v: u - v
    total = sum(abar(xs[i], ys[i]) for i in range(L)) * derivs[0][0]
    for i in range(L):
        weight = np.prod([abar(xs[i], ys[j]) for j in range(L)])
        for j in range(L):
            if j != i:
                den = bbar(xs[j], xs[i])
                if abs(den) < 1e-12 * max(abs(xs[j]), abs(xs[i]), 1.0):
                    raise CoincidentPoints(f"x_{j + 1} and x_{i + 1} coincide")
                weight *= abar(xs[j], xs[i]) / den
        total -= q ** (2 * (1 - L)) / math.factorial(L - 1) \
            * weight * derivs[i][L - 1]
    return complex(total)
