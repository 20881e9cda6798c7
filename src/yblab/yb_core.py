"""Dynamical R-matrix, monodromy operators, and Yang-Baxter checks.

Conventions, fixed once and used everywhere:

* Two-level sites; basis index packs spins most-significant-bit first,
  bit value 0 = up, 1 = down.  The all-up chain state is index 0.
* The 4x4 vertex matrix lives in the ordered basis
  (up-up, up-down, down-up, down-down) with the *first* factor the
  auxiliary space.
* Ordered products run left to right in site index: the factor at
  site 1 is the leftmost matrix.  Matrix composition is literal, so the
  rightmost factor acts first on kets.
* Operator-valued shifts of the dynamical parameter are never formal:
  the spin operators involved are diagonal, so the vertex matrix is
  evaluated per input basis state on each weight sector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .errors import DynamicalPole, NonConvergent, NonFinite
from .special_fn import Regime, f_weight, f_weights, six_vertex

#: Relative floor below which a dynamical denominator counts as a pole.
POLE_RTOL = 1e-12

#: Floor of every relative-residual denominator, so that 0 against 0 reads 0.
ABS_FLOOR = 1e-300


def residual(a, b) -> float:
    """Relative residual ``max|A - B| / max(max|A|, max|B|, ABS_FLOOR)``.

    Non-finite operands give a non-finite residual, without a warning;
    callers report it as an error.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.max(np.abs(a - b))
        den = max(np.max(np.abs(a)), np.max(np.abs(b)), ABS_FLOOR)
        return float(num / den)


@dataclass(frozen=True)
class ModelContext:
    """Single source of model truth: chain length, couplings, regime."""

    L: int
    gamma: complex
    mu: tuple[complex, ...]
    regime: Regime
    allow_degenerate_gamma: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "mu", tuple(complex(m) for m in self.mu))
        if not (1 <= self.L <= 10):
            raise ValueError(f"L = {self.L} outside the dense-matrix range 1..10")
        if len(self.mu) != self.L:
            raise ValueError(f"len(mu) = {len(self.mu)} but L = {self.L}")
        if not self.allow_degenerate_gamma:
            if self.gamma == 0 or abs(self.f(self.gamma)) < 1e-12:
                raise ValueError(
                    "gamma is a zero of the weight function; the c-weights vanish "
                    "identically (pass allow_degenerate_gamma=True to force)"
                )

    @property
    def dim(self) -> int:
        return 1 << self.L

    @property
    def is_elliptic(self) -> bool:
        return self.regime.is_elliptic

    def f(self, z: complex) -> complex:
        return f_weight(z, self.regime)


def _check_pole(theta: complex, ft: complex, ft_minus: complex, ft_plus: complex,
                fg: complex) -> None:
    """Raise :class:`DynamicalPole` if ``f(theta)`` is negligible against
    ``f(theta -+ gamma)`` and ``f(gamma)``."""
    if abs(ft) <= POLE_RTOL * max(abs(ft_minus), abs(ft_plus), abs(fg)):
        raise DynamicalPole(f"f(theta) ~ 0 at theta = {theta}")


def _sector_weights(ft: complex, ft_minus: complex, ft_plus: complex, fg: complex,
                    fl: complex, f_minus: complex, f_plus: complex
                    ) -> tuple[complex, complex, complex, complex]:
    """Elliptic ``(b_+, b_-, c_+, c_-)`` from ``f`` at ``theta``, ``theta -+ gamma``,
    ``gamma``, ``lam`` and ``theta -+ lam``; see :func:`r_matrix`."""
    return fl * ft_minus / ft, fl * ft_plus / ft, fg * f_minus / ft, fg * f_plus / ft


def r_matrix(lam: complex, theta: complex, ctx: ModelContext) -> np.ndarray:
    """4x4 vertex matrix at spectral parameter ``lam``.

    Elliptic regime (height-dependent weights):

        a    = f(lam + gamma)
        b_+- = f(lam) f(theta -+ gamma) / f(theta)
        c_+- = f(gamma) f(theta -+ lam) / f(theta)

    Trigonometric regime: the symmetric six-vertex matrix with weights
    (sinh(lam+gamma), sinh(lam), sinh(gamma)); ``theta`` is ignored.
    """
    if not ctx.is_elliptic:
        a_of, b_of, c = six_vertex(ctx.gamma)
        a, b = a_of(lam), b_of(lam)
        return np.array([[a, 0, 0, 0],
                         [0, b, c, 0],
                         [0, c, b, 0],
                         [0, 0, 0, a]], dtype=complex)
    f = ctx.f
    g = ctx.gamma
    ft, ft_minus, ft_plus, fg = f(theta), f(theta - g), f(theta + g), f(g)
    _check_pole(theta, ft, ft_minus, ft_plus, fg)
    a = f(lam + g)
    bp, bm, cp, cm = _sector_weights(ft, ft_minus, ft_plus, fg, f(lam),
                                     f(theta - lam), f(theta + lam))
    return np.array([[a, 0, 0, 0],
                     [0, bp, cp, 0],
                     [0, cm, bm, 0],
                     [0, 0, 0, a]], dtype=complex)


def vertex_table(lam: complex, theta: complex, n_shift: int,
                 ctx: ModelContext) -> np.ndarray:
    """Nonzero amplitudes of the vertex matrix on each dynamical weight sector.

    Sector ``s`` (``s`` of the ``n_shift`` shift sites down) has spin
    weight ``w = n_shift - 2*s`` and uses ``r_matrix(lam, theta -
    gamma*w)``.  Row 0 of the returned ``(2, 4*(n_shift + 1))`` table
    holds the diagonal amplitudes, row 1 the amplitude from the partner
    state with the two site spins exchanged (zero on uu and dd); entry
    ``4*s + k`` belongs to sector ``s`` and pair state ``k``.  By the ice
    rule these are all the nonzero entries of :func:`r_matrix`.  Tables
    are read-only.

    This is the scalar route, one :func:`r_matrix` per sector.  Site
    factors and monodromies take the same bits from :func:`_site_tables`,
    which evaluates the elliptic weights of many tables in one batch; the
    monodromy tables are cached per chain by :func:`_chain_tables`.
    """
    table = np.zeros((2, 4 * (n_shift + 1)), dtype=complex)
    for s in range(n_shift + 1):
        w = n_shift - 2 * s
        try:
            r = r_matrix(lam, theta - ctx.gamma * w, ctx)
        except DynamicalPole as exc:
            raise DynamicalPole(f"weight sector {w:+d}: {exc}") from exc
        table[0, 4 * s:4 * s + 4] = r.diagonal()
        table[1, 4 * s + 1] = r[1, 2]
        table[1, 4 * s + 2] = r[2, 1]
    table.setflags(write=False)
    return table


def _site_tables(sites: Sequence[tuple[complex, int]], theta: complex,
                 ctx: ModelContext) -> Iterator[np.ndarray]:
    """:func:`vertex_table` at each ``(lam, n_shift)`` of ``sites``, in order.

    The elliptic weights of all the tables come from one
    :func:`f_weights` batch: ``f(gamma)`` once, ``f(lam + gamma)`` and
    ``f(lam)`` once per site, and ``f`` at ``t``, ``t -+ gamma`` and
    ``t -+ lam`` once per sector, ``t = theta - gamma*w``.  These are the
    bits :func:`r_matrix` computes, so the tables are too.  If the batch
    raises, the tables are built by :func:`vertex_table`, so the error
    is the one the scalar route meets first.  Trigonometric tables are
    scalar, with ``theta`` and the shift ignored.
    """
    if not ctx.is_elliptic:
        for lam, _ in sites:
            yield vertex_table(lam, 0j, 0, ctx)
        return
    g = ctx.gamma
    points = [g]
    for lam, n_shift in sites:
        points += (lam + g, lam)
        for s in range(n_shift + 1):
            t = theta - g * (n_shift - 2 * s)
            points += (t, t - g, t + g, t - lam, t + lam)
    try:
        values = iter(f_weights(points, ctx.regime.params))
    except (ArithmeticError, ValueError, NonConvergent):
        for lam, n_shift in sites:
            yield vertex_table(lam, theta, n_shift, ctx)
        return
    fg = next(values)
    for lam, n_shift in sites:
        fa, fl = next(values), next(values)
        diag, off = [], []
        for s in range(n_shift + 1):
            w = n_shift - 2 * s
            ft, ft_minus, ft_plus, f_minus, f_plus = islice(values, 5)
            try:
                _check_pole(theta - g * w, ft, ft_minus, ft_plus, fg)
            except DynamicalPole as exc:
                raise DynamicalPole(f"weight sector {w:+d}: {exc}") from exc
            bp, bm, cp, cm = _sector_weights(ft, ft_minus, ft_plus, fg, fl, f_minus, f_plus)
            diag += (fa, bp, bm, fa)
            off += (0j, cp, cm, 0j)
        table = np.array((diag, off), dtype=complex)
        table.setflags(write=False)
        yield table


@functools.lru_cache(maxsize=512)
def _chain_tables(lam: complex, theta: complex, n_extra: int,
                  ctx: ModelContext) -> tuple[np.ndarray, ...]:
    """Vertex tables of a monodromy chain, site 1 first, cached per chain.

    Site ``k`` has spectral argument ``lam - mu_k`` and ``n_extra + L -
    k`` shift sites (the extra ones plus the chain sites after it).  A
    pole raises :class:`DynamicalPole` naming the site and the weight
    sector, the first in (site, sector) order.

    Memory bound: the widest chain is the RLL check's, with one extra
    shift site, so ``n_shift`` runs from ``L`` down to 1 and an entry
    holds ``128 * L * (L + 3) / 2`` array bytes, 8320 at ``L = 10``.
    Measured with tracemalloc, such an entry with its arrays, tuple, key
    and cache link takes about 10.0 KB at L = 10, so the 512-entry cache
    stays below 5.4 MB (``tests/test_kernel.py`` holds it to that); at
    L = 4 an entry takes about 2.4 KB.
    """
    L = ctx.L
    tables = []
    try:
        for table in _site_tables([(lam - ctx.mu[k], n_extra + L - 1 - k) for k in range(L)],
                                  theta, ctx):
            tables.append(table)
    except DynamicalPole as exc:
        raise DynamicalPole(f"site {len(tables) + 1}, {exc}") from exc
    return tuple(tables)


@functools.lru_cache(maxsize=64)
def _layout(n_sites: int, pair: tuple[int, int],
            shift_sites: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Partner state and vertex-table column of every basis state.

    The partner exchanges the spins of the two ``pair`` sites; the
    column is ``4*s + k`` with ``s`` the number of down spins on
    ``shift_sites`` (a vectorized popcount) and ``k`` the pair state.
    A layout takes ``2**(n_sites + 4)`` bytes, at most 64 KB (the RLL
    space at L = 10), so the 64 cached layouts stay within 4 MB.
    """
    idx = np.arange(1 << n_sites)
    bit_i, bit_j = (n_sites - 1 - k for k in pair)
    si = (idx >> bit_i) & 1
    sj = (idx >> bit_j) & 1
    flip = si ^ sj
    partner = idx ^ (flip << bit_i) ^ (flip << bit_j)
    downs = np.zeros_like(idx)
    for k in shift_sites:
        downs += (idx >> (n_sites - 1 - k)) & 1
    column = 4 * downs + 2 * si + sj
    partner.setflags(write=False)
    column.setflags(write=False)
    return partner, column


Factor = tuple[np.ndarray, np.ndarray, np.ndarray]


def site_factors(specs: Sequence[tuple[complex, tuple[int, int], Sequence[int]]],
                 theta: complex, ctx: ModelContext, n_sites: int) -> list[Factor]:
    """Vertex operators on an ``n_sites`` product space, one per spec.

    A spec ``(lam, pair, shift_sites)`` is the vertex at ``lam`` on sites
    ``pair`` with dynamical argument ``theta - gamma*w``, ``w`` the
    signed spin sum (+1 up, -1 down) of ``shift_sites`` in the input
    basis state; the shift sites never include the pair, so the partner
    state lies in the same sector.  Shifts are inert in the
    trigonometric regime.  The vertex tables of all specs come from one
    :func:`_site_tables` batch.  A factor is a (vertex table, partner,
    column) triple for :func:`apply_factors`.
    """
    specs = [(complex(lam), tuple(pair), tuple(shift) if ctx.is_elliptic else ())
             for lam, pair, shift in specs]
    tables = _site_tables([(lam, len(shift)) for lam, _, shift in specs], complex(theta), ctx)
    return [(table,) + _layout(n_sites, pair, shift)
            for table, (_, pair, shift) in zip(tables, specs)]


def apply_factors(x: np.ndarray, factors: Sequence[Factor]) -> np.ndarray:
    """Apply the ordered product of ``factors`` to the columns of ``x``.

    ``factors`` is listed left to right as in the operator product, so
    the last one acts first.  Each factor has at most two nonzeros per
    column, and acts as ``y = d*x + o*x[partner]`` with ``d`` and ``o``
    gathered from its vertex table: O(2^n) per factor and column.  Dense
    operators are this applied to the identity.  Overflow is not warned
    about: callers report non-finite results as errors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for table, partner, column in reversed(factors):
            d, o = table[:, column]
            if x.ndim == 2:
                d, o = d[:, None], o[:, None]
            x = d * x + o * x[partner]
    return x


def verify_dybe(l1: complex, l2: complex, l3: complex, theta: complex,
                ctx: ModelContext) -> float:
    """Residual of the dynamical Yang-Baxter equation on three sites.

    Both sides are built as 8x8 matrices; the shift on the spectator
    space is realized sector-by-sector.  In the trigonometric regime the
    shifts are inert and this reduces to the ordinary Yang-Baxter
    equation.
    """
    factors = site_factors([(l1 - l2, (0, 1), (2,)), (l1 - l3, (0, 2), ()),
                            (l2 - l3, (1, 2), (0,)), (l2 - l3, (1, 2), ()),
                            (l1 - l3, (0, 2), (1,)), (l1 - l2, (0, 1), ())], theta, ctx, 3)
    eye = np.eye(8, dtype=complex)
    return residual(apply_factors(eye, factors[:3]), apply_factors(eye, factors[3:]))


def _monodromy(lam: complex, theta: complex, ctx: ModelContext, aux: int,
               chain: Sequence[int], extra_shift: tuple[int, ...],
               n_sites: int) -> list[Factor]:
    """Site factors of the monodromy on auxiliary site ``aux``, left to right.

    The factor at chain site ``k`` has spectral argument ``lam - mu_k``
    and is shifted by ``extra_shift`` plus the chain sites after it.
    Its vertex table comes from :func:`_chain_tables`.
    """
    chain = tuple(chain)
    if ctx.is_elliptic:
        tables = _chain_tables(complex(lam), complex(theta), len(extra_shift), ctx)
        shifts = [extra_shift + chain[k + 1:] for k in range(len(chain))]
    else:  # shifts are inert: one entry serves every theta and shift
        tables = _chain_tables(complex(lam), 0j, 0, ctx)
        shifts = [()] * len(chain)
    return [(table,) + _layout(n_sites, (aux, site), shift)
            for table, site, shift in zip(tables, chain, shifts)]


def _chain_monodromy(lam: complex, theta: complex, ctx: ModelContext) -> list[Factor]:
    return _monodromy(complex(lam), complex(theta), ctx, 0,
                      range(1, ctx.L + 1), (), ctx.L + 1)


def monodromy_blocks(lam: complex, theta: complex, ctx: ModelContext
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Auxiliary-space blocks (A, B, C, D) of the monodromy matrix.

    The monodromy matrix is the ordered product over sites
    ``i = 1..L`` of the vertex matrix at ``lam - mu_i`` with dynamical
    argument ``theta - gamma * (spin sum of sites i+1..L)``, evaluated
    per input basis state.  Blocks are taken in the auxiliary space:
    A = (up|T|up), B = (up|T|down), C = (down|T|up), D = (down|T|down).

    The dense blocks are the site factors applied to the identity; only
    the vertex tables are cached.  The blocks are read-only C-contiguous
    ``2^L x 2^L`` arrays.  Raises :class:`NonFinite` if any entry is not
    finite.  Use :func:`apply_block` where only the action on vectors is
    needed.
    """
    n = 1 << (ctx.L + 1)
    total = apply_factors(np.eye(n, dtype=complex), _chain_monodromy(lam, theta, ctx))
    if not np.isfinite(total).all():
        raise NonFinite("chain operator has non-finite entries")
    d = ctx.dim
    # contiguous copies: matmul on a strided view need not round the same
    blocks = tuple(np.ascontiguousarray(total[r:r + d, c:c + d])
                   for r in (0, d) for c in (0, d))
    for block in blocks:
        block.setflags(write=False)
    return blocks


def apply_block(block: str, lam: complex, theta: complex, ctx: ModelContext,
                vec: np.ndarray) -> np.ndarray:
    """One auxiliary block ("A", "B", "C" or "D") of the monodromy applied to ``vec``.

    Matrix-free: ``vec`` (a chain vector, or chain vectors as columns)
    is placed in the auxiliary input half and the site factors are
    applied to it, O(L 2^L) per vector.  Agrees with the matching block
    of :func:`monodromy_blocks` to rounding.
    """
    row, col = divmod("ABCD".index(block), 2)
    d = ctx.dim
    vec = np.asarray(vec, dtype=complex)
    x = np.zeros((2 * d,) + vec.shape[1:], dtype=complex)
    x[col * d:(col + 1) * d] = vec
    return apply_factors(x, _chain_monodromy(lam, theta, ctx))[row * d:(row + 1) * d]


def verify_rll(l1: complex, l2: complex, theta: complex,
               ctx: ModelContext) -> float:
    """Residual of the dynamical RLL exchange relation.

    Built on auxiliary_a x auxiliary_b x chain.  The operator-valued
    dynamical arguments (total chain weight for the vertex factor, one
    auxiliary weight for the inner monodromy) are evaluated
    sector-by-sector by the same site factors as the monodromy itself.
    """
    n_sites = ctx.L + 2  # 0, 1 auxiliary; 2..L+1 chain
    chain = tuple(range(2, ctx.L + 2))
    mono = lambda aux, lam, extra: _monodromy(lam, theta, ctx, aux, chain, extra, n_sites)
    r_ab = lambda shift: site_factors([(l1 - l2, (0, 1), shift)], theta, ctx, n_sites)
    eye = np.eye(1 << n_sites, dtype=complex)
    lhs = apply_factors(eye, r_ab(chain) + mono(0, l1, ()) + mono(1, l2, (0,)))
    rhs = apply_factors(eye, mono(1, l2, ()) + mono(0, l1, (1,)) + r_ab(()))
    return residual(lhs, rhs)

