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

No vertex table outlives the evaluation that built it: an operator or
equation takes a chain lookup from :func:`build_chains`, which builds
every chain it lists from one batch of distinct weights and keeps those
and any other chain it is asked for in a dict of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DynamicalPole, NonConvergent, NonFinite
from .special_fn import EllipticParams, Regime, f_weight, f_weights, six_vertex

#: Relative floor below which a dynamical denominator counts as a pole.
POLE_RTOL = 1e-12

#: Floor of every relative-residual denominator, so that 0 against 0 reads 0.
ABS_FLOOR = 1e-300

#: Largest chain length of a model, the top of the dense-matrix range.
MAX_L = 10


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


def rel_diff(a, b) -> float:
    """``|a - b| / max(|a|, |b|, ABS_FLOOR)`` of two scalars; symmetric to the bit.

    Plain Python, not :func:`residual`: ``np.abs`` of a complex can round
    differently from ``abs`` in the last bit, at about 50 times the cost.
    """
    return float(abs(a - b) / max(abs(a), abs(b), ABS_FLOOR))


def term_residual(terms: Sequence) -> float:
    """``|sum t| / (sum |t| + ABS_FLOOR)`` of an equation's terms: cancellation reads O(1)."""
    return float(abs(sum(terms)) / (sum(abs(t) for t in terms) + ABS_FLOOR))


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
        if not (1 <= self.L <= MAX_L):
            raise ValueError(f"L = {self.L} outside the dense-matrix range 1..{MAX_L}")
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


def r_matrix(lam: complex, theta: complex, ctx: ModelContext) -> np.ndarray:
    """4x4 vertex matrix at spectral parameter ``lam``.

    Elliptic regime (height-dependent weights):

        a    = f(lam + gamma)
        b_+- = f(lam) f(theta -+ gamma) / f(theta)
        c_+- = f(gamma) f(theta -+ lam) / f(theta)

    Trigonometric regime: the symmetric six-vertex matrix with weights
    (sinh(lam+gamma), sinh(lam), sinh(gamma)); ``theta`` is ignored.
    This is the 4x4 view of the one-sector table of :func:`_site_tables`.
    """
    table = next(_site_tables([(lam, 0)], theta, ctx))
    r = np.diag(table[0])
    r[1, 2], r[2, 1] = table[1, 1:3]
    return r


def _weight_points(sites: Sequence[tuple[complex, int]], theta: complex,
                   g: complex) -> list[complex]:
    """Elliptic weight arguments of the tables of ``sites``, as :func:`_site_tables` reads them."""
    points = [g]
    for lam, n_shift in sites:
        for s in range(n_shift + 1):
            t = theta - g * (n_shift - 2 * s)
            points += (t, t - g, t + g) + ((lam + g, lam) if s == 0 else ()) + (t - lam, t + lam)
    return points


def _site_tables(sites: Sequence[tuple[complex, int]], theta: complex,
                 ctx: ModelContext, values: Iterator[complex] | None = None
                 ) -> Iterator[np.ndarray]:
    """Nonzero vertex amplitudes on each weight sector, per ``(lam, n_shift)`` of ``sites``.

    The one place the weights of :func:`r_matrix` are formed.  Sector
    ``s`` (``s`` of the ``n_shift`` shift sites down) has spin weight
    ``w = n_shift - 2*s`` and dynamical argument ``t = theta - gamma*w``.
    Row 0 of a ``(2, 4*(n_shift + 1))`` table holds the diagonal
    amplitudes, row 1 the amplitude from the partner state with the two
    site spins exchanged (zero on uu and dd); entry ``4*s + k`` belongs
    to sector ``s`` and pair state ``k``.  By the ice rule these are all
    the nonzero entries of the vertex matrix.  Tables are read-only and
    come in the order of ``sites``.

    The elliptic weights are read in the order :func:`_weight_points`
    lists them: ``f(gamma)``; then per sector ``f(t)`` and ``f(t -+
    gamma)``, the pole test, ``f(lam + gamma)`` and ``f(lam)`` in a
    site's first sector only, and ``f(t -+ lam)``.  They come from
    ``values`` when given (the weights of those points, as
    :func:`build_chains` passes them), else from one :func:`f_weights`
    batch; if the batch raises, the same loop reads scalar weights
    lazily, so the error is the first one met in that order.
    Trigonometric tables are six-vertex tables, with ``theta`` and the
    shift ignored.
    """
    if not ctx.is_elliptic:
        a_of, b_of, c = six_vertex(ctx.gamma)
        for lam, _ in sites:
            a, b = a_of(lam), b_of(lam)
            table = np.array(((a, b, b, a), (0j, c, c, 0j)), dtype=complex)
            table.setflags(write=False)
            yield table
        return
    g = ctx.gamma
    if values is None:
        points = _weight_points(sites, theta, g)
        try:
            values = iter(f_weights(points, ctx.regime.params))
        except (ArithmeticError, ValueError, NonConvergent):
            values = map(ctx.f, points)
    fg = next(values)
    for lam, n_shift in sites:
        diag, off = [], []
        for s in range(n_shift + 1):
            w = n_shift - 2 * s
            ft, ft_minus, ft_plus = islice(values, 3)
            if abs(ft) <= POLE_RTOL * max(abs(ft_minus), abs(ft_plus), abs(fg)):
                raise DynamicalPole(f"weight sector {w:+d}: "
                                    f"f(theta) ~ 0 at theta = {theta - g * w}")
            if s == 0:
                fa, fl = islice(values, 2)
            f_minus, f_plus = islice(values, 2)
            diag += (fa, fl * ft_minus / ft, fl * ft_plus / ft, fa)
            off += (0j, fg * f_minus / ft, fg * f_plus / ft, 0j)
        table = np.array((diag, off), dtype=complex)
        table.setflags(write=False)
        yield table


def _chain_sites(lam: complex, n_extra: int, ctx: ModelContext) -> list[tuple[complex, int]]:
    """``(lam - mu_k, n_shift)`` per chain site ``k``: the extra shift sites and those after it."""
    return [(lam - ctx.mu[k], n_extra + ctx.L - 1 - k) for k in range(ctx.L)]


def _build_chain(lam: complex, theta: complex, n_extra: int, ctx: ModelContext,
                 values: Iterator[complex] | None = None) -> tuple[np.ndarray, ...]:
    """Vertex tables of a monodromy chain, site 1 first (``values`` as for :func:`_site_tables`).

    A pole raises :class:`DynamicalPole` naming the site and the weight
    sector, the first in (site, sector) order.
    """
    tables = []
    try:
        for table in _site_tables(_chain_sites(lam, n_extra, ctx), theta, ctx, values):
            tables.append(table)
    except DynamicalPole as exc:
        raise DynamicalPole(f"site {len(tables) + 1}, {exc}") from exc
    return tuple(tables)


def _weights_by_bits(points: Sequence[complex], params: EllipticParams
                     ) -> Iterator[complex]:
    """The elliptic weight of each of ``points``, from one :func:`f_weights` call.

    The call gets each distinct point once, in order of first
    appearance; points are told apart by bit pattern, so ``0.0`` and
    ``-0.0`` stay apart.
    """
    bits = np.array(points, dtype=complex).view("V16").tolist()
    distinct = dict(zip(bits, points))
    weights = dict(zip(distinct, f_weights(list(distinct.values()), params)))
    return map(weights.__getitem__, bits)


#: ``chains(lam, theta, n_extra)``: the vertex tables of a monodromy chain, site 1 first.
Chains = Callable[[complex, complex, int], tuple[np.ndarray, ...]]


def build_chains(keys: Iterable[tuple[complex, complex, int]], ctx: ModelContext) -> Chains:
    """A chain lookup for one evaluation, with the chains of ``keys`` built from one weight batch.

    The lookup keeps the chains it returns in a dict of its own, so an
    operator or equation builds each chain once and no table outlives
    it; a lookup that misses builds its chain with :func:`_build_chain`.
    A key is ``(lam, theta, n_extra)``; list them in the order the
    caller looks them up.  The weight arguments of those chains are
    listed as :func:`_site_tables` reads them, the distinct ones are
    evaluated in one call (:func:`_weights_by_bits`), and the chains are
    built from those values, with the bits of the per-chain route.  In
    the trigonometric regime nothing is built up front and shifts are
    inert, so the lookup keys a chain by ``lam`` alone.

    Weight errors are left to the lookups: if the batch is refused or a
    chain meets a pole, the build stops there, and the lookups meet the
    error in the caller's order, as without the build.
    """
    chains: dict[tuple[complex, complex, int], tuple[np.ndarray, ...]] = {}

    def lookup(lam: complex, theta: complex, n_extra: int) -> tuple[np.ndarray, ...]:
        key = (complex(lam), complex(theta), n_extra) if ctx.is_elliptic else (complex(lam), 0j, 0)
        if key not in chains:
            chains[key] = _build_chain(*key, ctx)
        return chains[key]

    todo = list(dict.fromkeys((complex(lam), complex(theta), n_extra)
                              for lam, theta, n_extra in keys))
    if not (ctx.is_elliptic and todo):
        return lookup
    points = [point for lam, theta, n_extra in todo
              for point in _weight_points(_chain_sites(lam, n_extra, ctx), theta, ctx.gamma)]
    try:
        values = _weights_by_bits(points, ctx.regime.params)
    except (ArithmeticError, ValueError, NonConvergent):
        return lookup
    for key in todo:
        try:
            chains[key] = _build_chain(*key, ctx, values)
        except (DynamicalPole, ArithmeticError):
            break
    return lookup


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


def _monodromy(chains: Chains, lam: complex, theta: complex, ctx: ModelContext, aux: int = 0,
               extra_shift: tuple[int, ...] = (), first: int = 1) -> list[Factor]:
    """Site factors of the monodromy on auxiliary site ``aux``, left to right.

    The chain takes the last sites ``first..first + L - 1`` of the
    product space.  The factor at chain site ``k`` has spectral argument
    ``lam - mu_k`` and is shifted by ``extra_shift`` plus the chain
    sites after it (shifts are inert in the trigonometric regime).  Its
    vertex table comes from the lookup ``chains``.
    """
    chain = tuple(range(first, first + ctx.L))
    shifts = [extra_shift + chain[k + 1:] if ctx.is_elliptic else () for k in range(ctx.L)]
    return [(table,) + _layout(first + ctx.L, (aux, site), shift)
            for table, site, shift in zip(chains(lam, theta, len(extra_shift)), chain, shifts)]


def monodromy_blocks(lam: complex, theta: complex, ctx: ModelContext
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Auxiliary-space blocks (A, B, C, D) of the monodromy matrix.

    The monodromy matrix is the ordered product over sites
    ``i = 1..L`` of the vertex matrix at ``lam - mu_i`` with dynamical
    argument ``theta - gamma * (spin sum of sites i+1..L)``, evaluated
    per input basis state.  Blocks are taken in the auxiliary space:
    A = (up|T|up), B = (up|T|down), C = (down|T|up), D = (down|T|down).

    The dense blocks are the site factors applied to the identity.  The
    blocks are read-only C-contiguous ``2^L x 2^L`` arrays.  Raises
    :class:`NonFinite` if any entry is not finite.  Use
    :func:`apply_block` where only the action on vectors is needed.
    """
    return _monodromy_blocks(build_chains((), ctx), lam, theta, ctx)


def _monodromy_blocks(chains: Chains, lam: complex, theta: complex, ctx: ModelContext
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`monodromy_blocks` with its chain from ``chains``."""
    n = 1 << (ctx.L + 1)
    total = apply_factors(np.eye(n, dtype=complex), _monodromy(chains, lam, theta, ctx))
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
    return _apply_block(build_chains((), ctx), block, lam, theta, ctx, vec)


def _apply_block(chains: Chains, block: str, lam: complex, theta: complex,
                 ctx: ModelContext, vec: np.ndarray) -> np.ndarray:
    """:func:`apply_block` with its chain from ``chains``."""
    row, col = divmod("ABCD".index(block), 2)
    d = ctx.dim
    vec = np.asarray(vec, dtype=complex)
    x = np.zeros((2 * d,) + vec.shape[1:], dtype=complex)
    x[col * d:(col + 1) * d] = vec
    return apply_factors(x, _monodromy(chains, lam, theta, ctx))[row * d:(row + 1) * d]


def verify_rll(l1: complex, l2: complex, theta: complex,
               ctx: ModelContext) -> float:
    """Residual of the dynamical RLL exchange relation.

    Built on auxiliary_a x auxiliary_b x chain.  The operator-valued
    dynamical arguments (total chain weight for the vertex factor, one
    auxiliary weight for the inner monodromy) are evaluated
    sector-by-sector by the same site factors as the monodromy itself.
    The four chains are built from one weight batch up front.
    """
    chains = build_chains([(l1, theta, 0), (l2, theta, 1), (l2, theta, 0), (l1, theta, 1)], ctx)
    n_sites = ctx.L + 2  # 0, 1 auxiliary; 2..L+1 chain
    chain = tuple(range(2, ctx.L + 2))
    mono = lambda aux, lam, extra: _monodromy(chains, lam, theta, ctx, aux, extra, first=2)
    r_ab = lambda shift: site_factors([(l1 - l2, (0, 1), shift)], theta, ctx, n_sites)
    eye = np.eye(1 << n_sites, dtype=complex)
    lhs = apply_factors(eye, r_ab(chain) + mono(0, l1, ()) + mono(1, l2, (0,)))
    rhs = apply_factors(eye, mono(1, l2, ()) + mono(0, l1, (1,)) + r_ab(()))
    return residual(lhs, rhs)
