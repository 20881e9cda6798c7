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

Only this module builds and applies vertex factors, and no vertex table outlives
the evaluation that built it: an operator or equation lists the factors it
applies, monodromy chains as :func:`_monodromy` specs, and one :func:`site_factors`
call forms them all up front, from one batch of distinct weights.  Every application
is ``apply(ops, cols)``, by :func:`apply_factors` or a :func:`block_words` word, and
the operator relations meet their identity columns in :func:`relation_residual` alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DynamicalPole
from .special_fn import Regime, f_weights, six_vertex

#: Relative floor below which a dynamical denominator counts as a pole.
POLE_RTOL = 1e-12

#: Floor of every relative-residual denominator, so that 0 against 0 reads 0.
ABS_FLOOR = 1e-300

#: Largest chain length of a model.  It bounds the routes that apply
#: operators to identity columns (the identities, ``hw-actions``, ``rll``),
#: whose arrays grow as 4**L; brute-force contraction alone would go further.
MAX_L = 10

#: Largest chain length at which the pencil checks are validated: the grid
#: interpolation of ``pde.interpolate_zbar`` refuses longer chains, and
#: ``cli.REGISTRY`` reads it for the domains of ``pde-omega`` and ``pde-leading``.
PENCIL_MAX_L = 4


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


def worst(residuals: Iterable[float]) -> float:
    """The largest of ``residuals``; NaN if any is NaN, which Python's ``max`` can pass over."""
    return float(np.max(np.fromiter(residuals, dtype=float)))


def rel_diff(a, b) -> float:
    """``|a - b| / max(|a|, |b|, ABS_FLOOR)`` of two scalars; symmetric to the bit.

    Plain Python, not :func:`residual`: ``np.abs`` of a complex can round
    differently from ``abs`` in the last bit, at about 50 times the cost.
    """
    return float(abs(a - b) / max(abs(a), abs(b), ABS_FLOOR))


def term_residual(coeffs: Sequence, values: Sequence) -> float:
    """``|sum t| / (sum |t| + ABS_FLOOR)`` over the terms ``t = c * v``: cancellation reads O(1).

    ``coeffs`` and ``values`` pair up in order; different lengths raise ``ValueError``.
    """
    terms = [c * v for c, v in zip(coeffs, values, strict=True)]
    return float(abs(sum(terms)) / (sum(abs(t) for t in terms) + ABS_FLOOR))


@dataclass(frozen=True)
class ModelContext:
    """Single source of model truth: chain length, couplings, regime."""

    L: int
    gamma: complex
    mu: tuple[complex, ...]
    regime: Regime

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", complex(self.gamma))
        object.__setattr__(self, "mu", tuple(complex(m) for m in self.mu))
        if not (1 <= self.L <= MAX_L):
            raise ValueError(f"L = {self.L} outside the model range 1..{MAX_L}")
        if len(self.mu) != self.L:
            raise ValueError(f"len(mu) = {len(self.mu)} but L = {self.L}")
        try:
            f_gamma = self.f(self.gamma)
        except OverflowError as exc:
            raise OverflowError(f"gamma = {self.gamma}: "
                                f"the weight f(gamma) overflows ({exc})") from exc
        if self.gamma == 0 or abs(f_gamma) < 1e-12:
            raise ValueError("gamma is a zero of the weight function; "
                             "the c-weights vanish identically")

    @property
    def dim(self) -> int:
        return 1 << self.L

    @property
    def is_elliptic(self) -> bool:
        return self.regime.is_elliptic

    def f(self, z: complex) -> complex:  # the one-point view of f_weights
        return f_weights([z], self.regime)[0]


def r_matrix(lam: complex, theta: complex, ctx: ModelContext) -> np.ndarray:
    """4x4 vertex matrix at spectral parameter ``lam``.

    Elliptic regime (height-dependent weights):

        a    = f(lam + gamma)
        b_+- = f(lam) f(theta -+ gamma) / f(theta)
        c_+- = f(gamma) f(theta -+ lam) / f(theta)

    Trigonometric regime: the symmetric six-vertex matrix with weights
    (sinh(lam+gamma), sinh(lam), sinh(gamma)); ``theta`` is ignored.
    This is the 4x4 view of the table of one unshifted
    :func:`site_factors` factor on sites ``(0, 1)``, which names a pole.
    """
    table = site_factors([(lam, theta, (0, 1), ())], ctx, 2)[0][0]
    r = np.diag(table[0])
    r[1, 2], r[2, 1] = table[1, 1:3]
    return r


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

#: ``(lam, theta, pair, shift_sites)``: one vertex factor of :func:`site_factors`.
Spec = tuple[complex, complex, tuple[int, int], Sequence[int]]


def site_factors(specs: Sequence[Spec], ctx: ModelContext, n_sites: int) -> list[Factor]:
    """Vertex operators on an ``n_sites`` product space, one per spec; the one factor builder.

    A spec ``(lam, theta, pair, shift_sites)`` is the vertex at ``lam``
    on sites ``pair`` with dynamical argument ``theta - gamma*w``, ``w``
    the signed spin sum (+1 up, -1 down) of ``shift_sites`` in the input
    basis state; the shift sites never include the pair, so the partner
    state lies in the same sector.  A factor is a (vertex table, partner,
    column) triple for :func:`apply_factors`, and this is the one place
    vertex amplitudes are formed.

    Sector ``s`` (``s`` of the ``n_shift = len(shift_sites)`` shift
    sites down) has spin weight ``w = n_shift - 2*s`` and dynamical
    argument ``t = theta - gamma*w``.  Row 0 of a read-only
    ``(2, 4*(n_shift + 1))`` table, a view of the one array the call
    builds for all its specs, holds the diagonal amplitudes, row 1
    the amplitude from the partner state with the two site spins
    exchanged (zero on uu and dd); entry ``4*s + k`` belongs to sector
    ``s`` and pair state ``k``.  By the ice rule these are all the
    nonzero entries of the vertex matrix.  Trigonometric tables are
    six-vertex tables, with ``theta`` and the shifts ignored.

    The elliptic weights of all the specs come from one :func:`f_weights`
    call, so each table has the bits of a table built alone: ``f(gamma)``,
    then seven per sector, ``f`` at ``t``, ``t -+ gamma``, ``lam + gamma``,
    ``lam`` and ``t -+ lam`` (``f_weights`` sums each distinct point once).
    A weight error is raised by the batch, before any table is built, and
    a pole by the first spec in (spec, sector) order that meets one, named
    by its pair of sites and its sector.
    """
    elliptic = ctx.is_elliptic
    specs = [(complex(lam), complex(theta), tuple(pair), tuple(shift) if elliptic else ())
             for lam, theta, pair, shift in specs]
    g = ctx.gamma
    diag, off = [], []
    if elliptic:
        sectors = [[(w, theta - g * w) for w in range(len(shift), -len(shift) - 1, -2)]
                   for _, theta, _, shift in specs]
        fg, *values = f_weights([g] + [p for (lam, *_), spec_sectors in zip(specs, sectors)
                                       for _, t in spec_sectors
                                       for p in (t, t - g, t + g, lam + g, lam, t - lam, t + lam)],
                                ctx.regime)
        weights = zip(*[iter(values)] * 7)
        for (_, _, pair, _), spec_sectors in zip(specs, sectors):
            for (w, t), sector_weights in zip(spec_sectors, weights):
                ft, ft_minus, ft_plus, fa, fl, f_minus, f_plus = sector_weights
                if abs(ft) <= POLE_RTOL * max(abs(ft_minus), abs(ft_plus), abs(fg)):
                    raise DynamicalPole(f"sites {pair}, weight sector {w:+d}: "
                                        f"f(theta) ~ 0 at theta = {t}")
                diag += (fa, fl * ft_minus / ft, fl * ft_plus / ft, fa)
                off += (0j, fg * f_minus / ft, fg * f_plus / ft, 0j)
    else:
        a_of, b_of, c = six_vertex(g)
        for lam, *_ in specs:
            a, b = a_of(lam), b_of(lam)
            diag += (a, b, b, a)
            off += (0j, c, c, 0j)
    tables = np.array([diag, off], dtype=complex)
    tables.setflags(write=False)
    factors, end = [], 0
    for _, _, pair, shift in specs:
        start, end = end, end + 4 * (len(shift) + 1)
        factors.append((tables[:, start:end],) + _layout(n_sites, pair, shift))
    return factors


def apply_factors(factors: Sequence[Factor], x: np.ndarray) -> np.ndarray:
    """Apply the ordered product of ``factors`` to the columns of ``x``; a word's argument order.

    ``factors`` is listed left to right as in the operator product, so
    the last one acts first.  Each factor has at most two nonzeros per
    column, and acts as ``y = d*x + o*x[partner]`` with ``d`` and ``o``
    gathered from its vertex table: O(2^n) per factor and column.  A
    table is shared by every column, shape ``(2, m)``, or is one per
    column of a ``(2^n, K)`` array ``x``, shape ``(2, m, K)``; either is
    gathered by one ``take`` along axis 1, the per-column one straight
    into the layout of ``x``.  Dense operators are this applied to the
    identity.  Overflow is not warned about: callers report non-finite
    results as errors.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for table, partner, column in reversed(factors):
            d, o = table.take(column, axis=1)
            if d.ndim < x.ndim:
                d, o = d[:, None], o[:, None]
            partner_x = x.take(partner, axis=0)
            # o stays the first operand: numpy's complex multiply is not bitwise commutative
            x = d * x + np.multiply(o, partner_x, out=partner_x)
    return x


def relation_residual(apply: Callable[[Sequence, np.ndarray], np.ndarray],
                      lhs: tuple, rhs: tuple, dim: int) -> float:
    """:func:`residual` of an operator relation on the ``dim`` identity columns, built only here.

    A side ``(outer, terms)`` is ``apply(outer, .)`` of the in-order sum of its
    terms ``(coeff, ops)``, each ``coeff * apply(ops, cols)``, or bare where ``coeff``
    is None; a subtracted term has the coefficient ``-(coeff)``, and a ``coeff`` of ``dim``
    values scales each column, so ``(values, [])`` is ``diag(values)``.  ``apply`` is a
    :func:`block_words` word or :func:`apply_factors`: one contract, ``apply(ops, cols)``.
    """
    cols = np.eye(dim, dtype=complex)
    return residual(*(apply(outer, functools.reduce(np.add, (
        apply(ops, cols) if coeff is None else coeff * apply(ops, cols) for coeff, ops in terms)))
        for outer, terms in (lhs, rhs)))


def verify_dybe(l1: complex, l2: complex, l3: complex, theta: complex,
                ctx: ModelContext) -> float:
    """Residual of the dynamical Yang-Baxter equation on three sites.

    It is :func:`verify_rll` on a one-site chain with inhomogeneity
    ``l3``: both sides are 8x8, and the shift on the spectator space is
    realized sector-by-sector.  In the trigonometric regime the shifts
    are inert and this reduces to the ordinary Yang-Baxter equation.
    """
    return verify_rll(l1, l2, theta, replace(ctx, L=1, mu=(l3,)))


def _monodromy(lam: complex, theta: complex, ctx: ModelContext, aux: int = 0,
               extra_shift: tuple[int, ...] = (), first: int = 1) -> list[Spec]:
    """:func:`site_factors` specs of the monodromy on auxiliary site ``aux``, left to right.

    The chain takes the last sites ``first..first + L - 1`` of the
    product space.  The factor at chain site ``k`` has spectral argument
    ``lam - mu_k`` and is shifted by ``extra_shift`` plus the chain
    sites after it (shifts are inert in the trigonometric regime).
    """
    chain = tuple(range(first, first + ctx.L))
    return [(lam - ctx.mu[k], theta, (aux, site), extra_shift + chain[k + 1:])
            for k, site in enumerate(chain)]


#: A letter ``(block, lam, theta)`` of a word: one key, or one key per column.
Letter = tuple[str, complex | Sequence[complex], complex | Sequence[complex]]

#: ``word(letters, cols)``: the product of the monodromy blocks ``letters`` applied to ``cols``.
Word = Callable[[Sequence[Letter], np.ndarray], np.ndarray]


def block_words(keys: Iterable[tuple[complex, complex]], ctx: ModelContext) -> Word:
    """Products of auxiliary-space monodromy blocks, applied matrix-free; the one block route.

    The monodromy matrix is the ordered product over sites
    ``i = 1..L`` of the vertex matrix at ``lam - mu_i`` with dynamical
    argument ``theta - gamma * (spin sum of sites i+1..L)``, evaluated
    per input basis state.  Its blocks are taken in the auxiliary space:
    A = (up|T|up), B = (up|T|down), C = (down|T|up), D = (down|T|down).

    The site factors of the distinct ``(lam, theta)`` keys, the only
    ones the words read, come from one :func:`site_factors` call, in key
    order, which raises any pole or weight error before a letter is
    applied.  In the trigonometric regime shifts are inert, so a key is
    ``(lam, 0)`` at any ``theta``; a letter whose key was not listed is
    a ``KeyError``.  ``word(letters, cols)`` applies the letters
    ``(block, lam, theta)`` to ``cols`` (one vector, or vectors as
    columns), listed left to right as in the operator product, so the
    last letter acts first.  A letter places its chain input in the
    auxiliary half of its block's column, applies the site factors and
    keeps the half of its row; ``T`` applies them whole, to ``2^(L+1)``
    rows, so A to D are its padded quarters.  That is O(L 2^L) per column,
    and columns never mix: a one-letter word on the identity is the dense
    block.  As in :func:`apply_factors`, overflow is left to the caller.

    A letter reads one key, or one key per column: then ``lam`` and
    ``theta`` are sequences, entry ``k`` the key of column ``k`` of a
    ``(2^L, K)`` array ``cols`` (``2^(L+1)`` rows for ``T``).  Every
    chain puts the same layout at each chain position, so a shared
    letter applies its key's own L factors, and a per-column letter
    gathers its keys' tables at each position into one ``(2, m, K)``
    table, so the terms of an equation, one word with one block pattern,
    run as the columns of one word.
    """
    elliptic = ctx.is_elliptic

    def key(lam: complex, theta: complex) -> tuple[complex, complex]:
        return complex(lam), complex(theta) if elliptic else 0j

    L, d = ctx.L, ctx.dim
    starts = {k: i * L for i, k in enumerate(dict.fromkeys(key(*k) for k in keys))}
    factors = site_factors([spec for k in starts for spec in _monodromy(*k, ctx)], ctx, L + 1)

    def word(letters: Sequence[Letter], cols: np.ndarray) -> np.ndarray:
        x = np.asarray(cols, dtype=complex)
        for block, lam, theta in reversed(letters):
            if np.ndim(lam):
                at = [starts[key(*k)] for k in zip(lam, theta, strict=True)]
                chain = [(np.array([factors[a + p][0] for a in at]).transpose(1, 2, 0),
                          partner, column) for p, (_, partner, column) in enumerate(factors[:L])]
            else:
                at = starts[key(lam, theta)]
                chain = factors[at:at + L]
            if block == "T":
                x = apply_factors(chain, x)
                continue
            row, col = divmod("ABCD".index(block), 2)
            padded = np.zeros((2 * d,) + x.shape[1:], dtype=complex)
            padded[col * d:(col + 1) * d] = x
            x = apply_factors(chain, padded)[row * d:(row + 1) * d]
        return x

    return word


def verify_rll(l1: complex, l2: complex, theta: complex,
               ctx: ModelContext) -> float:
    """Residual of the dynamical RLL exchange relation.

    Built on auxiliary_a x auxiliary_b x chain.  The operator-valued
    dynamical arguments (total chain weight for the vertex factor, one
    auxiliary weight for the inner monodromy) are evaluated
    sector-by-sector by the same site factors as the monodromy itself.
    The four monodromies, then the R pair (shifted by the chain, and
    plain), come from one :func:`site_factors` call: one weight batch.
    :func:`verify_dybe` is its L = 1 case, the chain site's inhomogeneity
    the third spectral point.
    """
    chain = tuple(range(2, ctx.L + 2))  # 0, 1 auxiliary; 2..L+1 chain
    mono = lambda aux, lam, extra: _monodromy(lam, theta, ctx, aux, extra, first=2)
    *factors, r_shifted, r_plain = site_factors(
        mono(0, l1, ()) + mono(1, l2, (0,)) + mono(1, l2, ()) + mono(0, l1, (1,))
        + [(l1 - l2, theta, (0, 1), chain), (l1 - l2, theta, (0, 1), ())], ctx, ctx.L + 2)
    return relation_residual(apply_factors, ((), [(None, [r_shifted] + factors[:2 * ctx.L])]),
                             ((), [(None, factors[2 * ctx.L:] + [r_plain])]), 1 << (ctx.L + 2))
