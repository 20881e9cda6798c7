import cmath
import itertools

import numpy as np
import pytest

from yblab.errors import RegimeMismatch, SizeMismatch
from yblab.lattice_qty import (dwbc_partition, dwbc_partitions, hw_action_residuals,
                               scalar_product_bf, scalar_products_bf)
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab.special_fn import Regime, six_vertex
from yblab.yb_core import ModelContext

from oracles import asm_polynomial, blocks_literal, creation_string, dwbc_enumeration, f_literal

GAMMA = 0.41 + 0.07j

# frozen outputs of the configuration-enumeration oracle at pinned points
FROZEN_L2_POINT = ((0.31 + 0.12j, -0.45 + 0.05j), (0.17 - 0.08j, -0.23 + 0.11j))
FROZEN_L2_VALUE = -0.055372791794088334 + 0.007614543408206397j
FROZEN_L3_POINT = ((0.31 + 0.12j, -0.45 + 0.05j, 0.62 - 0.21j),
                   (0.17 - 0.08j, -0.23 + 0.11j, 0.05 + 0.19j))
FROZEN_L3_VALUE = 0.00702612279470128 + 0.0011493587780595938j


def test_dwbc_single_site_closed_form(rng):
    ctx = random_context(1, rng)
    f = lambda z: f_literal(z, ctx.regime)
    g = ctx.gamma
    lam = 0.42 - 0.17j
    theta = sample_theta(ctx, rng, range(-1, 3))
    value = dwbc_partition((lam,), theta, ctx)
    expected = f(g) * f(theta + g - lam + ctx.mu[0]) / f(theta + g)
    assert abs(value - expected) < 1e-13 * abs(expected)


def test_dwbc_size_mismatch(rng):
    ctx = random_context(2, rng)
    with pytest.raises(SizeMismatch):
        dwbc_partition((0.1,), 0.5, ctx)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_dwbc_permutation_symmetry(L, rng):
    # exhaustive over all L! orderings at one random point per size
    ctx = random_context(L, rng)
    lams = sample_spectral(ctx, rng, L)
    theta = sample_theta(ctx, rng, range(-1, L + 2))
    base = dwbc_partition(lams, theta, ctx)
    for perm in itertools.permutations(range(L)):
        permuted = tuple(lams[p] for p in perm)
        assert abs(dwbc_partition(permuted, theta, ctx) - base) <= 1e-10 * abs(base)


def test_dwbc_matches_enumeration_frozen():
    for (lams, mu), frozen in ((FROZEN_L2_POINT, FROZEN_L2_VALUE),
                               (FROZEN_L3_POINT, FROZEN_L3_VALUE)):
        ctx = ModelContext(len(mu), GAMMA, mu, Regime.trigonometric())
        value = dwbc_partition(lams, 0.0, ctx)
        assert abs(value - frozen) < 1e-13 * abs(frozen)
        # and the oracle itself reproduces its frozen output
        assert abs(dwbc_enumeration(lams, mu, GAMMA) - frozen) < 1e-13 * abs(frozen)


def test_dwbc_matches_enumeration_random(rng):
    for L in (2, 3):
        ctx = random_context(L, rng, elliptic=False)
        lams = sample_spectral(ctx, rng, L)
        bf = dwbc_partition(lams, 0.0, ctx)
        enum = dwbc_enumeration(lams, ctx.mu, ctx.gamma)
        assert abs(bf - enum) < 1e-12 * abs(enum)


def test_asm_polynomial_closed_forms():
    # A_L(x) = sum_k N_k x^k at x = 1 (the ASM count), 2 and 3, L = 1..7
    counts = (1, 2, 7, 42, 429, 7436, 218348)
    three = (1, 2, 9, 90, 2025, 102060, 11573604)
    for L in range(1, 8):
        poly = asm_polynomial(L)
        at = lambda x: sum(n * x ** k for k, n in enumerate(poly))
        assert (at(1), at(2), at(3)) == (counts[L - 1], 2 ** (L * (L - 1) // 2), three[L - 1])


@pytest.mark.parametrize("gamma", [0.4 + 0.3j, -0.7 + 1.1j, 1.3 - 0.2j])
def test_dwbc_at_a_equals_b_is_the_asm_polynomial(gamma):
    # an exact external anchor: at lam - mu = (i pi - gamma)/2 the weights a and b
    # agree, and Z = a^(L^2 - L) c^L A_L((c/a)^2) over the alternating-sign matrices
    lam = (1j * cmath.pi - gamma) / 2
    a_of, _, c = six_vertex(gamma)
    a = a_of(lam)
    for L in range(1, 8):
        ctx = ModelContext(L, gamma, (0,) * L, Regime.trigonometric())
        poly = sum(n * (c / a) ** (2 * k) for k, n in enumerate(asm_polynomial(L)))
        expected = a ** (L * L - L) * c ** L * poly
        assert abs(dwbc_partition((lam,) * L, 0.0, ctx) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("extra", [-1, 1])
def test_dwbc_vanishes_for_wrong_string_length(extra, rng):
    # the all-down bra selects exactly L lowering operators
    ctx = random_context(2, rng)
    count = ctx.L + extra
    lams = sample_spectral(ctx, rng, max(count, 1))[:count]
    theta = sample_theta(ctx, rng, range(-1, ctx.L + 3))
    string = creation_string(lams, theta, ctx)
    assert abs(string[-1, 0]) < 1e-14


def test_scalar_product_rejects_elliptic(rng):
    ctx = random_context(2, rng, elliptic=True)
    with pytest.raises(RegimeMismatch):
        scalar_product_bf((0.1,), (0.2,), ctx)


def test_scalar_product_empty_is_one(rng):
    ctx = random_context(2, rng, elliptic=False)
    assert scalar_product_bf((), (), ctx) == 1


def test_scalar_product_single_site_value(rng):
    # n = 1 on one site: both blocks contribute their constant c weight
    ctx = random_context(1, rng, elliptic=False)
    value = scalar_product_bf((0.4 - 0.2j,), (0.7 + 0.1j,), ctx)
    expected = np.sinh(ctx.gamma) ** 2
    assert abs(value - expected) < 1e-14 * abs(expected)


def test_scalar_product_above_weight_lattice_is_zero(rng):
    ctx = random_context(2, rng, elliptic=False)
    xb = sample_spectral(ctx, rng, 3)
    yc = sample_spectral(ctx, rng, 3)
    assert scalar_product_bf(xb, yc, ctx) == 0


def test_scalar_product_doubly_symmetric(rng):
    ctx = random_context(2, rng, elliptic=False)
    xb = sample_spectral(ctx, rng, 2)
    yc = sample_spectral(ctx, rng, 2)
    base = scalar_product_bf(xb, yc, ctx)
    assert abs(scalar_product_bf(xb[::-1], yc, ctx) - base) <= 1e-10 * abs(base)
    assert abs(scalar_product_bf(xb, yc[::-1], ctx) - base) <= 1e-10 * abs(base)


def test_scalar_product_size_mismatch(rng):
    ctx = random_context(2, rng, elliptic=False)
    with pytest.raises(SizeMismatch):
        scalar_product_bf((0.1,), (0.2, 0.3), ctx)


def test_scalar_products_size_mismatch(rng):
    # within a pair, as the one-pair route, and between pairs: the pairs
    # are the columns of one word, so they share one size
    ctx = random_context(2, rng, elliptic=False)
    with pytest.raises(SizeMismatch, match=r"\|XB\| = 1 differs from \|YC\| = 2"):
        scalar_products_bf([((0.1,), (0.2,)), ((0.1,), (0.2, 0.3))], ctx)
    with pytest.raises(SizeMismatch, match="pairs of sizes 1 and 2"):
        scalar_products_bf([((0.1,), (0.2,)), ((0.1, 0.4), (0.2, 0.3))], ctx)


def test_bulk_routes_of_no_sets_are_empty(rng):
    trig = random_context(2, rng, elliptic=False)
    assert dwbc_partitions([], random_context(2, rng)) == []
    assert dwbc_partitions([], trig) == []
    assert scalar_products_bf([], trig) == []


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("elliptic", [True, False])
def test_hw_actions_random(L, elliptic, rng):
    ctx = random_context(L, rng, elliptic=elliptic)
    for _ in range(5):
        lam = sample_spectral(ctx, rng, 1)[0]
        theta = sample_theta(ctx, rng, range(-(L + 1), L + 2))
        assert max(hw_action_residuals(lam, theta, ctx).values()) <= 1e-10


def test_hw_annihilation_statements_exact(rng):
    ctx = random_context(3, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-4, 5))
    res = hw_action_residuals(lam, theta, ctx)
    for name in ("C_ket_up", "B_ket_down", "C_bra_down", "B_bra_up"):
        assert res[name] <= 1e-14


def test_hw_diagonal_eigenvalue_example(rng):
    # explicit check of the down-sector diagonal eigenvalue at L = 3
    ctx = random_context(3, rng)
    f, g, L = (lambda z: f_literal(z, ctx.regime)), ctx.gamma, ctx.L
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-4, 5))
    d_block = blocks_literal(lam, theta, ctx)[3]
    up = np.zeros(ctx.dim, dtype=complex)
    up[0] = 1.0
    eig = f(theta + g) / f(theta - (L - 1) * g) * np.prod([f(lam - m) for m in ctx.mu])
    assert np.max(np.abs(d_block @ up - eig * up)) <= 1e-10 * abs(eig)
