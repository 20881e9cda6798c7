import itertools

import pytest

from yblab.errors import CoincidentPoints, RegimeMismatch, SingularR
from yblab.feq import fx_residual
from yblab.lattice_qty import dwbc_partition, scalar_product_bf
from yblab.residue_int import sn_contour, z_contour
from yblab.sampling import random_context, sample_spectral, sample_theta

from oracles import f_literal, sn_residue_permutations, z_residue_permutations


def test_z_contour_single_variable_closed_form(rng):
    ctx = random_context(1, rng)
    f, g = (lambda z: f_literal(z, ctx.regime)), ctx.gamma
    lam = sample_spectral(ctx, rng, 1, avoid=ctx.mu)[0]
    theta = sample_theta(ctx, rng, range(-1, 3))
    value = z_contour((lam,), theta, ctx)
    expected = f(g) * f(theta + g - lam + ctx.mu[0]) / f(theta + g)
    assert abs(value - expected) < 1e-14 * abs(expected)
    assert abs(value - dwbc_partition((lam,), theta, ctx)) < 1e-14 * abs(expected)


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("elliptic", [True, False])
def test_z_contour_equals_brute_force(L, elliptic, rng):
    ctx = random_context(L, rng, elliptic=elliptic)
    for _ in range(4):
        lams = sample_spectral(ctx, rng, L, avoid=ctx.mu)
        theta = sample_theta(ctx, rng, range(-1, 2 * L + 3))
        zc = z_contour(lams, theta, ctx)
        zb = dwbc_partition(lams, theta, ctx)
        assert abs(zc - zb) <= 1e-8 * max(abs(zc), abs(zb))


def test_z_contour_symmetric_output(rng):
    ctx = random_context(3, rng)
    lams = sample_spectral(ctx, rng, 3, avoid=ctx.mu)
    theta = sample_theta(ctx, rng, range(-1, 9))
    base = z_contour(lams, theta, ctx)
    for perm in itertools.permutations(range(3)):
        value = z_contour(tuple(lams[p] for p in perm), theta, ctx)
        assert abs(value - base) <= 1e-10 * abs(base)


def test_z_contour_enumeration_order_irrelevant(rng):
    # summing the residue terms in reversed enumeration order changes nothing
    ctx = random_context(2, rng, elliptic=False)
    lams = sample_spectral(ctx, rng, 2, avoid=ctx.mu)
    forward = z_contour(lams, 0.0, ctx)
    reverse = z_contour(tuple(reversed(lams)), 0.0, ctx)
    assert abs(forward - reverse) <= 1e-12 * abs(forward)


def test_z_contour_coincident_points_rejected(rng):
    ctx = random_context(2, rng)
    lam = 0.3 + 0.2j
    with pytest.raises(CoincidentPoints):
        z_contour((lam, lam + 1e-12), 0.5, ctx)


@pytest.mark.parametrize("n,L", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_sn_contour_equals_brute_force(n, L, rng):
    ctx = random_context(L, rng, elliptic=False)
    for _ in range(4):
        pts = sample_spectral(ctx, rng, 2 * n, avoid=ctx.mu)
        xb, yc = pts[:n], pts[n:]
        sc = sn_contour(xb, yc, ctx)
        sb = scalar_product_bf(xb, yc, ctx)
        assert abs(sc - sb) <= 1e-6 * max(abs(sc), abs(sb))


def test_sn_contour_rejects_elliptic(rng):
    ctx = random_context(2, rng, elliptic=True)
    with pytest.raises(RegimeMismatch):
        sn_contour((0.1,), (0.2,), ctx)


def test_sn_contour_rejects_oversized_sets(rng):
    from yblab.errors import SizeMismatch
    ctx = random_context(1, rng, elliptic=False)
    with pytest.raises(SizeMismatch):
        sn_contour((0.1, 0.3), (0.2, 0.4), ctx)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sn_contour_singular_reciprocal(n, rng):
    # creation points that are a permutation of the annihilation points
    # zero out the first reciprocal factor at every assignment
    ctx = random_context(n, rng, elliptic=False)
    yc = sample_spectral(ctx, rng, n, avoid=ctx.mu)
    xb = yc[1:] + yc[:1]
    with pytest.raises(SingularR):
        sn_contour(xb, yc, ctx)
    with pytest.raises(SingularR):
        sn_residue_permutations(xb, yc, ctx)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("elliptic", [True, False])
def test_z_contour_matches_literal_residue_sum(L, elliptic, rng):
    # the subset recursion sums the same L! terms as the permutation loop
    ctx = random_context(L, rng, elliptic=elliptic)
    for _ in range(3):
        lams = sample_spectral(ctx, rng, L, avoid=ctx.mu)
        theta = sample_theta(ctx, rng, range(-1, 2 * L + 3))
        value = z_contour(lams, theta, ctx)
        literal, magnitude = z_residue_permutations(lams, theta, ctx)
        assert abs(value - literal) <= 1e-12 * magnitude


@pytest.mark.parametrize("L,n", [(1, 0), (1, 1), (2, 2), (3, 2), (3, 3), (4, 3),
                                 (4, 4), (5, 4)])
def test_sn_contour_matches_literal_residue_sum(L, n, rng):
    # the recursion over pairs of remaining sets sums the same (n!)^2 terms
    ctx = random_context(L, rng, elliptic=False)
    for _ in range(3):
        pts = sample_spectral(ctx, rng, 2 * n, avoid=ctx.mu)
        value = sn_contour(pts[:n], pts[n:], ctx)
        literal, magnitude = sn_residue_permutations(pts[:n], pts[n:], ctx)
        # relative to the terms' magnitudes: the sum can cancel by orders of
        # magnitude, and the literal order's own rounding error is of this size
        assert abs(value - literal) <= 1e-12 * magnitude


@pytest.mark.parametrize("L,elliptic", [(8, True), (10, False)])
def test_z_contour_frontier_equals_brute_force(L, elliptic, rng):
    # sizes whose L! term loop took minutes; the recursion takes milliseconds
    ctx = random_context(L, rng, elliptic=elliptic)
    lams = sample_spectral(ctx, rng, L, avoid=ctx.mu)
    theta = sample_theta(ctx, rng, range(-1, 2 * L + 3))
    zc = z_contour(lams, theta, ctx)
    zb = dwbc_partition(lams, theta, ctx)
    assert abs(zc - zb) <= 1e-8 * max(abs(zc), abs(zb))


@pytest.mark.parametrize("L,n", [(7, 6), (8, 7)])
def test_sn_contour_frontier_equals_brute_force(L, n, rng):
    ctx = random_context(L, rng, elliptic=False)
    pts = sample_spectral(ctx, rng, 2 * n, avoid=ctx.mu)
    sc = sn_contour(pts[:n], pts[n:], ctx)
    sb = scalar_product_bf(pts[:n], pts[n:], ctx)
    assert abs(sc - sb) <= 1e-6 * max(abs(sc), abs(sb))


@pytest.mark.parametrize("elliptic", [True, False])
def test_fx_residual_with_contour_evaluator(elliptic, rng):
    # the residue formula satisfies the swap equation on its own
    ctx = random_context(2, rng, elliptic=elliptic)
    contour = lambda sets, ctx: [z_contour(pts, th, ctx) for pts, th in sets]
    for _ in range(3):
        pts = sample_spectral(ctx, rng, 3, avoid=ctx.mu)
        theta = sample_theta(ctx, rng, range(-6, 8))
        assert fx_residual(pts[0], pts[1:], theta, ctx, contour) <= 1e-7
