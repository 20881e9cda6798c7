import numpy as np
import pytest

import yblab.feq as feq
from yblab.errors import RegimeMismatch
from yblab.feq import (fx_coefficients, fx_residual, snad_coefficients,
                       snad_residuals, verify_ab, verify_abn, verify_bb,
                       verify_identity, verify_tay, verify_tdy)
from yblab.lattice_qty import dwbc_partition, dwbc_partitions, scalar_product_bf
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab import yb_core
from yblab.special_fn import Regime, f_weight, f_weights
from yblab.yb_core import ModelContext, monodromy_blocks

from oracles import creation_string


def bf_z(ctx):
    return lambda sets: dwbc_partitions(sets, ctx)


def bf_s(ctx):
    return lambda xb, yc: scalar_product_bf(xb, yc, ctx)


# --- swap-equation coefficients -------------------------------------------

def test_fx_coefficients_single_site_closed_form(rng):
    ctx = random_context(1, rng)
    f, g = ctx.f, ctx.gamma
    l0, l1 = sample_spectral(ctx, rng, 2)
    theta = sample_theta(ctx, rng, range(-2, 4))
    coeffs = fx_coefficients(l0, (l1,), theta, ctx)
    m0 = f(theta) / f(theta + g) * f(l0 - ctx.mu[0])
    n1 = -(f(theta + g + l0 - l1) / f(theta + 2 * g)) \
        * (f(g) / f(l0 - l1 + g)) * f(l1 - ctx.mu[0] + g) \
        * (f(l0 - l1 + g) / f(l0 - l1))
    assert abs(coeffs.m0 - m0) < 1e-13 * abs(m0)
    assert len(coeffs.n) == 2
    assert abs(coeffs.n[1] - n1) < 1e-13 * abs(n1)


def test_fx_coefficients_small_gamma_suppresses_swaps(rng):
    # every swap coefficient carries an overall f(gamma) factor
    ctx = ModelContext(2, 1e-6, (0.2 - 0.1j, -0.3 + 0.05j), Regime.elliptic(0.2))
    l0, l1, l2 = sample_spectral(ctx, rng, 3)
    theta = sample_theta(ctx, rng, range(-2, 5))
    coeffs = fx_coefficients(l0, (l1, l2), theta, ctx)
    scale = abs(coeffs.m0)
    for n_i in coeffs.n[1:]:
        assert abs(n_i) < 1e-4 * scale


def test_fx_coefficients_transcription_oracle(rng):
    # independent symbol-by-symbol re-transcription, L = 3 elliptic
    ctx = random_context(3, rng)
    f, g, mu = ctx.f, ctx.gamma, ctx.mu
    pts = sample_spectral(ctx, rng, 4)
    l0, lams = pts[0], pts[1:]
    theta = sample_theta(ctx, rng, range(-4, 8))
    coeffs = fx_coefficients(l0, lams, theta, ctx)
    ext = (l0,) + lams
    for i in range(4):
        li = ext[i]
        rest = [ext[j] for j in range(4) if j != i]
        expected = -(f(theta + g + l0 - li) / f(theta + 4 * g)) \
            * (f(g) / f(l0 - li + g)) \
            * np.prod([f(li - m + g) for m in mu]) \
            * np.prod([f(l - li + g) / f(l - li) for l in rest])
        assert abs(coeffs.n[i] - expected) < 1e-12 * abs(expected)


def test_fx_coefficients_weight_count(monkeypatch, rng):
    # f(gamma) and f(theta + (L+1)*gamma) are read once per call: 78 scalar
    # weights at L = 4, not 111
    L = 4
    ctx = random_context(L, rng)
    pts = sample_spectral(ctx, rng, L + 1)
    theta = sample_theta(ctx, rng, range(-6, 8))
    calls = []
    monkeypatch.setattr(yb_core, "f_weight", lambda *args: calls.append(args) or f_weight(*args))
    fx_coefficients(pts[0], pts[1:], theta, ctx)
    # m0: f(theta), f(theta + L*gamma), L of f(lam_0 - mu); per extended
    # point: 2 + L own weights and 2 per other point; the two hoisted ones
    assert len(calls) == (2 + L) + (L + 1) * (2 + L + 2 * L) + 2 == 78


@pytest.mark.parametrize("L,elliptic", [(1, True), (2, True), (3, True),
                                        (2, False), (3, False)])
def test_fx_residual_brute_force(L, elliptic, rng):
    ctx = random_context(L, rng, elliptic=elliptic)
    for _ in range(3):
        pts = sample_spectral(ctx, rng, L + 1)
        theta = sample_theta(ctx, rng, range(-(2 * L + 2), 2 * L + 3))
        assert fx_residual(pts[0], pts[1:], theta, ctx, bf_z(ctx)) <= 1e-9


def test_fx_residual_scale_invariant(rng):
    ctx = random_context(2, rng)
    pts = sample_spectral(ctx, rng, 3)
    theta = sample_theta(ctx, rng, range(-6, 7))
    base = fx_residual(pts[0], pts[1:], theta, ctx, bf_z(ctx))
    scaled = fx_residual(pts[0], pts[1:], theta, ctx,
                         lambda sets: [7.3 * z for z in dwbc_partitions(sets, ctx)])
    assert abs(base - scaled) <= 1e-12


def test_snad_coefficients_single_pair_closed_form(rng):
    ctx = random_context(2, rng, elliptic=False)
    a = lambda z: np.sinh(z + ctx.gamma)
    b = np.sinh
    l0, xb, yc = sample_spectral(ctx, rng, 3)
    coeffs = snad_coefficients(l0, (xb,), (yc,), ctx)
    j0 = np.prod([a(l0 - m) for m in ctx.mu]) \
        * (a(yc - l0) / b(yc - l0) - a(xb - l0) / b(xb - l0))
    assert abs(coeffs.j0 - j0) < 1e-13 * abs(j0)


def test_snad_heads_vanish_for_identical_sets(rng):
    ctx = random_context(2, rng, elliptic=False)
    pts = sample_spectral(ctx, rng, 3)
    coeffs = snad_coefficients(pts[0], pts[1:], pts[1:], ctx)
    assert abs(coeffs.j0) < 1e-14
    assert abs(coeffs.jt0) < 1e-14


def test_snad_coefficients_transcription_oracle(rng):
    # n = 2, L = 3: re-transcribe the D-type family independently
    ctx = random_context(3, rng, elliptic=False)
    a = lambda z: np.sinh(z + ctx.gamma)
    b = np.sinh
    c = np.sinh(ctx.gamma)
    pts = sample_spectral(ctx, rng, 5)
    l0, xb, yc = pts[0], pts[1:3], pts[3:]
    coeffs = snad_coefficients(l0, xb, yc, ctx)
    for i in range(2):
        expected = (c / b(l0 - xb[i])) * np.prod([b(xb[i] - m) for m in ctx.mu]) \
            * np.prod([a(xb[i] - xb[j]) / b(xb[i] - xb[j])
                       for j in range(2) if j != i])
        assert abs(coeffs.ktb[i] - expected) < 1e-12 * abs(expected)
        expected_c = -(c / b(l0 - yc[i])) * np.prod([b(yc[i] - m) for m in ctx.mu]) \
            * np.prod([a(yc[i] - yc[j]) / b(yc[i] - yc[j])
                       for j in range(2) if j != i])
        assert abs(coeffs.ktc[i] - expected_c) < 1e-12 * abs(expected_c)


def test_snad_rejects_elliptic(rng):
    ctx = random_context(2, rng, elliptic=True)
    with pytest.raises(RegimeMismatch):
        snad_coefficients(0.3, (0.1,), (0.2,), ctx)


@pytest.mark.parametrize("n,L", [(1, 2), (2, 3)])
def test_snad_residuals_brute_force(n, L, rng):
    ctx = random_context(L, rng, elliptic=False)
    for _ in range(3):
        pts = sample_spectral(ctx, rng, 2 * n + 1)
        res_a, res_d = snad_residuals(pts[0], pts[1:n + 1], pts[n + 1:], ctx, bf_s(ctx))
        assert res_a <= 1e-9
        assert res_d <= 1e-9


def test_snad_residuals_linear_in_evaluator(rng):
    ctx = random_context(2, rng, elliptic=False)
    pts = sample_spectral(ctx, rng, 3)
    base = snad_residuals(pts[0], (pts[1],), (pts[2],), ctx, bf_s(ctx))
    doubled = snad_residuals(pts[0], (pts[1],), (pts[2],), ctx,
                             lambda xb, yc: 2 * scalar_product_bf(xb, yc, ctx))
    assert abs(base[0] - doubled[0]) <= 1e-12
    assert abs(base[1] - doubled[1]) <= 1e-12


# --- operator identities ---------------------------------------------------

def test_identity_ab(trig_ctx3, rng):
    l1, l2 = sample_spectral(trig_ctx3, rng, 2)
    assert verify_ab(l1, l2, trig_ctx3) <= 1e-10


def test_identity_bb(ell_ctx2, rng):
    l1, l2 = sample_spectral(ell_ctx2, rng, 2)
    theta = sample_theta(ell_ctx2, rng, range(-4, 6))
    assert verify_bb(l1, l2, theta, ell_ctx2) <= 1e-10


def test_identity_abn(ell_ctx2, rng):
    pts = sample_spectral(ell_ctx2, rng, 3)
    theta = sample_theta(ell_ctx2, rng, range(-6, 8))
    assert verify_abn(pts[0], pts[1:], theta, ell_ctx2) <= 1e-9


@pytest.mark.parametrize("kind", ["tay", "tdy"])
def test_identity_tay_tdy(kind, trig_ctx3, rng):
    pts = sample_spectral(trig_ctx3, rng, 5)
    res = verify_identity(kind, trig_ctx3, l0=pts[0], xb=pts[1:3], yc=pts[3:])
    assert res <= 1e-9


def test_identities_at_largest_feasible_sizes(rng):
    # light coverage at the top of the feasible (n, L) table
    ell3 = random_context(3, rng, elliptic=True)
    pts = sample_spectral(ell3, rng, 4)
    theta = sample_theta(ell3, rng, range(-8, 10))
    assert verify_abn(pts[0], pts[1:], theta, ell3) <= 1e-9
    trig4 = random_context(4, rng, elliptic=False)
    pts = sample_spectral(trig4, rng, 5)
    assert verify_tay(pts[0], pts[1:3], pts[3:], trig4) <= 1e-9
    assert verify_tdy(pts[0], pts[1:3], pts[3:], trig4) <= 1e-9


def test_fx_coefficients_singular_on_coincident_points(ell_ctx2, rng):
    from yblab.errors import SingularCoefficient
    lams = sample_spectral(ell_ctx2, rng, 2)
    theta = sample_theta(ell_ctx2, rng, range(-4, 6))
    with pytest.raises(SingularCoefficient):
        fx_coefficients(lams[0], lams, theta, ell_ctx2)


def test_identity_regime_guard(ell_ctx2, trig_ctx3, rng):
    with pytest.raises(RegimeMismatch):
        verify_ab(0.1, 0.2, ell_ctx2)
    with pytest.raises(RegimeMismatch):
        verify_bb(0.1, 0.2, 0.3, trig_ctx3)


def test_identity_unknown_kind(ell_ctx2):
    with pytest.raises(ValueError):
        verify_identity("nope", ell_ctx2)


@pytest.mark.parametrize("kind, elliptic, built", [
    ("bb", True, 6), ("abn", True, 9), ("tay", False, 5), ("tdy", False, 5)])
def test_identity_check_builds_each_block_once(kind, elliptic, built, monkeypatch, rng):
    # L = 4, n = 2: one build per distinct (lam, theta) a check uses, and
    # the elliptic chains of all of them from one weight batch
    calls, batches = [], []
    blocks = feq._monodromy_blocks
    monkeypatch.setattr(feq, "_monodromy_blocks",
                        lambda *args: calls.append(args[1:3]) or blocks(*args))
    monkeypatch.setattr(yb_core, "f_weights",
                        lambda points, params: batches.append(points)
                        or f_weights(points, params))
    ctx = random_context(4, rng, elliptic=elliptic)
    pts = sample_spectral(ctx, rng, 5)
    theta = sample_theta(ctx, rng, range(-6, 8)) if elliptic else 0.0
    params = {"bb": dict(l1=pts[0], l2=pts[1], theta=theta),
              "abn": dict(l0=pts[0], lams=pts[1:3], theta=theta),
              "tay": dict(l0=pts[0], xb=pts[1:3], yc=pts[3:5]),
              "tdy": dict(l0=pts[0], xb=pts[1:3], yc=pts[3:5])}[kind]
    assert verify_identity(kind, ctx, **params) <= 1e-9
    assert len(calls) == len(set(calls)) == built
    assert len(batches) == elliptic


# --- projection -------------------------------------------------------------

def test_projected_degree_iterate_reduces_to_swap_equation(ell_ctx2, rng):
    """Projecting the degree-(L+1) exchange iterate term by term must land
    exactly on the swap-equation coefficients times partition functions."""
    ctx = ell_ctx2
    f, g, L = ctx.f, ctx.gamma, ctx.L
    pts = sample_spectral(ctx, rng, L + 1)
    l0, lams = pts[0], pts[1:]
    theta = sample_theta(ctx, rng, range(-6, 8))
    pi = lambda m: m[-1, 0]  # <all down| m |all up>

    # left action of the diagonal block reduces the degree by one
    lhs = pi(monodromy_blocks(l0, theta + g, ctx)[0]
             @ creation_string(lams, theta - g, ctx))
    head = f(theta) / f(theta + L * g) * np.prod([f(l0 - m) for m in ctx.mu])
    assert abs(lhs - head * dwbc_partition(lams, theta - g, ctx)) \
        <= 1e-12 * max(abs(lhs), 1e-30)

    # right action with the shifted argument reduces through the up eigenvalue
    swapped = (l0,) + lams[1:]
    rhs = pi(creation_string(swapped, theta, ctx)
             @ monodromy_blocks(lams[0], theta + (L + 1) * g, ctx)[0])
    eig = np.prod([f(lams[0] - m + g) for m in ctx.mu])
    assert abs(rhs - eig * dwbc_partition(swapped, theta, ctx)) \
        <= 1e-12 * max(abs(rhs), 1e-30)

    # and the assembled scalar equation closes
    assert fx_residual(l0, lams, theta, ctx, bf_z(ctx)) <= 1e-10
