import math
import re
from operator import neg, pos

import numpy as np
import pytest

from yblab.errors import RegimeMismatch, SingularCoefficient, SizeMismatch
from yblab.feq import (fx_coefficients, fx_residual, snad_coefficients,
                       snad_residuals, verify_ab, verify_abn, verify_bb,
                       verify_identity, verify_tay, verify_tdy)
from yblab.lattice_qty import dwbc_partition, dwbc_partitions, scalar_products_bf
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab import feq, yb_core
from yblab.special_fn import Regime, f_weights, six_vertex
from yblab.yb_core import ModelContext

from oracles import blocks_literal, creation_string, f_literal


# --- swap-equation coefficients -------------------------------------------

def test_fx_coefficients_single_site_closed_form(rng):
    ctx = random_context(1, rng)
    f, g = (lambda z: f_literal(z, ctx.regime)), ctx.gamma
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
    f, g, mu = (lambda z: f_literal(z, ctx.regime)), ctx.gamma, ctx.mu
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
    # f(gamma) and f(theta + (L+1)*gamma) are listed once per call: one
    # batch of 78 weights at L = 4, not 111
    L = 4
    ctx = random_context(L, rng)
    pts = sample_spectral(ctx, rng, L + 1)
    theta = sample_theta(ctx, rng, range(-6, 8))
    calls = []
    monkeypatch.setattr(feq, "f_weights",
                        lambda points, regime: calls.append(points) or f_weights(points, regime))
    fx_coefficients(pts[0], pts[1:], theta, ctx)
    # m0: f(theta), f(theta + L*gamma), L of f(lam_0 - mu); per extended
    # point: 2 + L own weights and 2 per other point; the two hoisted ones
    assert [len(points) for points in calls] == [(2 + L) + (L + 1) * (2 + L + 2 * L) + 2] \
        == [78]


@pytest.mark.parametrize("L", [1, 2, 3])
def test_fx_coefficients_trig_transcription_oracle(L, rng):
    # independent symbol-by-symbol re-transcription of the theta-free coefficients
    ctx = random_context(L, rng, elliptic=False)
    a, b, c, mu = (lambda z: np.sinh(z + ctx.gamma)), np.sinh, np.sinh(ctx.gamma), ctx.mu
    l0, *lams = sample_spectral(ctx, rng, L + 1)
    coeffs = fx_coefficients(l0, lams, 0.0, ctx)
    expected = [np.prod([b(l0 - m) for m in mu]),
                -np.prod([a(l0 - m) for m in mu]) * np.prod([a(l - l0) / b(l - l0) for l in lams])]
    expected += [(c / b(li - l0)) * np.prod([a(li - m) for m in mu])
                 * np.prod([a(lj - li) / b(lj - li) for j, lj in enumerate(lams) if j != i])
                 for i, li in enumerate(lams)]
    for got, want in zip((coeffs.m0,) + coeffs.n, expected, strict=True):
        assert abs(got - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("L,elliptic", [(1, True), (2, True), (3, True),
                                        (2, False), (3, False)])
def test_fx_residual_brute_force(L, elliptic, rng):
    ctx = random_context(L, rng, elliptic=elliptic)
    for _ in range(3):
        pts = sample_spectral(ctx, rng, L + 1)
        theta = sample_theta(ctx, rng, range(-(2 * L + 2), 2 * L + 3))
        assert fx_residual(pts[0], pts[1:], theta, ctx, dwbc_partitions) <= 1e-9


def test_fx_residual_scale_invariant(rng):
    ctx = random_context(2, rng)
    pts = sample_spectral(ctx, rng, 3)
    theta = sample_theta(ctx, rng, range(-6, 7))
    base = fx_residual(pts[0], pts[1:], theta, ctx, dwbc_partitions)
    scaled = fx_residual(pts[0], pts[1:], theta, ctx,
                         lambda sets, ctx: [7.3 * z for z in dwbc_partitions(sets, ctx)])
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
    # n = 1..3, L = 3: both heads and all four families, re-transcribed symbol by symbol
    ctx = random_context(3, rng, elliptic=False)
    a, b, c, mu = (lambda z: np.sinh(z + ctx.gamma)), np.sinh, np.sinh(ctx.gamma), ctx.mu
    others = lambda points, i: [q for j, q in enumerate(points) if j != i]
    ratios = lambda zs: np.prod([a(z) / b(z) for z in zs])
    for n in (1, 2, 3):
        l0, *pts = sample_spectral(ctx, rng, 2 * n + 1)
        xb, yc = pts[:n], pts[n:]
        coeffs = snad_coefficients(l0, xb, yc, ctx)
        k = lambda points, i: (c / b(points[i] - l0)) * np.prod([a(points[i] - m) for m in mu]) \
            * np.prod([a(q - points[i]) / b(q - points[i]) for q in others(points, i)])
        kt = lambda points, i: (c / b(l0 - points[i])) * np.prod([b(points[i] - m) for m in mu]) \
            * np.prod([a(points[i] - q) / b(points[i] - q) for q in others(points, i)])
        expected = {
            "j0": [np.prod([a(l0 - m) for m in mu])
                   * (ratios([y - l0 for y in yc]) - ratios([x - l0 for x in xb]))],
            "jt0": [np.prod([b(l0 - m) for m in mu])
                    * (ratios([l0 - y for y in yc]) - ratios([l0 - x for x in xb]))],
            "kb": [k(xb, i) for i in range(n)], "kc": [-k(yc, i) for i in range(n)],
            "ktb": [kt(xb, i) for i in range(n)], "ktc": [-kt(yc, i) for i in range(n)]}
        for field, want in expected.items():
            got = getattr(coeffs, field)
            for g, w in zip(got if isinstance(got, tuple) else (got,), want, strict=True):
                assert abs(g - w) < 1e-12 * abs(w), field


def test_snad_rejects_elliptic(rng):
    ctx = random_context(2, rng, elliptic=True)
    with pytest.raises(RegimeMismatch):
        snad_coefficients(0.3, (0.1,), (0.2,), ctx)


@pytest.mark.parametrize("n,L", [(1, 2), (2, 3)])
def test_snad_residuals_brute_force(n, L, rng):
    ctx = random_context(L, rng, elliptic=False)
    for _ in range(3):
        pts = sample_spectral(ctx, rng, 2 * n + 1)
        res_a, res_d = snad_residuals(pts[0], pts[1:n + 1], pts[n + 1:], ctx, scalar_products_bf)
        assert res_a <= 1e-9
        assert res_d <= 1e-9


def test_snad_residuals_make_one_call_in_order(rng):
    # s0, then lam_0 swapped for each point of XB, then of YC, in the equation's model
    ctx = random_context(3, rng, elliptic=False)
    l0, *pts = sample_spectral(ctx, rng, 5)
    xb, yc = tuple(pts[:2]), tuple(pts[2:])
    calls = []
    res = snad_residuals(l0, xb, yc, ctx, lambda pairs, model: calls.append((pairs, model))
                         or scalar_products_bf(pairs, model))
    assert calls == [([(xb, yc), ((l0, xb[1]), yc), ((l0, xb[0]), yc),
                       (xb, (l0, yc[1])), (xb, (l0, yc[0]))], ctx)]
    assert max(res) <= 1e-9


def test_snad_residuals_linear_in_evaluator(rng):
    ctx = random_context(2, rng, elliptic=False)
    pts = sample_spectral(ctx, rng, 3)
    base = snad_residuals(pts[0], (pts[1],), (pts[2],), ctx, scalar_products_bf)
    doubled = snad_residuals(pts[0], (pts[1],), (pts[2],), ctx,
                             lambda pairs, ctx: [2 * s for s in scalar_products_bf(pairs, ctx)])
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


def test_identity_bb_nan_in_the_second_relation_is_nan(ell_ctx2, rng, monkeypatch):
    # Python's max keeps the first relation's finite residual over a NaN after it
    calls = []
    relation_residual = feq.relation_residual
    monkeypatch.setattr(feq, "relation_residual", lambda *args: calls.append(0)
                        or (relation_residual(*args) if len(calls) == 1 else math.nan))
    l1, l2 = sample_spectral(ell_ctx2, rng, 2)
    theta = sample_theta(ell_ctx2, rng, range(-4, 6))
    assert math.isnan(verify_bb(l1, l2, theta, ell_ctx2))
    assert len(calls) == 2


def test_identity_abn(ell_ctx2, rng):
    pts = sample_spectral(ell_ctx2, rng, 3)
    theta = sample_theta(ell_ctx2, rng, range(-6, 8))
    assert verify_abn(pts[0], pts[1:], theta, ell_ctx2) <= 1e-9


@pytest.mark.parametrize("kind, m, n, L", [
    *(pytest.param(kind, 2, 2, None, id=kind) for kind in ("tay", "tdy")),
    *(pytest.param(kind, m, n, L, id=f"{kind}-C{m}-B{n}-L{L}") for kind in ("tay", "tdy")
      for m, n in ((0, 1), (1, 0), (0, 3), (2, 1), (1, 2)) for L in range(1, 5))])
def test_identity_tay_tdy(kind, m, n, L, trig_ctx3, rng):
    # a C string of m points and a B string of n, of any lengths
    ctx = trig_ctx3 if L is None else random_context(L, rng, elliptic=False)
    pts = sample_spectral(ctx, rng, 1 + m + n)
    res = verify_identity(kind, ctx, l0=pts[0], xb=pts[1:1 + n], yc=pts[1 + n:])
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


def test_coincident_points_name_the_difference_they_evaluate(trig_ctx2, rng):
    # the D-type coefficients, tdy's and snad's D family, evaluate b at reflected differences
    ctx = trig_ctx2
    l0, p = sample_spectral(ctx, rng, 2)
    a, b, _ = six_vertex(ctx.gamma)
    cases = [(lambda: verify_tay(l0, (l0,), (), ctx), "b(xb_i - lam_0)"),
             (lambda: verify_tdy(l0, (l0,), (), ctx), "b(lam_0 - xb_i)"),
             (lambda: verify_tdy(l0, (), (l0,), ctx), "b(lam_0 - yc_i)"),
             (lambda: verify_tay(l0, (p, p), (), ctx), "b(xb_j - xb_i)"),
             (lambda: verify_tdy(l0, (p, p), (), ctx), "b(xb_i - xb_j)"),
             (lambda: feq._swap_family(l0, (l0,), a, pos, ctx), "b(lam_i - lam_0)"),
             (lambda: feq._swap_family(l0, (l0,), b, neg, ctx), "b(lam_0 - lam_i)"),
             (lambda: feq._swap_family(l0, (p, p), a, pos, ctx), "b(lam_j - lam_i)"),
             (lambda: feq._swap_family(l0, (p, p), b, neg, ctx), "b(lam_i - lam_j)")]
    for call, text in cases:
        with pytest.raises(SingularCoefficient, match=re.escape(f"denominator {text} is")):
            call()


def test_identity_regime_guard(ell_ctx2, trig_ctx3, rng):
    with pytest.raises(RegimeMismatch):
        verify_ab(0.1, 0.2, ell_ctx2)
    with pytest.raises(RegimeMismatch):
        verify_bb(0.1, 0.2, 0.3, trig_ctx3)


@pytest.mark.parametrize("kind, params", [
    ("abn", {"l0": 0.3, "lams": (), "theta": 0.2}),
    ("tay", {"l0": 0.3, "xb": (), "yc": ()}),
    ("tdy", {"l0": 0.3, "xb": (), "yc": ()})])
def test_identity_rejects_empty_point_set(kind, params, ell_ctx2, trig_ctx2):
    ctx = ell_ctx2 if kind == "abn" else trig_ctx2
    with pytest.raises(SizeMismatch):
        verify_identity(kind, ctx, **params)


def test_identity_unknown_kind(ell_ctx2):
    with pytest.raises(ValueError):
        verify_identity("nope", ell_ctx2)


@pytest.mark.parametrize("kind, elliptic, built", [
    ("bb", True, 6), ("abn", True, 9), ("tay", False, 5), ("tdy", False, 5)])
def test_identity_check_builds_each_block_once(kind, elliptic, built, monkeypatch, rng):
    # L = 4, n = 2: one build per distinct (lam, theta) a check uses, and
    # the elliptic chains of all of them from one weight batch
    ctx = random_context(4, rng, elliptic=elliptic)
    pts = sample_spectral(ctx, rng, 5)
    theta = sample_theta(ctx, rng, range(-6, 8)) if elliptic else 0.0
    calls, batches = [], []
    monodromy = yb_core._monodromy
    monkeypatch.setattr(yb_core, "_monodromy",
                        lambda *args: calls.append(args[:2]) or monodromy(*args))
    monkeypatch.setattr(yb_core, "f_weights",
                        lambda points, regime: batches.append(points)
                        or f_weights(points, regime))
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
    f, g, L = (lambda z: f_literal(z, ctx.regime)), ctx.gamma, ctx.L
    pts = sample_spectral(ctx, rng, L + 1)
    l0, lams = pts[0], pts[1:]
    theta = sample_theta(ctx, rng, range(-6, 8))
    pi = lambda m: m[-1, 0]  # <all down| m |all up>

    # left action of the diagonal block reduces the degree by one
    lhs = pi(blocks_literal(l0, theta + g, ctx)[0]
             @ creation_string(lams, theta - g, ctx))
    head = f(theta) / f(theta + L * g) * np.prod([f(l0 - m) for m in ctx.mu])
    assert abs(lhs - head * dwbc_partition(lams, theta - g, ctx)) \
        <= 1e-12 * max(abs(lhs), 1e-30)

    # right action with the shifted argument reduces through the up eigenvalue
    swapped = (l0,) + lams[1:]
    rhs = pi(creation_string(swapped, theta, ctx)
             @ blocks_literal(lams[0], theta + (L + 1) * g, ctx)[0])
    eig = np.prod([f(lams[0] - m + g) for m in ctx.mu])
    assert abs(rhs - eig * dwbc_partition(swapped, theta, ctx)) \
        <= 1e-12 * max(abs(rhs), 1e-30)

    # and the assembled scalar equation closes
    assert fx_residual(l0, lams, theta, ctx, dwbc_partitions) <= 1e-10
