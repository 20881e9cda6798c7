import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yblab import lattice_qty, pde
from yblab.errors import DegreeMismatch, RegimeMismatch, SingularCoefficient
from yblab.feq import fx_residual
from yblab.lattice_qty import dwbc_partition, dwbc_partitions
from yblab.pde import (MultiPoly, PdeVars, dia_apply, dia_realized, fzt_coefficients,
                       fzt_residual, interpolate_zbar, omega_actions, omega_leading_apply)
from yblab.sampling import random_context, sample_spectral

from oracles import (derivative_literal, dia_realized_literal, evaluate_literal,
                     fzt_coefficients_literal, interpolate_zbar_literal, omega_actions_literal,
                     omega_leading_apply_literal)


def bf_z(ctx):
    return lambda sets: dwbc_partitions(sets, ctx)


def random_poly(rng, nvars, deg):
    shape = (deg + 1,) * nvars
    return MultiPoly(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# --- replacement operator ---------------------------------------------------

def test_dia_apply_substitutes():
    f = lambda args: args[1] ** 2 * args[2]
    g = dia_apply(f, 1, 0)
    assert g([2, 5, 3]) == 12


def test_dia_apply_idempotent(rng):
    f = lambda args: args[1] ** 3 + 2 * args[2]
    once = dia_apply(f, 1, 0)
    twice = dia_apply(once, 1, 0)
    for _ in range(10):
        args = list(rng.uniform(-2, 2, 3))
        assert once(args) == twice(args)


def test_dia_apply_chained_substitutions(rng):
    f = lambda args: args[1] * args[2] ** 2
    both = dia_apply(dia_apply(f, 1, 0), 2, 0)
    for _ in range(10):
        z0, z1, z2 = rng.uniform(-2, 2, 3)
        assert both([z0, z1, z2]) == pytest.approx(z0 ** 3)


def test_dia_realized_exact_on_monomial(rng):
    # z1^2 * z2 with degree bound 2
    coeffs = np.zeros((3, 3), dtype=complex)
    coeffs[2, 1] = 1.0
    poly = MultiPoly(coeffs)
    for _ in range(100):
        z = [complex(a, b) for a, b in rng.uniform(-1, 1, (2, 2))]
        x0 = complex(*rng.uniform(-1, 1, 2))
        realized = dia_realized(poly, 0, x0, z)
        assert abs(realized - x0 ** 2 * z[1]) < 1e-12 * max(abs(realized), 1e-6)


def test_dia_realized_constant_is_identity():
    poly = MultiPoly(np.array(3.5 + 1j))
    assert dia_realized(poly, 0, 9.0, [2.0]) == 3.5 + 1j


def test_dia_realized_degree_mismatch():
    poly = MultiPoly(np.array([1.0, 2.0, 3.0]))  # degree 2
    with pytest.raises(DegreeMismatch):
        dia_realized(poly, 0, 1.0, [0.5], m=1)


@settings(max_examples=60, deadline=None)
@given(nvars=st.integers(1, 3), deg=st.integers(0, 6), seed=st.integers(0, 10 ** 6))
def test_dia_realized_matches_substitution(nvars, deg, seed):
    rng = np.random.default_rng(seed)
    poly = random_poly(rng, nvars, deg)
    point = [complex(a, b) for a, b in rng.uniform(-1, 1, (nvars, 2))]
    x0 = complex(*rng.uniform(-1, 1, 2))
    axis = int(rng.integers(nvars))
    realized = dia_realized(poly, axis, x0, point)
    substituted = dia_apply(lambda args: poly.evaluate(args[1:]), axis + 1, 0)(
        [x0] + point)
    assert abs(realized - substituted) <= 1e-11 * max(abs(substituted), 1e-9)


# --- partition polynomial ----------------------------------------------------

def test_interpolate_zbar_degree_zero_at_single_site(rng):
    ctx = random_context(1, rng, elliptic=False)
    zbar = interpolate_zbar(ctx)
    assert zbar.nvars == 1 and zbar.max_deg == 0


def test_interpolate_zbar_rejects_elliptic(rng):
    ctx = random_context(2, rng, elliptic=True)
    with pytest.raises(RegimeMismatch):
        interpolate_zbar(ctx)


def test_interpolate_zbar_refuses_large_chains(rng):
    ctx = random_context(5, rng, elliptic=False)
    with pytest.raises(ValueError):
        interpolate_zbar(ctx)


def test_omega_actions_rejects_wrong_shape(pencil_setup, rng):
    ctx, _ = pencil_setup[3]
    wrong = random_poly(rng, 3, 3)  # degree above the partition bound
    point = PdeVars.from_lambdas(sample_spectral(ctx, rng, 3), ctx)
    with pytest.raises(DegreeMismatch):
        omega_actions(wrong, point, ctx)


def test_interpolate_zbar_off_grid(rng):
    ctx = random_context(2, rng, elliptic=False)
    zbar = interpolate_zbar(ctx)
    for _ in range(50):
        lams = sample_spectral(ctx, rng, 2)
        xs = [cmath.exp(2 * l) for l in lams]
        direct = dwbc_partition(lams, 0.0, ctx) * cmath.exp(sum(lams))
        assert abs(zbar.evaluate(xs) - direct) <= 1e-9 * max(abs(direct), 1e-20)


def test_zbar_degree_bound(rng):
    # fit one degree higher than the claimed bound: top slices must vanish
    ctx = random_context(3, rng, elliptic=False)
    L = ctx.L
    nodes = []
    for _ in range(L):
        axis = []
        while len(axis) < L + 1:
            cand = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.35, 0.35))
            if all(abs(cmath.exp(2 * cand) - cmath.exp(2 * o)) > 0.2 for o in axis):
                axis.append(cand)
        nodes.append(axis)
    values = np.zeros((L + 1,) * L, dtype=complex)
    for idx in np.ndindex(values.shape):
        pts = [nodes[k][idx[k]] for k in range(L)]
        values[idx] = dwbc_partition(pts, 0.0, ctx) * cmath.exp((L - 1) * sum(pts))
    coeffs = values
    for axis in range(L):
        xs = np.array([cmath.exp(2 * v) for v in nodes[axis]])
        vander = np.vander(xs, L + 1, increasing=True)
        moved = np.moveaxis(coeffs, axis, 0).reshape(L + 1, -1)
        coeffs = np.moveaxis(np.linalg.solve(vander, moved).reshape(
            (L + 1,) + coeffs.shape[:axis] + coeffs.shape[axis + 1:]), 0, axis)
    top = np.max(np.abs(coeffs))
    for axis in range(L):
        sl = [slice(None)] * L
        sl[axis] = L  # the degree-L slice, beyond the claimed bound
        assert np.max(np.abs(coeffs[tuple(sl)])) <= 1e-10 * top


# --- merged swap equation ----------------------------------------------------

def test_fzt_residual_brute_force(trig_ctx2, rng):
    for _ in range(3):
        pts = sample_spectral(trig_ctx2, rng, 3)
        assert fzt_residual(pts[0], pts[1:], trig_ctx2, bf_z(trig_ctx2)) <= 1e-9


def test_fzt_and_fx_agree_on_zeros(trig_ctx3, rng):
    pts = sample_spectral(trig_ctx3, rng, 4)
    assert fzt_residual(pts[0], pts[1:], trig_ctx3, bf_z(trig_ctx3)) <= 1e-9
    assert fx_residual(pts[0], pts[1:], 0.0, trig_ctx3, bf_z(trig_ctx3)) <= 1e-9


def test_fzt_scale_invariant(trig_ctx2, rng):
    pts = sample_spectral(trig_ctx2, rng, 3)
    base = fzt_residual(pts[0], pts[1:], trig_ctx2, bf_z(trig_ctx2))
    scaled = fzt_residual(pts[0], pts[1:], trig_ctx2,
                          lambda sets: [-4.2j * z for z in dwbc_partitions(sets, trig_ctx2)])
    assert abs(base - scaled) <= 1e-12


# --- operator pencil ---------------------------------------------------------

@pytest.fixture(scope="module")
def pencil_setup():
    rng = np.random.default_rng(777)
    out = {}
    for L in (2, 3):
        ctx = random_context(L, rng, elliptic=False)
        out[L] = (ctx, interpolate_zbar(ctx))
    return out


def test_pde_vars_consistency(rng):
    ctx = random_context(2, rng, elliptic=False)
    lams = sample_spectral(ctx, rng, 2)
    point = PdeVars.from_lambdas(lams, ctx)
    assert all(abs(x - cmath.exp(2 * l)) < 1e-15 * abs(x)
               for x, l in zip(point.x, lams))
    assert abs(point.q - cmath.exp(ctx.gamma)) < 1e-15


@pytest.mark.parametrize("L", [2, 3])
def test_partition_polynomial_is_null_vector(L, pencil_setup, rng):
    ctx, zbar = pencil_setup[L]
    for _ in range(5):
        point = PdeVars.from_lambdas(sample_spectral(ctx, rng, L), ctx)
        acts = omega_actions(zbar, point, ctx)
        assert len(acts.coefficients) == L
        assert max(abs(c) for c in acts.coefficients) <= 1e-8 * acts.scale


def test_random_polynomial_is_not_null_vector(pencil_setup, rng):
    ctx, _ = pencil_setup[3]
    control = random_poly(rng, 3, 2)
    point = PdeVars.from_lambdas(sample_spectral(ctx, rng, 3), ctx)
    acts = omega_actions(control, point, ctx)
    assert max(abs(c) for c in acts.coefficients) > 1e-3 * acts.scale


def test_perturbed_polynomial_violates(pencil_setup, rng):
    # the null-vector property holds at every point, so a perturbation is
    # detected once the worst violation over sampled points is large
    ctx, zbar = pencil_setup[3]
    coeffs = zbar.coeffs.copy()
    idx = np.unravel_index(int(np.argmax(np.abs(coeffs))), coeffs.shape)
    coeffs[idx] *= 1.01
    perturbed = MultiPoly(coeffs)
    worst = 0.0
    for _ in range(5):
        point = PdeVars.from_lambdas(sample_spectral(ctx, rng, 3), ctx)
        acts = omega_actions(perturbed, point, ctx)
        worst = max(worst, max(abs(c) for c in acts.coefficients) / acts.scale)
    assert worst > 1e-3


@pytest.mark.parametrize("L", [2, 3])
def test_leading_operator_matches_extraction(L, pencil_setup, rng):
    ctx, _ = pencil_setup[L]
    for _ in range(5):
        control = random_poly(rng, L, L - 1)
        point = PdeVars.from_lambdas(sample_spectral(ctx, rng, L), ctx)
        extracted = omega_actions(control, point, ctx).leading
        closed = omega_leading_apply(control, point, ctx)
        assert abs(extracted - closed) <= 1e-7 * max(abs(extracted), abs(closed))


def test_leading_operator_annihilates_partition_polynomial(pencil_setup, rng):
    ctx, zbar = pencil_setup[3]
    point = PdeVars.from_lambdas(sample_spectral(ctx, rng, 3), ctx)
    scale = omega_actions(zbar, point, ctx).scale
    assert abs(omega_leading_apply(zbar, point, ctx)) <= 1e-7 * scale


def test_leading_operator_two_site_transcription(pencil_setup, rng):
    # literal two-site re-transcription of the compact closed form
    ctx, _ = pencil_setup[2]
    control = random_poly(rng, 2, 1)
    point = PdeVars.from_lambdas(sample_spectral(ctx, rng, 2), ctx)
    xs, ys, q = point.x, point.y, point.q
    abar = lambda u, v: u * q ** 2 - v
    expected = (abar(xs[0], ys[0]) + abar(xs[1], ys[1])) * control.evaluate(xs)
    expected -= q ** (-2) * (
        abar(xs[0], ys[0]) * abar(xs[0], ys[1])
        * (abar(xs[1], xs[0]) / (xs[1] - xs[0]))
        * control.derivative(0, 1).evaluate(xs)
        + abar(xs[1], ys[0]) * abar(xs[1], ys[1])
        * (abar(xs[0], xs[1]) / (xs[0] - xs[1]))
        * control.derivative(1, 1).evaluate(xs))
    value = omega_leading_apply(control, point, ctx)
    assert abs(value - expected) <= 1e-12 * max(abs(expected), 1e-12)
    extracted = omega_actions(control, point, ctx).leading
    assert abs(extracted - expected) <= 1e-9 * max(abs(expected), 1e-12)


def test_multipoly_derivative_beyond_degree_is_zero():
    poly = MultiPoly(np.array([1.0, 2.0, 3.0]))  # degree 2 in one variable
    assert np.all(poly.derivative(0, 3).coeffs == 0)


def test_multipoly_negative_derivative_order_is_rejected():
    with pytest.raises(ValueError):
        MultiPoly(np.array([1.0, 2.0])).derivative(0, -1)


# --- agreement with the literal routes --------------------------------------

def _explicit_nodes(rng, L):
    # well separated in x = exp(2 lam), drawn outside interpolate_zbar
    nodes = []
    for _ in range(L):
        axis = []
        while len(axis) < L:
            cand = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
            if all(abs(cmath.exp(2 * cand) - cmath.exp(2 * o)) > 0.3 for o in axis):
                axis.append(cand)
        nodes.append(axis)
    return nodes


def _max_gap(a, b):
    return float(np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(b.coeffs)))


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_interpolate_zbar_matches_literal_on_roots_of_unity(L):
    ctx = random_context(L, np.random.default_rng(40 + L), elliptic=False)
    nodes = [[1j * math.pi * k / L for k in range(L)]] * L
    assert _max_gap(interpolate_zbar(ctx), interpolate_zbar_literal(ctx, nodes=nodes)) \
        <= 1e-13


@pytest.mark.parametrize("L", [1, 2, 3])
def test_interpolate_zbar_matches_literal_on_random_grid(L):
    rng = np.random.default_rng(40 + L)
    ctx = random_context(L, rng, elliptic=False)
    literal = interpolate_zbar_literal(ctx, nodes=_explicit_nodes(rng, L))
    # the oracle's Vandermonde solves lose a few digits on random nodes
    assert _max_gap(interpolate_zbar(ctx), literal) <= 1e-11


@pytest.mark.parametrize("nvars, deg", [(1, 0), (1, 3), (2, 2), (3, 4), (4, 3)])
def test_derivatives_bit_identical_to_literal(nvars, deg, rng):
    poly = random_poly(rng, nvars, deg)
    for axis in range(nvars):
        ladder = list(poly.derivatives(axis, deg + 3))
        assert len(ladder) == deg + 3
        for order, step in enumerate(ladder):
            literal = derivative_literal(poly, axis, order).coeffs
            assert np.array_equal(step.coeffs, literal)
            assert np.array_equal(poly.derivative(axis, order).coeffs, literal)


def test_dia_realized_bit_identical_to_literal(rng):
    for nvars, deg in [(1, 0), (2, 5), (3, 3), (4, 8)]:
        poly = random_poly(rng, nvars, deg)
        point = [complex(a, b) for a, b in rng.uniform(-1, 1, (nvars, 2))]
        x0 = complex(*rng.uniform(-1, 1, 2))
        for axis in range(nvars):
            assert dia_realized(poly, axis, x0, point) \
                == dia_realized_literal(poly, axis, x0, point)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_omega_actions_bit_identical_to_literal(L):
    rng = np.random.default_rng(60 + L)
    ctx = random_context(L, rng, elliptic=False)
    zbars = [interpolate_zbar(ctx),
             interpolate_zbar_literal(ctx, nodes=_explicit_nodes(rng, L))]
    for zbar in zbars:
        control = random_poly(rng, L, L - 1)
        for _ in range(2):
            point = PdeVars.from_lambdas(sample_spectral(ctx, rng, L), ctx)
            for poly in (zbar, control):
                acts = omega_actions(poly, point, ctx)
                literal = omega_actions_literal(poly, point, ctx)
                assert acts.coefficients == literal.coefficients
                assert acts.scale == literal.scale


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_grid_is_l_squared_block_applications(L, monkeypatch):
    ctx = random_context(L, np.random.default_rng(80 + L), elliptic=False)
    blocks, partitions = [], []
    apply_block = pde._apply_block
    monkeypatch.setattr(pde, "_apply_block",
                        lambda *args: blocks.append(args[1:3]) or apply_block(*args))
    monkeypatch.setattr(lattice_qty, "dwbc_partition",
                        lambda *args: partitions.append(args) or dwbc_partition(*args))
    interpolate_zbar(ctx)
    assert len(blocks) == L * L and {name for name, _ in blocks} == {"B"}
    assert partitions == []


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_pencil_evaluates_each_derivative_once(L, monkeypatch):
    rng = np.random.default_rng(90 + L)
    ctx = random_context(L, rng, elliptic=False)
    zbar = interpolate_zbar(ctx)
    ladders, tables, passes = [], [], []
    derivatives, derivative_table, horner = (
        MultiPoly.derivatives, MultiPoly.derivative_table, pde._horner)
    monkeypatch.setattr(MultiPoly, "derivatives",
                        lambda self, *args: ladders.append(self) or derivatives(self, *args))
    monkeypatch.setattr(MultiPoly, "derivative_table",
                        lambda self, pt: tables.append(pt) or derivative_table(self, pt))
    monkeypatch.setattr(pde, "_horner", lambda *args: passes.append(args) or horner(*args))
    points = [PdeVars.from_lambdas(sample_spectral(ctx, rng, L), ctx) for _ in range(3)]
    for point in points:
        omega_actions(zbar, point, ctx)
        omega_leading_apply(zbar, point, ctx)
    # one derivative ladder per axis builds the stack, once for all points
    assert len(ladders) == L and all(p is zbar for p in ladders)
    # one table, and no other evaluation, per call
    assert tables == [p.x for p in points for _ in range(2)]
    assert len(passes) == len(tables)


def test_multipoly_keeps_a_read_only_copy(rng):
    coeffs = rng.standard_normal((3, 3)) + 0j
    poly = MultiPoly(coeffs)
    point = [0.3 + 0.1j, -0.7 + 0.2j]
    before = poly.evaluate(point)
    table = poly.derivative_table(point)
    coeffs[:] = 0.0  # the caller's array stays writable
    assert poly.evaluate(point) == before and poly.derivative_table(point) == table
    assert not poly.coeffs.flags.writeable
    assert not poly._derivative_stack.flags.writeable
    assert not poly.derivative(0, 1).coeffs.flags.writeable
    with pytest.raises(ValueError):
        poly.coeffs[0, 0] = 1.0


def test_multipoly_compares_and_hashes_by_identity():
    p, q = MultiPoly(np.ones((2, 2))), MultiPoly(np.ones((2, 2)))
    assert p == p and p != q
    assert hash(p) == hash(p) and len({p, q, p}) == 2


@pytest.mark.parametrize("nvars, deg", [(1, 0), (1, 4), (2, 0), (2, 3), (3, 2), (4, 3),
                                        (5, 4)])
def test_derivative_table_bit_identical_to_single_evaluations(nvars, deg, rng):
    for _ in range(3):
        poly = random_poly(rng, nvars, deg)
        point = [complex(a, b) for a, b in rng.uniform(-1.5, 1.5, (nvars, 2))]
        assert poly.evaluate(point) == evaluate_literal(poly, point)
        table = poly.derivative_table(point)
        assert len(table) == nvars and all(len(row) == deg + 1 for row in table)
        for axis in range(nvars):
            for order in range(deg + 1):
                value = table[axis][order]
                assert type(value) is complex
                assert value == poly.derivative(axis, order).evaluate(point)
                assert value == evaluate_literal(derivative_literal(poly, axis, order), point)


def test_derivative_table_checks_the_point_length():
    with pytest.raises(ValueError):
        MultiPoly(np.ones((2, 2))).derivative_table([1.0])


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_omega_leading_apply_bit_identical_to_literal(L):
    rng = np.random.default_rng(70 + L)
    ctx = random_context(L, rng, elliptic=False)
    for poly in (interpolate_zbar(ctx), random_poly(rng, L, L - 1)):
        for _ in range(3):
            point = PdeVars.from_lambdas(sample_spectral(ctx, rng, L), ctx)
            assert omega_leading_apply(poly, point, ctx) \
                == omega_leading_apply_literal(poly, point, ctx)


def test_omega_leading_apply_rejects_wrong_shape(pencil_setup, rng):
    ctx, _ = pencil_setup[3]
    point = PdeVars.from_lambdas(sample_spectral(ctx, rng, 3), ctx)
    for wrong in (random_poly(rng, 3, 3), random_poly(rng, 2, 2)):
        with pytest.raises(DegreeMismatch):
            omega_leading_apply(wrong, point, ctx)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_fzt_coefficients_bit_identical_to_literal(L):
    rng = np.random.default_rng(50 + L)
    ctx = random_context(L, rng, elliptic=False)
    for _ in range(5):
        pts = sample_spectral(ctx, rng, L + 1)
        assert fzt_coefficients(pts[0], pts[1:], ctx) \
            == fzt_coefficients_literal(pts[0], pts[1:], ctx)


def test_fzt_coefficients_singular_like_literal(trig_ctx3, rng):
    pts = sample_spectral(trig_ctx3, rng, 3)
    l0 = pts[1] + 1e-14  # b(lam_2 - lam_0) ~ 0
    with pytest.raises(SingularCoefficient) as shipped:
        fzt_coefficients(l0, pts, trig_ctx3)
    with pytest.raises(SingularCoefficient) as literal:
        fzt_coefficients_literal(l0, pts, trig_ctx3)
    assert str(shipped.value) == str(literal.value) == "b(lam_2 - lam_0) ~ 0"
