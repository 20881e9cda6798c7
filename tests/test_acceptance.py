"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one pass/fail line (run ``pytest -s`` to see them all)
and asserts the same condition, so the module doubles as a machine
gate and a human-readable report.
"""

import cmath
import itertools

import numpy as np
import pytest

from yblab.feq import (fx_residual, snad_residuals, verify_ab, verify_abn,
                       verify_bb, verify_tay, verify_tdy)
from yblab.lattice_qty import (dwbc_partition, dwbc_partitions, hw_action_residuals,
                               scalar_product_bf, scalar_products_bf)
from yblab.pde import (MultiPoly, dia_apply, dia_realized,
                       fzt_residual, interpolate_zbar, omega_actions,
                       omega_leading_apply)
from yblab.residue_int import sn_contour, z_contour
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab.yb_core import verify_dybe, verify_rll

SEED = 424242


def report(name, worst, tol, detail=""):
    status = "PASS" if worst <= tol else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] {name}: worst residual {worst:.3e}  (tolerance {tol:g}){suffix}")
    assert worst <= tol, f"{name}: {worst:.3e} > {tol:g}"


@pytest.fixture(scope="module")
def zbars():
    rng = np.random.default_rng(SEED)
    out = {}
    for L in (2, 3, 4):
        ctx = random_context(L, rng, elliptic=False)
        out[L] = (ctx, interpolate_zbar(ctx))
    return out


def test_c01_dynamical_yang_baxter():
    worst = 0.0
    for elliptic in (True, False):
        rng = np.random.default_rng(SEED + 1)
        ctx = random_context(1, rng, elliptic=elliptic, nome=0.2)
        for _ in range(100):
            l1, l2, l3 = sample_spectral(ctx, rng, 3)
            theta = sample_theta(ctx, rng, range(-2, 3))
            worst = max(worst, verify_dybe(l1, l2, l3, theta, ctx))
    report("criterion 01 dynamical Yang-Baxter, 100 pts/regime", worst, 1e-9)


def test_c02_rll_exchange():
    worst = 0.0
    for elliptic in (True, False):
        for L in (1, 2, 3, 4):
            rng = np.random.default_rng(SEED + 2 + L)
            ctx = random_context(L, rng, elliptic=elliptic)
            for _ in range(20):
                l1, l2 = sample_spectral(ctx, rng, 2)
                theta = sample_theta(ctx, rng, range(-(L + 1), L + 2))
                worst = max(worst, verify_rll(l1, l2, theta, ctx))
    report("criterion 02 RLL exchange, L in 1..4, 20 pts each, both regimes",
           worst, 1e-9)


def test_c03_extremal_state_actions():
    worst_eigen = 0.0
    worst_annih = 0.0
    annih_keys = ("C_ket_up", "B_ket_down", "C_bra_down", "B_bra_up")
    for elliptic in (True, False):
        for L in (1, 2, 3):
            rng = np.random.default_rng(SEED + 10 + L)
            ctx = random_context(L, rng, elliptic=elliptic)
            for _ in range(50):
                lam = sample_spectral(ctx, rng, 1)[0]
                theta = sample_theta(ctx, rng, range(-(L + 1), L + 2))
                res = hw_action_residuals(lam, theta, ctx)
                worst_annih = max(worst_annih, *(res[k] for k in annih_keys))
                worst_eigen = max(worst_eigen,
                                  *(v for k, v in res.items() if k not in annih_keys))
    report("criterion 03a extremal-state eigenvalue actions, L in 1..3, 50 pts",
           worst_eigen, 1e-9)
    report("criterion 03b annihilation statements (operator-normalized)",
           worst_annih, 1e-14)


def test_c04_operator_identities():
    rng = np.random.default_rng(SEED + 20)
    worst = 0.0
    trig3 = random_context(3, rng, elliptic=False)
    for _ in range(20):
        l1, l2 = sample_spectral(trig3, rng, 2)
        worst = max(worst, verify_ab(l1, l2, trig3))
    for L in (2, 3):
        ell = random_context(L, rng, elliptic=True)
        for _ in range(20):
            l1, l2 = sample_spectral(ell, rng, 2)
            theta = sample_theta(ell, rng, range(-4, 6))
            worst = max(worst, verify_bb(l1, l2, theta, ell))
        for _ in range(20):
            pts = sample_spectral(ell, rng, L + 1)
            theta = sample_theta(ell, rng, range(-(2 * L + 2), 2 * L + 3))
            worst = max(worst, verify_abn(pts[0], pts[1:], theta, ell))
        trig = random_context(L, rng, elliptic=False)
        for _ in range(20):
            pts = sample_spectral(trig, rng, 5)
            worst = max(worst, verify_tay(pts[0], pts[1:3], pts[3:], trig))
            worst = max(worst, verify_tdy(pts[0], pts[1:3], pts[3:], trig))
    report("criterion 04 operator identities (exchange rules, degree-n iterates)",
           worst, 1e-9)


def test_c05_swap_equation_brute_force():
    worst = 0.0
    worst_merged = 0.0
    for elliptic in (True, False):
        for L in (1, 2, 3, 4):
            rng = np.random.default_rng(SEED + 30 + L)
            ctx = random_context(L, rng, elliptic=elliptic)
            for _ in range(20):
                pts = sample_spectral(ctx, rng, L + 1)
                theta = sample_theta(ctx, rng, range(-(2 * L + 2), 2 * L + 3))
                worst = max(worst, fx_residual(pts[0], pts[1:], theta, ctx, dwbc_partitions))
                if not elliptic:
                    worst_merged = max(worst_merged,
                                       fzt_residual(pts[0], pts[1:], ctx, dwbc_partitions))
    report("criterion 05a swap equation, brute-force input, L in 1..4",
           worst, 1e-9)
    report("criterion 05b merged six-vertex transcription agrees",
           worst_merged, 1e-9)


def test_c06_partition_contour_vs_brute_force():
    worst = 0.0
    worst_fx = 0.0
    for elliptic in (True, False):
        for L in (1, 2, 3):
            rng = np.random.default_rng(SEED + 40 + L)
            ctx = random_context(L, rng, elliptic=elliptic)
            contour = lambda sets, ctx: [z_contour(pts, th, ctx) for pts, th in sets]
            for _ in range(20):
                lams = sample_spectral(ctx, rng, L, avoid=ctx.mu)
                theta = sample_theta(ctx, rng, range(-1, 2 * L + 3))
                zc = z_contour(lams, theta, ctx)
                zb = dwbc_partition(lams, theta, ctx)
                worst = max(worst, abs(zc - zb) / max(abs(zc), abs(zb)))
            for _ in range(5):
                pts = sample_spectral(ctx, rng, L + 1, avoid=ctx.mu)
                theta = sample_theta(ctx, rng, range(-(2 * L + 2), 2 * L + 3))
                worst_fx = max(worst_fx,
                               fx_residual(pts[0], pts[1:], theta, ctx, contour))
    report("criterion 06a residue sum equals brute force, L in 1..3", worst, 1e-8)
    report("criterion 06b residue sum satisfies the swap equation", worst_fx, 1e-7)


def test_c07_scalar_product_swap_equations():
    worst = 0.0
    for n in (1, 2, 3):
        for L in range(n, 5):
            rng = np.random.default_rng(SEED + 50 + 10 * n + L)
            ctx = random_context(L, rng, elliptic=False)
            for _ in range(20):
                pts = sample_spectral(ctx, rng, 2 * n + 1)
                res_a, res_d = snad_residuals(pts[0], pts[1:n + 1], pts[n + 1:],
                                              ctx, scalar_products_bf)
                worst = max(worst, res_a, res_d)
    report("criterion 07 scalar-product swap equations, n <= 3, L <= 4",
           worst, 1e-9)


def test_c08_scalar_product_contour_vs_brute_force():
    worst = 0.0
    for n, L in ((1, 1), (1, 2), (2, 2), (2, 3)):
        rng = np.random.default_rng(SEED + 70 + 10 * n + L)
        ctx = random_context(L, rng, elliptic=False)
        for _ in range(20):
            pts = sample_spectral(ctx, rng, 2 * n, avoid=ctx.mu)
            sc = sn_contour(pts[:n], pts[n:], ctx)
            sb = scalar_product_bf(pts[:n], pts[n:], ctx)
            worst = max(worst, abs(sc - sb) / max(abs(sc), abs(sb)))
    report("criterion 08 scalar-product residue sum equals brute force",
           worst, 1e-6)


def test_c09_replacement_realization():
    rng = np.random.default_rng(SEED + 80)
    worst = 0.0
    for _ in range(200):
        nvars = int(rng.integers(1, 5))
        deg = int(rng.integers(0, 9))
        shape = (deg + 1,) * nvars
        poly = MultiPoly(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        point = [complex(a, b) for a, b in rng.uniform(-1, 1, (nvars, 2))]
        x0 = complex(*rng.uniform(-1, 1, 2))
        axis = int(rng.integers(nvars))
        realized = dia_realized(poly, axis, x0, point)
        substituted = dia_apply(lambda args: poly.evaluate(args[1:]), axis + 1, 0)(
            [x0] + point)
        worst = max(worst, abs(realized - substituted)
                    / max(abs(realized), abs(substituted), 1e-30))
    report("criterion 09 truncated-Taylor replacement vs substitution, 200 polys",
           worst, 1e-11)


def test_c10_partition_polynomial_structure(zbars):
    worst_deg = 0.0
    worst_off = 0.0
    for L in (2, 3, 4):
        ctx, zbar = zbars[L]
        rng = np.random.default_rng(SEED + 90 + L)
        # degree bound: fit one degree beyond the claim, top slices vanish
        nodes = []
        for _ in range(L):
            axis = []
            while len(axis) < L + 1:
                cand = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.35, 0.35))
                if all(abs(cmath.exp(2 * cand) - cmath.exp(2 * o)) > 0.2
                       for o in axis):
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
            sl[axis] = L
            worst_deg = max(worst_deg, float(np.max(np.abs(coeffs[tuple(sl)])) / top))
        # off-grid reproduction of the interpolated polynomial, relative to
        # its term magnitude sum_d |c_d| |x|^d: near a zero of the
        # polynomial |direct| alone measures cancellation, not the fit
        magnitude = MultiPoly(np.abs(zbar.coeffs))
        for _ in range(20):
            lams = sample_spectral(ctx, rng, L)
            xs = [cmath.exp(2 * l) for l in lams]
            direct = dwbc_partition(lams, 0.0, ctx) * cmath.exp((L - 1) * sum(lams))
            terms = magnitude.evaluate([abs(x) for x in xs]).real
            worst_off = max(worst_off, abs(zbar.evaluate(xs) - direct) / max(terms, 1e-30))
    report("criterion 10a per-variable degree bound L-1", worst_deg, 1e-10)
    report("criterion 10b off-grid reproduction of the oracle", worst_off, 1e-9)


def test_c11_pde_family(zbars):
    worst_null = 0.0
    worst_agree = 0.0
    weakest_control = np.inf
    for L in (2, 3, 4):
        ctx, zbar = zbars[L]
        rng = np.random.default_rng(SEED + 100 + L)
        for _ in range(10):
            lams = sample_spectral(ctx, rng, L)
            acts = omega_actions(zbar, lams, ctx)
            worst_null = max(worst_null,
                             max(abs(c) for c in acts.coefficients) / acts.scale)
            shape = (L,) * L
            control = MultiPoly(rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape))
            extracted = omega_actions(control, lams, ctx).leading
            closed = omega_leading_apply(control, lams, ctx)
            worst_agree = max(worst_agree, abs(extracted - closed)
                              / max(abs(extracted), abs(closed)))
        perturbed = zbar.coeffs.copy()
        idx = np.unravel_index(int(np.argmax(np.abs(perturbed))), perturbed.shape)
        perturbed[idx] *= 1.01
        violation = 0.0
        for _ in range(5):
            lams = sample_spectral(ctx, rng, L)
            acts = omega_actions(MultiPoly(perturbed), lams, ctx)
            violation = max(violation,
                            max(abs(c) for c in acts.coefficients) / acts.scale)
        weakest_control = min(weakest_control, violation)
    report("criterion 11a every pencil operator annihilates the polynomial",
           worst_null, 1e-7)
    report("criterion 11b closed-form leading operator matches extraction",
           worst_agree, 1e-7)
    status = "PASS" if weakest_control > 1e-3 else "FAIL"
    print(f"[{status}] criterion 11c 1%-perturbation control violates: "
          f"weakest {weakest_control:.3e} > 1e-3")
    assert weakest_control > 1e-3


def test_c12_permutation_symmetry():
    worst = 0.0
    for elliptic in (True, False):
        for L in (1, 2, 3):
            rng = np.random.default_rng(SEED + 110 + L)
            ctx = random_context(L, rng, elliptic=elliptic)
            lams = sample_spectral(ctx, rng, L)
            theta = sample_theta(ctx, rng, range(-1, L + 2))
            base = dwbc_partition(lams, theta, ctx)
            for perm in itertools.permutations(range(L)):
                value = dwbc_partition(tuple(lams[p] for p in perm), theta, ctx)
                worst = max(worst, abs(value - base) / abs(base))
    for n in (1, 2, 3):
        rng = np.random.default_rng(SEED + 120 + n)
        ctx = random_context(3, rng, elliptic=False)
        xb = sample_spectral(ctx, rng, n)
        yc = sample_spectral(ctx, rng, n)
        base = scalar_product_bf(xb, yc, ctx)
        for perm_b in itertools.permutations(range(n)):
            for perm_c in itertools.permutations(range(n)):
                value = scalar_product_bf(tuple(xb[p] for p in perm_b),
                                          tuple(yc[p] for p in perm_c), ctx)
                worst = max(worst, abs(value - base) / abs(base))
    report("criterion 12 permutation symmetry, exhaustive at L, n <= 3",
           worst, 1e-10)
