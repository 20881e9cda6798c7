import cmath
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yblab import cli, feq, lattice_qty, residue_int, sampling, special_fn, yb_core
from yblab.errors import NomeTooLarge, NonConvergent, ZeroNome
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab.special_fn import (EllipticParams, Regime, _theta1_coefficient_arrays, f_weights,
                              six_vertex, theta1_batch)
from yblab.yb_core import ModelContext

from oracles import central_difference, f_literal, theta1_literal

PARAMS = EllipticParams(0.1)

complex_in_box = st.builds(
    complex,
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-0.4, max_value=0.4),
)


def _one_point(z, params):
    """The series at one point, as ``ModelContext.f`` reads it: a batch of one."""
    return complex(theta1_batch([z], params)[0])


def _batched(z, params):
    # the neighbours stop after two terms, so an error is the one of z
    return complex(theta1_batch([0j, z, -0j], params)[1])


def _bits(values):
    return [np.complex128(v).tobytes() for v in values]


def test_theta1_zero_at_origin():
    assert _one_point(0.0, PARAMS) == 0


def test_theta1_odd(rng):
    zs = [complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)) for _ in range(50)]
    plus, minus = theta1_batch(zs, PARAMS), theta1_batch([-z for z in zs], PARAMS)
    assert np.all(np.abs(plus + minus) < 1e-14 * np.abs(plus))


def test_theta1_quasi_periodicity(rng):
    # theta1(z + pi) = -theta1(z), checked through the series itself
    zs = [complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)) for _ in range(20)]
    lhs = theta1_batch([z + cmath.pi for z in zs], PARAMS)
    rhs = -theta1_batch(zs, PARAMS)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(np.abs(lhs), 1e-30))


def test_theta1_rejects_large_nome():
    with pytest.raises(NomeTooLarge):
        EllipticParams(0.95)


def test_theta1_rejects_zero_nome():
    with pytest.raises(ZeroNome, match="nome must be nonzero"):
        EllipticParams(0j)


def test_theta1_nonconvergent_when_capped(monkeypatch):
    # a two-term cap cannot reach 1e-18 at this nome
    monkeypatch.setattr(special_fn, "SERIES_CAP", 2)
    with pytest.raises(NonConvergent):
        _one_point(0.7 + 0.2j, EllipticParams(0.5))


# at nome 1e-300 every term past the first underflows to 0 (a zero nome is refused)
@pytest.mark.parametrize("nome", [1e-300, 0.2, -0.5, 0.3j, 0.6 + 0.6j, 0.89])
def test_theta1_bit_identical_to_literal_series(nome, rng):
    # a batch of one point, the ModelContext.f route, has the literal bits
    params = EllipticParams(nome)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        fast, literal = _one_point(z, params), theta1_literal(z, params)
        assert fast == literal and repr(fast) == repr(literal)


@pytest.mark.parametrize("nome", [1e-300, 0.2, -0.5, 0.3j, 0.6 + 0.6j, 0.89])
def test_theta1_batch_bit_identical_to_literal_series(nome, rng, monkeypatch):
    params = EllipticParams(nome)
    zs = [complex(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(200)]
    zs += [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-300j]
    if nome == 0.89:  # finite series whose late sines pass |Im| = 708
        zs += [0.3 + 5.33j, -0.3 - 5.34j]
        # partial sums below the stop bound's 1e-300 floor, which then decides the
        # stop: summed on past it, 1e-301 reads 1.7850307944956116e-308, not ...615e-308
        zs += [1e-301, 1e-301j, 1e-302]
    if abs(nome) > 0.8:  # points that need more terms than the first chunk
        zs += [complex(rng.uniform(-3, 3), sign * rng.uniform(3, 4)) for sign in (1, -1)]
    for z, batched in zip(zs, theta1_batch(zs, params).tolist()):
        literal = theta1_literal(z, params)
        assert batched == literal and repr(batched) == repr(literal)
    chunk = _theta1_coefficient_arrays(complex(nome), special_fn.SERIES_CAP)[3]
    if abs(nome) > 0.8:
        monkeypatch.setattr(special_fn, "SERIES_CAP", chunk)
        with pytest.raises(NonConvergent):
            theta1_batch(zs, params)


def test_f_weights_bit_identical_to_f_literal(rng):
    lams = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(100)] + [0j]
    lams += lams[::7]  # repeated points are summed once and read twice
    for regime in (Regime.elliptic(0.2), Regime.elliptic(0.85 + 0.1j), Regime.trigonometric()):
        assert f_weights([], regime) == []
        assert _bits(f_weights(lams, regime)) == _bits(f_literal(lam, regime) for lam in lams)


@pytest.mark.parametrize("route", [theta1_literal, _batched, _one_point])
def test_theta1_failures_match_literal_series(route, monkeypatch):
    # np.sin overflows to inf with a warning where cmath.sin raises; the
    # batched routes must raise the error of the literal series, and warn
    # about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="^math range error$"):
            route(400j, EllipticParams(0.2))
        # a partial sum of finite parts and infinite size: abs() raises;
        # one with an infinite part is a size like any other
        with pytest.raises(OverflowError, match="^absolute value too large$"):
            route(1 + 710.3j, EllipticParams(0.2))
        assert _bits([route(710.3j, EllipticParams(0.2))]) == [np.complex128(complex(
            0.0, np.inf)).tobytes()]
        monkeypatch.setattr(special_fn, "SERIES_CAP", 2)
        with pytest.raises(NonConvergent, match=r"within 2 terms .*z=\(0\.7\+0\.2j\)"):
            route(0.7 + 0.2j, EllipticParams(0.5))


def test_theta1_batch_raises_for_the_first_failing_point(monkeypatch):
    # two points that fail in one pass, then a point that fails after two
    # passes before one that fails in the first: the first in index order
    # is raised
    params = EllipticParams(0.2)
    with pytest.raises(OverflowError, match="^absolute value too large$"):
        theta1_batch([0j, 1 + 710.3j, 400j], params)
    with pytest.raises(OverflowError, match="^math range error$"):
        theta1_batch([0j, 400j, 1 + 710.3j], params)
    # the partial sum of two finite terms overflows
    z = 1.3116455696202531 + 236.79399499582988j
    with pytest.raises(OverflowError, match="^absolute value too large$"):
        theta1_literal(z, EllipticParams(0.89))
    with pytest.raises(OverflowError, match="^absolute value too large$"):
        theta1_batch([0j, z, 400j], EllipticParams(0.89))
    params = EllipticParams(0.89)
    with monkeypatch.context() as m:
        m.setattr(special_fn, "SERIES_CAP", 50)
        assert _theta1_coefficient_arrays(0.89 + 0j, 50)[3] < 50
        with pytest.raises(NonConvergent, match=r"z=4j"):
            theta1_batch([0j, 4j, 400j], params)
        with pytest.raises(OverflowError):
            theta1_batch([0j, 400j, 4j], params)
    monkeypatch.setattr(special_fn, "SERIES_CAP", 2)
    for route in (theta1_literal, _one_point):  # overflow in the last term of a pass
        with pytest.raises(OverflowError, match="^absolute value too large$"):
            route(z, EllipticParams(0.89))
    params = EllipticParams(0.5)
    with pytest.raises(NonConvergent, match=r"z=\(0\.7\+0\.2j\)"):
        theta1_batch([0j, 0.7 + 0.2j, 400j, 0.9 + 0.1j], params)
    with pytest.raises(OverflowError):
        theta1_batch([0j, 400j, 0.7 + 0.2j], params)
    assert theta1_batch(np.zeros(0), params).shape == (0,)


def _entry_bound(size):
    """Peak transient bytes of a batch of ``size`` points: one pass's terms, plus per point."""
    return 120 * special_fn._BATCH_ENTRIES + 40 * size


def test_theta1_batch_sums_slow_points_itself(monkeypatch, rng):
    # one chunk of terms converges for weights f(lam) = theta1(i*lam)/2
    # with |Re lam| <= 1; at Re lam near +-6 it does not, and the batch
    # sums such points again over twice the terms, with the literal bits
    params = EllipticParams(0.2)
    passes, sum_terms = [], special_fn._sum_terms
    monkeypatch.setattr(special_fn, "_sum_terms",
                        lambda z, terms, tables: passes.append((z.size, terms))
                        or sum_terms(z, terms, tables))
    chunk = _theta1_coefficient_arrays(0.2 + 0j, special_fn.SERIES_CAP)[3]
    near = [1j * complex(rng.uniform(-1, 1), rng.uniform(-2, 2)) for _ in range(200)]
    theta1_batch(near, params)
    assert passes == [(200, chunk)]
    far = [1j * complex(sign * rng.uniform(5.8, 6.2), rng.uniform(-2, 2))
           for sign in (1, -1) for _ in range(20)]
    zs = near[:50] + far + near[50:]
    passes.clear()
    batched = theta1_batch(zs, params)
    assert passes == [(240, chunk), (40, 2 * chunk)]
    assert _bits(batched) == _bits(theta1_literal(z, params) for z in zs)
    points = np.array(far * 200)
    theta1_batch(points[:4], params)  # coefficient tables
    tracemalloc.start()
    try:
        theta1_batch(points, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _entry_bound(points.size)


def test_theta1_batch_sums_in_bounded_blocks(monkeypatch, rng):
    # a batch of more points than one pass holds keeps every point's bits,
    # raises for the first failing point when it lies in the second block,
    # and peaks at about one block's transient memory whatever its length
    chunk = _theta1_coefficient_arrays(0.1 + 0j, special_fn.SERIES_CAP)[3]
    block = special_fn._BATCH_ENTRIES // chunk
    assert block >= 512
    zs = [complex(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(block + 50)]
    assert _bits(theta1_batch(zs, PARAMS)) == _bits(theta1_literal(z, PARAMS) for z in zs)
    points = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3 * block)])
    theta1_batch(points[:4], PARAMS)  # coefficient tables
    tracemalloc.start()
    try:
        theta1_batch(points, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _entry_bound(points.size)
    monkeypatch.setattr(special_fn, "SERIES_CAP", 2)  # 0j converges within two terms
    block = special_fn._BATCH_ENTRIES // 2
    zs = [0j] * (block + 10)
    zs[block + 3], zs[block + 7] = 400j, 0.7 + 0.2j
    with pytest.raises(OverflowError):
        theta1_batch(zs, EllipticParams(0.5))
    zs[block + 3], zs[block + 7] = zs[block + 7], zs[block + 3]
    with pytest.raises(NonConvergent, match=r"z=\(0\.7\+0\.2j\)"):
        theta1_batch(zs, EllipticParams(0.5))


def test_theta1_coefficient_table_is_bounded_and_immutable(monkeypatch):
    assert _theta1_coefficient_arrays.cache_info().maxsize == 16
    *arrays, chunk = _theta1_coefficient_arrays(0.2 + 0j, 12)
    assert all(a.shape == (12,) and not a.flags.writeable for a in arrays)
    assert chunk == 10  # |coeff_5| is the first below TERM_TOL * |coeff_0|
    assert _theta1_coefficient_arrays(0.2 + 0j, 7)[3] == 7  # at most the cap
    # the table follows the cap: a changed cap never reads a stale one
    batched = theta1_batch([2j], EllipticParams(0.2))
    monkeypatch.setattr(special_fn, "SERIES_CAP", 7)
    with pytest.raises(NonConvergent, match="within 7 terms"):
        theta1_batch([2j], EllipticParams(0.2))
    monkeypatch.undo()
    assert _bits(theta1_batch([2j], EllipticParams(0.2))) == _bits(batched)


def test_f_weight_trig_matches_exponentials():
    lam = 1 + 0.3j
    direct = (cmath.exp(lam) - cmath.exp(-lam)) / 2
    assert abs(f_weights([lam], Regime.trigonometric())[0] - direct) < 1e-15 * abs(direct)


@settings(max_examples=100, deadline=None)
@given(lam=complex_in_box)
def test_f_weight_odd_both_regimes(lam):
    for regime in (Regime.trigonometric(), Regime.elliptic(0.2)):
        plus, minus = f_weights([lam, -lam], regime)
        assert abs(plus + minus) <= 1e-12 * max(abs(plus), 1e-30)


def test_f_weight_zero_at_origin():
    assert f_weights([0.0], Regime.trigonometric()) == [0]
    assert f_weights([0.0], Regime.elliptic(0.3)) == [0]


def test_small_nome_degenerates_to_sinh(rng):
    regime = Regime.elliptic(1e-8)
    f = lambda z: f_weights([z], regime)[0]
    d0 = central_difference(f, 0.0, h=1e-6)
    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        ratio = f(lam) / d0
        assert abs(ratio - cmath.sinh(lam)) < 1e-6 * max(abs(cmath.sinh(lam)), 1e-3)


def test_trig_weights_at_zero():
    a_of, b_of, c = six_vertex(0.5)
    a, b = a_of(0.0), b_of(0.0)
    assert b == 0
    assert abs(a - cmath.sinh(0.5)) < 1e-16
    assert a == c


def test_trig_weights_addition_identity(rng):
    gamma = 0.41 + 0.07j
    a_of, b_of, c = six_vertex(gamma)
    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        a, b = a_of(lam), b_of(lam)
        # sinh(lam + gamma) = sinh(lam) cosh(gamma) + cosh(lam) sinh(gamma)
        resid = a - b * cmath.cosh(gamma) - c * cmath.cosh(lam)
        assert abs(resid) < 1e-14 * abs(a)


def test_trig_weights_direct_value():
    a_of, _, _ = six_vertex(0.5)
    assert abs(a_of(1.0) - cmath.sinh(1.5)) < 1e-15


def _weight_calls(monkeypatch):
    """Record the module of every ``f_weights`` call made through a module that reads weights."""
    calls = []
    for module in (feq, lattice_qty, residue_int, yb_core):
        monkeypatch.setattr(module, "f_weights", lambda points, regime, name=module.__name__:
                            calls.append(name.rsplit(".", 1)[1]) or f_weights(points, regime))
    return calls


@pytest.mark.parametrize("caller, module", [
    ("fx_coefficients", "feq"), ("verify_bb", "feq"), ("verify_abn", "feq"),
    ("hw_action_residuals", "lattice_qty"), ("hw_action_residuals-trig", "lattice_qty"),
    ("z_contour", "residue_int"), ("z_contour-trig", "residue_int"), ("ModelContext", "yb_core")])
def test_one_weight_call_per_evaluation(caller, module, monkeypatch, rng):
    # an evaluation lists its weights and reads them from one accessor call;
    # the elliptic chains it builds take theirs from one more, in yb_core
    ctx = random_context(3, rng, elliptic=not caller.endswith("-trig"))
    pts = sample_spectral(ctx, rng, 4)
    theta = sample_theta(ctx, rng, range(-8, 9))
    calls = _weight_calls(monkeypatch)
    {"fx_coefficients": lambda: feq.fx_coefficients(pts[0], pts[1:], theta, ctx),
     "verify_bb": lambda: feq.verify_bb(pts[0], pts[1], theta, ctx),
     "verify_abn": lambda: feq.verify_abn(pts[0], pts[1:3], theta, ctx),
     "hw_action_residuals": lambda: lattice_qty.hw_action_residuals(pts[0], theta, ctx),
     "z_contour": lambda: residue_int.z_contour(pts[1:], theta, ctx),
     "ModelContext": lambda: ModelContext(ctx.L, ctx.gamma, ctx.mu, ctx.regime),
     }[caller.removesuffix("-trig")]()
    assert calls.count(module) == 1
    assert len(calls) == 1 + (caller in ("verify_bb", "verify_abn", "hw_action_residuals"))


@pytest.mark.parametrize("elliptic", [True, False], ids=["elliptic", "trig"])
def test_samplers_read_no_weight(elliptic, monkeypatch, rng):
    # admissibility is a distance to the zero lattice of f, known from the
    # nome alone, so the samplers draw while every weight read raises
    ctx = random_context(4, rng, elliptic=elliptic)

    def refuse(*args):
        raise AssertionError("a sampler read a weight")

    monkeypatch.setattr(special_fn, "f_weights", refuse)
    monkeypatch.setattr(ModelContext, "f", refuse)
    for _ in range(10):
        assert len(set(sampling.sample_spectral(ctx, rng, 5))) == 5
        assert (sampling.sample_theta(ctx, rng) != 0) == elliptic


@pytest.mark.parametrize("nome", [None, 0.2, 0.85 + 0.1j, 0.89, 1e-11],
                         ids=["trig", "0.2", "0.85+0.1i", "0.89", "1e-11"])
def test_lattice_rule_tracks_the_weight_near_its_zeros(nome):
    # f has a simple zero at each n log p + i pi m (i pi m in trig), where its
    # slope is |f'(0)| |p|^(-n^2) by quasi-periodicity: 1 in trig, 0.59 at
    # nome 0.2 and 8.9e-8 at 0.89.  On rings around the zeros of the columns
    # n = -1, 0, 1, the rule refuses every point within R / 2, where |f| <
    # 0.51 R slope, and accepts every point from 2 R to 8 R, where |f| > 1.98 R
    # slope (the grid reads 0.5005 and 1.9916 at worst: f bends that little)
    radius = sampling.ZERO_RADIUS
    regime = Regime.trigonometric() if nome is None else Regime.elliptic(nome)
    ctx = ModelContext(1, sampling.DEFAULT_GAMMA, (0.1,), regime)
    slope = abs(ctx.f(1e-8)) / 1e-8
    columns = (0,) if nome is None else (-1, 0, 1)
    for n, m in itertools.product(columns, (-1, 0, 1)):
        zero = (n * cmath.log(nome) if n else 0) + 1j * cmath.pi * m
        scale = radius * slope * abs(nome or 1) ** -(n * n)
        for ring in (1 / 8, 1 / 4, 1 / 2, 2, 4, 8):
            points = [zero + ring * radius * cmath.exp(1j * (0.3 + k * cmath.pi / 4))
                      for k in range(8)]
            sizes = [abs(w) / scale for w in f_weights(points, regime)]
            verdicts = [sampling._admissible(ctx, [z]) for z in points]
            if ring < 1:
                assert not any(verdicts) and max(sizes) < 0.51
            else:
                assert all(verdicts) and min(sizes) > 1.98


def test_run_makes_one_weight_batch_per_draw(monkeypatch, capsys):
    # the seed-1 run-elliptic pass: the draws read no weight, and every
    # evaluation, factor build and model check makes one call
    calls = _weight_calls(monkeypatch)
    checks, f = [], ModelContext.f
    monkeypatch.setattr(ModelContext, "f", lambda self, z: checks.append(z) or f(self, z))
    assert cli.main(["run", "--L", "4", "--checks", "dybe,rll,hw-actions,identities,fx,"
                     "z-contour-vs-bf,dia-realization", "--samples", "20", "--seed", "1"]) == 0
    capsys.readouterr()
    evaluations = sum(calls.count(module) for module in ("feq", "lattice_qty", "residue_int"))
    builds = calls.count("yb_core") - len(checks)
    assert (builds, evaluations, len(checks)) == (120, 80, 21)
    assert len(calls) == 221
