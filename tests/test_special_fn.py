import cmath
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yblab import special_fn
from yblab.errors import NomeTooLarge, NonConvergent
from yblab.special_fn import (EllipticParams, Regime, _theta1_coefficient_arrays,
                              _theta1_coefficients, f_weight, f_weights, six_vertex, theta1,
                              theta1_batch)

from oracles import central_difference, theta1_literal

PARAMS = EllipticParams(0.1)

complex_in_box = st.builds(
    complex,
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-0.4, max_value=0.4),
)


def test_theta1_zero_at_origin():
    assert theta1(0.0, PARAMS) == 0


def test_theta1_odd(rng):
    for _ in range(50):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        assert abs(theta1(-z, PARAMS) + theta1(z, PARAMS)) < 1e-14 * abs(theta1(z, PARAMS))


def test_theta1_quasi_periodicity(rng):
    # theta1(z + pi) = -theta1(z), checked through the series itself
    for _ in range(20):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        lhs = theta1(z + cmath.pi, PARAMS)
        rhs = -theta1(z, PARAMS)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)


def test_theta1_rejects_large_nome():
    with pytest.raises(NomeTooLarge):
        EllipticParams(0.95)


def test_theta1_nonconvergent_when_capped():
    # a two-term cap cannot reach 1e-18 at this nome
    params = EllipticParams(0.5, series_cap=2)
    with pytest.raises(NonConvergent):
        theta1(0.7 + 0.2j, params)


@pytest.mark.parametrize("nome", [0, 0.2, -0.5, 0.3j, 0.6 + 0.6j, 0.89])
def test_theta1_bit_identical_to_literal_series(nome, rng):
    # tabulating the nome's powers must not move a single bit
    params = EllipticParams(nome)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        fast, literal = theta1(z, params), theta1_literal(z, params)
        assert fast == literal and repr(fast) == repr(literal)


@pytest.mark.parametrize("nome", [0, 0.2, -0.5, 0.3j, 0.6 + 0.6j, 0.89])
def test_theta1_batch_bit_identical_to_literal_series(nome, rng):
    params = EllipticParams(nome)
    zs = [complex(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(200)]
    zs += [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-300j]
    if nome == 0.89:  # finite series whose late sines pass |Im| = 708
        zs += [0.3 + 5.33j, -0.3 - 5.34j]
    for z, batched in zip(zs, theta1_batch(zs, params).tolist()):
        literal = theta1_literal(z, params)
        assert batched == literal and repr(batched) == repr(literal)
    chunk = _theta1_coefficient_arrays(params)[3]
    if abs(nome) > 0.8:  # some points need more terms than one chunk holds
        with pytest.raises(NonConvergent):
            for z in zs:
                theta1(z, EllipticParams(nome, series_cap=chunk))


def test_f_weights_bit_identical_to_f_weight(rng):
    regime = Regime.elliptic(0.2)
    lams = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(100)] + [0j]
    assert f_weights([], regime.params) == []
    for lam, batched in zip(lams, f_weights(lams, regime.params)):
        assert repr(batched) == repr(f_weight(lam, regime))


def _batched(z, params):
    return complex(theta1_batch([0.3 + 0.1j, z, 0.2], params)[1])


@pytest.mark.parametrize("route", [theta1, theta1_literal, _batched])
def test_theta1_failures_match_literal_series(route):
    # np.sin overflows to inf with a warning where cmath.sin raises; the
    # batched route must raise the same error, and warn about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent, match="within 2 terms"):
            route(0.7 + 0.2j, EllipticParams(0.5, series_cap=2))
        with pytest.raises(OverflowError):
            route(400j, EllipticParams(0.2))


def test_theta1_batch_raises_for_the_first_failing_point():
    params = EllipticParams(0.5, series_cap=2)
    with pytest.raises(NonConvergent, match=r"z=\(0\.7\+0\.2j\)"):
        theta1_batch([0j, 0.7 + 0.2j, 400j, 0.9 + 0.1j], params)
    with pytest.raises(OverflowError):
        theta1_batch([0j, 400j, 0.7 + 0.2j], params)
    assert theta1_batch(np.zeros(0), params).shape == (0,)


def test_theta1_batch_hands_only_slow_points_to_theta1(monkeypatch, rng):
    # one chunk of terms converges for weights f(lam) = theta1(i*lam)/2
    # with |Re lam| <= 1; at Re lam near +-6 it does not, and such a point
    # is summed by theta1 once, from its first term
    params = EllipticParams(0.2)
    calls = []
    monkeypatch.setattr(special_fn, "theta1", lambda z, p: calls.append(z) or theta1(z, p))
    near = [1j * complex(rng.uniform(-1, 1), rng.uniform(-2, 2)) for _ in range(200)]
    theta1_batch(near, params)
    assert calls == []
    far = [1j * complex(sign * rng.uniform(5.8, 6.2), rng.uniform(-2, 2))
           for sign in (1, -1) for _ in range(20)]
    zs = near[:50] + far + near[50:]
    batched = theta1_batch(zs, params)
    assert calls == far
    assert _bits(batched) == _bits(theta1_literal(z, params) for z in zs)


def test_theta1_batch_sums_in_bounded_blocks(rng):
    # a batch longer than a block keeps every point's bits, raises for the
    # first failing point when it lies in the second block, and peaks at
    # about one block's transient memory whatever its length
    block = special_fn._BATCH_BLOCK
    assert block >= 1024
    zs = [complex(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(block + 50)]
    assert _bits(theta1_batch(zs, PARAMS)) == _bits(theta1(z, PARAMS) for z in zs)
    params = EllipticParams(0.5, series_cap=2)  # 0j converges within two terms
    zs = [0j] * (block + 10)
    zs[block + 3], zs[block + 7] = 400j, 0.7 + 0.2j
    with pytest.raises(OverflowError):
        theta1_batch(zs, params)
    zs[block + 3], zs[block + 7] = zs[block + 7], zs[block + 3]
    with pytest.raises(NonConvergent, match=r"z=\(0\.7\+0\.2j\)"):
        theta1_batch(zs, params)
    points = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3 * block)])
    theta1_batch(points[:4], PARAMS)  # coefficient tables
    tracemalloc.start()
    try:
        theta1_batch(points, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1200 * block + 16 * points.size


def _bits(values):
    return [np.complex128(v).tobytes() for v in values]

def test_theta1_coefficient_table_is_bounded_and_immutable():
    assert _theta1_coefficients.cache_info().maxsize == 16
    table = _theta1_coefficients(EllipticParams(0.2, series_cap=7))
    assert isinstance(table, tuple) and len(table) == 7
    assert _theta1_coefficient_arrays.cache_info().maxsize == 16
    *arrays, chunk = _theta1_coefficient_arrays(EllipticParams(0.2, series_cap=7))
    assert all(a.shape == (7,) and not a.flags.writeable for a in arrays)
    assert chunk == 10  # |coeff_5| is the first below TERM_TOL * |coeff_0|


def test_f_weight_trig_matches_exponentials():
    lam = 1 + 0.3j
    direct = (cmath.exp(lam) - cmath.exp(-lam)) / 2
    assert abs(f_weight(lam, Regime.trigonometric()) - direct) < 1e-15 * abs(direct)


@settings(max_examples=100, deadline=None)
@given(lam=complex_in_box)
def test_f_weight_odd_both_regimes(lam):
    for regime in (Regime.trigonometric(), Regime.elliptic(0.2)):
        plus = f_weight(lam, regime)
        minus = f_weight(-lam, regime)
        assert abs(plus + minus) <= 1e-12 * max(abs(plus), 1e-30)


def test_f_weight_zero_at_origin():
    assert f_weight(0.0, Regime.trigonometric()) == 0
    assert f_weight(0.0, Regime.elliptic(0.3)) == 0


def test_small_nome_degenerates_to_sinh(rng):
    regime = Regime.elliptic(1e-8)
    d0 = central_difference(lambda z: f_weight(z, regime), 0.0, h=1e-6)
    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        ratio = f_weight(lam, regime) / d0
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
