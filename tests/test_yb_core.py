import numpy as np
import pytest

from yblab.errors import DynamicalPole, NonFinite
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab.special_fn import Regime
from yblab.lattice_qty import dwbc_partition, hw_action_residuals
from yblab import feq, yb_core
from yblab.yb_core import (ABS_FLOOR, ModelContext, block_words, r_matrix, rel_diff,
                           relation_residual, residual, term_residual, verify_dybe, verify_rll)

from oracles import f_literal, r_matrix_literal

H = np.diag([1.0, -1.0])


def test_residual_metric():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = a + 1e-12
    assert residual(a, b) == pytest.approx(1e-12, rel=1e-3)
    zero = np.zeros((2, 2))
    assert residual(zero, zero) == 0.0  # the fixed floor keeps 0/0 away


def _scalars(rng, n):
    """Complex scalars at magnitudes 1e-200 to 1e200, Python and numpy, with exact zeros."""
    scale = 10.0 ** rng.uniform(-200, 200, n)
    values = [complex(re * s, im * s) for re, im, s
              in zip(rng.standard_normal(n), rng.standard_normal(n), scale)]
    values += [0j, complex(0.0, 1e-200), complex(3e150, 0.0), -0.0j]
    return values + [np.complex128(v) for v in values[:n // 4]]


def test_rel_diff_is_the_literal_scalar_formula(rng):
    # the helper replaced inline copies, so it must keep their bits exactly
    values = _scalars(rng, 400)
    pairs = [(a, b) for a, b in zip(values, reversed(values))]
    pairs += [(a, a * complex(1 + 1e-9 * rng.standard_normal(), 1e-9)) for a in values]
    pairs += [(0j, 0j), (0.0, 0j), (values[0], 0j)]
    for a, b in pairs:
        literal = repr(float(abs(a - b) / max(abs(a), abs(b), ABS_FLOOR)))
        assert repr(rel_diff(a, b)) == literal
        assert repr(rel_diff(b, a)) == literal
    assert rel_diff(0j, 0j) == 0.0


def test_term_residual_is_the_literal_term_formula(rng):
    # each term is the coefficient times the value, in that order
    values = _scalars(rng, 400)
    coeffs = [complex(*z) for z in rng.standard_normal((len(values), 2))]
    coeffs = coeffs[::2] + [np.complex128(c) for c in coeffs[1::2]]
    cases = [(coeffs[k:k + m], values[k:k + m])
             for m in range(1, 7) for k in range(0, len(values) - m, 11)]
    cases += [((c, c), (t, -t)) for c, t in zip(coeffs, values)]
    cases += [((1, 1), (0j, 0j)), ((), ()), ((2j, 1, 2j), (values[3], 0j, -values[3]))]
    for cs, vs in cases:
        terms = [c * v for c, v in zip(cs, vs)]
        literal = float(abs(sum(terms)) / (sum(abs(t) for t in terms) + ABS_FLOOR))
        assert repr(term_residual(cs, vs)) == repr(literal)
    assert term_residual((0.5, -0.5), (1 + 0j, 1 + 0j)) == 0.0
    with pytest.raises(ValueError):
        term_residual((1.0, 2.0), (1j,))


def _matrices(ops, x):
    """A word of dense matrices: the last one in ``ops`` acts first."""
    for m in reversed(ops):
        x = m @ x
    return x


def test_relation_residual_is_the_literal_relation(rng):
    m, n, p = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
    c = complex(*rng.standard_normal(2))
    eye = np.eye(4, dtype=complex)
    # a bare term is not multiplied, and the outer ops act once on the summed terms
    assert repr(relation_residual(_matrices, ((), [(None, [p, m]), (c, [p, n])]),
                                  ([p], [(None, [m]), (c, [n])]), 4)) \
        == repr(residual(p @ (m @ eye) + c * (p @ (n @ eye)), p @ (m @ eye + c * (n @ eye))))
    # sides that differ by the factor 3/2: the residual is (3/2 - 1) / (3/2)
    assert relation_residual(_matrices, ((), [(None, [m, n])]),
                             ((), [(2.0, [m, n]), (-0.5, [m, n])]), 4) \
        == pytest.approx(1 / 3, rel=1e-15)
    assert relation_residual(_matrices, ((), [(None, [m])]), ((), [(c, [m]), (-c, [m])]), 4) \
        == 1.0


@pytest.mark.parametrize("elliptic", [True, False])
def test_a_side_of_per_column_values_on_the_empty_word_is_the_diagonal(elliptic, rng):
    # ((), [(values, [])]) scales identity column k by values[k]: the diagonal
    # operator a central element (the quantum determinant) is compared against
    ctx = random_context(3, rng, elliptic=elliptic)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-3, 4))
    word = block_words([(lam, theta)], ctx)
    values = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    letters = [("A", lam, theta)]
    assert repr(relation_residual(word, ((), [(None, letters)]), ((), [(values, [])]), ctx.dim)) \
        == repr(residual(word(letters, np.eye(ctx.dim, dtype=complex)), np.diag(values)))


@pytest.mark.parametrize("elliptic", [True, False])
def test_a_word_of_joined_letters_is_the_nested_word(elliptic, rng):
    # the tay and tdy relations append the creation string to each left term
    ctx = random_context(3, rng, elliptic=elliptic)
    lams = sample_spectral(ctx, rng, 4)
    theta = sample_theta(ctx, rng, range(-3, 4))
    word = block_words([(lam, theta + k * ctx.gamma) for lam in lams for k in range(3)], ctx)
    outer = [("D", lams[0], theta), ("C", lams[1], theta + ctx.gamma), ("C", lams[2], theta)]
    inner = [("B", lams[3], theta + 2 * ctx.gamma), ("A", lams[1], theta), ("B", lams[2], theta)]
    for cols in (np.eye(ctx.dim), rng.standard_normal((ctx.dim, 5))):
        assert np.array_equal(word(outer, word(inner, cols)), word(outer + inner, cols),
                              equal_nan=True)


def test_every_operator_relation_ends_in_relation_residual(monkeypatch, rng):
    # the one place where the relations meet their columns, so a probe or a
    # mutation set there reaches every operator check
    calls = []
    def counted(apply, lhs, rhs, dim):
        calls.append(dim)
        return relation_residual(apply, lhs, rhs, dim)
    monkeypatch.setattr(yb_core, "relation_residual", counted)
    monkeypatch.setattr(feq, "relation_residual", counted)
    ell, trig = random_context(2, rng), random_context(2, rng, elliptic=False)
    l0, l1, l2, l3, l4 = sample_spectral(ell, rng, 5)
    theta = sample_theta(ell, rng, range(-2, 3))
    verify_dybe(l1, l2, l3, theta, ell)
    verify_rll(l1, l2, theta, ell)
    feq.verify_bb(l1, l2, theta, ell)
    feq.verify_abn(l0, (l1, l2), theta, ell)
    feq.verify_ab(l1, l2, trig)
    feq.verify_tay(l0, (l1, l2), (l3, l4), trig)
    feq.verify_tdy(l0, (l1, l2), (l3, l4), trig)
    assert calls == [8, 16, 4, 4, 4, 4, 4, 4]


def test_context_validation():
    with pytest.raises(ValueError):
        ModelContext(2, 0.5, (0.1,), Regime.trigonometric())  # len(mu) != L
    with pytest.raises(ValueError):
        ModelContext(2, 0.0, (0.1, 0.2), Regime.trigonometric())  # gamma = 0
    with pytest.raises(ValueError):
        ModelContext(11, 0.5, (0.1,) * 11, Regime.trigonometric())  # over the cap


def test_r_matrix_gamma_zero_is_scalar(rng):
    # a context refuses gamma = 0, so the field is set past that check
    ctx = ModelContext(1, 0.5, (0.0,), Regime.elliptic(0.2))
    object.__setattr__(ctx, "gamma", 0j)
    lam, theta = 0.3 + 0.1j, 0.8 - 0.05j
    r = r_matrix(lam, theta, ctx)
    expected = f_literal(lam, ctx.regime) * np.eye(4)
    assert np.max(np.abs(r - expected)) < 1e-12 * np.max(np.abs(r))


def test_r_matrix_weight_zero_condition(rng):
    ctx = random_context(1, rng)
    total_h = np.kron(H, np.eye(2)) + np.kron(np.eye(2), H)
    for _ in range(10):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
        theta = sample_theta(ctx, rng)
        r = r_matrix(lam, theta, ctx)
        comm = r @ total_h - total_h @ r
        assert np.max(np.abs(comm)) < 1e-13 * np.max(np.abs(r))


def test_r_matrix_trig_at_zero_spectral():
    import cmath
    ctx = random_context(2, np.random.default_rng(0), elliptic=False)
    r = r_matrix(0.0, 0.0, ctx)
    sg = cmath.sinh(ctx.gamma)
    expected = np.array([[sg, 0, 0, 0],
                         [0, 0, sg, 0],
                         [0, sg, 0, 0],
                         [0, 0, 0, sg]])
    assert np.max(np.abs(r - expected)) == 0


def test_r_matrix_dynamical_pole():
    ctx = random_context(1, np.random.default_rng(1))
    with pytest.raises(DynamicalPole, match=r"^sites \(0, 1\), weight sector \+0: f\(theta\) ~ 0"):
        r_matrix(0.3, 0.0, ctx)  # f(0) = 0


@pytest.mark.parametrize("elliptic", [True, False])
def test_r_matrix_is_the_literal_matrix(elliptic, rng):
    ctx = random_context(1, rng, elliptic=elliptic)
    for _ in range(10):
        lam = sample_spectral(ctx, rng, 1)[0]
        theta = sample_theta(ctx, rng, range(-3, 4))
        r = r_matrix(lam, theta, ctx)
        assert r.tobytes() == r_matrix_literal(lam, theta, ctx).tobytes()
        assert r.flags.writeable


@pytest.mark.parametrize("elliptic,tol", [(True, 1e-10), (False, 1e-12)])
def test_dybe_random_points(elliptic, tol, rng):
    # trigonometric shifts are inert: ordinary Yang-Baxter, tighter bound
    ctx = random_context(1, rng, elliptic=elliptic)
    for _ in range(10):
        l1, l2, l3 = sample_spectral(ctx, rng, 3)
        theta = sample_theta(ctx, rng, range(-2, 3))
        assert verify_dybe(l1, l2, l3, theta, ctx) <= tol


def test_dybe_coincident_points(rng):
    ctx = random_context(1, rng)
    lam = 0.4 + 0.1j
    theta = sample_theta(ctx, rng, range(-2, 3))
    assert verify_dybe(lam, lam, -0.3 + 0.2j, theta, ctx) <= 1e-10


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("elliptic", [True, False])
def test_rll_random_points(L, elliptic, rng):
    ctx = random_context(L, rng, elliptic=elliptic)
    for _ in range(3):
        l1, l2 = sample_spectral(ctx, rng, 2)
        theta = sample_theta(ctx, rng, range(-(L + 1), L + 2))
        assert verify_rll(l1, l2, theta, ctx) <= 1e-9


def test_rll_coincident(rng):
    ctx = random_context(2, rng)
    lam = 0.2 - 0.1j
    theta = sample_theta(ctx, rng, range(-3, 4))
    assert verify_rll(lam, lam, theta, ctx) <= 1e-9


def _blocks(lam, theta, ctx):
    """The four one-letter block words on the identity: the dense blocks A, B, C, D."""
    word = block_words([(lam, theta)], ctx)
    return [word([(block, lam, theta)], np.eye(ctx.dim)) for block in "ABCD"]


def test_monodromy_single_site_creation_entry(rng):
    # L = 1: the creation block has a single nonzero entry, the c_+ weight
    ctx = random_context(1, rng)
    f = lambda z: f_literal(z, ctx.regime)
    lam = 0.37 + 0.21j
    theta = sample_theta(ctx, rng, range(-2, 3))
    b = _blocks(lam, theta, ctx)[1]
    expected = f(ctx.gamma) * f(theta - (lam - ctx.mu[0])) / f(theta)
    assert abs(b[1, 0] - expected) < 1e-14 * abs(expected)
    assert b[0, 0] == b[0, 1] == b[1, 1] == 0


def test_monodromy_trig_diagonal_action(rng):
    ctx = random_context(3, rng, elliptic=False)
    lam = 0.52 - 0.13j
    a_block = _blocks(lam, 0.0, ctx)[0]
    up = np.zeros(ctx.dim, dtype=complex)
    up[0] = 1.0
    eig = np.prod([np.sinh(lam - m + ctx.gamma) for m in ctx.mu])
    assert np.max(np.abs(a_block @ up - eig * up)) < 1e-14 * abs(eig)


def test_monodromy_weight_grading(rng):
    # A, D preserve total weight; B lowers by 2; C raises by 2 -- exactly
    ctx = random_context(3, rng)
    lam = 0.11 + 0.08j
    theta = sample_theta(ctx, rng, range(-4, 5))
    blocks = _blocks(lam, theta, ctx)
    weights = np.array([ctx.L - 2 * bin(s).count("1") for s in range(ctx.dim)])
    delta = np.subtract.outer(weights, weights)  # w(row) - w(col)
    for block, shift in zip(blocks, (0, -2, 2, 0)):
        off = block[delta != shift]
        assert np.max(np.abs(off)) < 1e-14


def test_non_finite_block_words_are_errors():
    # four site weights near sinh(200) ~ 3.6e86 overflow their product
    ctx = ModelContext(4, 200.0, (0.1, -0.2, 0.3j, -0.1j), Regime.trigonometric())
    with np.errstate(over="ignore", invalid="ignore"):
        # a word leaves overflow to its caller, so a vector route returns
        # its non-finite value and the command line reports it
        word = block_words([(0.3, 0.0)], ctx)
        assert not np.isfinite(word([("A", 0.3, 0.0)], np.eye(ctx.dim))).all()
        assert not np.isfinite(dwbc_partition((0.3, 0.1, -0.2, 0.4j), 0.0, ctx))
        # the extremal-state check raises: its annihilation ratios against a
        # non-finite block could read 0
        with pytest.raises(NonFinite, match="^chain operator has non-finite entries$"):
            hw_action_residuals(0.3, 0.0, ctx)
