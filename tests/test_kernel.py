"""The matrix-free monodromy kernel against literal and dense routes."""

import ast
import importlib
import itertools
import pathlib
import pkgutil
import time

import numpy as np
import pytest

import yblab
from yblab import special_fn, yb_core
from yblab.errors import DynamicalPole
from yblab.feq import fx_residual
from yblab.lattice_qty import dwbc_partition, dwbc_partitions, scalar_product_bf
from yblab.residue_int import z_contour
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab.special_fn import f_weights
from yblab.yb_core import (ModelContext, apply_factors, block_words, residual, site_factors,
                           verify_dybe, verify_rll)

from oracles import (blocks_literal, creation_string, f_literal, monodromy_literal,
                     r_matrix_literal, string_literal, vertex_table_literal)


def literal_embedding(lam, theta, ctx, pair, shift_sites, n_sites):
    """Per-basis-state transcription of one dynamical site factor.

    Column ``c`` holds the vertex matrix of ``c``'s weight sector acting
    on the two ``pair`` spins of ``c``, every other spin unchanged.
    """
    dim = 1 << n_sites
    bit = lambda state, site: (state >> (n_sites - 1 - site)) & 1
    i, j = pair
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        w = sum(1 - 2 * bit(col, k) for k in shift_sites) if ctx.is_elliptic else 0
        r = r_matrix_literal(lam, theta - ctx.gamma * w, ctx)
        c_in = 2 * bit(col, i) + bit(col, j)
        for si, sj in itertools.product((0, 1), repeat=2):
            row = col ^ ((bit(col, i) ^ si) << (n_sites - 1 - i)) \
                ^ ((bit(col, j) ^ sj) << (n_sites - 1 - j))
            out[row, col] += r[2 * si + sj, c_in]
    return out


@pytest.mark.parametrize("elliptic", [True, False])
def test_site_factor_matches_literal_embedding(elliptic, rng):
    ctx = random_context(2, rng, elliptic=elliptic)
    theta = sample_theta(ctx, rng, range(-4, 5))
    n_sites = 4
    eye = np.eye(1 << n_sites, dtype=complex)
    for pair in itertools.permutations(range(n_sites), 2):
        rest = [k for k in range(n_sites) if k not in pair]
        for n_shift in range(len(rest) + 1):
            shift = tuple(rest[:n_shift])
            lam = complex(*rng.uniform(-0.5, 0.5, 2))
            kernel = apply_factors(site_factors([(lam, theta, pair, shift)], ctx, n_sites), eye)
            literal = literal_embedding(lam, theta, ctx, pair, shift, n_sites)
            assert np.array_equal(kernel, literal)
    # each spec carries its own theta: two thetas in one call
    specs = [(complex(*rng.uniform(-0.5, 0.5, 2)), theta, (0, 2), (1, 3)),
             (complex(*rng.uniform(-0.5, 0.5, 2)), theta + 0.3 - 0.1j, (3, 1), (2,))]
    for factor, (lam, theta_k, pair, shift) in zip(site_factors(specs, ctx, n_sites), specs):
        literal = literal_embedding(lam, theta_k, ctx, pair, shift, n_sites)
        assert np.array_equal(apply_factors([factor], eye), literal)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("elliptic", [True, False])
def test_monodromy_matches_literal_product(L, elliptic, rng):
    # each one-letter word on the identity is a dense block of the product
    ctx = random_context(L, rng, elliptic=elliptic)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-L - 1, L + 2))
    total = np.eye(1 << (L + 1), dtype=complex)
    for site in range(1, L + 1):
        total = total @ literal_embedding(lam - ctx.mu[site - 1], theta, ctx, (0, site),
                                          range(site + 1, L + 1), L + 1)
    assert residual(monodromy_literal(lam, theta, ctx), total) <= 1e-14
    d = ctx.dim
    word = block_words([(lam, theta)], ctx)
    # the letter T is the chain's factors applied whole, bit for bit, and
    # each block letter its padded quarter
    eye = np.eye(2 * d, dtype=complex)
    full = word([("T", lam, theta)], eye)
    chain = site_factors(yb_core._monodromy(lam, theta, ctx), ctx, L + 1)
    assert full.tobytes() == apply_factors(chain, eye).tobytes()
    assert residual(full, total) <= 1e-14
    for name, (r, c) in zip("ABCD", ((0, 0), (0, d), (d, 0), (d, d))):
        block = word([(name, lam, theta)], np.eye(d))
        assert block.shape == (d, d) and block.flags.c_contiguous
        assert block.tobytes() == full[r:r + d, c:c + d].tobytes()
        assert residual(block, total[r:r + d, c:c + d]) <= 1e-14


def test_only_yb_core_binds_the_factor_route():
    # vertex factors are built and applied in yb_core alone; every other
    # module reaches them through block_words, relation_residual or the checks
    names = ("site_factors", "apply_factors", "_monodromy")
    for info in pkgutil.iter_modules(yblab.__path__):
        module = importlib.import_module(f"yblab.{info.name}")
        bound = [name for name in names if hasattr(module, name)]
        assert bound == (list(names) if info.name == "yb_core" else []), info.name


def test_no_module_calls_numpy_prod():
    # products of a few weights are math.prod's: numpy.prod costs about 15
    # times as much per call, and writes a RuntimeWarning where one overflows
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(yblab.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "prod"
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert calls == []


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("elliptic", [True, False])
def test_dwbc_vector_route_matches_dense(L, elliptic, rng):
    ctx = random_context(L, rng, elliptic=elliptic)
    lams = sample_spectral(ctx, rng, L)
    theta = sample_theta(ctx, rng, range(-L, 2 * L + 2))
    dense = creation_string(lams, theta, ctx)[-1, 0]
    assert abs(dwbc_partition(lams, theta, ctx) - dense) <= 1e-12 * abs(dense)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_scalar_product_vector_route_matches_dense(L, rng):
    ctx = random_context(L, rng, elliptic=False)
    blocks = lambda lam: blocks_literal(lam, 0.0, ctx)
    for n in range(1, L + 1):
        pts = sample_spectral(ctx, rng, 2 * n)
        xb, yc = pts[:n], pts[n:]
        dense = np.eye(ctx.dim, dtype=complex)
        for y in reversed(yc):
            dense = dense @ blocks(y)[2]
        for x in xb:
            dense = dense @ blocks(x)[1]
        value = scalar_product_bf(xb, yc, ctx)
        assert abs(value - dense[0, 0]) <= 1e-12 * abs(dense[0, 0])


@pytest.mark.parametrize("L, elliptic", [(6, False), (5, True)])
def test_brute_force_matches_contour_beyond_dense_range(L, elliptic, rng):
    ctx = random_context(L, rng, elliptic=elliptic)
    lams = sample_spectral(ctx, rng, L, avoid=ctx.mu)
    theta = sample_theta(ctx, rng, range(-1, 2 * L + 3))
    zc = z_contour(lams, theta, ctx)
    zb = dwbc_partition(lams, theta, ctx)
    assert abs(zc - zb) <= 1e-8 * max(abs(zc), abs(zb))


def test_dwbc_swap_symmetry_at_largest_chain(rng):
    ctx = random_context(10, rng, elliptic=False)
    lams = sample_spectral(ctx, rng, 10)
    swapped = (lams[7],) + lams[1:7] + (lams[0],) + lams[8:]
    t0 = time.perf_counter()
    z = dwbc_partition(lams, 0.0, ctx)
    z_swapped = dwbc_partition(swapped, 0.0, ctx)
    assert time.perf_counter() - t0 < 5.0
    assert abs(z - z_swapped) <= 1e-10 * abs(z)


def test_cached_operators_are_read_only(monkeypatch, rng):
    ctx = random_context(2, rng)
    theta = sample_theta(ctx, rng, range(-3, 4))
    specs = yb_core._monodromy(0.3 + 0.1j, theta, ctx, extra_shift=(1,), first=2)
    for factor in site_factors(specs, ctx, ctx.L + 2):
        for array in factor:  # vertex table, partner, column
            with pytest.raises(ValueError):
                array *= 2
    # a shared letter applies views of a block word's per-position table
    # stacks, next to each position's layout, all built once per word
    word = block_words([(0.3 + 0.1j, theta), (-0.2 + 0.1j, theta)], ctx)
    chains = []
    monkeypatch.setattr(yb_core, "apply_factors", lambda chain, x: chains.append(chain) or x)
    word([("B", -0.2 + 0.1j, theta)], np.eye(ctx.dim))
    assert [len(chain) for chain in chains] == [ctx.L]
    for factor in chains[0]:
        for array in factor:  # view of the (keys, 2, m) stack, partner, column
            with pytest.raises(ValueError):
                array *= 2


def test_one_weight_evaluation_per_site_and_sector(monkeypatch, rng):
    ctx = random_context(3, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-4, 5))
    batches = _count_batches(monkeypatch)
    word = block_words([(lam, theta)], ctx)
    # one batch per chain, of the distinct ones of its weight points:
    # f(gamma) once; per weight sector (site i sees L - i + 1 of them) the
    # theta values t, t -+ gamma, then f(lam - mu_i + gamma) and
    # f(lam - mu_i), new in the site's first sector only, then t -+ (lam - mu_i)
    g, points = ctx.gamma, [ctx.gamma]
    for k in range(ctx.L):
        lam_k, n_shift = lam - ctx.mu[k], ctx.L - 1 - k
        for s in range(n_shift + 1):
            t = theta - g * (n_shift - 2 * s)
            points += [t, t - g, t + g] + ([lam_k + g, lam_k] if s == 0 else [])
            points += [t - lam_k, t + lam_k]
    assert len(points) == 1 + 2 * 3 + 5 * (3 + 2 + 1)
    distinct = dict(zip(_bits(points), points)).values()
    assert [_bits(batch) for batch in batches] == [_bits(1j * p for p in distinct)]
    word([("B", lam, theta), ("A", lam, theta)], np.eye(ctx.dim))
    assert len(batches) == 1  # a word evaluates nothing
    block_words([(lam, theta)], ctx)
    assert len(batches) == 2  # every table builds its own chains
    site_factors(yb_core._monodromy(lam, theta, ctx), ctx, ctx.L + 1)
    assert len(batches) == 3 and _bits(batches[2]) == _bits(batches[0])


def _bits(values):
    return [np.complex128(v).tobytes() for v in values]


def _count_batches(monkeypatch):
    """Record the series arguments ``i*lam`` of every theta-series batch."""
    batches, inner = [], special_fn.theta1_batch
    monkeypatch.setattr(special_fn, "theta1_batch",
                        lambda z, params: batches.append(list(z)) or inner(z, params))
    return batches


def test_bulk_build_is_one_batch_of_distinct_weights(monkeypatch, rng):
    ctx = random_context(3, rng)
    lams = sample_spectral(ctx, rng, 3)
    theta = sample_theta(ctx, rng, range(-4, 5))
    with monkeypatch.context() as m:
        # chain by chain: one batch each, f(gamma) in every one of them
        site_factors = yb_core.site_factors
        m.setattr(yb_core, "site_factors", lambda specs, ctx, n_sites: [
            factor for i in range(0, len(specs), ctx.L)
            for factor in site_factors(specs[i:i + ctx.L], ctx, n_sites)])
        alone = _count_batches(m)
        expected = dwbc_partition(lams, theta, ctx)
    assert len(alone) == 3
    batches = _count_batches(monkeypatch)
    assert dwbc_partition(lams, theta, ctx) == expected
    assert len(batches) == 1  # the three chains are built together
    assert _bits(batches[0]) == list(dict.fromkeys(b for batch in alone for b in _bits(batch)))
    # nothing is kept from one call to the next
    assert dwbc_partition(lams, theta, ctx) == expected and len(batches) == 2
    assert _bits(batches[1]) == _bits(batches[0])


def test_bulk_weights_keep_signed_zeros_apart(monkeypatch, rng):
    ctx = random_context(1, rng)
    points = [0j, complex(-0.0, 0.0), 0.5 + 0j, 0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
    batches = _count_batches(monkeypatch)
    values = f_weights(points, ctx.regime)
    distinct = [0j, complex(-0.0, 0.0), 0.5 + 0j, complex(0.0, -0.0)]
    assert batches == [[1j * p for p in distinct]]
    assert _bits(batches[0]) == _bits(1j * p for p in distinct)
    assert _bits(values) == _bits(f_literal(p, ctx.regime) for p in points)


def test_fx_residual_sample_is_one_batch(monkeypatch, rng):
    ctx = random_context(3, rng)
    pts = sample_spectral(ctx, rng, 4)
    theta = sample_theta(ctx, rng, range(-8, 9))
    batches = _count_batches(monkeypatch)
    fx_residual(pts[0], pts[1:], theta, ctx, dwbc_partitions)
    # one for the coefficients, one for the chains of all L + 2 sets
    assert len(batches) == 2


@pytest.mark.parametrize("L", [2, 3, 4])
def test_fx_residual_sample_applies_one_word(monkeypatch, rng, L):
    # the L + 2 partition functions are the columns of one word: L letters, not L(L + 2)
    ctx = random_context(L, rng)
    pts = sample_spectral(ctx, rng, L + 1)
    theta = sample_theta(ctx, rng, range(-8, 9))
    applied, inner = [], yb_core.apply_factors
    monkeypatch.setattr(yb_core, "apply_factors",
                        lambda factors, x: applied.append(x.shape) or inner(factors, x))
    assert fx_residual(pts[0], pts[1:], theta, ctx, dwbc_partitions) <= 1e-9
    assert applied == [(2 * ctx.dim, L + 2)] * L


@pytest.mark.parametrize("L", [2, 3, 4])
def test_rll_sample_is_one_batch(monkeypatch, rng, L):
    # the four chains and the R pair from one batch
    ctx = random_context(L, rng)
    l1, l2 = sample_spectral(ctx, rng, 2)
    theta = sample_theta(ctx, rng, range(-L - 1, L + 2))
    batches = _count_batches(monkeypatch)
    assert verify_rll(l1, l2, theta, ctx) <= 1e-9
    assert len(batches) == 1


def test_block_words_build_each_listed_key_once(monkeypatch, rng):
    # repeated keys are built once, and a word reads only the keys listed;
    # trigonometric chains ignore theta, so a letter at any theta reads
    # the key built at theta = 0
    ell, trig = random_context(2, rng), random_context(2, rng, elliptic=False)
    lam, other = sample_spectral(ell, rng, 2)
    built, site_factors = [], yb_core.site_factors
    monkeypatch.setattr(yb_core, "site_factors", lambda specs, ctx, n_sites:
                        built.append(specs) or site_factors(specs, ctx, n_sites))
    eye = np.eye(4, dtype=complex)
    word = block_words([(lam, 0.5), (lam, 0.5 + 0j), (other, 0.5), (lam, 0.5)], ell)
    assert built == [yb_core._monodromy(lam, 0.5, ell) + yb_core._monodromy(other, 0.5, ell)]
    assert np.array_equal(word([("A", lam, 0.5 + 0j)], eye), word([("A", lam, 0.5)], eye))
    for letter in (("A", lam, 0.4), ("B", other, 0.0), ("C", lam + 0.1, 0.5)):
        with pytest.raises(KeyError):
            word([letter], eye)
    built.clear()
    word = block_words([(lam, 0.5), (lam, -0.3)], trig)
    assert built == [yb_core._monodromy(lam, 0j, trig)]
    alone = block_words([(lam, 0.0)], trig)([("B", lam, 0.0)], eye)
    for theta in (0.5, -0.3, 1.7):
        assert np.array_equal(word([("B", lam, theta)], eye), alone)
    with pytest.raises(KeyError):
        word([("B", other, 0.5)], eye)


@pytest.mark.parametrize("elliptic", [True, False], ids=["elliptic", "trig"])
def test_block_words_of_no_keys(elliptic, rng):
    # no key stacks no table: the empty word returns the columns, and a
    # letter of either kind reads a key that was not listed
    ctx = random_context(2, rng, elliptic=elliptic)
    word = block_words([], ctx)
    cols = rng.standard_normal((ctx.dim, 3)) + 1j * rng.standard_normal((ctx.dim, 3))
    assert np.array_equal(word([], cols), cols)
    for letter in (("A", 0.1, 0.2), ("B", (0.1, 0.2, 0.3), (0.2, 0.2, 0.2))):
        with pytest.raises(KeyError):
            word([letter], cols)


def _refuse_batch(points, regime):
    raise ArithmeticError("batch refused")


def test_batched_tables_bit_identical_to_scalar_route(rng):
    ctx = random_context(4, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-5, 6))
    for extra in ((), (1,)):
        specs = yb_core._monodromy(lam, theta, ctx, extra_shift=extra, first=2)
        for k, (table, _, _) in enumerate(site_factors(specs, ctx, ctx.L + 2)):
            literal = vertex_table_literal(lam - ctx.mu[k], theta, len(extra) + ctx.L - 1 - k, ctx)
            assert table.tobytes() == literal.tobytes() and not table.flags.writeable


@pytest.mark.parametrize("elliptic", [True, False])
def test_site_factor_tables_match_literal_tables(elliptic, rng):
    # every table of one site_factors call has the bits of the per-sector
    # literal matrices at its own spec's theta; trigonometric tables have
    # one sector
    ctx = random_context(2, rng, elliptic=elliptic)
    thetas = [sample_theta(ctx, rng, range(-4, 5)) for _ in range(3)]
    specs = [(lam, theta, (0, 1), tuple(range(2, 2 + n_shift)))
             for lam, theta in zip(sample_spectral(ctx, rng, 3), thetas) for n_shift in range(4)]
    literal = [vertex_table_literal(lam, theta, len(shift) if elliptic else 0, ctx)
               for lam, theta, _, shift in specs]
    tables = [table for table, _, _ in site_factors(specs, ctx, 5)]
    assert len(tables) == len(literal)
    for table, expected in zip(tables, literal):
        assert table.shape == expected.shape
        assert table.tobytes() == expected.tobytes() and not table.flags.writeable


def _literal_chain_error(lam, theta, ctx):
    """The first error of the literal tables of a monodromy chain, site 1 first."""
    for k in range(ctx.L):
        try:
            vertex_table_literal(lam - ctx.mu[k], theta, ctx.L - 1 - k, ctx)
        except DynamicalPole as exc:
            return DynamicalPole, f"sites (0, {k + 1}), {exc}"
        except ArithmeticError as exc:
            return type(exc), str(exc)
    return None


def test_first_pole_is_named_by_site_and_sector(monkeypatch, rng):
    ctx = random_context(3, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    two = ModelContext(2, ctx.gamma, ctx.mu[:2], ctx.regime)
    cases = [
        # theta = gamma puts sector w = +1 of site 2 (two sites after it)
        # on f(0) = 0; sites 1 and 3 see only even weights
        (lam, ctx.gamma, ctx, DynamicalPole,
         r"^sites \(0, 2\), weight sector \+1: f\(theta\) ~ 0 at theta = 0j$"),
        # f(t - lam) of site 1's first sector overflows, f(lam + gamma)
        # and f(lam) do not; the pole of its second sector comes after it
        (18.6 + 0.05j + ctx.mu[0], -ctx.gamma, two, OverflowError, None),
    ]
    for lam_k, theta, model, error, message in cases:
        with pytest.raises(error, match=message) as info:
            block_words([(lam_k, theta)], model)
        assert (type(info.value), str(info.value)) == _literal_chain_error(lam_k, theta, model)
    g = ctx.gamma
    # any factor is named by its own pair of sites, the first in spec order
    with pytest.raises(DynamicalPole, match=r"^sites \(1, 2\), weight sector \+1: f\(theta\) ~ 0"):
        site_factors([(lam, g, (0, 1), ()), (lam, g, (1, 2), (0,))], ctx, 3)
    # a pole of a later chain is named by its sites within that chain
    with pytest.raises(DynamicalPole, match=r"^sites \(0, 2\), weight sector \+1: f\(theta\) ~ 0"):
        block_words([(lam, 0.5), (lam, g)], ctx)
    # dybe at theta = 0 is RLL on a one-site chain: RLL's first factor, the
    # unshifted chain factor of l1 on sites (0, 2), has weight sector 0
    with pytest.raises(DynamicalPole,
                       match=r"^sites \(0, 2\), weight sector \+0: f\(theta\) ~ 0 at theta = 0j$"):
        verify_dybe(*sample_spectral(ctx, rng, 3), 0.0, ctx)
    # the RLL R pair, shifted by the chain sites 2..4 and plain
    l1, l2 = sample_spectral(ctx, rng, 2)
    with pytest.raises(DynamicalPole, match=r"^sites \(0, 1\), weight sector \+1: f\(theta\) ~ 0"):
        site_factors([(l1 - l2, g, (0, 1), (2, 3, 4)), (l1 - l2, g, (0, 1), ())], ctx, 5)

    # a weight error is raised by the batch, before any table is built:
    # f(lam + gamma) overflows, though the literal tables meet the pole of
    # site 1's first sector before it
    assert _literal_chain_error(300 + 0.1j, 2 * ctx.gamma, ctx)[0] is DynamicalPole
    with pytest.raises(OverflowError):
        block_words([(300 + 0.1j, 2 * ctx.gamma)], ctx)
    with monkeypatch.context() as m:
        m.setattr(yb_core, "f_weights", _refuse_batch)
        with pytest.raises(ArithmeticError, match="^batch refused$"):
            block_words([(lam, 0.5)], ctx)
    # so in verify_rll an R-pair weight error comes before a chain pole:
    # at theta = 3*gamma the chain of (l2, theta) shifted by site 0 meets
    # f(0), and f(l1 - l2 + gamma) overflows, though no chain weight does
    far = (10 + 0.05j, -10 + 0.05j)
    with pytest.raises(DynamicalPole, match=r"^sites \(1, 2\), weight sector \+3: "):
        site_factors(yb_core._monodromy(far[1], 3 * g, ctx, 1, (0,), first=2), ctx, 5)
    with pytest.raises(OverflowError):
        verify_rll(*far, 3 * g, ctx)

    # a bulk build raises the first pole in spec order, the one of that
    # chain built alone; the chains listed before it build
    lams = sample_spectral(ctx, rng, 3)
    l1, l2 = lams[0], lams[1]
    rll_chain = lambda lam, aux, extra: lambda: site_factors(
        yb_core._monodromy(lam, 3 * g, ctx, aux, extra, first=2), ctx, ctx.L + 2)
    bulk_cases = [
        # theta = 0: slot 3 (theta + 3*gamma) builds, slot 2 meets f(0) in
        # chain site 1, sector +2
        (lambda: dwbc_partition(lams, 0.0, ctx), lambda: block_words([(lams[2], 3 * g)], ctx),
         lambda: block_words([(lams[1], 2 * g)], ctx), "sites (0, 1)"),
        # theta = 3*gamma: the chain of l1 on site 0 builds, the chain of l2
        # on site 1, shifted by site 0, meets f(0) in chain site 2, sector
        # +3, before the R pair is reached
        (lambda: verify_rll(l1, l2, 3 * g, ctx), rll_chain(l1, 0, ()), rll_chain(l2, 1, (0,)),
         "sites (1, 2)"),
    ]
    for operation, built, stopped, sites in bulk_cases:
        with pytest.raises(DynamicalPole) as bulk:
            operation()
        with pytest.raises(DynamicalPole) as alone:
            stopped()
        assert str(bulk.value) == str(alone.value)
        assert str(bulk.value).startswith(sites + ", weight sector ")
        built()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("elliptic", [True, False], ids=["elliptic", "trig"])
def test_block_word_matches_literal_string(elliptic, L, seed):
    # a random word of 1-4 letters over A, B, C and D, each letter at its
    # own (lam, theta), against the ordered product of literal dense blocks
    rng = np.random.default_rng([L, seed, elliptic])
    ctx = random_context(L, rng, elliptic=elliptic)
    n = int(rng.integers(1, 5))
    lams = sample_spectral(ctx, rng, n)
    thetas = [sample_theta(ctx, rng, range(-L - 2, L + 3)) for _ in range(n)]
    letters = [("ABCD"[k], lam, theta)
               for k, lam, theta in zip(rng.integers(0, 4, n), lams, thetas)]
    word = block_words([(lam, theta) for _, lam, theta in letters], ctx)
    literal = string_literal([blocks_literal(lam, theta, ctx)["ABCD".index(block)]
                              for block, lam, theta in letters])
    eye = np.eye(ctx.dim, dtype=complex)
    assert residual(word(letters, eye), literal) <= 1e-12
    # columns never mix: the word on a few chain vectors is the product on them
    cols = rng.standard_normal((ctx.dim, 3)) + 1j * rng.standard_normal((ctx.dim, 3))
    assert residual(word(letters, cols), literal @ cols) <= 1e-12
    assert residual(word(letters, cols[:, 0]), literal @ cols[:, 0]) <= 1e-12


@pytest.mark.parametrize("L,K", [(L, K) for L in (1, 2, 3, 4, 6) for K in (1, 5)]
                         + [(8, 32), (5, 300)])
@pytest.mark.parametrize("elliptic", [True, False], ids=["elliptic", "trig"])
def test_column_word_matches_columns_alone(elliptic, L, K):
    # a word of 1-4 letters, each reading one key per column or one shared
    # key, against the same letters applied to each column alone, bit for bit;
    # the last two cases pass 256 KB per array, where numpy may elide a temporary
    rng = np.random.default_rng([L, K, elliptic])
    ctx = random_context(L, rng, elliptic=elliptic)
    n = int(rng.integers(1, 5))
    spread = [True] + list(rng.integers(0, 2, n - 1).astype(bool))
    keys = [[(lam, sample_theta(ctx, rng, range(-L - 2, L + 3)))
             for lam in sample_spectral(ctx, rng, K if per else 1)] for per in spread]
    blocks = ["ABCD"[k] for k in rng.integers(0, 4, n)]
    word = block_words([k for per in keys for k in per], ctx)
    letters = [(block, *zip(*per)) if spread[i] else (block, *per[0])
               for i, (block, per) in enumerate(zip(blocks, keys))]
    cols = rng.standard_normal((ctx.dim, K)) + 1j * rng.standard_normal((ctx.dim, K))
    together = word(letters, cols)
    for k in range(K):
        alone = word([(block, *per[k if spread[i] else 0])
                      for i, (block, per) in enumerate(zip(blocks, keys))], cols[:, k])
        assert _bits(together[:, k]) == _bits(alone)


def test_block_words_raise_before_any_letter(monkeypatch, rng):
    # a pole or a weight error comes from the table, which applies nothing
    ctx = random_context(3, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    applied = []
    monkeypatch.setattr(yb_core, "apply_factors", lambda *args: applied.append(args))
    with pytest.raises(DynamicalPole, match=r"^sites \(0, 2\), weight sector \+1: f\(theta\) ~ 0"):
        block_words([(lam, 0.5), (lam, ctx.gamma)], ctx)
    with pytest.raises(OverflowError):
        block_words([(lam, 0.5), (300 + 0.1j, 2 * ctx.gamma)], ctx)
    assert applied == []
