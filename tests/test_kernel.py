"""The matrix-free monodromy kernel against literal and dense routes."""

import itertools
import time

import numpy as np
import pytest

from yblab import feq, lattice_qty, yb_core
from yblab.errors import DynamicalPole
from yblab.feq import fx_residual
from yblab.lattice_qty import dwbc_partition, dwbc_partitions, scalar_product_bf
from yblab.residue_int import z_contour
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab.special_fn import f_weight, f_weights
from yblab.yb_core import (ModelContext, apply_block, apply_factors, monodromy_blocks,
                           residual, site_factors, verify_rll)

from oracles import creation_string, r_matrix_literal, vertex_table_literal


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
    for pair in itertools.permutations(range(n_sites), 2):
        rest = [k for k in range(n_sites) if k not in pair]
        for n_shift in range(len(rest) + 1):
            shift = tuple(rest[:n_shift])
            lam = complex(*rng.uniform(-0.5, 0.5, 2))
            kernel = apply_factors(np.eye(1 << n_sites, dtype=complex),
                                   site_factors([(lam, pair, shift)], theta, ctx, n_sites))
            literal = literal_embedding(lam, theta, ctx, pair, shift, n_sites)
            assert np.array_equal(kernel, literal)


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("elliptic", [True, False])
def test_monodromy_matches_literal_product(L, elliptic, rng):
    ctx = random_context(L, rng, elliptic=elliptic)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-L - 1, L + 2))
    total = np.eye(1 << (L + 1), dtype=complex)
    for site in range(1, L + 1):
        total = total @ literal_embedding(lam - ctx.mu[site - 1], theta, ctx, (0, site),
                                          range(site + 1, L + 1), L + 1)
    d = ctx.dim
    for block, (r, c) in zip(monodromy_blocks(lam, theta, ctx),
                             ((0, 0), (0, d), (d, 0), (d, d))):
        assert residual(block, total[r:r + d, c:c + d]) <= 1e-14
    for name, (r, c) in zip("ABCD", ((0, 0), (0, d), (d, 0), (d, d))):
        assert residual(apply_block(name, lam, theta, ctx, np.eye(d)),
                        total[r:r + d, c:c + d]) <= 1e-14


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
    blocks = lambda lam: monodromy_blocks(lam, 0.0, ctx)
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


def test_cached_operators_are_read_only(rng):
    ctx = random_context(2, rng)
    theta = sample_theta(ctx, rng, range(-3, 4))
    blocks = monodromy_blocks(0.3 + 0.1j, theta, ctx)
    for block in blocks:
        assert type(block) is np.ndarray and block.shape == (ctx.dim, ctx.dim)
        assert block.flags.c_contiguous and not block.flags.writeable
    with pytest.raises(ValueError):
        blocks[1][1, 0] = 0.0
    for table in yb_core.build_chains((), ctx)(0.3 + 0.1j, theta, 1):
        with pytest.raises(ValueError):
            table *= 2


def test_one_weight_evaluation_per_site_and_sector(monkeypatch, rng):
    batches, scalar = [], []
    ctx = random_context(3, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-4, 5))
    monkeypatch.setattr(yb_core, "f_weights",
                        lambda points, params: batches.append(points)
                        or f_weights(points, params))
    monkeypatch.setattr(yb_core, "f_weight",
                        lambda *args: scalar.append(args) or f_weight(*args))
    monodromy_blocks(lam, theta, ctx)
    # one batch per chain: f(gamma) once, f(lam - mu_i + gamma) and
    # f(lam - mu_i) per site, five theta values per weight sector (site i
    # sees L - i + 1 sectors)
    assert [len(points) for points in batches] == [1 + 2 * 3 + 5 * (3 + 2 + 1)]
    apply_block("B", lam, theta, ctx, np.eye(ctx.dim))
    assert len(batches) == 2  # every public call builds its own chain
    chains = yb_core.build_chains((), ctx)
    tables = chains(lam, theta, 0)
    assert chains(lam, theta, 0) is tables and chains(complex(lam), theta, 0) is tables
    assert len(batches) == 3 and not scalar  # a kept chain evaluates nothing


def _bits(values):
    return [np.complex128(v).tobytes() for v in values]


def _count_batches(monkeypatch):
    """Record the points of every batch, then hand them to the ``f_weights`` in place."""
    batches, inner = [], yb_core.f_weights
    monkeypatch.setattr(yb_core, "f_weights",
                        lambda points, params: batches.append(points) or inner(points, params))
    return batches


def _skip_bulk_build(monkeypatch):
    build_chains = yb_core.build_chains
    for module in (yb_core, lattice_qty, feq):
        monkeypatch.setattr(module, "build_chains", lambda keys, ctx: build_chains((), ctx))


def _spy_bulk_build(monkeypatch):
    """Keep every lookup the operations build, the last one last."""
    lookups, build_chains = [], yb_core.build_chains
    for module in (yb_core, lattice_qty, feq):
        monkeypatch.setattr(module, "build_chains",
                            lambda keys, ctx: lookups.append(build_chains(keys, ctx))
                            or lookups[-1])
    return lookups


def test_bulk_build_is_one_batch_of_distinct_weights(monkeypatch, rng):
    ctx = random_context(3, rng)
    lams = sample_spectral(ctx, rng, 3)
    theta = sample_theta(ctx, rng, range(-4, 5))
    with monkeypatch.context() as m:
        # chain by chain: one batch each, f(gamma) in every one of them
        _skip_bulk_build(m)
        lazy = _count_batches(m)
        expected = dwbc_partition(lams, theta, ctx)
    assert len(lazy) == 3
    batches = _count_batches(monkeypatch)
    assert dwbc_partition(lams, theta, ctx) == expected
    assert len(batches) == 1  # the three lookups find the chains built
    assert _bits(batches[0]) == list(dict.fromkeys(b for batch in lazy for b in _bits(batch)))
    # nothing is kept from one call to the next
    assert dwbc_partition(lams, theta, ctx) == expected and len(batches) == 2
    assert _bits(batches[1]) == _bits(batches[0])


def test_bulk_weights_keep_signed_zeros_apart(monkeypatch, rng):
    ctx = random_context(1, rng)
    points = [0j, complex(-0.0, 0.0), 0.5 + 0j, 0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
    batches = _count_batches(monkeypatch)
    values = list(yb_core._weights_by_bits(points, ctx.regime.params))
    assert _bits(batches[0]) == _bits([0j, complex(-0.0, 0.0), 0.5 + 0j, complex(0.0, -0.0)])
    assert _bits(values) == _bits(f_weight(p, ctx.regime) for p in points)


def test_fx_residual_sample_is_one_batch(monkeypatch, rng):
    ctx = random_context(3, rng)
    pts = sample_spectral(ctx, rng, 4)
    theta = sample_theta(ctx, rng, range(-8, 9))
    batches = _count_batches(monkeypatch)
    fx_residual(pts[0], pts[1:], theta, ctx, lambda sets: dwbc_partitions(sets, ctx))
    assert len(batches) == 1


def test_chain_lookup_keeps_what_it_builds(rng):
    # a lookup builds a missing chain and returns it again; trigonometric
    # chains ignore theta and the shift, so one serves them all
    ell, trig = random_context(2, rng), random_context(2, rng, elliptic=False)
    lam = sample_spectral(ell, rng, 1)[0]
    chains = yb_core.build_chains([(lam, 0.5, 0)], ell)
    assert chains(lam, 0.5 + 0j, 0) is chains(lam, 0.5, 0)
    assert chains(lam, 0.5, 1) is not chains(lam, 0.5, 0)
    chains = yb_core.build_chains([(lam, 0.5, 1)], trig)
    assert chains(lam, 0.5, 1) is chains(lam, -0.3, 0)
    assert yb_core.build_chains((), trig)(lam, 0.0, 0) is not chains(lam, 0.0, 0)


def _refuse_batch(points, params):
    raise ArithmeticError("batch refused")


def test_batched_tables_bit_identical_to_scalar_route(rng):
    ctx = random_context(4, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-5, 6))
    for n_extra in (0, 1):
        tables = yb_core.build_chains((), ctx)(lam, theta, n_extra)
        for k, table in enumerate(tables):
            literal = vertex_table_literal(lam - ctx.mu[k], theta, n_extra + ctx.L - 1 - k, ctx)
            assert table.tobytes() == literal.tobytes() and not table.flags.writeable


@pytest.mark.parametrize("elliptic", [True, False])
def test_site_tables_match_literal_tables(elliptic, monkeypatch, rng):
    # batched or from lazy scalar weights, every table has the bits of the
    # per-sector literal matrices; trigonometric tables have one sector
    ctx = random_context(2, rng, elliptic=elliptic)
    theta = sample_theta(ctx, rng, range(-4, 5))
    sites = [(lam, n_shift) for lam in sample_spectral(ctx, rng, 3) for n_shift in range(4)]
    literal = [vertex_table_literal(lam, theta, n_shift if elliptic else 0, ctx)
               for lam, n_shift in sites]
    for route in ("batch", "lazy"):
        if route == "lazy":
            monkeypatch.setattr(yb_core, "f_weights", _refuse_batch)
        tables = list(yb_core._site_tables(sites, theta, ctx))
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
            return DynamicalPole, f"site {k + 1}, {exc}"
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
         r"^site 2, weight sector \+1: f\(theta\) ~ 0 at theta = 0j$"),
        # f(lam + gamma) overflows, but the pole of site 1's first sector
        # comes before it in the order the weights are read
        (300 + 0.1j, 2 * ctx.gamma, ctx, DynamicalPole, r"^site 1, weight sector \+2: "),
        # f(t - lam) of site 1's first sector overflows, f(lam + gamma)
        # and f(lam) do not; the pole of its second sector comes after it
        (18.6 + 0.05j + ctx.mu[0], -ctx.gamma, two, OverflowError, None),
    ]
    lams = sample_spectral(ctx, rng, 3)
    l1, l2, g = lams[0], lams[1], ctx.gamma
    bulk_cases = [
        # theta = 0: slot 3 (theta + 3*gamma) builds, slot 2 meets f(0) in
        # site 1, sector +2
        (lambda: dwbc_partition(lams, 0.0, ctx), (lams[2], 3 * g, 0), (lams[1], 2 * g, 0)),
        # theta = 3*gamma: (l1, theta, 0) builds, (l2, theta, 1) meets f(0)
        # in site 1, sector +3; lazily the R_ab factor meets it first
        (lambda: verify_rll(l1, l2, 3 * g, ctx), (l1, 3 * g, 0), (l2, 3 * g, 1)),
    ]
    for route in ("batch", "lazy"):
        if route == "lazy":
            monkeypatch.setattr(yb_core, "f_weights", _refuse_batch)
        for lam_k, theta, model, error, message in cases:
            with pytest.raises(error, match=message) as info:
                monodromy_blocks(lam_k, theta, model)
            assert (type(info.value), str(info.value)) \
                == _literal_chain_error(lam_k, theta, model)
        with pytest.raises(DynamicalPole, match=r"^weight sector \+1: f\(theta\) ~ 0"):
            site_factors([(lam, (0, 1), ()), (lam, (0, 1), (2,))], ctx.gamma, ctx, 3)

        # a bulk build stops at a pole in its second chain, keeping the
        # first; the lookups then raise what they raise without the build
        for operation, built, stopped in bulk_cases:
            with monkeypatch.context() as m:
                _skip_bulk_build(m)
                with pytest.raises(DynamicalPole) as lazy:
                    operation()
            with monkeypatch.context() as m:
                lookups = _spy_bulk_build(m)
                with pytest.raises(DynamicalPole) as bulk:
                    operation()
            assert str(bulk.value) == str(lazy.value)
            with monkeypatch.context() as m:
                batches, scalar = _count_batches(m), []
                m.setattr(yb_core, "f_weight",
                          lambda *args: scalar.append(args) or f_weight(*args))
                if route == "batch":  # the kept chain evaluates nothing
                    lookups[-1](*built)
                    assert not batches and not scalar
                with pytest.raises(DynamicalPole):  # the pole is not kept
                    lookups[-1](*stopped)
                assert batches
