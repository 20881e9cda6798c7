"""The matrix-free monodromy kernel against literal and dense routes."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from yblab import yb_core
from yblab.errors import DynamicalPole
from yblab.lattice_qty import dwbc_partition, scalar_product_bf
from yblab.residue_int import z_contour
from yblab.sampling import random_context, sample_spectral, sample_theta
from yblab.special_fn import f_weights
from yblab.yb_core import (apply_block, apply_factors, monodromy_blocks, r_matrix,
                           residual, site_factors, vertex_table)

from oracles import creation_string


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
        r = r_matrix(lam, theta - ctx.gamma * w, ctx)
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
    table = vertex_table(0.3 + 0.1j, theta, 1, ctx)
    with pytest.raises(ValueError):
        table *= 2


def test_one_weight_evaluation_per_site_and_sector(monkeypatch, rng):
    batches, scalar = [], []
    monkeypatch.setattr(yb_core, "f_weights",
                        lambda points, params: batches.append(points)
                        or f_weights(points, params))
    monkeypatch.setattr(yb_core, "r_matrix",
                        lambda *args: scalar.append(args) or r_matrix(*args))
    yb_core._chain_tables.cache_clear()
    ctx = random_context(3, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-4, 5))
    monodromy_blocks(lam, theta, ctx)
    # one batch per chain: f(gamma) once, f(lam - mu_i + gamma) and
    # f(lam - mu_i) per site, five theta values per weight sector (site i
    # sees L - i + 1 sectors)
    assert [len(points) for points in batches] == [1 + 2 * 3 + 5 * (3 + 2 + 1)]
    apply_block("B", lam, theta, ctx, np.eye(ctx.dim))
    monodromy_blocks(lam, theta, ctx)
    assert len(batches) == 1 and not scalar  # chain hits evaluate nothing
    info = yb_core._chain_tables.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_batched_tables_bit_identical_to_scalar_route(rng):
    ctx = random_context(4, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    theta = sample_theta(ctx, rng, range(-5, 6))
    for n_extra in (0, 1):
        yb_core._chain_tables.cache_clear()
        tables = yb_core._chain_tables(lam, theta, n_extra, ctx)
        for k, table in enumerate(tables):
            scalar = vertex_table(lam - ctx.mu[k], theta, n_extra + ctx.L - 1 - k, ctx)
            assert table.tobytes() == scalar.tobytes() and not table.flags.writeable


def test_first_pole_is_named_by_site_and_sector(rng):
    # theta = gamma puts sector w = +1 of site 2 (two sites after it) on
    # f(0) = 0; sites 1 and 3 see only even weights
    ctx = random_context(3, rng)
    lam = sample_spectral(ctx, rng, 1)[0]
    message = r"^site 2, weight sector \+1: f\(theta\) ~ 0 at theta = 0j$"
    with pytest.raises(DynamicalPole, match=message):
        monodromy_blocks(lam, ctx.gamma, ctx)
    with pytest.raises(DynamicalPole, match=r"^weight sector \+1: f\(theta\) ~ 0"):
        site_factors([(lam, (0, 1), ()), (lam, (0, 1), (2,))], ctx.gamma, ctx, 3)
    # f(lam + gamma) overflows, but the scalar route meets the pole of
    # site 1's first sector before it; so must the batched one
    with pytest.raises(DynamicalPole, match=r"^site 1, weight sector \+2: "):
        monodromy_blocks(300 + 0.1j, 2 * ctx.gamma, ctx)


def test_vertex_cache_memory_bound(rng):
    # the documented worst case: 512 chains of the RLL check's width (one
    # extra shift site) at L = 10, measured per entry as the cache fills
    maxsize = yb_core._chain_tables.cache_info().maxsize
    assert maxsize == 512
    ctx = random_context(10, rng)
    theta = sample_theta(ctx, rng, range(-3, 4))
    lams = sample_spectral(ctx, rng, 9)
    yb_core._chain_tables.cache_clear()
    yb_core._chain_tables(lams[0], theta, 1, ctx)  # coefficient tables, code paths
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for lam in lams[1:]:
            tables = yb_core._chain_tables(lam, theta, 1, ctx)
        entry = (tracemalloc.get_traced_memory()[0] - before) / 8
    finally:
        tracemalloc.stop()
    assert sum(t.nbytes for t in tables) == 128 * 10 * 13 // 2 == 8320
    assert maxsize * entry <= 5.4e6  # below the 7.1 MB of the former per-table cache
