"""The mutation matrix: each operator check shown able to fail on a wrong vertex table.

Every vertex table comes from :func:`yblab.yb_core.site_factors`, which only
``yb_core`` binds, so the :func:`mutate` fixture wraps it there and every
table a check reads is mutated.  Under each mutation the operator checks run
through the command line at ``--L 3 --samples 10 --seed 1`` in both regimes,
and :data:`FAILS` holds the checks that fail.  A check that passes a mutation
is either blind to it by an exact symmetry, and then its records match the
unmutated run's to the bit, or has a gap, listed in :data:`GAPS`.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from yblab import yb_core

from test_records import run_digests

CHECKS = ("dybe", "rll", "hw-actions", "identities")
ARGV = ["run", "--checks", ",".join(CHECKS), "--L", "3", "--samples", "10", "--seed", "1"]
REGIME_FLAGS = {"elliptic": [], "trig": ["--trig"]}
DELTA = 1e-6

#: Pair states (uu, ud, du, dd) with ud and du exchanged.
_EXCHANGED = [0, 2, 1, 3]


def _scaled(diag, off):
    """Scale row 0, (a, b_+, b_-, a), and row 1, (0, c_+, c_-, 0), of every sector."""
    factor = np.array([diag, off], dtype=complex)[:, None]
    return lambda table: table * factor


#: Each mutation maps a vertex table, viewed as (row, sector, pair state), to a new one.
MUTATIONS = {
    "c-sign": _scaled((1, 1, 1, 1), (1, -1, -1, 1)),
    "c-swap": lambda table: np.stack([table[0], table[1][:, _EXCHANGED]]),
    "b-swap": lambda table: np.stack([table[0][:, _EXCHANGED], table[1]]),
    "sector-reversal": lambda table: table[:, ::-1],  # sector s read as n - s
    "a-scale": _scaled((1 + DELTA, 1, 1, 1 + DELTA), (1, 1, 1, 1)),
    "c-scale": _scaled((1, 1, 1, 1), (1, 1 + DELTA, 1 + DELTA, 1)),
}

_ALL = set(CHECKS)

#: The checks that fail each (mutation, regime).  The passing cells:
#: - c-sign, hw-actions and identities (both regimes): the auxiliary spin
#:   flips at each c vertex, so B and C carry an odd number of c vertices
#:   and A and D an even one; negating every c negates every B and C and
#:   keeps A and D.  Every term of an identity, on either side, has the same
#:   number of B and C blocks, so each relation changes by one overall sign,
#:   and hw-actions reads A and D eigenvalues and B and C zeros: both checks
#:   are exactly invariant.
#: - c-swap and c-scale, hw-actions (both regimes): on an extremal state the
#:   diagonal blocks meet only a and b vertices, and B and C annihilate it by
#:   the ice rule, so no statement reads a c weight.
#: - trig c-swap, b-swap and sector-reversal: a six-vertex table has b_+ = b_-,
#:   c_+ = c_- and one sector, so each returns the same table.
#: - elliptic b-swap, dybe and rll: a gap, in GAPS.
FAILS = {
    ("c-sign", "elliptic"): {"dybe", "rll"},
    ("c-swap", "elliptic"): {"dybe", "rll", "identities"},
    ("b-swap", "elliptic"): {"hw-actions", "identities"},
    ("sector-reversal", "elliptic"): _ALL,
    ("a-scale", "elliptic"): _ALL,
    ("c-scale", "elliptic"): {"dybe", "rll", "identities"},
    ("c-sign", "trig"): {"dybe", "rll"},
    ("c-swap", "trig"): set(),
    ("b-swap", "trig"): set(),
    ("sector-reversal", "trig"): set(),
    ("a-scale", "trig"): _ALL,
    ("c-scale", "trig"): {"dybe", "rll", "identities"},
}

#: Passing cells that are no symmetry of the check.  Exchanging b_+ and b_-
#: leaves dybe and rll at rounding (7.8e-15 and 1.3e-14 here): the two
#: relations cannot tell the exchanged tables from the model's.  ROADMAP
#: item 22's quantum determinant is measured to see the exchange.
GAPS = {("b-swap", "elliptic"): {"dybe", "rll"}}


@pytest.fixture
def mutate(monkeypatch):
    """``mutate(name)`` mutates every table :func:`site_factors` builds by ``MUTATIONS[name]``."""
    site_factors = yb_core.site_factors

    def use(name):
        def mutated(specs, ctx, n_sites):
            return [(MUTATIONS[name](table.reshape(2, -1, 4)).reshape(2, -1), partner, column)
                    for table, partner, column in site_factors(specs, ctx, n_sites)]
        monkeypatch.setattr(yb_core, "site_factors", mutated)
    return use


def _records(regime: str) -> dict[str, list[dict]]:
    """The record digests of each check in the run of ``regime``."""
    _, _, digests = run_digests(ARGV + REGIME_FLAGS[regime])
    records = {check: [d for d in digests if d.get("check") == check] for check in CHECKS}
    assert [len(recs) for recs in records.values()] == [10] * len(CHECKS)
    return records


@functools.cache
def _unmutated(regime: str) -> dict[str, list[dict]]:
    records = _records(regime)
    assert all(d["pass"] for recs in records.values() for d in recs)
    return records


@pytest.mark.parametrize("regime", REGIME_FLAGS)
@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_matrix(name, regime, mutate):
    plain = _unmutated(regime)
    mutate(name)
    records = _records(regime)
    failed = {check for check, recs in records.items() if not all(d["pass"] for d in recs)}
    assert failed == FAILS[name, regime]
    for check in _ALL - failed - GAPS.get((name, regime), set()):
        assert records[check] == plain[check], check
