"""The mutation matrix: each check that reads a vertex table shown able to fail on a wrong one.

Every vertex table comes from :func:`yblab.yb_core.site_factors`, which only
``yb_core`` binds, so the :func:`mutate` fixture wraps it there and every
table a check reads is mutated.  Under each mutation the checks of
:data:`CHECKS` run through the command line at ``--samples 10 --seed 1``, at
L = 3 and 4 in both regimes, and :data:`FAILS` holds the checks that fail.
The pencil pair (``pde-omega``, ``pde-leading``) runs at L = 4 only: at L = 3
its a-scale and c-scale cells read up to 9.4e-8, within 8 % of its 1e-7 gate,
too close to assert either verdict.  ``dia-realization`` reads no vertex
table (it realizes the replacement operator on a random polynomial, with no
model), so it has no column.  A check that passes a mutation is either blind
to it by an exact symmetry, and then its records match the unmutated run's to
the bit, or has a gap, listed in :data:`GAPS`.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from yblab import yb_core

from test_records import run_digests

_ELLIPTIC = ("dybe", "rll", "hw-actions", "identities", "fx", "z-contour-vs-bf")
_TRIG = _ELLIPTIC + ("snad", "sn-contour-vs-bf", "fzt")
_PENCIL = ("pde-omega", "pde-leading")

#: The checks of each (regime, L).
CHECKS = {("elliptic", 3): _ELLIPTIC, ("elliptic", 4): _ELLIPTIC,
          ("trig", 3): _TRIG, ("trig", 4): _TRIG + _PENCIL}
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

_OPERATORS = {"dybe", "rll", "identities"}
_Z = {"fx", "z-contour-vs-bf"}
_ALL_ELLIPTIC, _ALL_TRIG = set(_ELLIPTIC), set(_TRIG)

#: The checks that fail each (mutation, regime, L).  The passing cells:
#: - c-sign, hw-actions and identities: the auxiliary spin flips at each c
#:   vertex, so B and C carry an odd number of c vertices and A and D an even
#:   one; negating every c negates every B and C and keeps A and D.  Every
#:   term of an identity, on either side, has the same number of B and C
#:   blocks, so each relation changes by one overall sign, and hw-actions
#:   reads A and D eigenvalues and B and C zeros: both checks are exactly
#:   invariant.
#: - c-sign, the equations: Z = <down|B^L|up> becomes (-1)^L Z, and the
#:   scalar product <0|C^n B^n|0> meets an even number of c vertices, so every
#:   term of fx, fzt and snad changes by one sign, and sn-contour-vs-bf and
#:   the pencil pair (at even L) see the same values.  The contour route reads
#:   no vertex table, so z-contour-vs-bf fails at odd L and passes at even L.
#: - c-swap and c-scale, hw-actions: on an extremal state the diagonal blocks
#:   meet only a and b vertices, and B and C annihilate it by the ice rule, so
#:   no statement reads a c weight.
#: - trig c-swap, b-swap and sector-reversal: a six-vertex table has b_+ = b_-,
#:   c_+ = c_- and one sector, so each returns the same table.
#: - elliptic b-swap on dybe, rll, fx and z-contour-vs-bf, and trig a-scale and
#:   c-scale on the pencil pair: gaps, in GAPS.
FAILS = {
    ("c-sign", "elliptic", 3): {"dybe", "rll", "z-contour-vs-bf"},
    ("c-sign", "elliptic", 4): {"dybe", "rll"},
    ("c-swap", "elliptic", 3): _OPERATORS | _Z,
    ("c-swap", "elliptic", 4): _OPERATORS | _Z,
    ("b-swap", "elliptic", 3): {"hw-actions", "identities"},
    ("b-swap", "elliptic", 4): {"hw-actions", "identities"},
    ("sector-reversal", "elliptic", 3): _ALL_ELLIPTIC,
    ("sector-reversal", "elliptic", 4): _ALL_ELLIPTIC,
    ("a-scale", "elliptic", 3): _ALL_ELLIPTIC,
    ("a-scale", "elliptic", 4): _ALL_ELLIPTIC,
    ("c-scale", "elliptic", 3): _OPERATORS | _Z,
    ("c-scale", "elliptic", 4): _OPERATORS | _Z,
    ("c-sign", "trig", 3): {"dybe", "rll", "z-contour-vs-bf"},
    ("c-sign", "trig", 4): {"dybe", "rll"},
    ("c-swap", "trig", 3): set(),
    ("c-swap", "trig", 4): set(),
    ("b-swap", "trig", 3): set(),
    ("b-swap", "trig", 4): set(),
    ("sector-reversal", "trig", 3): set(),
    ("sector-reversal", "trig", 4): set(),
    ("a-scale", "trig", 3): _ALL_TRIG,
    ("a-scale", "trig", 4): _ALL_TRIG,
    ("c-scale", "trig", 3): _ALL_TRIG - {"hw-actions"},
    ("c-scale", "trig", 4): _ALL_TRIG - {"hw-actions"},
}

#: Passing cells that are no symmetry of the check.  Exchanging b_+ and b_-
#: leaves dybe, rll, fx and z-contour-vs-bf at rounding (fx 1.5e-15 at L = 3,
#: 2.2e-14 at L = 4; z-contour-vs-bf 1.6e-14, 3.9e-14): the two relations and
#: Z's two routes cannot tell the exchanged tables from the model's.  ROADMAP
#: item 22's quantum determinant is measured to see the exchange, and item 10
#: would pin Z's analytic structure.  The 1e-6 a and c errors reach the pencil
#: pair at 1.6e-8 to 6.9e-8, under its 1e-7 gate (item 7).
GAPS = {("b-swap", "elliptic", 3): {"dybe", "rll"} | _Z,
        ("b-swap", "elliptic", 4): {"dybe", "rll"} | _Z,
        ("a-scale", "trig", 4): set(_PENCIL),
        ("c-scale", "trig", 4): set(_PENCIL)}


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


def _records(regime: str, L: int) -> dict[str, list[dict]]:
    """The record digests of each check in the run of ``regime`` at ``L``."""
    checks = CHECKS[regime, L]
    _, _, digests = run_digests(["run", "--checks", ",".join(checks), "--L", str(L),
                                 "--samples", "10", "--seed", "1"] + REGIME_FLAGS[regime])
    records = {check: [d for d in digests if d.get("check") == check] for check in checks}
    assert [len(recs) for recs in records.values()] == [10] * len(checks)
    return records


@functools.cache
def _unmutated(regime: str, L: int) -> dict[str, list[dict]]:
    records = _records(regime, L)
    assert all(d["pass"] for recs in records.values() for d in recs)
    return records


@pytest.mark.parametrize("name, regime, L", [
    pytest.param(name, regime, L, id=f"{name}-{regime}" + ("" if L == 3 else f"-L{L}"))
    for name, regime, L in FAILS])
def test_mutation_matrix(name, regime, L, mutate):
    plain = _unmutated(regime, L)
    mutate(name)
    records = _records(regime, L)
    failed = {check for check, recs in records.items() if not all(d["pass"] for d in recs)}
    assert failed == FAILS[name, regime, L]
    for check in set(records) - failed - GAPS.get((name, regime, L), set()):
        assert records[check] == plain[check], check
