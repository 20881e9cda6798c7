"""Independent residue-sum route for the domain-wall partition function.

Usage::

    python3 perfbench/oracle.py '<one "yblab compute z" output line>'

prints ``[re, im]`` of the partition function at that line's points,
dynamical parameter and model.

The benchmark checks every brute-force partition function it times
against this route.  It sums the same L! residues as the contour
representation, but from O(L^2) tables gathered over all permutations at
once, with its own weight function, so at L = 8 it takes milliseconds
where the library's term-by-term sum would take minutes.  Memory grows as
L! * L^2 complex numbers, which is fine up to L = 9.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

#: Theta-series terms; ample for the |nome| this route accepts.
SERIES_TERMS = 40
MAX_NOME = 0.5


def f_weight(x, nome: complex | None) -> np.ndarray:
    """``sinh(x)``, or ``theta1(i x) / 2`` in the library's series convention."""
    x = np.asarray(x, dtype=complex)
    if nome is None:
        return np.sinh(x)
    if abs(nome) > MAX_NOME:
        raise ValueError(f"|nome| = {abs(nome):g} > {MAX_NOME}: series too short")
    n = np.arange(SERIES_TERMS)
    coef = (-1.0) ** n * complex(nome) ** 0.25 * complex(nome) ** (n * (n + 1))
    return (coef * np.sin(np.multiply.outer(1j * x, 2 * n + 1))).sum(axis=-1)


def z_partition(lams, theta: complex, mu, gamma: complex,
                nome: complex | None) -> complex:
    """Domain-wall partition function; ``nome=None`` is the trigonometric regime.

    Slot i of a permutation takes the spectral point ``w_i = lams[sigma_i]``.
    A term is ``f(gamma)^L``, times ``f(w_j - w_i + gamma) f(w_j - w_i)``
    over slot pairs i < j, times a per-slot factor (height factor, then
    ``f(mu_j - w_i)`` for j < i and ``f(w_i - mu_j + gamma)`` for j > i).
    The residue denominator is the same for every permutation.
    """
    lam = np.asarray(lams, dtype=complex)
    mu = np.asarray(mu, dtype=complex)
    L = len(lam)
    f = lambda z: f_weight(z, nome)
    diff = lam[None, :] - lam[:, None]                 # diff[a, b] = lam_b - lam_a
    pair = f(diff + gamma) * f(diff)
    slot = np.ones((L, L), dtype=complex)              # slot[i, a]: w_i = lam_a
    for i in range(L):
        for j in range(L):
            if j < i:
                slot[i] *= f(mu[j] - lam)
            elif j > i:
                slot[i] *= f(lam - mu[j] + gamma)
        if nome is not None:
            height = theta + (i + 1) * gamma
            slot[i] *= f(height - lam + mu[i]) / f(height)
    den = np.prod(f(lam[:, None] - lam[None, :])[~np.eye(L, dtype=bool)])
    perms = np.array(list(itertools.permutations(range(L))))
    iu, ju = np.triu_indices(L, 1)
    terms = np.prod(pair[perms[:, iu], perms[:, ju]], axis=1) \
        * np.prod(slot[np.arange(L), perms], axis=1)
    return complex(f(gamma) ** L * terms.sum() / den)


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def main(argv: list[str]) -> int:
    echo = json.loads(argv[0])
    model = echo["model"]
    regime = model["regime"]
    nome = _complex(regime["elliptic"]["nome"]) if isinstance(regime, dict) else None
    z = z_partition([_complex(p) for p in echo["points"]], _complex(echo["theta"]),
                    [_complex(m) for m in model["mu"]], _complex(model["gamma"]), nome)
    print(json.dumps([z.real, z.imag]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
