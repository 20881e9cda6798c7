"""Independent oracles used by the test suite.

Each oracle recomputes a quantity through a structurally different route
than the library (explicit configuration sums, finite differences,
direct weight tables, residue sums term by term) so agreement is
evidence, not tautology.
"""

import cmath
import itertools
import math

import numpy as np

from yblab.errors import (CoincidentPoints, DynamicalPole, InterpolationIllConditioned,
                          NomeTooLarge, NonConvergent, RegimeMismatch, SingularCoefficient,
                          SingularR)
from yblab.lattice_qty import as_values, dwbc_partition
from yblab.pde import MultiPoly, OmegaActions, _pencil_nodes
from yblab import special_fn
from yblab.special_fn import MAX_NOME, TERM_TOL, six_vertex
from yblab.yb_core import ABS_FLOOR, POLE_RTOL


def six_vertex_vertex_weight(a_out, s_out, a_in, s_in, lam, gamma):
    """Symmetric six-vertex weight for one vertex, by explicit table.

    Spin encoding 0 = up, 1 = down; ``a`` indices live on the horizontal
    line, ``s`` on the vertical.  Disallowed configurations weigh zero.
    """
    if (a_out, s_out) == (a_in, s_in):
        if a_in == s_in:
            return cmath.sinh(lam + gamma)
        return cmath.sinh(lam)
    if a_out == s_in and s_out == a_in and a_in != s_in:
        return cmath.sinh(gamma)
    return 0j


def r_matrix_literal(lam, theta, ctx):
    """4x4 dynamical vertex matrix, weight by weight from scalar ``f`` values.

    Elliptic: ``a = f(lam + gamma)``, ``b_+- = f(lam) f(theta -+ gamma) /
    f(theta)``, ``c_+- = f(gamma) f(theta -+ lam) / f(theta)``, with ``c_+``
    at (ud, du) and ``c_-`` at (du, ud); a negligible ``f(theta)`` is a
    pole.  Trigonometric: the symmetric six-vertex matrix, ``theta``
    ignored.  The weights are evaluated in the order written here, by
    :func:`f_literal`.
    """
    g = ctx.gamma
    if not ctx.is_elliptic:
        a, b, c = cmath.sinh(lam + g), cmath.sinh(lam), cmath.sinh(g)
        return np.array([[a, 0, 0, 0],
                         [0, b, c, 0],
                         [0, c, b, 0],
                         [0, 0, 0, a]], dtype=complex)
    f = lambda z: f_literal(z, ctx.regime)
    ft, ft_minus, ft_plus, fg = f(theta), f(theta - g), f(theta + g), f(g)
    if abs(ft) <= POLE_RTOL * max(abs(ft_minus), abs(ft_plus), abs(fg)):
        raise DynamicalPole(f"f(theta) ~ 0 at theta = {theta}")
    a = f(lam + g)
    fl = f(lam)
    f_minus, f_plus = f(theta - lam), f(theta + lam)
    return np.array([[a, 0, 0, 0],
                     [0, fl * ft_minus / ft, fg * f_minus / ft, 0],
                     [0, fg * f_plus / ft, fl * ft_plus / ft, 0],
                     [0, 0, 0, a]], dtype=complex)


def vertex_table_literal(lam, theta, n_shift, ctx):
    """Vertex table of ``yb_core`` built one :func:`r_matrix_literal` per sector.

    Sector ``s`` has spin weight ``w = n_shift - 2*s`` and dynamical
    argument ``theta - gamma*w``.  Row 0 holds the diagonal of its
    matrix, row 1 the off-diagonal ``(ud, du)`` and ``(du, ud)`` entries
    at pair states 1 and 2; entry ``4*s + k`` belongs to sector ``s``.
    A pole is named by its sector, the first in sector order.
    """
    table = np.zeros((2, 4 * (n_shift + 1)), dtype=complex)
    for s in range(n_shift + 1):
        w = n_shift - 2 * s
        try:
            r = r_matrix_literal(lam, theta - ctx.gamma * w, ctx)
        except DynamicalPole as exc:
            raise DynamicalPole(f"weight sector {w:+d}: {exc}") from exc
        table[0, 4 * s:4 * s + 4] = r.diagonal()
        table[1, 4 * s + 1] = r[1, 2]
        table[1, 4 * s + 2] = r[2, 1]
    return table


def monodromy_literal(lam, theta, ctx):
    """Dense monodromy on auxiliary site 0 and chain sites 1..L, factor by factor.

    A ``2^(L+1)`` square matrix, the ordered product over sites ``i =
    1..L`` (site 1 leftmost) of the vertex matrix on the auxiliary spin
    and spin ``i``.  Column ``c`` of factor ``i`` holds
    ``r_matrix_literal(lam - mu_i, theta - gamma*w)``, with ``w`` the
    signed spin sum (+1 up, -1 down) of the sites after ``i`` read from
    the basis state ``c`` itself; the trigonometric matrix ignores it.
    """
    n = ctx.L + 1
    bit = lambda state, site: (state >> (n - 1 - site)) & 1
    total = np.eye(1 << n, dtype=complex)
    for site in range(1, n):
        r_of = {}
        factor = np.zeros_like(total)
        for col in range(1 << n):
            w = sum(1 - 2 * bit(col, k) for k in range(site + 1, n))
            if w not in r_of:
                r_of[w] = r_matrix_literal(lam - ctx.mu[site - 1], theta - ctx.gamma * w, ctx)
            for out_aux, out_site in itertools.product((0, 1), repeat=2):
                row = col ^ ((bit(col, 0) ^ out_aux) << (n - 1)) \
                    ^ ((bit(col, site) ^ out_site) << (n - 1 - site))
                factor[row, col] += r_of[w][2 * out_aux + out_site,
                                            2 * bit(col, 0) + bit(col, site)]
        total = total @ factor
    return total


def blocks_literal(lam, theta, ctx):
    """Auxiliary-space blocks (A, B, C, D) of :func:`monodromy_literal`, each ``2^L`` square."""
    total, d = monodromy_literal(lam, theta, ctx), ctx.dim
    return tuple(total[r:r + d, c:c + d].copy() for r in (0, d) for c in (0, d))


def creation_string(lams, theta, ctx):
    """Ordered product of dense creation blocks B(lam_j, theta + j*gamma), j = 1..n.

    The dense reference for the matrix-free contraction in
    ``dwbc_partition``: its ``[-1, 0]`` entry is the partition function.
    """
    return string_literal([np.eye(ctx.dim, dtype=complex)]
                          + [blocks_literal(lam, theta + j * ctx.gamma, ctx)[1]
                             for j, lam in enumerate(lams, start=1)])


def string_literal(blocks):
    """Ordered product of square ``blocks``, left to right, starting from the identity."""
    out = np.eye(len(blocks[0]), dtype=complex)
    for m in blocks:
        out = out @ m
    return out


def dwbc_enumeration(lams, mu, gamma):
    """Domain-wall partition function by exhaustive configuration sum.

    Enumerates every assignment of the internal vertical edges
    (intermediate chain states) and internal horizontal edges (auxiliary
    paths) of the LxL lattice; boundary edges are fixed to the
    domain-wall pattern.  Exponential cost, intended for L <= 3.
    """
    L = len(lams)
    assert len(mu) == L
    top = (1,) * L     # all down, bra side
    bottom = (0,) * L  # all up, ket side

    def row_amplitude(lam, s_out, s_in):
        total = 0j
        # auxiliary line: enters down on the right, leaves up on the left
        for path in itertools.product((0, 1), repeat=L - 1):
            aux = (0,) + path + (1,)
            amp = 1.0 + 0j
            for i in range(L):
                amp *= six_vertex_vertex_weight(
                    aux[i], s_out[i], aux[i + 1], s_in[i], lam - mu[i], gamma)
                if amp == 0:
                    break
            total += amp
        return total

    total = 0j
    for middles in itertools.product(itertools.product((0, 1), repeat=L),
                                     repeat=L - 1):
        states = (top,) + middles + (bottom,)
        amp = 1.0 + 0j
        for j in range(L):
            amp *= row_amplitude(lams[j], states[j], states[j + 1])
            if amp == 0:
                break
        total += amp
    return total


def asm_polynomial(L):
    """``[N_0, N_1, ..]``: ``N_k`` counts the L x L alternating-sign matrices with k entries -1.

    Counted row by row over the column partial sums, each 0 or 1: a row's
    nonzero entries alternate +1, -1, .., +1, with a +1 only where its
    column sum is 0 and a -1 only where it is 1; the last sums are all 1.
    At ``a = b`` the six-vertex domain-wall partition function is
    ``a^(L^2 - L) c^L sum_k N_k (c/a)^(2k)`` (Kuperberg 1996).
    """
    def rows(sums, j, sign):
        """(column sums after the row, its -1 count) over rows from column j on."""
        if j == L:
            if sign == -1:  # the last nonzero entry was +1
                yield sums, 0
            return
        yield from rows(sums, j + 1, sign)
        if sums[j] == (sign == -1):
            for after, k in rows(sums[:j] + (sums[j] + sign,) + sums[j + 1:], j + 1, -sign):
                yield after, k + (sign == -1)

    counts = {(0,) * L: [1]}
    for _ in range(L):
        nxt = {}
        for sums, poly in counts.items():
            for after, k in rows(sums, 0, 1):
                acc = nxt.setdefault(after, [])
                acc.extend([0] * (len(poly) + k - len(acc)))
                for m, n in enumerate(poly):
                    acc[m + k] += n
        counts = nxt
    return counts[(1,) * L]


def theta1_literal(z, params):
    """The theta series summed term by term, each power of the nome taken in place.

    The reference of ``special_fn.theta1_batch``, the library's only
    theta series: a plain loop over the terms with the batch's stop rule
    and ``special_fn.SERIES_CAP`` read at the call, which the batch must
    match bit for bit, error for error.
    """
    p = complex(params.nome)
    if abs(p) >= MAX_NOME:
        raise NomeTooLarge(f"|nome| = {abs(p):.6g} >= {MAX_NOME}")
    p_quarter = p ** 0.25
    total = 0j
    scale = 0.0
    prev_mag = cmath.inf
    for n in range(special_fn.SERIES_CAP):
        term = 2.0 * (-1) ** n * p_quarter * p ** (n * (n + 1)) \
            * cmath.sin((2 * n + 1) * z)
        total += term
        scale = max(scale, abs(total))
        mag = abs(term)
        if max(mag, prev_mag) <= TERM_TOL * max(scale, 1e-300):
            return total
        prev_mag = mag
    raise NonConvergent(
        f"theta1 series did not meet term_tol={TERM_TOL} "
        f"within {special_fn.SERIES_CAP} terms (|nome|={abs(p):.4g}, z={z})"
    )


def f_literal(z, regime):
    """The weight ``f``: ``theta1_literal(i*z)/2``, or ``cmath.sinh(z)``."""
    if regime.is_elliptic:
        return theta1_literal(1j * z, regime.params) / 2.0
    return cmath.sinh(z)


def central_difference(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def z_residue_permutations(X, theta, ctx):
    """Domain-wall partition function as the literal sum of its L! residues.

    Every factor of every term is evaluated at its assignment, one
    permutation at a time; the reference for ``residue_int.z_contour``.
    Returns the sum and the sum of the terms' magnitudes, which sets the
    scale of the rounding error of any summation order.  Inputs are not
    validated.
    """
    lams = as_values(X)
    L = ctx.L
    f = lambda z: f_literal(z, ctx.regime)
    g = ctx.gamma
    elliptic = ctx.is_elliptic
    pref = f(g) ** L
    total = 0j
    magnitude = 0.0
    for sigma in itertools.permutations(range(L)):
        w = [lams[sigma[i]] for i in range(L)]
        term = pref
        for i in range(L):
            for j in range(i + 1, L):
                term *= f(w[j] - w[i] + g) * f(w[j] - w[i])
        if elliptic:
            for j in range(L):
                term *= f(theta + (j + 1) * g - w[j] + ctx.mu[j]) \
                    / f(theta + (j + 1) * g)
        for i in range(L):
            for j in range(L):
                if j < i:
                    term *= f(ctx.mu[j] - w[i])
                elif j > i:
                    term *= f(w[i] - ctx.mu[j] + g)
        den = 1.0 + 0j
        for i in range(L):
            for j in range(L):
                if j != sigma[i]:
                    den *= f(w[i] - lams[j])
        total += term / den
        magnitude += abs(term / den)
    return complex(total), magnitude


def sn_residue_permutations(XB, YC, ctx):
    """Off-shell scalar product as the literal sum of its (n!)^2 residues.

    The reference for ``residue_int.sn_contour``; returns the sum and the
    sum of the terms' magnitudes, and raises ``SingularR`` when a
    reciprocal factor vanishes at some assignment.  Inputs are not
    validated.
    """
    xb = as_values(XB)
    yc = as_values(YC)
    n = len(xb)
    L = ctx.L
    mu = ctx.mu
    a, b, c = six_vertex(ctx.gamma)
    pref = (-1) ** (L * n + n * (n + 1) // 2) * c ** (2 * n)
    total = 0j
    magnitude = 0.0
    for sigma in itertools.permutations(range(n)):
        w = [yc[sigma[i]] for i in range(n)]
        for sigma_bar in itertools.permutations(range(n)):
            wb = [xb[sigma_bar[i]] for i in range(n)]
            num = 1.0 + 0j
            for i in range(n):
                for j in range(i + 1, n):
                    num *= b(w[i] - w[j]) ** 2 * b(wb[i] - wb[j]) ** 2 \
                        * a(w[j] - mu[i]) * a(wb[j] - mu[i])
            den0 = np.prod([b(w[i] - mu[i]) * b(wb[i] - mu[i]) for i in range(n)]) \
                if n else 1.0
            ratio_prod = 1.0 + 0j
            for i in range(n):
                r_plus = np.prod([a(w[k] - mu[i]) / b(w[k] - mu[i])
                                  for k in range(i, n)])
                r_minus = np.prod([a(wb[k] - mu[i]) / b(wb[k] - mu[i])
                                   for k in range(i, n)])
                r_i = r_plus - r_minus
                if abs(r_i) < 1e-12 * (abs(r_plus) + abs(r_minus)):
                    raise SingularR(
                        f"reciprocal factor {i + 1} vanishes at the assignment "
                        f"{sigma}|{sigma_bar}; resample the spectral points")
                lam_plus = np.prod([a(wb[i] - mu[k]) * b(mu[k] - w[i])
                                    for k in range(i, L)])
                lam_minus = np.prod([a(w[i] - mu[k]) * b(mu[k] - wb[i])
                                     for k in range(i, L)])
                for k in range(i + 1, n):
                    lam_plus *= (a(w[i] - w[k]) / b(w[i] - w[k])) \
                        * (a(wb[k] - wb[i]) / b(wb[k] - wb[i]))
                    lam_minus *= (a(w[k] - w[i]) / b(w[k] - w[i])) \
                        * (a(wb[i] - wb[k]) / b(wb[i] - wb[k]))
                ratio_prod *= (lam_plus - lam_minus) / r_i
            den = 1.0 + 0j
            for i in range(n):
                for j in range(n):
                    if j != sigma[i]:
                        den *= b(w[i] - yc[j])
                    if j != sigma_bar[i]:
                        den *= b(wb[i] - xb[j])
            term = pref * num / den0 * ratio_prod / den
            total += term
            magnitude += abs(term)
    return complex(total), magnitude


def interpolate_zbar_literal(ctx, *, rng=None, nodes=None):
    """Partition polynomial from one ``dwbc_partition`` call per grid entry.

    An independent route to ``pde.interpolate_zbar``: any well separated
    nodes (explicit, or drawn from ``rng``), one contraction per grid
    entry, and one Vandermonde solve per axis instead of one ``fftn``.
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("the partition polynomial is defined in the trigonometric regime")
    L = ctx.L
    if L > 4:
        raise ValueError(f"grid interpolation is L^L evaluations; L = {L} > 4 refused")
    evaluate_z = lambda pts, th: dwbc_partition(pts, th, ctx)
    if nodes is None:
        if rng is None:
            rng = np.random.default_rng(0)
        nodes = []
        for _ in range(L):
            axis = []
            for _ in range(1000):
                cand = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.35, 0.35))
                xc = cmath.exp(2 * cand)
                if all(abs(xc - cmath.exp(2 * o)) > 0.2 for o in axis):
                    axis.append(cand)
                if len(axis) == L:
                    break
            nodes.append(axis)
    nodes = [tuple(complex(v) for v in axis) for axis in nodes]
    for axis_nodes in nodes:
        if len(axis_nodes) != L:
            raise ValueError(f"need {L} nodes per axis, got {len(axis_nodes)}")
        xs = [cmath.exp(2 * v) for v in axis_nodes]
        for i in range(L):
            for j in range(i + 1, L):
                if abs(xs[i] - xs[j]) < 1e-3:
                    raise ValueError(
                        f"axis nodes {i} and {j} nearly coincide in x = exp(2 lam)")

    values = np.zeros((L,) * L, dtype=complex)
    for idx in np.ndindex(values.shape):
        pts = [nodes[k][idx[k]] for k in range(L)]
        values[idx] = evaluate_z(pts, 0.0) * cmath.exp((L - 1) * sum(pts))

    coeffs = values
    for axis in range(L):
        xs = np.array([cmath.exp(2 * v) for v in nodes[axis]])
        vander = np.vander(xs, L, increasing=True)
        moved = np.moveaxis(coeffs, axis, 0).reshape(L, -1)
        solved = np.linalg.solve(vander, moved)
        coeffs = np.moveaxis(
            solved.reshape((L,) + coeffs.shape[:axis] + coeffs.shape[axis + 1:]), 0, axis)
    return MultiPoly(coeffs)


def evaluate_literal(poly, point):
    """``MultiPoly.evaluate`` as one Horner loop per variable, before the stacked routine."""
    v = poly.coeffs
    for x in point:
        acc = v[-1]
        for d in range(v.shape[0] - 2, -1, -1):
            acc = acc * x + v[d]
        v = acc
    return complex(v)


def derivative_literal(poly, axis, order=1):
    """The ``order``-th tensor of ``pde._ladder``, taking every order from scratch."""
    c = np.moveaxis(poly.coeffs, axis, 0)
    for _ in range(order):
        if c.shape[0] == 1:
            c = np.zeros_like(c)
            break
        c = c[1:] * np.arange(1, c.shape[0]).reshape((-1,) + (1,) * (c.ndim - 1))
    # pad back to the hypercube shape so axes stay aligned
    pad = poly.coeffs.shape[0] - c.shape[0]
    if pad > 0:
        c = np.concatenate([c, np.zeros((pad,) + c.shape[1:], dtype=complex)], axis=0)
    return MultiPoly(np.moveaxis(c, 0, axis))


def dia_realized_literal(p, i, alpha_value, point):
    """Truncated-Taylor replacement, one from-scratch derivative per order."""
    m = p.max_deg
    step = complex(alpha_value) - complex(point[i])
    total = 0j
    power = 1.0 + 0j
    for k in range(m + 1):
        value = evaluate_literal(derivative_literal(p, i, k), point)
        total += power / math.factorial(k) * value
        power *= step
    return complex(total)


def fzt_coefficients_literal(l0, X, ctx):
    """``pde.fzt_coefficients`` as one body, every factor computed where it is used.

    The library splits it into the factors free of ``lam_0`` and the
    terms in ``lam_0``; this is the body before that split, unchanged.
    """
    if ctx.is_elliptic:
        raise RegimeMismatch("the merged swap equation is trigonometric")
    lams = as_values(X)
    a, b, c = six_vertex(ctx.gamma)
    head = np.prod([b(l0 - m) for m in ctx.mu]) \
        - np.prod([a(l0 - m) for m in ctx.mu]) \
        * np.prod([a(l - l0) / b(l - l0) for l in lams])
    swaps = []
    for i, li in enumerate(lams):
        den = b(li - l0)
        if abs(den) <= 1e-12 * abs(c):
            raise SingularCoefficient(f"b(lam_{i + 1} - lam_0) ~ 0")
        coeff = (c / den) * np.prod([a(li - m) for m in ctx.mu])
        for j, lj in enumerate(lams):
            if j != i:
                coeff *= a(lj - li) / b(lj - li)
        swaps.append(complex(coeff))
    return complex(head), tuple(swaps)


def omega_actions_literal(zbar, lams, ctx):
    """The swap pencil with every node evaluating ``zbar`` and its derivatives anew.

    ``pde.omega_actions`` before the derivative table was shared by the
    nodes, kept unchanged apart from the shape check, with the swap
    coefficients of :func:`fzt_coefficients_literal`; the node choice is
    the library's own.  ``x_i = exp(2 lam_i)`` and ``q = exp(gamma)``
    are formed here.
    """
    L = ctx.L
    lams = as_values(lams)
    xs = tuple(cmath.exp(2 * l) for l in lams)
    q = cmath.exp(ctx.gamma)
    node_lams = _pencil_nodes(xs, L + 2)
    values, scales = [], []
    for l0 in node_lams:
        head, swaps = fzt_coefficients_literal(l0, lams, ctx)
        half = lambda l: cmath.exp((1 - L) * l)
        head_check = head * np.prod([half(l) for l in lams])
        terms = [head_check * evaluate_literal(zbar, xs)]
        x0 = cmath.exp(2 * l0)
        for i, coeff in enumerate(swaps):
            coeff_check = coeff * half(l0) \
                * np.prod([half(lams[j]) for j in range(L) if j != i])
            terms.append(coeff_check * dia_realized_literal(zbar, i, x0, xs))
        kappa = 2.0 ** (-L) * cmath.exp(-sum(ctx.mu)) * cmath.exp((1 - L) * sum(lams))
        norm = cmath.exp(L * l0) / (kappa * (1 - q ** (-2)))
        values.append(complex(sum(terms) * norm))
        scales.append(float(sum(abs(t) for t in terms) * abs(norm)))
    scale = max(scales)
    x0s = np.array([cmath.exp(2 * l) for l in node_lams])
    vander = np.vander(x0s[:L], L, increasing=True)
    coeffs = np.linalg.solve(vander, np.array(values[:L]))
    for k in (L, L + 1):
        fitted = sum(coeffs[d] * x0s[k] ** d for d in range(L))
        if abs(fitted - values[k]) > 1e-6 * max(scale, ABS_FLOOR):
            raise InterpolationIllConditioned(f"held-out node {k} misses the fit")
    return OmegaActions(tuple(complex(c) for c in coeffs), scale)


def omega_leading_apply_literal(zbar, lams, ctx):
    """``pde.omega_leading_apply`` with a fresh derivative and evaluation per use, unchanged.

    ``x_i = exp(2 lam_i)``, ``y_j = exp(2 mu_j)`` and ``q = exp(gamma)``
    are formed here.
    """
    L = ctx.L
    xs = tuple(cmath.exp(2 * l) for l in as_values(lams))
    ys = tuple(cmath.exp(2 * m) for m in ctx.mu)
    q = cmath.exp(ctx.gamma)
    abar = lambda u, v: u * q ** 2 - v
    bbar = lambda u, v: u - v
    total = sum(abar(xs[i], ys[i]) for i in range(L)) * evaluate_literal(zbar, xs)
    for i in range(L):
        weight = np.prod([abar(xs[i], ys[j]) for j in range(L)])
        for j in range(L):
            if j != i:
                den = bbar(xs[j], xs[i])
                if abs(den) < 1e-12 * max(abs(xs[j]), abs(xs[i]), 1.0):
                    raise CoincidentPoints(f"x_{j + 1} and x_{i + 1} coincide")
                weight *= abar(xs[j], xs[i]) / den
        total -= q ** (2 * (1 - L)) / math.factorial(L - 1) \
            * weight * evaluate_literal(derivative_literal(zbar, i, L - 1), xs)
    return complex(total)
