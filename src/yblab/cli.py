"""Command-line harness.

Two subcommands:

* ``run`` executes named verification suites against a configured model
  with seeded randomness and emits one JSON record per sample on stdout
  (the stream stays parseable even if truncated between lines).
* ``compute`` evaluates the partition function or a scalar product by
  brute-force contraction, residue summation, or both side by side.

Exit codes: 0 all checks passed, 1 any failure (also a stdout closed
before the stream ended), 2 configuration error.

Randomness: one ``yblab.rng.Stream(seed, key)`` per ``(seed, key)`` pair,
numpy's PCG64 stream of ``SeedSequence([seed, key])`` computed without
``numpy.random``.  The stream for check ``c`` has key
``REGISTRY_INDEX[c]`` and is consumed sample by sample, so the same flags
produce identical parameter draws and hence identical residuals.  The
random polynomials of ``dia-realization`` and ``pde-leading`` take their
coefficients uniformly from the box [-1, 1) + i [-1, 1).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib.util
import json
import math
import os
import re
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import sampling
from .errors import CoincidentPoints, ConfigError, NomeTooLarge, NonFinite, YbLabError, ZeroNome
from .special_fn import Regime
from .yb_core import (ABS_FLOOR, MAX_L, PENCIL_MAX_L, ModelContext, rel_diff, verify_dybe,
                      verify_rll, worst)
from .lattice_qty import (dwbc_partition, dwbc_partitions, hw_action_residuals, scalar_product_bf,
                          scalar_products_bf)
from .residue_int import require_distinct, sn_contour, z_contour
from .rng import Stream


def _lazy_module(name: str) -> types.ModuleType:
    """``yblab.<name>``, executed at its first attribute read unless it is
    imported already; like ``import``, it is bound on the package."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# only run's checks read these two layers, so compute never compiles them
feq = _lazy_module("feq")
pde = _lazy_module("pde")

MODEL_SEED_KEY = 1000

#: The independent routes to each quantity, in evaluation order, behind
#: ``compute --method`` and the ``*-contour-vs-bf`` checks.  Entries look
#: their evaluator up per call, so wrappers set on this module see it.
ROUTES: dict[str, dict[str, Callable[..., complex]]] = {
    "z": {"bruteforce": lambda X, theta, ctx: dwbc_partition(X, theta, ctx),
          "contour": lambda X, theta, ctx: z_contour(X, theta, ctx)},
    "sn": {"bruteforce": lambda XB, YC, ctx: scalar_product_bf(XB, YC, ctx),
           "contour": lambda XB, YC, ctx: sn_contour(XB, YC, ctx)},
}
#: The ``compute`` flags that set spectral points or parameters; a
#: ``compute`` error names each one given on the command line.
SPECTRAL_FLAGS = ("--mu", "--points", "--theta", "--xb", "--yc")
#: The flags with complex values.  argparse reads a value such as ``-0.3,0.1``
#: as an option, so :func:`main` joins it to its flag as ``--flag=-0.3,0.1``.
COMPLEX_FLAGS = ("--gamma", "--nome", *SPECTRAL_FLAGS)


# --- configuration -------------------------------------------------------

@dataclass
class RunConfig:
    """The model and seed; the check list and samples are read for ``run`` only."""
    ctx: ModelContext
    seed: int
    samples: int = 0
    checks: list[str] = field(default_factory=list)


def _parse_complex(text: str, where: str) -> complex:
    """A complex number written ``RE`` or ``RE,IM``, both parts finite."""
    try:
        value = complex(*map(float, text.split(",")))  # TypeError past two parts
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: cannot parse complex number from {text!r}")
    if not cmath.isfinite(value):
        raise ConfigError(f"{where}: expected finite parts, got {text!r}")
    return value


def _parse_point_list(text: str, where: str) -> tuple[complex, ...]:
    items = [s for s in text.split(";") if s.strip()]
    return tuple(_parse_complex(s.strip(), where) for s in items)


def build_config(args: argparse.Namespace) -> RunConfig:
    """The run the flags describe; ``make_parser`` holds the defaults."""
    L = args.L
    if not 1 <= L <= MAX_L:
        raise ConfigError(f"--L: expected an integer in 1..{MAX_L}, got {L!r}")

    gamma = _parse_complex(args.gamma, "--gamma") if args.gamma is not None \
        else sampling.DEFAULT_GAMMA

    if args.trig:
        if args.nome is not None:
            raise ConfigError("--nome: the trigonometric regime (--trig) has no nome")
        regime = Regime.trigonometric()
    else:
        nome = _parse_complex(args.nome, "--nome") if args.nome is not None \
            else sampling.DEFAULT_NOME
        try:
            regime = Regime.elliptic(nome)
        except (NomeTooLarge, ZeroNome) as exc:
            raise ConfigError(f"--nome: {exc}")

    seed = args.seed
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"--seed: expected an unsigned 64-bit integer, got {seed!r}")

    if args.mu is None:
        mu = sampling.sample_mu(Stream(seed, MODEL_SEED_KEY), L)
    else:
        mu = _parse_point_list(args.mu, "--mu")
        if len(mu) != L:
            raise ConfigError(f"--mu: length {len(mu)} does not match --L = {L}")
        _require_distinct(mu, "--mu")

    try:
        ctx = ModelContext(L=L, gamma=gamma, mu=mu, regime=regime)
    except (ValueError, OverflowError, YbLabError) as exc:
        raise ConfigError(f"model: {exc}")
    if args.command != "run":
        return RunConfig(ctx=ctx, seed=seed)

    if args.samples < 1:
        raise ConfigError(f"--samples: expected a positive integer, got {args.samples!r}")

    if args.checks is None:
        checks = [name for name, cd in REGISTRY.items() if _domain_error(cd, ctx) is None]
    else:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not checks:
            raise ConfigError("--checks: expected a non-empty list of check names")
        for k, name in enumerate(checks):
            if name in checks[:k]:
                raise ConfigError(f"--checks: check {name!r} named twice")
            if name not in REGISTRY:
                raise ConfigError(f"--checks: unknown check {name!r}; "
                                  f"known: {', '.join(REGISTRY)}")
            reason = _domain_error(REGISTRY[name], ctx)
            if reason is not None:
                raise ConfigError(f"--checks: check {name!r} {reason}")

    return RunConfig(ctx=ctx, seed=seed, samples=args.samples, checks=checks)


# --- check registry ------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    tolerance: float
    trig_only: bool
    prepare: Callable[[ModelContext, Stream], Any] | None
    draw: Callable[[ModelContext, Stream], dict]
    evaluate: Callable[[ModelContext, dict, Any], float]
    #: chain lengths on which the check is defined; None means every L
    lengths: range | None = None


def _domain_error(cd: CheckDef, ctx: ModelContext) -> str | None:
    """Why the check is undefined for this model, or None where it applies."""
    if cd.trig_only and ctx.is_elliptic:
        return "requires the trigonometric regime"
    if cd.lengths is not None and ctx.L not in cd.lengths:
        return f"is defined for L = {cd.lengths[0]}..{cd.lengths[-1]} only, got L = {ctx.L}"
    return None


def _theta_for(ctx, rng, span):
    return sampling.sample_theta(ctx, rng, range(-span, span + 1))


def _draw_dybe(ctx, rng):
    pts = sampling.sample_spectral(ctx, rng, 3)
    return {"l1": pts[0], "l2": pts[1], "l3": pts[2],
            "theta": _theta_for(ctx, rng, 2)}


def _draw_rll(ctx, rng):
    pts = sampling.sample_spectral(ctx, rng, 2)
    return {"l1": pts[0], "l2": pts[1], "theta": _theta_for(ctx, rng, ctx.L + 1)}


def _draw_hw(ctx, rng):
    return {"lam": sampling.sample_spectral(ctx, rng, 1)[0],
            "theta": _theta_for(ctx, rng, ctx.L + 1)}


def _draw_identity(ctx, rng):
    kinds = ("bb", "abn") if ctx.is_elliptic else ("ab", "tay", "tdy")
    kind = kinds[int(rng.integers(len(kinds)))]
    theta = _theta_for(ctx, rng, 2 * ctx.L + 4)
    if kind == "ab":
        l1, l2 = sampling.sample_spectral(ctx, rng, 2)
        return {"kind": kind, "l1": l1, "l2": l2}
    if kind == "bb":
        l1, l2 = sampling.sample_spectral(ctx, rng, 2)
        return {"kind": kind, "l1": l1, "l2": l2, "theta": theta}
    if kind == "abn":
        pts = sampling.sample_spectral(ctx, rng, min(ctx.L, 2) + 1)
        return {"kind": kind, "l0": pts[0], "lams": pts[1:], "theta": theta}
    return {"kind": kind, **_draw_snad(ctx, rng)}


def _draw_fzt(ctx, rng):
    pts = sampling.sample_spectral(ctx, rng, ctx.L + 1)
    return {"l0": pts[0], "lams": pts[1:]}


def _draw_fx(ctx, rng):
    return {**_draw_fzt(ctx, rng), "theta": _theta_for(ctx, rng, 2 * ctx.L + 4)}


def _draw_snad(ctx, rng):
    n = min(ctx.L, 2)
    pts = sampling.sample_spectral(ctx, rng, 2 * n + 1)
    return {"l0": pts[0], "xb": pts[1:n + 1], "yc": pts[n + 1:]}


def _draw_zcmp(ctx, rng):
    pts = sampling.sample_spectral(ctx, rng, ctx.L, avoid=ctx.mu)
    return {"lams": pts, "theta": _theta_for(ctx, rng, 2 * ctx.L + 4)}


def _draw_sncmp(ctx, rng):
    n = min(ctx.L, 2)
    pts = sampling.sample_spectral(ctx, rng, 2 * n, avoid=ctx.mu)
    return {"xb": pts[:n], "yc": pts[n:]}


def _compare(quantity: str, *keys: str):
    """Evaluator: every route to ``quantity`` at the drawn ``keys``, values kept in the record."""
    def evaluate(ctx, p, _state):
        values = _route_values(quantity, "both", tuple(p[k] for k in keys), ctx)
        p.update({f"value_{route}": value for route, value in values.items()})
        return rel_diff(*values.values())
    return evaluate


def _prep_zbar(ctx, _rng):
    return pde.interpolate_zbar(ctx)


def _prep_zbar_and_control(ctx, rng):
    zbar = pde.interpolate_zbar(ctx)
    shape = (ctx.L,) * ctx.L
    control = pde.MultiPoly(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    return zbar, control


def _draw_pde_point(ctx, rng):
    return {"lams": sampling.sample_spectral(ctx, rng, ctx.L)}


def _eval_pde_omega(ctx, p, zbar):
    acts = pde.omega_actions(zbar, p["lams"], ctx)
    return worst(abs(c) for c in acts.coefficients) / max(acts.scale, ABS_FLOOR)


def _eval_pde_leading(ctx, p, state):
    zbar, control = state
    lams = p["lams"]
    acts_c = pde.omega_actions(control, lams, ctx)
    lead_c = pde.omega_leading_apply(control, lams, ctx)
    agree = rel_diff(acts_c.leading, lead_c)
    acts_z = pde.omega_actions(zbar, lams, ctx)
    null = abs(pde.omega_leading_apply(zbar, lams, ctx)) \
        / max(acts_z.scale, ABS_FLOOR)
    return worst((agree, null))


def _draw_dia(ctx, rng):
    nvars = int(rng.integers(1, 5))
    deg = int(rng.integers(0, 9))
    shape = (deg + 1,) * nvars
    coeffs = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    point = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(nvars)]
    x0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    axis = int(rng.integers(nvars))
    return {"coeffs": coeffs, "point": point, "x0": x0, "axis": axis,
            "nvars": nvars, "deg": deg}


def _eval_dia(ctx, p, _state):
    poly = pde.MultiPoly(p["coeffs"])
    realized = pde.dia_realized(poly, p["axis"], p["x0"], p["point"])
    substituted = pde.dia_apply(lambda args: poly.evaluate(args[1:]), p["axis"] + 1, 0)(
        [p["x0"]] + list(p["point"]))
    return rel_diff(realized, substituted)


REGISTRY: dict[str, CheckDef] = {
    "dybe": CheckDef(1e-9, False, None, _draw_dybe,
                     lambda ctx, p, s: verify_dybe(p["l1"], p["l2"], p["l3"],
                                                   p["theta"], ctx)),
    "rll": CheckDef(1e-9, False, None, _draw_rll,
                    lambda ctx, p, s: verify_rll(p["l1"], p["l2"], p["theta"], ctx)),
    "hw-actions": CheckDef(1e-9, False, None, _draw_hw, lambda ctx, p, s: worst(
        hw_action_residuals(p["lam"], p["theta"], ctx).values())),
    "identities": CheckDef(1e-9, False, None, _draw_identity,
                           lambda ctx, p, s: feq.verify_identity(ctx=ctx, **p)),
    "fx": CheckDef(1e-9, False, None, _draw_fx, lambda ctx, p, s: feq.fx_residual(
        p["l0"], p["lams"], p["theta"], ctx, dwbc_partitions)),
    "snad": CheckDef(1e-9, True, None, _draw_snad, lambda ctx, p, s: worst(feq.snad_residuals(
        p["l0"], p["xb"], p["yc"], ctx, scalar_products_bf))),
    "z-contour-vs-bf": CheckDef(1e-8, False, None, _draw_zcmp, _compare("z", "lams", "theta")),
    "sn-contour-vs-bf": CheckDef(1e-6, True, None, _draw_sncmp, _compare("sn", "xb", "yc")),
    "fzt": CheckDef(1e-9, True, None, _draw_fzt, lambda ctx, p, s: pde.fzt_residual(
        p["l0"], p["lams"], ctx, dwbc_partitions)),
    # the grid interpolation refuses L > PENCIL_MAX_L; at L = 1 the leading
    # operator is identically 0, so comparing it with the pencil measures only noise
    "pde-omega": CheckDef(1e-7, True, _prep_zbar, _draw_pde_point, _eval_pde_omega,
                          range(1, PENCIL_MAX_L + 1)),
    "pde-leading": CheckDef(1e-7, True, _prep_zbar_and_control, _draw_pde_point,
                            _eval_pde_leading, range(2, PENCIL_MAX_L + 1)),
    "dia-realization": CheckDef(1e-11, False, None, _draw_dia, _eval_dia),
}
REGISTRY_INDEX = {name: k for k, name in enumerate(REGISTRY)}


# --- report stream -------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """JSON-ready copy of ``value``; a non-finite number becomes ``None``."""
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(float(value.real)), _jsonable(float(value.imag))]
    if isinstance(value, (float, np.floating, np.integer)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _model_echo(cfg: RunConfig) -> dict:
    ctx = cfg.ctx
    regime = {"elliptic": {"nome": _jsonable(ctx.regime.params.nome)}} \
        if ctx.is_elliptic else "trig"
    return {"L": ctx.L, "gamma": _jsonable(ctx.gamma), "mu": _jsonable(list(ctx.mu)),
            "regime": regime}


def run_suite(cfg: RunConfig, out=None) -> int:
    """Execute the configured checks; returns the process exit code."""
    out = out or sys.stdout
    ctx = cfg.ctx
    all_pass = True
    header = {"record": "model", "seed": cfg.seed, "model": _model_echo(cfg),
              "checks": cfg.checks, "samples": cfg.samples}
    print(json.dumps(header, allow_nan=False), file=out, flush=True)
    for name in cfg.checks:
        cd = REGISTRY[name]
        tolerance = cd.tolerance
        rng = Stream(cfg.seed, REGISTRY_INDEX[name])

        def write(k, params, residual, error, t0) -> bool:
            """Print the record of sample ``k``; returns whether it passed."""
            rec = {"check": name, "seed": cfg.seed, "sample_index": k,
                   "params": _jsonable({k2: v for k2, v in params.items()
                                        if k2 != "coeffs"}),
                   "tolerance": tolerance,
                   "residual": residual,
                   "pass": residual is not None and residual <= tolerance}
            if error is not None:
                rec["error"] = f"{type(error).__name__}: {error}"
            rec["wall_time_ms"] = (time.perf_counter() - t0) * 1e3
            print(json.dumps(rec, allow_nan=False), file=out, flush=True)
            return rec["pass"]

        # each sample is drawn, evaluated and written before the next is
        # drawn; a failed prepare or draw ends the check with one error
        # record at the index of the sample it could not produce
        n_ok = n_written = k = 0
        t0 = time.perf_counter()
        try:
            state = cd.prepare(ctx, rng) if cd.prepare else None
            for k in range(cfg.samples):
                t0 = time.perf_counter()
                params, rng = sampling.draw_checked(cd.draw, ctx, rng)
                t0 = time.perf_counter()
                try:
                    residual, error = float(cd.evaluate(ctx, params, state)), None
                    if not math.isfinite(residual):
                        raise NonFinite(f"residual is {residual}")
                except (YbLabError, OverflowError) as exc:
                    residual, error = None, exc
                n_ok += write(k, params, residual, error, t0)
                n_written += 1
        except (YbLabError, OverflowError) as exc:
            write(k, {}, None, exc, t0)
            n_written += 1
        all_pass &= n_ok == n_written
        print(f"[{name}] {n_ok}/{n_written} passed (tolerance {tolerance:g})",
              file=sys.stderr)
    return 0 if all_pass else 1


# --- compute subcommand --------------------------------------------------

def _route_values(quantity: str, method: str, args: tuple,
                  ctx: ModelContext) -> dict[str, complex]:
    """The value of each route to ``quantity`` that ``method`` names (all for
    ``"both"``), in ``ROUTES`` order; a route that overflows or returns a
    non-finite value is an error at once, naming the route."""
    values = {}
    for route, fn in ROUTES[quantity].items():
        if method in (route, "both"):
            with _overflow_in(f"the {route} route"):
                value = values[route] = fn(*args, ctx)
            if not cmath.isfinite(value):
                raise NonFinite(f"{route} value is {value}")
    return values


def _emit_compute(echo: dict, method: str, quantity: str, args: tuple,
                  ctx: ModelContext) -> int:
    """Evaluate the requested routes into ``echo`` and print it."""
    values = _route_values(quantity, method, args, ctx)
    echo.update({route: _jsonable(value) for route, value in values.items()})
    if method == "both":
        echo["rel_diff"] = rel_diff(*values.values())
    print(json.dumps(echo, allow_nan=False))
    return 0


@contextlib.contextmanager
def _overflow_in(stage: str):
    """Name ``stage`` in the message of an OverflowError raised inside."""
    try:
        yield
    except OverflowError as exc:
        raise OverflowError(f"{exc} in {stage}") from None


def _require_distinct(points, where: str) -> None:
    """Coincident explicit points are a configuration error, whichever route runs."""
    try:
        require_distinct(points, where)
    except CoincidentPoints as exc:
        raise ConfigError(str(exc))


def _compute_z(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx
    rng = Stream(cfg.seed, 2000)
    with _overflow_in("the random point draw"):
        points = _parse_point_list(args.points, "--points") if args.points is not None \
            else sampling.sample_spectral(ctx, rng, ctx.L, avoid=ctx.mu)
    if len(points) != ctx.L:
        raise ConfigError(f"--points: need exactly L = {ctx.L} points, got {len(points)}")
    if args.points is not None:
        _require_distinct(points, "--points")
    if args.theta is not None and not ctx.is_elliptic:
        raise ConfigError("--theta: the trigonometric partition function (--trig) has no theta")
    with _overflow_in("the random point draw"):
        theta = _parse_complex(args.theta, "--theta") if args.theta is not None \
            else sampling.sample_theta(ctx, rng)
    echo = {"record": "compute-z", "model": _model_echo(cfg), "method": args.method,
            "points": _jsonable(list(points)), "theta": _jsonable(theta)}
    return _emit_compute(echo, args.method, "z", (points, theta), ctx)


def _compute_sn(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx
    if ctx.is_elliptic:
        raise ConfigError("compute sn: requires the trigonometric regime (--trig)")
    rng = Stream(cfg.seed, 2001)
    if args.xb is not None or args.yc is not None:
        if args.xb is None or args.yc is None:
            raise ConfigError("compute sn: provide both --xb and --yc, or neither")
        if args.n is not None:
            raise ConfigError("compute sn: --n counts random points; "
                              "give it without --xb and --yc")
        xb = _parse_point_list(args.xb, "--xb")
        yc = _parse_point_list(args.yc, "--yc")
        if len(xb) != len(yc):
            raise ConfigError(f"--xb, --yc: {len(xb)} and {len(yc)} points; "
                              f"need as many of each")
        n, where = len(xb), "--xb, --yc"
        _require_distinct(xb + ctx.mu, "--xb and mu")
        _require_distinct(yc + ctx.mu, "--yc and mu")
    else:
        n = args.n if args.n is not None else min(ctx.L, 2)
        where = "--n"
    if not 0 <= n <= ctx.L:
        raise ConfigError(f"{where}: need 0..L = 0..{ctx.L} points per side, got {n}")
    if args.xb is None:
        with _overflow_in("the random point draw"):
            pts = sampling.sample_spectral(ctx, rng, 2 * n, avoid=ctx.mu)
        xb, yc = pts[:n], pts[n:]
    echo = {"record": "compute-sn", "model": _model_echo(cfg), "method": args.method,
            "xb": _jsonable(list(xb)), "yc": _jsonable(list(yc))}
    return _emit_compute(echo, args.method, "sn", (xb, yc), ctx)


# --- entry point ----------------------------------------------------------

def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--L", type=int, default=3, help="chain length (default: 3)")
    parser.add_argument("--gamma", help="crossing parameter as RE,IM")
    parser.add_argument("--nome", help="elliptic nome as RE,IM")
    parser.add_argument("--trig", action="store_true",
                        help="use the trigonometric (six-vertex) regime")
    parser.add_argument("--mu", help="inhomogeneities as RE,IM;RE,IM;...")
    parser.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default: 0)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yblab",
        description="Verification suites and evaluators for dynamical "
                    "Yang-Baxter lattice quantities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run named verification checks")
    _add_model_flags(p_run)
    p_run.add_argument("--checks", help="comma-separated check names "
                       f"(known: {', '.join(REGISTRY)})")
    p_run.add_argument("--samples", type=int, default=20,
                       help="samples per check (default: 20)")
    p_run.add_argument("--out", help="write the report stream to this file")

    p_cmp = sub.add_parser("compute", help="evaluate a lattice quantity")
    cmp_sub = p_cmp.add_subparsers(dest="quantity", required=True)
    p_z = cmp_sub.add_parser("z", help="domain-wall partition function")
    _add_model_flags(p_z)
    p_z.add_argument("--method", choices=(*ROUTES["z"], "both"), default="both")
    p_z.add_argument("--points", help="spectral points as RE,IM;RE,IM;...")
    p_z.add_argument("--theta", help="dynamical parameter as RE,IM")
    p_sn = cmp_sub.add_parser("sn", help="off-shell scalar product")
    _add_model_flags(p_sn)
    p_sn.add_argument("--method", choices=(*ROUTES["sn"], "both"), default="both")
    p_sn.add_argument("--xb", help="creation-side points as RE,IM;...")
    p_sn.add_argument("--yc", help="annihilation-side points as RE,IM;...")
    p_sn.add_argument("--n", type=int, help="random point count when none given")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    joined: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in COMPLEX_FLAGS and re.match(r"-[\d.]", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    args = parser.parse_args(joined)
    try:
        cfg = build_config(args)
        if args.command == "run":
            if args.out is not None:
                try:
                    fh = open(args.out, "w", encoding="utf-8")
                except OSError as exc:
                    raise ConfigError(f"--out: {exc}")
                with fh:
                    return run_suite(cfg, out=fh)
            return run_suite(cfg)
        if args.quantity == "z":
            return _compute_z(cfg, args)
        return _compute_sn(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (YbLabError, OverflowError) as exc:
        given = ""
        if args.command == "compute":
            flags = [flag for flag in SPECTRAL_FLAGS if getattr(args, flag[2:], None) is not None]
            given = f" ({', '.join(flags)} given)" if flags else " (no spectral flag given)"
        print(f"error: {type(exc).__name__}: {exc}{given}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); send what is still
        # buffered to devnull so the interpreter's exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
