"""Command-line harness.

Two subcommands:

* ``run`` executes named verification suites against a configured model
  with seeded randomness and emits one JSON record per sample on stdout
  (the stream stays parseable even if truncated between lines).
* ``compute`` evaluates the partition function or a scalar product by
  brute-force contraction, residue summation, or both side by side.

Exit codes: 0 all checks passed, 1 any failure (also a stdout closed
before the stream ended), 2 configuration error.

Randomness: numpy PCG64, one stream per ``(seed, key)`` pair (``_rng``).
The generator for check ``c`` has key ``REGISTRY_INDEX[c]`` and is
consumed sample by sample, so a given (config, seed) pair produces
identical parameter draws and hence identical residuals.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import feq, pde, sampling
from .errors import CoincidentPoints, ConfigError, NomeTooLarge, NonFinite, YbLabError
from .special_fn import Regime
from .yb_core import ABS_FLOOR, MAX_L, ModelContext, rel_diff, verify_dybe, verify_rll
from .lattice_qty import dwbc_partition, dwbc_partitions, scalar_product_bf, check_hw_actions
from .residue_int import require_distinct, sn_contour, z_contour

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


# --- configuration -------------------------------------------------------

@dataclass
class RunConfig:
    """The model and seed; the check list, samples and tolerances are read for ``run`` only."""
    ctx: ModelContext
    seed: int
    samples: int = 0
    checks: list[str] = field(default_factory=list)
    tolerances: dict[str, float] = field(default_factory=dict)


def _rng(seed: int, key: int) -> np.random.Generator:
    """The PCG64 stream of ``SeedSequence([seed, key])``; every random draw comes from one."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def _is_int(value: Any) -> bool:
    """An ``int`` but not a ``bool``: YAML reads true/false as bools, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read_complex(value: Any, where: str) -> complex:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, (int, float, complex)):
        return complex(value)
    if isinstance(value, str):
        parts = value.split(",")
        try:
            if len(parts) == 1:
                return complex(float(parts[0]))
            if len(parts) == 2:
                return complex(float(parts[0]), float(parts[1]))
        except ValueError:
            pass
        raise ConfigError(f"{where}: cannot parse complex number from {value!r}")
    if isinstance(value, (list, tuple)) and len(value) == 2:
        if any(isinstance(v, bool) for v in value):
            raise ConfigError(f"{where}: expected [re, im] numbers, got {value!r}")
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: expected [re, im] numbers, got {value!r}")
    raise ConfigError(f"{where}: expected a number, 're,im' string, or [re, im] pair")


def _parse_complex(value: Any, where: str) -> complex:
    out = _read_complex(value, where)
    if not cmath.isfinite(out):
        raise ConfigError(f"{where}: expected finite parts, got {value!r}")
    return out


def _parse_float(value: Any, where: str) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(out):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return out


def _parse_point_list(text: str, where: str) -> tuple[complex, ...]:
    items = [s for s in text.split(";") if s.strip()]
    return tuple(_parse_complex(s.strip(), where) for s in items)


def _parse_regime_nome(value: Any, where: str) -> Regime:
    try:
        return Regime.elliptic(_parse_complex(value, where))
    except NomeTooLarge as exc:
        raise ConfigError(f"{where}: {exc}")


def _reject_unknown(section: dict, known: tuple[str, ...], where: str) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}; known: {', '.join(known)}")


def build_config(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, Any] = {}
    if args.config:
        import yaml  # here, not at the top: most runs pass no config, and PyYAML slows start-up

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config: file not found: {args.config}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"config: not valid YAML: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a mapping")

    _reject_unknown(raw, ("model", "run", "tolerances"), "config")
    model = raw.get("model", {})
    if not isinstance(model, dict):
        raise ConfigError("model: must be a mapping")
    _reject_unknown(model, ("L", "gamma", "mu", "regime"), "model")
    run = raw.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run: must be a mapping")
    _reject_unknown(run, ("seed", "samples", "checks"), "run")

    L = args.L if args.L is not None else model.get("L", 3)
    if not _is_int(L) or not (1 <= L <= MAX_L):
        raise ConfigError(f"model.L: expected an integer in 1..{MAX_L}, got {L!r}")

    gamma = _parse_complex(args.gamma, "--gamma") if args.gamma \
        else _parse_complex(model.get("gamma", sampling.DEFAULT_GAMMA), "model.gamma")

    regime_cfg = model.get("regime", {"elliptic": {"nome": sampling.DEFAULT_NOME}})
    if isinstance(regime_cfg, dict):
        _reject_unknown(regime_cfg, ("trig", "elliptic"), "model.regime")
        if len(regime_cfg) > 1:
            raise ConfigError("model.regime: give one of trig, elliptic, not both")
    if args.trig:
        regime = Regime.trigonometric()
    elif args.nome:
        regime = _parse_regime_nome(args.nome, "--nome")
    elif regime_cfg == "trig" or regime_cfg == {"trig": True}:
        regime = Regime.trigonometric()
    elif isinstance(regime_cfg, dict) and "elliptic" in regime_cfg:
        ell = regime_cfg["elliptic"] or {}
        if not isinstance(ell, dict):
            raise ConfigError("model.regime.elliptic: must be a mapping")
        _reject_unknown(ell, ("nome",), "model.regime.elliptic")
        regime = _parse_regime_nome(ell.get("nome", sampling.DEFAULT_NOME),
                                    "model.regime.elliptic.nome")
    else:
        raise ConfigError("model.regime: expected 'trig' or {elliptic: {nome: ...}}")

    seed = args.seed if args.seed is not None else run.get("seed", 0)
    if not _is_int(seed) or seed < 0 or seed >= 2 ** 64:
        raise ConfigError(f"run.seed: expected an unsigned 64-bit integer, got {seed!r}")

    mu_cfg = model.get("mu", "random")
    if args.mu:
        mu = _parse_point_list(args.mu, "--mu")
    elif mu_cfg == "random":
        mu = sampling.sample_mu(_rng(seed, MODEL_SEED_KEY), L)
    elif isinstance(mu_cfg, list):
        mu = tuple(_parse_complex(v, f"model.mu[{k}]") for k, v in enumerate(mu_cfg))
    else:
        raise ConfigError("model.mu: expected 'random' or a list of complex values")
    if len(mu) != L:
        raise ConfigError(f"model.mu: length {len(mu)} does not match model.L = {L}")
    _require_distinct(mu, "--mu" if args.mu else "model.mu")

    try:
        ctx = ModelContext(L=L, gamma=gamma, mu=mu, regime=regime)
    except (ValueError, OverflowError, YbLabError) as exc:
        raise ConfigError(f"model: {exc}")
    if args.command != "run":
        return RunConfig(ctx=ctx, seed=seed)

    samples = args.samples if args.samples is not None else run.get("samples", 20)
    if not _is_int(samples) or samples < 1:
        raise ConfigError(f"run.samples: expected a positive integer, got {samples!r}")

    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    else:
        checks = run.get("checks") or [name for name, cd in REGISTRY.items()
                                       if _domain_error(cd, ctx) is None]
    if not isinstance(checks, list) or not checks:
        raise ConfigError("run.checks: expected a non-empty list of check names")
    for k, name in enumerate(checks):
        if not isinstance(name, str):
            raise ConfigError(f"run.checks: expected check names, got {name!r}")
        if name in checks[:k]:
            raise ConfigError(f"run.checks: check {name!r} named twice")
        if name not in REGISTRY:
            raise ConfigError(f"run.checks: unknown check {name!r}; "
                              f"known: {', '.join(REGISTRY)}")
        reason = _domain_error(REGISTRY[name], ctx)
        if reason is not None:
            raise ConfigError(f"run.checks: check {name!r} {reason}")

    tol_over = raw.get("tolerances", {})
    if not isinstance(tol_over, dict):
        raise ConfigError("tolerances: must be a mapping of check name to value")
    tolerances = {}
    for name, value in tol_over.items():
        if name not in REGISTRY:
            raise ConfigError(f"tolerances: unknown check {name!r}")
        tolerances[name] = _parse_float(value, f"tolerances.{name}")
        if tolerances[name] < 0:
            raise ConfigError(f"tolerances.{name}: expected a non-negative number, "
                              f"got {value!r}")

    return RunConfig(ctx=ctx, seed=seed, samples=samples, checks=checks,
                     tolerances=tolerances)


# --- check registry ------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    tolerance: float
    trig_only: bool
    prepare: Callable[[ModelContext, np.random.Generator], Any] | None
    draw: Callable[[ModelContext, np.random.Generator], dict]
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
    n = min(ctx.L, 2)
    theta = _theta_for(ctx, rng, 2 * ctx.L + 4)
    if kind == "ab":
        l1, l2 = sampling.sample_spectral(ctx, rng, 2)
        return {"kind": kind, "l1": l1, "l2": l2}
    if kind == "bb":
        l1, l2 = sampling.sample_spectral(ctx, rng, 2)
        return {"kind": kind, "l1": l1, "l2": l2, "theta": theta}
    if kind == "abn":
        pts = sampling.sample_spectral(ctx, rng, n + 1)
        return {"kind": kind, "l0": pts[0], "lams": pts[1:], "theta": theta}
    pts = sampling.sample_spectral(ctx, rng, 2 * n + 1)
    return {"kind": kind, "l0": pts[0], "xb": pts[1:n + 1], "yc": pts[n + 1:]}


def _eval_identity(ctx, p, _state):
    params = {k: v for k, v in p.items() if k != "kind"}
    return feq.verify_identity(p["kind"], ctx, **params)


def _draw_fx(ctx, rng):
    pts = sampling.sample_spectral(ctx, rng, ctx.L + 1)
    return {"l0": pts[0], "lams": pts[1:], "theta": _theta_for(ctx, rng, 2 * ctx.L + 4)}


def _eval_fx(ctx, p, _state):
    bf = lambda sets: dwbc_partitions(sets, ctx)
    return feq.fx_residual(p["l0"], p["lams"], p["theta"], ctx, bf)


def _draw_snad(ctx, rng):
    n = min(ctx.L, 2)
    pts = sampling.sample_spectral(ctx, rng, 2 * n + 1)
    return {"l0": pts[0], "xb": pts[1:n + 1], "yc": pts[n + 1:]}


def _eval_snad(ctx, p, _state):
    bf = lambda xb, yc: scalar_product_bf(xb, yc, ctx)
    return max(feq.snad_residuals(p["l0"], p["xb"], p["yc"], ctx, bf))


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
        values = {route: fn(*(p[k] for k in keys), ctx)
                  for route, fn in ROUTES[quantity].items()}
        p.update({f"value_{route}": value for route, value in values.items()})
        return rel_diff(*values.values())
    return evaluate


def _draw_fzt(ctx, rng):
    pts = sampling.sample_spectral(ctx, rng, ctx.L + 1)
    return {"l0": pts[0], "lams": pts[1:]}


def _eval_fzt(ctx, p, _state):
    bf = lambda sets: dwbc_partitions(sets, ctx)
    return pde.fzt_residual(p["l0"], p["lams"], ctx, bf)


def _prep_zbar(ctx, _rng):
    return pde.interpolate_zbar(ctx)


def _prep_zbar_and_control(ctx, rng):
    zbar = pde.interpolate_zbar(ctx)
    shape = (ctx.L,) * ctx.L
    control = pde.MultiPoly(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return zbar, control


def _draw_pde_point(ctx, rng):
    return {"lams": sampling.sample_spectral(ctx, rng, ctx.L)}


def _eval_pde_omega(ctx, p, zbar):
    point = pde.PdeVars.from_lambdas(p["lams"], ctx)
    acts = pde.omega_actions(zbar, point, ctx)
    return max(abs(c) for c in acts.coefficients) / max(acts.scale, ABS_FLOOR)


def _eval_pde_leading(ctx, p, state):
    zbar, control = state
    point = pde.PdeVars.from_lambdas(p["lams"], ctx)
    acts_c = pde.omega_actions(control, point, ctx)
    lead_c = pde.omega_leading_apply(control, point, ctx)
    agree = rel_diff(acts_c.leading, lead_c)
    acts_z = pde.omega_actions(zbar, point, ctx)
    null = abs(pde.omega_leading_apply(zbar, point, ctx)) \
        / max(acts_z.scale, ABS_FLOOR)
    return max(agree, null)


def _draw_dia(ctx, rng):
    nvars = int(rng.integers(1, 5))
    deg = int(rng.integers(0, 9))
    shape = (deg + 1,) * nvars
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    point = [complex(a, b) for a, b in rng.uniform(-1, 1, (nvars, 2))]
    x0 = complex(*rng.uniform(-1, 1, 2))
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
    "hw-actions": CheckDef(1e-9, False, None, _draw_hw,
                           lambda ctx, p, s: check_hw_actions(p["lam"], p["theta"], ctx)),
    "identities": CheckDef(1e-9, False, None, _draw_identity, _eval_identity),
    "fx": CheckDef(1e-9, False, None, _draw_fx, _eval_fx),
    "snad": CheckDef(1e-9, True, None, _draw_snad, _eval_snad),
    "z-contour-vs-bf": CheckDef(1e-8, False, None, _draw_zcmp, _compare("z", "lams", "theta")),
    "sn-contour-vs-bf": CheckDef(1e-6, True, None, _draw_sncmp, _compare("sn", "xb", "yc")),
    "fzt": CheckDef(1e-9, True, None, _draw_fzt, _eval_fzt),
    # the grid interpolation refuses L > 4; at L = 1 the leading operator
    # is identically 0, so comparing it with the pencil measures only noise
    "pde-omega": CheckDef(1e-7, True, _prep_zbar, _draw_pde_point, _eval_pde_omega,
                          range(1, 5)),
    "pde-leading": CheckDef(1e-7, True, _prep_zbar_and_control, _draw_pde_point,
                            _eval_pde_leading, range(2, 5)),
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
        tolerance = cfg.tolerances.get(name, cd.tolerance)
        rng = _rng(cfg.seed, REGISTRY_INDEX[name])

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
                params = cd.draw(ctx, rng)
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

def _emit_compute(echo: dict, method: str, quantity: str, args: tuple,
                  ctx: ModelContext) -> int:
    """Evaluate the requested routes into ``echo`` and print it; non-finite is an error."""
    values = {route: fn(*args, ctx) for route, fn in ROUTES[quantity].items()
              if method in (route, "both")}
    for route, value in values.items():
        if not cmath.isfinite(value):
            raise NonFinite(f"{route} value is {value}")
        echo[route] = _jsonable(value)
    if method == "both":
        echo["rel_diff"] = rel_diff(*values.values())
    print(json.dumps(echo, allow_nan=False))
    return 0


def _require_distinct(points, where: str) -> None:
    """Coincident explicit points are a configuration error, whichever route runs."""
    try:
        require_distinct(points, where)
    except CoincidentPoints as exc:
        raise ConfigError(str(exc))


def _compute_z(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx
    rng = _rng(cfg.seed, 2000)
    points = _parse_point_list(args.points, "--points") if args.points \
        else sampling.sample_spectral(ctx, rng, ctx.L, avoid=ctx.mu)
    if len(points) != ctx.L:
        raise ConfigError(f"--points: need exactly L = {ctx.L} points, got {len(points)}")
    if args.points:
        _require_distinct(points, "--points")
    theta = _parse_complex(args.theta, "--theta") if args.theta \
        else sampling.sample_theta(ctx, rng, range(-(ctx.L + 2), 2 * ctx.L + 3))
    echo = {"record": "compute-z", "model": _model_echo(cfg), "method": args.method,
            "points": _jsonable(list(points)), "theta": _jsonable(theta)}
    return _emit_compute(echo, args.method, "z", (points, theta), ctx)


def _compute_sn(cfg: RunConfig, args) -> int:
    ctx = cfg.ctx
    if ctx.is_elliptic:
        raise ConfigError("compute sn: requires the trigonometric regime (--trig)")
    rng = _rng(cfg.seed, 2001)
    if args.xb or args.yc:
        if not (args.xb and args.yc):
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
    if not args.xb:
        pts = sampling.sample_spectral(ctx, rng, 2 * n, avoid=ctx.mu)
        xb, yc = pts[:n], pts[n:]
    echo = {"record": "compute-sn", "model": _model_echo(cfg), "method": args.method,
            "xb": _jsonable(list(xb)), "yc": _jsonable(list(yc))}
    return _emit_compute(echo, args.method, "sn", (xb, yc), ctx)


# --- entry point ----------------------------------------------------------

def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--L", type=int, help="chain length")
    parser.add_argument("--gamma", help="crossing parameter as RE,IM")
    parser.add_argument("--nome", help="elliptic nome as RE,IM")
    parser.add_argument("--trig", action="store_true",
                        help="use the trigonometric (six-vertex) regime")
    parser.add_argument("--mu", help="inhomogeneities as RE,IM;RE,IM;...")
    parser.add_argument("--seed", type=int, help="64-bit RNG seed")


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
    p_run.add_argument("--samples", type=int, help="samples per check")
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
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "run":
            if args.out:
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
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
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
