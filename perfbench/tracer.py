"""Per-layer tracing of one yblab CLI invocation, from outside the package.

Usage::

    python3 perfbench/tracer.py STATS.json <yblab arguments>...

Runs ``yblab.cli.main`` on the arguments after wrapping each layer
function listed in ``LAYERS`` wherever a yblab module binds it (the
defining module and every module that imported the name), plus the
prepare/draw/evaluate callables of each registered check.  A wrapper
records a span (name, parent, start, end) and a few counters, then calls
the original, so what is computed stays the same; nothing under ``src/``
is edited.  On exit the spans are reduced to calls, inclusive time and
self time per name and written to STATS.json.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import sys
import time
from typing import Callable, Iterable

#: (module under ``yblab``, public function) pairs that get a span each.
LAYERS = (
    ("special_fn", "f_weight"),
    ("sampling", "draw_point"),
    ("sampling", "sample_spectral"),
    ("sampling", "sample_theta"),
    ("sampling", "sample_mu"),
    ("yb_core", "r_matrix"),
    ("yb_core", "monodromy_blocks"),
    ("yb_core", "verify_rll"),
    ("yb_core", "verify_dybe"),
    ("lattice_qty", "dwbc_partition"),
    ("lattice_qty", "scalar_product_bf"),
    ("lattice_qty", "hw_action_residuals"),
    ("feq", "verify_identity"),
    ("feq", "fx_residual"),
    ("feq", "snad_residuals"),
    ("residue_int", "z_contour"),
    ("residue_int", "sn_contour"),
    ("pde", "interpolate_zbar"),
    ("pde", "omega_actions"),
    ("pde", "omega_leading_apply"),
    ("pde", "dia_realized"),
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_f_weight(counters, args, kwargs, result):
    regime = _arg(args, kwargs, 1, "regime")
    counters["f_weight.ell_calls" if regime.is_elliptic else "f_weight.trig_calls"] += 1


def _count_spectral(counters, args, kwargs, result):
    counters["sampling.points"] += len(result)


def _count_theta(counters, args, kwargs, result):
    if _arg(args, kwargs, 0, "ctx").is_elliptic:  # trig returns 0 without drawing
        counters["sampling.points"] += 1


def _count_monodromy(counters, args, kwargs, result):
    counters["monodromy_blocks.L"] = _arg(args, kwargs, 2, "ctx").L


def _count_z_terms(counters, args, kwargs, result):
    counters["residue_int.terms"] += math.factorial(len(_arg(args, kwargs, 0, "X")))


def _count_sn_terms(counters, args, kwargs, result):
    counters["residue_int.terms"] += math.factorial(len(_arg(args, kwargs, 0, "XB"))) ** 2


def _count_zbar(counters, args, kwargs, result):
    L = _arg(args, kwargs, 0, "ctx").L
    counters["interpolate_zbar.z_evals"] += L ** L


HOOKS = {
    "special_fn.f_weight": _count_f_weight,
    "sampling.sample_spectral": _count_spectral,
    "sampling.sample_theta": _count_theta,
    "yb_core.monodromy_blocks": _count_monodromy,
    "residue_int.z_contour": _count_z_terms,
    "residue_int.sn_contour": _count_sn_terms,
    "pde.interpolate_zbar": _count_zbar,
}


class Tracer:
    """Spans kept in memory as parallel lists, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock, counters = self._open, self.clock, self.counters

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        return span_summary(zip(self.names, self.parents, self.starts, self.ends))


def _covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def span_summary(spans: Iterable[tuple[str, int, float, float]]) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    ``spans`` are (name, parent index or -1, start, end).  A span's self
    time is its duration minus the part of it that its children cover.
    Spans still open (end is NaN) are skipped.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0 and not math.isnan(end):
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for idx, (name, parent, start, end) in enumerate(spans):
        if math.isnan(end):
            continue
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - _covered(start, end, children.get(idx, ()))
    return out


def install(tracer: Tracer) -> dict:
    """Wrap every layer binding in the loaded yblab modules; returns the originals."""
    from yblab import cli

    modules = [m for n, m in list(sys.modules.items())
               if n == "yblab" or n.startswith("yblab.")]
    originals = {}
    for mod_name, attr in LAYERS:
        orig = getattr(sys.modules.get(f"yblab.{mod_name}"), attr, None)
        if orig is None:
            continue
        name = f"{mod_name}.{attr}"
        originals[name] = orig
        traced = tracer.wrap(name, orig, HOOKS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, traced)
    for check, cd in list(cli.REGISTRY.items()):
        span = f"cli.check.{check}"
        cli.REGISTRY[check] = dataclasses.replace(
            cd,
            prepare=cd.prepare and tracer.wrap(span, cd.prepare),
            draw=tracer.wrap(span, cd.draw),
            evaluate=tracer.wrap(span, cd.evaluate))
    return originals


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    from yblab import cli

    tracer = Tracer()
    originals = install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        cache = getattr(originals.get("yb_core.monodromy_blocks"), "cache_info", None)
        info = cache() if cache else None
        stats = {"spans": tracer.summary(), "counters": dict(tracer.counters),
                 "cache": {"hits": info.hits if info else 0,
                           "misses": info.misses if info else 0}}
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
