"""yblab benchmark: end-to-end and per-layer metrics for four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-elliptic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Every yblab command runs as ``python3 -m yblab.cli`` in a fresh child
process with ``src`` on PYTHONPATH and BLAS threads pinned to 1, one
child at a time.  The seed goes to every command as ``--seed``.

``--trace 0`` repeats the workload's commands (one pass) until
``--seconds`` would be exceeded and reports the wall time of a pass (the
sum over commands of each command's median calibrated time), the median
set-up time, the median peak child RSS and the residual headroom.
``--trace 1`` alternates untraced passes with passes run through
``tracer.py`` and reports per-layer metrics, the tracing overhead, and
fails the run if any traced report stream differs from the untraced one
(``wall_time_ms`` aside).  ``--workload all`` does both for
every workload.

Correctness is checked outside the timed region.  Each ``run`` record
must pass at the check's pinned tolerance; each ``compute`` output must
agree with the other route (brute force vs residue sum) at the pinned
tolerance of the matching check.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` (items: one ``run``
sample or one ``compute`` output) and ``metrics``.  See README.md for
why each workload exists and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

RUN_SAMPLES = 20
SETUP_REPS = 7
CAL_LOOP = 500_000
#: A typical ``calibrate()`` on the 2-vCPU Xeon VM the bounds were set on.
CAL_REF_S = 0.11
CHILD_TIMEOUT_S = 150.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRACEBACK = "Traceback (most recent call last)"

#: Pass thresholds, pinned here so that a loosened library default
#: cannot make the benchmark pass.  Compute outputs use the matching
#: ``*-contour-vs-bf`` check.
PINNED_TOL = {
    "dybe": 1e-9, "rll": 1e-9, "hw-actions": 1e-9, "identities": 1e-9, "fx": 1e-9,
    "snad": 1e-9, "z-contour-vs-bf": 1e-8, "sn-contour-vs-bf": 1e-6, "fzt": 1e-9,
    "pde-omega": 1e-7, "pde-leading": 1e-7, "dia-realization": 1e-11,
}
COMPUTE_CHECK = {"z": "z-contour-vs-bf", "sn": "sn-contour-vs-bf"}
ELLIPTIC_CHECKS = ("dybe", "rll", "hw-actions", "identities", "fx", "z-contour-vs-bf",
                   "dia-realization")


@dataclass(frozen=True)
class Command:
    """yblab arguments (without ``--seed``) and the items one invocation yields."""

    argv: tuple[str, ...]
    items: int = 1


def run_command(flags: tuple[str, ...], checks) -> Command:
    return Command(("run",) + flags + ("--checks", ",".join(checks),
                                       "--samples", str(RUN_SAMPLES)),
                   items=len(checks) * RUN_SAMPLES)


def compute(quantity: str, method: str, *flags: str) -> Command:
    return Command(("compute", quantity) + flags + ("--method", method))


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "run-elliptic": (run_command(("--L", "4"), ELLIPTIC_CHECKS),),
    "run-trig": (run_command(("--trig", "--L", "4"), tuple(PINNED_TOL)),),
    "bf-L8": (compute("z", "bruteforce", "--L", "8"),
              compute("z", "bruteforce", "--trig", "--L", "8"),
              compute("sn", "bruteforce", "--trig", "--L", "8", "--n", "4")),
    "contour-frontier": (compute("z", "contour", "--L", "6"),
                         compute("z", "contour", "--trig", "--L", "7"),
                         compute("sn", "contour", "--trig", "--L", "6", "--n", "5")),
}

NUMPY_PROBE = """\
import json, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__,
                  "blas": {"name": blas.get("name"), "version": blas.get("version")}}))
"""

SETUP_CODE = """\
import sys
from yblab import cli
args = cli.make_parser().parse_args(sys.argv[1:])
for name in ("checks", "samples", "threads"):
    vars(args).setdefault(name, None)
cli.build_config(args)
"""


# --- child processes ------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    seconds: float
    returncode: int
    rss_mb: float
    stdout: str
    stderr: str
    #: ``CAL_REF_S`` over the calibration time around this child.
    speed: float = 1.0

    @property
    def calibrated_s(self) -> float:
        return self.seconds * self.speed


def spawn(argv: list[str], workdir: Path) -> Outcome:
    """Run one child to completion; time it from spawn to reap."""
    with tempfile.TemporaryFile("w+", dir=workdir) as out, \
            tempfile.TemporaryFile("w+", dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(seconds, proc.returncode, usage.ru_maxrss * 1024 / 1e6,
                       out.read(), err.read())


def yblab_argv(cmd: Command, seed: int) -> list[str]:
    return list(cmd.argv) + ["--seed", str(seed)]


class Calibrator:
    """Spawns timed children, each between two runs of ``calibrate()``.

    Other tenants of a shared machine slow every process by up to ~40 %
    for seconds to tens of seconds at a time.  A child's speed factor is
    ``CAL_REF_S`` over the mean of the calibrations just before and just
    after it, so its time multiplied by the factor reads as seconds at the
    reference machine speed.  The calibration after one child is the one
    before the next, so each child costs one calibration; the first child
    has only the one after it.  Calibrations always follow a child
    process: run back to back they read systematically slower.
    """

    def __init__(self):
        self.last: float | None = None

    def spawn(self, argv: list[str], workdir: Path) -> Outcome:
        outcome = spawn(argv, workdir)
        after = calibrate()
        outcome.speed = 2 * CAL_REF_S / ((self.last or after) + after)
        self.last = after
        return outcome


def run_pass(commands, seed: int, workdir: Path, clock: Calibrator,
             traced: bool = False) -> dict:
    """One pass: each command once, in order, each child timed by ``clock``."""
    outcomes, stats = [], []
    for k, cmd in enumerate(commands):
        if traced:
            stats_path = workdir / f"stats-{k}.json"
            stats_path.unlink(missing_ok=True)
            head = [sys.executable, str(BENCH_DIR / "tracer.py"), str(stats_path)]
        else:
            head = [sys.executable, "-m", "yblab.cli"]
        outcomes.append(clock.spawn(head + yblab_argv(cmd, seed), workdir))
        if traced:
            stats.append(json.loads(stats_path.read_text()) if stats_path.exists() else {})
    return {"rss_mb": max(o.rss_mb for o in outcomes),
            "outcomes": outcomes, "stats": stats}


def measure_setup(commands, seed: int, workdir: Path,
                  clock: Calibrator) -> tuple[list[float], bool]:
    """Calibrated times to start python, import yblab.cli and build the config."""
    argv = [sys.executable, "-c", SETUP_CODE] + yblab_argv(commands[0], seed)
    spawn(argv, workdir)  # warm the bytecode and file caches
    runs = [clock.spawn(argv, workdir) for _ in range(SETUP_REPS)]
    return [o.calibrated_s for o in runs], all(o.returncode == 0 for o in runs)


# --- correctness ----------------------------------------------------------

def normalized(stdout: str) -> list:
    """Report stream with per-sample timings removed, for identity checks."""
    lines = []
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            lines.append(line)
            continue
        if isinstance(record, dict):
            record.pop("wall_time_ms", None)
        lines.append(record)
    return lines


def headroom(tolerance: float, residual: float) -> float:
    """Decades between the residual and its tolerance; residual floored at 1e-300."""
    return math.log10(tolerance / max(residual, 1e-300))


def rel_diff(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def exit_problem(outcome: Outcome) -> str | None:
    if TRACEBACK in outcome.stderr:
        return f"traceback: {outcome.stderr.strip().splitlines()[-1][:200]}"
    if outcome.returncode != 0:
        return f"exit code {outcome.returncode}"
    return None


def score_run(cmd: Command, outcome: Outcome) -> tuple[int, list[float], list[str]]:
    """Failed items, per-item headrooms and failure notes of one ``yblab run``."""
    headrooms, notes = [], []
    for record in normalized(outcome.stdout):
        if not isinstance(record, dict) or "check" not in record:
            continue
        residual = record.get("residual")
        tolerance = PINNED_TOL.get(record["check"], 0.0)
        if record.get("pass") is True and isinstance(residual, (int, float)) \
                and residual <= tolerance:
            headrooms.append(headroom(tolerance, residual))
        else:
            notes.append(f"{record['check']} sample {record.get('sample_index')}: "
                         f"residual {residual} against tolerance {tolerance:g}"
                         + (f", {record['error']}" if "error" in record else ""))
    failed = max(cmd.items - len(headrooms), 0)
    if failed > len(notes):
        notes.append(f"{failed - len(notes)} of {cmd.items} records missing")
    problem = exit_problem(outcome)
    if problem:
        failed = max(failed, 1)
        if not (problem == "exit code 1" and notes):  # yblab exits 1 on a failed sample
            notes.append(problem)
    return failed, headrooms, notes


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def reference_value(cmd: Command, echo: dict, seed: int, workdir: Path) -> complex:
    """The same quantity by the other route.

    A brute-force partition function is checked against ``oracle.py``,
    as the library's residue sum is far too slow at L = 8; everything
    else against the library's other ``--method``.  Both run as children.
    """
    quantity, method = cmd.argv[1], echo["method"]
    if quantity == "z" and method == "bruteforce":
        outcome = spawn([sys.executable, str(BENCH_DIR / "oracle.py"), json.dumps(echo)],
                        workdir)
        if outcome.returncode != 0:
            raise RuntimeError(f"oracle exited {outcome.returncode}")
        return _complex(json.loads(outcome.stdout))
    other = "contour" if method == "bruteforce" else "bruteforce"
    argv = list(cmd.argv)
    argv[argv.index("--method") + 1] = other
    outcome = spawn([sys.executable, "-m", "yblab.cli"] + argv + ["--seed", str(seed)],
                    workdir)
    if outcome.returncode != 0:
        raise RuntimeError(f"reference route exited {outcome.returncode}")
    return _complex(json.loads(outcome.stdout.splitlines()[-1])[other])


def score_compute(cmd: Command, outcome: Outcome, seed: int,
                  workdir: Path) -> tuple[int, list[float], list[str]]:
    """Failed items (0 or 1), headroom and failure notes of one ``yblab compute``."""
    problem = exit_problem(outcome)
    if problem:
        return 1, [], [problem]
    try:
        echo = json.loads(outcome.stdout.splitlines()[-1])
        value = _complex(echo[echo["method"]])
        reference = reference_value(cmd, echo, seed, workdir)
    except (IndexError, KeyError, TypeError, ValueError, RuntimeError) as exc:
        return 1, [], [f"no value to compare: {type(exc).__name__}: {exc}"]
    tolerance = PINNED_TOL[COMPUTE_CHECK[cmd.argv[1]]]
    residual = rel_diff(value, reference)
    if not residual <= tolerance:
        return 1, [], [f"{value} against reference {reference}: relative difference "
                       f"{residual:.3g} above tolerance {tolerance:g}"]
    return 0, [headroom(tolerance, residual)], []


def score_command(cmd: Command, outcome: Outcome, seed: int,
                  workdir: Path) -> tuple[int, list[float], list[str]]:
    if cmd.argv[0] == "run":
        return score_run(cmd, outcome)
    return score_compute(cmd, outcome, seed, workdir)


def score_passes(commands, passes: list[dict], seed: int, workdir: Path) -> dict:
    """Score the first pass in full; a later pass must print the same streams.

    Every item of a later pass whose normalized stream differs from the
    first pass's counts as failed, so the traced-run identity check and
    the determinism check are one rule.
    """
    first = passes[0]["outcomes"]
    verdicts = [score_command(cmd, o, seed, workdir) for cmd, o in zip(commands, first)]
    reference = [(o.returncode, normalized(o.stdout)) for o in first]
    failed, identical = 0, True
    notes = [f"{' '.join(cmd.argv)} --seed {seed}: {note}"
             for cmd, (_, _, ns) in zip(commands, verdicts) for note in ns]
    for k, p in enumerate(passes):
        for cmd, o, ref, (bad, _, _) in zip(commands, p["outcomes"], reference, verdicts):
            same = (o.returncode, normalized(o.stdout)) == ref
            identical &= same
            failed += bad if same else cmd.items
            if not same:
                notes.append(f"{' '.join(cmd.argv)} --seed {seed}: "
                             f"pass {k} printed another report stream than pass 0")
    headrooms = [h for _, hs, _ in verdicts for h in hs]
    return {"attempted": len(passes) * sum(c.items for c in commands), "failed": failed,
            "identical": identical, "failures": notes,
            "headroom_decades": min(headrooms) if headrooms else 0.0}


# --- metrics ----------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metric -> unit.  ``*.self_s`` is span time minus child spans.
LAYER_UNITS = {
    "special_fn.f_weight.ell_calls": "count",
    "special_fn.f_weight.trig_calls": "count",
    "special_fn.f_weight.self_s": "s",
    "sampling.self_s": "s",
    "sampling.accept_ratio": "ratio",
    "yb_core.r_matrix.calls": "count",
    "yb_core.r_matrix.self_s": "s",
    "yb_core.monodromy_blocks.calls": "count",
    "yb_core.monodromy_blocks.self_s": "s",
    "yb_core.monodromy_blocks.cache_hit_ratio": "ratio",
    "yb_core.monodromy_blocks.cache_mb_computed": "MB",
    "yb_core.monodromy_blocks.gflop_computed": "GFLOP",
    "yb_core.verify_rll.self_s": "s",
    "yb_core.verify_dybe.self_s": "s",
    "lattice_qty.dwbc_partition.calls": "count",
    "lattice_qty.dwbc_partition.self_s": "s",
    "lattice_qty.scalar_product_bf.calls": "count",
    "lattice_qty.scalar_product_bf.self_s": "s",
    "lattice_qty.hw_action_residuals.calls": "count",
    "lattice_qty.hw_action_residuals.self_s": "s",
    "feq.verify_identity.self_s": "s",
    "feq.fx_residual.self_s": "s",
    "feq.snad_residuals.self_s": "s",
    "residue_int.z_contour.self_s": "s",
    "residue_int.sn_contour.self_s": "s",
    "residue_int.terms": "count",
    "residue_int.terms_per_s": "1/s",
    "pde.interpolate_zbar.self_s": "s",
    "pde.interpolate_zbar.z_evals": "count",
    "pde.omega_actions.self_s": "s",
    "pde.omega_leading_apply.self_s": "s",
    "pde.dia_realized.self_s": "s",
    **{f"cli.check.{name}.s": "s" for name in PINNED_TOL},
    "trace.overhead_s": "s",
}

SAMPLING_SPANS = ("sampling.draw_point", "sampling.sample_spectral",
                  "sampling.sample_theta", "sampling.sample_mu")


def merge_stats(stats: list[dict]) -> tuple[dict, dict, dict]:
    """Sum span rows, counters and cache totals over the commands of a pass."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    cache = {"hits": 0, "misses": 0, "mb": 0.0, "gflop": 0.0}
    for s in stats:
        for name, row in s.get("spans", {}).items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in s.get("counters", {}).items():
            if name != "monodromy_blocks.L":
                counters[name] = counters.get(name, 0) + value
        hits, misses = s.get("cache", {}).get("hits", 0), s.get("cache", {}).get("misses", 0)
        cache["hits"] += hits
        cache["misses"] += misses
        L = s.get("counters", {}).get("monodromy_blocks.L", 0)
        if L:
            n = 1 << (L + 1)  # auxiliary x chain; each miss multiplies L dense n x n factors
            cache["mb"] += misses * 4 * (1 << L) ** 2 * 16 / 1e6
            cache["gflop"] += misses * L * 8 * n ** 3 / 1e9
    return spans, counters, cache


def layer_metrics(stats: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (no ``trace.overhead_s``)."""
    spans, counters, cache = merge_stats(stats)
    span = lambda name, key="self_s": spans.get(name, {}).get(key, 0)
    m = {
        "special_fn.f_weight.ell_calls": counters.get("f_weight.ell_calls", 0),
        "special_fn.f_weight.trig_calls": counters.get("f_weight.trig_calls", 0),
        "special_fn.f_weight.self_s": span("special_fn.f_weight"),
        "sampling.self_s": sum(span(n) for n in SAMPLING_SPANS),
        "sampling.accept_ratio": counters.get("sampling.points", 0)
        / max(span("sampling.draw_point", "calls"), 1),
        "yb_core.monodromy_blocks.cache_hit_ratio": cache["hits"]
        / max(cache["hits"] + cache["misses"], 1),
        "yb_core.monodromy_blocks.cache_mb_computed": cache["mb"],
        "yb_core.monodromy_blocks.gflop_computed": cache["gflop"],
        "residue_int.terms": counters.get("residue_int.terms", 0),
        "pde.interpolate_zbar.z_evals": counters.get("interpolate_zbar.z_evals", 0),
    }
    residue_s = span("residue_int.z_contour", "total_s") + span("residue_int.sn_contour",
                                                                "total_s")
    m["residue_int.terms_per_s"] = m["residue_int.terms"] / residue_s if residue_s else 0.0
    for name in LAYER_UNITS:
        if name in m or name == "trace.overhead_s":
            continue
        if name.startswith("cli.check."):
            m[name] = span(name[:-2], "total_s")
        else:
            base, key = name.rsplit(".", 1)
            m[name] = span(base, key)
    return m


def median_dict(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# --- running a workload -----------------------------------------------------

def calibrate() -> float:
    """Seconds for a fixed amount of complex arithmetic in the interpreter."""
    t0 = time.perf_counter()
    z = 0j
    for k in range(CAL_LOOP):
        z += cmath.sin(k * 1e-3 + 0.5j) * (0.3 + 0.1j)
    return time.perf_counter() - t0


def repeat(body, seconds: float) -> list:
    """Call ``body`` until another call of the mean length would pass ``seconds``."""
    t0 = time.perf_counter()
    results = []
    while True:
        results.append(body())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def command_medians(passes: list[dict]) -> float:
    """Sum over commands of the median calibrated time of that command.

    Each command is calibrated on its own: a pass of several commands
    lasts seconds, longer than the machine keeps one speed.
    """
    per_command = zip(*(p["outcomes"] for p in passes))
    return sum(statistics.median(o.calibrated_s for o in runs) for runs in per_command)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    commands = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "trace": int(trace)}
    clock = Calibrator()
    if trace:
        pairs = repeat(lambda: (run_pass(commands, seed, workdir, clock),
                                run_pass(commands, seed, workdir, clock, True)), seconds)
        plain = [p for p, _ in pairs]
        traced = [t for _, t in pairs]
        score = score_passes(commands, plain + traced, seed, workdir)
        metrics = median_dict([layer_metrics(t["stats"]) for t in traced])
        metrics["trace.overhead_s"] = command_medians(traced) - command_medians(plain)
        units = LAYER_UNITS
        setup_ok = True
    else:
        setup, setup_ok = measure_setup(commands, seed, workdir, clock)
        plain = repeat(lambda: run_pass(commands, seed, workdir, clock), seconds)
        traced = []
        score = score_passes(commands, plain, seed, workdir)
        metrics = {"wall_s": command_medians(plain),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain)}
        units = END_TO_END_UNITS
        record["headroom_decades"] = score["headroom_decades"]
    # One row per pass, one column per command; untraced passes first.
    record["raw_s"] = [[o.seconds for o in p["outcomes"]] for p in plain + traced]
    record["speed"] = [[o.speed for o in p["outcomes"]] for p in plain + traced]
    record.update(attempted=score["attempted"], failed=score["failed"],
                  fail_ratio=score["failed"] / score["attempted"],
                  identical_streams=score["identical"], failures=score["failures"],
                  correct=score["failed"] == 0 and score["identical"] and setup_ok,
                  metrics={k: {"value": metrics[k], "unit": units[k]} for k in units})
    return record


def machine_block() -> dict:
    probe = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True,
                           text=True, env=child_env(), timeout=60)
    try:
        numpy_info = json.loads(probe.stdout)
    except json.JSONDecodeError:
        numpy_info = {"numpy": None, "blas": None}
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    version = re.search(r'__version__\s*=\s*"([^"]+)"',
                        (SRC / "yblab" / "__init__.py").read_text(encoding="utf-8"))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_commit = None
    return {"record": "machine", "cpu_count": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), **numpy_info,
            "blas_threads": 1, "yblab": version.group(1) if version else None,
            "git_commit": git_commit}


def print_result(result: dict) -> None:
    """The workload record, then one line per metric with its unit."""
    summary = {k: v for k, v in result.items() if k != "metrics"}
    print(json.dumps({"record": "workload", **summary}))
    undeclared = {k: {"value": result[k], "unit": unit}
                  for k, unit in (("fail_ratio", "ratio"), ("headroom_decades", "decades"))
                  if k in result}
    for name, metric in {**result["metrics"], **undeclared}.items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "yblab" / "cli.py").is_file():
        print(f"perfbench: no yblab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    print(json.dumps({**machine_block(), "seed": args.seed}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.workload == "all" else (bool(args.trace),)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        results = [run_workload(name, args.seed, args.seconds, trace, workdir)
                   for name in names for trace in traces]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for result in results:
        print_result(result)
        for note in result["failures"]:
            print(f"perfbench: {result['workload']}: failed: {note}", file=sys.stderr)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
