"""The committed record corpus: report streams as a tier-1 test.

``tests/records/<name>.jsonl`` holds, for each command line of
:data:`COMMANDS`, a header (the command line, its exit code and the
numpy version that wrote the file) and one digest per stdout line: the
check, sample index, verdict, ``repr`` of the residual (of each route's
value for ``compute``) and a sha256 of the line without
``wall_time_ms``.  On the numpy that wrote the corpus every digest must
match exactly.  On any other numpy the verdicts and exit code must match
and each residual must agree to an absolute ``CROSS_BUILD_TOL`` (a
residual is already relative, and one near 1e-16 carries no relative
digits); ``compute`` values must agree to that relative tolerance.  Each
case prints its largest move (``pytest -rP`` shows it).

:func:`run_digests` is the one reader of report streams in the tests:
the stream-equality tests of ``test_cli.py`` compare its output with and
without their substitution.

Regenerate after a change that moves streams, and log the printed moves::

    PYTHONPATH=src python tests/test_records.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from yblab import cli

RECORDS = pathlib.Path(__file__).resolve().parent / "records"
CROSS_BUILD_TOL = 1e-13

_ELLIPTIC = "dybe,rll,hw-actions,identities,fx,z-contour-vs-bf,dia-realization"
_ALL = ",".join(cli.REGISTRY)
_OPERATORS = ["--checks", "identities,hw-actions,rll", "--seed", "1"]
_FIVE = ["--samples", "5", "--seed", "1"]

#: Corpus file name and ``yblab`` arguments of each command line, every
#: benchmark command line at seed 1 among them.
COMMANDS: dict[str, list[str]] = {
    # the run-elliptic and run-trig benchmark argument sets, at the benchmark's
    # seed 1 and two more; the elliptic set exits 1 at seed 1999951809
    **{f"run-elliptic-seed{s}": ["run", "--L", "4", "--checks", _ELLIPTIC,
                                 "--samples", "20", "--seed", str(s)]
       for s in (1, 2, 1999951809)},
    **{f"run-trig-seed{s}": ["run", "--trig", "--L", "4", "--checks", _ALL,
                             "--samples", "20", "--seed", str(s)]
       for s in (1, 2, 1999951809)},
    # neither the benchmark nor the acceptance tests run the identity or RLL
    # checks above L = 4; both regimes must pass at L = 6
    "run-L6-operators": ["run", "--L", "6", *_OPERATORS],
    "run-trig-L6-operators": ["run", "--trig", "--L", "6", *_OPERATORS],
    # the equations' terms run as the columns of one block word; the
    # benchmark runs them at L = 4 only, so both regimes must pass at L = 6
    "run-L6-equations": ["run", "--L", "6", "--checks", "fx,z-contour-vs-bf", *_FIVE],
    "run-trig-L6-equations": ["run", "--trig", "--L", "6", "--checks",
                              "fx,snad,fzt,z-contour-vs-bf,sn-contour-vs-bf", *_FIVE],
    # at L = 10 an equation's word passes 256 KB, the size at which the
    # kernel's rounding used to change: numpy elided a temporary there
    "run-L10-equations": ["run", "--L", "10", "--checks", "fx", *_FIVE],
    "run-trig-L10-equations": ["run", "--trig", "--L", "10", "--checks", "fx,snad,fzt", *_FIVE],
    # at nome 0.85+0.1i most weights take more than the theta series'
    # first chunk of terms, and residuals miss their gates
    "run-L2-nome-0.85+0.1i": ["run", "--L", "2", "--nome", "0.85,0.1", "--seed", "2"],
    # every check ends each sample with an error record: sinh(gamma) overflows
    "run-trig-gamma-400-errors": ["run", "--trig", "--L", "3", "--gamma", "400,0", "--checks",
                                  "hw-actions,z-contour-vs-bf,sn-contour-vs-bf",
                                  "--samples", "2", "--seed", "1"],
    **{f"compute-{q}-{route}": ["compute", q, *(["--trig"] if q == "sn" else []),
                                "--L", "4", "--method", route, "--seed", "1"]
       for q, routes in cli.ROUTES.items() for route in routes},
    # the bf-L8 and contour-frontier benchmark command lines
    "bf-L8-z": ["compute", "z", "--L", "8", "--method", "bruteforce", "--seed", "1"],
    "bf-L8-trig-z": ["compute", "z", "--trig", "--L", "8", "--method", "bruteforce",
                     "--seed", "1"],
    "bf-L8-trig-sn": ["compute", "sn", "--trig", "--L", "8", "--n", "4", "--method",
                      "bruteforce", "--seed", "1"],
    "contour-frontier-z": ["compute", "z", "--L", "6", "--method", "contour", "--seed", "1"],
    "contour-frontier-trig-z": ["compute", "z", "--trig", "--L", "7", "--method", "contour",
                                "--seed", "1"],
    "contour-frontier-trig-sn": ["compute", "sn", "--trig", "--L", "6", "--n", "5", "--method",
                                 "contour", "--seed", "1"],
}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def parse_line(line: str) -> dict:
    """One report line, parsed strictly: NaN and Infinity are not JSON."""
    return json.loads(line, parse_constant=_reject_constant)


def run_digests(argv: list[str]) -> tuple[int, str, list[dict]]:
    """Exit code, standard error and one digest per stdout line of ``yblab
    argv``, run in process; an exception out of ``cli.main`` propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digests = []
    for line in out.getvalue().splitlines():
        rec = parse_line(line)
        rec.pop("wall_time_ms", None)
        digest = {k: rec[k] for k in ("record", "check", "sample_index", "pass") if k in rec}
        if "residual" in rec:
            digest["residual"] = repr(rec["residual"])
        routes = cli.ROUTES.get(rec.get("record", "").removeprefix("compute-"), {})
        if routes:
            digest["values"] = {r: repr(complex(*rec[r])) for r in routes if r in rec}
        digest["sha256"] = hashlib.sha256(
            json.dumps(rec, allow_nan=False).encode()).hexdigest()
        digests.append(digest)
    return code, err.getvalue(), digests


def read(name: str) -> tuple[dict, list[dict]]:
    header, *digests = (json.loads(line) for line in
                        (RECORDS / f"{name}.jsonl").read_text(encoding="utf-8").splitlines())
    return header, digests


def move(old: dict, new: dict) -> float:
    """The absolute change of the residual, or the largest relative change of
    a route's value; inf where a residual is there on one side only."""
    a, b = old.get("residual"), new.get("residual")
    if a != b:
        return abs(float(a) - float(b)) if "None" not in (a, b) else math.inf
    pairs = [(complex(old["values"][r]), complex(v)) for r, v in new.get("values", {}).items()]
    return max((abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in pairs), default=0.0)


def verdicts(digests: list[dict]) -> list[tuple]:
    return [(d.get("record"), d.get("check"), d.get("sample_index"), d.get("pass"))
            for d in digests]


def test_corpus_lists_every_command_line():
    assert sorted(p.stem for p in RECORDS.glob("*.jsonl")) == sorted(COMMANDS)


def test_corpus_holds_every_benchmark_command_line():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", RECORDS.parent.parent / "perfbench" / "run.py")
    # dataclasses look their module up in sys.modules
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    lines = [bench.yblab_argv(cmd, 1) for cmds in bench.WORKLOADS.values() for cmd in cmds]
    assert [argv for argv in lines if argv not in COMMANDS.values()] == []


def test_ci_pins_the_corpus_numpy():
    # one CI leg runs the numpy that wrote the corpus, the only one on which
    # every digest is compared: a corpus written on another numpy moves the pin
    workflow = RECORDS.parent.parent / ".github" / "workflows" / "tier1.yml"
    pins = re.findall(r'numpy: "numpy==(\d+(?:\.\d+)*)"', workflow.read_text(encoding="utf-8"))
    assert len(pins) == 1
    assert {read(name)[0]["numpy"] for name in COMMANDS} == set(pins)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stream_matches_corpus(name):
    header, old = read(name)
    assert header["argv"] == COMMANDS[name]
    code, _, new = run_digests(COMMANDS[name])
    assert code == header["exit_code"]
    assert verdicts(new) == verdicts(old)
    moves = [move(a, b) for a, b in zip(old, new)]
    largest = max(moves)
    print(f"{name}: numpy {np.__version__} (corpus: numpy {header['numpy']}), "
          f"{sum(a != b for a, b in zip(old, new))} of {len(old)} records moved, "
          f"largest move {largest:.3g}")
    if header["numpy"] == np.__version__:
        assert new == old
    else:
        assert largest <= CROSS_BUILD_TOL


def regenerate() -> None:
    """Rewrite every corpus file; print, per check, the records moved, the largest
    move (inf where a record was added or dropped, or lost or gained its residual)
    and the verdicts changed."""
    for name, argv in COMMANDS.items():
        path = RECORDS / f"{name}.jsonl"
        old = read(name)[1] if path.exists() else None
        code, _, new = run_digests(argv)
        header = {"argv": argv, "exit_code": code, "numpy": np.__version__}
        path.write_text("".join(json.dumps(d) + "\n" for d in [header] + new), encoding="utf-8")
        print(f"{name}: exit code {code}, {len(new)} records{'' if old else ', new file'}")
        if old is None:
            continue
        moved: dict[str, list[tuple[dict, dict]]] = {}
        for a, b in itertools.zip_longest(old, new, fillvalue={}):
            if a != b:
                name_of = b or a
                moved.setdefault(name_of.get("check") or name_of.get("record"), []).append((a, b))
        for check, pairs in moved.items():
            largest = max(move(a, b) if a and b else math.inf for a, b in pairs)
            flips = sum(a.get("pass") != b.get("pass") for a, b in pairs)
            print(f"  {check}: {len(pairs)} records moved, largest move {largest:.3g}, "
                  f"{flips} verdicts changed")


if __name__ == "__main__":
    regenerate()
