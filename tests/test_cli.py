import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import yblab
import yblab.cli as cli
from yblab import errors, feq, pde, sampling, special_fn, yb_core
from yblab.errors import DynamicalPole, InterpolationIllConditioned

from oracles import (f_literal, fzt_coefficients_literal, omega_actions_literal,
                     omega_leading_apply_literal, theta1_literal)
from test_records import parse_line, read, run_digests


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_records(out):
    # every line must parse on its own, strictly (no NaN or Infinity): the
    # stream is valid JSON even truncated
    return [parse_line(ln) for ln in out.splitlines() if ln.strip()]


def test_run_happy_path(capsys):
    code, out, _ = run_cli(["run", "--checks", "dybe", "--samples", "3",
                            "--seed", "42"], capsys)
    assert code == 0
    records = parse_records(out)
    assert records[0]["record"] == "model"
    samples = [r for r in records if r.get("check") == "dybe"]
    assert len(samples) == 3
    for k, rec in enumerate(samples):
        assert rec["sample_index"] == k
        assert rec["pass"] is True
        assert rec["residual"] <= rec["tolerance"] == 1e-9
        assert rec["seed"] == 42
        assert "wall_time_ms" in rec and "params" in rec


def test_run_hundred_samples_all_pass(capsys):
    code, out, _ = run_cli(["run", "--checks", "dybe", "--samples", "100",
                            "--seed", "42"], capsys)
    assert code == 0
    samples = [r for r in parse_records(out) if r.get("check") == "dybe"]
    assert len(samples) == 100
    assert all(r["pass"] for r in samples)


def test_run_deterministic_across_invocations(capsys):
    args = ["run", "--checks", "dybe,fx", "--samples", "3", "--seed", "7"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    res1 = [r["residual"] for r in parse_records(out1) if "residual" in r]
    res2 = [r["residual"] for r in parse_records(out2) if "residual" in r]
    assert res1 == res2 and len(res1) == 6


ELLIPTIC_RUN_CHECKS = "dybe,rll,hw-actions,identities,fx,z-contour-vs-bf,dia-realization"


def numpy_generator(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("flags", [
    ["run", "--checks", ELLIPTIC_RUN_CHECKS],
    ["run", "--trig", "--checks", ",".join(cli.REGISTRY)],
    ["compute", "z", "--method", "both"],
    ["compute", "sn", "--trig", "--method", "both"]])
def test_report_streams_are_numpy_generator_streams(monkeypatch, flags, L, seed):
    # the reports do not change when numpy's Generator replaces the stream
    args = flags + ["--L", str(L), "--seed", str(seed)]
    shipped = run_digests(args)
    monkeypatch.setattr(cli, "Stream", numpy_generator)
    assert run_digests(args) == shipped
    assert shipped[2]


def _run_fresh(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports yblab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_benchmark_commands_do_not_import_numpy_random():
    # the command lines of all four benchmark workloads, the random
    # polynomials of dia-realization and pde-leading included, never load
    # numpy.random
    code = ("import sys, numpy\n"
            "if 'numpy.random' in sys.modules:\n"
            "    sys.exit(3)  # numpy itself loads it\n"
            "from yblab import cli\n"
            "for argv in [\n"
            f"        'run --L 4 --checks {ELLIPTIC_RUN_CHECKS} --samples 20',\n"
            f"        'run --trig --L 4 --checks {','.join(cli.REGISTRY)} --samples 20',\n"
            "        'compute z --L 8 --method bruteforce',\n"
            "        'compute z --trig --L 8 --method bruteforce',\n"
            "        'compute sn --trig --L 8 --n 4 --method bruteforce',\n"
            "        'compute z --L 6 --method contour',\n"
            "        'compute z --trig --L 7 --method contour',\n"
            "        'compute sn --trig --L 6 --n 5 --method contour']:\n"
            "    assert cli.main(argv.split() + ['--seed', '1']) == 0, argv\n"
            "assert 'numpy.random' not in sys.modules\n")
    proc = _run_fresh(code, timeout=300)
    if proc.returncode == 3:
        pytest.skip("import numpy alone loads numpy.random on this numpy")
    assert proc.returncode == 0, proc.stderr


def test_compute_never_executes_the_check_only_layers():
    # feq and pde load at their first attribute read, which only run's checks make
    code = ("import sys\n"
            "from yblab import cli\n"
            "assert cli.main(['compute', 'z', '--L', '4', '--method', 'contour',\n"
            "                 '--seed', '1']) == 0\n"
            "for n in ('yblab.feq', 'yblab.pde'):\n"
            "    own = object.__getattribute__(sys.modules[n], '__dict__')\n"
            "    assert not {'IDENTITIES', 'MultiPoly'} & own.keys(), n\n")
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first", ["feq", "cli"])
def test_each_layer_module_exists_once(first):
    # imported before cli or after it, feq is one module object, reachable as yblab.feq
    imports = ["import yblab.feq", "from yblab import cli"]
    code = ("\n".join(imports if first == "feq" else imports[::-1]) + "\n"
            "import sys, yblab\n"
            "assert yblab.feq is sys.modules['yblab.feq'] is cli.feq\n"
            "assert callable(yblab.feq.verify_identity)\n")
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_run_unknown_check_is_config_error(capsys):
    code, _, err = run_cli(["run", "--checks", "nonsense"], capsys)
    assert code == 2
    assert "configuration error: --checks: unknown check 'nonsense'; known: " in err


def test_run_trig_only_check_on_elliptic_model(capsys):
    code, _, err = run_cli(["run", "--checks", "snad", "--samples", "1"], capsys)
    assert code == 2
    assert "trigonometric" in err


def test_run_check_named_twice_is_config_error(capsys):
    code, out, err = run_cli(["run", "--checks", "dybe,rll,dybe", "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: --checks: check 'dybe' named twice" in err


def test_run_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--checks", "dybe", "--samples", "1", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_run_config_flag_is_gone(capsys):
    # flags are the only input: there is no configuration file to read
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", "x.yaml"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_run_without_config_does_not_import_yaml():
    # with every import of yaml made to fail, run and compute still work
    code = ("import sys\n"
            "sys.modules['yaml'] = None\n"
            "from yblab import cli\n"
            "assert cli.main(['run', '--L', '2', '--checks', 'dybe', '--samples', '1',\n"
            "                 '--seed', '1']) == 0\n"
            "assert cli.main(['compute', 'z', '--L', '2', '--seed', '1']) == 0\n")
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args, message", [
    (["--L", "11"], "--L: expected an integer in 1..10, got 11"),
    (["--seed", "-1"], "--seed: expected an unsigned 64-bit integer, got -1"),
    (["--samples", "0"], "--samples: expected a positive integer, got 0"),
    (["--L", "3", "--mu", "0.1,0;0.2,0"], "--mu: length 2 does not match --L = 3"),
], ids=["L", "seed", "samples", "mu"])
def test_range_error_names_the_flag(capsys, args, message):
    code, out, err = run_cli(["run", "--checks", "dybe"] + args, capsys)
    assert code == 2 and out == ""
    assert f"configuration error: {message}" in err


@pytest.mark.parametrize("regime", [[], ["--trig"]])
def test_run_overflowing_gamma_is_config_error(capsys, regime):
    code, out, err = run_cli(["run", "--L", "2", "--gamma", "800,0", "--checks", "dybe"]
                             + regime, capsys)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: model: gamma = (800+0j): "
                          "the weight f(gamma) overflows")


@pytest.mark.parametrize("gamma, checks", [("120,0", ["rll"]),
                                           ("200,0", ["rll", "hw-actions"])])
def test_run_non_finite_values_become_error_records(capsys, gamma, checks):
    # sinh(gamma) this large overflows the products inside the checks
    code, out, err = run_cli(["run", "--trig", "--L", "4", "--gamma", gamma,
                              "--checks", ",".join(checks), "--samples", "1",
                              "--seed", "1"], capsys)
    assert code == 1
    assert "Traceback" not in out + err
    records = [r for r in parse_records(out) if "check" in r]
    assert [r["check"] for r in records] == checks  # one record per sample
    for rec in records:
        assert rec["residual"] is None and rec["pass"] is False
        assert rec["error"].startswith("NonFinite")


def test_run_oracle_comparison_error_names_its_route(capsys):
    # the bruteforce route is evaluated first and returns nan; the contour
    # route, which would overflow, is not reached, as in ``compute``
    checks = ["z-contour-vs-bf", "sn-contour-vs-bf"]
    code, out, err = run_cli(["run", "--trig", "--L", "3", "--gamma", "400,0", "--checks",
                              ",".join(checks), "--samples", "2", "--seed", "1"], capsys)
    assert code == 1
    records = [r for r in parse_records(out) if "check" in r]
    assert [r["check"] for r in records] == [c for c in checks for _ in range(2)]
    for rec in records:
        assert rec["residual"] is None and rec["pass"] is False
        assert rec["error"] == "NonFinite: bruteforce value is (nan+nanj)"


@pytest.mark.parametrize("check, module, name, inject", [
    ("hw-actions", cli, "hw_action_residuals", lambda res: {**res, "A_ket_down": math.nan}),
    ("snad", feq, "snad_residuals", lambda res: (res[0], math.nan)),
    ("pde-omega", pde, "omega_actions", lambda acts: dataclasses.replace(
        acts, coefficients=(*acts.coefficients[:-1], complex(math.nan, 0.0)))),
], ids=["hw-actions", "snad", "pde-omega"])
def test_run_nan_component_fails_its_sample(monkeypatch, capsys, check, module, name, inject):
    # a check's residual is the worst of several; Python's max keeps a
    # finite value over a NaN after it, so the NaN comes last here
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: inject(original(*args)))
    code, out, _ = run_cli(["run", "--trig", "--L", "2", "--checks", check,
                            "--samples", "2", "--seed", "1"], capsys)
    assert code == 1
    records = [r for r in parse_records(out) if "check" in r]
    assert len(records) == 2
    for rec in records:
        assert rec["residual"] is None and rec["pass"] is False
        assert rec["error"] == "NonFinite: residual is nan"


def test_run_mu_length_mismatch(capsys):
    for command in (["run", "--checks", "dybe"], ["compute", "z"]):
        code, out, err = run_cli(command + ["--L", "3", "--mu", "0.1,0;0.2,0"], capsys)
        assert code == 2 and out == ""
        assert "configuration error: --mu: length 2 does not match --L = 3" in err


def test_run_injected_zero_tolerance_fails(monkeypatch, capsys):
    # the gate compares each residual with the registry's tolerance
    monkeypatch.setitem(cli.REGISTRY, "dybe", dataclasses.replace(
        cli.REGISTRY["dybe"], tolerance=0.0))
    code, out, _ = run_cli(["run", "--checks", "dybe", "--samples", "2", "--seed", "1"],
                           capsys)
    assert code == 1
    samples = [r for r in parse_records(out) if r.get("check") == "dybe"]
    assert len(samples) == 2
    assert all(r["pass"] is False and r["tolerance"] == 0.0 for r in samples)


def test_run_error_records_do_not_abort(monkeypatch, capsys):
    original = cli.REGISTRY["dybe"]

    def explode(ctx, params, state):
        if params["_k"][0] == 0:
            raise DynamicalPole("synthetic pole")
        return 0.0

    def draw(ctx, rng, _counter=[0]):
        k = _counter[0]
        _counter[0] += 1
        return {"_k": (k,)}

    monkeypatch.setitem(
        cli.REGISTRY, "dybe",
        cli.CheckDef(original.tolerance, original.trig_only, None, draw, explode))
    code, out, _ = run_cli(["run", "--checks", "dybe", "--samples", "2",
                            "--seed", "1"], capsys)
    samples = [r for r in parse_records(out) if r.get("check") == "dybe"]
    assert code == 1
    assert len(samples) == 2  # the suite kept going after the error
    assert samples[0]["error"].startswith("DynamicalPole")
    assert samples[0]["pass"] is False and samples[0]["residual"] is None
    assert samples[1]["pass"] is True


def test_run_writes_each_record_before_the_next_draw(monkeypatch):
    # a run killed mid-check keeps the records of every finished sample
    out, drawn = io.StringIO(), []

    def draw(ctx, rng):
        written = [r for r in parse_records(out.getvalue()) if "check" in r]
        assert len(written) == len(drawn)
        drawn.append(len(drawn))
        return {}

    monkeypatch.setitem(cli.REGISTRY, "dybe", dataclasses.replace(
        cli.REGISTRY["dybe"], draw=draw, evaluate=lambda ctx, params, state: 0.0))
    args = cli.make_parser().parse_args(["run", "--checks", "dybe", "--samples", "3",
                                         "--seed", "1"])
    assert cli.run_suite(cli.build_config(args), out=out) == 0
    assert drawn == [0, 1, 2]


def test_run_memory_does_not_grow_with_samples():
    def peak_bytes(samples):
        args = cli.make_parser().parse_args(
            ["run", "--L", "1", "--checks", "dia-realization", "--samples", str(samples),
             "--seed", "1"])
        cfg = cli.build_config(args)
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                assert cli.run_suite(cfg, out=sink) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak_bytes(1)  # first-use imports and caches
    assert peak_bytes(500) - peak_bytes(50) < 0.5e6


def test_run_sampler_exhaustion_becomes_error_record(monkeypatch, capsys):
    # a refusal radius wider than the lattice cell refuses every candidate;
    # the draw gives up and the run goes on to the next check
    monkeypatch.setattr(sampling, "ZERO_RADIUS", 10.0)
    code, out, err = run_cli(["run", "--L", "3", "--samples", "2",
                              "--checks", "dybe,dia-realization", "--seed", "1"], capsys)
    assert code == 1
    assert "Traceback" not in out + err
    records = parse_records(out)  # every stdout line is JSON
    dybe = [r for r in records if r.get("check") == "dybe"]
    assert len(dybe) == 1
    assert dybe[0]["sample_index"] == 0 and dybe[0]["residual"] is None
    assert dybe[0]["pass"] is False
    assert dybe[0]["error"].startswith("SamplingExhausted")
    later = [r for r in records if r.get("check") == "dia-realization"]
    assert len(later) == 2 and all(r["pass"] for r in later)


def test_run_draws_near_the_nome_cap(capsys):
    # at nome 0.89 |f| is below 1e-7 near every zero, but the lattice rule
    # refuses only points near a zero, so every sample is drawn and evaluated
    code, out, _ = run_cli(["run", "--L", "3", "--nome", "0.89,0", "--checks", "dybe",
                            "--samples", "2", "--seed", "1"], capsys)
    dybe = [r for r in parse_records(out) if r.get("check") == "dybe"]
    assert [r["sample_index"] for r in dybe] == [0, 1]
    assert all("error" not in r and math.isfinite(r["residual"]) for r in dybe)
    assert code == int(not all(r["pass"] for r in dybe))


def test_run_prepare_failure_becomes_error_record(monkeypatch, capsys):
    def fail(ctx, rng):
        raise InterpolationIllConditioned("synthetic ill-conditioned fit")

    original = cli.REGISTRY["dybe"]
    monkeypatch.setitem(cli.REGISTRY, "dybe", dataclasses.replace(original, prepare=fail))
    code, out, _ = run_cli(["run", "--checks", "dybe,dia-realization", "--samples", "2",
                            "--seed", "1"], capsys)
    assert code == 1
    records = [r for r in parse_records(out) if "check" in r]
    assert [r["check"] for r in records] == ["dybe"] + ["dia-realization"] * 2
    assert records[0]["error"] == \
        "InterpolationIllConditioned: synthetic ill-conditioned fit"
    assert records[0]["pass"] is False and records[0]["residual"] is None


def test_run_all_trig_checks_small(capsys):
    code, out, _ = run_cli(["run", "--trig", "--L", "2", "--samples", "2",
                            "--seed", "3",
                            "--checks", "snad,sn-contour-vs-bf,fzt,dia-realization"],
                           capsys)
    assert code == 0
    records = [r for r in parse_records(out) if "check" in r]
    assert len(records) == 8 and all(r["pass"] for r in records)


@pytest.mark.parametrize("seed", [961051012, 1583447950, 1596456712, 542884616,
                                  1303098497, 1807387937])
def test_run_pde_checks_pass_on_failure_table_seeds(seed, capsys):
    # the pde-* rows of perfbench/README.md's failure table; three of these
    # seeds failed while the interpolation grid was drawn at random
    code, _, err = run_cli(["run", "--trig", "--L", "4", "--checks", "pde-omega,pde-leading",
                            "--samples", "20", "--seed", str(seed)], capsys)
    assert code == 0, err


def test_run_closed_stdout_ends_quietly():
    # the reader stops after the header line, as `| head -1` does; 500
    # records overfill the pipe buffer, so a later write must hit the
    # closed pipe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with subprocess.Popen(
            [sys.executable, "-m", "yblab.cli", "run", "--L", "2", "--checks", "dybe",
             "--samples", "500", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert json.loads(proc.stdout.readline())["record"] == "model"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipe" not in err, err


def test_run_report_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run_cli(["run", "--checks", "dybe", "--samples", "2",
                          "--seed", "5", "--out", str(out_path)], capsys)
    assert code == 0
    records = parse_records(out_path.read_text())
    assert sum(1 for r in records if r.get("check") == "dybe") == 2


def test_run_oracle_comparison_records_carry_both_values(capsys):
    for check, flags, tol in [("z-contour-vs-bf", [], 1e-8),
                              ("sn-contour-vs-bf", ["--trig"], 1e-6)]:
        code, out, _ = run_cli(["run", *flags, "--checks", check, "--L", "3",
                                "--samples", "2", "--seed", "2"], capsys)
        assert code == 0
        records = [r for r in parse_records(out) if "check" in r]
        assert len(records) == 2
        for rec in records:
            assert "value_contour" in rec["params"]
            assert "value_bruteforce" in rec["params"]
            assert rec["residual"] <= tol


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


@pytest.mark.parametrize("quantity", ["z", "sn"])
def test_compute_methods_are_the_route_table(quantity):
    sub = _subparser(_subparser(cli.make_parser(), "compute"), quantity)
    method = next(a for a in sub._actions if a.dest == "method")
    assert tuple(method.choices) == (*cli.ROUTES[quantity], "both")
    assert list(cli.ROUTES[quantity]) == ["bruteforce", "contour"]


@pytest.mark.parametrize("quantity, check, flags, names", [
    ("z", "z-contour-vs-bf", [], ("dwbc_partition", "z_contour")),
    ("sn", "sn-contour-vs-bf", ["--trig"], ("scalar_product_bf", "sn_contour")),
])
def test_routes_look_up_their_evaluators_per_call(monkeypatch, capsys, quantity, check,
                                                   flags, names):
    # a wrapper set on the module attribute after import (as a tracer does)
    # must see every evaluation that compute and the comparison check make
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    code, _, _ = run_cli(["compute", quantity, *flags, "--L", "2", "--seed", "1",
                          "--method", "both"], capsys)
    assert code == 0 and calls == list(names)
    calls.clear()
    code, _, _ = run_cli(["run", *flags, "--L", "2", "--checks", check, "--samples", "2",
                          "--seed", "1"], capsys)
    assert code == 0 and calls == list(names) * 2


def test_compute_z_both_methods_agree(capsys):
    code, out, _ = run_cli(["compute", "z", "--L", "2", "--seed", "9",
                            "--method", "both"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["rel_diff"] <= 1e-8


def test_compute_z_contour_single_site_closed_form(capsys):
    from yblab.special_fn import Regime
    args = ["compute", "z", "--L", "1", "--mu", "0.1,0.05", "--gamma", "0.41,0.07",
            "--points", "0.3,-0.1", "--theta", "0.8,0.2", "--method", "contour"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    record = json.loads(out)
    regime = Regime.elliptic(0.2)
    f = lambda z: f_literal(z, regime)
    g = 0.41 + 0.07j
    expected = f(g) * f((0.8 + 0.2j) + g - (0.3 - 0.1j) + (0.1 + 0.05j)) / f((0.8 + 0.2j) + g)
    got = complex(*record["contour"])
    assert abs(got - expected) < 1e-12 * abs(expected)


def test_compute_sn_empty_is_one(capsys):
    code, out, _ = run_cli(["compute", "sn", "--trig", "--L", "2", "--n", "0"],
                           capsys)
    assert code == 0
    record = json.loads(out)
    assert record["bruteforce"] == [1.0, 0.0]
    assert record["contour"] == [1.0, 0.0]


@pytest.mark.parametrize("gamma, method, error", [
    ("200,0", "both", "NonFinite"), ("400,0", "both", "NonFinite"),
    ("400,0", "contour", "OverflowError")],
    ids=["200,0-NonFinite", "400,0-NonFinite", "400,0-contour-OverflowError"])
def test_compute_non_finite_value_is_an_error(capsys, gamma, method, error):
    # at 400,0 the bruteforce route returns nan before the contour route overflows
    code, out, err = run_cli(["compute", "z", "--trig", "--L", "3", "--gamma", gamma,
                              "--method", method, "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert f"error: {error}: " in err


@pytest.mark.parametrize("args, stage, flags", [
    (["z", "--L", "2", "--nome", "0.89,0", "--mu", "1.7e308,0;0,0"], "the random point draw",
     "--mu"),
    (["z", "--L", "2", "--mu", "300,0;0,0"], "the bruteforce route", "--mu"),
    (["z", "--trig", "--L", "2", "--mu", "800,0;0,0"], "the bruteforce route", "--mu"),
    (["z", "--L", "2", "--points", "300,0;0.1,0"], "the bruteforce route", "--points"),
    (["sn", "--trig", "--L", "2", "--xb", "800,0", "--yc", "0.1,0"], "the bruteforce route",
     "--xb, --yc"),
])
def test_compute_overflow_names_its_stage_and_spectral_flags(capsys, args, stage, flags):
    # the draw's lattice reduction overflows rounding an infinite ratio to an
    # int; a route overflows in a weight
    reason = ("cannot convert float infinity to integer" if stage == "the random point draw"
              else "math range error")
    code, out, err = run_cli(["compute", *args], capsys)
    assert code == 1 and out == ""
    assert err == f"error: OverflowError: {reason} in {stage} ({flags} given)\n"


def test_overflowing_weight_products_write_no_warning():
    # at gamma = 200 an a weight is about e^200 / 2, so the weight products of
    # the fx, snad and pencil coefficients overflow before a guard refuses the
    # sample; they are Python products, which overflow without a RuntimeWarning
    checks = ["fx", "snad", "fzt", "pde-omega", "pde-leading", "hw-actions"]
    argv = ["run", "--trig", "--L", "4", "--gamma", "200,0", "--checks", ",".join(checks),
            "--samples", "3", "--seed", "1"]
    proc = _run_fresh(f"import sys\nfrom yblab import cli\nsys.exit(cli.main({argv!r}))")
    assert proc.returncode == 1
    assert proc.stderr == "".join(
        f"[{name}] 0/3 passed (tolerance {cli.REGISTRY[name].tolerance:g})\n" for name in checks)
    records = [parse_line(line) for line in proc.stdout.splitlines()]
    for rec in records:
        rec.pop("wall_time_ms", None)
    assert [rec["error"].split(":")[0] for rec in records[1:]] \
        == ["SingularCoefficient"] * 15 + ["NonFinite"] * 3
    if np.__version__ == read("run-trig-seed1")[0]["numpy"]:  # the corpus numpy pins every bit
        stream = "".join(json.dumps(rec, allow_nan=False) + "\n" for rec in records)
        assert hashlib.sha256(stream.encode()).hexdigest() \
            == "eff0a90616b36d63ba568fa34ac7515ebad6d984491e4392953b608015136ae8"


def test_compute_sn_rejects_elliptic(capsys):
    code, _, err = run_cli(["compute", "sn", "--L", "2", "--n", "1"], capsys)
    assert code == 2
    assert "trigonometric" in err


def test_run_nome_at_cap_is_config_error(capsys):
    code, out, err = run_cli(["run", "--nome", "0.95,0", "--checks", "dybe",
                              "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: --nome: |nome| = 0.95 >= 0.9" in err


@pytest.mark.parametrize("args", [
    ["run", "--nome", "0", "--checks", "dybe", "--samples", "1"],
    ["compute", "z", "--L", "2", "--nome", "0,0"]], ids=["run", "compute"])
def test_zero_nome_is_config_error(capsys, args):
    # at nome 0 the factor p^(1/4) is 0, so f vanishes everywhere, not only at gamma
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "configuration error: --nome: the nome must be nonzero" in err


def test_package_exports_every_error():
    # a caller catches any library error by its name on the package
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.YbLabError)]
    assert errors.ZeroNome in classes
    for cls in classes:
        assert getattr(yblab, cls.__name__) is cls and cls.__name__ in yblab.__all__


@pytest.mark.parametrize("args, flag", [
    (["run", "--trig", "--nome", "0.2,0", "--checks", "dybe", "--samples", "1"], "--nome"),
    (["run", "--trig", "--nome", "0.95,0", "--checks", "dybe", "--samples", "1"], "--nome"),
    (["compute", "z", "--trig", "--L", "2", "--nome", "0.95,0"], "--nome"),
    (["compute", "sn", "--trig", "--L", "2", "--nome", "0.2,0"], "--nome"),
    (["compute", "z", "--trig", "--L", "2", "--theta", "1,0"], "--theta"),
])
def test_trig_flag_it_does_not_read_is_config_error(capsys, args, flag):
    # the six-vertex weights have no nome, and the trigonometric Z no theta
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert f"configuration error: {flag}: " in err


@pytest.mark.parametrize("gamma", ["nan,0", "0,inf"])
def test_run_non_finite_parameter_is_config_error(capsys, gamma):
    code, out, err = run_cli(["run", "--trig", "--gamma", gamma, "--checks", "dybe",
                              "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert f"configuration error: --gamma: expected finite parts, got {gamma!r}" in err


@pytest.mark.parametrize("points, message", [
    (["--n", "3"], "--n: need 0..L = 0..2 points per side, got 3"),
    (["--xb", "0.1,0;0.2,0;0.3,0", "--yc", "0.4,0;0.5,0;0.6,0"],
     "--xb, --yc: need 0..L = 0..2 points per side, got 3"),
    (["--xb", "0.1,0;0.2,0", "--yc", "0.4,0"], "--xb, --yc: 2 and 1 points"),
    (["--xb", "0.1,0", "--yc", "0.2,0", "--n", "2"],
     "compute sn: --n counts random points; give it without --xb and --yc"),
])
@pytest.mark.parametrize("method", ["bruteforce", "contour"])
def test_compute_sn_point_count_is_validated(capsys, points, message, method):
    # brute force used to print 0 and the residue sum to fail with exit 1
    code, out, err = run_cli(["compute", "sn", "--trig", "--L", "2", "--method", method]
                             + points, capsys)
    assert code == 2 and out == ""
    assert f"configuration error: {message}" in err


def test_coincident_explicit_mu_is_config_error(capsys):
    code, out, err = run_cli(["run", "--L", "2", "--mu", "0.1,0;0.1,0",
                              "--checks", "dybe", "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: --mu: points 0 and 1 coincide" in err


@pytest.mark.parametrize("command, message", [
    (["z", "--points", "0.1,0;0.1,0"], "--points: points 0 and 1 coincide"),
    (["sn", "--trig", "--xb", "0.1,0;0.1,0", "--yc", "0.3,0;0.4,0"],
     "--xb and mu: points 0 and 1 coincide"),
    (["sn", "--trig", "--xb", "0.3,0;0.4,0", "--yc", "0.5,0;0.6,0"],
     "--yc and mu: points 0 and 2 coincide"),
])
@pytest.mark.parametrize("method", ["bruteforce", "contour", "both"])
def test_coincident_explicit_points_are_config_error(capsys, command, message, method):
    # brute force used to print a value and the residue sum to fail with exit 1
    code, out, err = run_cli(["compute"] + command + ["--L", "2", "--mu", "0.5,0;0.7,0",
                                                      "--method", method], capsys)
    assert code == 2 and out == ""
    assert f"configuration error: {message}" in err


@pytest.mark.parametrize("regime", [["--trig"], ["--nome", "0.2,0"]],
                         ids=["trig", "elliptic"])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_default_checks_end_cleanly_at_every_small_length(capsys, regime, L):
    # a run ends in records plus exit 0/1, or a configuration error: never a traceback
    code, out, err = run_cli(["run"] + regime + ["--L", str(L), "--samples", "1",
                                                 "--seed", "1"], capsys)
    assert code in (0, 1, 2)
    parse_records(out)
    assert "Traceback" not in err


def test_pde_checks_leave_the_defaults_beyond_l4(capsys):
    code, out, _ = run_cli(["run", "--trig", "--L", "5", "--samples", "1"], capsys)
    checks = parse_records(out)[0]["checks"]
    assert code in (0, 1) and checks
    assert "pde-omega" not in checks and "pde-leading" not in checks


@pytest.mark.parametrize("check", ["pde-omega", "pde-leading"])
def test_pde_check_beyond_l4_is_config_error(capsys, check):
    # the grid interpolation refuses L > 4; it used to end the stream in a traceback
    code, out, err = run_cli(["run", "--trig", "--L", "5", "--checks", check,
                              "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert f"configuration error: --checks: check {check!r} is defined for " \
           f"L = " in err and "got L = 5" in err


def test_pde_leading_is_undefined_at_one_site(capsys):
    # at L = 1 the leading operator is identically 0: agreement is rounding noise
    code, out, _ = run_cli(["run", "--trig", "--L", "1", "--samples", "1"], capsys)
    checks = parse_records(out)[0]["checks"]
    assert code == 0 and "pde-omega" in checks and "pde-leading" not in checks
    code, out, err = run_cli(["run", "--trig", "--L", "1", "--checks", "pde-leading",
                              "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: --checks: check 'pde-leading' is defined for " \
           "L = 2..4 only, got L = 1" in err


def test_unwritable_out_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.jsonl"
    code, out, err = run_cli(["run", "--checks", "dybe", "--samples", "1",
                              "--out", str(target)], capsys)
    assert code == 2 and out == "" and not target.exists()
    assert "configuration error: --out: " in err


RUN_ONE = ["run", "--L", "2", "--samples", "1"]


@pytest.mark.parametrize("args, detail, where", [
    (RUN_ONE + ["--checks", ""], None, "--checks"),
    (RUN_ONE + ["--checks", "dybe", "--gamma", ""], None, "--gamma"),
    (RUN_ONE + ["--checks", "dybe", "--nome", ""], None, "--nome"),
    (RUN_ONE + ["--checks", "dybe", "--mu", ""], None, "--mu"),
    (["compute", "z", "--L", "2", "--gamma", ""], "cannot parse complex number from ''",
     "--gamma"),
    (RUN_ONE + ["--checks", "dybe", "--out", ""], None, "--out"),
    (["compute", "z", "--L", "2", "--points", ""], None, "--points"),
    (["compute", "z", "--L", "2", "--theta", ""], None, "--theta"),
])
def test_empty_value_is_config_error(capsys, args, detail, where):
    # an empty value is read like any other, not taken for an absent one;
    # detail, when given, is the message expected after the flag's name
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert f"configuration error: {where}: {detail or ''}" in err


def test_compute_sn_empty_point_lists_are_zero_points(capsys):
    # --xb "" --yc "" list no point on either side, as --n 0 draws none
    args = ["compute", "sn", "--trig", "--L", "2", "--seed", "3"]
    empty = run_cli(args + ["--xb", "", "--yc", ""], capsys)
    assert empty == run_cli(args + ["--n", "0"], capsys)
    assert empty[0] == 0 and json.loads(empty[1])["xb"] == []


@pytest.mark.parametrize("args, flag, value", [
    (["compute", "z", "--L", "2"], "--points", "-0.3,0.1;0.2,0"),
    (["run"], "--nome", "-0.5,0")], ids=["points", "nome"])
def test_value_with_leading_minus_reads_as_its_equals_form(args, flag, value):
    # argparse takes "-0.3,0.1" for an option; main joins it to its flag
    joined = run_digests(args + [f"{flag}={value}"])
    assert run_digests(args + [flag, value]) == joined and joined[0] == 0


def test_flag_followed_by_a_flag_still_lacks_its_value(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--gamma", "--trig"])
    assert info.value.code == 2
    assert "argument --gamma: expected one argument" in capsys.readouterr().err


ELLIPTIC_CHECKS = "dybe,rll,hw-actions,identities,fx,z-contour-vs-bf,dia-realization"


@pytest.mark.parametrize("args, code, records", [
    (["run", "--L", "3", "--checks", ELLIPTIC_CHECKS, "--samples", "5", "--seed", "1"], 0, 36),
    (["compute", "z", "--method", "bruteforce", "--L", "10", "--seed", "1"], 0, 1),
    (["run", "--L", "2", "--nome", "0.85,0.1", "--checks", ELLIPTIC_CHECKS, "--samples", "5",
      "--seed", "1"], 0, 36),
    # seeds whose residuals miss their gates at this nome, from rounding
    (["run", "--L", "2", "--nome", "0.85,0.1", "--seed", "2"], 1, 141),
    (["run", "--L", "2", "--nome", "0.85,0.1", "--seed", "3"], 1, 141)],
    ids=[f"args{i}" for i in range(5)])
def test_batched_theta_series_keeps_report_streams(monkeypatch, args, code, records):
    # every weight comes from the batched theta series; summed point by
    # point by the literal series instead, every record must keep its bits
    # (wall time aside).  At nome 0.85 most points need more than the
    # batch's first chunk of terms and are summed again within it
    shipped = run_digests(args)
    monkeypatch.setattr(special_fn, "theta1_batch", lambda z, params: np.array(
        [theta1_literal(complex(v), params) for v in z], dtype=complex))
    assert run_digests(args) == shipped
    assert shipped[0] == code and len(shipped[2]) == records


def test_repeated_run_keeps_stream_and_weight_traffic(monkeypatch):
    # no state outlives a run: the same run twice in one process, with
    # nothing reset between them, writes the same stream (wall time
    # aside) from the same weight batches
    args = ["run", "--L", "3", "--checks", ELLIPTIC_CHECKS, "--samples", "3", "--seed", "4"]
    batches, f_weights = [], yb_core.f_weights
    monkeypatch.setattr(yb_core, "f_weights",
                        lambda points, regime: batches.append(len(points))
                        or f_weights(points, regime))
    first = run_digests(args), list(batches)
    batches.clear()
    assert (run_digests(args), batches) == first
    assert first[0][0] == 0 and first[1] and len(first[0][2]) == 22


@pytest.mark.parametrize("L", ["2", "3", "4"])
def test_pencil_keeps_report_streams(monkeypatch, L):
    # the pencil takes one derivative table per call and hoists the
    # node-free swap factors; with the per-evaluation bodies of the
    # oracles instead, every record must keep its bits (wall time aside)
    args = ["run", "--trig", "--L", L, "--checks", "pde-omega,pde-leading,fzt",
            "--samples", "5", "--seed", "1"]
    shipped = run_digests(args)
    monkeypatch.setattr(pde, "omega_actions", omega_actions_literal)
    monkeypatch.setattr(pde, "omega_leading_apply", omega_leading_apply_literal)
    monkeypatch.setattr(pde, "fzt_coefficients", fzt_coefficients_literal)
    assert run_digests(args) == shipped
    assert shipped[0] == 0 and len(shipped[2]) == 1 + 3 * 5


@pytest.mark.parametrize("args, records", [
    *(pytest.param(["run", *regime, "--L", L, "--checks", "identities,rll", "--samples", "10",
                    "--seed", "1"], 1 + 2 * 10, id=f"{name}-{L}")
      for name, regime in (("elliptic", []), ("trig", ["--trig"])) for L in ("2", "3", "4")),
    pytest.param(["run", "--L", "3", "--checks", ELLIPTIC_CHECKS, "--samples", "5", "--seed", "1"],
                 36, id="elliptic-3-all"),
    pytest.param(["compute", "z", "--method", "bruteforce", "--L", "8", "--seed", "1"], 1,
                 id="compute-z-8"),
    pytest.param(["run", "--trig", "--L", "3", "--samples", "4", "--seed", "1"], 49,
                 id="trig-3-all")])
def test_operator_checks_keep_report_streams(monkeypatch, args, records):
    # every operator and equation builds its vertex factors in one
    # site_factors call, from one deduplicated weight batch; with one call
    # per spec instead, every record must keep its bits (wall time aside)
    shipped = run_digests(args)
    calls, site_factors = [], yb_core.site_factors

    def one_per_spec(specs, ctx, n_sites):
        calls.append(len(specs))
        return [factor for spec in specs for factor in site_factors([spec], ctx, n_sites)]

    monkeypatch.setattr(yb_core, "site_factors", one_per_spec)
    assert run_digests(args) == shipped
    assert calls and shipped[0] == 0 and len(shipped[2]) == records
