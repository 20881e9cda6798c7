import argparse
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import yblab.cli as cli
from yblab import feq, lattice_qty, pde, special_fn, yb_core
from yblab.errors import DynamicalPole, InterpolationIllConditioned

from oracles import (fzt_coefficients_literal, omega_actions_literal,
                     omega_leading_apply_literal)


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def parse_records(out):
    lines = [ln for ln in out.splitlines() if ln.strip()]
    # every line must parse on its own, strictly (no NaN or Infinity): the
    # stream is valid JSON even truncated
    return [json.loads(ln, parse_constant=_reject_constant) for ln in lines]


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


def test_run_unknown_check_is_config_error(capsys):
    code, _, err = run_cli(["run", "--checks", "nonsense"], capsys)
    assert code == 2
    assert "unknown check" in err


def test_run_trig_only_check_on_elliptic_model(capsys):
    code, _, err = run_cli(["run", "--checks", "snad", "--samples", "1"], capsys)
    assert code == 2
    assert "trigonometric" in err


def test_run_regime_with_both_keys_is_config_error(tmp_path, capsys):
    # neither regime may silently win over the other
    cfg = tmp_path / "both.yaml"
    cfg.write_text("model:\n  regime:\n    trig: true\n    elliptic:\n      nome: 0.2\n")
    for flags in ([], ["--trig"]):
        code, out, err = run_cli(["run", "--config", str(cfg), "--checks", "dybe"] + flags,
                                 capsys)
        assert code == 2 and out == ""
        assert "configuration error: model.regime: give one of trig, elliptic" in err


@pytest.mark.parametrize("entry", ["[1]", "{a: 1}", "1", "null"])
def test_run_non_string_check_name_is_config_error(tmp_path, capsys, entry):
    cfg = tmp_path / "checks.yaml"
    cfg.write_text(f"run:\n  checks: [{entry}]\n  samples: 1\n")
    code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "configuration error: run.checks: expected check names, got " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_check_named_twice_is_config_error(tmp_path, capsys, source):
    if source == "flag":
        args = ["run", "--checks", "dybe,rll,dybe", "--samples", "1"]
    else:
        cfg = tmp_path / "twice.yaml"
        cfg.write_text("run:\n  checks: [rll, dybe, rll]\n  samples: 1\n")
        args = ["run", "--config", str(cfg)]
    code, out, err = run_cli(args, capsys)
    twice = "dybe" if source == "flag" else "rll"
    assert code == 2 and out == ""
    assert f"configuration error: run.checks: check {twice!r} named twice" in err


def test_run_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--checks", "dybe", "--samples", "1", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("text, where, key", [
    ("modle:\n  L: 2\n", "config", "modle"),
    ("model:\n  gama: [0.4, 0.0]\n", "model", "gama"),
    ("model:\n  tolerance:\n    rel_tl: 1.0e-9\n", "model", "tolerance"),
    ("model:\n  regime:\n    elliptic:\n      nom: [0.2, 0.0]\n",
     "model.regime.elliptic", "nom"),
    ("run:\n  sample: 50\n", "run", "sample"),
    ("run:\n  threads: 4\n", "run", "threads"),
    ("model:\n  regime:\n    elliptic:\n      nome: 0.2\n    foo: 1\n", "model.regime", "foo"),
    ("model:\n  regime:\n    trigg: true\n", "model.regime", "trigg"),
])
def test_run_unknown_config_key_is_config_error(tmp_path, capsys, text, where, key):
    cfg = tmp_path / "typo.yaml"
    cfg.write_text(text)
    code, out, err = run_cli(["run", "--config", str(cfg), "--checks", "dybe"], capsys)
    assert code == 2 and out == ""
    assert f"configuration error: {where}: unknown key {key!r}" in err


@pytest.mark.parametrize("text, where", [
    ("model:\n  L: true\n", "model.L"),
    ("run:\n  seed: false\n", "run.seed"),
    ("run:\n  samples: true\n", "run.samples"),
    ("model:\n  gamma: true\n", "model.gamma"),
    ("model:\n  gamma: [true, 0.0]\n", "model.gamma"),
    ("model:\n  L: 2\n  mu: [false, 0.1]\n", "model.mu[0]"),
    ("model:\n  regime:\n    elliptic:\n      nome: false\n",
     "model.regime.elliptic.nome"),
    ("tolerances:\n  dybe: true\n", "tolerances.dybe"),
])
def test_yaml_boolean_is_not_a_number(tmp_path, capsys, text, where):
    # YAML reads true/false as bool, which Python counts as the int 1/0
    cfg = tmp_path / "bool.yaml"
    cfg.write_text(text)
    code, out, err = run_cli(["run", "--config", str(cfg), "--checks", "dybe"], capsys)
    assert code == 2 and out == ""
    assert f"configuration error: {where}: expected" in err


def test_invalid_yaml_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("model: [1, 2\n")
    code, out, err = run_cli(["run", "--config", str(cfg), "--checks", "dybe"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: config: not valid YAML" in err


def test_run_without_config_does_not_import_yaml():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from yblab import cli\n"
            "assert cli.main(['compute', 'z', '--L', '2', '--seed', '1']) == 0\n"
            "print('yaml' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("text", ["run: {checks: [pde-omega]}", "run: {samples: 0}",
                                  "tolerances: {pde-omega: -1.0}"])
def test_compute_ignores_settings_only_run_reads(tmp_path, capsys, text):
    # pde-omega is undefined at L = 5; compute runs no check, so it does not care
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"model: {{L: 5, regime: trig}}\n{text}\n")
    code, out, err = run_cli(["compute", "z", "--config", str(cfg)], capsys)
    assert code == 0, err
    assert json.loads(out)["record"] == "compute-z"


def test_compute_reads_run_seed_and_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("model: {L: 2}\nrun: {seed: 3}\n")
    from_config = run_cli(["compute", "z", "--config", str(cfg)], capsys)
    assert from_config == run_cli(["compute", "z", "--L", "2", "--seed", "3"], capsys)
    assert from_config != run_cli(["compute", "z", "--L", "2", "--seed", "0"], capsys)
    cfg.write_text("run: {sample: 1}\n")
    code, out, err = run_cli(["compute", "z", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "configuration error: run: unknown key 'sample'" in err


def _readme_config_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Configuration file"):]
    start = section.index("```yaml\n") + len("```yaml\n")
    return section[start:section.index("```\n", start)]


@pytest.mark.parametrize("source", ["config.example.yaml", "README.md"])
def test_documented_configs_build(tmp_path, source):
    path = ROOT / source
    if source == "README.md":
        path = tmp_path / "readme.yaml"
        path.write_text(_readme_config_block())
    args = cli.make_parser().parse_args(["run", "--config", str(path)])
    cfg = cli.build_config(args)
    assert cfg.ctx.L == 3 and cfg.seed == 42 and cfg.samples == 20


@pytest.mark.parametrize("regime", [[], ["--trig"]])
def test_run_overflowing_gamma_is_config_error(capsys, regime):
    code, out, err = run_cli(["run", "--L", "2", "--gamma", "800,0", "--checks", "dybe"]
                             + regime, capsys)
    assert code == 2 and out == ""
    assert "configuration error: model: " in err


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


def test_run_non_finite_tolerance_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "nan.yaml"
    cfg.write_text("tolerances:\n  dybe: .nan\n")
    code, out, err = run_cli(["run", "--config", str(cfg), "--checks", "dybe"], capsys)
    assert code == 2 and out == ""
    assert "tolerances.dybe: expected a finite number" in err


def test_run_negative_tolerance_is_config_error(tmp_path, capsys):
    # no residual can pass a threshold below zero; 0.0 stays allowed
    cfg = tmp_path / "negative.yaml"
    cfg.write_text("tolerances:\n  dybe: -1.0\n")
    code, out, err = run_cli(["run", "--config", str(cfg), "--checks", "dybe"], capsys)
    assert code == 2 and out == ""
    assert "tolerances.dybe: expected a non-negative number" in err


def test_run_mu_length_mismatch(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("model:\n  L: 3\n  mu: [[0.1, 0.0], [0.2, 0.0]]\n")
    code, _, err = run_cli(["run", "--config", str(cfg), "--checks", "dybe"], capsys)
    assert code == 2
    assert "model.mu" in err


def test_run_injected_zero_tolerance_fails(tmp_path, capsys):
    cfg = tmp_path / "strict.yaml"
    cfg.write_text("tolerances:\n  dybe: 0.0\n")
    code, out, _ = run_cli(["run", "--config", str(cfg), "--checks", "dybe",
                            "--samples", "2", "--seed", "1"], capsys)
    assert code == 1
    samples = [r for r in parse_records(out) if r.get("check") == "dybe"]
    assert all(r["pass"] is False for r in samples)


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


def test_run_sampler_exhaustion_becomes_error_record(capsys):
    # near the nome cap no admissible theta exists; the draw gives up
    code, out, err = run_cli(["run", "--L", "3", "--nome", "0.89,0", "--samples", "2",
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
    from yblab.special_fn import Regime, f_weight
    args = ["compute", "z", "--L", "1", "--mu", "0.1,0.05", "--gamma", "0.41,0.07",
            "--points", "0.3,-0.1", "--theta", "0.8,0.2", "--method", "contour"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    record = json.loads(out)
    regime = Regime.elliptic(0.2)
    f = lambda z: f_weight(z, regime)
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


@pytest.mark.parametrize("gamma, error", [("200,0", "NonFinite"),
                                           ("400,0", "OverflowError")])
def test_compute_non_finite_value_is_an_error(capsys, gamma, error):
    code, out, err = run_cli(["compute", "z", "--trig", "--L", "3", "--gamma", gamma,
                              "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert f"error: {error}: " in err


def test_compute_sn_rejects_elliptic(capsys):
    code, _, err = run_cli(["compute", "sn", "--L", "2", "--n", "1"], capsys)
    assert code == 2
    assert "trigonometric" in err


def test_run_nome_at_cap_is_config_error(capsys):
    code, out, err = run_cli(["run", "--nome", "0.95,0", "--checks", "dybe",
                              "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: --nome: |nome| = 0.95 >= 0.9" in err


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


def test_coincident_explicit_mu_is_config_error(tmp_path, capsys):
    code, out, err = run_cli(["run", "--L", "2", "--mu", "0.1,0;0.1,0",
                              "--checks", "dybe", "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: --mu: points 0 and 1 coincide" in err
    cfg = tmp_path / "mu.yaml"
    cfg.write_text("model:\n  L: 2\n  mu: [[0.1, 0.0], [0.1, 1.0e-9]]\n")
    code, out, err = run_cli(["run", "--config", str(cfg), "--checks", "dybe"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: model.mu: points 0 and 1 coincide" in err


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
    assert f"configuration error: run.checks: check {check!r} is defined for " \
           f"L = " in err and "got L = 5" in err


def test_pde_leading_is_undefined_at_one_site(capsys):
    # at L = 1 the leading operator is identically 0: agreement is rounding noise
    code, out, _ = run_cli(["run", "--trig", "--L", "1", "--samples", "1"], capsys)
    checks = parse_records(out)[0]["checks"]
    assert code == 0 and "pde-omega" in checks and "pde-leading" not in checks
    code, out, err = run_cli(["run", "--trig", "--L", "1", "--checks", "pde-leading",
                              "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert "configuration error: run.checks: check 'pde-leading' is defined for " \
           "L = 2..4 only, got L = 1" in err


def test_unwritable_out_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.jsonl"
    code, out, err = run_cli(["run", "--checks", "dybe", "--samples", "1",
                              "--out", str(target)], capsys)
    assert code == 2 and out == "" and not target.exists()
    assert "configuration error: --out: " in err


ELLIPTIC_CHECKS = "dybe,rll,hw-actions,identities,fx,z-contour-vs-bf,dia-realization"


@pytest.mark.parametrize("args", [
    ["run", "--L", "3", "--checks", ELLIPTIC_CHECKS, "--samples", "5", "--seed", "1"],
    ["compute", "z", "--method", "bruteforce", "--L", "10", "--seed", "1"]])
def test_batched_theta_series_keeps_report_streams(monkeypatch, capsys, args):
    # the vertex tables take their elliptic weights from one batched theta
    # series per bulk build or chain; summed point by point by the scalar
    # series instead, every record must keep its bits (wall time aside)
    def stream():
        code, out, err = run_cli(args, capsys)
        return code, re.sub(r', "wall_time_ms": [^,}]*', "", out), err

    shipped = stream()
    monkeypatch.setattr(special_fn, "theta1_batch", lambda z, params: np.array(
        [special_fn.theta1(complex(v), params) for v in z], dtype=complex))
    assert stream() == shipped
    assert shipped[0] == 0 and len(parse_records(shipped[1])) == (36 if args[0] == "run" else 1)


@pytest.mark.parametrize("args", [
    ["run", "--L", "3", "--checks", ELLIPTIC_CHECKS, "--samples", "5", "--seed", "1"],
    ["compute", "z", "--method", "bruteforce", "--L", "8", "--seed", "1"],
    ["run", "--trig", "--L", "3", "--samples", "4", "--seed", "1"]])
def test_bulk_chain_build_keeps_report_streams(monkeypatch, capsys, args):
    # operators and equations build their chains from one deduplicated
    # weight batch up front and share them through one lookup; with every
    # lookup building its chain afresh instead, every record must keep its
    # bits (wall time aside)
    def stream():
        code, out, err = run_cli(args, capsys)
        return code, re.sub(r', "wall_time_ms": [^,}]*', "", out), err

    shipped = stream()
    skipped, build_chains = [], yb_core.build_chains
    for module in (yb_core, lattice_qty, feq, pde):
        monkeypatch.setattr(module, "build_chains", lambda keys, ctx: skipped.append(ctx)
                            or (lambda *key: build_chains((), ctx)(*key)))
    assert stream() == shipped
    assert skipped and shipped[0] == 0
    records = {"compute": 1, "run": 49 if "--trig" in args else 36}[args[0]]
    assert len(parse_records(shipped[1])) == records


def test_repeated_run_keeps_stream_and_weight_traffic(monkeypatch, capsys):
    # no state outlives a run: the same run twice in one process, with
    # nothing reset between them, writes the same stream (wall time
    # aside) from the same weight batches
    args = ["run", "--L", "3", "--checks", ELLIPTIC_CHECKS, "--samples", "3", "--seed", "4"]
    batches, f_weights = [], yb_core.f_weights
    monkeypatch.setattr(yb_core, "f_weights",
                        lambda points, params: batches.append(len(points))
                        or f_weights(points, params))

    def stream():
        batches.clear()
        code, out, err = run_cli(args, capsys)
        return code, re.sub(r', "wall_time_ms": [^,}]*', "", out), err, list(batches)

    first = stream()
    assert stream() == first
    assert first[0] == 0 and first[3] and len(parse_records(first[1])) == 22


@pytest.mark.parametrize("L", ["2", "3", "4"])
def test_pencil_keeps_report_streams(monkeypatch, capsys, L):
    # the pencil takes one derivative table per call and hoists the
    # node-free swap factors; with the per-evaluation bodies of the
    # oracles instead, every record must keep its bits (wall time aside)
    args = ["run", "--trig", "--L", L, "--checks", "pde-omega,pde-leading,fzt",
            "--samples", "5", "--seed", "1"]

    def stream():
        code, out, err = run_cli(args, capsys)
        return code, re.sub(r', "wall_time_ms": [^,}]*', "", out), err

    shipped = stream()
    monkeypatch.setattr(pde, "omega_actions", omega_actions_literal)
    monkeypatch.setattr(pde, "omega_leading_apply", omega_leading_apply_literal)
    monkeypatch.setattr(pde, "fzt_coefficients", fzt_coefficients_literal)
    assert stream() == shipped
    assert shipped[0] == 0 and len(parse_records(shipped[1])) == 1 + 3 * 5


@pytest.mark.parametrize("args", [
    ["run", "--L", "3", "--checks", ELLIPTIC_CHECKS, "--samples", "3", "--seed", "2"],
    ["compute", "z", "--method", "both", "--L", "6", "--seed", "1"]])
def test_scalar_weight_fallback_keeps_report_streams(monkeypatch, capsys, args):
    # when the batched weights raise, the vertex tables read scalar weights
    # lazily in the same loop; a whole stream built that way keeps its bits
    def stream():
        code, out, err = run_cli(args, capsys)
        return code, re.sub(r', "wall_time_ms": [^,}]*', "", out), err

    shipped = stream()
    refused = []

    def refuse(points, params):
        refused.append(len(points))
        raise ArithmeticError("batch refused")

    monkeypatch.setattr(yb_core, "f_weights", refuse)
    assert stream() == shipped
    assert shipped[0] == 0 and refused
