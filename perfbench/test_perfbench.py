"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import sys

import numpy as np
import pytest

import oracle
import run
import tracer

sys.path.insert(0, str(run.SRC))

from yblab import residue_int, sampling  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap on [3, 4];
    # a has child c [2, 3]; d [8, 9] is a second top-level child of root.
    spans = [("root", -1, 0.0, 10.0),
             ("a", 0, 1.0, 4.0),
             ("c", 1, 2.0, 3.0),
             ("b", 0, 3.0, 6.0),
             ("d", 0, 8.0, 9.0),
             ("open", 0, 9.5, float("nan"))]
    out = tracer.span_summary(spans)
    assert out["root"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 5.0 - 1.0}
    assert out["a"]["self_s"] == pytest.approx(2.0)
    assert out["c"]["self_s"] == pytest.approx(1.0)
    assert out["b"]["self_s"] == pytest.approx(3.0)
    assert "open" not in out


def test_tracer_nests_spans_and_counts():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2,
                   hook=lambda counters, args, kwargs, result: counters.update(out=result))
    assert outer(1) == 4
    out = t.summary()
    assert out["outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert out["inner"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert t.counters["out"] == 4


def test_metric_names_are_well_formed_and_match_the_declaration():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    emitted = list(run.layer_metrics([])) + ["trace.overhead_s"]
    assert sorted(emitted) == sorted(run.LAYER_UNITS)
    assert per_layer == list(run.LAYER_UNITS)
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for name in end_to_end + per_layer + list(run.WORKLOADS):
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_crashing_command_counts_as_failed_items(tmp_path):
    # |nome| = 0.89 is accepted by the config but the theta sampler raises.
    cmd = run.Command(("run", "--L", "3", "--nome", "0.89,0", "--checks", "dybe",
                       "--samples", "2"), items=2)
    result = run.run_pass([cmd], 1, tmp_path, run.Calibrator())
    score = run.score_passes([cmd], [result], seed=1, workdir=tmp_path)
    assert result["outcomes"][0].returncode != 0
    assert score["attempted"] == 2
    assert score["failed"] == 2
    assert any("2 of 2 records missing" in note for note in score["failures"])
    assert any("traceback: RuntimeError" in note for note in score["failures"])


def test_changed_stream_fails_the_identity_rule(tmp_path):
    cmd = run.Command(("compute", "z", "--L", "2", "--method", "contour"))
    first = run.run_pass([cmd], 3, tmp_path, run.Calibrator())
    other = run.run_pass([cmd], 4, tmp_path, run.Calibrator())
    same = run.score_passes([cmd], [first, first], seed=3, workdir=tmp_path)
    assert (same["failed"], same["identical"]) == (0, True)
    changed = run.score_passes([cmd], [first, other], seed=3, workdir=tmp_path)
    assert (changed["attempted"], changed["failed"], changed["identical"]) == (2, 1, False)


def test_bruteforce_output_is_checked_against_the_oracle(tmp_path):
    cmd = run.Command(("compute", "z", "--L", "3", "--method", "bruteforce"))
    result = run.run_pass([cmd], 5, tmp_path, run.Calibrator())
    score = run.score_passes([cmd], [result], seed=5, workdir=tmp_path)
    assert (score["attempted"], score["failed"]) == (1, 0)
    assert score["headroom_decades"] > 3


@pytest.mark.parametrize("L", [2, 3, 4, 5])
@pytest.mark.parametrize("elliptic", [True, False])
def test_oracle_matches_library_residue_sum(L, elliptic):
    rng = np.random.default_rng(100 + L)
    ctx = sampling.random_context(L, rng, elliptic=elliptic)
    points = sampling.sample_spectral(ctx, rng, L, avoid=ctx.mu)
    theta = sampling.sample_theta(ctx, rng)
    nome = ctx.regime.params.nome if elliptic else None
    got = oracle.z_partition(points, theta, ctx.mu, ctx.gamma, nome)
    want = residue_int.z_contour(points, theta, ctx)
    assert abs(got - want) <= 1e-12 * abs(want)
