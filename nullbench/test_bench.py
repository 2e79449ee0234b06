"""Tests of the benchmark itself: answer checks catch wrong answers, the
tracer leaves the program as it found it, and inputs follow the seed.

    python3 -m pytest -q nullbench/test_bench.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nullvl import cli, evaluator, values  # noqa: E402
from tracing import Tracer  # noqa: E402


def _serve_once(requests):
    outcomes = run.Outcomes(requests)
    run.serve(cli, requests, 0, outcomes)
    outcomes.check()
    return outcomes


@pytest.fixture
def wide_q1(tmp_path):
    """q1 under every semantics, plus its translation, at the smaller size."""
    requests = workloads.eval_wide(3, str(tmp_path)).requests
    return [r for r in requests if r.info["query"] == "q1" and r.info["rows"] == "50"]


def test_correct_answers_pass(wide_q1):
    outcomes = _serve_once(wide_q1)
    assert outcomes.attempted == len(wide_q1)
    assert outcomes.failures == 0, outcomes.reasons


def test_wrong_answer_counts_as_failure(wide_q1, monkeypatch):
    real = values.bag_to_json

    def doubled(bag, labels):
        out = real(bag, labels)
        for row in out["rows"]:
            row["multiplicity"] *= 2
        out["rows"].append({"values": [None], "multiplicity": 1})
        return out

    monkeypatch.setattr(cli, "bag_to_json", doubled)
    outcomes = _serve_once(wide_q1)
    assert outcomes.failures == outcomes.attempted == len(wide_q1)


def test_wrong_fuzz_summary_and_rewrite_fail(tmp_path):
    assert workloads._fuzz_check(json.dumps({"failed": 1, "cases": 20}))
    compile_requests = workloads.compile_workload(3, str(tmp_path)).requests
    rewrite = next(r for r in compile_requests if r.label == "rewrite q1")
    # dropping the NOT IN keeps rows the two-valued reading drops, and
    # dropping every row loses some it keeps
    assert rewrite.check('SELECT "a" FROM "R"') and rewrite.check('SELECT "a" FROM "R" WHERE FALSE')


def test_repeat_with_other_output_fails(wide_q1):
    outcomes = run.Outcomes(wide_q1[:1])
    outcomes.record(wide_q1[0], 0, "first", "")
    outcomes.record(wide_q1[0], 0, "second", "")
    outcomes.record(wide_q1[0], 2, "", "error: boom")
    assert outcomes.failures == 2


def test_tracer_restores_program_and_nests_spans(wide_q1):
    before = (cli.evaluate, evaluator.eval_rt, values.Bag.occurrences)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.evaluate is not before[0]
        outcomes = run.Outcomes(wide_q1[:2])
        run.serve(cli, wide_q1[:2], 0, outcomes, tracer)
    finally:
        tracer.uninstall()
    assert (cli.evaluate, evaluator.eval_rt, values.Bag.occurrences) == before
    inclusive, layer_self = tracer.span_figures()
    assert inclusive["cli.main"] > 0 and layer_self["evaluator"] > 0
    assert sum(layer_self.values()) == pytest.approx(inclusive["cli.main"])
    metrics = tracer.metrics(2)
    assert metrics["evaluator.expr_evals"] > 0 and metrics["logic.fold_calls"] > 0


def test_inputs_follow_the_seed():
    a = gen.wide_database(gen.rng_for(1, "w"), 50)
    b = gen.wide_database(gen.rng_for(1, "w"), 50)
    c = gen.wide_database(gen.rng_for(2, "w"), 50)
    assert a == b and a != c
    assert {k: len(v) for k, v in a["data"].items()} == {k: len(v) for k, v in c["data"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
