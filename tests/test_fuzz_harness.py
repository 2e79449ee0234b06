import json
import random

import pytest

from nullvl import ast, evaluator, fuzz, harness
from nullvl.typecheck import typecheck
from nullvl.values import database_to_json


def test_database_generation_is_deterministic():
    schema = fuzz.default_schema()
    cfg = fuzz.FuzzConfig(seed=12)
    a = json.dumps(database_to_json(fuzz.gen_database(schema, cfg)), sort_keys=True)
    b = json.dumps(database_to_json(fuzz.gen_database(schema, cfg)), sort_keys=True)
    assert a == b


def test_expression_generation_is_deterministic():
    schema = fuzz.default_schema()
    cfg = fuzz.FuzzConfig(seed=12)
    a = fuzz.gen_expression(schema, cfg, random.Random(3))
    b = fuzz.gen_expression(schema, cfg, random.Random(3))
    assert a == b


def test_zero_null_rate_produces_null_free_databases():
    schema = fuzz.default_schema()
    cfg = fuzz.FuzzConfig(seed=1, null_rate=0.0)
    for i in range(20):
        assert fuzz.gen_database(schema, cfg, random.Random(i)).is_null_free()


def test_key_columns_are_distinct():
    schema = fuzz.default_schema()
    cfg = fuzz.FuzzConfig(seed=1, rows_per_relation=5)
    for i in range(20):
        db = fuzz.gen_database(schema, cfg, random.Random(i))
        bag = db.table("R")
        keys = [record[2] for record in bag.occurrences()]
        assert len(keys) == len(set(keys))
        assert all(k is not None for k in keys)


def test_generated_expressions_always_typecheck():
    schema = fuzz.default_schema()
    cfg = fuzz.FuzzConfig(seed=2, max_depth=5)
    for i in range(150):
        expr = fuzz.gen_expression(schema, cfg, random.Random(i))
        typecheck(expr, schema)


def test_generator_coverage_over_a_thousand_samples():
    schema = fuzz.default_schema()
    gen = fuzz.ExpressionGenerator(schema, fuzz.FuzzConfig(seed=3, max_depth=5))
    for _ in range(1000):
        gen.expression()
    for want in (
        "expr.base", "expr.project", "expr.select", "expr.product", "expr.setop",
        "expr.distinct", "expr.group", "expr.mu",
        "cond.true", "cond.false", "cond.isnull", "cond.cmp", "cond.in",
        "cond.empty", "cond.any", "cond.all", "cond.and", "cond.or", "cond.not",
        "term.col", "term.const", "term.null", "term.fn",
    ):
        assert gen.coverage.get(want, 0) > 0, want


@pytest.mark.parametrize("family", sorted(harness.FAMILIES))
def test_every_family_passes_on_a_small_corpus(family):
    cfg = fuzz.FuzzConfig(seed=17, cases=25)
    summary = harness.run_differential(family, cfg)
    assert summary.failed == 0, summary.bundles[:1]
    assert summary.passed + summary.skipped == summary.cases
    assert summary.cases == 25


def test_coincidence_cases_typecheck_at_most_three_times(monkeypatch):
    # generation, the certified-only gate and the checker each typecheck once;
    # the certificate and both evaluations reuse the checker's `Checked`
    from nullvl import typecheck as typecheck_module

    constructions = []
    init = typecheck_module.Typechecker.__init__

    def counting(self, *args, **kwargs):
        constructions.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(typecheck_module.Typechecker, "__init__", counting)
    summary = harness.run_differential("coincidence", fuzz.FuzzConfig(seed=0, cases=20))
    assert summary.cases == 20 and summary.failed == 0
    generated = summary.cases + summary.notes.get("uncertified-generated", 0)
    assert len(constructions) <= 3 * generated


def test_capture_families_report_size_ratios():
    cfg = fuzz.FuzzConfig(seed=17, cases=25)
    summary = harness.run_differential("capture-2vl-to-3vl", cfg)
    assert summary.max_size_ratio is not None and summary.max_size_ratio >= 1


def test_failing_bundle_replays_to_the_same_verdict(tmp_path):
    schema = fuzz.default_schema()
    db = fuzz.gen_database(schema, fuzz.FuzzConfig(seed=1, null_rate=0.0, rows_per_relation=3))
    # hand-built failing case: a selection by FALSE is never the whole input
    bundle = {
        "family": "prop-4.1",
        "expression": "(base R)",
        "db": database_to_json(db),
        "checks": [
            {"kind": "bags-equal", "left": "(base R)", "right": "(select (false) (base R))"}
        ],
    }
    first = harness.replay(bundle)
    second = harness.replay(json.loads(json.dumps(bundle)))
    if db.table("R").is_empty():
        assert first.status == second.status == "pass"
    else:
        assert first.status == second.status == "fail"


def test_passing_bundle_replays_clean():
    schema = fuzz.default_schema()
    cfgf = fuzz.FuzzConfig(seed=23)
    rng = random.Random(99)
    expr = typecheck(fuzz.gen_expression(schema, cfgf, rng), schema).expr
    db = fuzz.gen_database(schema, cfgf, rng)
    bundle = {
        "family": "capture-2vl-to-3vl",
        "direction": "2to3",
        "expression": ast.render_expression(expr),
        "db": database_to_json(db),
    }
    assert harness.replay(bundle).status in ("pass", "skip")


def test_unknown_family_rejected():
    with pytest.raises(Exception, match="unknown family"):
        harness.run_differential("no-such-family")


def test_depth_one_generates_a_base_relation():
    schema = fuzz.default_schema()
    for i in range(10):
        gen = fuzz.ExpressionGenerator(schema, fuzz.FuzzConfig(seed=i, max_depth=1))
        assert isinstance(gen.expression(), ast.BaseRelation)


def test_plan_equivalence_covers_every_kernel():
    schema = fuzz.default_schema()
    kernels = set()
    for seed in range(8):
        cfg = fuzz.FuzzConfig(seed=seed, cases=5)
        summary = harness.run_differential("plan-equivalence", cfg)
        assert summary.failed == 0, summary.bundles[:1]
        assert summary.passed + summary.skipped == summary.cases == 5
        for index in range(cfg.cases):
            case = harness._gen_case("plan-equivalence", schema, cfg, fuzz.case_rng(seed, index))
            kernels.add(case["kernel"])
    assert kernels == set(harness.PLAN_KERNELS)


def test_plan_equivalence_probes_correlated_selections_under_every_kernel(monkeypatch):
    # 64 seeds x 20 cases; no kernel in PLAN_KERNELS makes `=` value-dependent
    probed, kernel = set(), [None]
    real_probe, real_check = evaluator._probe_candidates, harness._CHECKERS["plan-equivalence"]

    def probe(e, keys, *args):
        if any(ast.term_names(t) for t in keys[0]):  # a correlated probe
            probed.add(kernel[0])
        return real_probe(e, keys, *args)

    def check(case):
        kernel[0] = case["kernel"]
        return real_check(case)

    monkeypatch.setattr(evaluator, "_probe_candidates", probe)
    monkeypatch.setitem(harness._CHECKERS, "plan-equivalence", check)
    for seed in range(64):
        summary = harness.run_differential("plan-equivalence", fuzz.FuzzConfig(seed=seed, cases=20))
        assert summary.failed == 0, summary.bundles[:1]
    assert probed == set(harness.PLAN_KERNELS)


def test_plan_equivalence_runs_at_depth_one():
    summary = harness.run_differential("plan-equivalence", fuzz.FuzzConfig(seed=3, max_depth=1, cases=20))
    assert summary.failed == 0 and summary.cases == 20
