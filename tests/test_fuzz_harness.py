import hashlib
import json
import random
import sys
import weakref

import pytest

from nullvl import ast, evaluator, fuzz, harness, parser, values
from nullvl.typecheck import typecheck
from nullvl.values import database_from_json, database_to_json


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


def _typecheckers(monkeypatch) -> list:
    """A list that gains an entry for each `Typechecker` made from now on."""
    from nullvl import typecheck as typecheck_module

    constructions = []
    init = typecheck_module.Typechecker.__init__

    def counting(self, *args, **kwargs):
        constructions.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(typecheck_module.Typechecker, "__init__", counting)
    return constructions


def test_coincidence_cases_typecheck_once(monkeypatch):
    # generation typechecks once; the certified-only gate, the certificate
    # and both evaluations reuse the generator's `Checked`
    constructions = _typecheckers(monkeypatch)
    summary = harness.run_differential("coincidence", fuzz.FuzzConfig(seed=0, cases=20))
    assert summary.cases == 20 and summary.failed == 0
    generated = summary.cases + summary.notes.get("uncertified-generated", 0)
    assert len(constructions) <= generated


def test_capture_cases_typecheck_twice(monkeypatch):
    # generation and the evaluation of the output; the translation and the
    # source side of the capture equation reuse the generator's `Checked`
    constructions = _typecheckers(monkeypatch)
    for family in sorted(harness.CAPTURE_FAMILIES):
        constructions.clear()
        summary = harness.run_differential(family, fuzz.FuzzConfig(seed=0, cases=20))
        assert summary.cases == 20 and summary.failed == 0
        assert len(constructions) == 2 * summary.cases, family


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
            kernels.add(case.params["kernel"])
    assert kernels == set(harness.PLAN_KERNELS)


def test_plan_equivalence_probes_correlated_selections_under_every_kernel(monkeypatch):
    # 64 seeds x 20 cases; no kernel in PLAN_KERNELS makes `=` value-dependent.
    # A probe's key terms are compiled closures, so the terms they came
    # from are recorded as they compile
    correlated, products, kernel = set(), set(), [None]
    sources = weakref.WeakKeyDictionary()
    real_compile, real_probe = evaluator._compile_term, evaluator._probe_candidates
    real_check = harness._CHECKERS["plan-equivalence"]

    def compile_term(term, where):
        compiled = real_compile(term, where)
        sources[compiled] = term
        return compiled

    def probe(e, keys, *args):
        side, _, terms = keys
        if side is not e.source:  # the right side of a product
            products.add(kernel[0])
        elif any(ast.term_names(sources[t]) for t in terms):  # outer names
            correlated.add(kernel[0])
        return real_probe(e, keys, *args)

    def check(case):
        kernel[0] = case.params["kernel"]
        return real_check(case)

    monkeypatch.setattr(evaluator, "_compile_term", compile_term)
    monkeypatch.setattr(evaluator, "_probe_candidates", probe)
    monkeypatch.setitem(harness._CHECKERS, "plan-equivalence", check)
    for seed in range(64):
        summary = harness.run_differential("plan-equivalence", fuzz.FuzzConfig(seed=seed, cases=20))
        assert summary.failed == 0, summary.bundles[:1]
    assert correlated == products == set(harness.PLAN_KERNELS)


def test_plan_equivalence_runs_at_depth_one():
    summary = harness.run_differential("plan-equivalence", fuzz.FuzzConfig(seed=3, max_depth=1, cases=20))
    assert summary.failed == 0 and summary.cases == 20


# SHA-256 of each family's `FamilySummary.to_json()` (keys sorted) at seed 0
# x 60 cases, taken from the harness that checked every case through its
# rendered text and JSON database.  The grounded-syntactic and grounded-leq
# entries were recorded when gr-to-3 moved onto the many-valued core, whose
# ALL images are larger: at seed 0 x 60 the largest size ratio went from
# 10.67 to 11.0 and the mean by under 0.01.  Those two and mvl-4vl were
# re-recorded when the comparison templates came to be derived from each
# kernel's NULL table, whose images are smaller: at seed 0 x 60 the largest
# size ratio went 11.0 -> 3.48 (grounded-syntactic), 11.0 -> 3.96
# (grounded-leq) and 4.44 -> 2.67 (mvl-4vl), and the means 2.60 -> 1.26,
# 2.61 -> 1.21 and 1.47 -> 1.12.  Every translation-family entry but
# capture-2vl-to-3vl was re-recorded when 3to2 and 3-to-gr moved onto the
# many-valued core, whose images range over sets of truth values and keep a
# positive quantifier's shape where the kernels agree on NULLs: at seed 0 x
# 60 the largest size ratio went 2.92 -> 2.38 (capture-3vl-to-2vl), 3.48 ->
# 3.48 (grounded-syntactic), 3.96 -> 3.82 (grounded-leq), 3.76 -> 4.48
# (capture-3vl-to-grounded), 2.67 -> 1.70 (mvl-4vl) and 2.08 -> 1.70
# (mvl-self), and the means 1.06 -> 1.05, 1.26 -> 1.24, 1.21 -> 1.14, 1.44
# -> 1.47, 1.12 -> 1.06 and 1.09 -> 1.06.  grounded-leq and
# capture-3vl-to-grounded were re-recorded when 2to3 moved onto the
# many-valued core: under leq-sign, whose `=` is false on every null
# pattern, a negated IN keeps its shape over the null-free records, and
# 3-to-gr no longer guards `a op b` in an image that holds on every null
# pattern.  At seed 0 x 60 the largest size ratio went 3.82 -> 3.82
# (grounded-leq) and 4.48 -> 3.62 (capture-3vl-to-grounded), and the means
# 1.14 -> 1.16 and 1.47 -> 1.43.
PINNED_SUMMARY_DIGESTS = {
    "capture-2vl-to-3vl": "6e3bf304c39297117cdb344f2e370d86f6d337f4d5379c2c368a69e309f00e43",
    "capture-3vl-to-2vl": "4b5c388493b7d652626eb79dcbb76a25469014ea3963d5509f3fd1c0e83a333b",
    "grounded-syntactic": "0773a776609492376b8ec8b54e52ddb895e87d84d4e39cfa95b6d8d68f309268",
    "grounded-leq": "0552e264461e414c589e1cf9fd7bd2c93faea8c5a30af4759ab1f9bad7683a1c",
    "capture-3vl-to-grounded": "954aad3f652223a2e8661c57d6c3366fade0ac3ea1823c3daffbd7356b5e5c60",
    "mvl-4vl": "901e4638f851b330c3db06e6558087c1b39eef8b03d623287c3550be9031e270",
    "mvl-self": "c148b3801715505008ac5de21c6fb6ffb42ae27a056c7697eeff033ba9236400",
    "null-free-invariance": "557aaa66dd23ac07c98e530ed27ead7e95f84ea988a568dc8737e83882504112",
    "prop-4.1": "cce7ee32662bfff75e25819abb4d4d28c0703d18450a56b1bbff73952e1cf2a2",
    "coincidence": "8fe586e90a7ac3b0e088b762c1497262c4a44d10576e3543ee6424b653c6bbfe",
    "nullable-soundness": "197068ebd88c7dac8dc3252423be24cb3dd024efefdf768d423658ffd5d550f4",
    "sql-roundtrip": "52b96a0eb0374f6e7879e1297fcce22d2d5e4162dca1cf3683879ced80b35c40",
    "plan-equivalence": "2a8855d60c884c99c2cb48c51cd43722311bb26628253c420ab99b2d1b2919f0",
}


def _summary_digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("family", harness.FAMILIES)
def test_family_summaries_match_the_pinned_digests(family):
    summary = harness.run_differential(family, fuzz.FuzzConfig(seed=0, cases=60))
    assert _summary_digest(summary) == PINNED_SUMMARY_DIGESTS[family]


def _generated_cases(family, seeds, cases):
    schema = fuzz.default_schema()
    for seed in seeds:
        cfg = fuzz.FuzzConfig(seed=seed)
        for index in range(cases):
            yield harness._gen_case(family, schema, cfg, fuzz.case_rng(seed, index))


@pytest.mark.parametrize("family", harness.FAMILIES)
def test_generated_cases_round_trip_through_text_and_json(family):
    # the harness checks cases in memory; bundles and `replay` go through
    # this text form, so it must give back the same trees and tables
    for case in _generated_cases(family, range(5), 40):
        text = ast.render_expression(case.checked.expr)
        assert typecheck(parser.parse_expression(text), case.db.schema).expr == case.checked.expr
        for kind, first, second in case.checks:
            if kind == "bags-equal":
                assert parser.parse_expression(ast.render_expression(first)) == first
            else:
                assert parser.parse_condition(ast.render_condition(first)) == first
            assert parser.parse_expression(ast.render_expression(second)) == second
        # `Schema` has no `__eq__`, so compare the tables and the relations
        loaded = database_from_json(database_to_json(case.db))
        assert loaded.tables == case.db.tables
        assert loaded.schema.relations == case.db.schema.relations


@pytest.mark.parametrize("family", harness.FAMILIES)
def test_replay_of_a_bundle_gives_the_in_memory_verdict(family):
    checker = harness._CHECKERS[family]
    for case in _generated_cases(family, range(3), 10):
        direct = checker(case)
        bundle = json.loads(json.dumps(harness._case_to_bundle(case)))
        replayed = harness.replay(bundle)
        assert (replayed.status, replayed.detail, replayed.size_ratio) == (
            direct.status, direct.detail, direct.size_ratio
        )


def test_passing_cases_build_no_text(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("text or JSON built for a passing case")

    originals = [
        parser.parse_expression, parser.parse_condition, values.database_from_json,
        values.database_to_json, ast.render_expression, ast.render_condition,
    ]
    for name, module in list(sys.modules.items()):
        if name == "nullvl" or name.startswith("nullvl."):
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, refuse)
    for family in harness.FAMILIES:
        summary = harness.run_differential(family, fuzz.FuzzConfig(seed=0, cases=20))
        assert summary.failed == 0 and summary.cases == 20, family


@pytest.mark.parametrize("family, keys", [
    ("grounded-leq", ["direction", "grounding"]),
    ("plan-equivalence", ["kernel"]),
    ("prop-4.1", ["checks"]),
])
def test_failing_cases_write_bundles_that_replay(family, keys, tmp_path, monkeypatch):
    real = harness._CHECKERS[family]
    monkeypatch.setitem(harness._CHECKERS, family, lambda case: harness.CaseOutcome("fail", "forced"))
    summary = harness.run_differential(family, fuzz.FuzzConfig(seed=4, cases=3), bundle_dir=str(tmp_path))
    monkeypatch.setitem(harness._CHECKERS, family, real)
    assert summary.failed == summary.notes["bundle_files"] == 3
    for bundle in summary.bundles:
        assert list(bundle) == ["family", "expression", "db", *keys, "index", "seed", "failure"]
        written = json.loads((tmp_path / f"{family}-{bundle['index']}.json").read_text())
        assert written == bundle and harness.replay(written).status in ("pass", "skip")
