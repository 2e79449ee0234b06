import hashlib
import json
import random

from nullvl import analyze, ast, harness, translate
from nullvl.ast import col, num
from nullvl.errors import RecursionLimitError
from nullvl.evaluator import evaluate
from nullvl.fuzz import ExpressionGenerator, FuzzConfig, default_schema, gen_database, gen_expression
from nullvl.parser import parse_expression
from nullvl.typecheck import typecheck
from nullvl.values import NUM, ORD, Column, Relation, Schema

from sample_queries import (
    customer_orders_schema,
    q1,
    q2,
    q3,
    q4,
    q1_translated,
    q5,
    q5_translated,
    rs_schema,
)


def mixed_schema():
    return Schema(
        [
            Relation("R", (Column("A", NUM, nullable=True), Column("B", NUM, nullable=False))),
            Relation("S", (Column("C", NUM, nullable=True), Column("D", ORD, nullable=False))),
        ]
    )


def test_nullable_product_concatenates():
    schema = mixed_schema()
    got = analyze.nullable(ast.Product(ast.BaseRelation("R"), ast.BaseRelation("S")), schema)
    assert got == ("A", "C")


def test_nullable_union_and_intersection_rules():
    schema = mixed_schema()
    left = ast.Projection((ast.ProjItem(col("A"), "x"), ast.ProjItem(col("B"), "y")), ast.BaseRelation("R"))
    right = ast.Projection((ast.ProjItem(col("B"), "p"), ast.ProjItem(col("A"), "q")), ast.BaseRelation("R"))
    union = ast.SetOp("union", left, right)
    inter = ast.SetOp("intersect", left, right)
    diff = ast.SetOp("except", left, right)
    assert analyze.nullable(union, schema) == ("x", "y")  # nullable on either side
    assert analyze.nullable(inter, schema) == ()  # needs both sides
    assert analyze.nullable(diff, schema) == ("x",)  # left side only


def test_nullable_projection_of_constants_and_null_sources():
    schema = mixed_schema()
    p = ast.Projection(
        (
            ast.ProjItem(num(1), "one"),
            ast.ProjItem(col("A"), None),
            ast.ProjItem(ast.NullConst(), "n"),
            ast.ProjItem(ast.FnApply("div", (col("B"), col("B"))), "d"),
        ),
        ast.BaseRelation("R"),
    )
    got = analyze.nullable(p, schema)
    # the constant is never null; the nullable column, the literal NULL and
    # the division (zero divisor makes NULL) all are
    assert got == ("A", "n", "d")


def test_nullable_group_keeps_nullable_names_and_aggregates():
    schema = mixed_schema()
    g = ast.Group(
        ("A", "B"),
        (ast.AggItem("sum", "A", "sa"), ast.AggItem("sum", "B", "sb")),
        ast.BaseRelation("R"),
    )
    assert analyze.nullable(g, schema) == ("A", "sa")


def test_nullable_fixpoint_iterates():
    schema = mixed_schema()
    # the step re-injects a nullable column, so the fixpoint must list it
    seed = ast.Projection((ast.ProjItem(col("B"), "w"),), ast.BaseRelation("R"))
    step = ast.Projection((ast.ProjItem(col("A"), "w"),), ast.BaseRelation("R"))
    mu = ast.Mu("W", True, seed, step)
    assert analyze.nullable(mu, schema) == ("w",)
    safe_step = ast.Projection((ast.ProjItem(col("w"), "w"),), ast.BaseRelation("W"))
    assert analyze.nullable(ast.Mu("W", True, seed, safe_step), schema) == ()


def test_null_free_vacuous_without_negation():
    schema = rs_schema(nullable=True)
    sel = ast.Selection(ast.Compare((col("R.A"),), "=", (num(1),)), ast.BaseRelation("R"))
    ok, violations = analyze.null_free(sel, schema)
    assert ok and not violations


def test_membership_under_negation_with_nullable_names_is_flagged():
    schema = rs_schema(nullable=True)
    ok, violations = analyze.null_free(q1(), schema)
    assert not ok
    rules = {v.rule for v in violations}
    assert "nullable-subquery" in rules and "nullable-comparison" in rules


def test_null_literal_under_negation_is_flagged():
    schema = rs_schema(nullable=False)
    sel = ast.Selection(
        ast.Not(ast.Compare((col("R.A"),), "=", (ast.NullConst(),))), ast.BaseRelation("R")
    )
    ok, violations = analyze.null_free(sel, schema)
    assert not ok and violations[0].rule == "null-literal"


def test_benchmark_query_certified_with_key_and_not_null():
    schema = customer_orders_schema(orders_not_null=True)
    report = analyze.coincidence_certificate(q5(), schema)
    assert report.certified
    # dropping the NOT NULL on the order side breaks the certificate
    relaxed = customer_orders_schema(orders_not_null=False)
    assert not analyze.coincidence_certificate(q5(), relaxed).certified


def test_intro_queries_certified_with_keys():
    keyed = rs_schema(keys=True)
    for q in (q1(), q2(), q3(), q4()):
        assert analyze.coincidence_certificate(q, keyed).certified
    assert not analyze.coincidence_certificate(q1(), rs_schema(nullable=True)).certified


def test_everything_certifies_over_not_null_schema():
    schema = rs_schema(nullable=False)
    for q in (q1(), q2(), q3(), q4()):
        assert analyze.coincidence_certificate(q, schema).certified


def test_correlated_negated_comparison_counts_outer_nullables():
    schema = Schema(
        [
            Relation("R", (Column("R.A", NUM, nullable=True),)),
            Relation("S", (Column("S.A", NUM, nullable=False),)),
        ]
    )
    inner = ast.Selection(
        ast.Not(ast.Compare((col("R.A"),), "=", (col("S.A"),))), ast.BaseRelation("S")
    )
    outer = ast.Selection(ast.Empty(inner), ast.BaseRelation("R"))
    assert not analyze.coincidence_certificate(outer, schema).certified
    keyed = Schema(
        [
            Relation("R", (Column("R.A", NUM, key=True),)),
            Relation("S", (Column("S.A", NUM, nullable=False),)),
        ]
    )
    assert analyze.coincidence_certificate(outer, keyed).certified


def test_certificate_soundness_and_incompleteness(cfg2, cfg3):
    schema = default_schema()
    cfgf = FuzzConfig(seed=51, max_depth=4)
    certified_equal = uncertified = uncertified_equal = 0
    for i in range(150):
        rng = random.Random(3000 + i)
        gen = ExpressionGenerator(schema, cfgf, rng)
        expr = typecheck(gen.expression(), schema).expr
        db = gen_database(schema, cfgf, rng)
        report = analyze.coincidence_certificate(expr, schema)
        try:
            two = evaluate(expr, db, cfg=cfg2)
            three = evaluate(expr, db, cfg=cfg3)
        except RecursionLimitError:
            continue
        if report.certified:
            assert two == three, ast.render_expression(expr)
            certified_equal += 1
        else:
            uncertified += 1
            if two == three:
                uncertified_equal += 1
    assert certified_equal > 50
    # the condition is sufficient, not necessary: some uncertified cases coincide
    assert uncertified_equal > 0


def test_certificate_accepts_a_checked_expression():
    for schema, expr in ((rs_schema(nullable=True), q1()), (rs_schema(nullable=False), q1())):
        direct = analyze.coincidence_certificate(expr, schema)
        reused = analyze.coincidence_certificate(typecheck(expr, schema), schema)
        assert reused.to_json() == direct.to_json()


def test_report_json_shape():
    schema = rs_schema(nullable=True)
    report = analyze.coincidence_certificate(q1(), schema)
    data = report.to_json()
    assert data["certified"] is False
    assert data["selections"] and data["selections"][0]["violations"]
    assert "nullable" in data and "subexpressions" in data
    assert "uncertified" in report.to_table()


def test_nullable_applies_to_translated_expressions():
    from nullvl import translate

    schema = rs_schema(nullable=True)
    translated = translate.tr_to_3vl(q1(), schema).output
    assert analyze.nullable(translated, schema) == ("R.A",)


# counterexamples the coincidence family once found: (seed, cases, expression)
COINCIDENCE_REGRESSIONS = [
    # `mod` by a zero column value is NULL inside a negated comparison
    (145, 20, "(intersect-all (project ((as p3 (col e)) (as p4 (fn neg (col e)))) "
              "(product (base T) (project ((as r1 (col e)) (as r2 (col g))) (base T)))) "
              "(project ((as u7 (col e)) (as u8 (col e))) (select (not (cmp > "
              "(tuple (fn mod (num 2) (col e)) (num 1)) (tuple (num 9) (fn neg (num 3))))) "
              "(except-all (base T) (project ((as u5 (num 9)) (as u6 (null))) (base S))))))"),
    (169, 20, "(select (not (cmp > (tuple (col g1) (fn mod (col b) (num -1))) "
              "(tuple (fn mod (col k) (col b)) (fn mult (fn neg (num 7)) (col k))))) "
              "(group (k b) ((as g1 (min k))) (distinct (base R))))"),
    # the NOT IN subquery projects the nullable outer name p1
    (303021, 5, "(select (not (in (num -2) (project ((as q5 (col p4))) "
                "(project ((as p4 (col p1))) (base S))))) "
                "(project ((as p1 (fn neg (null))) (as p2 (col d)) (as p3 (num 8))) "
                "(distinct (base S))))"),
]


def test_certificate_rejects_null_sources_under_negation():
    schema = default_schema()
    rules = []
    for _, _, text in COINCIDENCE_REGRESSIONS:
        expr = typecheck(parse_expression(text), schema).expr
        report = analyze.coincidence_certificate(expr, schema)
        assert not report.certified, text
        rules.append({v.rule for s in report.selections for v in s.violations})
    assert rules == [{"nullable-comparison"}, {"nullable-comparison"}, {"nullable-subquery"}]


def test_coincidence_family_passes_its_former_counterexamples():
    for seed, cases, _ in COINCIDENCE_REGRESSIONS:
        summary = harness.run_differential("coincidence", FuzzConfig(seed=seed, cases=cases))
        assert summary.failed == 0, seed


def _correlated_outer():
    inner = ast.Selection(
        ast.Not(ast.Compare((col("R.A"),), "=", (col("S.A"),))), ast.BaseRelation("S")
    )
    return ast.Selection(ast.Empty(inner), ast.BaseRelation("R"))


def _pinned_certificate_cases():
    """(expression, schema) pairs whose certificates the digest pins: fuzz
    expressions of depth 3-6, then the nested and correlated shapes above."""
    schema = default_schema()
    for i in range(200):
        cfg = FuzzConfig(seed=i, max_depth=3 + i % 4)
        yield typecheck(gen_expression(schema, cfg, random.Random(i)), schema).expr, schema
    for _, _, text in COINCIDENCE_REGRESSIONS:
        yield parse_expression(text), schema
    nullable_r = Schema(
        [
            Relation("R", (Column("R.A", NUM, nullable=True),)),
            Relation("S", (Column("S.A", NUM, nullable=False),)),
        ]
    )
    for rs in (rs_schema(nullable=True), rs_schema(nullable=False), rs_schema(keys=True), nullable_r):
        for q in (q1(), q2(), q3(), q4(), q1_translated(), _correlated_outer()):
            yield q, rs
    for co in (customer_orders_schema(True), customer_orders_schema(False)):
        yield q5(), co
        yield q5_translated(), co
    seed = ast.Projection((ast.ProjItem(col("B"), "w"),), ast.BaseRelation("R"))
    for step in (
        ast.Projection((ast.ProjItem(col("A"), "w"),), ast.BaseRelation("R")),
        ast.Projection((ast.ProjItem(col("w"), "w"),), ast.BaseRelation("W")),
        ast.Selection(ast.Not(ast.In((col("w"),), ast.Projection(
            (ast.ProjItem(col("A"), "x"),), ast.BaseRelation("R")))), ast.BaseRelation("W")),
    ):
        yield ast.Mu("W", True, seed, step), mixed_schema()


def test_selection_and_violation_paths_are_translate_trace_paths():
    # σ(a = 1 ∧ ¬(b IN π_c(σ(¬(c = 2))(S))))(R): c may be NULL
    inner = ast.Projection(
        (ast.ProjItem(col("c"), None),),
        ast.Selection(ast.Not(ast.Compare((col("c"),), "=", (num(2),))), ast.BaseRelation("S")),
    )
    expr = ast.Selection(
        ast.And(ast.Compare((col("a"),), "=", (num(1),)), ast.Not(ast.In((col("b"),), inner))),
        ast.BaseRelation("R"),
    )
    schema = default_schema()
    report = analyze.coincidence_certificate(expr, schema)
    found = [(s.path, v.path, v.rule) for s in report.selections for v in s.violations]
    assert found == [
        ("", "cond.r.n", "nullable-subquery"),
        ("/cond.r.n/q/src", "cond.n", "nullable-comparison"),
    ]
    # a selection path, "/" and a violation path make translate's path for that atom
    trace = translate.tr_to_3vl(expr, schema).trace
    assert ("/cond.r.n", "in-null-filtered") in trace
    assert ("/cond.r.n/q/src/cond.n", "compare-template:f") in trace
    for sel_path, v_path, _ in found:
        assert any(path == f"{sel_path}/{v_path}" for path, _ in trace)


# pins the analyzer's output over the cases above; a change in any derived
# label, nullable set or violation shows here.  Re-pinned once, when the
# condition paths took translate's `.l` / `.r` / `.n` steps; with every path
# blanked the reports were byte-identical before and after.
PINNED_CERTIFICATE_DIGEST = "827f9da1ee15f674e8eccc2987916caa62ac87f81dfeed814d4f23957d8f3188"


def test_certificates_match_pinned_digest():
    digest = hashlib.sha256()
    for expr, schema in _pinned_certificate_cases():
        report = analyze.coincidence_certificate(expr, schema)
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CERTIFICATE_DIGEST


def _stacked_not_in(n: int) -> ast.Expression:
    e = ast.BaseRelation("R")
    for _ in range(n):
        e = ast.Selection(ast.Not(ast.In((col("R.A"),), ast.BaseRelation("S"))), e)
    return e


def test_certificate_derivations_grow_linearly_with_depth(monkeypatch):
    from nullvl.typecheck import Typechecker

    calls = []
    for name in ("check_expr", "check_cond"):
        real = getattr(Typechecker, name)
        monkeypatch.setattr(
            Typechecker, name, lambda self, *a, real=real: calls.append(1) or real(self, *a)
        )
    schema = rs_schema(nullable=True)
    counts = []
    for n in (100, 200):
        calls.clear()
        report = analyze.coincidence_certificate(_stacked_not_in(n), schema)
        assert len(report.selections) == n and not report.certified
        counts.append(len(calls))
    assert counts[1] <= 2.2 * counts[0]
