import typing

import pytest

from nullvl import ast
from nullvl.ast import col, expand_tuple_comparison, expression_size, num
from nullvl.errors import TypeCheckError
from nullvl.typecheck import labels, typecheck
from nullvl.values import NUM, ORD, Column, Relation, Schema

from sample_queries import customer_orders_schema, q5, rs_schema


def abc_schema():
    return Schema(
        [
            Relation("R", (Column("A", NUM), Column("B", ORD))),
            Relation("S", (Column("C", NUM),)),
        ]
    )


def test_labels_product_concatenates():
    schema = abc_schema()
    assert labels(ast.Product(ast.BaseRelation("R"), ast.BaseRelation("S")), schema) == (
        "A",
        "B",
        "C",
    )


def test_labels_group_mixes_renames_and_canonical_names():
    schema = Schema([Relation("R", (Column("A", ORD), Column("B", NUM)))])
    g = ast.Group(
        ("A",),
        (ast.AggItem("count", "B", "C"), ast.AggItem("sum", "B", None)),
        ast.BaseRelation("R"),
    )
    assert labels(g, schema) == ("A", "C", "sum(B)")


def test_labels_base_relation():
    schema = abc_schema()
    assert labels(ast.BaseRelation("R"), schema) == ("A", "B")


def test_labels_rejects_duplicates():
    schema = abc_schema()
    with pytest.raises(TypeCheckError, match="repeats"):
        labels(ast.Product(ast.BaseRelation("R"), ast.BaseRelation("R")), schema)


def test_labels_names_repeated_outputs_apart_as_typecheck_does():
    schema = abc_schema()
    proj = ast.Projection(
        (ast.ProjItem(col("A")), ast.ProjItem(col("A")), ast.ProjItem(col("B"), "A_2"), ast.ProjItem(col("A"))),
        ast.BaseRelation("R"),
    )
    assert labels(proj, schema) == typecheck(proj, schema).sig.labels == ("A", "A_2", "A_2_2", "A_3")
    group = ast.Group(
        ("A",),
        (ast.AggItem("count", "A", "A"), ast.AggItem("count_star", None), ast.AggItem("count_star", None)),
        ast.BaseRelation("R"),
    )
    assert labels(group, schema) == typecheck(group, schema).sig.labels == ("A", "A_2", "count(*)", "count(*)_2")
    with pytest.raises(TypeCheckError, match="group output repeats names"):
        labels(ast.Group(("A", "A"), (), ast.BaseRelation("R")), schema)


def test_typecheck_rejects_sum_over_ordinary():
    schema = abc_schema()
    g = ast.Group((), (ast.AggItem("sum", "B", None),), ast.BaseRelation("R"))
    with pytest.raises(TypeCheckError, match="non-numerical"):
        typecheck(g, schema)


def test_typecheck_rejects_setop_arity_mismatch():
    schema = abc_schema()
    u = ast.SetOp("union", ast.BaseRelation("R"), ast.BaseRelation("S"))
    with pytest.raises(TypeCheckError, match="type words differ"):
        typecheck(u, schema)


def test_typecheck_accepts_the_aggregate_benchmark_query():
    checked = typecheck(q5(), customer_orders_schema())
    assert checked.sig.labels == ("c_nationkey", "count(c_custkey)")
    assert checked.sig.types == ("n", "n")


def test_typecheck_rejects_order_comparison_on_ordinary():
    schema = abc_schema()
    sel = ast.Selection(
        ast.Compare((col("B"),), "<", (ast.OrdConst("x"),)), ast.BaseRelation("R")
    )
    with pytest.raises(TypeCheckError, match="order comparison"):
        typecheck(sel, schema)


def test_typecheck_auto_renames_clashing_projection_outputs():
    schema = abc_schema()
    p = ast.Projection(
        (ast.ProjItem(col("A"), None), ast.ProjItem(col("A"), None)),
        ast.BaseRelation("R"),
    )
    checked = typecheck(p, schema)
    assert checked.sig.labels == ("A", "A_2")
    assert checked.renames == ("projection output 'A' renamed to 'A_2'",)
    # a fresh name already taken moves on to the next suffix
    p = ast.Projection(
        (
            ast.ProjItem(col("A"), None),
            ast.ProjItem(col("B"), "A_2"),
            ast.ProjItem(col("A"), None),
        ),
        ast.BaseRelation("R"),
    )
    checked = typecheck(p, schema)
    assert checked.sig.labels == ("A", "A_2", "A_3")
    assert checked.renames == ("projection output 'A' renamed to 'A_3'",)


def test_typecheck_mu_freshness_and_seed_restriction():
    schema = abc_schema()
    seed = ast.Projection((ast.ProjItem(col("C"), "w"),), ast.BaseRelation("S"))
    step = ast.Projection(
        (ast.ProjItem(ast.FnApply("add", (col("w"), num(1))), "w"),),
        ast.BaseRelation("W"),
    )
    ok = ast.Mu("W", True, seed, step)
    assert typecheck(ok, schema).sig.labels == ("w",)
    with pytest.raises(TypeCheckError, match="not fresh"):
        typecheck(ast.Mu("R", True, seed, step), schema)
    bad_seed = ast.Projection((ast.ProjItem(col("w"), "w"),), ast.BaseRelation("W"))
    with pytest.raises(TypeCheckError, match="must not reference"):
        typecheck(ast.Mu("W", True, bad_seed, step), schema)

    # the seed may not read W through a condition subquery either ...
    def seed_where(cond):
        return ast.Projection((ast.ProjItem(col("C"), "w"),), ast.Selection(cond, ast.BaseRelation("S")))

    def subquery_conditions(query):
        return (ast.Empty(query), ast.Not(ast.In((col("C"),), ast.Projection((ast.ProjItem(col("w")),), query))))

    for cond in subquery_conditions(ast.BaseRelation("W")):
        with pytest.raises(TypeCheckError, match="must not reference"):
            typecheck(ast.Mu("W", True, seed_where(cond), step), schema)
    # ... unless an inner fixpoint of the same name rebinds it
    for cond in subquery_conditions(ast.Mu("W", True, seed, step)):
        assert typecheck(ast.Mu("W", True, seed_where(cond), step), schema).sig.labels == ("w",)


@pytest.mark.parametrize(
    "cls", typing.get_args(ast.Expression) + typing.get_args(ast.Condition), ids=lambda c: c.__name__
)
def test_steps_lists_every_expression_and_condition_field_in_order(cls):
    node = cls(*(object() for _ in cls._fields))
    hints = typing.get_type_hints(cls)
    expected = [
        getattr(node, name)
        for name in cls._fields
        if hints[name] in (ast.Expression, ast.Condition)
    ]
    pairs = ast.steps(node)
    assert [child for _, child in pairs] == expected
    assert len({step for step, _ in pairs}) == len(pairs)


_R, _S = ast.BaseRelation("R"), ast.BaseRelation("S")
_A, _B = col("A"), col("B")
# one instance of every expression and condition kind, its children and
# terms told apart
SAMPLE_NODES = {
    ast.BaseRelation: _R,
    ast.Projection: ast.Projection((ast.ProjItem(_A, "x"),), _R),
    ast.Selection: ast.Selection(ast.CTrue(), _R),
    ast.Product: ast.Product(_R, _S),
    ast.SetOp: ast.SetOp("except", _R, _S),
    ast.Distinct: ast.Distinct(_R),
    ast.Group: ast.Group(("A",), (ast.AggItem("count_star", None, "n"),), _R),
    ast.Mu: ast.Mu("W", True, _R, ast.BaseRelation("W")),
    ast.CTrue: ast.CTrue(),
    ast.CFalse: ast.CFalse(),
    ast.IsNull: ast.IsNull(_A),
    ast.Compare: ast.Compare((_A, num(1)), "<", (_B, num(2))),
    ast.In: ast.In((_A, _B), _R),
    ast.Empty: ast.Empty(_S),
    ast.Quant: ast.Quant((_A,), "<=", "all", _R),
    ast.And: ast.And(ast.CTrue(), ast.CFalse()),
    ast.Or: ast.Or(ast.CFalse(), ast.CTrue()),
    ast.Not: ast.Not(ast.IsNull(_B)),
}
# the kinds with no expression or condition child, and no table entry
CHILDLESS = {ast.BaseRelation, ast.CTrue, ast.CFalse, ast.IsNull, ast.Compare}


@pytest.mark.parametrize(
    "cls", typing.get_args(ast.Expression) + typing.get_args(ast.Condition), ids=lambda c: c.__name__
)
def test_map_children_and_map_terms_rebuild_every_kind(cls):
    node = SAMPLE_NODES[cls]
    assert bool(ast.steps(node)) == (cls not in CHILDLESS)
    seen = []
    rebuilt = ast.map_children(node, lambda child, path: seen.append((path, child)) or child, "/x")
    assert rebuilt == node
    assert seen == [("/x" + step, child) for step, child in ast.steps(node)]
    hints = typing.get_type_hints(cls)
    terms = []
    for name in cls._fields:
        if hints[name] == ast.Term:
            terms.append(getattr(node, name))
        elif hints[name] == tuple[ast.Term, ...]:
            terms.extend(getattr(node, name))
    assert ast.condition_terms(node) == terms
    seen_terms = []
    assert ast.map_terms(node, lambda t: seen_terms.append(t) or t) == node
    assert seen_terms == terms


def test_expression_size():
    assert expression_size(ast.BaseRelation("R")) == 1
    assert expression_size(ast.Selection(ast.CTrue(), ast.BaseRelation("R"))) == 3


def test_expand_equality_is_conjunction():
    x1, x2, y1, y2 = col("x1"), col("x2"), col("y1"), col("y2")
    got = expand_tuple_comparison((x1, x2), "=", (y1, y2))
    assert got == ast.And(
        ast.Compare((x1,), "=", (y1,)), ast.Compare((x2,), "=", (y2,))
    )


def test_expand_order_uses_prefix_equality():
    x1, x2, y1, y2 = col("x1"), col("x2"), col("y1"), col("y2")
    got = expand_tuple_comparison((x1, x2), "<", (y1, y2))
    assert got == ast.Or(
        ast.Compare((x1,), "<", (y1,)),
        ast.And(ast.Compare((x1,), "=", (y1,)), ast.Compare((x2,), "<", (y2,))),
    )


def test_expand_unary_is_identity():
    x, y = col("x"), col("y")
    assert expand_tuple_comparison((x,), ">=", (y,)) == ast.Compare((x,), ">=", (y,))


def test_expand_inequality_is_disjunction():
    x1, x2, y1, y2 = col("x1"), col("x2"), col("y1"), col("y2")
    got = expand_tuple_comparison((x1, x2), "!=", (y1, y2))
    assert got == ast.Or(
        ast.Compare((x1,), "!=", (y1,)), ast.Compare((x2,), "!=", (y2,))
    )


def test_labels_distinct_on_generated_corpus():
    import random

    from nullvl.fuzz import ExpressionGenerator, FuzzConfig, default_schema

    schema = default_schema()
    for seed in range(80):
        gen = ExpressionGenerator(schema, FuzzConfig(seed=seed, max_depth=4), random.Random(seed))
        checked = typecheck(gen.expression(), schema)
        out = labels(checked.expr, schema)
        assert len(set(out)) == len(out)


def test_typecheck_auto_renames_clashing_aggregate_outputs():
    schema = Schema([Relation("R", (Column("A", ORD), Column("B", NUM)))])
    g = ast.Group(
        (),
        (ast.AggItem("count", "B", None), ast.AggItem("count", "B", None)),
        ast.BaseRelation("R"),
    )
    checked = typecheck(g, schema)
    assert checked.sig.labels == ("count(B)", "count(B)_2")
    assert checked.renames == ("aggregate output 'count(B)' renamed to 'count(B)_2'",)
    # aggregates are named apart from the grouping names too
    g = ast.Group(("A",), (ast.AggItem("count", "B", "A"),), ast.BaseRelation("R"))
    checked = typecheck(g, schema)
    assert checked.sig.labels == ("A", "A_2")
    assert checked.renames == ("aggregate output 'A' renamed to 'A_2'",)
    with pytest.raises(TypeCheckError, match=r"grouping names repeat: \('A', 'A'\)"):
        typecheck(ast.Group(("A", "A"), (), ast.BaseRelation("R")), schema)


def test_sql_comments_are_skipped():
    from nullvl import sqlfront

    q = sqlfront.parse_sql("SELECT R.A -- the column\nFROM R")
    assert q.items[0].expr.name == "A"
