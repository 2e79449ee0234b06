import json
import os
import random

import pytest

from nullvl import ast, sqlfront, translate
from nullvl.ast import col, num
from nullvl.errors import SqlParseError, UnsupportedSqlError
from nullvl.evaluator import evaluate
from nullvl.fuzz import ExpressionGenerator, FuzzConfig, default_schema, gen_database
from nullvl.typecheck import typecheck
from nullvl.values import NUM, Bag, Column, Database, Relation, Schema

from gen_sql_lowerings import lowering
from sample_queries import bag, customer_orders_schema, q1, q5, rs_db, rs_schema

SCHEMA = rs_schema()

Q1_SQL = "SELECT R.A FROM R WHERE R.A NOT IN ( SELECT S.A FROM S )"
Q5_SQL = """
SELECT c_nationkey, COUNT(c_custkey)
FROM customer
WHERE c_acctbal >
 (SELECT avg(c_acctbal)
  FROM customer WHERE c_acctbal > 0.0 AND
  c_custkey NOT IN (SELECT o_custkey FROM orders) )
GROUP BY c_nationkey
"""


def lower(sql, schema):
    return sqlfront.lower_to_algebra(sqlfront.parse_sql(sql), schema)


def test_membership_query_text_is_accepted():
    assert lower(Q1_SQL, SCHEMA) == q1()


def test_aggregate_query_text_is_accepted():
    schema = customer_orders_schema()
    lowered = lower(Q5_SQL, schema)
    # identical up to the elision of single-column identity projections
    assert typecheck(lowered, schema).sig.labels == ("c_nationkey", "count(c_custkey)")
    got = ast.render_expression(lowered)
    assert "(any > (col c_acctbal) (group () ((avg c_acctbal))" in got
    assert "(not (in (col c_custkey)" in got


def test_a_qualified_column_after_group_by_resolves_as_the_bare_one():
    schema = customer_orders_schema()
    bare = "SELECT c_nationkey, COUNT(*) FROM customer GROUP BY c_nationkey"
    want = lower(bare, schema)
    assert ast.render_expression(want) == "(group (c_nationkey) ((count-star)) (base customer))"
    assert lower(bare.replace("c_nationkey", "customer.c_nationkey"), schema) == want
    aliased = "SELECT c.c_nationkey, COUNT(*) FROM customer AS c GROUP BY c.c_nationkey"
    assert lower(aliased, schema) == want
    # the grouping's output order is kept where the items list it otherwise
    pair = "SELECT {} FROM customer, orders GROUP BY orders.o_custkey, customer.c_nationkey"
    kept = lower(pair.format("customer.c_nationkey, orders.o_custkey"), schema)
    assert typecheck(kept, schema).sig.labels == ("c_nationkey", "o_custkey")
    elided = lower(pair.format("orders.o_custkey, c_nationkey"), schema)
    assert isinstance(elided, ast.Group)
    for text, ref in (
        ("SELECT customer.c_acctbal FROM customer GROUP BY c_nationkey", "customer.c_acctbal"),
        ("SELECT orders.c_nationkey FROM customer, orders GROUP BY c_nationkey", "orders.c_nationkey"),
        ("SELECT customer.c_nationkey FROM customer AS c GROUP BY c.c_nationkey", "customer.c_nationkey"),
    ):
        with pytest.raises(SqlParseError, match=f"unresolved column reference '{ref}'"):
            lower(text, schema)


def test_window_functions_are_named_unsupported():
    with pytest.raises(UnsupportedSqlError):
        sqlfront.parse_sql("SELECT rank() OVER (ORDER BY x) FROM R")


def test_join_and_order_by_are_named_unsupported():
    with pytest.raises(UnsupportedSqlError, match="JOIN"):
        sqlfront.parse_sql("SELECT * FROM R JOIN S ON R.A = S.A")
    with pytest.raises(UnsupportedSqlError, match="ORDER BY"):
        sqlfront.parse_sql("SELECT R.A FROM R ORDER BY R.A")


def test_distinct_inside_an_aggregate_is_named_unsupported():
    for sql in ("SELECT count(DISTINCT a) FROM R", "SELECT sum(DISTINCT a) FROM R"):
        with pytest.raises(UnsupportedSqlError,
                           match="^unsupported feature: DISTINCT inside an aggregate$"):
            sqlfront.parse_sql(sql)


with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "sql_faults.json"), encoding="utf-8") as fh:
    SQL_FAULTS = json.load(fh)  # written by gen_sql_faults.py


def test_mutated_sql_texts_keep_their_errors():
    # 13 hand-written texts, then 400 mutants
    assert len(SQL_FAULTS) == 413
    wrong = []
    for text, cls, message in SQL_FAULTS:
        try:
            sqlfront.parse_sql(text)
            got = None
        except (SqlParseError, UnsupportedSqlError) as err:
            got = [type(err).__name__, str(err)]
        if got != [cls, message]:
            wrong.append((text, [cls, message], got))
    assert not wrong


with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "sql_lowerings.json"), encoding="utf-8") as fh:
    SQL_LOWERINGS = json.load(fh)  # written by gen_sql_lowerings.py


def test_sql_texts_keep_their_lowerings():
    # 29 hand-written texts, 300 printed expressions, the 7 BASE queries of
    # gen_sql_faults.py and 300 mutants that parse
    assert len(SQL_LOWERINGS) == 636
    wrong = [(entry, got) for entry in SQL_LOWERINGS if (got := lowering(*entry[:2])) != entry]
    assert not wrong


REPEATED_OUTPUTS = [
    ("SELECT * FROM (SELECT A, A FROM R) AS T", "SELECT A, A FROM R"),
    ("SELECT * FROM (SELECT COUNT(*), COUNT(*) FROM R) AS T", "SELECT COUNT(*), COUNT(*) FROM R"),
    (
        "WITH RECURSIVE W AS ((SELECT A, A FROM R) UNION ALL (SELECT * FROM W WHERE FALSE)) SELECT * FROM W",
        "SELECT A, A FROM R",
    ),
    (
        "SELECT * FROM (SELECT A, COUNT(*), COUNT(*) FROM R GROUP BY A) AS T",
        "SELECT A, COUNT(*), COUNT(*) FROM R GROUP BY A",
    ),
]


@pytest.mark.parametrize("sql,top", REPEATED_OUTPUTS)
def test_repeated_output_names_below_the_top_are_named_apart_as_at_the_top(sql, top, cfg3):
    db = rs_db([1, 1, None], [])

    def run(text):
        checked = typecheck(lower(text, SCHEMA), SCHEMA)
        return checked.sig.labels, evaluate(checked.expr, db, cfg=cfg3)

    got = run(sql)
    assert got == run(top)
    assert got[0][-1].endswith("_2")


def test_not_exists_lowers_to_emptiness():
    sql = "SELECT R.A FROM R WHERE NOT EXISTS (SELECT S.A FROM S WHERE S.A = R.A)"
    lowered = lower(sql, SCHEMA)
    assert isinstance(lowered.cond, ast.Empty)


def test_both_inequality_spellings():
    for spelling in ("<>", "!="):
        lowered = lower(f"SELECT R.A FROM R WHERE R.A {spelling} 1", SCHEMA)
        assert lowered.cond.op == "!="


def test_scalar_aggregate_comparison_becomes_any():
    schema = customer_orders_schema()
    lowered = lower(
        "SELECT c_custkey FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer)",
        schema,
    )
    sel = lowered.source
    assert isinstance(sel.cond, ast.Quant) and sel.cond.quant == "any"
    assert isinstance(sel.cond.query, ast.Group)


def test_lowering_differs_from_sql_where_documented(cfg3):
    # docs/grammar.md, "Where the lowering differs from SQL": change the doc
    # with any fix that changes these results
    db = rs_db([1, 2, None], [])
    # SQL gives one row, 0; the grouping over no names has no row on empty input
    assert evaluate(typecheck(lower("SELECT COUNT(*) FROM S", SCHEMA), SCHEMA).expr, db, cfg=cfg3) == Bag([])
    # SQL compares with the subquery's one NULL row and keeps none; `= ANY`
    # over no row is false, so NOT keeps every row
    sql = "SELECT R.A FROM R WHERE NOT (R.A = (SELECT MAX(S.A) FROM S))"
    lowered = typecheck(lower(sql, SCHEMA), SCHEMA).expr
    assert lowered.cond.cond.quant == "any"
    assert evaluate(lowered, db, cfg=cfg3) == bag(1, 2, None)


def test_having_lowers_to_selection_over_group():
    schema = customer_orders_schema()
    lowered = lower(
        "SELECT c_nationkey, COUNT(c_custkey) FROM customer "
        "GROUP BY c_nationkey HAVING COUNT(c_custkey) > 1",
        schema,
    )
    assert isinstance(lowered, ast.Selection)
    assert isinstance(lowered.source, ast.Group)


def test_aggregate_without_group_by_uses_global_group():
    schema = customer_orders_schema()
    lowered = lower("SELECT SUM(c_acctbal) FROM customer", schema)
    assert isinstance(lowered, ast.Group) and lowered.names == ()


def test_union_without_all_applies_set_semantics(cfg3):
    db = rs_db([1, 1, 2], [2, 3])
    plain = lower("(SELECT R.A FROM R) UNION (SELECT S.A FROM S)", SCHEMA)
    assert evaluate(plain, db, cfg=cfg3) == bag(1, 2, 3)
    all_ = lower("(SELECT R.A FROM R) UNION ALL (SELECT S.A FROM S)", SCHEMA)
    assert evaluate(all_, db, cfg=cfg3) == bag(1, 1, 2, 2, 3)


def test_unresolved_and_ambiguous_references():
    with pytest.raises(SqlParseError, match="unresolved"):
        lower("SELECT R.Z FROM R", SCHEMA)
    schema = Schema(
        [
            Relation("R", (Column("A", NUM),)),
            Relation("S", (Column("A", NUM),)),
        ]
    )
    with pytest.raises(SqlParseError, match="ambiguous"):
        lower("SELECT A FROM R, S", schema)


LOWERING_ERRORS = [
    ("SELECT Z FROM R", "unresolved column reference 'Z'"),
    ("SELECT R.Z FROM R", "unresolved column reference 'R.Z'"),
    ("SELECT A FROM R, S", "ambiguous column reference 'A'"),
    ("SELECT * FROM T", "unknown relation 'T'"),
    ("SELECT * FROM R X, S X", "duplicate alias in FROM: ['X', 'X']"),
    ("SELECT R.A FROM R WHERE COUNT(*) > 1", "aggregate used outside SELECT/HAVING of a grouped query"),
    (
        "WITH RECURSIVE W (a, b) AS ((SELECT R.A FROM R) UNION (SELECT W.a FROM W)) SELECT * FROM W",
        "WITH RECURSIVE W: 2 declared columns, seed produces 1",
    ),
    (
        "WITH RECURSIVE R AS ((SELECT S.A FROM S) UNION (SELECT S.A FROM S)) SELECT * FROM R",
        "recursive relation 'R' is not a fresh name",
    ),
]


def test_lowering_errors_claim_no_position():
    # a query that parses but does not lower has no line and column
    schema = Schema([Relation("R", (Column("A", NUM),)), Relation("S", (Column("A", NUM),))])
    for sql, message in LOWERING_ERRORS:
        query = sqlfront.parse_sql(sql)
        with pytest.raises(SqlParseError) as err:
            sqlfront.lower_to_algebra(query, schema)
        assert str(err.value) == message, sql


def test_with_recursive_round_trips(cfg3):
    schema = Schema([Relation("E", (Column("src", NUM, False), Column("dst", NUM, False)))])
    sql = """
    WITH RECURSIVE reach AS (
      (SELECT src, dst FROM E)
      UNION
      (SELECT reach.src, E.dst FROM reach, E WHERE reach.dst = E.src)
    )
    SELECT * FROM reach
    """
    lowered = lower(sql, schema)
    assert isinstance(lowered, ast.Mu) and lowered.distinct
    db = Database(schema, {"E": bag((1, 2), (2, 3), (3, 4))})
    out = evaluate(typecheck(lowered, schema).expr, db, cfg=cfg3)
    assert out == bag((1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4))
    # and the emitted SQL parses back to something that evaluates equally
    sql2 = sqlfront.emit_sql(lowered)
    again = typecheck(lower(sql2, schema), schema).expr
    assert evaluate(again, db, cfg=cfg3) == out


def test_emit_base_relation():
    assert sqlfront.emit_sql(ast.BaseRelation("R")) == 'SELECT * FROM "R"'


def test_emitted_rewrites_carry_null_guards():
    tr1 = translate.tr_to_3vl(q1(), SCHEMA)
    sql1 = sqlfront.emit_sql(tr1.output)
    assert "IS NULL" in sql1 and "IS NOT NULL" in sql1
    schema5 = customer_orders_schema(orders_not_null=False)
    tr5 = translate.tr_to_3vl(q5(), schema5)
    sql5 = sqlfront.emit_sql(tr5.output)
    assert "IS NULL" in sql5 and "IS NOT NULL" in sql5


def test_emit_lower_round_trip_on_corpus(cfg3):
    schema = default_schema()
    cfgf = FuzzConfig(seed=71, max_depth=4)
    checked_cases = 0
    for i in range(120):
        rng = random.Random(7000 + i)
        gen = ExpressionGenerator(schema, cfgf, rng)
        expr = typecheck(gen.expression(), schema).expr
        db = gen_database(schema, cfgf, rng)
        sql = sqlfront.emit_sql(expr)
        lowered = typecheck(lower(sql, schema), schema).expr
        try:
            a = evaluate(expr, db, cfg=cfg3)
            b = evaluate(lowered, db, cfg=cfg3)
        except Exception:
            continue
        assert a == b, sql
        checked_cases += 1
    assert checked_cases > 100


# -- rewrite pairs that agree under the conflating semantics only ------------

PAIRS = [
    (
        'SELECT R.A FROM R WHERE R.A = 1',
        '(SELECT R.A FROM R) EXCEPT ALL (SELECT R.A FROM R WHERE NOT R.A = 1)',
        ([None], []),
    ),
    (
        'SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)',
        'SELECT R.A FROM R WHERE NOT EXISTS (SELECT S.A FROM S WHERE R.A = S.A)',
        ([1, None], [None]),
    ),
    (
        'SELECT R.A FROM R WHERE NOT R.A = ANY (SELECT S.A FROM S)',
        'SELECT R.A FROM R WHERE NOT EXISTS (SELECT S.A FROM S WHERE R.A = S.A)',
        ([1], [None]),
    ),
    (
        'SELECT R.A FROM R WHERE R.A = ALL (SELECT S.A FROM S)',
        'SELECT R.A FROM R WHERE NOT EXISTS (SELECT S.A FROM S WHERE NOT R.A = S.A)',
        ([1], [None]),
    ),
]


@pytest.mark.parametrize("left_sql,right_sql,data", PAIRS)
def test_rewrite_pairs_split_by_semantics(left_sql, right_sql, data, cfg2, cfg3):
    left = typecheck(lower(left_sql, SCHEMA), SCHEMA).expr
    right = typecheck(lower(right_sql, SCHEMA), SCHEMA).expr
    db = rs_db(*data)
    assert evaluate(left, db, cfg=cfg2) == evaluate(right, db, cfg=cfg2)
    assert evaluate(left, db, cfg=cfg3) != evaluate(right, db, cfg=cfg3)


INTRO_TEXTS = {
    "q1": Q1_SQL,
    "q2": "SELECT R.A FROM R WHERE NOT EXISTS ( SELECT S.A FROM S WHERE S.A = R.A )",
    "q3": "SELECT DISTINCT X.A FROM R X, R Y WHERE X.A = Y.A",
    "q4": "SELECT DISTINCT R.A FROM R",
}


def test_intro_sql_texts_evaluate_to_the_documented_bags(cfg3):
    db = rs_db([1, None], [None])
    assert evaluate(typecheck(lower(INTRO_TEXTS["q1"], SCHEMA), SCHEMA).expr, db, cfg=cfg3) == Bag([])
    assert evaluate(typecheck(lower(INTRO_TEXTS["q2"], SCHEMA), SCHEMA).expr, db, cfg=cfg3) == bag(1, None)
    db_single = rs_db([None], [])
    assert evaluate(typecheck(lower(INTRO_TEXTS["q3"], SCHEMA), SCHEMA).expr, db_single, cfg=cfg3) == Bag([])
    assert evaluate(typecheck(lower(INTRO_TEXTS["q4"], SCHEMA), SCHEMA).expr, db_single, cfg=cfg3) == bag(None)


def test_aggregate_query_evaluates_to_the_hand_computed_result(cfg3, cfg2):
    schema = customer_orders_schema()
    db = Database(
        schema,
        {
            "customer": bag((1, 10, 100), (2, 10, 5), (3, 20, 50)),
            "orders": bag(1),
        },
    )
    lowered = typecheck(lower(Q5_SQL, schema), schema).expr
    # customers free of orders: 2 and 3; their average balance is 27.5;
    # balances above it: customers 1 and 3
    expected = bag((10, 1), (20, 1))
    assert evaluate(lowered, db, cfg=cfg3) == expected
    # certified shape: same under the conflating semantics
    assert evaluate(lowered, db, cfg=cfg2) == expected


def test_rewritten_aggregate_query_matches_on_nullable_orders(cfg3, cfg2):
    schema = customer_orders_schema(orders_not_null=False)
    db = Database(
        schema,
        {
            "customer": bag((1, 10, 100), (2, 10, 5), (3, 20, 50)),
            "orders": bag(1, None),
        },
    )
    lowered = typecheck(lower(Q5_SQL, schema), schema).expr
    translated = translate.tr_to_3vl(lowered, schema).output
    assert evaluate(lowered, db, cfg=cfg2) == evaluate(translated, db, cfg=cfg3)
    # the untranslated query diverges here: the NOT IN subquery holds a null
    assert evaluate(lowered, db, cfg=cfg3) != evaluate(lowered, db, cfg=cfg2)
