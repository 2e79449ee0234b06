"""Write tests/sql_lowerings.json: SQL texts that parse, each with what
`sqlfront.lower_to_algebra` makes of it.

    PYTHONPATH=src python tests/gen_sql_lowerings.py

The texts are hand-written ones (HAND, over `BASE_SCHEMA`), the SQL
printed for generated expressions (over `fuzz.default_schema`), the
queries in `gen_sql_faults.BASE` (over `BASE_SCHEMA`), and mutants of the
last two made as in `gen_sql_faults.py` that still parse.  The output is
a JSON list of [schema, text, outcome, detail]: the schema is "default" or
"base"; the outcome is "lowered" with the rendered tree as detail, or the
lowering error's class with its message.
`test_sqlfront.py` replays it.
"""
from __future__ import annotations

import json
import os
import random
import re

from gen_sql_faults import BASE, mutate
from sample_queries import customer_orders_schema, rs_schema

from nullvl.ast import render_expression
from nullvl.errors import SqlEmitError, SqlParseError, TypeCheckError, UnsupportedSqlError
from nullvl.fuzz import FuzzConfig, default_schema, gen_expression
from nullvl.sqlfront import emit_sql, lower_to_algebra, parse_sql
from nullvl.values import NUM, Column, Relation, Schema

SEED = 29
PRINTED = 300
MUTANTS = 300
BASE_SCHEMA = Schema(
    [
        *rs_schema().relations.values(),
        *customer_orders_schema().relations.values(),
        Relation("E", (Column("src", NUM, False), Column("dst", NUM, False))),
    ]
)
# every term and condition form, lowering faults in their order (WHERE
# before the items, a condition's items before its subquery, left before
# right), and repeated output names inside derived tables and seeds
HAND = [
    "SELECT 'x', NULL, -R.A, R.A + 1, R.A - 1, R.A * 2, R.A / 2, R.A % 2, +R.A FROM R",
    "SELECT R.A FROM R WHERE TRUE AND NOT FALSE OR R.A IS NULL AND R.A IS NOT NULL",
    "SELECT R.A FROM R WHERE (R.A, R.A + 1) IN (SELECT S.A, S.A FROM S) OR (R.A, 1) NOT IN (SELECT S.A, 2 FROM S)",
    "SELECT R.A FROM R WHERE R.A > ALL (SELECT S.A FROM S) OR R.A < SOME (SELECT S.A FROM S) OR R.A = ANY (SELECT S.A FROM S)",
    "SELECT R.A FROM R WHERE R.A <= (SELECT MAX(S.A) FROM S) AND (R.A, 2) <> (1, R.A)",
    "SELECT R.A FROM R WHERE EXISTS (SELECT S.A FROM S) AND NOT EXISTS (SELECT S.A FROM S WHERE S.A = R.A)",
    "SELECT R.A, SUM(R.A) + 1, COUNT(*) FROM R GROUP BY R.A HAVING MAX(R.A) > 1 AND COUNT(*) > 0 OR -MIN(R.A) IS NULL",
    "SELECT A, SUM(A) + 1, COUNT(*) FROM R GROUP BY A HAVING MAX(A) > 1 AND COUNT(*) > 0 OR -MIN(A) IS NULL",
    "SELECT AVG(c_acctbal) AS a, c_nationkey FROM customer GROUP BY c_nationkey HAVING c_nationkey IN (SELECT o_custkey FROM orders)",
    "SELECT Z FROM R WHERE R.A IN (SELECT Y FROM S)",
    "SELECT R.A FROM R WHERE Z IN (SELECT Y FROM S)",
    "SELECT R.A FROM R WHERE (Z, R.A) = ANY (SELECT Y, S.A FROM S)",
    "SELECT R.A FROM R WHERE R.A > (SELECT Y FROM S) AND Z = 1",
    "SELECT R.A FROM R WHERE EXISTS (SELECT Y FROM S) AND Z = 1",
    "SELECT R.A FROM R WHERE Z = 1 OR NOT EXISTS (SELECT Y FROM S)",
    "SELECT R.A FROM R WHERE R.A IS NOT NULL AND Q IS NULL",
    "SELECT R.A FROM R WHERE 1 = COUNT(*) OR Z = 1",
    "SELECT COUNT(R.A + 1) FROM R",
    "SELECT R.A FROM R HAVING R.A > 1",
    "SELECT R.A FROM R GROUP BY R.A HAVING COUNT(Z) > 1",
    "SELECT Y, COUNT(Z) FROM R GROUP BY R.A",
    "SELECT A, A FROM R",
    "SELECT * FROM (SELECT A, A FROM R) AS T",
    "SELECT * FROM (SELECT COUNT(*), COUNT(*) FROM R) AS T",
    "WITH RECURSIVE W AS ((SELECT A, A FROM R) UNION ALL (SELECT * FROM W WHERE FALSE)) SELECT * FROM W",
    "SELECT S.A FROM S WHERE S.A IN (SELECT T.A FROM (SELECT A, A FROM R) AS T)",
    "SELECT * FROM (SELECT A, A FROM R) AS T, (SELECT A, A FROM R) AS U",
    "SELECT * FROM (SELECT A, COUNT(*), COUNT(*) FROM R GROUP BY A) AS T",
    "SELECT customer.c_nationkey, COUNT(*) FROM customer GROUP BY customer.c_nationkey",
]
SCHEMAS = {"default": default_schema(), "base": BASE_SCHEMA}
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sql_lowerings.json")


def lowering(schema: str, text: str) -> list:
    """[schema, text, outcome, detail] of a text that parses."""
    query = parse_sql(text)
    try:
        lowered = lower_to_algebra(query, SCHEMAS[schema])
    except (SqlParseError, UnsupportedSqlError, TypeCheckError) as err:
        return [schema, text, type(err).__name__, str(err)]
    return [schema, text, "lowered", render_expression(lowered)]


def parses(text: str) -> bool:
    try:
        parse_sql(text)
    except (SqlParseError, UnsupportedSqlError):
        return False
    return True


def main() -> None:
    rng = random.Random(SEED)
    printed = []
    while len(printed) < PRINTED:
        cfg = FuzzConfig(seed=rng.randrange(10**6), max_depth=rng.choice([2, 3, 4, 5]))
        try:
            printed.append(emit_sql(gen_expression(SCHEMAS["default"], cfg, random.Random(cfg.seed))))
        except SqlEmitError:
            continue
    texts = [("default", text) for text in printed] + [("base", text) for text in BASE]
    mutants = []
    while len(mutants) < MUTANTS:
        schema, text = rng.choice(texts)
        # the printer writes no layout but single spaces: vary some
        text = re.sub(r" (?=[A-Z(])", lambda m: rng.choice([" "] * 8 + ["\n", "\t", " -- c\n"]), text)
        text = mutate(rng, text)
        if parses(text):
            mutants.append((schema, text))
    hand = [("base", text) for text in HAND]
    entries = [lowering(schema, text) for schema, text in hand + texts + mutants]
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")


if __name__ == "__main__":
    main()
