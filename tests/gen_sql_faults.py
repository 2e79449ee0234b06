"""Write tests/sql_faults.json: malformed SQL texts and the error that
`sqlfront.parse_sql` reports for each.

    PYTHONPATH=src python tests/gen_sql_faults.py

The file opens with hand-written texts (HAND), then holds mutants: each is
the SQL printed for a generated expression, or one of the queries in BASE,
some of whose spaces are turned into other layout or a comment, with one
mutation: one of the characters ( ) ' " , . - $ and newline, or one
keyword, deleted, duplicated or inserted.  Mutants that still parse are
dropped.  The output is a JSON list of [text, error class, error message];
`test_sqlfront.py` replays it.
"""
from __future__ import annotations

import json
import os
import random
import re

from nullvl.errors import SqlEmitError, SqlParseError, UnsupportedSqlError
from nullvl.fuzz import FuzzConfig, default_schema, gen_expression
from nullvl.sqlfront import emit_sql, parse_sql

SEED = 27
COUNT = 400
CHARS = ["(", ")", "'", '"', ",", ".", "-", "$", "\n"]
KEYWORDS = [
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "AS", "AND", "OR",
    "NOT", "IN", "EXISTS", "ANY", "ALL", "SOME", "IS", "NULL", "UNION", "INTERSECT",
    "EXCEPT", "WITH", "RECURSIVE", "TRUE", "FALSE", "COUNT", "SUM", "MAX", "ORDER",
    "JOIN", "LIMIT",
]
# queries beside the printed ones: WITH RECURSIVE, ANY / ALL, a derived table
BASE = [
    "WITH RECURSIVE reach AS (\n  (SELECT src, dst FROM E)\n  UNION\n"
    "  (SELECT reach.src, E.dst FROM reach, E WHERE reach.dst = E.src)\n)\n"
    "SELECT * FROM reach",
    "SELECT R.A FROM R WHERE NOT R.A = ANY (SELECT S.A FROM S)",
    "SELECT R.A FROM R WHERE R.A = ALL (SELECT S.A FROM S)",
    "SELECT R.A FROM R WHERE R.A NOT IN (SELECT S.A FROM S)",
    "(SELECT R.A FROM R) EXCEPT ALL (SELECT R.A FROM R WHERE NOT R.A = 1)",
    "SELECT c_nationkey, COUNT(c_custkey)\nFROM customer\nWHERE c_acctbal >\n"
    " (SELECT avg(c_acctbal)\n  FROM customer WHERE c_acctbal > 0.0 AND\n"
    "  c_custkey NOT IN (SELECT o_custkey FROM orders) )\nGROUP BY c_nationkey",
    "SELECT t.A, 'it''s' AS \"the \"\"label\"\"\" FROM (SELECT R.A FROM R WHERE R.A > -1) AS t, "
    "S WHERE t.A <> S.A OR t.A IS NULL",
]
# texts with one fault each, beside the mutants
HAND = [
    "SELECT R.A FROM R WHERE R.A = $1",
    "SELECT R.A FROM R WHERE R.A = 'open",
    'SELECT "R.A FROM R',
    "SELECT R.A FROM R WHERE",
    "SELECT R.A FROM R WHERE R.A = (SELECT S.A FROM S",
    "SELECT R.A -- the column\nFROM R WHERE R.A = = 1",
    "SELECT R.A FROM R -- WHERE\n$",
    "SELECT 'two\nlines' AS t FROM R WHERE t = ,",
    "SELECT 'two\nlines' FROM R $",
    "SELECT R.A FROM R ORDER BY $",
    "SELECT R.A FROM R WHERE R.A = 1e5",
    "SELECT R.A\nFROM R WHERE R.A = " + "9" * 4301,
    "",
]
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sql_faults.json")


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with one character or keyword deleted, duplicated or inserted."""
    op = rng.choice(["delete", "duplicate", "insert"])
    if rng.random() < 0.5:
        item = rng.choice(CHARS)
        spans = [(m.start(), m.end()) for m in re.finditer(re.escape(item), text)]
        if op == "insert" or not spans:
            at = rng.randrange(len(text) + 1)
            return text[:at] + item + text[at:]
    else:
        item = rng.choice(KEYWORDS)
        spans = [(m.start(), m.end()) for m in re.finditer(rf"\b{item}\b ?", text, re.IGNORECASE)]
        if op == "insert" or not spans:
            at = rng.choice([m.start() for m in re.finditer(r"\s", text)] or [0])
            return text[:at] + " " + item + text[at:]
    start, end = rng.choice(spans)
    if op == "delete":
        return text[:start] + text[end:]
    return text[:end] + text[start:end] + text[end:]


def error(text: str):
    """[text, error class, message] of ``text``, or None when it parses."""
    try:
        parse_sql(text)
    except (SqlParseError, UnsupportedSqlError) as err:
        return [text, type(err).__name__, str(err)]
    return None


def main() -> None:
    rng = random.Random(SEED)
    schema = default_schema()
    faults = [error(text) for text in HAND]
    assert None not in faults
    mutants = 0
    while mutants < COUNT:
        if rng.random() < 0.15:
            text = rng.choice(BASE)
        else:
            cfg = FuzzConfig(seed=rng.randrange(10**6), max_depth=rng.choice([2, 3]))
            try:
                text = emit_sql(gen_expression(schema, cfg, random.Random(cfg.seed)))
            except SqlEmitError:
                continue
        # the printer writes no layout but single spaces: vary some
        text = re.sub(r" (?=[A-Z(])", lambda m: rng.choice([" "] * 8 + ["\n", "\t", "\r\n", " -- c\n"]), text)
        fault = error(mutate(rng, text))
        if fault is not None:
            faults.append(fault)
            mutants += 1
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(fault) for fault in faults) + "\n]\n")


if __name__ == "__main__":
    main()
