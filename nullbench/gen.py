"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed.  Sizes, NULL counts and graph
shapes are fixed per workload and the seed only permutes values, so the work
a request does barely changes from seed to seed while the data does.
"""
from __future__ import annotations

import json
import random

from nullvl import ast, fuzz
from nullvl.typecheck import typecheck

NULL_SHARE = 0.1

# ---------------------------------------------------------------------------
# Kernel and grounding files, in the format of docs/grammar.md

_OPS = ("=", "!=", "<", ">", "<=", ">=")


def _table(values, fn):
    return [[fn(a, b) for b in values] for a in values]


def kernel_3vl_json() -> dict:
    vals = ("t", "f", "u")

    def conj(a, b):
        return "f" if "f" in (a, b) else ("u" if "u" in (a, b) else "t")

    def disj(a, b):
        return "t" if "t" in (a, b) else ("u" if "u" in (a, b) else "f")

    expr = {}
    for op in _OPS:
        expr[f"{op}|t"] = f"(cmp {op} (arg 1) (arg 2))"
        expr[f"{op}|f"] = f"(not (cmp {op} (arg 1) (arg 2)))"
        expr[f"{op}|u"] = "(or (isnull (arg 1)) (isnull (arg 2)))"
    return {
        "name": "3vl",
        "values": list(vals),
        "true": "t",
        "false": "f",
        "and": _table(vals, conj),
        "or": _table(vals, disj),
        "not": ["f", "t", "u"],
        "null_comparison": {op: {"1": "u", "2": "u", "12": "u"} for op in _OPS},
        "expressibility": expr,
    }


def kernel_4vl_json() -> dict:
    """t, f, u and s ("sometimes holds"): comparisons with a NULL argument
    give s, and combining two values that are neither t nor f gives u."""
    vals = ("t", "f", "u", "s")

    def conj(a, b):
        if "f" in (a, b):
            return "f"
        if a == "t":
            return b
        return a if b == "t" else "u"

    def disj(a, b):
        if "t" in (a, b):
            return "t"
        if a == "f":
            return b
        return a if b == "f" else "u"

    nn = "(not (isnull (arg 1))) (not (isnull (arg 2)))"
    expr = {}
    for op in _OPS:
        expr[f"{op}|t"] = f"(and {nn} (cmp {op} (arg 1) (arg 2)))"
        expr[f"{op}|f"] = f"(and {nn} (not (cmp {op} (arg 1) (arg 2))))"
        expr[f"{op}|s"] = "(or (isnull (arg 1)) (isnull (arg 2)))"
        expr[f"{op}|u"] = "(false)"
    return {
        "name": "4vl",
        "values": list(vals),
        "true": "t",
        "false": "f",
        "and": _table(vals, conj),
        "or": _table(vals, disj),
        "not": ["f", "t", "u", "s"],
        "null_comparison": {op: {"1": "s", "2": "s", "12": "s"} for op in _OPS},
        "expressibility": expr,
    }


def grounding_leq_json() -> dict:
    """NULL <= x holds for x >= 0, x <= NULL for x < 0, NULL <= NULL always."""
    return {
        "name": "leq-sign",
        "templates": {
            "<=": {
                "1": "(cmp >= (arg 2) (num 0))",
                "2": "(cmp < (arg 1) (num 0))",
                "12": "(true)",
            }
        },
    }


def grounding_syntactic_json() -> dict:
    return {"name": "syntactic-eq", "templates": {"=": {"12": "(true)"}}}


# ---------------------------------------------------------------------------
# Databases

def _col(name, nullable=True, key=False):
    return {"name": name, "type": "num", "nullable": nullable and not key, "key": key}


EVAL_SCHEMA = {
    "R": {"columns": [_col("R.A")]},
    "S": {"columns": [_col("S.A")]},
    "G": {"columns": [_col("G.k", nullable=False), _col("G.v")]},
    "customer": {"columns": [_col("c_custkey", key=True), _col("c_nationkey"), _col("c_acctbal")]},
    "orders": {"columns": [_col("o_custkey")]},
    "E": {"columns": [_col("E.src"), _col("E.dst")]},
}


def _with_nulls(rng, values, n_null):
    cells = list(values) + [None] * n_null
    rng.shuffle(cells)
    return cells


def _column(rng, n, draw):
    """n cells: exactly NULL_SHARE of them NULL, the rest drawn by `draw`."""
    n_null = round(n * NULL_SHARE)
    return _with_nulls(rng, draw(n - n_null), n_null)


def _edges(rng, n_chains, chain_len, domain):
    """Disjoint chains on distinct random node ids; one edge in ten has a
    NULL endpoint.  The shape is fixed, so the fixpoint does the same work
    for every seed."""
    nodes = rng.sample(range(domain), n_chains * (chain_len + 1))
    edges = []
    for c in range(n_chains):
        path = nodes[c * (chain_len + 1):(c + 1) * (chain_len + 1)]
        edges += [[path[i], path[i + 1]] for i in range(chain_len)]
    rng.shuffle(edges)
    for i in range(round(len(edges) * NULL_SHARE)):
        edges[i][i % 2] = None
    return edges


def wide_database(rng, n: int) -> dict:
    """Most records distinct: values come from a domain four times the row
    count, so R and S overlap in about a quarter of their values.  q5 re-runs
    its subquery for every customer, so customer and orders get n / 5 rows."""
    domain = 4 * n
    n_cust = max(2, n // 5)

    def distinct(k):
        return rng.sample(range(domain), k)

    keys = rng.sample(range(domain), n_cust)
    nations = _column(rng, n_cust, distinct)
    balances = _column(rng, n_cust, lambda k: rng.sample(range(-domain, 4 * domain), k))
    orders = _column(rng, n_cust, lambda k: [rng.choice(keys) if i % 2 else rng.randrange(domain)
                                             for i in range(k)])
    return {
        "schema": EVAL_SCHEMA,
        "data": {
            "R": [[v] for v in _column(rng, n, distinct)],
            "S": [[v] for v in _column(rng, n, distinct)],
            "G": [],
            "customer": [list(r) for r in zip(keys, nations, balances)],
            "orders": [[v] for v in orders],
            "E": _edges(rng, max(1, n // 10), 5, domain),
        },
    }


NARROW_DOMAIN = tuple(range(-3, 10))  # 13 values


def narrow_database(rng, n: int) -> dict:
    """About 13 distinct values plus NULL, so each record repeats n/14 times."""

    def narrow(k):
        return [rng.choice(NARROW_DOMAIN) for _ in range(k)]

    groups = [rng.randrange(5) for _ in range(n)]
    return {
        "schema": EVAL_SCHEMA,
        "data": {
            "R": [[v] for v in _column(rng, n, narrow)],
            "S": [[v] for v in _column(rng, n, narrow)],
            "G": [list(r) for r in zip(groups, _column(rng, n, narrow))],
            "customer": [],
            "orders": [],
            "E": [],
        },
    }


def input_properties(db: dict, relations) -> dict:
    """Distinct share, mean multiplicity and NULL share over the relations
    the workload's queries read."""
    rows = distinct = cells = nulls = 0
    for name in relations:
        table = [tuple(r) for r in db["data"][name]]
        rows += len(table)
        distinct += len(set(table))
        cells += sum(len(r) for r in table)
        nulls += sum(v is None for r in table for v in r)
    return {
        "input.distinct_share": distinct / rows,
        "input.mean_multiplicity": rows / distinct,
        "input.null_share": nulls / cells,
    }


# ---------------------------------------------------------------------------
# Queries: (name, expression text, hand-written SQLite text under 3vl,
# hand-written SQLite text for the two-valued reading).  In the 2vl texts
# every comparison that may meet a NULL is wrapped in COALESCE(..., 0), which
# turns unknown into false.

WIDE_QUERIES = (
    (
        "q1",
        "(select (not (in (col R.A) (base S))) (base R))",
        "SELECT A FROM R WHERE A NOT IN (SELECT A FROM S)",
        "SELECT A FROM R WHERE NOT COALESCE(A IN (SELECT A FROM S), 0)",
    ),
    (
        "q2",
        "(select (empty (select (cmp = (col R.A) (col S.A)) (base S))) (base R))",
        "SELECT A FROM R WHERE NOT EXISTS (SELECT 1 FROM S WHERE R.A = S.A)",
        "SELECT A FROM R WHERE NOT EXISTS (SELECT 1 FROM S WHERE COALESCE(R.A = S.A, 0))",
    ),
    (
        "q3",
        "(distinct (project ((col X.A)) (select (cmp = (col X.A) (col Y.A)) "
        "(product (project ((as X.A (col R.A))) (base R)) (project ((as Y.A (col R.A))) (base R))))))",
        "SELECT DISTINCT X.A FROM R AS X, R AS Y WHERE X.A = Y.A",
        "SELECT DISTINCT X.A FROM R AS X, R AS Y WHERE COALESCE(X.A = Y.A, 0)",
    ),
    (
        "q5",
        "(group (c_nationkey) ((count c_custkey)) (select (any > (col c_acctbal) "
        "(group () ((avg c_acctbal)) (project ((col c_acctbal)) (select (and (cmp > (col c_acctbal) (num 0)) "
        "(not (in (col c_custkey) (project ((col o_custkey)) (base orders))))) (base customer))))) (base customer)))",
        # SQLite has no ANY; in WHERE, `x > ANY (q)` holds iff some row of q is below x
        "SELECT c.c_nationkey, COUNT(c.c_custkey) FROM customer AS c WHERE EXISTS ("
        "SELECT 1 FROM (SELECT AVG(i.c_acctbal) AS m FROM customer AS i WHERE i.c_acctbal > 0 "
        "AND i.c_custkey NOT IN (SELECT o_custkey FROM orders)) AS a WHERE c.c_acctbal > a.m) "
        "GROUP BY c.c_nationkey",
        "SELECT c.c_nationkey, COUNT(c.c_custkey) FROM customer AS c WHERE EXISTS ("
        "SELECT 1 FROM (SELECT AVG(i.c_acctbal) AS m FROM customer AS i WHERE COALESCE(i.c_acctbal > 0, 0) "
        "AND NOT COALESCE(i.c_custkey IN (SELECT o_custkey FROM orders), 0)) AS a "
        "WHERE COALESCE(c.c_acctbal > a.m, 0)) GROUP BY c.c_nationkey",
    ),
    (
        "reach",
        "(mu W union (project ((as W.s (col E.src)) (as W.d (col E.dst))) (base E)) "
        "(project ((col W.s) (col E.dst)) (select (cmp = (col W.d) (col E.src)) (product (base W) (base E)))))",
        "WITH RECURSIVE W(s, d) AS (SELECT src, dst FROM E UNION "
        "SELECT W.s, E.dst FROM W, E WHERE W.d = E.src) SELECT s, d FROM W",
        "WITH RECURSIVE W(s, d) AS (SELECT src, dst FROM E UNION "
        "SELECT W.s, E.dst FROM W, E WHERE COALESCE(W.d = E.src, 0)) SELECT s, d FROM W",
    ),
)

_AGGS = "((count G.v) (sum G.v) (avg G.v) (min G.v) (max G.v) (count-star))"
_AGGS_SQL = "COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), COUNT(*)"

DUP_QUERIES = (
    (
        "in",
        "(select (in (col R.A) (base S)) (base R))",
        "SELECT A FROM R WHERE A IN (SELECT A FROM S)",
        "SELECT A FROM R WHERE COALESCE(A IN (SELECT A FROM S), 0)",
    ),
    WIDE_QUERIES[0],
    (
        "any",
        "(select (any > (col R.A) (base S)) (base R))",
        "SELECT A FROM R WHERE EXISTS (SELECT 1 FROM S WHERE R.A > S.A)",
        "SELECT A FROM R WHERE EXISTS (SELECT 1 FROM S WHERE COALESCE(R.A > S.A, 0))",
    ),
    (
        "all",
        "(select (all <= (col R.A) (base S)) (base R))",
        # `x <= ALL (q)` is true iff no row of q makes `x <= y` false or unknown
        "SELECT A FROM R WHERE NOT EXISTS (SELECT 1 FROM S WHERE (R.A <= S.A) IS NOT 1)",
        "SELECT A FROM R WHERE NOT EXISTS (SELECT 1 FROM S WHERE NOT COALESCE(R.A <= S.A, 0))",
    ),
    (
        "group",
        f"(group (G.k) {_AGGS} (base G))",
        f"SELECT k, {_AGGS_SQL} FROM G GROUP BY k",
        f"SELECT k, {_AGGS_SQL} FROM G GROUP BY k",
    ),
    (
        "group-having-any",
        f'(select (any < (col "max(G.v)") (base S)) (group (G.k) {_AGGS} (base G)))',
        f"SELECT * FROM (SELECT k, {_AGGS_SQL.replace('MAX(v)', 'MAX(v) AS mx')} FROM G GROUP BY k) AS g "
        "WHERE EXISTS (SELECT 1 FROM S WHERE g.mx < S.A)",
        f"SELECT * FROM (SELECT k, {_AGGS_SQL.replace('MAX(v)', 'MAX(v) AS mx')} FROM G GROUP BY k) AS g "
        "WHERE EXISTS (SELECT 1 FROM S WHERE COALESCE(g.mx < S.A, 0))",
    ),
)


# ---------------------------------------------------------------------------
# Compile inputs

COMPILE_SCHEMA = {
    "R": {"columns": [_col("a"), _col("b", nullable=False), _col("k", key=True)]},
    "S": {"columns": [_col("c"), {"name": "d", "type": "ord", "nullable": True, "key": False}]},
    "T": {"columns": [_col("e", key=True), {"name": "g", "type": "ord", "nullable": False, "key": False}]},
}


def chain(rng, depth: int) -> str:
    """Alternating and / or / not chain over R, `depth` connectives deep.
    The seed picks the comparisons and constants, never the shape, so the
    translated size is the same for every seed."""

    def atom():
        return f"(cmp {rng.choice(('=', '<', '>='))} (col a) (num {rng.randrange(10)}))"

    cond = atom()
    for i in range(depth):
        cond = (f"(and {cond} {atom()})", f"(or {cond} {atom()})", f"(not {cond})")[i % 3]
    return f"(select {cond} (base R))"


def generated_expressions(seed: int, count: int, depth: int) -> list[str]:
    """Well-typed random expressions over the fuzz schema, deeper than the
    fuzz default."""
    schema = fuzz.default_schema()
    cfg = fuzz.FuzzConfig(seed=seed, max_depth=depth)
    out = []
    for i in range(count):
        expr = fuzz.gen_expression(schema, cfg, fuzz.case_rng(seed, i))
        out.append(ast.render_expression(typecheck(expr, schema).expr))
    return out


# SQL texts over R(a, b, k) and S(c, d) of COMPILE_SCHEMA: (name, SQL, its
# two-valued reading for SQLite)
SQL_QUERIES = (
    ("q1", "SELECT a FROM R WHERE a NOT IN (SELECT c FROM S)",
     "SELECT a FROM R WHERE NOT COALESCE(a IN (SELECT c FROM S), 0)"),
    ("q2", "SELECT a FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.c = R.a)",
     "SELECT a FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE COALESCE(S.c = R.a, 0))"),
    ("q3", "SELECT DISTINCT X.a FROM R AS X, R AS Y WHERE X.a = Y.a",
     "SELECT DISTINCT X.a FROM R AS X, R AS Y WHERE COALESCE(X.a = Y.a, 0)"),
    ("q4", "SELECT DISTINCT a FROM R", "SELECT DISTINCT a FROM R"),
    ("q5", "SELECT b, COUNT(k) FROM R WHERE a > (SELECT AVG(c) FROM S WHERE c > 0 "
           "AND c NOT IN (SELECT b FROM R)) GROUP BY b",
     "SELECT b, COUNT(k) FROM R WHERE COALESCE(a > (SELECT AVG(c) FROM S WHERE COALESCE(c > 0, 0) "
     "AND NOT COALESCE(c IN (SELECT b FROM R), 0)), 0) GROUP BY b"),
)


class SqlCondition:
    """Random WHERE condition over one R row, rendered twice: as the SQL
    text the program reads and as its two-valued reading for SQLite."""

    def __init__(self, rng):
        self.rng = rng

    def atom(self):
        rng = self.rng
        kind = rng.randrange(5)
        n = rng.randrange(-2, 10)
        if kind == 0:
            op = rng.choice(("=", "<>", "<", ">", "<=", ">="))
            col = rng.choice(("a", "b"))
            text = f"{col} {op} {n}"
            return text, f"COALESCE({text}, 0)"
        if kind == 1:
            return "a IS NULL", "a IS NULL"
        if kind == 2:
            inner = f"SELECT c FROM S WHERE c {rng.choice(('<', '>', '<>'))} {n}"
            inner2 = inner.replace("WHERE ", "WHERE COALESCE(") + ", 0)"
            neg = rng.random() < 0.6
            kw = "NOT IN" if neg else "IN"
            prefix = "NOT " if neg else ""
            return f"a {kw} ({inner})", f"{prefix}COALESCE(a IN ({inner2}), 0)"
        if kind == 3:
            neg = "NOT " if rng.random() < 0.6 else ""
            return (f"{neg}EXISTS (SELECT * FROM S WHERE S.c = R.a)",
                    f"{neg}EXISTS (SELECT * FROM S WHERE COALESCE(S.c = R.a, 0))")
        return f"b <> {n}", f"COALESCE(b <> {n}, 0)"

    def cond(self, depth):
        if depth == 0 or self.rng.random() < 0.25:
            return self.atom()
        kind = self.rng.randrange(3)
        if kind == 2:
            text, two = self.cond(depth - 1)
            return f"NOT ({text})", f"NOT ({two})"
        kw = ("AND", "OR")[kind]
        (t1, w1), (t2, w2) = self.cond(depth - 1), self.cond(depth - 1)
        return f"({t1}) {kw} ({t2})", f"({w1}) {kw} ({w2})"


def generated_sql(rng, count: int, depth: int) -> list[tuple[str, str, str]]:
    out = []
    gen = SqlCondition(rng)
    for i in range(count):
        text, two = gen.cond(depth)
        distinct = "DISTINCT " if rng.random() < 0.3 else ""
        out.append((f"gen{i}", f"SELECT {distinct}a, b FROM R WHERE {text}",
                    f"SELECT {distinct}a, b FROM R WHERE {two}"))
    return out


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def rng_for(seed: int, what: str) -> random.Random:
    return random.Random(f"{seed}:{what}")
