"""Reproducible random databases and well-typed random expressions.

Identical configurations yield identical corpora; the differential harness
relies on this for replayable counterexamples.
"""
from __future__ import annotations

import random
from collections import Counter
from itertools import product as iter_product
from typing import Optional

from . import ast
from .errors import SchemaError
from .frozen import Frozen
from .typecheck import RelSig
from .values import NUM, ORD, Bag, Column, Database, Relation, Schema


class FuzzConfig(Frozen):
    seed: int = 0
    max_depth: int = 4
    null_rate: float = 0.3
    rows_per_relation: int = 6
    cases: int = 500

    def __post_init__(self):
        if not 0.0 <= self.null_rate <= 1.0:
            raise ValueError("null_rate must be a probability")
        if self.rows_per_relation < 0 or self.max_depth < 1 or self.cases < 0:
            raise ValueError("bad fuzz configuration")


def default_schema() -> Schema:
    """Three small relations mixing key, NOT NULL and nullable columns."""
    return Schema(
        [
            Relation(
                "R",
                (
                    Column("a", NUM, nullable=True),
                    Column("b", NUM, nullable=False),
                    Column("k", NUM, key=True),
                ),
            ),
            Relation(
                "S",
                (
                    Column("c", NUM, nullable=True),
                    Column("d", ORD, nullable=True),
                ),
            ),
            Relation(
                "T",
                (
                    Column("e", NUM, key=True),
                    Column("g", ORD, nullable=False),
                ),
            ),
        ]
    )


_ORD_POOL = ("a", "b", "c", "d", "e")
_NUM_POOL = tuple(range(-2, 10))


def gen_database(schema: Schema, cfg: FuzzConfig, rng: Optional[random.Random] = None) -> Database:
    """Random bags respecting types, nullability and key distinctness."""
    rng = rng or random.Random(cfg.seed)
    tables = {}
    for rel in schema.relations.values():
        nrows = rng.randint(0, cfg.rows_per_relation)
        key_positions = [i for i, c in enumerate(rel.columns) if c.key]
        key_pool = None
        if key_positions:
            space = list(iter_product(_NUM_POOL, repeat=len(key_positions)))
            if nrows > len(space):
                raise SchemaError(
                    f"{rel.name}: cannot draw {nrows} distinct keys from "
                    f"{len(space)} candidates"
                )
            key_pool = rng.sample(space, nrows)
        rows = []
        for r in range(nrows):
            cells = []
            for i, colm in enumerate(rel.columns):
                if colm.key:
                    cells.append(key_pool[r][key_positions.index(i)])
                    continue
                if colm.nullable and rng.random() < cfg.null_rate:
                    cells.append(None)
                elif colm.type == NUM:
                    cells.append(rng.choice(_NUM_POOL))
                else:
                    cells.append(rng.choice(_ORD_POOL))
            rows.append(tuple(cells))
        tables[rel.name] = Bag(rows)
    return Database(schema, tables)


# the depth a subquery takes from the condition it sits in
_SUBQUERY_DEPTH_COST = 1


class ExpressionGenerator:
    """Grammar-directed generation of well-typed expressions.

    Fixpoints are only generated with a strictly increasing counter bounded
    by a small constant, so the produced iterations terminate.  Every
    expression and condition form is reachable; `coverage` counts what came
    out.
    """

    def __init__(self, schema: Schema, cfg: FuzzConfig, rng: Optional[random.Random] = None):
        self.schema = schema
        self.cfg = cfg
        self.rng = rng or random.Random(cfg.seed)
        self.coverage: Counter = Counter()
        self._fresh = 0

    # -- helpers --------------------------------------------------------------

    def fresh(self, hint: str) -> str:
        self._fresh += 1
        return f"{hint}{self._fresh}"

    def _pick(self, weighted: list[tuple[int, str]]) -> str:
        total = sum(w for w, _ in weighted)
        roll = self.rng.randrange(total)
        acc = 0
        for w, name in weighted:
            acc += w
            if roll < acc:
                return name
        return weighted[-1][1]

    # -- terms ------------------------------------------------------------------

    def term(self, typ: str, scope: dict, depth: int = 2) -> ast.Term:
        cols = [n for n, t in scope.items() if t == typ]
        # with null_rate 0 the corpus must stay null-free end to end, so no
        # NULL literals and no division/modulo (NULL on zero divisors)
        null_free = self.cfg.null_rate == 0.0
        choices = [(6 if cols else 0, "col"), (3, "const"), (0 if null_free else 2, "null")]
        if typ == NUM and depth > 0:
            choices.append((2, "fn"))
        kind = self._pick(choices)
        self.coverage[f"term.{kind}"] += 1
        if kind == "col":
            return ast.NameRef(self.rng.choice(cols))
        if kind == "null":
            if typ == NUM:
                # a bare NULL types as ordinary; keep the slot numerical
                return ast.FnApply("neg", (ast.NullConst(),))
            return ast.NullConst()
        if kind == "const":
            if typ == NUM:
                return ast.num(self.rng.choice(_NUM_POOL))
            return ast.OrdConst(self.rng.choice(_ORD_POOL))
        pool = ("add", "sub", "mult", "neg") if null_free else ast.NUMERIC_FUNCTIONS
        fn = self.rng.choice(pool)
        arity = 1 if fn == "neg" else 2
        args = tuple(self.term(NUM, scope, depth - 1) for _ in range(arity))
        return ast.FnApply(fn, args)

    # -- conditions ----------------------------------------------------------------

    def condition(self, depth: int, scope: dict) -> ast.Condition:
        subqueries_ok = depth > _SUBQUERY_DEPTH_COST
        choices = [
            (1, "true"),
            (1, "false"),
            (3, "isnull"),
            (8, "cmp"),
        ]
        if subqueries_ok:
            choices += [(4, "in"), (2, "empty"), (3, "any"), (3, "all"), (4, "not-in")]
        if depth > 1:
            choices += [(4, "and"), (4, "or"), (7, "not")]
        kind = self._pick(choices)
        self.coverage[f"cond.{kind}"] += 1
        rng = self.rng
        if kind == "true":
            return ast.CTrue()
        if kind == "false":
            return ast.CFalse()
        if kind == "not-in":
            # the membership-under-negation shape where the two- and
            # three-valued semantics most often part ways
            self.coverage["cond.not"] += 1
            return ast.Not(self._membership("in", depth, scope))
        if kind == "isnull":
            typ = rng.choice((NUM, ORD))
            return ast.IsNull(self.term(typ, scope))
        if kind == "cmp":
            op = rng.choice(ast.COMPARISONS)
            width = rng.choice((1, 1, 2))
            if op in ast.ORDER_COMPARISONS:
                types = [NUM] * width
            else:
                types = [rng.choice((NUM, ORD)) for _ in range(width)]
            lhs = tuple(self.term(t, scope) for t in types)
            rhs = tuple(self.term(t, scope) for t in types)
            return ast.Compare(lhs, op, rhs)
        if kind == "and":
            return ast.And(self.condition(depth - 1, scope), self.condition(depth - 1, scope))
        if kind == "or":
            return ast.Or(self.condition(depth - 1, scope), self.condition(depth - 1, scope))
        if kind == "not":
            return ast.Not(self.condition(depth - 1, scope))
        if kind == "empty":
            sub, _ = self.expr(depth - _SUBQUERY_DEPTH_COST, scope)
            return ast.Empty(sub)
        return self._membership(kind, depth, scope)

    def _membership(self, kind: str, depth: int, scope: dict) -> ast.Condition:
        rng = self.rng
        sub, sub_sig = self.expr(depth - _SUBQUERY_DEPTH_COST, scope)
        op = "=" if kind == "in" else rng.choice(ast.COMPARISONS)
        if op in ast.ORDER_COMPARISONS:
            positions = [i for i, t in enumerate(sub_sig.types) if t == NUM]
            if not positions:
                name = self.fresh("q")
                sub = ast.Projection(
                    (ast.ProjItem(self.term(NUM, dict(zip(sub_sig.labels, sub_sig.types))), name),),
                    sub,
                )
                sub_sig = RelSig((name,), (NUM,))
                positions = [0]
            keep = [rng.choice(positions)]
        else:
            width = rng.choice((1, 1, 2))
            keep = [rng.randrange(len(sub_sig.labels)) for _ in range(min(width, len(sub_sig.labels)))]
        sub = ast.renamed(sub, [sub_sig.labels[pos] for pos in keep], [self.fresh("q") for _ in keep])
        items = tuple(self.term(sub_sig.types[pos], scope) for pos in keep)
        if kind == "in":
            return ast.In(items, sub)
        return ast.Quant(items, op, kind, sub)

    # -- expressions ------------------------------------------------------------------

    def expression(self) -> ast.Expression:
        e, _ = self.expr(self.cfg.max_depth, {})
        return e

    def expr(self, depth: int, params: dict) -> tuple[ast.Expression, RelSig]:
        if depth <= 1:
            return self._base()
        choices = [
            (2, "base"),
            (5, "project"),
            (6, "select"),
            (2, "product"),
            (3, "setop"),
            (2, "distinct"),
            (3, "group"),
        ]
        if depth >= 3:
            choices.append((1, "mu"))
        kind = self._pick(choices)
        self.coverage[f"expr.{kind}"] += 1
        rng = self.rng
        if kind == "base":
            return self._base()
        if kind == "select":
            src, sig = self.expr(depth - 1, params)
            scope = dict(params)
            scope.update(zip(sig.labels, sig.types))
            return ast.Selection(self.condition(depth - 1, scope), src), sig
        if kind == "project":
            src, sig = self.expr(depth - 1, params)
            scope = dict(params)
            scope.update(zip(sig.labels, sig.types))
            n_items = rng.randint(1, min(3, len(sig.labels) + 1))
            items, labels, types = [], [], []
            for _ in range(n_items):
                typ = rng.choice((NUM, NUM, ORD))
                name = self.fresh("p")
                items.append(ast.ProjItem(self.term(typ, scope), name))
                labels.append(name)
                types.append(typ)
            return ast.Projection(tuple(items), src), RelSig(tuple(labels), tuple(types))
        if kind == "product":
            left, lsig = self.expr(depth - 1, params)
            right, rsig = self.expr(depth - 1, params)
            if set(lsig.labels) & set(rsig.labels):
                fresh = tuple(self.fresh("r") for _ in rsig.labels)
                right = ast.renamed(right, rsig.labels, fresh)
                rsig = RelSig(fresh, rsig.types)
            return ast.Product(left, right), RelSig(
                lsig.labels + rsig.labels, lsig.types + rsig.types
            )
        if kind == "setop":
            op = rng.choice(("union", "intersect", "except"))
            left, lsig = self.expr(depth - 1, params)
            right, rsig = self.expr(depth - 1, params)
            scope = dict(zip(rsig.labels, rsig.types))
            items = []
            labels = []
            for typ in lsig.types:
                name = self.fresh("u")
                items.append(ast.ProjItem(self.term(typ, scope), name))
                labels.append(name)
            right = ast.Projection(tuple(items), right)
            return ast.SetOp(op, left, right), lsig
        if kind == "distinct":
            src, sig = self.expr(depth - 1, params)
            return ast.Distinct(src), sig
        if kind == "group":
            src, sig = self.expr(depth - 1, params)
            num_cols = [n for n, t in zip(sig.labels, sig.types) if t == NUM]
            names = tuple(
                rng.sample(sig.labels, k=min(len(sig.labels), rng.randint(0, 2)))
            )
            aggs = []
            n_aggs = rng.randint(0 if names else 1, 2)
            for _ in range(n_aggs):
                fn = rng.choice(ast.AGGREGATES)
                if fn == "count_star" or not num_cols:
                    aggs.append(ast.AggItem("count_star", None, self.fresh("g")))
                else:
                    aggs.append(ast.AggItem(fn, rng.choice(num_cols), self.fresh("g")))
            labels = names + tuple(a.rename for a in aggs)
            types = tuple(dict(zip(sig.labels, sig.types))[n] for n in names) + tuple(
                NUM for _ in aggs
            )
            return ast.Group(names, tuple(aggs), src), RelSig(labels, types)
        if kind == "mu":
            return self._mu(depth, params)
        raise AssertionError(kind)

    def _base(self) -> tuple[ast.Expression, RelSig]:
        rel = self.schema[self.rng.choice(self.schema.names())]
        self.coverage["expr.base"] += 1
        return ast.BaseRelation(rel.name), RelSig(rel.labels, rel.types)

    def _mu(self, depth: int, params: dict) -> tuple[ast.Expression, RelSig]:
        rng = self.rng
        rel = self.fresh("W")
        w = self.fresh("w")
        seed_src, seed_sig = self.expr(min(depth - 1, 2), params)
        scope = dict(zip(seed_sig.labels, seed_sig.types))
        seed = ast.Distinct(
            ast.Projection((ast.ProjItem(self.term(NUM, scope), w),), seed_src)
        )
        bound = rng.randint(2, 5)
        step = ast.Projection(
            (ast.ProjItem(ast.FnApply("add", (ast.NameRef(w), ast.num(1))), w),),
            ast.Selection(
                ast.Compare((ast.NameRef(w),), "<", (ast.num(bound),)),
                ast.BaseRelation(rel),
            ),
        )
        distinct = rng.random() < 0.7
        return ast.Mu(rel, distinct, seed, step), RelSig((w,), (NUM,))


def gen_expression(
    schema: Schema, cfg: FuzzConfig, rng: Optional[random.Random] = None
) -> ast.Expression:
    return ExpressionGenerator(schema, cfg, rng).expression()


def case_rng(seed: int, index: int) -> random.Random:
    """Derive a per-case generator so cases replay independently."""
    return random.Random((seed * 1_000_003 + index) & 0xFFFFFFFFFFFF)
