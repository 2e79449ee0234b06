"""Shared fixtures: the two-relation playground and the worked queries."""
from __future__ import annotations

from fractions import Fraction

from nullvl import ast
from nullvl.ast import col, num
from nullvl.values import NUM, ORD, Bag, Column, Database, Relation, Schema, exact_number


def row(*cells):
    # numbers in the canonical form the loader and the generator produce
    return tuple(exact_number(c) if isinstance(c, (int, Fraction)) else c for c in cells)


def bag(*rows):
    return Bag([row(*r) if isinstance(r, tuple) else row(r) for r in rows])


def rs_schema(nullable: bool = True, keys: bool = False) -> Schema:
    return Schema(
        [
            Relation("R", (Column("R.A", NUM, nullable=nullable, key=keys),)),
            Relation("S", (Column("S.A", NUM, nullable=nullable, key=keys),)),
        ]
    )


def rs_db(r_rows, s_rows, schema: Schema | None = None) -> Database:
    schema = schema or rs_schema()
    return Database(schema, {"R": bag(*r_rows), "S": bag(*s_rows)})


# a NOT-IN membership test under negation: the classic divergence shape
def q1() -> ast.Expression:
    return ast.Selection(
        ast.Not(ast.In((col("R.A"),), ast.BaseRelation("S"))), ast.BaseRelation("R")
    )


# the would-be-equivalent NOT EXISTS rewriting of q1
def q2() -> ast.Expression:
    inner = ast.Selection(
        ast.Compare((col("R.A"),), "=", (col("S.A"),)), ast.BaseRelation("S")
    )
    return ast.Selection(ast.Empty(inner), ast.BaseRelation("R"))


# self-join on equality, projected and deduplicated
def q3() -> ast.Expression:
    left = ast.Projection((ast.ProjItem(col("R.A"), "X.A"),), ast.BaseRelation("R"))
    right = ast.Projection((ast.ProjItem(col("R.A"), "Y.A"),), ast.BaseRelation("R"))
    joined = ast.Selection(
        ast.Compare((col("X.A"),), "=", (col("Y.A"),)), ast.Product(left, right)
    )
    return ast.Distinct(ast.Projection((ast.ProjItem(col("X.A"), None),), joined))


def q4() -> ast.Expression:
    return ast.Distinct(ast.Projection((ast.ProjItem(col("R.A"), None),), ast.BaseRelation("R")))


# -- the aggregate benchmark-style query -------------------------------------


def customer_orders_schema(orders_not_null: bool = True) -> Schema:
    return Schema(
        [
            Relation(
                "customer",
                (
                    Column("c_custkey", NUM, key=True),
                    Column("c_nationkey", NUM, nullable=True),
                    Column("c_acctbal", NUM, nullable=True),
                ),
            ),
            Relation(
                "orders",
                (Column("o_custkey", NUM, nullable=not orders_not_null),),
            ),
        ]
    )


def q5_condition() -> ast.Condition:
    return ast.And(
        ast.Compare((col("c_acctbal"),), ">", (num(0),)),
        ast.Not(
            ast.In(
                (col("c_custkey"),),
                ast.Projection((ast.ProjItem(col("o_custkey"), None),), ast.BaseRelation("orders")),
            )
        ),
    )


def q5() -> ast.Expression:
    agg_subquery = ast.Group(
        (),
        (ast.AggItem("avg", "c_acctbal", None),),
        ast.Projection(
            (ast.ProjItem(col("c_acctbal"), None),),
            ast.Selection(q5_condition(), ast.BaseRelation("customer")),
        ),
    )
    return ast.Group(
        ("c_nationkey",),
        (ast.AggItem("count", "c_custkey", None),),
        ast.Selection(
            ast.Quant((col("c_acctbal"),), ">", "any", agg_subquery),
            ast.BaseRelation("customer"),
        ),
    )


def q5_translated_condition() -> ast.Condition:
    guarded_in = ast.Or(
        ast.IsNull(col("c_custkey")),
        ast.Not(
            ast.In(
                (col("c_custkey"),),
                ast.Selection(
                    ast.Not(ast.IsNull(col("o_custkey"))),
                    ast.Projection(
                        (ast.ProjItem(col("o_custkey"), None),), ast.BaseRelation("orders")
                    ),
                ),
            )
        ),
    )
    return ast.And(ast.Compare((col("c_acctbal"),), ">", (num(0),)), guarded_in)


def q5_translated() -> ast.Expression:
    agg_subquery = ast.Group(
        (),
        (ast.AggItem("avg", "c_acctbal", None),),
        ast.Projection(
            (ast.ProjItem(col("c_acctbal"), None),),
            ast.Selection(q5_translated_condition(), ast.BaseRelation("customer")),
        ),
    )
    return ast.Group(
        ("c_nationkey",),
        (ast.AggItem("count", "c_custkey", None),),
        ast.Selection(
            ast.Quant((col("c_acctbal"),), ">", "any", agg_subquery),
            ast.BaseRelation("customer"),
        ),
    )


def q1_translated() -> ast.Expression:
    return ast.Selection(
        ast.Or(
            ast.IsNull(col("R.A")),
            ast.Not(
                ast.In(
                    (col("R.A"),),
                    ast.Selection(ast.Not(ast.IsNull(col("S.A"))), ast.BaseRelation("S")),
                )
            ),
        ),
        ast.BaseRelation("R"),
    )
