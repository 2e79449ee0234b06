"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import time
from fractions import Fraction

import pytest

from nullvl import analyze, ast, fuzz, harness, sqlfront, translate
from nullvl.ast import col, num
from nullvl.errors import KernelError
from nullvl.evaluator import EvalConfig, evaluate, eval_condition
from nullvl.logic import (
    AND,
    OR,
    LogicKernel,
    kernel_2vl,
    kernel_3vl,
    kernel_4vl_example,
    reduce_count,
)
from nullvl.typecheck import typecheck
from nullvl.values import Bag, Column, Database, NUM, Relation, Schema

from sample_queries import (
    bag,
    customer_orders_schema,
    q1,
    q1_translated,
    q2,
    q3,
    q4,
    q5,
    q5_translated,
    row,
    rs_db,
    rs_schema,
)

# the size-ratio constant reported and pinned for the translation suites
LINEAR_BOUND = Fraction(8)
# the same, for the many-valued and the grounded directions (criterion 11)
MVL_BOUND = Fraction(16)
GROUNDED_BOUND = Fraction(24)
PINNED_BOUNDS = {
    "mvl-4vl": MVL_BOUND,
    "mvl-self": MVL_BOUND,
    "grounded-syntactic": GROUNDED_BOUND,
    "grounded-leq": GROUNDED_BOUND,
    "capture-3vl-to-grounded": GROUNDED_BOUND,
}


class _Criterion:
    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.started = time.monotonic()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.name}]: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"
        return False


def test_criterion_01_intro_golden_results(cfg3):
    with _Criterion(1, "intro golden results", 1.0):
        db = rs_db([1, None], [None])
        assert evaluate(q1(), db, cfg=cfg3) == Bag([])
        assert evaluate(q2(), db, cfg=cfg3) == bag(1, None)
        db_single = rs_db([None], [])
        assert evaluate(q3(), db_single, cfg=cfg3) == Bag([])
        assert evaluate(q4(), db_single, cfg=cfg3) == bag(None)


def test_criterion_02_rewrite_snapshots():
    with _Criterion(2, "worked rewrite snapshots", 1.0):
        tr1 = translate.tr_to_3vl(q1(), rs_schema())
        assert tr1.output == q1_translated()
        sql1 = sqlfront.emit_sql(tr1.output)
        assert "IS NULL" in sql1 and "IS NOT NULL" in sql1

        schema5 = customer_orders_schema(orders_not_null=False)
        tr5 = translate.tr_to_3vl(q5(), schema5)
        assert tr5.output == q5_translated()
        sql5 = sqlfront.emit_sql(tr5.output)
        assert "IS NULL" in sql5 and "IS NOT NULL" in sql5


def test_criterion_03_two_way_capture_500_cases_each():
    with _Criterion(3, "two-way capture, 500 cases per direction", 60.0):
        cfg = fuzz.FuzzConfig(seed=2026, cases=500, null_rate=0.3, rows_per_relation=6)
        for family in ("capture-2vl-to-3vl", "capture-3vl-to-2vl"):
            summary = harness.run_differential(family, cfg)
            assert summary.cases == 500
            assert summary.failed == 0, summary.bundles[:1]
            assert summary.max_size_ratio is not None
            assert summary.max_size_ratio <= LINEAR_BOUND, (
                f"{family}: measured ratio {summary.max_size_ratio} above the pinned bound"
            )
            print(
                f"  {family}: max size ratio {float(summary.max_size_ratio):.2f}, "
                f"mean {summary.notes['mean_size_ratio']:.2f} (bound {float(LINEAR_BOUND)})"
            )


def test_criterion_04_null_free_invariance_200_cases():
    with _Criterion(4, "kernel invariance on null-free data, 200 cases", 30.0):
        cfg = fuzz.FuzzConfig(seed=404, cases=200, null_rate=0.0)
        summary = harness.run_differential("null-free-invariance", cfg)
        assert summary.cases == 200
        assert summary.failed == 0, summary.bundles[:1]


def test_criterion_05_equivalence_suite_and_counterexamples(cfg2, cfg3):
    with _Criterion(5, "restored equivalences + fixed counterexamples", 30.0):
        cfg = fuzz.FuzzConfig(seed=505, cases=300)
        summary = harness.run_differential("prop-4.1", cfg)
        assert summary.cases == 300
        assert summary.failed == 0, summary.bundles[:1]

        # the four fixed counterexamples on a single-row relation {NULL}
        schema = Schema([Relation("R", (Column("N", NUM, nullable=True),))])
        db = Database(schema, {"R": Bag([(None,)])})
        r = ast.BaseRelation("R")
        theta = ast.Compare((col("N"),), "=", (num(1),))
        # (1) the selection is empty but the difference misses nothing
        left = evaluate(ast.Selection(theta, r), db, cfg=cfg3)
        right = evaluate(ast.SetOp("except", r, ast.Selection(ast.Not(theta), r)), db, cfg=cfg3)
        assert left == Bag([]) and right == bag(None) and left != right
        # (2) membership is unknown while the matching selection is empty
        assert eval_condition(ast.In((num(1),), r), db, cfg=cfg3) == "u"
        assert evaluate(ast.Selection(ast.Compare((num(1),), "=", (col("N"),)), r), db, cfg=cfg3) == Bag([])
        # (3) same through the existential comparison
        assert eval_condition(ast.Quant((num(1),), "=", "any", r), db, cfg=cfg3) == "u"
        # (4) the universal comparison is not true though its witness set is empty
        assert eval_condition(ast.Quant((num(1),), "=", "all", r), db, cfg=cfg3) == "u"
        assert (
            evaluate(ast.Selection(ast.Not(ast.Compare((num(1),), "=", (col("N"),))), r), db, cfg=cfg3)
            == Bag([])
        )
        # and all four equivalences do hold under the conflating semantics here
        left2 = evaluate(ast.Selection(theta, r), db, cfg=cfg2)
        right2 = evaluate(ast.SetOp("except", r, ast.Selection(ast.Not(theta), r)), db, cfg=cfg2)
        assert left2 == right2
        assert eval_condition(ast.In((num(1),), r), db, cfg=cfg2) == "f"


def test_criterion_06_coincidence_certificates_300_cases():
    with _Criterion(6, "coincidence certificates, 300 certified cases", 30.0):
        cfg = fuzz.FuzzConfig(seed=606, cases=300)
        summary = harness.run_differential("coincidence", cfg)
        assert summary.cases == 300
        assert summary.failed == 0, summary.bundles[:1]
        # the aggregate exemplar certifies under key + NOT NULL declarations
        schema5 = customer_orders_schema(orders_not_null=True)
        assert analyze.coincidence_certificate(q5(), schema5).certified


def test_criterion_07_grounded_captures_200_cases_each():
    with _Criterion(7, "grounded captures, 200 cases each", 30.0):
        for family in ("grounded-syntactic", "grounded-leq"):
            cfg = fuzz.FuzzConfig(seed=707, cases=200)
            summary = harness.run_differential(family, cfg)
            assert summary.cases == 200
            assert summary.failed == 0, summary.bundles[:1]


def test_criterion_08_mvl_capture_and_periodicity():
    with _Criterion(8, "many-valued capture + periodicity", 60.0):
        cfg = fuzz.FuzzConfig(seed=808, cases=200)
        summary = harness.run_differential("mvl-4vl", cfg)
        assert summary.cases == 200
        assert summary.failed == 0, summary.bundles[:1]
        for kernel in (kernel_3vl(), kernel_4vl_example()):
            for value in kernel.values:
                for conn in (AND, OR):
                    lead, period = kernel.periodicity(value, conn)
                    for j in range(1, 4 * period + 1):
                        direct = kernel.fold(conn, [value] * j)
                        reduced = kernel.fold(conn, [value] * reduce_count(j, lead, period))
                        assert direct == reduced


def test_criterion_09_kernel_law_validation():
    with _Criterion(9, "kernel law validation", 1.0):
        kernel_3vl()
        kernel_4vl_example()  # constructors run the exhaustive checks
        k = kernel_3vl()
        and_t = dict(k.and_table)
        and_t[("u", "f")] = "u"
        with pytest.raises(KernelError) as err:
            LogicKernel("mutated", k.values, "t", "f", and_t, k.or_table, k.not_table, k.nulls)
        witness = err.value.witness
        a, b = witness[0], witness[1]
        assert and_t[(a, b)] != and_t[(b, a)]


def test_criterion_10_bag_multiplicities(cfg3):
    with _Criterion(10, "bag multiplicity example", 1.0):
        schema = Schema([Relation("T", (Column("A", NUM, False), Column("B", NUM, False)))])
        db = Database(schema, {"T": Bag([(row(2, 3), 2), (row(1, 6), 3)])})
        p = ast.Projection(
            (ast.ProjItem(ast.FnApply("mult", (col("A"), col("B"))), None),),
            ast.BaseRelation("T"),
        )
        out = evaluate(typecheck(p, schema).expr, db, cfg=cfg3)
        assert out == Bag([(row(6), 5)])
        assert out.multiplicity(row(6)) == 5


def test_criterion_11_pinned_size_bounds_500_cases_each():
    with _Criterion(11, "many-valued and grounded size bounds, 500 cases each", 60.0):
        cfg = fuzz.FuzzConfig(seed=2026, cases=500, null_rate=0.3, rows_per_relation=6)
        for family, bound in PINNED_BOUNDS.items():
            summary = harness.run_differential(family, cfg)
            assert summary.cases == 500
            assert summary.failed == 0, summary.bundles[:1]
            assert summary.max_size_ratio is not None
            assert summary.max_size_ratio <= bound, (
                f"{family}: measured ratio {summary.max_size_ratio} above the pinned bound"
            )
            print(
                f"  {family}: max size ratio {float(summary.max_size_ratio):.2f}, "
                f"mean {summary.notes['mean_size_ratio']:.2f} (bound {float(bound)})"
            )
