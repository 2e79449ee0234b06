"""Bounded-exhaustive battery: enumerated condition shapes over enumerated
tiny databases, checked through every translation direction.

Random corpora hit each rule pairing with low probability; this module walks
the cross product instead.
"""
import itertools

import pytest

from nullvl import ast, translate
from nullvl.ast import col, num
from nullvl.evaluator import EvalConfig, eval_condition, evaluate
from nullvl.logic import (
    GROUNDINGS,
    kernel_2vl,
    kernel_2vl_syntactic,
    kernel_3vl,
    kernel_4vl_example,
    kernel_grounded,
    nonnegative_leq_grounding,
    syntactic_equality_grounding,
)
from nullvl.typecheck import typecheck

from sample_queries import rs_db, rs_schema

SCHEMA = rs_schema()
K3, K2 = kernel_3vl(), kernel_2vl()
KSYN, K4 = kernel_2vl_syntactic(), kernel_4vl_example()
G_SYN, G_LEQ = syntactic_equality_grounding(), nonnegative_leq_grounding()
KG_SYN, KG_LEQ = kernel_grounded(G_SYN), kernel_grounded(G_LEQ)

TERMS = {"col": col("R.A"), "one": num(1), "null": ast.NullConst()}
DB_SIDES = ([], [1], [None], [1, None], [1, 1])


def _subquery():
    return ast.BaseRelation("S")


def _correlated_subquery():
    return ast.Selection(
        ast.Compare((col("S.A"),), "=", (col("R.A"),)), ast.BaseRelation("S")
    )


def atomic_shapes():
    shapes = []
    for op in ast.COMPARISONS:
        for lk, rk in itertools.product(TERMS, repeat=2):
            shapes.append((f"cmp-{op}-{lk}-{rk}", ast.Compare((TERMS[lk],), op, (TERMS[rk],))))
    for k in TERMS:
        shapes.append((f"isnull-{k}", ast.IsNull(TERMS[k])))
        shapes.append((f"in-{k}", ast.In((TERMS[k],), _subquery())))
        for op in ("=", "<"):
            shapes.append((f"any-{op}-{k}", ast.Quant((TERMS[k],), op, "any", _subquery())))
            shapes.append((f"all-{op}-{k}", ast.Quant((TERMS[k],), op, "all", _subquery())))
    shapes.append(("empty", ast.Empty(_subquery())))
    shapes.append(("empty-correlated", ast.Empty(_correlated_subquery())))
    shapes.append(("in-correlated", ast.In((col("R.A"),), _correlated_subquery())))
    # two-column comparisons exercise the positional expansion
    pair = (col("R.A"), ast.NullConst())
    for op in ("=", "!=", "<="):
        shapes.append((f"tuple-{op}", ast.Compare(pair, op, (num(1), col("R.A")))))
    # arity-2 membership and quantified comparisons against a widened subquery
    wide = ast.Projection(
        (ast.ProjItem(col("S.A"), "x"), ast.ProjItem(ast.NullConst(), "y")),
        _subquery(),
    )
    wide_num = ast.Projection(
        (ast.ProjItem(col("S.A"), "x"), ast.ProjItem(num(2), "y")),
        _subquery(),
    )
    shapes.append(("in-pair", ast.In(pair, wide)))
    shapes.append(("in-pair-num", ast.In((col("R.A"), num(2)), wide_num)))
    shapes.append(("any-pair", ast.Quant(pair, "=", "any", wide)))
    shapes.append(("all-pair", ast.Quant(pair, "!=", "all", wide)))
    shapes.append(("all-pair-le", ast.Quant((col("R.A"), ast.NullConst()), "<=", "all", wide_num)))
    return shapes


def composite_shapes():
    base = atomic_shapes()
    shapes = []
    for name, cond in base:
        shapes.append((f"not-{name}", ast.Not(cond)))
    picks = [c for _, c in base[:12]]
    for a, b in zip(picks, picks[1:]):
        shapes.append(("and", ast.And(a, ast.Not(b))))
        shapes.append(("or", ast.Or(ast.Not(a), b)))
    shapes.append(("not-not", ast.Not(ast.Not(base[3][1]))))
    return shapes


ALL_SHAPES = atomic_shapes() + composite_shapes()
ALL_DBS = [rs_db(r, s) for r, s in itertools.product(DB_SIDES, repeat=2)]


def _check(expr, db, source_kernel, target_kernel, tr):
    verdict = translate.check_capture(
        expr, db, EvalConfig(kernel=source_kernel), EvalConfig(kernel=target_kernel), tr
    )
    assert verdict.status == "equal", (
        verdict.status,
        ast.render_expression(tr.output),
        verdict.left.counts() if verdict.left is not None else None,
        verdict.right.counts() if verdict.right is not None else None,
    )


@pytest.mark.parametrize("name,cond", ALL_SHAPES, ids=[n for n, _ in ALL_SHAPES])
def test_two_way_capture_exhaustive(name, cond):
    expr = typecheck(ast.Selection(cond, ast.BaseRelation("R")), SCHEMA).expr
    to3 = translate.tr_to_3vl(expr, SCHEMA)
    from3 = translate.tr_from_3vl(expr, SCHEMA)
    for db in ALL_DBS:
        _check(expr, db, K2, K3, to3)
        _check(expr, db, K3, K2, from3)


@pytest.mark.parametrize("name,cond", ALL_SHAPES, ids=[n for n, _ in ALL_SHAPES])
def test_three_valued_to_grounded_holds_under_every_grounding(name, cond):
    # 3-to-gr gives one output for every grounding, so it is checked under each
    expr = typecheck(ast.Selection(cond, ast.BaseRelation("R")), SCHEMA).expr
    to_gr = translate.tr_3vl_to_grounded(expr, SCHEMA)
    for make in GROUNDINGS.values():
        target = kernel_grounded(make())
        for db in ALL_DBS:
            _check(expr, db, K3, target, to_gr)


_SMALL_DBS = [rs_db(r, s) for r, s in itertools.product(([], [1], [None], [1, None]), repeat=2)]


@pytest.mark.parametrize("name,cond", atomic_shapes(), ids=[n for n, _ in atomic_shapes()])
def test_many_valued_and_grounded_capture_exhaustive(name, cond):
    expr = typecheck(ast.Selection(cond, ast.BaseRelation("R")), SCHEMA).expr
    mvl4 = translate.tr_mvl_to_3vl(expr, SCHEMA, K4)
    mvl_syn = translate.tr_mvl_to_3vl(expr, SCHEMA, KSYN)
    gr_syn = translate.tr_grounded_to_3vl(expr, SCHEMA, G_SYN)
    gr_leq = translate.tr_grounded_to_3vl(expr, SCHEMA, G_LEQ)
    to_gr = translate.tr_3vl_to_grounded(expr, SCHEMA)
    for db in _SMALL_DBS:
        _check(expr, db, K4, K3, mvl4)
        _check(expr, db, KSYN, K3, mvl_syn)
        _check(expr, db, KG_SYN, K3, gr_syn)
        _check(expr, db, KG_LEQ, K3, gr_leq)
        _check(expr, db, K3, KG_LEQ, to_gr)


def test_negated_shapes_through_the_four_valued_counting():
    # negation over quantified conditions drives the per-value counting
    # rules, which gr-to-3 shares: a negated IN/ANY/ALL under a grounded
    # kernel takes the false value's count profiles
    for name, cond in composite_shapes():
        expr = typecheck(ast.Selection(cond, ast.BaseRelation("R")), SCHEMA).expr
        tr = translate.tr_mvl_to_3vl(expr, SCHEMA, K4)
        gr_syn = translate.tr_grounded_to_3vl(expr, SCHEMA, G_SYN)
        gr_leq = translate.tr_grounded_to_3vl(expr, SCHEMA, G_LEQ)
        for db in (_SMALL_DBS[3], _SMALL_DBS[7], _SMALL_DBS[14]):
            _check(expr, db, K4, K3, tr)
            _check(expr, db, KG_SYN, K3, gr_syn)
            _check(expr, db, KG_LEQ, K3, gr_leq)


ROW_FREE_SHAPES = [(n, c) for n, c in ALL_SHAPES if "R.A" not in ast.render_condition(c)]


# named by their specs: 2vl and 2vl-syn are the kernels of the empty and
# the syntactic-equality groundings, and take those groundings' names
@pytest.mark.parametrize(
    "kernel", [K3, K2, KSYN, K4, KG_SYN, KG_LEQ],
    ids=["3vl", "2vl", "2vl-syn", "4vl", "grounded:syntactic-eq", "grounded:leq-sign"],
)
def test_compiled_row_free_conditions_match_the_tree_walker(kernel):
    planned, reference = EvalConfig(kernel=kernel), EvalConfig(kernel=kernel, plan=False)
    for name, cond in ROW_FREE_SHAPES:
        for db in _SMALL_DBS:
            want = eval_condition(cond, db, cfg=reference)
            assert eval_condition(cond, db, cfg=planned) == want, (name, db.tables)
