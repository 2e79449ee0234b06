import random
from fractions import Fraction

import pytest

from nullvl import ast
from nullvl.ast import col, num
from nullvl import evaluator
from nullvl.errors import RecursionLimitError
from nullvl.evaluator import (
    EvalConfig,
    _compare_value_tuples,
    eval_condition,
    eval_term,
    evaluate,
)
from nullvl.frozen import replace
from nullvl.funcs import apply_aggregate
from nullvl.fuzz import ExpressionGenerator, FuzzConfig, default_schema, gen_database
from nullvl.logic import AND, OR, kernel_2vl, kernel_2vl_syntactic, kernel_3vl, kernel_grounded, empty_grounding
from nullvl.typecheck import typecheck
from nullvl.values import NUM, ORD, Bag, Column, Database, Relation, Schema

from sample_queries import bag, q1, q2, q3, q4, rs_db, rs_schema, row


def test_term_arithmetic():
    assert eval_term(ast.FnApply("add", (num(2), num(3))), {}) == Fraction(5)


def test_term_null_propagates_through_functions():
    assert eval_term(ast.FnApply("add", (ast.NullConst(), num(2))), {}) is None


def test_term_environment_lookup():
    assert eval_term(col("A"), {"A": Fraction(7)}) == Fraction(7)


def test_term_division_by_zero_is_null():
    assert eval_term(ast.FnApply("div", (num(1), num(0))), {}) is None
    assert eval_term(ast.FnApply("mod", (num(7), num(0))), {}) is None
    assert eval_term(ast.FnApply("div", (num(1), num(3))), {}) == Fraction(1, 3)
    assert eval_term(ast.FnApply("mod", (num(7), num(3))), {}) == Fraction(1)


def test_membership_in_null_set(cfg3, cfg2):
    db = rs_db([1], [None])
    cond = ast.In((num(1),), ast.BaseRelation("S"))
    assert eval_condition(cond, db, cfg=cfg3) == "u"
    assert eval_condition(cond, db, cfg=cfg2) == "f"


def test_all_over_empty_result_is_true(cfg3, cfg2, cfg_syn):
    db = rs_db([1], [])
    cond = ast.Quant((num(1),), "<", "all", ast.BaseRelation("S"))
    for cfg in (cfg3, cfg2, cfg_syn):
        assert eval_condition(cond, db, cfg=cfg) == "t"
    any_cond = ast.Quant((num(1),), "<", "any", ast.BaseRelation("S"))
    assert eval_condition(any_cond, db, cfg=cfg3) == "f"


def test_intro_queries_under_both_semantics(cfg3, cfg2):
    db = rs_db([1, None], [None])
    assert evaluate(q1(), db, cfg=cfg3) == Bag([])
    assert evaluate(q2(), db, cfg=cfg3) == bag(1, None)
    assert evaluate(q1(), db, cfg=cfg2) == bag(1, None)
    db_single = rs_db([None], [])
    assert evaluate(q3(), db_single, cfg=cfg3) == Bag([])
    assert evaluate(q4(), db_single, cfg=cfg3) == bag(None)


def test_projection_multiplicities(cfg3):
    schema = Schema([Relation("T", (Column("A", NUM, False), Column("B", NUM, False)))])
    db = Database(schema, {"T": Bag([(row(2, 3), 2), (row(1, 6), 3)])})
    p = ast.Projection(
        (ast.ProjItem(ast.FnApply("mult", (col("A"), col("B"))), None),),
        ast.BaseRelation("T"),
    )
    assert evaluate(p, db, cfg=cfg3) == Bag([(row(6), 5)])


def grouped_schema():
    return Schema([Relation("G", (Column("A", ORD), Column("B", NUM)))])


def test_group_by_with_count_and_sum(cfg3):
    db = Database(grouped_schema(), {"G": bag(("a", 1), ("a", 2))})
    g = ast.Group(
        ("A",),
        (ast.AggItem("count", "B", "C"), ast.AggItem("sum", "B", None)),
        ast.BaseRelation("G"),
    )
    assert evaluate(g, db, cfg=cfg3) == bag(("a", 2, 3))


def test_aggregates_strip_nulls_but_count_star_does_not(cfg3):
    db = Database(grouped_schema(), {"G": bag(("a", 1), ("a", None), ("a", 2))})
    g = ast.Group(
        (),
        (
            ast.AggItem("sum", "B", "s"),
            ast.AggItem("count", "B", "c"),
            ast.AggItem("count_star", None, "n"),
        ),
        ast.BaseRelation("G"),
    )
    assert evaluate(g, db, cfg=cfg3) == bag((3, 2, 3))


def test_null_keys_form_a_single_group(cfg3):
    db = Database(grouped_schema(), {"G": bag((None, 1), (None, 2), ("a", 5))})
    g = ast.Group(("A",), (ast.AggItem("count_star", None, "n"),), ast.BaseRelation("G"))
    assert evaluate(g, db, cfg=cfg3) == bag((None, 2), ("a", 1))


def test_aggregates_over_all_null_column(cfg3):
    db = Database(grouped_schema(), {"G": bag(("a", None), ("a", None))})
    g = ast.Group(
        ("A",),
        (
            ast.AggItem("sum", "B", "s"),
            ast.AggItem("min", "B", "m"),
            ast.AggItem("avg", "B", "v"),
            ast.AggItem("count", "B", "c"),
        ),
        ast.BaseRelation("G"),
    )
    assert evaluate(g, db, cfg=cfg3) == bag(("a", None, None, None, 0))


def test_group_over_empty_input_has_no_groups(cfg3):
    db = Database(grouped_schema(), {"G": Bag([])})
    g = ast.Group((), (ast.AggItem("count_star", None, "n"),), ast.BaseRelation("G"))
    assert evaluate(g, db, cfg=cfg3) == Bag([])


def test_avg_is_exact(cfg3):
    db = Database(grouped_schema(), {"G": bag(("a", 1), ("a", 2))})
    g = ast.Group((), (ast.AggItem("avg", "B", "v"),), ast.BaseRelation("G"))
    assert evaluate(g, db, cfg=cfg3) == Bag([row(Fraction(3, 2))])


AGGREGATES = ("count_star", "count", "sum", "avg", "min", "max")


def _expanding_aggregate(fn, group):
    """The aggregate over ``group``'s (value, multiplicity) pairs, computed
    on the cells expanded one per occurrence."""
    cells = [v for v, k in group for _ in range(k) if v is not None]
    if fn == "count_star":
        return Fraction(sum(k for _, k in group))
    if fn == "count":
        return Fraction(len(cells))
    if not cells:
        return None
    total = sum(cells, Fraction(0))
    return {"sum": total, "avg": total / len(cells), "min": min(cells), "max": max(cells)}[fn]


@pytest.mark.parametrize("plan", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_counted_aggregates_match_expanded_cells(plan, seed):
    rng = random.Random(seed)
    pool = [Fraction(n, d) for n in (-7, -1, 0, 2, 5, 13) for d in (1, 3, 4)]
    groups = {}
    for g in range(8):
        size = rng.randint(1, 5)
        if g % 4 == 0:  # all NULL
            cells = [None]
        else:
            cells = rng.sample(pool, size) + ([None] if rng.random() < 0.5 else [])
        groups[f"g{g}"] = [(v, rng.choice([1, 1, 2, rng.randint(1, 1000)])) for v in cells]
    table = Bag([(row(name, v), k) for name, group in groups.items() for v, k in group])
    db = Database(grouped_schema(), {"G": table})
    aggs = tuple(
        ast.AggItem(fn, None if fn == "count_star" else "B", fn) for fn in AGGREGATES
    )
    cfg = EvalConfig(kernel=kernel_3vl(), plan=plan)
    expected = Bag(
        row(name, *(_expanding_aggregate(fn, group) for fn in AGGREGATES))
        for name, group in groups.items()
    )
    assert evaluate(ast.Group(("A",), aggs, ast.BaseRelation("G")), db, cfg=cfg) == expected
    everything = [pair for group in groups.values() for pair in group]
    expected = Bag([row(*(_expanding_aggregate(fn, everything) for fn in AGGREGATES))])
    assert evaluate(ast.Group((), aggs, ast.BaseRelation("G")), db, cfg=cfg) == expected
    for fn in AGGREGATES:
        assert apply_aggregate(fn, [], 0) == _expanding_aggregate(fn, [])


@pytest.mark.parametrize("plan", [True, False])
def test_aggregates_receive_one_entry_per_distinct_value(plan, monkeypatch):
    db = Database(grouped_schema(), {"G": Bag([
        (row("a", 1), 50), (row("a", 2), 30), (row("a", None), 5), (row("b", 3), 700),
    ])})
    sizes = []
    real = evaluator.apply_aggregate

    def recording(fn, cells, total_count):
        sizes.append((fn, len(cells)))
        return real(fn, cells, total_count)

    monkeypatch.setattr(evaluator, "apply_aggregate", recording)
    aggs = tuple(ast.AggItem(fn, "B", fn) for fn in AGGREGATES if fn != "count_star")
    out = evaluate(ast.Group(("A",), aggs, ast.BaseRelation("G")), db,
                   cfg=EvalConfig(kernel=kernel_3vl(), plan=plan))
    assert out == bag(("a", 80, 110, Fraction(11, 8), 1, 2), ("b", 700, 2100, 3, 3, 3))
    assert sorted(n for _, n in sizes) == [1] * 5 + [2] * 5


def _mu_counter(distinct: bool, bound: int) -> ast.Mu:
    seed = ast.Distinct(ast.Projection((ast.ProjItem(col("R.A"), "w"),), ast.BaseRelation("R")))
    step = ast.Projection(
        (ast.ProjItem(ast.FnApply("add", (col("w"), num(1))), "w"),),
        ast.Selection(ast.Compare((col("w"),), "<", (num(bound),)), ast.BaseRelation("W")),
    )
    return ast.Mu("W", distinct, seed, step)


def test_mu_fixpoint_counts_up(cfg3):
    db = rs_db([1], [])
    assert evaluate(_mu_counter(True, 3), db, cfg=cfg3) == bag(1, 2, 3)


def test_mu_empty_seed_stops_immediately(cfg3):
    db = rs_db([], [])
    assert evaluate(_mu_counter(True, 3), db, cfg=cfg3) == Bag([])


def test_mu_cap_exceeded_raises(cfg3):
    # accumulate the same record forever under the bag union
    seed = ast.Projection((ast.ProjItem(col("R.A"), "w"),), ast.BaseRelation("R"))
    step = ast.Projection((ast.ProjItem(col("w"), "w"),), ast.BaseRelation("W"))
    loop = ast.Mu("W", False, seed, step)
    db = rs_db([1], [])
    with pytest.raises(RecursionLimitError):
        evaluate(loop, db, cfg=EvalConfig(kernel=kernel_3vl(), recursion_cap=50))


def test_selection_filters_within_multiplicity(cfg3):
    schema = rs_schema()
    db = Database(schema, {"R": Bag([(row(1), 3)]), "S": Bag([])})
    sel = ast.Selection(ast.Compare((col("R.A"),), "=", (num(1),)), ast.BaseRelation("R"))
    out = evaluate(sel, db, cfg=cfg3)
    assert out.multiplicity(row(1)) == 3


def test_distinct_idempotent_and_union_commutative(cfg3):
    db = rs_db([1, 1, None], [2, None])
    e1 = ast.Distinct(ast.Distinct(ast.BaseRelation("R")))
    e2 = ast.Distinct(ast.BaseRelation("R"))
    assert evaluate(e1, db, cfg=cfg3) == evaluate(e2, db, cfg=cfg3)
    u1 = ast.SetOp("union", ast.BaseRelation("R"), ast.BaseRelation("S"))
    u2 = ast.SetOp("union", ast.BaseRelation("S"), ast.BaseRelation("R"))
    assert evaluate(u1, db, cfg=cfg3) == evaluate(u2, db, cfg=cfg3)


def test_bag_set_operations_treat_null_syntactically(cfg3):
    db = rs_db([None, None, 1], [None, 1, 1])
    inter = ast.SetOp("intersect", ast.BaseRelation("R"), ast.BaseRelation("S"))
    assert evaluate(inter, db, cfg=cfg3) == bag(None, 1)
    diff = ast.SetOp("except", ast.BaseRelation("R"), ast.BaseRelation("S"))
    assert evaluate(diff, db, cfg=cfg3) == bag(None)


def test_correlated_subquery_shadowing(cfg3):
    # the inner relation's column shadows an outer binding of the same name
    schema = Schema(
        [
            Relation("O", (Column("X", NUM),)),
            Relation("I", (Column("X", NUM),)),
        ]
    )
    db = Database(schema, {"O": bag(1, 2), "I": bag(2)})
    inner = ast.Selection(ast.Compare((col("X"),), "=", (num(2),)), ast.BaseRelation("I"))
    outer = ast.Selection(ast.Not(ast.Empty(inner)), ast.BaseRelation("O"))
    assert evaluate(outer, db, cfg=cfg3) == bag(1, 2)


def test_kernel_independence_on_null_free_databases():
    schema = default_schema()
    kernels = [kernel_3vl(), kernel_2vl(), kernel_2vl_syntactic(), kernel_grounded(empty_grounding())]
    cfgf = FuzzConfig(seed=11, max_depth=4, null_rate=0.0)
    for i in range(60):
        rng = random.Random(1000 + i)
        gen = ExpressionGenerator(schema, cfgf, rng)
        expr = typecheck(gen.expression(), schema).expr
        db = gen_database(schema, cfgf, rng)
        assert all(None not in record for bag in db.tables.values() for record in bag.records())
        try:
            outs = [evaluate(expr, db, cfg=EvalConfig(kernel=k)) for k in kernels]
        except RecursionLimitError:
            continue
        assert all(o == outs[0] for o in outs)


def test_results_respect_the_type_word(cfg3):
    schema = default_schema()
    cfgf = FuzzConfig(seed=21, max_depth=4)
    for i in range(60):
        rng = random.Random(2000 + i)
        gen = ExpressionGenerator(schema, cfgf, rng)
        checked = typecheck(gen.expression(), schema)
        db = gen_database(schema, cfgf, rng)
        try:
            out = evaluate(checked.expr, db, cfg=cfg3)
        except RecursionLimitError:
            continue
        for record in out.records():
            for v, t in zip(record, checked.sig.types):
                if v is None:
                    continue
                # canonical numbers: an int when integral, else a Fraction
                # whose denominator is not 1; never a bool or a float
                if t == NUM:
                    assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v
                else:
                    assert type(v) is str, v


def test_tuple_comparison_matches_expanded_form():
    kernels = [kernel_3vl(), kernel_2vl(), kernel_2vl_syntactic()]
    values = [None, Fraction(0), Fraction(1), Fraction(2)]
    rng = random.Random(5)
    schema = rs_schema()
    db = Database(schema, {"R": Bag([]), "S": Bag([])})
    for _ in range(300):
        kernel = rng.choice(kernels)
        op = rng.choice(ast.COMPARISONS)
        n = rng.choice((1, 2, 3))
        lvals = [rng.choice(values) for _ in range(n)]
        rvals = [rng.choice(values) for _ in range(n)]
        direct = _compare_value_tuples(kernel, lvals, op, rvals)
        lhs = tuple(num(v) if v is not None else ast.NullConst() for v in lvals)
        rhs = tuple(num(v) if v is not None else ast.NullConst() for v in rvals)
        expanded = ast.expand_tuple_comparison(lhs, op, rhs)
        via_ast = eval_condition(expanded, db, cfg=EvalConfig(kernel=kernel))
        assert direct == via_ast, (op, lvals, rvals, kernel.name)


def test_quantifier_folds_respect_multiplicity(cfg4):
    # two copies of the same null row: s and s folds to u, not s
    db = rs_db([1], [None, None])
    cond = ast.Quant((col("R.A"),), "=", "all", ast.BaseRelation("S"))
    sel = ast.Selection(cond, ast.BaseRelation("R"))
    assert evaluate(sel, db, cfg=cfg4) == Bag([])
    assert (
        eval_condition(ast.Quant((num(1),), "=", "all", ast.BaseRelation("S")), db, cfg=cfg4)
        == "u"
    )


def test_unbound_name_is_an_internal_error():
    from nullvl.errors import EvalError

    with pytest.raises(EvalError, match="unbound name"):
        eval_term(col("nowhere"), {})


def test_result_emission_and_canonical_ordering(cfg3):
    from nullvl.values import bag_to_json

    out = bag(("b",), (None,), (2,), (1,))
    text = out.canonical_text().splitlines()
    assert text == ["(null) x1", "(1) x1", "(2) x1", "('b') x1"]
    payload = bag_to_json(out, ("X",))
    assert payload["columns"] == ["X"]
    assert payload["rows"][0] == {"values": [None], "multiplicity": 1}
    assert payload["rows"][1] == {"values": ["1"], "multiplicity": 1}


def test_public_group_and_fixpoint_entry_points(cfg3):
    db = rs_db([1], [])
    out = evaluate(_mu_counter(True, 2), db, cfg=cfg3)
    from nullvl.evaluator import eval_group, eval_mu

    mu = _mu_counter(True, 2)
    assert eval_mu(mu.rel, mu.distinct, mu.seed, mu.step, db, cfg=cfg3) == out
    g = eval_group(
        (), (ast.AggItem("count_star", None, "n"),), ast.BaseRelation("R"), db, cfg=cfg3
    )
    assert g == bag(1)


def test_selection_never_invents_records(cfg3, cfg2):
    schema = default_schema()
    cfgf = FuzzConfig(seed=61, max_depth=4)
    for i in range(60):
        rng = random.Random(6100 + i)
        gen = ExpressionGenerator(schema, cfgf, rng)
        src, sig = gen.expr(3, {})
        src = typecheck(src, schema).expr
        cond = gen.condition(2, dict(zip(sig.labels, sig.types)))
        sel = typecheck(ast.Selection(cond, src), schema).expr
        db = gen_database(schema, cfgf, rng)
        for cfg in (cfg3, cfg2):
            try:
                base = evaluate(sel.source, db, cfg=cfg)
                kept = evaluate(sel, db, cfg=cfg)
            except RecursionLimitError:
                continue
            for record, k in kept.items():
                assert base.multiplicity(record) >= k


# -- the planned evaluator against the plain tree-walker ----------------------

from nullvl.harness import kernel_by_name  # noqa: E402
from nullvl.logic import TEMPLATE_NAMES, Grounding  # noqa: E402
from nullvl.parser import parse_expression  # noqa: E402
from nullvl.translate import tr_to_3vl  # noqa: E402

from sample_queries import customer_orders_schema, q1_translated, q5, q5_translated  # noqa: E402

PLAN_KERNELS = ("3vl", "2vl", "2vl-syn", "grounded:leq-sign", "4vl")

REACH = (
    "(mu W union (project ((as W.s (col E.src)) (as W.d (col E.dst))) (base E)) "
    "(project ((col W.s) (col E.dst)) (select (cmp = (col W.d) (col E.src)) "
    "(product (base W) (base E)))))"
)


def _plan_and_reference(expr, db, kernel):
    planned = evaluate(expr, db, cfg=EvalConfig(kernel=kernel))
    reference = evaluate(expr, db, cfg=EvalConfig(kernel=kernel, plan=False))
    return planned, reference


def _cell(rng, values, null_share=0.2):
    return None if rng.random() < null_share else rng.choice(values)


def _rs_db_with_nulls(seed: int, rows: int = 25) -> Database:
    rng = random.Random(seed)
    values = range(12)
    return rs_db(
        [_cell(rng, values) for _ in range(rows)], [_cell(rng, values) for _ in range(rows)]
    )


def _customer_db(seed: int, customers: int = 20) -> Database:
    rng = random.Random(seed)
    cust = [
        row(i, _cell(rng, range(3)), _cell(rng, range(-3, 8))) for i in range(customers)
    ]
    orders = [row(_cell(rng, range(customers + 5))) for _ in range(customers)]
    schema = customer_orders_schema(orders_not_null=False)
    return Database(schema, {"customer": Bag(cust), "orders": Bag(orders)})


def _edge_db(seed: int, edges: int = 18) -> Database:
    rng = random.Random(seed)
    schema = Schema([Relation("E", (Column("E.src", NUM), Column("E.dst", NUM)))])
    rows = [row(_cell(rng, range(8), 0.1), _cell(rng, range(8), 0.1)) for _ in range(edges)]
    return Database(schema, {"E": Bag(rows)})


@pytest.mark.parametrize("kname", PLAN_KERNELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_matches_tree_walker_on_sample_queries(kname, seed):
    kernel = kernel_by_name(kname)
    rs = _rs_db_with_nulls(seed)
    cases = [(q(), rs) for q in (q1, q2, q3, q4, q1_translated)]
    cases.append((tr_to_3vl(q1(), rs.schema).output, rs))
    co = _customer_db(seed)
    cases += [(q5(), co), (q5_translated(), co)]
    edges = _edge_db(seed)
    cases.append((typecheck(parse_expression(REACH), edges.schema).expr, edges))
    for expr, db in cases:
        planned, reference = _plan_and_reference(expr, db, kernel)
        assert planned == reference, (kname, ast.render_expression(expr))


def test_hash_membership_folds_null_counts_under_4vl(cfg4, monkeypatch):
    builds = []

    class Counted(evaluator._Members):
        def __init__(self, bag):
            builds.append(bag)
            super().__init__(bag)

    monkeypatch.setattr(evaluator, "_Members", Counted)
    cond = ast.In((num(7),), ast.BaseRelation("S"))
    one_null, two_nulls = rs_db([], [1, None]), rs_db([], [1, None, None])
    reference = EvalConfig(kernel=cfg4.kernel, plan=False)
    # no match: OR over f and one s is s, over f and two s is OR(s, s) = u
    for db, want in ((one_null, "s"), (two_nulls, "u"), (rs_db([], [7, None, None]), "t")):
        builds.clear()
        assert eval_condition(cond, db, cfg=cfg4) == want
        assert len(builds) == 1  # answered from the count index, built once
        assert eval_condition(cond, db, cfg=reference) == want
        assert len(builds) == 1


def _self_join():
    left = ast.Projection((ast.ProjItem(col("R.A"), "X.A"),), ast.BaseRelation("R"))
    right = ast.Projection((ast.ProjItem(col("R.A"), "Y.A"),), ast.BaseRelation("R"))
    return ast.Selection(
        ast.Compare((col("X.A"),), "=", (col("Y.A"),)), ast.Product(left, right)
    )


def _count_condition_evals(monkeypatch, expr, db, make_kernel) -> tuple:
    """The result, the calls of the query's own conditions, and the calls of
    grounding template conditions (compiled with the template's two names as
    labels).  The seam wraps what the condition compiler returns, so the
    kernel is built under it, where its templates are compiled."""
    calls, template_calls = [], []
    real = evaluator._compile_condition

    def compiling(cond, labels, run):
        test = real(cond, labels, run)
        counted = template_calls if labels == TEMPLATE_NAMES else calls

        def counting(*args):
            counted.append(cond)
            return test(*args)

        return counting

    monkeypatch.setattr(evaluator, "_compile_condition", compiling)
    out = evaluate(expr, db, cfg=EvalConfig(kernel=make_kernel()))
    return out, len(calls), len(template_calls)


def _count_index_builds(monkeypatch) -> list:
    builds = []
    real = evaluator._key_index

    def counting(bag, positions, nulls):
        builds.append(positions)
        return real(bag, positions, nulls)

    monkeypatch.setattr(evaluator, "_key_index", counting)
    return builds


def test_syntactic_equality_joins_null_keys(cfg_syn, monkeypatch):
    db = rs_db([1, 2, None, None], [])
    planned, reference = _plan_and_reference(_self_join(), db, cfg_syn.kernel)
    assert planned == reference
    assert planned.multiplicity(row(None, None)) == 4
    # distinct records 1, 2 and NULL each pair with themselves only
    out, calls, _ = _count_condition_evals(monkeypatch, _self_join(), db, kernel_2vl_syntactic)
    assert out == reference and calls == 3


def test_value_dependent_grounding_falls_back_to_nested_loop(monkeypatch):
    grounding = Grounding(
        "eq-sign", {("=", frozenset({1})): ast.Compare((ast.ArgHole(2),), ">=", (num(0),))}
    )
    kernel = kernel_grounded(grounding)
    assert kernel.null_equality[frozenset({1})] is None

    def built_under_the_seam():
        # the memoised kernel compiled its template before the seam was set
        kernel_grounded.cache_clear()
        return kernel_grounded(grounding)

    db = rs_db([-1, 0, 3, None], [])
    planned, reference = _plan_and_reference(_self_join(), db, kernel)
    assert planned == reference
    # NULL = x holds for x >= 0, a pair no hash on the key would find
    assert planned.multiplicity(row(None, 3)) == 1
    _, calls, template_calls = _count_condition_evals(
        monkeypatch, _self_join(), db, built_under_the_seam
    )
    # the template runs once for each of the three pairs (NULL, x)
    assert calls == 16 and template_calls == 3
    # the same holds for the correlated selection of q2: the outer NULL
    # meets S.A = 3, so q2 runs as a nested loop without an index
    db = rs_db([-1, 3, None], [-2, 3, None])
    planned, reference = _plan_and_reference(q2(), db, kernel)
    assert planned == reference == bag(-1)
    builds = _count_index_builds(monkeypatch)
    _, calls, template_calls = _count_condition_evals(
        monkeypatch, q2(), db, built_under_the_seam
    )
    # the template runs for the outer NULL against S's -2 and 3
    assert calls == 3 + 3 * 3 and template_calls == 2 and builds == []


def test_uncorrelated_aggregate_subquery_runs_once(cfg3, monkeypatch):
    expr = q5()
    agg_subquery = expr.source.cond.query
    db = _customer_db(3, customers=40)
    reference = evaluate(expr, db, cfg=EvalConfig(kernel=cfg3.kernel, plan=False))
    runs = []
    real = evaluator.eval_rt

    def counting(e, *args):
        if e == agg_subquery:  # evaluate runs a typechecked copy of the tree
            runs.append(e)
        return real(e, *args)

    monkeypatch.setattr(evaluator, "eval_rt", counting)
    assert evaluate(expr, db, cfg=cfg3) == reference
    assert len(runs) == 1


def test_hoisted_subquery_reading_the_outer_row_reruns_per_inner_evaluation(cfg3, monkeypatch):
    # the inner selection over S hoists the subquery, which reads none of
    # S's labels; it reads R.A, so each test of an outer record evaluates
    # the inner selection afresh and must run the subquery again
    matches = ast.Selection(ast.Compare((col("S.A"),), "=", (col("R.A"),)), ast.BaseRelation("S"))
    inner = ast.Selection(ast.In((col("S.A"),), matches), ast.BaseRelation("S"))
    expr = ast.Selection(ast.Not(ast.Empty(inner)), ast.BaseRelation("R"))
    db = rs_db([1, 2, 2, 3, None], [2, 3, 3, None])
    reference = evaluate(expr, db, cfg=EvalConfig(kernel=cfg3.kernel, plan=False))
    runs = []
    real = evaluator.eval_rt

    def counting(e, *args):
        if e == matches:  # evaluate runs a typechecked copy of the tree
            runs.append(e)
        return real(e, *args)

    monkeypatch.setattr(evaluator, "eval_rt", counting)
    assert evaluate(expr, db, cfg=cfg3) == reference == bag(2, 2, 3)
    # once per distinct outer record: 1, 2, 3 and NULL
    assert len(runs) == 4


def test_self_join_tests_only_matching_pairs(monkeypatch):
    # 400 distinct values and a NULL: 401 x 401 pairs, 400 of them matching
    db = rs_db(list(range(400)) + [None] * 3, [])
    out, calls, _ = _count_condition_evals(monkeypatch, q3(), db, kernel_3vl)
    assert calls == 400
    assert out == Bag([row(v) for v in range(400)])


def test_join_keys_span_both_sides(cfg3):
    # only X.A = Y.C crosses the product; X.A = X.B is tested per candidate
    schema = Schema(
        [
            Relation("T", (Column("X.A", NUM), Column("X.B", NUM))),
            Relation("U", (Column("Y.C", NUM), Column("Y.D", NUM))),
        ]
    )
    db = Database(
        schema,
        {
            "T": bag((1, 1), (2, 3), (None, None), (3, 3)),
            "U": bag((1, 5), (2, 2), (3, 0), (3, 0), (None, None)),
        },
    )
    cond = ast.and_all(
        [
            ast.Compare((col("X.A"),), "=", (col("X.B"),)),
            ast.Compare((col("Y.C"),), "=", (col("X.A"),)),
        ]
    )
    expr = ast.Selection(cond, ast.Product(ast.BaseRelation("T"), ast.BaseRelation("U")))
    for kernel in (cfg3.kernel, kernel_2vl_syntactic()):
        planned, reference = _plan_and_reference(expr, db, kernel)
        assert planned == reference
    assert planned == bag((1, 1, 1, 5), (3, 3, 3, 0), (3, 3, 3, 0), (None, None, None, None))


def test_join_on_a_computed_key_tests_only_candidate_pairs(monkeypatch):
    # X.A + 1 = Y.C over 100 values and a NULL: each left record probes Y's
    # index with X.A + 1, so only the 99 pairs (v, v + 1) are tested, where
    # a nested loop tests 101 x 101
    left = ast.Projection((ast.ProjItem(col("R.A"), "X.A"),), ast.BaseRelation("R"))
    right = ast.Projection((ast.ProjItem(col("R.A"), "Y.C"),), ast.BaseRelation("R"))
    cond = ast.Compare((ast.FnApply("add", (col("X.A"), num(1))),), "=", (col("Y.C"),))
    expr = ast.Selection(cond, ast.Product(left, right))
    db = rs_db(list(range(100)) + [None], [])
    out, calls, _ = _count_condition_evals(monkeypatch, expr, db, kernel_3vl)
    assert calls == 99
    assert out == Bag([row(v, v + 1) for v in range(99)])
    for kname in PLAN_KERNELS:
        for rs in (db, *(_rs_db_with_nulls(seed) for seed in range(3))):
            planned, reference = _plan_and_reference(expr, rs, kernel_by_name(kname))
            assert planned == reference, kname


def test_shared_step_under_two_bindings_of_one_mu_name(cfg3):
    # sibling fixpoints may reuse a name with other labels; a step object
    # shared between them is read under each binding in turn
    step = ast.Projection(
        (
            ast.ProjItem(ast.FnApply("add", (col("a"), num(1))), "a"),
            ast.ProjItem(col("b"), "b"),
        ),
        ast.Selection(ast.Compare((col("a"),), "<", (num(4),)), ast.BaseRelation("W")),
    )

    def seed(first, second):
        return ast.Projection(
            (
                ast.ProjItem(col("R.A"), first),
                ast.ProjItem(ast.FnApply("add", (col("R.A"), num(1))), second),
            ),
            ast.BaseRelation("R"),
        )

    expr = ast.SetOp(
        "union", ast.Mu("W", True, seed("a", "b"), step), ast.Mu("W", True, seed("b", "a"), step)
    )
    db = rs_db([0, 1], [])
    planned, reference = _plan_and_reference(expr, db, cfg3.kernel)
    assert planned == reference


# -- correlated `=` selections probed through an index -------------------------


def test_q2_tests_only_the_outer_rows_and_their_matches(monkeypatch):
    # R: 400 values and a NULL; S: the even ones and a NULL.  The plain
    # tree-walker makes 401 + 401 x 201 condition calls
    db = rs_db(list(range(400)) + [None], list(range(0, 400, 2)) + [None])
    out, calls, _ = _count_condition_evals(monkeypatch, q2(), db, kernel_3vl)
    assert calls == 401 + 200
    assert out == Bag([row(v) for v in range(1, 400, 2)] + [row(None)])


def test_q2_null_outer_key_matches_null_rows_under_syntactic_equality(cfg_syn, monkeypatch):
    db = rs_db([1, 2, None, None], [2, None, None, 5])
    planned, reference = _plan_and_reference(q2(), db, cfg_syn.kernel)
    assert planned == reference == bag(1)
    # three distinct outer records; 2 finds S's 2 and NULL finds S's NULL
    # record (two copies), 1 finds nothing
    out, calls, _ = _count_condition_evals(monkeypatch, q2(), db, kernel_2vl_syntactic)
    assert out == reference and calls == 3 + 1 + 1


def test_correlated_membership_keeps_exact_bags_under_4vl(cfg4):
    s_a = ast.Selection(ast.Compare((col("S.A"),), "=", (col("R.A"),)), ast.BaseRelation("S"))
    shapes = [
        q2(),
        ast.Selection(ast.In((col("R.A"),), s_a), ast.BaseRelation("R")),
        ast.Selection(ast.Not(ast.Quant((num(3),), "<", "any", s_a)), ast.BaseRelation("R")),
    ]
    db = rs_db([1, 1, 3, None, None, 4], [1, None, 3, 3, None])
    for expr in shapes:
        planned, reference = _plan_and_reference(expr, db, cfg4.kernel)
        assert planned == reference, ast.render_expression(expr)
    assert evaluate(q2(), db, cfg=cfg4) == bag(None, None, 4)
    for seed in range(4):
        rs = _rs_db_with_nulls(seed)
        for expr in shapes:
            planned, reference = _plan_and_reference(expr, rs, cfg4.kernel)
            assert planned == reference


def test_correlated_source_that_reads_the_outer_row_is_not_indexed(cfg3, monkeypatch):
    # the inner selection's source keeps S rows at or above R.A, so it
    # differs from one outer row to the next; only selections over a base
    # relation probe an index
    above = ast.Selection(ast.Compare((col("S.A"),), ">=", (col("R.A"),)), ast.BaseRelation("S"))
    inner = ast.Selection(ast.Compare((col("R.A"),), "=", (col("S.A"),)), above)
    expr = ast.Selection(ast.Empty(inner), ast.BaseRelation("R"))
    db = rs_db([1, 2, 3, None], [2, 3, 3, None])
    planned, reference = _plan_and_reference(expr, db, cfg3.kernel)
    assert planned == reference == bag(1, None)
    builds = _count_index_builds(monkeypatch)
    assert evaluate(expr, db, cfg=cfg3) == reference
    assert builds == []
    assert evaluate(q2(), db, cfg=cfg3) == reference
    assert builds == [(0,)]


def _chain_db(n: int) -> Database:
    schema = Schema([Relation("E", (Column("E.src", NUM), Column("E.dst", NUM)))])
    return Database(schema, {"E": Bag([row(i, i + 1) for i in range(n)])})


def test_correlated_selection_over_the_fixpoint_relation_is_reindexed(cfg3, monkeypatch):
    # nodes reachable from 0: an edge extends the frontier when some
    # frontier node equals its source; a stale index of the first frontier
    # would stop at node 2
    reach = parse_expression(
        "(mu W union (project ((as W.n (col E.dst))) (select (cmp = (col E.src) (num 0)) (base E))) "
        "(project ((as W.n (col E.dst))) "
        "(select (not (empty (select (cmp = (col W.n) (col E.src)) (base W)))) (base E))))"
    )
    db = _chain_db(6)
    expr = typecheck(reach, db.schema).expr
    builds = _count_index_builds(monkeypatch)
    planned, reference = _plan_and_reference(expr, db, cfg3.kernel)
    assert planned == reference == bag(1, 2, 3, 4, 5, 6)
    assert len(builds) == 1 + 6  # the seed's selection of E, then one per iteration


def test_reachability_indexes_the_edges_once_per_evaluation(cfg3, monkeypatch):
    # the step's σ(W.d = E.src)(W × E) probes E with each frontier record;
    # E's bag is the same on every iteration, so its index is built once,
    # not once for each of the 30 iterations
    db = _chain_db(30)
    expr = typecheck(parse_expression(REACH), db.schema).expr
    builds = _count_index_builds(monkeypatch)
    planned = evaluate(expr, db, cfg=cfg3)
    assert builds == [(0,)]
    assert planned == evaluate(expr, db, cfg=EvalConfig(kernel=cfg3.kernel, plan=False))
    assert planned.distinct_count() == 30 * 31 // 2  # every pair i < j


def test_correlated_product_indexes_its_right_side_once(cfg3, monkeypatch):
    # NOT EMPTY σ(S.A = R.A ∧ S.B = T.B)(S × T) per outer record of R: S × T
    # is evaluated 100 times, and T's bag, indexed on T.B, never changes
    schema = Schema(
        [
            Relation("R", (Column("R.A", NUM),)),
            Relation("S", (Column("S.A", NUM), Column("S.B", NUM))),
            Relation("T", (Column("T.B", NUM),)),
        ]
    )
    correlated = parse_expression(
        "(select (not (empty (select (and (cmp = (col S.A) (col R.A)) "
        "(cmp = (col S.B) (col T.B))) (product (base S) (base T))))) (base R))"
    )
    expr = typecheck(correlated, schema).expr
    rng = random.Random(7)
    db = Database(
        schema,
        {
            "R": Bag([row(v) for v in range(100)]),
            "S": Bag([row(_cell(rng, range(120)), _cell(rng, range(8))) for _ in range(60)]),
            "T": Bag([row(_cell(rng, range(8))) for _ in range(12)]),
        },
    )
    for kname in PLAN_KERNELS:
        planned, reference = _plan_and_reference(expr, db, kernel_by_name(kname))
        assert planned == reference, kname
    builds = _count_index_builds(monkeypatch)
    assert evaluate(expr, db, cfg=cfg3) == reference
    assert builds == [(0,)]


def test_fixpoint_inside_a_condition_gets_no_stale_index(cfg3):
    # per outer row a, W counts (a, 0) up to (a, 3) when a is in S; an index
    # of W kept from the seed, or from an earlier outer row, would stop at
    # (a, 1)
    counter = parse_expression(
        "(select (not (empty (select (cmp = (col W.n) (num 3)) "
        "(mu W union (project ((as W.k (col S.A)) (as W.n (num 0))) (base S)) "
        "(project ((col W.k) (as W.n (fn add (col W.n) (num 1)))) "
        "(select (and (cmp = (col W.k) (col R.A)) (cmp < (col W.n) (num 3))) (base W))))))) "
        "(base R))"
    )
    db = rs_db([1, 2, 3, None], [2, 3, None, 7])
    expr = typecheck(counter, db.schema).expr
    for kernel in (cfg3.kernel, kernel_2vl_syntactic()):
        planned, reference = _plan_and_reference(expr, db, kernel)
        assert planned == reference
    assert planned == bag(2, 3, None)


def test_q2_nested_inside_another_not_exists(monkeypatch):
    # T rows with no R row of equal value that q2 keeps
    schema = Schema(
        [
            Relation("R", (Column("R.A", NUM),)),
            Relation("S", (Column("S.A", NUM),)),
            Relation("T", (Column("T.A", NUM),)),
        ]
    )
    nested = parse_expression(
        "(select (empty (select (and (cmp = (col R.A) (col T.A)) "
        "(empty (select (cmp = (col R.A) (col S.A)) (base S)))) (base R))) (base T))"
    )
    expr = typecheck(nested, schema).expr
    rng = random.Random(5)
    for kname in PLAN_KERNELS:
        for _ in range(3):
            db = Database(
                schema,
                {
                    name: Bag([row(_cell(rng, range(8))) for _ in range(12)])
                    for name in ("R", "S", "T")
                },
            )
            planned, reference = _plan_and_reference(expr, db, kernel_by_name(kname))
            assert planned == reference, kname
    db = Database(schema, {"R": bag(1, 2, None), "S": bag(2, None), "T": bag(1, 2, 3, None)})
    assert evaluate(expr, db, cfg=EvalConfig(kernel=kernel_3vl())) == bag(2, 3, None)
    # R and S are indexed once each for the whole call
    builds = _count_index_builds(monkeypatch)
    evaluate(expr, db, cfg=EvalConfig(kernel=kernel_3vl()))
    assert builds == [(0,), (0,)]


# -- compiled conditions and projections against the tree-walker ---------------

from nullvl.errors import EvalError  # noqa: E402
from nullvl.logic import GROUNDINGS, KERNELS  # noqa: E402

ALL_SEMANTICS = (*KERNELS, *(f"grounded:{g}" for g in GROUNDINGS))

TUV = Schema(
    [
        Relation("T", (Column("T.A", NUM), Column("T.B", NUM))),
        Relation("U", (Column("U.C", NUM), Column("U.D", NUM))),
        Relation("V", (Column("V.E", NUM), Column("V.F", NUM))),
    ]
)

_K2 = "(tuple (col T.A) (col T.B))"
_K3 = "(tuple (col T.A) (col T.B) (col U.C))"
_TU = "(product (base T) (base U))"
COMPILED_SHAPES = [
    # k = 2 and k = 3 tuple comparisons under every operator
    *(f"(select (cmp {op} {_K2} (tuple (col U.C) (col U.D))) {_TU})" for op in ast.COMPARISONS),
    *(
        f"(select (cmp {op} {_K3} (tuple (col U.D) (num 1) (col T.A))) {_TU})"
        for op in ast.COMPARISONS
    ),
    # division by zero gives NULL inside cmp, isnull and a projection
    "(select (cmp < (fn div (col T.A) (num 0)) (col T.B)) (base T))",
    "(select (not (cmp = (fn add (col T.B) (fn div (col T.A) (num 0))) (num 1))) (base T))",
    "(select (isnull (fn div (col T.A) (num 0))) (base T))",
    "(select (or (isnull (fn div (col T.A) (col T.B))) "
    "(cmp > (fn mod (col T.B) (col T.A)) (num 0))) (base T))",
    "(project ((fn div (col T.A) (col T.B)) (as X (fn neg (col T.B)))) (base T))",
    # outer names read two subquery levels down
    "(select (empty (select (not (empty (select (and (cmp = (col T.A) (col V.E)) "
    "(cmp <= (col U.D) (col V.F))) (base V)))) (base U))) (base T))",
    "(select (in (col T.B) (project ((col U.D)) (select (any < (col T.A) "
    "(project ((fn add (col V.F) (col U.C))) (select (cmp >= (col V.E) (col U.C)) (base V)))) "
    "(base U)))) (base T))",
    # multi-column in, any and all
    "(select (in (tuple (col T.A) (col T.B)) (base U)) (base T))",
    "(select (not (in (tuple (col T.B) (col T.A)) (base V))) (base T))",
    "(select (any < (tuple (col T.A) (col T.B)) (base U)) (base T))",
    "(select (all >= (tuple (col T.A) (col T.B)) "
    "(select (cmp != (col U.C) (col T.B)) (base U))) (base T))",
    "(select (or (all = (tuple (col T.A) (num 2)) (base V)) "
    "(any != (tuple (col T.B) (col T.A)) (base U))) (base T))",
]


def _tuv_db(seed: int) -> Database:
    rng = random.Random(seed)
    values = range(-1, 4)
    return Database(
        TUV,
        {
            name: Bag([row(_cell(rng, values), _cell(rng, values)) for _ in range(9)])
            for name in ("T", "U", "V")
        },
    )


@pytest.mark.parametrize("kname", ALL_SEMANTICS)
def test_compiled_conditions_match_tree_walker(kname):
    kernel = kernel_by_name(kname)
    for text in COMPILED_SHAPES:
        expr = typecheck(parse_expression(text), TUV)
        for seed in range(3):
            planned, reference = _plan_and_reference(expr, _tuv_db(seed), kernel)
            assert planned == reference, (kname, text, seed)


@pytest.mark.parametrize(
    "bad, message",
    [
        (col("nowhere"), "unbound name 'nowhere' (translator or evaluator bug)"),
        (ast.ArgHole(1), "template hole escaped into evaluation"),
    ],
)
def test_compiled_and_tree_walked_terms_raise_the_same_error(bad, message):
    # typecheck rejects both terms, so they go into an already checked tree
    db = _tuv_db(0)
    checked = typecheck(parse_expression("(project ((col T.A)) (base T))"), TUV)
    source = checked.expr.source
    wrong = [
        ast.Selection(ast.Compare((bad,), "=", (num(1),)), source),
        ast.Selection(ast.IsNull(ast.FnApply("neg", (bad,))), source),
        ast.Projection((ast.ProjItem(bad, "X"),), source),
    ]
    for expr in wrong:
        for plan in (True, False):
            with pytest.raises(EvalError) as raised:
                evaluate(replace(checked, expr=expr), db, cfg=EvalConfig(plan=plan))
            assert str(raised.value) == message
