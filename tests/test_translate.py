import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from nullvl import ast, translate
from nullvl.ast import col, num
from nullvl.evaluator import EvalConfig, eval_condition, evaluate
from nullvl.fuzz import ExpressionGenerator, FuzzConfig, default_schema, gen_database
from nullvl.logic import (
    kernel_2vl,
    kernel_3vl,
    kernel_4vl_example,
    kernel_grounded,
    nonnegative_leq_grounding,
    syntactic_equality_grounding,
)
from nullvl.errors import TypeCheckError
from nullvl.typecheck import typecheck
from nullvl.values import NUM, Bag, Column, Database, Relation, Schema

from sample_queries import (
    bag,
    q1,
    q1_translated,
    q2,
    q3,
    q4,
    q5,
    q5_translated,
    customer_orders_schema,
    rs_db,
    rs_schema,
)

SCHEMA = rs_schema()
# R and S of `rs_schema`, and T with the two columns A and B
AB_SCHEMA = Schema(list(SCHEMA.relations.values()) + [
    Relation("T", (Column("A", NUM, nullable=True), Column("B", NUM, nullable=True)))
])


def _image(tr_fn, cond, source=ast.BaseRelation("T")):
    """The condition that `tr_fn` makes of the one in `σ(cond)(source)`;
    under `not` that is the false image of the operand."""
    return tr_fn(ast.Selection(cond, source), AB_SCHEMA).output.cond


def test_condition_rule_snapshots():
    a, b = col("A"), col("B")
    assert _image(translate.tr_to_3vl, ast.IsNull(a)) == ast.IsNull(a)
    cmp_ = ast.Compare((a,), "<", (b,))
    got = _image(translate.tr_to_3vl, ast.Not(cmp_))
    assert got == ast.Or(ast.Not(cmp_), ast.Or(ast.IsNull(a), ast.IsNull(b)))
    # falsity of a universal comparison becomes a witness search
    all_cond = ast.Quant((a,), "<", "all", ast.BaseRelation("S"))
    got = _image(translate.tr_to_3vl, ast.Not(all_cond))
    assert isinstance(got, ast.Not) and isinstance(got.cond, ast.Empty)
    inner = got.cond.query
    assert isinstance(inner, ast.Selection) and inner.source == ast.BaseRelation("S")
    assert inner.cond == _image(
        translate.tr_to_3vl,
        ast.Not(ast.Compare((a,), "<", (col("S.A"),))),
        ast.Product(ast.BaseRelation("T"), ast.BaseRelation("S")),
    )


def test_two_valued_directions_read_their_rules_from_the_kernel():
    # 2to3 and gr-to-3 under the empty grounding translate from the same
    # two-valued kernel, so the core gives them the same rules
    from nullvl.fuzz import gen_expression
    from nullvl.logic import empty_grounding

    schema = default_schema()
    for i in range(200):
        cfg = FuzzConfig(seed=i, max_depth=4)
        expr = typecheck(gen_expression(schema, cfg, random.Random(i)), schema).expr
        plain = translate.tr_to_3vl(expr, schema)
        grounded = translate.tr_grounded_to_3vl(expr, schema, empty_grounding())
        assert (plain.output, plain.trace) == (grounded.output, grounded.trace), i


def test_membership_query_translates_to_the_guarded_form():
    tr = translate.tr_to_3vl(q1(), SCHEMA)
    assert tr.output == q1_translated()


def test_null_insensitive_queries_are_unchanged():
    for q in (q2(), q3(), q4()):
        assert translate.tr_to_3vl(q, SCHEMA).output == q


def test_aggregate_query_translation_snapshot():
    schema = customer_orders_schema(orders_not_null=False)
    tr = translate.tr_to_3vl(q5(), schema)
    assert tr.output == q5_translated()


def test_capture_on_the_intro_database(cfg2, cfg3):
    db = rs_db([1, None], [None])
    tr = translate.tr_to_3vl(q1(), SCHEMA)
    verdict = translate.check_capture(q1(), db, cfg2, cfg3, tr)
    assert verdict.equal
    assert verdict.left == bag(1, None)


def test_reverse_direction_rule_snapshots():
    a, b = col("A"), col("B")
    assert translate.tr_from_3vl(
        ast.Selection(ast.Not(ast.IsNull(col("R.A"))), ast.BaseRelation("R")), SCHEMA
    ).output == ast.Selection(ast.Not(ast.IsNull(col("R.A"))), ast.BaseRelation("R"))
    cmp_ = ast.Compare((a,), "<", (b,))
    assert _image(translate.tr_from_3vl, ast.Not(cmp_)) == ast.and_all(
        [ast.Not(ast.IsNull(a)), ast.Not(ast.IsNull(b)), ast.Not(cmp_)]
    )


def test_ill_typed_input_raises_a_type_error():
    # no relation of the schema has a column A
    bad = ast.Selection(ast.Not(ast.IsNull(col("A"))), ast.BaseRelation("R"))
    for run in (
        lambda: translate.tr_to_3vl(bad, SCHEMA),
        lambda: translate.tr_from_3vl(bad, SCHEMA),
        lambda: translate.tr_grounded_to_3vl(bad, SCHEMA, syntactic_equality_grounding()),
        lambda: translate.tr_3vl_to_grounded(bad, SCHEMA),
        lambda: translate.tr_mvl_to_3vl(bad, SCHEMA, kernel_4vl_example()),
    ):
        with pytest.raises(TypeCheckError, match="unknown name 'A'"):
            run()


def test_reverse_capture_on_the_intro_database(cfg2, cfg3):
    db = rs_db([1, None], [None])
    for q in (q1(), q2(), q3(), q4()):
        tr = translate.tr_from_3vl(q, SCHEMA)
        assert translate.check_capture(q, db, cfg3, cfg2, tr).equal


def _corpus(seed, n, depth=4, schema=None):
    schema = schema or default_schema()
    cfgf = FuzzConfig(seed=seed, max_depth=depth)
    for i in range(n):
        rng = random.Random(seed * 10_000 + i)
        gen = ExpressionGenerator(schema, cfgf, rng)
        expr = typecheck(gen.expression(), schema).expr
        db = gen_database(schema, cfgf, rng)
        yield expr, db


def test_grounded_translation_with_empty_grounding_matches_plain(cfg2, cfg3):
    from nullvl.logic import empty_grounding

    schema = default_schema()
    g = empty_grounding()
    for expr, db in _corpus(31, 40, schema=schema):
        t1 = translate.tr_grounded_to_3vl(expr, schema, g)
        t2 = translate.tr_to_3vl(expr, schema)
        a = evaluate(t1.output, db, cfg=cfg3)
        b = evaluate(t2.output, db, cfg=cfg3)
        assert a == b


def test_grounded_syntactic_null_equality_keeps_rows(cfg3):
    g = syntactic_equality_grounding()
    kg = kernel_grounded(g)
    sel = ast.Selection(
        ast.Compare((ast.NullConst(),), "=", (ast.NullConst(),)), ast.BaseRelation("R")
    )
    db = rs_db([7], [])
    native = evaluate(sel, db, cfg=EvalConfig(kernel=kg))
    translated = evaluate(
        translate.tr_grounded_to_3vl(sel, SCHEMA, g).output, db, cfg=cfg3
    )
    assert native == translated == bag(7)


def test_grounded_sign_template_for_null_leq(cfg3):
    g = nonnegative_leq_grounding()
    kg = kernel_grounded(g)
    sel = ast.Selection(
        ast.Compare((ast.NullConst(),), "<=", (num(5),)), ast.BaseRelation("R")
    )
    db = rs_db([7], [])
    assert evaluate(sel, db, cfg=EvalConfig(kernel=kg)) == bag(7)
    translated = translate.tr_grounded_to_3vl(sel, SCHEMA, g).output
    assert evaluate(translated, db, cfg=cfg3) == bag(7)


def test_mvl_self_capture_on_corpus(cfg3):
    schema = default_schema()
    kern = kernel_3vl()
    for expr, db in _corpus(33, 40, depth=3, schema=schema):
        tr = translate.tr_mvl_to_3vl(expr, schema, kern)
        verdict = translate.check_capture(expr, db, cfg3, cfg3, tr)
        assert verdict.status != "not-equal"


def test_mvl_four_valued_selection_picks_exactly_true_rows(cfg3, cfg4):
    schema = default_schema()
    kern = kernel_4vl_example()
    for expr, db in _corpus(37, 40, depth=3, schema=schema):
        tr = translate.tr_mvl_to_3vl(expr, schema, kern)
        verdict = translate.check_capture(expr, db, cfg4, cfg3, tr)
        assert verdict.status != "not-equal"


def _parity_kernel():
    """t, f and a, where a is its own inverse under both connectives (a and
    a = t, a or a = f): a has lead 1 and period 3, so an `all` over records
    that compare to a is true only for an even count of them."""
    from nullvl.logic import LogicKernel

    def table(unit, zero):
        out = {}
        for x, y in product("tfa", repeat=2):
            if zero in (x, y):
                out[(x, y)] = zero
            elif unit in (x, y):
                out[(x, y)] = y if x == unit else x
            else:
                out[(x, y)] = unit
        return out

    nulls = {
        (op, frozenset(p)): "a" for op in ast.COMPARISONS for p in ({1}, {2}, {1, 2})
    }
    return LogicKernel(
        "parity", ("t", "f", "a"), "t", "f", table("t", "f"), table("f", "t"),
        {"t": "f", "f": "t", "a": "a"}, nulls,
    )


def test_mvl_capture_keeps_the_parity_of_counts(cfg3):
    kern = _parity_kernel()
    assert kern.periodicity("a", "and") == kern.periodicity("a", "or") == (1, 3)
    r = ast.BaseRelation("R")
    for nulls in range(4):
        db = rs_db([1], [None] * nulls + [1])
        expr = ast.Selection(ast.Quant((col("R.A"),), "=", "all", ast.BaseRelation("S")), r)
        want = bag(1) if nulls % 2 == 0 else Bag([])
        assert evaluate(expr, db, cfg=EvalConfig(kernel=kern)) == want
        assert evaluate(translate.tr_mvl_to_3vl(expr, SCHEMA, kern).output, db, cfg=cfg3) == want
    schema = default_schema()
    for expr, db in _corpus(71, 60, depth=3, schema=schema):
        tr = translate.tr_mvl_to_3vl(expr, schema, kern)
        verdict = translate.check_capture(expr, db, EvalConfig(kernel=kern), cfg3, tr)
        assert verdict.status != "not-equal", ast.render_expression(expr)


def _null_a_equals_kernel():
    """2vl except that `=` is true whenever its left argument is NULL: the
    null patterns {1} and {12} share a constant, so one `isnull` covers them."""
    from nullvl.logic import LogicKernel

    k2 = kernel_2vl()
    nulls = {**k2.nulls, ("=", frozenset({1})): "t", ("=", frozenset({1, 2})): "t"}
    return LogicKernel(
        "null-a-equals", k2.values, "t", "f", k2.and_table, k2.or_table, k2.not_table, nulls
    )


def _term(v):
    if v is None:
        return ast.NullConst()
    return ast.OrdConst(v) if isinstance(v, str) else num(v)


def test_derived_templates_are_exact():
    """Under 3VL the template of (op, value) is true exactly when the kernel
    compares the arguments to that value, and on two non-null arguments it is
    never unknown.  With a NULL argument a template that is not true may be
    unknown rather than false (`a op b` itself is); the translator only keeps
    the rows where a template is true, so that is all it relies on."""
    from nullvl.logic import GROUNDINGS, kernel_2vl_syntactic

    kernels = [
        kernel_3vl(), kernel_2vl(), kernel_2vl_syntactic(), kernel_4vl_example(),
        _parity_kernel(), _null_a_equals_kernel(),
        *(kernel_grounded(make()) for make in GROUNDINGS.values()),
    ]
    db, cfg3 = rs_db([], []), EvalConfig(kernel=kernel_3vl())
    numbers = [None, -1, 0, 1, 2, Fraction(1, 2)]
    for kernel in kernels:
        for op in ast.COMPARISONS:
            grid = numbers + ["a", "b"] if op in ("=", "!=") else numbers
            for a, b in product(grid, repeat=2):
                if isinstance(a, str) != isinstance(b, str) and None not in (a, b):
                    continue  # a number is never compared with text
                want = kernel.compare(op, a, b)
                for value in kernel.values:
                    got = eval_condition(kernel.template(op, value, _term(a), _term(b)), db, cfg3)
                    where = (kernel.name, op, a, b, value, got)
                    assert (got == "t") == (want == value), where
                    assert got != "u" or None in (a, b), where


def test_three_valued_templates_and_the_smallest_guards():
    x, y = col("R.A"), col("S.A")
    isnull_x, isnull_y = ast.IsNull(x), ast.IsNull(y)
    for op in ast.COMPARISONS:
        atom = ast.Compare((x,), op, (y,))
        k3 = kernel_3vl()
        assert k3.template(op, "t", x, y) == atom
        assert k3.template(op, "f", x, y) == ast.Not(atom)
        assert k3.template(op, "u", x, y) == ast.Or(isnull_x, isnull_y)
        assert kernel_4vl_example().template(op, "u", x, y) == ast.CFalse()
    # the null patterns {1} and {12} give `isnull a`; {2} alone its exact guard
    kernel = _null_a_equals_kernel()
    atom = ast.Compare((x,), "=", (y,))
    assert kernel.template("=", "t", x, y) == ast.Or(atom, isnull_x)
    assert kernel.template("=", "f", x, y) == ast.Or(
        ast.Not(atom), ast.And(ast.Not(isnull_x), isnull_y)
    )


def test_mvl_negation_rule_structure():
    kern = kernel_4vl_example()
    t = translate._FromMVL({}, kern)  # no subquery below, so no notes
    theta = ast.IsNull(col("A"))
    got = t.cond_value(ast.Not(theta), "s", "")
    # the only value whose negation is s is s itself; isnull never takes it
    assert got == ast.CFalse()
    got_t = t.cond_value(ast.Not(theta), "t", "")
    assert got_t == t.cond_value(theta, "f", "")


def _random_atom(rng):
    return ast.Compare((col("R.A"),), rng.choice(("=", "<", ">=")), (num(rng.randrange(10)),))


def _alternating_chain(rng, depth):
    cond = _random_atom(rng)
    for i in range(depth):
        if i % 3 == 0:
            cond = ast.And(cond, _random_atom(rng))
        elif i % 3 == 1:
            cond = ast.Or(cond, _random_atom(rng))
        else:
            cond = ast.Not(cond)
    return cond


def _random_connective_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return _random_atom(rng)
    kind = rng.choice((ast.And, ast.Or, ast.Not))
    if kind is ast.Not:
        return ast.Not(_random_connective_tree(rng, depth - 1))
    return kind(_random_connective_tree(rng, depth - 1), _random_connective_tree(rng, depth - 1))


def test_mvl_translation_of_connectives_stays_linear():
    # without the absorbing-operand rule a depth-6 tree alone grows to
    # thousands of times its size; with it every output is within 4x
    rng = random.Random(2026)
    conds = [_alternating_chain(rng, depth) for depth in range(1, 31)]
    conds += [_random_connective_tree(rng, 6) for _ in range(200)]
    for kern in (kernel_3vl(), kernel_4vl_example()):
        for cond in conds:
            expr = ast.Selection(cond, ast.BaseRelation("R"))
            ratio = translate.tr_mvl_to_3vl(expr, SCHEMA, kern).size_ratio
            assert ratio <= 4, (kern.name, ast.render_expression(expr), float(ratio))


def test_mvl_count_profiles_merge_dont_care_positions():
    # 3vl membership is unknown exactly when no record compares true and
    # some record compares unknown: one emptiness and one non-emptiness
    # test, whatever the count of false records
    sel = ast.Selection(ast.In((num(1),), ast.BaseRelation("S")), ast.BaseRelation("R"))
    checked = typecheck(sel, SCHEMA)
    tr = translate._FromMVL(checked.notes, kernel_3vl(), kernel_3vl())
    got = tr.cond_value(checked.expr.cond, "u", "/cond")
    cmp_ = ast.Compare((num(1),), "=", (col("S.A"),))
    unknown = ast.Or(ast.IsNull(num(1)), ast.IsNull(col("S.A")))
    assert got == ast.And(
        ast.Empty(ast.Selection(cmp_, ast.BaseRelation("S"))),
        ast.Not(ast.Empty(ast.Selection(unknown, ast.BaseRelation("S")))),
    )
    assert ("/cond", "count-dont-care:u:1") in tr.trace and ("/cond", "count-idempotent") in tr.trace


def test_merged_count_profiles_cover_exactly_the_merged_cells():
    rng = random.Random(7)
    for _ in range(300):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        density = rng.choice((0.3, 0.7, 1.0))
        profiles = [p for p in product(*map(range, sizes)) if rng.random() < density]
        cells = []
        for merged in translate._merge_profiles(profiles, sizes):
            cells += product(*(range(n) if m is None else (m,) for m, n in zip(merged, sizes)))
        assert sorted(cells) == sorted(profiles)


def test_corrupted_translation_is_caught(cfg2, cfg3):
    tr = translate.tr_to_3vl(q1(), SCHEMA)
    sel = tr.output
    corrupted = dataclasses.replace(tr, output=ast.Selection(sel.cond.right, sel.source))
    db = rs_db([1, None], [1])
    verdict = translate.check_capture(q1(), db, cfg2, cfg3, corrupted)
    assert verdict.status == "not-equal"
    assert verdict.left != verdict.right


def test_capture_without_translation_on_null_free_database(cfg2, cfg3):
    db = rs_db([1, 2], [2])
    identity = translate.TranslationResult(q1(), q1(), ())
    assert translate.check_capture(q1(), db, cfg2, cfg3, identity).equal


def test_size_ratios_are_bounded_over_a_thousand_expressions():
    schema = default_schema()
    cfgf = FuzzConfig(seed=41, max_depth=4)
    worst = Fraction(0)
    for i in range(1000):
        rng = random.Random(410_000 + i)
        expr = typecheck(ExpressionGenerator(schema, cfgf, rng).expression(), schema).expr
        worst = max(worst, translate.tr_to_3vl(expr, schema).size_ratio)
        worst = max(worst, translate.tr_from_3vl(expr, schema).size_ratio)
    print(f"\nmeasured size-ratio constant over 1000 expressions: {float(worst):.2f}")
    assert worst <= 8


def test_translation_fresh_names_use_reserved_prefix():
    # force a label clash between the membership tuple and the subquery output
    sel = ast.Selection(
        ast.Not(ast.In((col("R.A"),), ast.Projection((ast.ProjItem(col("S.A"), "R.A"),), ast.BaseRelation("S")))),
        ast.BaseRelation("R"),
    )
    tr = translate.tr_to_3vl(sel, SCHEMA)
    rendered = ast.render_expression(tr.output)
    assert "__c" in rendered
    db = rs_db([1, None], [None, 1])
    verdict = translate.check_capture(
        sel, db, EvalConfig(kernel=kernel_2vl()), EvalConfig(kernel=kernel_3vl()), tr
    )
    assert verdict.equal


def test_three_vl_to_grounded_direction(cfg3):
    g = nonnegative_leq_grounding()
    kg = kernel_grounded(g)
    schema = default_schema()
    for expr, db in _corpus(43, 40, schema=schema):
        tr = translate.tr_3vl_to_grounded(expr, schema)
        verdict = translate.check_capture(expr, db, cfg3, EvalConfig(kernel=kg), tr)
        assert verdict.status != "not-equal"


def test_doubly_nested_correlated_negation_captures(cfg2, cfg3):
    # a membership under negation whose subquery is itself a correlated
    # selection referring to the outer row
    inner = ast.Projection(
        (ast.ProjItem(col("S.A"), "v"),),
        ast.Selection(
            ast.Or(
                ast.Compare((col("S.A"),), "=", (col("R.A"),)),
                ast.IsNull(col("S.A")),
            ),
            ast.BaseRelation("S"),
        ),
    )
    q = ast.Selection(ast.Not(ast.In((col("R.A"),), inner)), ast.BaseRelation("R"))
    for r_rows, s_rows in [([1, None], [None, 1]), ([None], [2]), ([2, 3], [3, None])]:
        db = rs_db(r_rows, s_rows)
        tr = translate.tr_to_3vl(q, SCHEMA)
        assert translate.check_capture(q, db, cfg2, cfg3, tr).equal
        tr_back = translate.tr_from_3vl(q, SCHEMA)
        assert translate.check_capture(q, db, cfg3, cfg2, tr_back).equal


def test_syntactic_kernel_through_the_mvl_machinery(cfg3, cfg_syn):
    from nullvl.logic import kernel_2vl_syntactic

    schema = default_schema()
    kern = kernel_2vl_syntactic()
    for expr, db in _corpus(53, 40, depth=3, schema=schema):
        tr = translate.tr_mvl_to_3vl(expr, schema, kern)
        verdict = translate.check_capture(expr, db, cfg_syn, cfg3, tr)
        assert verdict.status != "not-equal"


def test_grounded_kernel_through_the_mvl_machinery(cfg3):
    # grounded kernels carry comparison templates, so the counting-based
    # translation applies to them too and must agree with the direct one
    g = nonnegative_leq_grounding()
    kg = kernel_grounded(g)
    schema = default_schema()
    cfg_g = EvalConfig(kernel=kg)
    for expr, db in _corpus(59, 30, depth=3, schema=schema):
        via_mvl = translate.tr_mvl_to_3vl(expr, schema, kg)
        verdict = translate.check_capture(expr, db, cfg_g, cfg3, via_mvl)
        assert verdict.status != "not-equal"


def _nested_negated_any(depth):
    """`not (R.A < any (select S.A from S where …))`, nested `depth` deep."""
    cond = ast.Not(ast.Quant((col("R.A"),), "<", "any", ast.BaseRelation("S")))
    for _ in range(depth - 1):
        sub = ast.Projection((ast.ProjItem(col("S.A"), None),), ast.Selection(cond, ast.BaseRelation("S")))
        cond = ast.Not(ast.Quant((col("R.A"),), "<", "any", sub))
    return ast.Selection(cond, ast.BaseRelation("R"))


def _negated_wide_in(k):
    """A NOT IN over k columns."""
    items = tuple(col("R.A") if i % 2 == 0 else num(i) for i in range(k))
    sub = ast.Projection(tuple(ast.ProjItem(col("S.A"), f"x{i}") for i in range(k)), ast.BaseRelation("S"))
    return ast.Selection(ast.Not(ast.In(items, sub)), ast.BaseRelation("R"))


def test_translation_size_is_linear_in_nesting_and_width():
    # each level of negated quantifier and each column of a membership adds
    # a bounded amount of output, in every direction on the many-valued core
    directions = {
        "3to2": translate.tr_from_3vl,
        "3-to-gr": translate.tr_3vl_to_grounded,
        "mvl-to-3.3vl": lambda e, s: translate.tr_mvl_to_3vl(e, s, kernel_3vl()),
        "mvl-to-3.4vl": lambda e, s: translate.tr_mvl_to_3vl(e, s, kernel_4vl_example()),
    }
    for name, tr_fn in directions.items():
        for depth in range(1, 9):
            ratio = tr_fn(_nested_negated_any(depth), SCHEMA).size_ratio
            assert ratio <= 4, (name, depth, float(ratio))
        wide = {k: tr_fn(_negated_wide_in(k), SCHEMA).size_ratio for k in range(1, 9)}
        assert wide[8] <= Fraction(3, 2) * wide[4], (name, {k: float(r) for k, r in wide.items()})


def _has_negation_or_tuple_comparison(node) -> bool:
    if isinstance(node, ast.Not) or isinstance(node, ast.Compare) and len(node.lhs) > 1:
        return True
    return any(_has_negation_or_tuple_comparison(child) for _, child in ast.steps(node))


def test_translations_touch_only_negations_and_tuple_comparisons():
    # positive conditions mean the same in every direction whose kernels
    # agree on the comparisons that are true on NULLs
    from nullvl.logic import empty_grounding

    schema = default_schema()
    directions = (
        translate.tr_to_3vl,
        translate.tr_from_3vl,
        lambda e, s: translate.tr_mvl_to_3vl(e, s, kernel_3vl()),
        lambda e, s: translate.tr_mvl_to_3vl(e, s, kernel_4vl_example()),
        lambda e, s: translate.tr_grounded_to_3vl(e, s, empty_grounding()),
    )
    unchanged = changed = 0
    for expr, _ in _corpus(67, 250, schema=schema):
        plain = not _has_negation_or_tuple_comparison(expr)
        for tr_fn in directions:
            out = tr_fn(expr, schema).output
            if plain:
                assert out == expr, ast.render_expression(expr)
                unchanged += 1
            elif out != expr:
                changed += 1
    assert unchanged > 40 and changed > 40


# SHA-256 over the rendered outputs of 200 seeded fuzz expressions, one line
# each; recorded before the two-valued-source translators shared their rules.
# The mvl-to-3 outputs (over depth-3 expressions, the harness's cap for the
# many-valued families) and every direction's `trace_json()` ("<key>.trace")
# were recorded before the translators read labels from the typecheck notes.
# The six gr-to-3 entries were recorded when gr-to-3 moved onto the
# many-valued core: ALL and negated ALL now use the false template where
# they used the negated true one, and the trace names the core's rules.
# The three gr-to-3 outputs and the mvl-to-3.4vl output were re-recorded
# when every kernel's comparison templates came to be derived from its NULL
# table: the true (false) template no longer guards `a op b` (its negation)
# with not-null tests, since a NULL argument already keeps it from being
# true, and a NULL pattern whose constant is the wanted value is covered by
# the smallest guard.  Over these 200 expressions the gr-to-3 outputs shrank
# from about 92k to 38k-43k characters and mvl-to-3.4vl from 32.2k to 24.9k;
# the mvl-to-3.3vl output and every trace are unchanged.
# Every entry but 2to3 and 2to3.trace was re-recorded when 3to2 and 3-to-gr
# moved onto the many-valued core and its images came to range over sets of
# truth values: a negated quantifier's zero counts share one emptiness test,
# And/Or images are rectangle covers, a positive IN / ANY / ALL keeps its
# shape where both kernels agree on the comparisons true on NULLs, 3to2
# images the falsity of (true) as (false) rather than `not (true)`, and the
# traces name the core's rules.  Over these 200 expressions the outputs went,
# in nodes, 3to2 3,513 -> 3,464, 3-to-gr 5,152 -> 5,270, gr-to-3 3,542 /
# 4,141 / 3,774 -> 3,356 / 4,070 / 3,596 (empty / syntactic / leq-sign) and
# mvl-to-3 2,208 / 2,337 -> 2,036 / 2,036 (3vl / 4vl).
# 2to3, gr-to-3.empty and gr-to-3.leq-sign (each with its trace) and
# 3-to-gr were re-recorded when 2to3 moved onto the many-valued core.  2to3
# now takes the core's rules and order, and 2to3 and gr-to-3.empty, whose
# kernels are the same, give equal outputs and traces.  Where the source's
# `=` is false on every null pattern (2vl, empty, leq-sign), a negated IN
# keeps its shape over the null-free records ("in-null-filtered") rather
# than counting.  3-to-gr drops the not-null guard on `a op b` in an image
# that already holds on every null pattern.  In nodes over these 200
# expressions: 2to3 3,421 -> 3,421, gr-to-3 3,356 / 3,596 -> 3,421 / 3,661
# (empty / leq-sign) and 3-to-gr 5,270 -> 5,087.
PINNED_OUTPUT_DIGESTS = {
    "2to3": "bc4c8cad7cd6cf45bf962802600a2258a3efb5293c4cfd368aae199fb020795c",
    "3to2": "2837cf4cd642ca5aec076fcf7d98e94c7d6f88812c53eed33374257ce5800402",
    "3-to-gr": "63db1248ca67d73c436686105332c27b4f509333b32685dd13a641bfead38e6a",
    "gr-to-3.empty": "bc4c8cad7cd6cf45bf962802600a2258a3efb5293c4cfd368aae199fb020795c",
    "gr-to-3.syntactic": "ecbef41be9db000ee66900f954a731cd30a2442b5128d8e2c7aac69f838ba283",
    "gr-to-3.leq-sign": "7bdd05678c5972ddd31ae70440ce577e5beee942c0e0689d18993c549957491e",
    "mvl-to-3.3vl": "214da1437770e47c7096cac604e8d04498873e16a0cd30fc3dab6ccf720cef42",
    "mvl-to-3.4vl": "214da1437770e47c7096cac604e8d04498873e16a0cd30fc3dab6ccf720cef42",
    "2to3.trace": "578a153705d4470310193b0fcbe124889b8e1fe66b9614c7b11bb44a097bff72",
    "3to2.trace": "de2248925a63d01a462f9188b20fd0e00561efecb41f82345660894111aa863c",
    "3-to-gr.trace": "90c29ae986665f8b513d337c9b66284130b2dc17e0e138c92690e75d36735275",
    "gr-to-3.empty.trace": "578a153705d4470310193b0fcbe124889b8e1fe66b9614c7b11bb44a097bff72",
    "gr-to-3.syntactic.trace": "7eec917293a4fc2bfb0460a5c2cd7cf668b642a0b4e333e4b75e2cefbb4de73a",
    "gr-to-3.leq-sign.trace": "31c1e3920ba9c7d38e3908d685f2c67d487b14f5969d406cdd337b3163475bbf",
    "mvl-to-3.3vl.trace": "5fef0828a6769483e9381e68477284b36bb1298e694ff5aa9328fd0bcf9beb5d",
    "mvl-to-3.4vl.trace": "ea894de55b4391f079dedeaaad95a81fea5195f307d1f46ea2c0276aacc256d4",
}


def test_two_valued_source_outputs_match_pinned_digests():
    from nullvl.fuzz import gen_expression
    from nullvl.logic import empty_grounding

    schema = default_schema()
    runs = {
        "2to3": lambda e: translate.tr_to_3vl(e, schema),
        "3to2": lambda e: translate.tr_from_3vl(e, schema),
        "3-to-gr": lambda e: translate.tr_3vl_to_grounded(e, schema),
    }
    for name, g in (("empty", empty_grounding()), ("syntactic", syntactic_equality_grounding()),
                    ("leq-sign", nonnegative_leq_grounding())):
        runs[f"gr-to-3.{name}"] = lambda e, g=g: translate.tr_grounded_to_3vl(e, schema, g)
    mvl_runs = {
        f"mvl-to-3.{k.name}": lambda e, k=k: translate.tr_mvl_to_3vl(e, schema, k)
        for k in (kernel_3vl(), kernel_4vl_example())
    }
    digests = {}

    def update(key, text):
        digests.setdefault(key, hashlib.sha256()).update(text.encode() + b"\n")

    for i in range(200):
        for depth, group in ((4, runs), (3, mvl_runs)):
            cfg = FuzzConfig(seed=i, max_depth=depth)
            expr = typecheck(gen_expression(schema, cfg, random.Random(i)), schema).expr
            for name, run in group.items():
                tr = run(expr)
                update(name, ast.render_expression(tr.output))
                update(f"{name}.trace", json.dumps(tr.trace_json()))
    assert {name: d.hexdigest() for name, d in digests.items()} == PINNED_OUTPUT_DIGESTS
