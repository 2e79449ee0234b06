import json
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nullvl import ast
from nullvl.ast import col, render_condition, render_expression
from nullvl.errors import ExprParseError
from nullvl.fuzz import ExpressionGenerator, FuzzConfig, default_schema
from nullvl.parser import MAX_NESTING, parse_condition, parse_expression


def test_membership_selection():
    e = parse_expression("(select (in (col R.A) (base S)) (base R))")
    assert e == ast.Selection(
        ast.In((col("R.A"),), ast.BaseRelation("S")), ast.BaseRelation("R")
    )


def test_distinct_projection():
    e = parse_expression("(distinct (project ((col R.A)) (base R)))")
    assert e == ast.Distinct(
        ast.Projection((ast.ProjItem(col("R.A"), None),), ast.BaseRelation("R"))
    )


def test_truncated_input_position():
    with pytest.raises(ExprParseError) as err:
        parse_expression("(select (empt")
    assert err.value.offset == 14


def test_unknown_keyword_position():
    with pytest.raises(ExprParseError) as err:
        parse_expression("(frobnicate (base R))")
    assert err.value.line == 1 and err.value.column == 1


def test_arity_mismatch_detected_syntactically():
    with pytest.raises(ExprParseError, match="arity mismatch"):
        parse_condition("(cmp = (tuple (col A) (col B)) (col C))")


def test_rational_and_string_literals():
    t = parse_condition('(cmp = (num 3/4) (num 0.75))')
    assert t.lhs[0].value == t.rhs[0].value
    e = parse_expression('(project ((as out (ord "he said \\"hi\\""))) (base R))')
    assert e.items[0].term.value == 'he said "hi"'


def test_quoted_names():
    e = parse_expression('(project ((as "count(*)" (col "weird name"))) (base R))')
    assert e.items[0].rename == "count(*)"
    assert e.items[0].term.name == "weird name"
    assert parse_expression(render_expression(e)) == e


def test_mu_kinds():
    bag = parse_expression("(mu W union-all (base R) (base W))")
    dedup = parse_expression("(mu W union (base R) (base W))")
    assert not bag.distinct and dedup.distinct


def test_condition_variants_render_roundtrip():
    texts = [
        "(true)",
        "(false)",
        "(isnull (col A))",
        "(cmp <= (col A) (num 3))",
        "(cmp != (tuple (col A) (col B)) (tuple (num 1) (null)))",
        "(in (col A) (base S))",
        "(empty (base S))",
        "(any < (col A) (base S))",
        "(all >= (col A) (base S))",
        "(and (true) (not (false)))",
        "(or (isnull (col A)) (cmp = (col A) (num 1)))",
    ]
    for text in texts:
        c = parse_condition(text)
        assert parse_condition(render_condition(c)) == c


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_render_parse_roundtrip(seed):
    import random

    gen = ExpressionGenerator(default_schema(), FuzzConfig(seed=seed, max_depth=4), random.Random(seed))
    e = gen.expression()
    assert parse_expression(render_expression(e)) == e


def test_comments_are_skipped():
    e = parse_expression("; leading comment\n(base R) ; trailing")
    assert e == ast.BaseRelation("R")


def test_unterminated_string_reports_position():
    with pytest.raises(ExprParseError, match="unterminated"):
        parse_expression('(base "R')


# (text, message, offset, line, column) of malformed texts.  Offsets and
# columns are 1-based and count characters; a newline escaped inside a
# string starts no line for the tokens after it, but the end of input
# counts every newline.
MALFORMED = [
    ('(base "R', "unterminated string", 7, 1, 7),
    ('(base "R\\', "unterminated escape", 9, 1, 9),
    ('(base "R\nS")', "newline inside string", 9, 1, 9),
    (")", "unexpected ')'", 1, 1, 1),
    ("(base R))", "trailing input after expression", 9, 1, 9),
    ("(base R) (base S)", "trailing input after expression", 10, 1, 10),
    ("(base R) x", "trailing input after expression", 10, 1, 10),
    ("(" * 201 + ")" * 201, "nesting deeper than 200 parentheses", 201, 1, 201),
    ("(" * 200 + "(base R)" + ")" * 199, "nesting deeper than 200 parentheses", 201, 1, 201),
    ("(select (empt", "unexpected end of input", 14, 1, 14),
    ("", "unexpected end of input", 1, 1, 1),
    ("; only a comment", "unexpected end of input", 17, 1, 17),
    ('; note\n(base "R', "unterminated string", 14, 2, 7),
    ("(base R)\r\n; c\r\n  )", "trailing input after expression", 18, 3, 3),
    ('\t(select\t(cmp = (col A) (num 1))\t"open', "unterminated string", 34, 1, 34),
    ('; a "quoted" comment\r\n\t(base R) ; (\n\t)', "trailing input after expression", 38, 3, 2),
    ('(base "R\\\nS") (base T)', "trailing input after expression", 15, 1, 15),
    ('(base "R\\\nS"', "unexpected end of input", 13, 2, 3),
    # a malformed string anywhere is reported before a fault of the forms
    ('(base R) ) "open', "unterminated string", 12, 1, 12),
    ("(" * 201 + '"a\\', "unterminated escape", 204, 1, 204),
    ("(base R)\n\t\t(frobnicate)", "trailing input after expression", 12, 2, 3),
    ("(frobnicate (base R))", "unknown expression keyword 'frobnicate'", 1, 1, 1),
    ('(project ((col A)) (base R)) ; done\n\r\n   "tail', "unterminated string", 42, 3, 4),
    ("; c\r\n\t(select (true)\r\n\t\t(frob R))", "unknown expression keyword 'frob'", 25, 3, 3),
    ('(project\t((as "a\\\nb" (col A)))\n (bse R))', "unknown expression keyword 'bse'", 33, 2, 2),
    # faults of keywords and their arguments
    ("(select (cmp == (col A) (num 1)) (base R))", "unknown comparison '=='", 14, 1, 14),
    ("(select (cmp = (tuple (col A) (col B)) (col C)) (base R))", "tuple arity mismatch: 2 vs 1", 9, 1, 9),
    ("(project () (base R))", "projection needs at least one item", 10, 1, 10),
    ('("select" (true) (base R))', "expected a keyword after '('", 1, 1, 1),
    ("(select (cmp = (col A) (num 1e5)) (base R))", "not an exact numeric literal: '1e5'", 29, 1, 29),
    ("(select (cmp = (arg x) (num 1)) (base R))", "arg index must be an integer", 21, 1, 21),
    ("(mu W union-distinct (base R) (base W))", "union kind must be union or union-all", 7, 1, 7),
    ("(group (A) ((median B)) (base R))", "unknown aggregate 'median'", 13, 1, 13),
    # the end of input is reported before a fault of the forms it cuts off
    ("(frobnicate (base R)", "unexpected end of input", 21, 1, 21),
    # a form's keyword and number of arguments are checked before anything
    # inside it; `as` reads its term or aggregate before its name, and a
    # comparison its tuples before it matches their lengths
    ("(select (frob) (base R) extra)", "select takes a condition and an expression", 1, 1, 1),
    ("(project ((as (x) (frob))) (base R))", "unknown term keyword 'frob'", 19, 1, 19),
    ("(group () ((as (x) (frob B))) (base R))", "unknown aggregate 'frob'", 20, 1, 20),
    ("(select (cmp = (tuple (col A) (col B)) (col C D)) (base R))", "col takes one name", 40, 1, 40),
]


@pytest.mark.parametrize(
    "text, message, offset, line, column",
    MALFORMED,
    ids=[f"{i}-{case[1].split()[0]}" for i, case in enumerate(MALFORMED)],
)
def test_error_message_and_position(text, message, offset, line, column):
    with pytest.raises(ExprParseError) as err:
        parse_expression(text)
    assert str(err.value) == f"{message} (offset {offset}, line {line}, column {column})"
    assert (err.value.offset, err.value.line, err.value.column) == (offset, line, column)


def test_strings_read_escapes():
    e = parse_expression('(project ((as "a\\nb\\tc\\\\d\\"e\\qf" (col A))) (base R))')
    assert e.items[0].rename == 'a\nb\tc\\d"eqf'


@pytest.mark.parametrize("name", ["a\nb", "tab\there", "back\\slash", 'q"uote', '\n\\"\t\r', "\\n", ""])
def test_names_with_layout_and_escapes_round_trip(name):
    cond = ast.Compare((col(name),), "=", (ast.OrdConst(name),))
    e = ast.Projection((ast.ProjItem(col(name), name),), ast.Selection(cond, ast.BaseRelation(name)))
    assert parse_expression(render_expression(e)) == e


with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "parse_faults.json"), encoding="utf-8") as fh:
    PARSE_FAULTS = json.load(fh)  # written by gen_parse_faults.py


def test_mutated_texts_keep_their_errors():
    assert len(PARSE_FAULTS) == 400
    wrong = []
    for text, message, offset, line, column in PARSE_FAULTS:
        want = f"{message} (offset {offset}, line {line}, column {column})"
        try:
            got = repr(parse_expression(text))
        except ExprParseError as err:
            got = str(err)
        if got != want:
            wrong.append((text, want, got))
    assert not wrong


def test_string_tokens_serve_as_names():
    # a token read as a name may be a string, an operator too; a keyword may
    # not, the `as` and `tuple` that open a projection item or a term tuple
    # included (see MALFORMED); `true` and `false` take no arguments, and a
    # tuple holds two terms or more (docs/grammar.md)
    c = parse_condition('(cmp "=" (tuple (col A) (col "B")) (tuple (col "B") (col A)))')
    assert c == ast.Compare((col("A"), col("B")), "=", (col("B"), col("A")))
    with pytest.raises(ExprParseError, match=r"^expected a term or \(tuple \.\.\.\) \(offset 10, line 1, column 10\)$"):
        parse_condition('(cmp "=" ("tuple" (col A) (col B)) (tuple (col B) (col A)))')
    with pytest.raises(ExprParseError, match=r"^tuple needs at least two terms \(offset 10, line 1, column 10\)$"):
        parse_condition('(cmp "=" (tuple (col A)) (col "B"))')
    with pytest.raises(ExprParseError, match=r"^expected a term or \(as name term\) \(offset 11, line 1, column 11\)$"):
        parse_expression('(project (("as" n (col A))) (base R))')
    for text in ("(true x (y))", "(false x)"):
        with pytest.raises(ExprParseError, match=r"^(true|false) takes no arguments \(offset 1, line 1, column 1\)$"):
            parse_condition(text)


def _depth(frame) -> int:
    count = 0
    while frame is not None:
        count, frame = count + 1, frame.f_back
    return count


def _at_stack_depth(depth, fn, *args):
    """``fn(*args)``, called with ``depth`` frames below its own."""

    def down(n):
        return fn(*args) if n == 0 else down(n - 1)

    return down(depth - _depth(sys._getframe()) - 1)


def test_deepest_nest_parses_deep_in_the_stack():
    assert _at_stack_depth(780, lambda: _depth(sys._getframe(1))) == 780
    text = "(not " * (MAX_NESTING - 1) + "(true)" + ")" * (MAX_NESTING - 1)
    cond = _at_stack_depth(780, parse_condition, text)
    for _ in range(MAX_NESTING - 1):
        cond = cond.cond
    assert cond == ast.CTrue()


def test_nest_past_the_limit_is_an_error():
    text = "(not " * MAX_NESTING + "(true)" + ")" * MAX_NESTING
    with pytest.raises(ExprParseError, match=f"nesting deeper than {MAX_NESTING}") as err:
        parse_condition(text)
    assert err.value.offset == 5 * MAX_NESTING + 1


def test_long_flat_conjunction_parses():
    cond = parse_condition("(and" + " (isnull (col A))" * 3000 + ")")
    count = 1
    while isinstance(cond, ast.And):
        cond, count = cond.left, count + 1
    assert count == 3000 and cond == ast.IsNull(col("A"))
