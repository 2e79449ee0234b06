"""Numeric functions and aggregates on canonical numbers: int when integral,
Fraction otherwise, never a float."""
import itertools
import math
from fractions import Fraction

import pytest

from nullvl.errors import KernelError, SchemaError
from nullvl.funcs import apply_aggregate, apply_function
from nullvl.logic import standard_compare
from nullvl.values import NUM, parse_cell

OPERANDS = [-7, -3, -1, 0, 1, 2, 5, Fraction(-7, 3), Fraction(-1, 4), Fraction(1, 3), Fraction(5, 2)]


def is_canonical(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def test_div_and_mod_equal_the_all_fraction_results():
    for a, b in itertools.product(OPERANDS, repeat=2):
        if b == 0:
            continue
        fa, fb = Fraction(a), Fraction(b)
        for fn, want in (("div", fa / fb), ("mod", fa - fb * math.floor(fa / fb))):
            got = apply_function(fn, [a, b])
            assert got == want and is_canonical(got), (fn, a, b, got)


def test_add_sub_mult_neg_stay_exact_and_canonical():
    for a, b in itertools.product(OPERANDS, repeat=2):
        fa, fb = Fraction(a), Fraction(b)
        for fn, want in (("add", fa + fb), ("sub", fa - fb), ("mult", fa * fb)):
            got = apply_function(fn, [a, b])
            assert got == want and is_canonical(got), (fn, a, b, got)
        assert apply_function("neg", [a]) == -fa and is_canonical(apply_function("neg", [a]))
    # fractions that cancel to an integer come back as int
    assert type(apply_function("add", [Fraction(1, 2), Fraction(1, 2)])) is int
    assert type(apply_function("mult", [Fraction(2, 3), 3])) is int


@pytest.mark.parametrize("fn", ["div", "mod"])
@pytest.mark.parametrize("a", [0, 3, Fraction(-1, 2)])
def test_div_and_mod_by_zero_give_null(fn, a):
    assert apply_function(fn, [a, 0]) is None
    assert apply_function(fn, [a, Fraction(0)]) is None


def test_avg_is_int_when_integral():
    two = apply_aggregate("avg", [(2, 2)], 2)
    assert two == 2 and type(two) is int
    assert apply_aggregate("avg", [(2, 1), (2, 1)], 2) == 2
    half = apply_aggregate("avg", [(1, 1), (2, 1)], 2)
    assert half == Fraction(3, 2) and type(half) is Fraction
    assert type(apply_aggregate("avg", [(Fraction(1, 3), 1), (Fraction(5, 3), 1)], 2)) is int


def test_sum_min_max_and_counts_over_mixed_cells():
    cells = [(1, 2), (Fraction(1, 3), 3), (-2, 1), (Fraction(-5, 2), 1)]
    total = apply_aggregate("sum", cells, 9)
    assert total == Fraction(-3, 2) and is_canonical(total)
    assert apply_aggregate("sum", [(Fraction(1, 3), 3), (2, 1)], 4) == 3
    assert type(apply_aggregate("sum", [(Fraction(1, 3), 3), (2, 1)], 4)) is int
    assert apply_aggregate("min", cells, 9) == Fraction(-5, 2)
    assert apply_aggregate("max", cells, 9) == 1 and type(apply_aggregate("max", cells, 9)) is int
    assert apply_aggregate("count", cells, 9) == 7 and type(apply_aggregate("count", cells, 9)) is int
    assert apply_aggregate("count_star", cells, 9) == 9
    assert type(apply_aggregate("count_star", [], 4)) is int
    assert apply_aggregate("count", [], 4) == 0 and apply_aggregate("sum", [], 4) is None


def test_order_comparisons_between_int_and_fraction():
    for a, b in itertools.product(OPERANDS, repeat=2):
        fa, fb = Fraction(a), Fraction(b)
        for op, want in (("<", fa < fb), (">", fa > fb), ("<=", fa <= fb), (">=", fa >= fb),
                         ("=", fa == fb), ("!=", fa != fb)):
            assert standard_compare(op, a, b) == want, (op, a, b)
            assert standard_compare(op, fa, b) == want and standard_compare(op, a, fb) == want
    assert standard_compare("=", 1, Fraction(1)) and hash(1) == hash(Fraction(1))


@pytest.mark.parametrize("a, b", [("x", 1), (1, "x"), ("x", Fraction(1, 2)), ("a", "b")])
@pytest.mark.parametrize("op", ["<", ">", "<=", ">="])
def test_order_comparison_with_text_raises(op, a, b):
    with pytest.raises(KernelError):
        standard_compare(op, a, b)


def test_parse_cell_gives_canonical_numbers_and_rejects_bool_and_float():
    for raw, want in ((1, 1), ("1", 1), ("2/2", 1), ("1.0", 1), ("-0.25", Fraction(-1, 4)),
                      ("1/3", Fraction(1, 3)), (-4, -4), ("6/4", Fraction(3, 2))):
        got = parse_cell(raw, NUM)
        assert got == want and is_canonical(got), (raw, got)
    for bad in (True, False, 1.5, 1.0):
        with pytest.raises(SchemaError):
            parse_cell(bad, NUM)
