"""Built-in numeric functions and aggregates over exact rationals."""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import EvalError


def apply_function(fn: str, args: list) -> Optional[Fraction]:
    """Apply a numeric function to non-null rational arguments.

    Division and modulo by zero yield NULL rather than raising.
    """
    if fn == "add":
        return args[0] + args[1]
    if fn == "sub":
        return args[0] - args[1]
    if fn == "mult":
        return args[0] * args[1]
    if fn == "div":
        if args[1] == 0:
            return None
        return args[0] / args[1]
    if fn == "mod":
        if args[1] == 0:
            return None
        a, b = args
        return a - b * math.floor(a / b)
    if fn == "neg":
        return -args[0]
    raise EvalError(f"unknown function {fn!r}")


def apply_aggregate(fn: str, cells: list, total_count: int) -> Optional[Fraction]:
    """Apply an aggregate to the null-stripped column values of one group.

    ``cells`` lists ``(value, multiplicity)`` pairs of non-null cells;
    ``total_count`` is the group size including records whose cell is NULL
    (used by count_star).  count over an empty column is 0; the other
    aggregates yield NULL.
    """
    if fn == "count_star":
        return Fraction(total_count)
    if fn == "count":
        return Fraction(sum(k for _, k in cells))
    if not cells:
        return None
    if fn == "sum":
        return _counted_sum(cells)
    if fn == "avg":
        return _counted_sum(cells) / sum(k for _, k in cells)
    if fn == "min":
        return min(v for v, _ in cells)
    if fn == "max":
        return max(v for v, _ in cells)
    raise EvalError(f"unknown aggregate {fn!r}")


def _counted_sum(cells: list) -> Fraction:
    return sum((v if k == 1 else v * k for v, k in cells), Fraction(0))
