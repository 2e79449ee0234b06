"""Built-in numeric functions and aggregates over exact rationals.

Results are canonical numbers (`values.exact_number`): `int` when integral,
`Fraction` otherwise.  Division goes through `Fraction`, so no `float`
ever appears.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import EvalError
from .values import Number, exact_number


def apply_function(fn: str, args: list) -> Optional[Number]:
    """Apply a numeric function to non-null rational arguments.

    Division and modulo by zero yield NULL rather than raising.
    """
    if fn == "add":
        return exact_number(args[0] + args[1])
    if fn == "sub":
        return exact_number(args[0] - args[1])
    if fn == "mult":
        return exact_number(args[0] * args[1])
    if fn == "div":
        if args[1] == 0:
            return None
        return exact_number(Fraction(args[0], args[1]))
    if fn == "mod":
        if args[1] == 0:
            return None
        # a - b * floor(a / b), the sign of the divisor, for int and Fraction alike
        return exact_number(args[0] % args[1])
    if fn == "neg":
        return -args[0]
    raise EvalError(f"unknown function {fn!r}")


def apply_aggregate(fn: str, cells: list, total_count: int) -> Optional[Number]:
    """Apply an aggregate to the null-stripped column values of one group.

    ``cells`` lists ``(value, multiplicity)`` pairs of non-null cells;
    ``total_count`` is the group size including records whose cell is NULL
    (used by count_star).  count over an empty column is 0; the other
    aggregates yield NULL.
    """
    if fn == "count_star":
        return total_count
    if fn == "count":
        return sum(k for _, k in cells)
    if not cells:
        return None
    if fn == "sum":
        return exact_number(_counted_sum(cells))
    if fn == "avg":
        return exact_number(Fraction(_counted_sum(cells), sum(k for _, k in cells)))
    if fn == "min":
        return min(v for v, _ in cells)
    if fn == "max":
        return max(v for v, _ in cells)
    raise EvalError(f"unknown aggregate {fn!r}")


def _counted_sum(cells: list) -> Number:
    return sum(v if k == 1 else v * k for v, k in cells)
