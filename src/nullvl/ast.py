"""Abstract syntax for algebra expressions, selection conditions and terms.

All nodes are immutable and hashable; structural equality is the equality
used by the snapshot tests.  The canonical text renderer here is the inverse
of `nullvl.parser.parse_expression`.

Each node class subclasses `nullvl.frozen.Frozen`: its fields are its
annotations, and the base gives it ``__init__``, ``==``, ``hash``, ``repr``
and ``_fields`` when the class is created.  The nodes are not dataclasses
because every command imports this module and a frozen dataclass compiles
generated source for each class: the 26 here cost 14-23 ms of a start-up
(0.5-0.9 ms each, Python 3.11) besides the 7-10 ms of importing
`dataclasses`, where the base takes under 1 ms for all of them.

`steps` lists a node's expression and condition children with their path
steps: `/src`, `/l`, `/r`, `/seed`, `/step`, `/cond` and `/q` (a source, an
operand, a fixpoint branch, a selection's condition, a subquery) and `.l`,
`.r`, `.n` (a connective's operands).  Generic walks go through it, and the
paths of `analyze` and `translate --trace` are strings of these steps.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .frozen import Frozen
from .values import Number, exact_number, format_number

COMPARISONS = ("=", "!=", "<", ">", "<=", ">=")
ORDER_COMPARISONS = ("<", ">", "<=", ">=")

NUMERIC_FUNCTIONS = ("add", "sub", "mult", "div", "mod", "neg")
AGGREGATES = ("count", "count_star", "sum", "avg", "min", "max")


# ---------------------------------------------------------------------------
# Terms


class NumConst(Frozen):
    value: Number


class OrdConst(Frozen):
    value: str


class NullConst(Frozen):
    pass


class NameRef(Frozen):
    name: str


class FnApply(Frozen):
    fn: str
    args: tuple["Term", ...]


class ArgHole(Frozen):
    """Placeholder inside condition templates; substituted before evaluation."""

    index: int  # 1-based


Term = Union[NumConst, OrdConst, NullConst, NameRef, FnApply, ArgHole]


def num(value) -> NumConst:
    return NumConst(exact_number(Fraction(value)))


def col(name: str) -> NameRef:
    return NameRef(name)


# ---------------------------------------------------------------------------
# Conditions


class CTrue(Frozen):
    pass


class CFalse(Frozen):
    pass


class IsNull(Frozen):
    term: Term


class Compare(Frozen):
    lhs: tuple[Term, ...]
    op: str
    rhs: tuple[Term, ...]


class In(Frozen):
    items: tuple[Term, ...]
    query: "Expression"


class Empty(Frozen):
    query: "Expression"


class Quant(Frozen):
    """ANY / ALL comparison against a subquery result."""

    items: tuple[Term, ...]
    op: str
    quant: str  # "any" | "all"
    query: "Expression"


class And(Frozen):
    left: "Condition"
    right: "Condition"


class Or(Frozen):
    left: "Condition"
    right: "Condition"


class Not(Frozen):
    cond: "Condition"


Condition = Union[CTrue, CFalse, IsNull, Compare, In, Empty, Quant, And, Or, Not]


def and_all(conds: list) -> Condition:
    if not conds:
        return CTrue()
    out = conds[0]
    for c in conds[1:]:
        out = And(out, c)
    return out


def or_all(conds: list) -> Condition:
    if not conds:
        return CFalse()
    out = conds[0]
    for c in conds[1:]:
        out = Or(out, c)
    return out


# ---------------------------------------------------------------------------
# Expressions


class BaseRelation(Frozen):
    name: str


class ProjItem(Frozen):
    term: Term
    rename: str | None = None


class Projection(Frozen):
    items: tuple[ProjItem, ...]
    source: "Expression"


class Selection(Frozen):
    cond: Condition
    source: "Expression"


class Product(Frozen):
    left: "Expression"
    right: "Expression"


class SetOp(Frozen):
    op: str  # "union" | "intersect" | "except" (ALL/bag semantics)
    left: "Expression"
    right: "Expression"


class Distinct(Frozen):
    source: "Expression"


class AggItem(Frozen):
    fn: str  # one of AGGREGATES
    column: str | None  # None only for count_star
    rename: str | None = None


class Group(Frozen):
    names: tuple[str, ...]
    aggs: tuple[AggItem, ...]
    source: "Expression"


class Mu(Frozen):
    """Fixpoint iteration over a fresh relation name.

    ``distinct`` selects the deduplicating iteration (single-copy union);
    otherwise multiplicities accumulate.  ``step`` may reference ``rel``,
    ``seed`` may not.
    """

    rel: str
    distinct: bool
    seed: "Expression"
    step: "Expression"


Expression = Union[
    BaseRelation, Projection, Selection, Product, SetOp, Distinct, Group, Mu
]


# ---------------------------------------------------------------------------
# Canonical term names (the one-to-one Name function)


def term_name(t: Term) -> str:
    if isinstance(t, NameRef):
        return t.name
    if isinstance(t, NumConst):
        return format_number(t.value)
    if isinstance(t, OrdConst):
        return f"'{t.value}'"
    if isinstance(t, NullConst):
        return "null"
    if isinstance(t, FnApply):
        return f"{t.fn}({','.join(term_name(a) for a in t.args)})"
    if isinstance(t, ArgHole):
        return f"?{t.index}"
    raise TypeError(f"not a term: {t!r}")


def agg_name(agg: AggItem) -> str:
    if agg.rename is not None:
        return agg.rename
    if agg.fn == "count_star":
        return "count(*)"
    return f"{agg.fn}({agg.column})"


def proj_item_name(item: ProjItem) -> str:
    return item.rename if item.rename is not None else term_name(item.term)


# ---------------------------------------------------------------------------
# Size of the parse tree

def expression_size(node) -> int:
    """Node count of the parse tree, terms and conditions included."""
    if isinstance(node, (NumConst, OrdConst, NullConst, NameRef, ArgHole)):
        return 1
    if isinstance(node, FnApply):
        return 1 + sum(expression_size(a) for a in node.args)
    if isinstance(node, (CTrue, CFalse)):
        return 1
    if isinstance(node, IsNull):
        return 1 + expression_size(node.term)
    if isinstance(node, Compare):
        return 1 + sum(expression_size(t) for t in node.lhs + node.rhs)
    if isinstance(node, In):
        return 1 + sum(expression_size(t) for t in node.items) + expression_size(node.query)
    if isinstance(node, Empty):
        return 1 + expression_size(node.query)
    if isinstance(node, Quant):
        return 1 + sum(expression_size(t) for t in node.items) + expression_size(node.query)
    if isinstance(node, (And, Or)):
        return 1 + expression_size(node.left) + expression_size(node.right)
    if isinstance(node, Not):
        return 1 + expression_size(node.cond)
    if isinstance(node, BaseRelation):
        return 1
    if isinstance(node, Projection):
        return 1 + sum(expression_size(i.term) for i in node.items) + expression_size(node.source)
    if isinstance(node, Selection):
        return 1 + expression_size(node.cond) + expression_size(node.source)
    if isinstance(node, (Product, SetOp)):
        return 1 + expression_size(node.left) + expression_size(node.right)
    if isinstance(node, Distinct):
        return 1 + expression_size(node.source)
    if isinstance(node, Group):
        return 1 + len(node.aggs) + expression_size(node.source)
    if isinstance(node, Mu):
        return 1 + expression_size(node.seed) + expression_size(node.step)
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Tuple comparisons spelled out as Boolean combinations


def expand_tuple_comparison(lhs: tuple, op: str, rhs: tuple) -> Condition:
    """Expand a tuple comparison into atomic comparisons.

    Equality is the conjunction of position-wise equalities, inequality the
    disjunction of position-wise inequalities.  Order comparisons expand
    position by position: a disjunct per index, each a prefix of equalities
    conjoined with the comparison at the following position.
    """
    if len(lhs) != len(rhs):
        raise ValueError(f"tuple length mismatch: {len(lhs)} vs {len(rhs)}")
    if op not in COMPARISONS:
        raise ValueError(f"unknown comparison {op!r}")
    n = len(lhs)
    if n == 0:
        raise ValueError("empty tuple comparison")
    if n == 1:
        return Compare((lhs[0],), op, (rhs[0],))
    if op == "=":
        return and_all([Compare((l,), "=", (r,)) for l, r in zip(lhs, rhs)])
    if op == "!=":
        return or_all([Compare((l,), "!=", (r,)) for l, r in zip(lhs, rhs)])
    disjuncts = []
    for i in range(n):
        prefix = [Compare((lhs[j],), "=", (rhs[j],)) for j in range(i)]
        disjuncts.append(and_all(prefix + [Compare((lhs[i],), op, (rhs[i],))]))
    return or_all(disjuncts)


# ---------------------------------------------------------------------------
# Canonical text rendering (inverse of the parser)

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.$]*\Z|[-+]?[0-9][0-9./]*\Z")


def _name_text(name: str) -> str:
    if _SYMBOL_RE.match(name) and not name.startswith(("+", "-")):
        return name
    return _quote(name)


def _quote(text: str) -> str:
    # a string may not hold a raw newline; the parser reads `\n` as one
    body = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{body}"'


def render_term(t: Term) -> str:
    if isinstance(t, NameRef):
        return f"(col {_name_text(t.name)})"
    if isinstance(t, NumConst):
        return f"(num {format_number(t.value)})"
    if isinstance(t, OrdConst):
        return f"(ord {_quote(t.value)})"
    if isinstance(t, NullConst):
        return "(null)"
    if isinstance(t, FnApply):
        args = " ".join(render_term(a) for a in t.args)
        return f"(fn {t.fn} {args})"
    if isinstance(t, ArgHole):
        return f"(arg {t.index})"
    raise TypeError(f"not a term: {t!r}")


def _render_tuple(items: tuple[Term, ...]) -> str:
    if len(items) == 1:
        return render_term(items[0])
    return "(tuple " + " ".join(render_term(t) for t in items) + ")"


def render_condition(c: Condition) -> str:
    if isinstance(c, CTrue):
        return "(true)"
    if isinstance(c, CFalse):
        return "(false)"
    if isinstance(c, IsNull):
        return f"(isnull {render_term(c.term)})"
    if isinstance(c, Compare):
        return f"(cmp {c.op} {_render_tuple(c.lhs)} {_render_tuple(c.rhs)})"
    if isinstance(c, In):
        return f"(in {_render_tuple(c.items)} {render_expression(c.query)})"
    if isinstance(c, Empty):
        return f"(empty {render_expression(c.query)})"
    if isinstance(c, Quant):
        return (
            f"({c.quant} {c.op} {_render_tuple(c.items)} {render_expression(c.query)})"
        )
    if isinstance(c, And):
        return f"(and {render_condition(c.left)} {render_condition(c.right)})"
    if isinstance(c, Or):
        return f"(or {render_condition(c.left)} {render_condition(c.right)})"
    if isinstance(c, Not):
        return f"(not {render_condition(c.cond)})"
    raise TypeError(f"not a condition: {c!r}")


def _render_agg(agg: AggItem) -> str:
    if agg.fn == "count_star":
        body = "(count-star)"
    else:
        body = f"({agg.fn} {_name_text(agg.column)})"
    if agg.rename is not None:
        return f"(as {_name_text(agg.rename)} {body})"
    return body


def render_expression(e: Expression) -> str:
    if isinstance(e, BaseRelation):
        return f"(base {_name_text(e.name)})"
    if isinstance(e, Projection):
        items = []
        for it in e.items:
            if it.rename is not None:
                items.append(f"(as {_name_text(it.rename)} {render_term(it.term)})")
            else:
                items.append(render_term(it.term))
        return f"(project ({' '.join(items)}) {render_expression(e.source)})"
    if isinstance(e, Selection):
        return f"(select {render_condition(e.cond)} {render_expression(e.source)})"
    if isinstance(e, Product):
        return f"(product {render_expression(e.left)} {render_expression(e.right)})"
    if isinstance(e, SetOp):
        kw = {"union": "union-all", "intersect": "intersect-all", "except": "except-all"}[e.op]
        return f"({kw} {render_expression(e.left)} {render_expression(e.right)})"
    if isinstance(e, Distinct):
        return f"(distinct {render_expression(e.source)})"
    if isinstance(e, Group):
        names = " ".join(_name_text(n) for n in e.names)
        aggs = " ".join(_render_agg(a) for a in e.aggs)
        return f"(group ({names}) ({aggs}) {render_expression(e.source)})"
    if isinstance(e, Mu):
        kind = "union" if e.distinct else "union-all"
        return (
            f"(mu {_name_text(e.rel)} {kind} "
            f"{render_expression(e.seed)} {render_expression(e.step)})"
        )
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Traversal: a node's children, each with its path step

_STEPS = {
    Selection: lambda n: (("/cond", n.cond), ("/src", n.source)),
    Projection: lambda n: (("/src", n.source),),
    Distinct: lambda n: (("/src", n.source),),
    Group: lambda n: (("/src", n.source),),
    Product: lambda n: (("/l", n.left), ("/r", n.right)),
    SetOp: lambda n: (("/l", n.left), ("/r", n.right)),
    Mu: lambda n: (("/seed", n.seed), ("/step", n.step)),
    And: lambda n: ((".l", n.left), (".r", n.right)),
    Or: lambda n: ((".l", n.left), (".r", n.right)),
    Not: lambda n: ((".n", n.cond),),
    In: lambda n: (("/q", n.query),),
    Empty: lambda n: (("/q", n.query),),
    Quant: lambda n: (("/q", n.query),),
}


def steps(node) -> tuple:
    """``((step, child), ...)`` for the expression and condition children of
    an expression or condition node, in field order; ``()`` for any other
    node."""
    children = _STEPS.get(type(node))
    return children(node) if children else ()


def condition_terms(c: Condition) -> list[Term]:
    if isinstance(c, IsNull):
        return [c.term]
    if isinstance(c, Compare):
        return list(c.lhs + c.rhs)
    if isinstance(c, (In, Quant)):
        return list(c.items)
    return []


def term_names(t: Term) -> set[str]:
    if isinstance(t, NameRef):
        return {t.name}
    if isinstance(t, FnApply):
        out: set[str] = set()
        for a in t.args:
            out |= term_names(a)
        return out
    return set()


def term_contains_null(t: Term) -> bool:
    if isinstance(t, NullConst):
        return True
    if isinstance(t, FnApply):
        return any(term_contains_null(a) for a in t.args)
    return False


def term_can_yield_null(t: Term, nullable_names: set[str]) -> bool:
    """Whether the term can evaluate to NULL given possibly-null names.

    div/mod count as null sources because division by zero yields NULL.
    """
    if isinstance(t, NullConst):
        return True
    if isinstance(t, NameRef):
        return t.name in nullable_names
    if isinstance(t, FnApply):
        if t.fn in ("div", "mod"):
            return True
        return any(term_can_yield_null(a, nullable_names) for a in t.args)
    return False


def expression_references(node, rel: str) -> bool:
    """Whether an expression or condition mentions a base relation by name,
    anywhere, subqueries included."""
    if isinstance(node, BaseRelation):
        return node.name == rel
    if isinstance(node, Mu) and node.rel == rel:
        # inner binding shadows; the seed still lives in the outer scope
        return expression_references(node.seed, rel)
    for _, child in steps(node):
        if expression_references(child, rel):
            return True
    return False
