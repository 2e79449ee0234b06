"""Abstract syntax for algebra expressions, selection conditions and terms.

All nodes are immutable and hashable; structural equality is the equality
used by the snapshot tests.  The canonical text renderer here is the inverse
of `nullvl.parser.parse_expression`.

Each node class subclasses `nullvl.frozen.Frozen`, the package's one
record base: its fields are its annotations, and the base gives it
``__init__``, ``==``, ``hash``, ``repr`` and ``_fields`` when the class is
created.  Every command imports this module, and the base makes the 26
classes here in about 1.5 ms, where frozen dataclasses took 14-23 ms
besides the 7-10 ms of importing `dataclasses`.

A node kind's fields are spelled out here only: in its class, its
renderer and its entry in one table, `_STEPS`.  `steps` lists a node's
expression and condition children with their path steps: `/src`, `/l`,
`/r`, `/seed`, `/step`, `/cond` and `/q` (a source, an operand, a fixpoint
branch, a selection's condition, a subquery) and `.l`, `.r`, `.n` (a
connective's operands).  `map_children` rebuilds a node with each child
replaced by a function of the child and its path, and `condition_terms` /
`map_terms` read and rebuild a condition's own terms.  Generic walks and
rewrites go through them, so `analyze`, `expression_size`, the
translators' walk over expressions, the SQL lowerer's conditions and
template substitution have no case per node kind.  The paths of `analyze`
and `translate --trace` are strings of these steps.  `renamed` builds the
projection that renames an expression's columns.
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
# Traversal: a node's children, each with its path step, and its rebuild

# Each expression and condition kind with expression or condition children:
# its ``(step, child)`` pairs in field order, and its rebuild, a copy with
# each child replaced by ``f(child, path + step)``, called in step order.
# BaseRelation, CTrue, CFalse, IsNull and Compare have no such children and
# no entry.  A rebuild is one call that names the fields, as rebuilding from
# the pairs through `frozen.replace` slows every translation.
_STEPS = {
    Selection: (lambda n: (("/cond", n.cond), ("/src", n.source)),
                lambda n, f, p: Selection(f(n.cond, p + "/cond"), f(n.source, p + "/src"))),
    Projection: (lambda n: (("/src", n.source),),
                 lambda n, f, p: Projection(n.items, f(n.source, p + "/src"))),
    Distinct: (lambda n: (("/src", n.source),),
               lambda n, f, p: Distinct(f(n.source, p + "/src"))),
    Group: (lambda n: (("/src", n.source),),
            lambda n, f, p: Group(n.names, n.aggs, f(n.source, p + "/src"))),
    Product: (lambda n: (("/l", n.left), ("/r", n.right)),
              lambda n, f, p: Product(f(n.left, p + "/l"), f(n.right, p + "/r"))),
    SetOp: (lambda n: (("/l", n.left), ("/r", n.right)),
            lambda n, f, p: SetOp(n.op, f(n.left, p + "/l"), f(n.right, p + "/r"))),
    Mu: (lambda n: (("/seed", n.seed), ("/step", n.step)),
         lambda n, f, p: Mu(n.rel, n.distinct, f(n.seed, p + "/seed"), f(n.step, p + "/step"))),
    And: (lambda n: ((".l", n.left), (".r", n.right)),
          lambda n, f, p: And(f(n.left, p + ".l"), f(n.right, p + ".r"))),
    Or: (lambda n: ((".l", n.left), (".r", n.right)),
         lambda n, f, p: Or(f(n.left, p + ".l"), f(n.right, p + ".r"))),
    Not: (lambda n: ((".n", n.cond),),
          lambda n, f, p: Not(f(n.cond, p + ".n"))),
    In: (lambda n: (("/q", n.query),),
         lambda n, f, p: In(n.items, f(n.query, p + "/q"))),
    Empty: (lambda n: (("/q", n.query),),
            lambda n, f, p: Empty(f(n.query, p + "/q"))),
    Quant: (lambda n: (("/q", n.query),),
            lambda n, f, p: Quant(n.items, n.op, n.quant, f(n.query, p + "/q"))),
}


def steps(node) -> tuple:
    """``((step, child), ...)`` for the expression and condition children of
    an expression or condition node, in field order; ``()`` for any other
    node."""
    entry = _STEPS.get(type(node))
    return entry[0](node) if entry else ()


def map_children(node, f, path: str = ""):
    """``node`` with each expression and condition child replaced by
    ``f(child, path + step)``, called in step order; any other node as it
    is."""
    entry = _STEPS.get(type(node))
    return entry[1](node, f, path) if entry else node


# Each condition kind with terms: its terms in field order, and its rebuild
# with each term replaced by ``f(term)``, called in that order.
_TERMS = {
    IsNull: (lambda c: [c.term], lambda c, f: IsNull(f(c.term))),
    Compare: (lambda c: [*c.lhs, *c.rhs],
              lambda c, f: Compare(tuple(map(f, c.lhs)), c.op, tuple(map(f, c.rhs)))),
    In: (lambda c: list(c.items), lambda c, f: In(tuple(map(f, c.items)), c.query)),
    Quant: (lambda c: list(c.items),
            lambda c, f: Quant(tuple(map(f, c.items)), c.op, c.quant, c.query)),
}


def condition_terms(c: Condition) -> list[Term]:
    """The terms of a condition node, its subconditions' not included."""
    entry = _TERMS.get(type(c))
    return entry[0](c) if entry else []


def map_terms(c: Condition, f) -> Condition:
    """``c`` with each of its terms replaced by ``f(term)``, called in field
    order; its subconditions and subquery as they are."""
    entry = _TERMS.get(type(c))
    return entry[1](c, f) if entry else c


# ---------------------------------------------------------------------------
# Size of the parse tree, and the renaming projection

def expression_size(node) -> int:
    """Node count of the parse tree, terms and conditions included; each
    aggregate of a grouping counts as one node."""
    kind = type(node)
    if kind is FnApply:
        return 1 + sum(map(expression_size, node.args))
    # the tables are read here, not through `steps` and `condition_terms`:
    # every capture case of the harness sizes its input and translation
    size, children, terms = 1, _STEPS.get(kind), _TERMS.get(kind)
    if children:
        for _, child in children[0](node):
            size += expression_size(child)
    if terms:
        size += sum(map(expression_size, terms[0](node)))
    if kind is Projection:
        size += sum(expression_size(item.term) for item in node.items)
    elif kind is Group:
        size += len(node.aggs)
    return size


def renamed(expr: Expression, old_labels, new_labels) -> Projection:
    """``expr`` with its columns ``old_labels`` renamed to ``new_labels``,
    position by position."""
    return Projection(
        tuple(ProjItem(NameRef(old), new) for old, new in zip(old_labels, new_labels)), expr
    )


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
