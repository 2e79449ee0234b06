"""SQL subset frontend: parse, lower to the algebra, and print back.

Supported: SELECT [DISTINCT] ... FROM ... [WHERE] [GROUP BY] [HAVING],
IN / EXISTS / ANY / ALL subqueries, comparison with an aggregate subquery,
UNION / INTERSECT / EXCEPT with optional ALL, and WITH RECURSIVE.  Anything
else is rejected with a named-feature diagnostic.  The printer emits a
generic dialect that this parser reads back; round-tripping an expression
through emit and lower preserves its evaluation result.

The text is read as token strings from one `findall`, layout and `--`
comments skipped, and a token's first character gives its kind: `'` a
string, `"` a quoted name, a digit a number, a letter or `_` a word (in
lower case when it spells a keyword, in any case), anything else an
operator, and the empty string the end of input.  Faults come in this
order: a stray character anywhere (one that starts no token, or a quote
that no closing quote follows), then parse faults from the left, each at
its token's line and column, then lowering faults, without a position.  A
parse fault names its token's index, and the text is scanned again for
that token's line and column only as the fault leaves `parse_sql`.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from . import ast
from .errors import SqlEmitError, SqlParseError, UnsupportedSqlError
from .parser import _Fault
from .typecheck import _labels
from .values import Number, Schema, parse_number

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "as",
    "and", "or", "not", "in", "exists", "any", "all", "some", "is", "null",
    "union", "intersect", "except", "with", "recursive", "true", "false",
    "count", "sum", "avg", "min", "max",
}
_UNSUPPORTED_KEYWORDS = {
    "join": "JOIN syntax (list relations in FROM instead)",
    "left": "outer joins",
    "right": "outer joins",
    "full": "outer joins",
    "outer": "outer joins",
    "cross": "JOIN syntax (list relations in FROM instead)",
    "inner": "JOIN syntax (list relations in FROM instead)",
    "on": "JOIN syntax (list relations in FROM instead)",
    "order": "ORDER BY",
    "limit": "LIMIT",
    "offset": "OFFSET",
    "over": "window functions",
    "window": "window functions",
    "case": "CASE expressions",
    "between": "BETWEEN (spell out the two comparisons)",
    "like": "LIKE patterns",
    "cast": "CAST",
}

_AGG_FNS = ("count", "sum", "avg", "min", "max")
# a keyword's token, by its lower-case spelling
_WORDS = {word: word for word in (*_KEYWORDS, *_UNSUPPORTED_KEYWORDS)}
_WORD_START = frozenset(string.ascii_letters + "_")
_DIGITS = frozenset(string.digits)
_OPERATORS = frozenset(["<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "*", "+", "-", "/", "%"])
_COMPARISONS = ("=", "!=", "<>", "<", ">", "<=", ">=")

# One match reads the layout and `--` comments before a token, then the
# token (group 1): a number, a quoted name, a string, a word or an operator.
# A character that starts none of them takes the rest of the text with it,
# so a text holds a stray character exactly when the last token before the
# end is such a rest.  At the end of the text the token is the empty string.
# Digits and layout are ASCII only.
_TOKENS = re.compile(
    r"""\s*(?:--[^\n]*\s*)*(\d+(?:\.\d+)?|"(?:[^"]|"")*"|'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_$]*"""
    r"|<=|>=|<>|!=|[=<>(),.*+\-/%]|\S[\s\S]*|\Z)",
    re.ASCII,
)


def _is_stray(tok: str) -> bool:
    """Whether ``tok`` starts with a character that starts no token: a
    quote that no closing quote follows, or a character of no token."""
    first = tok[:1]
    if first in ("'", '"'):
        return tok.count(first) == 1
    return bool(first) and not (first in _WORD_START or first in _DIGITS or tok in _OPERATORS)


def _name(tok: str) -> str:
    """The name that a word or a quoted name token spells."""
    return tok[1:-1].replace('""', '"') if tok[0] == '"' else tok


# ---------------------------------------------------------------------------
# Frontend syntax tree


@dataclass(frozen=True)
class SCol:
    qualifier: Optional[str]
    name: str


@dataclass(frozen=True)
class SNum:
    value: Number


@dataclass(frozen=True)
class SStr:
    value: str


@dataclass(frozen=True)
class SNull:
    pass


@dataclass(frozen=True)
class SBin:
    op: str  # + - * / %
    left: "SExpr"
    right: "SExpr"


@dataclass(frozen=True)
class SNeg:
    arg: "SExpr"


@dataclass(frozen=True)
class SAgg:
    fn: str  # count/sum/avg/min/max; fn=="count" and star selects count(*)
    star: bool
    arg: Optional["SExpr"]


SExpr = object


@dataclass(frozen=True)
class CTruth:
    value: bool


@dataclass(frozen=True)
class CCmp:
    lhs: tuple
    op: str
    rhs: tuple


@dataclass(frozen=True)
class CCmpQuery:
    lhs: tuple
    op: str
    quant: str  # "any" | "all" | "scalar"
    query: "SQuery"


@dataclass(frozen=True)
class CIn:
    lhs: tuple
    query: "SQuery"
    negated: bool


@dataclass(frozen=True)
class CExists:
    query: "SQuery"
    negated: bool


@dataclass(frozen=True)
class CIsNull:
    arg: SExpr
    negated: bool


@dataclass(frozen=True)
class CAnd:
    left: "SCond"
    right: "SCond"


@dataclass(frozen=True)
class COr:
    left: "SCond"
    right: "SCond"


@dataclass(frozen=True)
class CNot:
    cond: "SCond"


SCond = object


@dataclass(frozen=True)
class SelectItem:
    expr: SExpr
    alias: Optional[str]


@dataclass(frozen=True)
class FromItem:
    source: object  # str (relation name) or SQuery
    alias: str


@dataclass(frozen=True)
class SelectCore:
    distinct: bool
    items: Optional[tuple[SelectItem, ...]]  # None means '*'
    from_items: tuple[FromItem, ...]
    where: Optional[SCond]
    group_by: tuple[SCol, ...]
    having: Optional[SCond]


@dataclass(frozen=True)
class SetExpr:
    op: str  # union | intersect | except
    all: bool
    left: "SQuery"
    right: "SQuery"


@dataclass(frozen=True)
class WithRecursive:
    name: str
    columns: Optional[tuple[str, ...]]
    seed: "SQuery"
    step: "SQuery"
    distinct: bool  # UNION vs UNION ALL between seed and step
    body: "SQuery"


SQuery = object


# ---------------------------------------------------------------------------
# Parser


class _SqlParser:
    """Recursive descent over token strings, keywords in lower case.  A
    fault is raised at the index of the current token."""

    def __init__(self, toks: list):
        self.toks = toks
        self.i = 0

    def tok(self, ahead=0) -> str:
        return self.toks[self.i + ahead]

    def fault(self, message: str) -> _Fault:
        return _Fault(message, self.i)

    def next(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at(self, *texts) -> bool:
        return self.toks[self.i] in texts

    def eat(self, text) -> bool:
        if self.toks[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text):
        if not self.eat(text):
            raise self.fault(f"expected {text.upper() if text.isalpha() else repr(text)}")

    def at_name(self) -> bool:
        tok = self.toks[self.i]
        return tok[:1] == '"' or tok[:1] in _WORD_START and tok not in _WORDS

    def _check_unsupported(self):
        tok = self.toks[self.i]
        if tok in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedSqlError(f"unsupported feature: {_UNSUPPORTED_KEYWORDS[tok]}")

    # -- entry ---------------------------------------------------------------

    def parse(self) -> SQuery:
        q = self.query()
        if self.tok():
            self._check_unsupported()
            raise self.fault("trailing input after query")
        return q

    def query(self) -> SQuery:
        if self.eat("with"):
            return self.with_recursive()
        return self.set_expr()

    def with_recursive(self) -> SQuery:
        if not self.eat("recursive"):
            raise UnsupportedSqlError(
                "unsupported feature: non-recursive WITH (only WITH RECURSIVE is supported)"
            )
        name = self.identifier("recursive relation name")
        columns = None
        if self.eat("("):
            cols = [self.identifier("column name")]
            while self.eat(","):
                cols.append(self.identifier("column name"))
            self.expect(")")
            columns = tuple(cols)
        self.expect("as")
        self.expect("(")
        seed = self.set_operand()
        if not self.eat("union"):
            raise self.fault("recursive definition needs UNION or UNION ALL")
        distinct = not self.eat("all")
        step = self.set_operand()
        self.expect(")")
        if self.eat(","):
            raise UnsupportedSqlError("unsupported feature: multiple WITH clauses")
        body = self.query()
        return WithRecursive(name, columns, seed, step, distinct, body)

    def set_expr(self) -> SQuery:
        left = self.intersect_expr()
        while self.at("union", "except"):
            op = self.next()
            all_ = self.eat("all")
            right = self.intersect_expr()
            left = SetExpr(op, all_, left, right)
        return left

    def intersect_expr(self) -> SQuery:
        left = self.set_operand()
        while self.eat("intersect"):
            all_ = self.eat("all")
            right = self.set_operand()
            left = SetExpr("intersect", all_, left, right)
        return left

    def set_operand(self) -> SQuery:
        if self.at("(") and self.tok(1) in ("select", "with", "("):
            self.next()
            inner = self.query()
            self.expect(")")
            return inner
        return self.select_core()

    def identifier(self, what: str) -> str:
        if not self.at_name():
            raise self.fault(f"expected {what}")
        return _name(self.next())

    # -- select core -----------------------------------------------------------

    def select_core(self) -> SelectCore:
        self._check_unsupported()
        self.expect("select")
        distinct = self.eat("distinct")
        items: Optional[tuple[SelectItem, ...]]
        if self.eat("*"):
            items = None
        else:
            parsed = [self.select_item()]
            while self.eat(","):
                parsed.append(self.select_item())
            items = tuple(parsed)
        self.expect("from")
        from_items = [self.from_item()]
        while self.eat(","):
            from_items.append(self.from_item())
        self._check_unsupported()
        where = None
        if self.eat("where"):
            where = self.condition()
        group_by: tuple[SCol, ...] = ()
        if self.eat("group"):
            self.expect("by")
            cols = [self.column_ref()]
            while self.eat(","):
                cols.append(self.column_ref())
            group_by = tuple(cols)
        having = None
        if self.eat("having"):
            having = self.condition()
        self._check_unsupported()
        return SelectCore(distinct, items, tuple(from_items), where, group_by, having)

    def select_item(self) -> SelectItem:
        if self.at("(") and self.tok(1) in ("select", "with"):
            raise UnsupportedSqlError("unsupported feature: scalar subqueries in SELECT")
        expr = self.expression()
        alias = None
        if self.eat("as") or self.at_name():
            alias = self.identifier("output name")
        return SelectItem(expr, alias)

    def from_item(self) -> FromItem:
        if self.eat("("):
            sub = self.query()
            self.expect(")")
            self.eat("as")
            alias = self.identifier("derived table alias")
            return FromItem(sub, alias)
        name = self.identifier("relation name")
        self._check_unsupported()
        alias = name
        if self.eat("as") or self.at_name():
            alias = self.identifier("alias")
        self._check_unsupported()
        return FromItem(name, alias)

    def column_ref(self) -> SCol:
        first = self.identifier("column name")
        if self.eat("."):
            return SCol(first, self.identifier("column name"))
        return SCol(None, first)

    # -- scalar expressions ------------------------------------------------------

    def expression(self) -> SExpr:
        left = self.mul_expr()
        while self.at("+", "-"):
            op = self.next()
            left = SBin(op, left, self.mul_expr())
        return left

    def mul_expr(self) -> SExpr:
        left = self.unary_expr()
        while self.at("*", "/", "%"):
            op = self.next()
            left = SBin(op, left, self.unary_expr())
        return left

    def unary_expr(self) -> SExpr:
        if self.eat("-"):
            return SNeg(self.unary_expr())
        if self.eat("+"):
            return self.unary_expr()
        return self.atom_expr()

    def atom_expr(self) -> SExpr:
        tok = self.tok()
        if tok[:1] in _DIGITS:
            try:
                value = parse_number(tok)
            except ValueError as exc:
                raise self.fault(str(exc)) from None
            self.i += 1
            return SNum(value)
        if tok[:1] == "'":
            self.i += 1
            return SStr(tok[1:-1].replace("''", "'"))
        if self.eat("null"):
            return SNull()
        if tok in _AGG_FNS:
            self.i += 1
            self.expect("(")
            if self.at("distinct"):
                raise UnsupportedSqlError("unsupported feature: DISTINCT inside an aggregate")
            if tok == "count" and self.eat("*"):
                self.expect(")")
                call = SAgg("count", True, None)
            else:
                arg = self.expression()
                self.expect(")")
                call = SAgg(tok, False, arg)
            if self.at("over"):
                raise UnsupportedSqlError(f"unsupported feature: {_UNSUPPORTED_KEYWORDS['over']}")
            return call
        if self.at_name():
            if self.tok(1) == "(":
                raise UnsupportedSqlError(
                    f"unsupported feature: function call {_name(tok)!r} "
                    "(only +,-,*,/,% arithmetic and the standard aggregates)"
                )
            return self.column_ref()
        if self.eat("("):
            inner = self.expression()
            self.expect(")")
            return inner
        self._check_unsupported()
        raise self.fault("expected an expression")

    # -- conditions -----------------------------------------------------------

    def condition(self) -> SCond:
        left = self.and_cond()
        while self.eat("or"):
            left = COr(left, self.and_cond())
        return left

    def and_cond(self) -> SCond:
        left = self.not_cond()
        while self.eat("and"):
            left = CAnd(left, self.not_cond())
        return left

    def not_cond(self) -> SCond:
        if self.eat("not"):
            if self.eat("exists"):
                return CExists(self.subquery(), negated=True)
            return CNot(self.not_cond())
        return self.primary_cond()

    def subquery(self) -> SQuery:
        self.expect("(")
        q = self.query()
        self.expect(")")
        return q

    def primary_cond(self) -> SCond:
        if self.eat("true"):
            return CTruth(True)
        if self.eat("false"):
            return CTruth(False)
        if self.eat("exists"):
            return CExists(self.subquery(), negated=False)
        if self.at("("):
            save = self.i
            self.next()
            try:
                inner = self.condition()
                self.expect(")")
            except (_Fault, UnsupportedSqlError):
                self.i = save
            else:
                if not self.at(*_COMPARISONS, ",", "is", "in"):
                    return inner
                self.i = save
        row = self.row_or_expr()
        return self.postfix_cond(row)

    def row_or_expr(self) -> tuple:
        if self.at("("):
            save = self.i
            self.next()
            first = self.expression()
            if self.eat(","):
                items = [first, self.expression()]
                while self.eat(","):
                    items.append(self.expression())
                self.expect(")")
                return tuple(items)
            self.i = save
        return (self.expression(),)

    def postfix_cond(self, row: tuple) -> SCond:
        if self.eat("is"):
            negated = self.eat("not")
            self.expect("null")
            if len(row) != 1:
                raise self.fault("IS NULL applies to a single value")
            return CIsNull(row[0], negated)
        negated = self.eat("not")
        if negated and not self.at("in"):
            raise self.fault("expected IN after NOT")
        if self.eat("in"):
            return CIn(row, self.subquery(), negated)
        if self.at(*_COMPARISONS):
            op = self.next()
            op = "!=" if op == "<>" else op
            if self.at("any", "some", "all"):
                quant = "all" if self.next() == "all" else "any"
                return CCmpQuery(row, op, quant, self.subquery())
            if self.at("(") and self.tok(1) in ("select", "with"):
                return CCmpQuery(row, op, "scalar", self.subquery())
            rhs = self.row_or_expr()
            if len(rhs) != len(row):
                raise self.fault(f"comparison arity mismatch: {len(row)} vs {len(rhs)}")
            return CCmp(row, op, rhs)
        self._check_unsupported()
        raise self.fault("expected a comparison, IN, IS NULL or EXISTS")


def parse_sql(text: str) -> SQuery:
    """The syntax tree of one statement; `lower_to_algebra` lowers it.  A
    fault is located in the text only here, as it leaves."""
    toks = _TOKENS.findall(text)
    try:
        if len(toks) > 1 and _is_stray(toks[-2]):
            raise _Fault(f"unexpected character {toks[-2][0]!r}", len(toks) - 2)
        return _SqlParser([_WORDS.get(tok.lower(), tok) for tok in toks]).parse()
    except _Fault as fault:
        start = next(islice(_TOKENS.finditer(text), fault.index, None)).start(1)
        line = text.count("\n", 0, start) + 1
        raise SqlParseError(fault.message, line, start - text.rfind("\n", 0, start)) from None


# ---------------------------------------------------------------------------
# Lowering to the algebra


def _base_name(label: str) -> str:
    return label.rsplit(".", 1)[-1]


@dataclass
class _Source:
    alias: str
    labels: tuple[str, ...]
    expr: ast.Expression


@dataclass
class _Scope:
    sources: list


class _Lowerer:
    def __init__(self, schema: Schema):
        self.schema = schema
        self.scopes: list[_Scope] = []
        # relation name -> labels, for the schema's relations and the
        # recursive relations in scope
        self.labels = {rel.name: rel.labels for rel in schema.relations.values()}
        # recursive relation name -> the fixpoint it stands for, None inside its step
        self.ctes: dict[str, Optional[ast.Expression]] = {}

    # -- resolution -----------------------------------------------------------

    def resolve(self, col: SCol) -> str:
        for scope in reversed(self.scopes):
            cands = []
            for src in scope.sources:
                if col.qualifier is not None and src.alias != col.qualifier:
                    continue
                for lbl in src.labels:
                    if col.qualifier is not None:
                        if lbl == f"{col.qualifier}.{col.name}" or _base_name(lbl) == col.name:
                            cands.append(lbl)
                    else:
                        if lbl == col.name or _base_name(lbl) == col.name:
                            cands.append(lbl)
            uniq = list(dict.fromkeys(cands))
            if len(uniq) == 1:
                return uniq[0]
            if len(uniq) > 1:
                ref = f"{col.qualifier}.{col.name}" if col.qualifier else col.name
                raise SqlParseError(f"ambiguous column reference {ref!r}")
        ref = f"{col.qualifier}.{col.name}" if col.qualifier else col.name
        raise SqlParseError(f"unresolved column reference {ref!r}")

    # -- FROM -----------------------------------------------------------------

    def _relation_source(self, name: str, alias: str) -> _Source:
        if name in self.ctes:
            bound = self.ctes[name]
            expr = bound if bound is not None else ast.BaseRelation(name)
            return _Source(alias, self.labels[name], expr)
        if name not in self.schema:
            raise SqlParseError(f"unknown relation {name!r}")
        rel = self.schema[name]
        return _Source(alias, rel.labels, ast.BaseRelation(name))

    def lower_from(self, items: tuple[FromItem, ...]) -> tuple[list[_Source], ast.Expression]:
        aliases = [fi.alias for fi in items]
        if len(set(aliases)) != len(aliases):
            raise SqlParseError(f"duplicate alias in FROM: {aliases}")
        sources = []
        for fi in items:
            if isinstance(fi.source, str):
                sources.append(self._relation_source(fi.source, fi.alias))
            else:
                sub = self.lower_query(fi.source)
                labels = _labels(sub, self.labels)
                sources.append(_Source(fi.alias, labels, sub))
        # rename any source whose labels collide with another source's
        all_labels: dict[str, int] = {}
        for src in sources:
            for lbl in src.labels:
                all_labels[lbl] = all_labels.get(lbl, 0) + 1
        renamed = []
        for src in sources:
            if any(all_labels[lbl] > 1 for lbl in src.labels):
                renamed.append(self._qualify(src))
            else:
                renamed.append(src)
        labels_flat = [lbl for src in renamed for lbl in src.labels]
        if len(set(labels_flat)) != len(labels_flat):
            raise SqlParseError(
                f"FROM items expose duplicate column names {sorted(labels_flat)}; "
                "alias the relations apart"
            )
        expr = renamed[0].expr
        for src in renamed[1:]:
            expr = ast.Product(expr, src.expr)
        return renamed, expr

    def _qualify(self, src: _Source) -> _Source:
        bases = [_base_name(lbl) for lbl in src.labels]
        if len(set(bases)) != len(bases):
            bases = list(src.labels)
        new_labels = tuple(f"{src.alias}.{b}" for b in bases)
        items = tuple(
            ast.ProjItem(ast.NameRef(old), new)
            for old, new in zip(src.labels, new_labels)
        )
        return _Source(src.alias, new_labels, ast.Projection(items, src.expr))

    # -- queries ----------------------------------------------------------------

    def lower_query(self, q: SQuery) -> ast.Expression:
        if isinstance(q, SelectCore):
            return self.lower_select(q)
        if isinstance(q, SetExpr):
            left = self.lower_query(q.left)
            right = self.lower_query(q.right)
            if q.all:
                return ast.SetOp(q.op, left, right)
            return ast.Distinct(
                ast.SetOp(q.op, ast.Distinct(left), ast.Distinct(right))
            )
        if isinstance(q, WithRecursive):
            return self.lower_with(q)
        raise SqlParseError(f"not a query node: {q!r}")

    def lower_with(self, q: WithRecursive) -> ast.Expression:
        if q.name in self.labels:
            raise SqlParseError(f"recursive relation {q.name!r} is not a fresh name")
        seed = self.lower_query(q.seed)
        labels = _labels(seed, self.labels)
        if q.columns is not None:
            if len(q.columns) != len(labels):
                raise SqlParseError(
                    f"WITH RECURSIVE {q.name}: {len(q.columns)} declared columns, "
                    f"seed produces {len(labels)}"
                )
            seed = ast.Projection(
                tuple(
                    ast.ProjItem(ast.NameRef(old), new)
                    for old, new in zip(labels, q.columns)
                ),
                seed,
            )
            labels = tuple(q.columns)
        self.labels[q.name] = labels
        self.ctes[q.name] = None  # step refers to the relation itself
        try:
            step = self.lower_query(q.step)
            mu = ast.Mu(q.name, q.distinct, seed, step)
            self.ctes[q.name] = mu  # the body sees the fixpoint
            return self.lower_query(q.body)
        finally:
            del self.ctes[q.name]
            del self.labels[q.name]

    # -- one SELECT core ---------------------------------------------------------

    def lower_select(self, core: SelectCore) -> ast.Expression:
        sources, expr = self.lower_from(core.from_items)
        scope = _Scope(sources)
        self.scopes.append(scope)
        try:
            if core.where is not None:
                expr = ast.Selection(self.lower_cond(core.where), expr)

            agg_calls: list[SAgg] = []
            if core.items is not None:
                for item in core.items:
                    _collect_aggs(item.expr, agg_calls)
            if core.having is not None:
                _collect_aggs_cond(core.having, agg_calls)

            agg_map: dict[SAgg, str] = {}
            if core.group_by or agg_calls:
                names = tuple(self.resolve(c) for c in core.group_by)
                agg_items = []
                for call in agg_calls:
                    if call in agg_map:
                        continue
                    item = self._lower_agg(call)
                    agg_map[call] = ast.agg_name(item)
                    agg_items.append(item)
                expr = ast.Group(names, tuple(agg_items), expr)
                group_labels = names + tuple(ast.agg_name(a) for a in agg_items)
                self.scopes[-1] = _Scope([_Source("", group_labels, expr)])
                if core.having is not None:
                    expr = ast.Selection(self.lower_cond(core.having, agg_map), expr)
            elif core.having is not None:
                raise UnsupportedSqlError(
                    "unsupported feature: HAVING without grouping or aggregation"
                )

            if core.items is not None:
                items = []
                for item in core.items:
                    term = self.lower_expr(item.expr, agg_map)
                    rename = item.alias
                    items.append(ast.ProjItem(term, rename))
                if not self._is_identity(items):
                    expr = ast.Projection(tuple(items), expr)
            # SELECT * keeps the source columns as they are
            if core.distinct:
                expr = ast.Distinct(expr)
            return expr
        finally:
            self.scopes.pop()

    def _is_identity(self, items) -> bool:
        labels = []
        for src in self.scopes[-1].sources:
            labels.extend(src.labels)
        if len(items) != len(labels):
            return False
        for item, lbl in zip(items, labels):
            if not isinstance(item.term, ast.NameRef) or item.term.name != lbl:
                return False
            if item.rename is not None and item.rename != lbl:
                return False
        return True

    def _lower_agg(self, call: SAgg) -> ast.AggItem:
        if call.star:
            return ast.AggItem("count_star", None, None)
        if not isinstance(call.arg, SCol):
            raise UnsupportedSqlError(
                "unsupported feature: aggregates over computed expressions "
                "(aggregate a plain column)"
            )
        return ast.AggItem(call.fn, self.resolve(call.arg), None)

    # -- scalar expressions ---------------------------------------------------------

    def lower_expr(self, e: SExpr, agg_map: Optional[dict] = None) -> ast.Term:
        if isinstance(e, SCol):
            return ast.NameRef(self.resolve(e))
        if isinstance(e, SNum):
            return ast.NumConst(e.value)
        if isinstance(e, SStr):
            return ast.OrdConst(e.value)
        if isinstance(e, SNull):
            return ast.NullConst()
        if isinstance(e, SNeg):
            return ast.FnApply("neg", (self.lower_expr(e.arg, agg_map),))
        if isinstance(e, SBin):
            fn = {"+": "add", "-": "sub", "*": "mult", "/": "div", "%": "mod"}[e.op]
            return ast.FnApply(
                fn, (self.lower_expr(e.left, agg_map), self.lower_expr(e.right, agg_map))
            )
        if isinstance(e, SAgg):
            if not agg_map or e not in agg_map:
                raise SqlParseError("aggregate used outside SELECT/HAVING of a grouped query")
            return ast.NameRef(agg_map[e])
        raise SqlParseError(f"not a scalar expression: {e!r}")

    # -- conditions --------------------------------------------------------------

    def lower_cond(self, c: SCond, agg_map: Optional[dict] = None) -> ast.Condition:
        if isinstance(c, CTruth):
            return ast.CTrue() if c.value else ast.CFalse()
        if isinstance(c, CAnd):
            return ast.And(self.lower_cond(c.left, agg_map), self.lower_cond(c.right, agg_map))
        if isinstance(c, COr):
            return ast.Or(self.lower_cond(c.left, agg_map), self.lower_cond(c.right, agg_map))
        if isinstance(c, CNot):
            return ast.Not(self.lower_cond(c.cond, agg_map))
        if isinstance(c, CIsNull):
            out: ast.Condition = ast.IsNull(self.lower_expr(c.arg, agg_map))
            return ast.Not(out) if c.negated else out
        if isinstance(c, CCmp):
            lhs = tuple(self.lower_expr(x, agg_map) for x in c.lhs)
            rhs = tuple(self.lower_expr(x, agg_map) for x in c.rhs)
            return ast.Compare(lhs, c.op, rhs)
        if isinstance(c, CIn):
            items = tuple(self.lower_expr(x, agg_map) for x in c.lhs)
            query = self.lower_query(c.query)
            cond: ast.Condition = ast.In(items, query)
            return ast.Not(cond) if c.negated else cond
        if isinstance(c, CExists):
            query = self.lower_query(c.query)
            return ast.Empty(query) if c.negated else ast.Not(ast.Empty(query))
        if isinstance(c, CCmpQuery):
            items = tuple(self.lower_expr(x, agg_map) for x in c.lhs)
            query = self.lower_query(c.query)
            quant = "all" if c.quant == "all" else "any"
            return ast.Quant(items, c.op, quant, query)
        raise SqlParseError(f"not a condition node: {c!r}")


def _collect_aggs(e: SExpr, out: list):
    if isinstance(e, SAgg):
        if e not in out:
            out.append(e)
        return
    if isinstance(e, SBin):
        _collect_aggs(e.left, out)
        _collect_aggs(e.right, out)
    elif isinstance(e, SNeg):
        _collect_aggs(e.arg, out)


def _collect_aggs_cond(c: SCond, out: list):
    if isinstance(c, (CAnd, COr)):
        _collect_aggs_cond(c.left, out)
        _collect_aggs_cond(c.right, out)
    elif isinstance(c, CNot):
        _collect_aggs_cond(c.cond, out)
    elif isinstance(c, CIsNull):
        _collect_aggs(c.arg, out)
    elif isinstance(c, CCmp):
        for x in c.lhs + c.rhs:
            _collect_aggs(x, out)
    elif isinstance(c, (CIn, CCmpQuery)):
        for x in c.lhs:
            _collect_aggs(x, out)


def lower_to_algebra(q: SQuery, schema: Schema) -> ast.Expression:
    """Resolve and lower a parsed statement to an algebra expression."""
    return _Lowerer(schema).lower_query(q)


# ---------------------------------------------------------------------------
# Printing the algebra back to SQL


def _qid(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _str_lit(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


class _SqlEmitter:
    def __init__(self):
        self._alias = 0

    def fresh_alias(self) -> str:
        self._alias += 1
        return f"_t{self._alias}"

    # -- terms ------------------------------------------------------------------

    def term(self, t: ast.Term, subst: Optional[dict] = None) -> str:
        if isinstance(t, ast.NameRef):
            if subst and t.name in subst:
                return subst[t.name]
            return _qid(t.name)
        if isinstance(t, ast.NumConst):
            v = t.value
            if v.denominator == 1:
                return str(v.numerator)
            return f"({v.numerator} / {v.denominator})"
        if isinstance(t, ast.OrdConst):
            return _str_lit(t.value)
        if isinstance(t, ast.NullConst):
            return "NULL"
        if isinstance(t, ast.FnApply):
            if t.fn == "neg":
                return f"(- {self.term(t.args[0], subst)})"
            op = {"add": "+", "sub": "-", "mult": "*", "div": "/", "mod": "%"}.get(t.fn)
            if op is None:
                raise SqlEmitError(f"function {t.fn!r} has no SQL spelling")
            return f"({self.term(t.args[0], subst)} {op} {self.term(t.args[1], subst)})"
        raise SqlEmitError(f"term {t!r} has no SQL spelling")

    def row(self, items: tuple, subst=None) -> str:
        if len(items) == 1:
            return self.term(items[0], subst)
        return "(" + ", ".join(self.term(t, subst) for t in items) + ")"

    # -- conditions ----------------------------------------------------------------

    def cond(self, c: ast.Condition, subst=None) -> str:
        if isinstance(c, ast.Or):
            return f"{self.cond(c.left, subst)} OR {self.cond(c.right, subst)}"
        return self.cond_and(c, subst)

    def cond_and(self, c, subst):
        if isinstance(c, ast.And):
            return f"{self.cond_and(c.left, subst)} AND {self.cond_and(c.right, subst)}"
        return self.cond_atom(c, subst)

    def cond_atom(self, c, subst) -> str:
        if isinstance(c, ast.CTrue):
            return "TRUE"
        if isinstance(c, ast.CFalse):
            return "FALSE"
        if isinstance(c, ast.IsNull):
            return f"{self.term(c.term, subst)} IS NULL"
        if isinstance(c, ast.Compare):
            op = "<>" if c.op == "!=" else c.op
            return f"{self.row(c.lhs, subst)} {op} {self.row(c.rhs, subst)}"
        if isinstance(c, ast.In):
            return f"{self.row(c.items, subst)} IN ({self.query(c.query)})"
        if isinstance(c, ast.Empty):
            return f"NOT EXISTS ({self.query(c.query)})"
        if isinstance(c, ast.Quant):
            op = "<>" if c.op == "!=" else c.op
            kw = "ANY" if c.quant == "any" else "ALL"
            return f"{self.row(c.items, subst)} {op} {kw} ({self.query(c.query)})"
        if isinstance(c, ast.Not):
            inner = c.cond
            if isinstance(inner, ast.IsNull):
                return f"{self.term(inner.term, subst)} IS NOT NULL"
            if isinstance(inner, ast.In):
                return f"{self.row(inner.items, subst)} NOT IN ({self.query(inner.query)})"
            if isinstance(inner, ast.Empty):
                return f"EXISTS ({self.query(inner.query)})"
            return f"NOT ({self.cond(inner, subst)})"
        if isinstance(c, (ast.And, ast.Or)):
            return f"({self.cond(c, subst)})"
        raise SqlEmitError(f"condition {c!r} has no SQL spelling")

    # -- FROM clauses -----------------------------------------------------------------

    def from_clause(self, e: ast.Expression) -> str:
        return ", ".join(self.from_leaf(x) for x in _flatten_product(e))

    def from_leaf(self, e: ast.Expression) -> str:
        if isinstance(e, ast.BaseRelation):
            return _qid(e.name)
        return f"({self.query(e)}) AS {_qid(self.fresh_alias())}"

    # -- queries -----------------------------------------------------------------------

    def query(self, e: ast.Expression) -> str:
        if isinstance(e, ast.Mu):
            seed = self.query(e.seed)
            step = self.query(e.step)
            union = "UNION" if e.distinct else "UNION ALL"
            return (
                f"WITH RECURSIVE {_qid(e.rel)} AS (({seed}) {union} ({step})) "
                f"SELECT * FROM {_qid(e.rel)}"
            )
        if isinstance(e, ast.SetOp):
            kw = {"union": "UNION ALL", "intersect": "INTERSECT ALL", "except": "EXCEPT ALL"}[e.op]
            return f"({self.query(e.left)}) {kw} ({self.query(e.right)})"
        if isinstance(e, ast.Distinct):
            inner = e.source
            if isinstance(inner, (ast.Projection, ast.Selection, ast.Product, ast.BaseRelation)) and not (
                isinstance(inner, ast.Selection) and isinstance(inner.source, ast.Group)
            ):
                return self._core(inner, distinct=True)
            return f"SELECT DISTINCT * FROM ({self.query(inner)}) AS {_qid(self.fresh_alias())}"
        return self._core(e, distinct=False)

    def _core(self, e: ast.Expression, distinct: bool) -> str:
        kw = "SELECT DISTINCT" if distinct else "SELECT"
        if isinstance(e, ast.Projection) and not isinstance(e.source, ast.Group) and not (
            isinstance(e.source, ast.Selection) and isinstance(e.source.source, ast.Group)
        ):
            items = ", ".join(
                f"{self.term(it.term)} AS {_qid(ast.proj_item_name(it))}" for it in e.items
            )
            src = e.source
            if isinstance(src, ast.Selection):
                return (
                    f"{kw} {items} FROM {self.from_clause(src.source)} "
                    f"WHERE {self.cond(src.cond)}"
                )
            return f"{kw} {items} FROM {self.from_clause(src)}"
        if isinstance(e, ast.Selection) and isinstance(e.source, ast.Group):
            if not _cond_has_subquery(e.cond):
                return self._group_core(e.source, having=e.cond, distinct=distinct)
            # subqueries cannot see the outer aggregates through HAVING;
            # filter the grouped result as a derived table instead
            return (
                f"{kw} * FROM ({self.query(e.source)}) AS {_qid(self.fresh_alias())} "
                f"WHERE {self.cond(e.cond)}"
            )
        if isinstance(e, ast.Group):
            return self._group_core(e, having=None, distinct=distinct)
        if isinstance(e, ast.Selection):
            return (
                f"{kw} * FROM {self.from_clause(e.source)} WHERE {self.cond(e.cond)}"
            )
        if isinstance(e, (ast.Product, ast.BaseRelation)):
            return f"{kw} * FROM {self.from_clause(e)}"
        if isinstance(e, (ast.Projection,)):
            # projection over a grouped source: render the group as a derived table
            items = ", ".join(
                f"{self.term(it.term)} AS {_qid(ast.proj_item_name(it))}" for it in e.items
            )
            return f"{kw} {items} FROM ({self.query(e.source)}) AS {_qid(self.fresh_alias())}"
        if isinstance(e, (ast.SetOp, ast.Mu, ast.Distinct)):
            return f"{kw} * FROM ({self.query(e)}) AS {_qid(self.fresh_alias())}"
        raise SqlEmitError(f"expression {e!r} has no SQL spelling")

    def _group_core(self, g: ast.Group, having, distinct: bool) -> str:
        kw = "SELECT DISTINCT" if distinct else "SELECT"
        parts = [_qid(n) for n in g.names]
        subst = {}
        for agg in g.aggs:
            call = self._agg_call(agg)
            label = ast.agg_name(agg)
            parts.append(f"{call} AS {_qid(label)}")
            subst[label] = call
        src = g.source
        where = ""
        if isinstance(src, ast.Selection):
            where = f" WHERE {self.cond(src.cond)}"
            src = src.source
        sql = f"{kw} {', '.join(parts)} FROM {self.from_clause(src)}{where}"
        if g.names:
            sql += " GROUP BY " + ", ".join(_qid(n) for n in g.names)
        if having is not None:
            sql += f" HAVING {self.cond(having, subst)}"
        return sql

    def _agg_call(self, agg: ast.AggItem) -> str:
        if agg.fn == "count_star":
            return "COUNT(*)"
        return f"{agg.fn.upper()}({_qid(agg.column)})"


def _flatten_product(e: ast.Expression) -> list[ast.Expression]:
    if isinstance(e, ast.Product):
        return _flatten_product(e.left) + _flatten_product(e.right)
    return [e]


def _cond_has_subquery(c: ast.Condition) -> bool:
    return any(step == "/q" or _cond_has_subquery(sub) for step, sub in ast.steps(c))


def emit_sql(e: ast.Expression) -> str:
    """Deterministic SQL text for an expression in frontend-expressible shape."""
    return _SqlEmitter().query(e)
