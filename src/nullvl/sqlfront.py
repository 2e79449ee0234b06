"""SQL subset frontend: parse, lower to the algebra, and print back.

Supported: SELECT [DISTINCT] ... FROM ... [WHERE] [GROUP BY] [HAVING],
IN / EXISTS / ANY / ALL subqueries, comparison with an aggregate subquery,
UNION / INTERSECT / EXCEPT with optional ALL, and WITH RECURSIVE.  Anything
else is rejected with a named-feature diagnostic.  The printer emits a
generic dialect that this parser reads back; round-tripping an expression
through emit and lower preserves its evaluation result.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import ast
from .errors import SqlEmitError, SqlParseError, UnsupportedSqlError
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


@dataclass(frozen=True)
class _Tok:
    kind: str  # kw, ident, qident, num, str, op, eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<num>\d+(\.\d+)?)
  | (?P<qident>"(?:[^"]|"")*")
  | (?P<str>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\.|\*|\+|-|/|%)
    """,
    re.VERBOSE,
)


def _tokenize_sql(text: str) -> list[_Tok]:
    toks = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SqlParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "ident":
                low = chunk.lower()
                if low in _KEYWORDS or low in _UNSUPPORTED_KEYWORDS:
                    toks.append(_Tok("kw", low, line, col))
                else:
                    toks.append(_Tok("ident", chunk, line, col))
            elif kind == "qident":
                toks.append(_Tok("ident", chunk[1:-1].replace('""', '"'), line, col))
            elif kind == "str":
                toks.append(_Tok("str", chunk[1:-1].replace("''", "'"), line, col))
            else:
                toks.append(_Tok(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


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


@dataclass
class SqlQuery:
    """A parsed statement; feed to `lower_to_algebra` to obtain the algebra."""

    source: str
    tree: SQuery


# ---------------------------------------------------------------------------
# Parser


class _SqlParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize_sql(text)
        self.i = 0

    def tok(self, ahead=0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def _error(self, message: str) -> SqlParseError:
        t = self.tok()
        return SqlParseError(message, t.line, t.col)

    def _unsupported(self, kw: str):
        raise UnsupportedSqlError(f"unsupported feature: {_UNSUPPORTED_KEYWORDS[kw]}")

    def next(self) -> _Tok:
        t = self.tok()
        self.i += 1
        return t

    def at_kw(self, *kws) -> bool:
        t = self.tok()
        return t.kind == "kw" and t.text in kws

    def eat_kw(self, kw) -> bool:
        if self.at_kw(kw):
            self.i += 1
            return True
        return False

    def expect_kw(self, kw):
        if not self.eat_kw(kw):
            raise self._error(f"expected {kw.upper()}")

    def at_op(self, *ops) -> bool:
        t = self.tok()
        return t.kind == "op" and t.text in ops

    def eat_op(self, op) -> bool:
        if self.at_op(op):
            self.i += 1
            return True
        return False

    def expect_op(self, op):
        if not self.eat_op(op):
            raise self._error(f"expected {op!r}")

    def _check_unsupported(self):
        t = self.tok()
        if t.kind == "kw" and t.text in _UNSUPPORTED_KEYWORDS:
            self._unsupported(t.text)

    # -- entry ---------------------------------------------------------------

    def parse(self) -> SQuery:
        q = self.query()
        if self.tok().kind != "eof":
            self._check_unsupported()
            raise self._error("trailing input after query")
        return q

    def query(self) -> SQuery:
        if self.at_kw("with"):
            return self.with_recursive()
        return self.set_expr()

    def with_recursive(self) -> SQuery:
        self.expect_kw("with")
        if not self.eat_kw("recursive"):
            raise UnsupportedSqlError(
                "unsupported feature: non-recursive WITH (only WITH RECURSIVE is supported)"
            )
        name = self.identifier("recursive relation name")
        columns = None
        if self.eat_op("("):
            cols = [self.identifier("column name")]
            while self.eat_op(","):
                cols.append(self.identifier("column name"))
            self.expect_op(")")
            columns = tuple(cols)
        self.expect_kw("as")
        self.expect_op("(")
        seed = self.set_operand()
        if not self.at_kw("union"):
            raise self._error("recursive definition needs UNION or UNION ALL")
        self.next()
        distinct = not self.eat_kw("all")
        step = self.set_operand()
        self.expect_op(")")
        if self.eat_op(","):
            raise UnsupportedSqlError("unsupported feature: multiple WITH clauses")
        body = self.query()
        return WithRecursive(name, columns, seed, step, distinct, body)

    def set_expr(self) -> SQuery:
        left = self.intersect_expr()
        while self.at_kw("union", "except"):
            op = self.next().text
            all_ = self.eat_kw("all")
            right = self.intersect_expr()
            left = SetExpr(op, all_, left, right)
        return left

    def intersect_expr(self) -> SQuery:
        left = self.set_operand()
        while self.at_kw("intersect"):
            self.next()
            all_ = self.eat_kw("all")
            right = self.set_operand()
            left = SetExpr("intersect", all_, left, right)
        return left

    def set_operand(self) -> SQuery:
        if self.at_op("("):
            save = self.i
            self.next()
            if self.at_kw("select", "with") or self.at_op("("):
                inner = self.query()
                self.expect_op(")")
                return inner
            self.i = save
        return self.select_core()

    def identifier(self, what: str) -> str:
        t = self.tok()
        if t.kind == "ident":
            self.i += 1
            return t.text
        raise self._error(f"expected {what}")

    # -- select core -----------------------------------------------------------

    def select_core(self) -> SelectCore:
        self._check_unsupported()
        self.expect_kw("select")
        distinct = self.eat_kw("distinct")
        items: Optional[tuple[SelectItem, ...]]
        if self.eat_op("*"):
            items = None
        else:
            parsed = [self.select_item()]
            while self.eat_op(","):
                parsed.append(self.select_item())
            items = tuple(parsed)
        self.expect_kw("from")
        from_items = [self.from_item()]
        while self.eat_op(","):
            from_items.append(self.from_item())
        self._check_unsupported()
        where = None
        if self.eat_kw("where"):
            where = self.condition()
        group_by: tuple[SCol, ...] = ()
        if self.at_kw("group"):
            self.next()
            self.expect_kw("by")
            cols = [self.column_ref()]
            while self.eat_op(","):
                cols.append(self.column_ref())
            group_by = tuple(cols)
        having = None
        if self.eat_kw("having"):
            having = self.condition()
        self._check_unsupported()
        return SelectCore(distinct, items, tuple(from_items), where, group_by, having)

    def select_item(self) -> SelectItem:
        if self.at_op("("):
            save = self.i
            self.next()
            if self.at_kw("select", "with"):
                raise UnsupportedSqlError(
                    "unsupported feature: scalar subqueries in SELECT"
                )
            self.i = save
        expr = self.expression()
        alias = None
        if self.eat_kw("as"):
            alias = self.identifier("output name")
        elif self.tok().kind == "ident":
            alias = self.next().text
        return SelectItem(expr, alias)

    def from_item(self) -> FromItem:
        if self.eat_op("("):
            sub = self.query()
            self.expect_op(")")
            self.eat_kw("as")
            alias = self.identifier("derived table alias")
            return FromItem(sub, alias)
        name = self.identifier("relation name")
        self._check_unsupported()
        alias = name
        if self.eat_kw("as"):
            alias = self.identifier("alias")
        elif self.tok().kind == "ident":
            alias = self.next().text
        self._check_unsupported()
        return FromItem(name, alias)

    def column_ref(self) -> SCol:
        first = self.identifier("column name")
        if self.eat_op("."):
            return SCol(first, self.identifier("column name"))
        return SCol(None, first)

    # -- scalar expressions ------------------------------------------------------

    def expression(self) -> SExpr:
        left = self.mul_expr()
        while self.at_op("+", "-"):
            op = self.next().text
            left = SBin(op, left, self.mul_expr())
        return left

    def mul_expr(self) -> SExpr:
        left = self.unary_expr()
        while self.at_op("*", "/", "%"):
            op = self.next().text
            left = SBin(op, left, self.unary_expr())
        return left

    def unary_expr(self) -> SExpr:
        if self.eat_op("-"):
            return SNeg(self.unary_expr())
        if self.eat_op("+"):
            return self.unary_expr()
        return self.atom_expr()

    def atom_expr(self) -> SExpr:
        t = self.tok()
        if t.kind == "num":
            self.next()
            try:
                return SNum(parse_number(t.text))
            except ValueError as exc:
                raise SqlParseError(str(exc), t.line, t.col) from None
        if t.kind == "str":
            self.next()
            return SStr(t.text)
        if t.kind == "kw" and t.text == "null":
            self.next()
            return SNull()
        if t.kind == "kw" and t.text in _AGG_FNS:
            self.next()
            self.expect_op("(")
            if self.at_kw("distinct"):
                raise UnsupportedSqlError("unsupported feature: DISTINCT inside an aggregate")
            if t.text == "count" and self.eat_op("*"):
                self.expect_op(")")
                call = SAgg("count", True, None)
            else:
                arg = self.expression()
                self.expect_op(")")
                call = SAgg(t.text, False, arg)
            if self.at_kw("over"):
                self._unsupported("over")
            return call
        if t.kind == "ident":
            nxt = self.tok(1)
            if nxt.kind == "op" and nxt.text == "(":
                raise UnsupportedSqlError(
                    f"unsupported feature: function call {t.text!r} "
                    "(only +,-,*,/,% arithmetic and the standard aggregates)"
                )
            col = self.column_ref()
            return SCol(col.qualifier, col.name)
        if t.kind == "op" and t.text == "(":
            self.next()
            inner = self.expression()
            self.expect_op(")")
            return inner
        if t.kind == "kw" and t.text in _UNSUPPORTED_KEYWORDS:
            self._unsupported(t.text)
        raise self._error("expected an expression")

    # -- conditions -----------------------------------------------------------

    def condition(self) -> SCond:
        left = self.and_cond()
        while self.eat_kw("or"):
            left = COr(left, self.and_cond())
        return left

    def and_cond(self) -> SCond:
        left = self.not_cond()
        while self.eat_kw("and"):
            left = CAnd(left, self.not_cond())
        return left

    def not_cond(self) -> SCond:
        if self.at_kw("not"):
            nxt = self.tok(1)
            if nxt.kind == "kw" and nxt.text == "exists":
                self.next()
                self.next()
                self.expect_op("(")
                q = self.query()
                self.expect_op(")")
                return CExists(q, negated=True)
            self.next()
            return CNot(self.not_cond())
        return self.primary_cond()

    def primary_cond(self) -> SCond:
        if self.at_kw("true"):
            self.next()
            return CTruth(True)
        if self.at_kw("false"):
            self.next()
            return CTruth(False)
        if self.at_kw("exists"):
            self.next()
            self.expect_op("(")
            q = self.query()
            self.expect_op(")")
            return CExists(q, negated=False)
        if self.at_op("("):
            save = self.i
            self.next()
            try:
                inner = self.condition()
                self.expect_op(")")
            except (SqlParseError, UnsupportedSqlError):
                self.i = save
            else:
                nxt = self.tok()
                if not (
                    nxt.kind == "op" and nxt.text in ("=", "!=", "<>", "<", ">", "<=", ">=", ",")
                ) and not (nxt.kind == "kw" and nxt.text in ("is", "in")):
                    return inner
                self.i = save
        row = self.row_or_expr()
        return self.postfix_cond(row)

    def row_or_expr(self) -> tuple:
        if self.at_op("("):
            save = self.i
            self.next()
            first = self.expression()
            if self.eat_op(","):
                items = [first, self.expression()]
                while self.eat_op(","):
                    items.append(self.expression())
                self.expect_op(")")
                return tuple(items)
            self.i = save
        return (self.expression(),)

    def postfix_cond(self, row: tuple) -> SCond:
        if self.eat_kw("is"):
            negated = self.eat_kw("not")
            self.expect_kw("null")
            if len(row) != 1:
                raise self._error("IS NULL applies to a single value")
            return CIsNull(row[0], negated)
        negated = False
        if self.eat_kw("not"):
            negated = True
            if not self.at_kw("in"):
                raise self._error("expected IN after NOT")
        if self.eat_kw("in"):
            self.expect_op("(")
            q = self.query()
            self.expect_op(")")
            return CIn(row, q, negated)
        t = self.tok()
        if t.kind == "op" and t.text in ("=", "!=", "<>", "<", ">", "<=", ">="):
            self.next()
            op = "!=" if t.text == "<>" else t.text
            if self.at_kw("any", "some", "all"):
                quant = "any" if self.next().text in ("any", "some") else "all"
                self.expect_op("(")
                q = self.query()
                self.expect_op(")")
                return CCmpQuery(row, op, quant, q)
            if self.at_op("("):
                save = self.i
                self.next()
                if self.at_kw("select", "with"):
                    q = self.query()
                    self.expect_op(")")
                    return CCmpQuery(row, op, "scalar", q)
                self.i = save
            rhs = self.row_or_expr()
            if len(rhs) != len(row):
                raise self._error(
                    f"comparison arity mismatch: {len(row)} vs {len(rhs)}"
                )
            return CCmp(row, op, rhs)
        self._check_unsupported()
        raise self._error("expected a comparison, IN, IS NULL or EXISTS")


def parse_sql(text: str) -> SqlQuery:
    return SqlQuery(text, _SqlParser(text).parse())


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


def lower_to_algebra(q: SqlQuery, schema: Schema) -> ast.Expression:
    """Resolve and lower a parsed statement to an algebra expression."""
    return _Lowerer(schema).lower_query(q.tree)


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
