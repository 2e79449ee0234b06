"""Parser for the parenthesized expression text format.

The grammar is documented in docs/grammar.md.  `parse_expression` is the
inverse of `nullvl.ast.render_expression`; round-tripping an AST through
render and parse yields an equal AST.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import ast
from .errors import ExprParseError
from .values import parse_number

_EXPR_KEYWORDS = {
    "base", "project", "select", "product", "union-all", "intersect-all",
    "except-all", "distinct", "group", "mu",
}
_COND_KEYWORDS = {"true", "false", "and", "or", "not", "isnull", "cmp", "in", "empty", "any", "all"}
_TERM_KEYWORDS = {"col", "num", "ord", "null", "fn", "arg"}
_AGG_KEYWORDS = {"count", "count-star", "sum", "avg", "min", "max"}

# The deepest parenthesis nesting a text may have.  Every command handles a
# nest of `not` or `distinct` this deep within the interpreter's default
# recursion limit, with room to spare; translations of the deepest generated
# and/or/not chains (depth 10, through the 4vl kernel) nest 13 deep.
MAX_NESTING = 200

_OPS = set(ast.COMPARISONS) | {"eq", "ne", "lt", "gt", "le", "ge"}
_OP_ALIASES = {"eq": "=", "ne": "!=", "lt": "<", "gt": ">", "le": "<=", "ge": ">="}


@dataclass(frozen=True)
class _Tok:
    kind: str  # "(", ")", "sym", "str"
    text: str
    offset: int
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == ";":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        start, sline, scol = i, line, col
        if ch in "()":
            toks.append(_Tok(ch, ch, start, sline, scol))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            out = []
            while True:
                if i >= n:
                    raise ExprParseError("unterminated string", start + 1, sline, scol)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise ExprParseError("unterminated escape", i + 1, line, col)
                    nxt = text[i + 1]
                    out.append({"n": "\n", "t": "\t"}.get(nxt, nxt))
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\n":
                    raise ExprParseError("newline inside string", i + 1, line, col)
                out.append(c)
                i += 1
                col += 1
            toks.append(_Tok("str", "".join(out), start, sline, scol))
            continue
        j = i
        while j < n and text[j] not in ' \t\r\n();"':
            j += 1
        toks.append(_Tok("sym", text[i:j], start, sline, scol))
        col += j - i
        i = j
    return toks


_SExpr = Union[_Tok, list]


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def _eof_error(self) -> ExprParseError:
        off = len(self.text) + 1
        line = self.text.count("\n") + 1
        col = len(self.text) - (self.text.rfind("\n") + 1) + 1
        return ExprParseError("unexpected end of input", off, line, col)

    def read(self, depth: int = 1) -> _SExpr:
        if self.pos >= len(self.toks):
            raise self._eof_error()
        tok = self.toks[self.pos]
        self.pos += 1
        if tok.kind == "(":
            if depth > MAX_NESTING:
                raise ExprParseError(
                    f"nesting deeper than {MAX_NESTING} parentheses", tok.offset + 1, tok.line, tok.col
                )
            items: list = []
            while True:
                if self.pos >= len(self.toks):
                    raise self._eof_error()
                if self.toks[self.pos].kind == ")":
                    self.pos += 1
                    return _Form(items, tok)
                items.append(self.read(depth + 1))
        if tok.kind == ")":
            raise ExprParseError("unexpected ')'", tok.offset + 1, tok.line, tok.col)
        return tok


class _Form(list):
    """A parenthesized form; remembers its opening token for error positions."""

    def __init__(self, items, open_tok: _Tok):
        super().__init__(items)
        self.open_tok = open_tok


def _err(node, message: str) -> ExprParseError:
    # offsets are reported 1-based
    tok = node.open_tok if isinstance(node, _Form) else node
    return ExprParseError(message, tok.offset + 1, tok.line, tok.col)


def _head(form: _Form) -> str:
    if not form or not isinstance(form[0], _Tok) or form[0].kind != "sym":
        raise _err(form, "expected a keyword after '('")
    return form[0].text


def _name(node) -> str:
    if isinstance(node, _Tok) and node.kind in ("sym", "str"):
        return node.text
    raise _err(node, "expected a name")


def _parse_term(node) -> ast.Term:
    if not isinstance(node, _Form):
        raise _err(node, "expected a term")
    head = _head(node)
    args = node[1:]
    if head == "col":
        if len(args) != 1:
            raise _err(node, "col takes one name")
        return ast.NameRef(_name(args[0]))
    if head == "num":
        if len(args) != 1:
            raise _err(node, "num takes one literal")
        try:
            return ast.NumConst(parse_number(_name(args[0])))
        except ValueError as exc:
            raise _err(args[0], str(exc))
    if head == "ord":
        if len(args) != 1:
            raise _err(node, "ord takes one string")
        return ast.OrdConst(_name(args[0]))
    if head == "null":
        if args:
            raise _err(node, "null takes no arguments")
        return ast.NullConst()
    if head == "fn":
        if len(args) < 2:
            raise _err(node, "fn takes a function name and at least one argument")
        fn = _name(args[0])
        return ast.FnApply(fn, tuple(_parse_term(a) for a in args[1:]))
    if head == "arg":
        if len(args) != 1:
            raise _err(node, "arg takes one index")
        try:
            idx = int(_name(args[0]))
        except ValueError:
            raise _err(args[0], "arg index must be an integer")
        return ast.ArgHole(idx)
    raise _err(node, f"unknown term keyword {head!r}")


def _is_term_form(node) -> bool:
    return (
        isinstance(node, _Form)
        and node
        and isinstance(node[0], _Tok)
        and node[0].kind == "sym"
        and node[0].text in _TERM_KEYWORDS
    )


def _parse_tuple(node) -> tuple[ast.Term, ...]:
    if _is_term_form(node):
        return (_parse_term(node),)
    if isinstance(node, _Form) and node and isinstance(node[0], _Tok) and node[0].text == "tuple":
        if len(node) < 2:
            raise _err(node, "tuple needs at least one term")
        return tuple(_parse_term(t) for t in node[1:])
    raise _err(node, "expected a term or (tuple ...)")


def _parse_op(node) -> str:
    text = _name(node)
    if text not in _OPS:
        raise _err(node, f"unknown comparison {text!r}")
    return _OP_ALIASES.get(text, text)


def _parse_condition(node) -> ast.Condition:
    if not isinstance(node, _Form):
        raise _err(node, "expected a condition")
    head = _head(node)
    args = node[1:]
    if head == "true":
        return ast.CTrue()
    if head == "false":
        return ast.CFalse()
    if head == "isnull":
        if len(args) != 1:
            raise _err(node, "isnull takes one term")
        return ast.IsNull(_parse_term(args[0]))
    if head == "cmp":
        if len(args) != 3:
            raise _err(node, "cmp takes an operator and two term tuples")
        op = _parse_op(args[0])
        lhs = _parse_tuple(args[1])
        rhs = _parse_tuple(args[2])
        if len(lhs) != len(rhs):
            raise _err(node, f"tuple arity mismatch: {len(lhs)} vs {len(rhs)}")
        return ast.Compare(lhs, op, rhs)
    if head == "in":
        if len(args) != 2:
            raise _err(node, "in takes a term tuple and an expression")
        return ast.In(_parse_tuple(args[0]), _parse_expr(args[1]))
    if head == "empty":
        if len(args) != 1:
            raise _err(node, "empty takes one expression")
        return ast.Empty(_parse_expr(args[0]))
    if head in ("any", "all"):
        if len(args) != 3:
            raise _err(node, f"{head} takes an operator, a term tuple and an expression")
        op = _parse_op(args[0])
        return ast.Quant(_parse_tuple(args[1]), op, head, _parse_expr(args[2]))
    if head == "and":
        if len(args) < 2:
            raise _err(node, "and takes at least two conditions")
        return ast.and_all([_parse_condition(a) for a in args])
    if head == "or":
        if len(args) < 2:
            raise _err(node, "or takes at least two conditions")
        return ast.or_all([_parse_condition(a) for a in args])
    if head == "not":
        if len(args) != 1:
            raise _err(node, "not takes one condition")
        return ast.Not(_parse_condition(args[0]))
    raise _err(node, f"unknown condition keyword {head!r}")


def _parse_proj_item(node) -> ast.ProjItem:
    if _is_term_form(node):
        return ast.ProjItem(_parse_term(node), None)
    if isinstance(node, _Form) and node and isinstance(node[0], _Tok) and node[0].text == "as":
        if len(node) != 3:
            raise _err(node, "as takes a name and a term")
        return ast.ProjItem(_parse_term(node[2]), _name(node[1]))
    raise _err(node, "expected a term or (as name term)")


def _parse_agg(node) -> ast.AggItem:
    if not isinstance(node, _Form):
        raise _err(node, "expected an aggregate")
    head = _head(node)
    if head == "as":
        if len(node) != 3:
            raise _err(node, "as takes a name and an aggregate")
        inner = _parse_agg(node[2])
        return ast.AggItem(inner.fn, inner.column, _name(node[1]))
    if head == "count-star":
        if len(node) != 1:
            raise _err(node, "count-star takes no arguments")
        return ast.AggItem("count_star", None, None)
    if head in _AGG_KEYWORDS:
        if len(node) != 2:
            raise _err(node, f"{head} takes one column name")
        return ast.AggItem(head, _name(node[1]), None)
    raise _err(node, f"unknown aggregate {head!r}")


def _parse_expr(node) -> ast.Expression:
    if not isinstance(node, _Form):
        raise _err(node, "expected an expression")
    head = _head(node)
    args = node[1:]
    if head == "base":
        if len(args) != 1:
            raise _err(node, "base takes one relation name")
        return ast.BaseRelation(_name(args[0]))
    if head == "project":
        if len(args) != 2 or not isinstance(args[0], _Form):
            raise _err(node, "project takes an item list and an expression")
        items = tuple(_parse_proj_item(i) for i in args[0])
        if not items:
            raise _err(args[0], "projection needs at least one item")
        return ast.Projection(items, _parse_expr(args[1]))
    if head == "select":
        if len(args) != 2:
            raise _err(node, "select takes a condition and an expression")
        return ast.Selection(_parse_condition(args[0]), _parse_expr(args[1]))
    if head == "product":
        if len(args) != 2:
            raise _err(node, "product takes two expressions")
        return ast.Product(_parse_expr(args[0]), _parse_expr(args[1]))
    if head in ("union-all", "intersect-all", "except-all"):
        if len(args) != 2:
            raise _err(node, f"{head} takes two expressions")
        op = {"union-all": "union", "intersect-all": "intersect", "except-all": "except"}[head]
        return ast.SetOp(op, _parse_expr(args[0]), _parse_expr(args[1]))
    if head == "distinct":
        if len(args) != 1:
            raise _err(node, "distinct takes one expression")
        return ast.Distinct(_parse_expr(args[0]))
    if head == "group":
        if len(args) != 3 or not isinstance(args[0], _Form) or not isinstance(args[1], _Form):
            raise _err(node, "group takes a name list, an aggregate list and an expression")
        names = tuple(_name(n) for n in args[0])
        aggs = tuple(_parse_agg(a) for a in args[1])
        if not names and not aggs:
            raise _err(node, "group needs grouping names or aggregates")
        return ast.Group(names, aggs, _parse_expr(args[2]))
    if head == "mu":
        if len(args) != 4:
            raise _err(node, "mu takes a relation name, a union kind and two expressions")
        rel = _name(args[0])
        kind = _name(args[1])
        if kind not in ("union", "union-all"):
            raise _err(args[1], "union kind must be union or union-all")
        return ast.Mu(rel, kind == "union", _parse_expr(args[2]), _parse_expr(args[3]))
    raise _err(node, f"unknown expression keyword {head!r}")


def parse_expression(text: str) -> ast.Expression:
    reader = _Reader(text)
    node = reader.read()
    if reader.pos < len(reader.toks):
        extra = reader.toks[reader.pos]
        raise ExprParseError("trailing input after expression", extra.offset + 1, extra.line, extra.col)
    return _parse_expr(node)


def parse_condition(text: str) -> ast.Condition:
    reader = _Reader(text)
    node = reader.read()
    if reader.pos < len(reader.toks):
        extra = reader.toks[reader.pos]
        raise ExprParseError("trailing input after condition", extra.offset + 1, extra.line, extra.col)
    return _parse_condition(node)
