"""Parser for the parenthesized expression text format.

The grammar is documented in docs/grammar.md.  `parse_expression` is the
inverse of `nullvl.ast.render_expression`; round-tripping an AST through
render and parse yields an equal AST.
"""
from __future__ import annotations

import re
from operator import itemgetter
from typing import Optional, Union

from . import ast
from .errors import ExprParseError
from .values import parse_number

_TERM_KEYWORDS = {"col", "num", "ord", "null", "fn", "arg"}
_AGG_KEYWORDS = {"count", "count-star", "sum", "avg", "min", "max"}

# The deepest parenthesis nesting a text may have.  Every command handles a
# nest of `not` or `distinct` this deep within the interpreter's default
# recursion limit, with room to spare; translations of the deepest generated
# and/or/not chains (depth 10, through the 4vl kernel) nest 13 deep.
MAX_NESTING = 200

_OPS = set(ast.COMPARISONS) | {"eq", "ne", "lt", "gt", "le", "ge"}
_OP_ALIASES = {"eq": "=", "ne": "!=", "lt": "<", "gt": ">", "le": "<=", "ge": ">="}


# One match reads the layout and comments before a token (group 1), then
# the token: a parenthesis (group 2), a string or a bare symbol (group 5).
# A string's body (group 3) runs to the first `"`, newline or end of text
# that no backslash escapes; group 4 holds which of them it met.  A bare
# symbol is any run of characters other than layout, parentheses, `;` and
# `"`.  At the end of the text only group 1 matches.
_TOKEN = re.compile(
    r'([ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*)'
    r'(?:([()])'
    r'|"([^"\\\n]*(?:\\[\s\S][^"\\\n]*)*)(["\n\\]?)'
    r'|([^ \t\r\n();"]+)'
    r'|\Z)'
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPED = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself


def _unescape(m: re.Match) -> str:
    return _ESCAPED.get(m.group(1), m.group(1))


class _Tok(tuple):
    """A string or bare-symbol token: ``(kind, text, offset)``."""

    __slots__ = ()
    kind = property(itemgetter(0))  # "sym" or "str"
    text = property(itemgetter(1))
    offset = property(itemgetter(2))  # 0-based


class _Form(list):
    """A parenthesized form; remembers the offset of its opening parenthesis."""

    __slots__ = ("offset",)


class _Fault(Exception):
    """A parse error at a 0-based offset; the entry points add its line and
    column, which only the text can give."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """Line and column of ``offset``.  Lines are counted in the layout
    between tokens: a newline escaped inside a string starts none."""
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text, 0, offset):
        start, end = m.span(1)
        breaks = text.count("\n", start, end)
        if breaks:
            line += breaks
            line_start = text.rindex("\n", start, end) + 1
    return line, offset - line_start + 1


def _string(m: re.Match) -> _Tok:
    """The string token of a match of `_TOKEN` that read one, or its fault."""
    stop = m.group(4)
    if stop == '"':
        body = m.group(3)
        if "\\" in body:
            body = _ESCAPE.sub(_unescape, body)
        return _Tok(("str", body, m.start(3) - 1))
    if stop == "\n":
        raise _Fault("newline inside string", m.start(4))
    if stop == "\\":
        raise _Fault("unterminated escape", m.start(4))
    raise _Fault("unterminated string", m.start(3) - 1)


def _next_token(text: str, pos: int) -> Optional[int]:
    """The offset of the first token at or after ``pos``, if any.  Reads the
    rest of the text, so a malformed string in it is the fault raised: a
    text is judged as if it were tokenized whole before it is read."""
    first = None
    for m in _TOKEN.finditer(text, pos):
        if m.lastindex == 1:  # the end of the text
            break
        if m.lastindex == 4:
            _string(m)
        if first is None:
            first = m.end(1)
    return first


def _fault_after(text: str, pos: int, message: str, offset: int) -> _Fault:
    _next_token(text, pos)
    return _Fault(message, offset)


def _eof_error(text: str) -> ExprParseError:
    off = len(text) + 1
    line = text.count("\n") + 1
    col = len(text) - (text.rfind("\n") + 1) + 1
    return ExprParseError("unexpected end of input", off, line, col)


def _read(text: str) -> tuple[Union[_Tok, _Form], Optional[int]]:
    """The first datum of ``text`` and the offset of the token after it."""
    stack: list[_Form] = []  # the open forms, outermost first
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind == 5:
            datum = _Tok(("sym", m.group(5), m.start(5)))
        elif kind == 4:
            datum = _string(m)
        elif kind == 1:  # the end of the text
            break
        elif m.group(2) == "(":
            form = _Form()
            form.offset = m.start(2)
            stack.append(form)
            if len(stack) > MAX_NESTING:
                message = f"nesting deeper than {MAX_NESTING} parentheses"
                raise _fault_after(text, m.end(), message, form.offset)
            continue
        elif stack:
            datum = stack.pop()
        else:
            raise _fault_after(text, m.end(), "unexpected ')'", m.start(2))
        if stack:
            stack[-1].append(datum)
        else:
            return datum, _next_token(text, m.end())
    raise _eof_error(text)


def _err(node, message: str) -> _Fault:
    return _Fault(message, node.offset)


def _head(form: _Form) -> str:
    if not form or not isinstance(form[0], _Tok) or form[0].kind != "sym":
        raise _err(form, "expected a keyword after '('")
    return form[0].text


def _name(node) -> str:
    if isinstance(node, _Tok):
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


def _parse(text: str, what: str, parse):
    try:
        node, extra = _read(text)
        if extra is not None:
            raise _Fault(f"trailing input after {what}", extra)
        return parse(node)
    except _Fault as fault:
        line, col = _line_col(text, fault.offset)
        raise ExprParseError(fault.message, fault.offset + 1, line, col) from None


def parse_expression(text: str) -> ast.Expression:
    return _parse(text, "expression", _parse_expr)


def parse_condition(text: str) -> ast.Condition:
    return _parse(text, "condition", _parse_condition)
