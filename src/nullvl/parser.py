"""Parser for the parenthesized expression text format.

The grammar is documented in docs/grammar.md.  `parse_expression` is the
inverse of `nullvl.ast.render_expression`; round-tripping an AST through
render and parse yields an equal AST.

The text is read once: one `findall` splits it into token strings, and a
token's first character gives its kind.  The faults of the text as a whole
come first: a malformed string anywhere, then the structure of the first
datum (a parenthesis nested past `MAX_NESTING`, a `)` that closes nothing,
the end of input, trailing input), checked in one pass over the tokens that
also lists the tokens directly inside each form.  Recursive descent then
builds the AST, looking up each form's keyword in the table of its syntactic
class, with one Python frame per level of nesting; a form's keyword and
number of arguments are checked before anything inside it.  A fault names
the index of its token, and only then is the text scanned again for that
token's offset, line and column.
"""
from __future__ import annotations

import re

from . import ast
from .errors import ExprParseError
from .values import parse_number

# The deepest parenthesis nesting a text may have.  Every command handles a
# nest of `not` or `distinct` this deep within the interpreter's default
# recursion limit, with room to spare; translations of the deepest generated
# and/or/not chains (depth 10, through the 4vl kernel) nest 13 deep.
MAX_NESTING = 200

_OPS = {op: op for op in ast.COMPARISONS}
_OPS.update(eq="=", ne="!=", lt="<", gt=">", le="<=", ge=">=")

# A string's body runs to the first `"`, newline or end of text that no
# backslash escapes.
_BODY = r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'
_STRING_BODY = re.compile(_BODY)

# A token is a parenthesis, a closed string, a `;` comment or a bare symbol.
# A `"` that opens no closed string is a token of its own, so a text holds
# that token exactly when it holds a malformed string.  Layout is the only
# text that no alternative matches.
_TOKENS = re.compile(rf'[()]|"{_BODY}"|;[^\n]*|[^ \t\r\n();"]+|"')
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPED = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself


def _unescape(m: re.Match) -> str:
    return _ESCAPED.get(m.group(1), m.group(1))


class _Fault(Exception):
    """A parse error at a token, by its index in the reader's token list
    (here the tokens that are not comments); the reader's entry point
    locates it in the text."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def _located(text: str):
    """Each token's match, with the line it starts on and the offset at
    which that line starts.  Lines are counted in the layout between
    tokens: a newline escaped inside a string starts none."""
    line, line_start, end = 1, 0, 0
    for m in _TOKENS.finditer(text):
        breaks = text.count("\n", end, m.start())
        if breaks:
            line += breaks
            line_start = text.rindex("\n", end, m.start()) + 1
        yield m, line, line_start
        end = m.end()


def _eof_error(text: str) -> ExprParseError:
    off = len(text) + 1
    line = text.count("\n") + 1
    col = len(text) - (text.rfind("\n") + 1) + 1
    return ExprParseError("unexpected end of input", off, line, col)


def _string_error(text: str) -> ExprParseError:
    """The error of the first malformed string in ``text``."""
    for m, line, line_start in _located(text):
        if m.group() == '"':
            stop = _STRING_BODY.match(text, m.end()).end()
            if stop == len(text):
                message, offset = "unterminated string", m.start()
            elif text[stop] == "\n":
                message, offset = "newline inside string", stop
            else:
                message, offset = "unterminated escape", stop
            return ExprParseError(message, offset + 1, line, offset - line_start + 1)
    raise AssertionError("no malformed string")


def _fault_error(text: str, fault: _Fault) -> ExprParseError:
    """The error of ``fault``: its message at the offset of its token."""
    index = 0
    for m, line, line_start in _located(text):
        if m.group()[0] != ";":
            if index == fault.index:
                return ExprParseError(fault.message, m.start() + 1, line, m.start() - line_start + 1)
            index += 1
    return _eof_error(text)


def _forms(toks: list, what: str) -> dict:
    """The indices of the tokens directly inside each form of the first
    datum, by the index of the form's `(`.  Raises the faults of the datum's
    structure: the first `(` past `MAX_NESTING`, a `)` that closes nothing,
    the end of input and a token after the datum."""
    forms = {}
    stack = []  # the token lists of the forms that enclose `inner`
    inner = None  # the token list of the innermost open form
    for i, tok in enumerate(toks):
        if tok == "(":
            if inner is not None:
                inner.append(i)
                if len(stack) == MAX_NESTING:
                    raise _Fault(f"nesting deeper than {MAX_NESTING} parentheses", i)
            stack.append(inner)
            inner = forms[i] = []
            continue
        if tok == ")":
            if inner is None:
                raise _Fault("unexpected ')'", i)
            inner = stack.pop()
        elif inner is not None:
            inner.append(i)
        if inner is None:  # the datum ends at `tok`
            if i + 1 < len(toks):
                raise _Fault(f"trailing input after {what}", i + 1)
            return forms
    raise _Fault("unexpected end of input", len(toks))


def _string(tok: str) -> str:
    """The text of a string token."""
    body = tok[1:-1]
    if "\\" in body:
        body = _ESCAPE.sub(_unescape, body)
    return body


def _name(toks: list, i: int) -> str:
    tok = toks[i]
    if tok[0] == '"':
        return _string(tok)
    if tok == "(":
        raise _Fault("expected a name", i)
    return tok


class _Table(dict):
    """The reader of each form of one syntactic class, by its keyword.  A
    reader takes the tokens, the forms and the index of the form's `(`."""

    def __init__(self, expected: str, unknown: str, readers: dict):
        super().__init__(readers)
        self.expected = expected  # the fault of a token that is no form
        self.unknown = unknown  # the fault of a keyword missing here


def _reader(table: _Table, toks: list, i: int):
    """The reader in ``table`` of the form at token ``i``.  It is returned,
    not called, so that reading a nest takes one frame per level."""
    if toks[i] != "(":
        raise _Fault(table.expected, i)
    head = toks[i + 1]
    reader = table.get(head)
    if reader is not None:
        return reader
    if head[0] in '()"':  # a parenthesis or a string
        raise _Fault("expected a keyword after '('", i)
    raise _Fault(f"{table.unknown} {head!r}", i)


# ---------------------------------------------------------------------------
# Terms


def _col(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("col takes one name", i)
    return ast.NameRef(_name(toks, inside[1]))


def _num(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("num takes one literal", i)
    literal = _name(toks, inside[1])
    try:
        return ast.NumConst(parse_number(literal))
    except ValueError as exc:
        raise _Fault(str(exc), inside[1]) from None


def _ord(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("ord takes one string", i)
    return ast.OrdConst(_name(toks, inside[1]))


def _null(toks, forms, i):
    if len(forms[i]) != 1:
        raise _Fault("null takes no arguments", i)
    return ast.NullConst()


def _fn(toks, forms, i):
    inside = forms[i]
    if len(inside) < 3:
        raise _Fault("fn takes a function name and at least one argument", i)
    fn = _name(toks, inside[1])
    args = []
    for j in inside[2:]:
        args.append(_reader(_TERMS, toks, j)(toks, forms, j))
    return ast.FnApply(fn, tuple(args))


def _arg(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("arg takes one index", i)
    try:
        index = int(_name(toks, inside[1]))
    except ValueError:
        raise _Fault("arg index must be an integer", inside[1]) from None
    return ast.ArgHole(index)


_TERMS = _Table("expected a term", "unknown term keyword", {
    "col": _col, "num": _num, "ord": _ord, "null": _null, "fn": _fn, "arg": _arg,
})


def _tuple(toks, forms, i) -> tuple[ast.Term, ...]:
    """A term, or the terms of a (tuple ...) form."""
    if toks[i] == "(":
        head = toks[i + 1]
        term = _TERMS.get(head)
        if term is not None:
            return (term(toks, forms, i),)
        if head == "tuple":
            inside = forms[i]
            if len(inside) < 3:
                raise _Fault("tuple needs at least two terms", i)
            terms = []
            for j in inside[1:]:
                terms.append(_reader(_TERMS, toks, j)(toks, forms, j))
            return tuple(terms)
    raise _Fault("expected a term or (tuple ...)", i)


def _op(toks, i) -> str:
    text = _name(toks, i)
    op = _OPS.get(text)
    if op is None:
        raise _Fault(f"unknown comparison {text!r}", i)
    return op


# ---------------------------------------------------------------------------
# Conditions


def _truth(toks, forms, i):
    head = toks[i + 1]
    if len(forms[i]) != 1:
        raise _Fault(f"{head} takes no arguments", i)
    return ast.CTrue() if head == "true" else ast.CFalse()


def _isnull(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("isnull takes one term", i)
    j = inside[1]
    return ast.IsNull(_reader(_TERMS, toks, j)(toks, forms, j))


def _cmp(toks, forms, i):
    inside = forms[i]
    if len(inside) != 4:
        raise _Fault("cmp takes an operator and two term tuples", i)
    op = _op(toks, inside[1])
    lhs = _tuple(toks, forms, inside[2])
    rhs = _tuple(toks, forms, inside[3])
    if len(lhs) != len(rhs):
        raise _Fault(f"tuple arity mismatch: {len(lhs)} vs {len(rhs)}", i)
    return ast.Compare(lhs, op, rhs)


def _in(toks, forms, i):
    inside = forms[i]
    if len(inside) != 3:
        raise _Fault("in takes a term tuple and an expression", i)
    items = _tuple(toks, forms, inside[1])
    j = inside[2]
    return ast.In(items, _reader(_EXPRS, toks, j)(toks, forms, j))


def _empty(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("empty takes one expression", i)
    j = inside[1]
    return ast.Empty(_reader(_EXPRS, toks, j)(toks, forms, j))


def _quant(toks, forms, i):
    inside = forms[i]
    quant = toks[i + 1]
    if len(inside) != 4:
        raise _Fault(f"{quant} takes an operator, a term tuple and an expression", i)
    op = _op(toks, inside[1])
    items = _tuple(toks, forms, inside[2])
    j = inside[3]
    return ast.Quant(items, op, quant, _reader(_EXPRS, toks, j)(toks, forms, j))


def _connective(toks, forms, i):
    inside = forms[i]
    head = toks[i + 1]
    if len(inside) < 3:
        raise _Fault(f"{head} takes at least two conditions", i)
    conds = []
    for j in inside[1:]:
        conds.append(_reader(_CONDS, toks, j)(toks, forms, j))
    return ast.and_all(conds) if head == "and" else ast.or_all(conds)


def _not(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("not takes one condition", i)
    j = inside[1]
    return ast.Not(_reader(_CONDS, toks, j)(toks, forms, j))


_CONDS = _Table("expected a condition", "unknown condition keyword", {
    "true": _truth, "false": _truth, "isnull": _isnull, "cmp": _cmp, "in": _in,
    "empty": _empty, "any": _quant, "all": _quant, "and": _connective,
    "or": _connective, "not": _not,
})


# ---------------------------------------------------------------------------
# Expressions


def _item(toks, forms, i) -> ast.ProjItem:
    """A projection item: a term, or (as name term)."""
    if toks[i] == "(":
        head = toks[i + 1]
        term = _TERMS.get(head)
        if term is not None:
            return ast.ProjItem(term(toks, forms, i), None)
        if head == "as":
            inside = forms[i]
            if len(inside) != 3:
                raise _Fault("as takes a name and a term", i)
            j = inside[2]
            term = _reader(_TERMS, toks, j)(toks, forms, j)
            return ast.ProjItem(term, _name(toks, inside[1]))
    raise _Fault("expected a term or (as name term)", i)


def _agg_as(toks, forms, i):
    inside = forms[i]
    if len(inside) != 3:
        raise _Fault("as takes a name and an aggregate", i)
    j = inside[2]
    agg = _reader(_AGGS, toks, j)(toks, forms, j)
    return ast.AggItem(agg.fn, agg.column, _name(toks, inside[1]))


def _count_star(toks, forms, i):
    if len(forms[i]) != 1:
        raise _Fault("count-star takes no arguments", i)
    return ast.AggItem("count_star", None, None)


def _agg_call(toks, forms, i):
    inside = forms[i]
    fn = toks[i + 1]
    if len(inside) != 2:
        raise _Fault(f"{fn} takes one column name", i)
    return ast.AggItem(fn, _name(toks, inside[1]), None)


_AGGS = _Table("expected an aggregate", "unknown aggregate", {
    "as": _agg_as, "count-star": _count_star, "count": _agg_call, "sum": _agg_call,
    "avg": _agg_call, "min": _agg_call, "max": _agg_call,
})


def _base(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("base takes one relation name", i)
    return ast.BaseRelation(_name(toks, inside[1]))


def _project(toks, forms, i):
    inside = forms[i]
    if len(inside) != 3 or toks[inside[1]] != "(":
        raise _Fault("project takes an item list and an expression", i)
    items = []
    for j in forms[inside[1]]:
        items.append(_item(toks, forms, j))
    if not items:
        raise _Fault("projection needs at least one item", inside[1])
    j = inside[2]
    return ast.Projection(tuple(items), _reader(_EXPRS, toks, j)(toks, forms, j))


def _select(toks, forms, i):
    inside = forms[i]
    if len(inside) != 3:
        raise _Fault("select takes a condition and an expression", i)
    j, k = inside[1], inside[2]
    cond = _reader(_CONDS, toks, j)(toks, forms, j)
    return ast.Selection(cond, _reader(_EXPRS, toks, k)(toks, forms, k))


def _product(toks, forms, i):
    inside = forms[i]
    if len(inside) != 3:
        raise _Fault("product takes two expressions", i)
    j, k = inside[1], inside[2]
    left = _reader(_EXPRS, toks, j)(toks, forms, j)
    return ast.Product(left, _reader(_EXPRS, toks, k)(toks, forms, k))


_SET_OPS = {"union-all": "union", "intersect-all": "intersect", "except-all": "except"}


def _set_op(toks, forms, i):
    inside = forms[i]
    head = toks[i + 1]
    if len(inside) != 3:
        raise _Fault(f"{head} takes two expressions", i)
    j, k = inside[1], inside[2]
    left = _reader(_EXPRS, toks, j)(toks, forms, j)
    return ast.SetOp(_SET_OPS[head], left, _reader(_EXPRS, toks, k)(toks, forms, k))


def _distinct(toks, forms, i):
    inside = forms[i]
    if len(inside) != 2:
        raise _Fault("distinct takes one expression", i)
    j = inside[1]
    return ast.Distinct(_reader(_EXPRS, toks, j)(toks, forms, j))


def _group(toks, forms, i):
    inside = forms[i]
    if len(inside) != 4 or toks[inside[1]] != "(" or toks[inside[2]] != "(":
        raise _Fault("group takes a name list, an aggregate list and an expression", i)
    names = tuple([_name(toks, j) for j in forms[inside[1]]])
    aggs = tuple([_reader(_AGGS, toks, j)(toks, forms, j) for j in forms[inside[2]]])
    if not names and not aggs:
        raise _Fault("group needs grouping names or aggregates", i)
    j = inside[3]
    return ast.Group(names, aggs, _reader(_EXPRS, toks, j)(toks, forms, j))


def _mu(toks, forms, i):
    inside = forms[i]
    if len(inside) != 5:
        raise _Fault("mu takes a relation name, a union kind and two expressions", i)
    rel = _name(toks, inside[1])
    kind = _name(toks, inside[2])
    if kind not in ("union", "union-all"):
        raise _Fault("union kind must be union or union-all", inside[2])
    j, k = inside[3], inside[4]
    seed = _reader(_EXPRS, toks, j)(toks, forms, j)
    return ast.Mu(rel, kind == "union", seed, _reader(_EXPRS, toks, k)(toks, forms, k))


_EXPRS = _Table("expected an expression", "unknown expression keyword", {
    "base": _base, "project": _project, "select": _select, "product": _product,
    "union-all": _set_op, "intersect-all": _set_op, "except-all": _set_op,
    "distinct": _distinct, "group": _group, "mu": _mu,
})


def _parse(text: str, what: str, table: _Table):
    toks = _TOKENS.findall(text)
    if ";" in text:
        toks = [tok for tok in toks if tok[0] != ";"]
    if '"' in text and '"' in toks:
        raise _string_error(text)
    try:
        forms = _forms(toks, what)
        return _reader(table, toks, 0)(toks, forms, 0)
    except _Fault as fault:
        raise _fault_error(text, fault) from None


def parse_expression(text: str) -> ast.Expression:
    return _parse(text, "expression", _EXPRS)


def parse_condition(text: str) -> ast.Condition:
    return _parse(text, "condition", _CONDS)
