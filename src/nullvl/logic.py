"""Truth-value systems as pluggable kernels.

A kernel is a finite truth-value set, its conjunction/disjunction/negation
tables (validated associative and commutative, Boolean on {t, f}) and one
NULL table: the value of every comparison under every pattern of null
arguments, or for a grounding a two-valued template over the non-null
argument.  Everything else a kernel offers is derived from that table: the
rule for atomic comparisons, the constants of `=` that the evaluator's hash
paths read, and per-(comparison, truth value) condition templates that state
each outcome as an ordinary condition under the three-valued semantics.

The same module houses groundings (per-comparison decisions for each pattern
of null argument positions) and the eventual-periodicity machinery used to
fold connectives over counted multisets.  It evaluates no condition itself:
a grounding template that depends on the values runs on the evaluator.
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Mapping, get_args

from . import ast
from .errors import KernelError, NullvlError
from .values import Value, json_array, read_json, required

TruthValue = str

AND = "and"
OR = "or"


def standard_compare(op: str, a, b) -> bool:
    """The ordinary comparison on two non-null values of matching type."""
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if isinstance(a, str) or isinstance(b, str):
        raise KernelError(f"order comparison {op} on non-numerical values")
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    raise KernelError(f"unknown comparison {op!r}")


# the null patterns of a comparison: which argument positions are NULL
_PATTERNS = (frozenset({1}), frozenset({2}), frozenset({1, 2}))
# the cells of a NULL table: every comparison under every null pattern
_NULL_CELLS = tuple(itertools.product(ast.COMPARISONS, _PATTERNS))
# a null pattern as kernel files spell it
_PATTERN_KEYS = {"".join(map(str, sorted(p))): p for p in _PATTERNS}
_CONDITIONS = get_args(ast.Condition)

# the names a template's holes 1 and 2 are bound to when it is evaluated
TEMPLATE_NAMES = ("__1", "__2")


def _template_rule(template: ast.Condition, true: TruthValue, false: TruthValue):
    """A NULL-table template as a function of the two argument values: the
    evaluator's compiled condition under 3VL, which must come out t or f."""
    from .evaluator import condition_rule

    holds = condition_rule(
        substitute_holes(template, tuple(map(ast.NameRef, TEMPLATE_NAMES))), TEMPLATE_NAMES
    )

    def rule(a: Value, b: Value) -> TruthValue:
        value = holds(a, b)
        if value == "u":
            raise KernelError("template evaluated to unknown; it must be two-valued")
        return true if value == "t" else false

    return rule


def _cmp(a: ast.Term, op: str, b: ast.Term) -> ast.Condition:
    return ast.Compare((a,), op, (b,))


def _exact_guard(pattern: frozenset, a: ast.Term, b: ast.Term) -> ast.Condition:
    """isnull exactly at the pattern positions, not-null everywhere else."""
    null_a, null_b = ast.IsNull(a), ast.IsNull(b)
    return ast.And(null_a if 1 in pattern else ast.Not(null_a),
                   null_b if 2 in pattern else ast.Not(null_b))


def _null_guard(patterns: list, a: ast.Term, b: ast.Term) -> list:
    """The fewest disjuncts that are true exactly under the given null
    patterns."""
    covered = set(patterns)
    if covered == set(_PATTERNS):
        return [ast.Or(ast.IsNull(a), ast.IsNull(b))]
    for i, t in ((1, a), (2, b)):
        if covered == {frozenset({i}), frozenset({1, 2})}:
            return [ast.IsNull(t)]
    return [_exact_guard(p, a, b) for p in patterns]


class LogicKernel:
    """A validated finite logic: its connective tables and its one NULL
    table, which maps every (comparison, null pattern) cell to a truth value
    or, for groundings, to a two-valued template over the non-null argument.
    The comparison rule, the `=` row's constants and every comparison's
    condition templates are derived from that table.  Construction raises
    KernelError naming the broken law and a witness when the tables are not
    associative/commutative or not Boolean on {t, f}, or naming a NULL table
    cell that is missing or holds neither a value nor a template."""

    # the grounding that `kernel_grounded` built the kernel from
    grounding: Grounding | None = None

    def __init__(
        self,
        name: str,
        values: tuple[TruthValue, ...],
        true: TruthValue,
        false: TruthValue,
        and_table: Mapping[tuple[TruthValue, TruthValue], TruthValue],
        or_table: Mapping[tuple[TruthValue, TruthValue], TruthValue],
        not_table: Mapping[TruthValue, TruthValue],
        nulls: Mapping[tuple[str, frozenset], TruthValue | ast.Condition],
    ):
        self.name = name
        self.values = tuple(values)
        self.true = true
        self.false = false
        self.and_table = dict(and_table)
        self.or_table = dict(or_table)
        self.not_table = dict(not_table)
        self.nulls = dict(nulls)
        self._periods: dict[tuple[TruthValue, str], tuple[int, int]] = {}
        validate_kernel(self)
        by_nulls = {
            (op, 1 in p, 2 in p): entry if isinstance(entry, str)
            else _template_rule(entry, true, false)
            for (op, p), entry in self.nulls.items()
        }

        def compare(op: str, a: Value, b: Value) -> TruthValue:
            """Standard on two non-null arguments, the NULL table otherwise."""
            if a is not None and b is not None:
                return true if standard_compare(op, a, b) else false
            entry = by_nulls[(op, a is None, b is None)]
            return entry if isinstance(entry, str) else entry(a, b)

        self.compare = compare
        # the value of `=` for each null pattern when it is a constant, None
        # when it depends on the values: what the evaluator's hash join and
        # hash membership rely on
        eq = {p: self.nulls[("=", p)] for p in _PATTERNS}
        self.null_equality = {p: v if isinstance(v, str) else None for p, v in eq.items()}

    # What a translation reads of a kernel, derived on first use.

    @functools.cached_property
    def null_true(self) -> dict[str, frozenset | None]:
        """Each comparison's null patterns on which it is true, None where a
        template decides."""
        cells = {op: [(p, self.nulls[(op, p)]) for p in _PATTERNS] for op in ast.COMPARISONS}
        return {op: None if any(not isinstance(e, str) for _, e in row)
                else frozenset(p for p, e in row if e == self.true) for op, row in cells.items()}

    @functools.cached_property
    def null_guards(self) -> dict[str, tuple[bool, bool]]:
        """For each comparison, whether it (its negation) is true on some
        null pattern, so that a translation into this kernel must rule NULL
        arguments out of it."""
        def true_on_a_null(op: str, negated: bool) -> bool:
            entries = (self.nulls[(op, p)] for p in _PATTERNS)
            return any(not isinstance(e, str) or (self.not_table[e] if negated else e) == self.true
                       for e in entries)

        return {op: (true_on_a_null(op, False), true_on_a_null(op, True)) for op in ast.COMPARISONS}

    @functools.cached_property
    def boolean_truth(self) -> bool:
        """Whether and / or are true exactly where the Boolean tables are."""
        t = self.true
        return all((self.and_table[(a, b)] == t) == (a == b == t)
                   and (self.or_table[(a, b)] == t) == (t in (a, b))
                   for a, b in itertools.product(self.values, repeat=2))

    def table(self, conn: str) -> dict:
        return self.and_table if conn == AND else self.or_table

    def conj(self, a: TruthValue, b: TruthValue) -> TruthValue:
        return self.and_table[(a, b)]

    def disj(self, a: TruthValue, b: TruthValue) -> TruthValue:
        return self.or_table[(a, b)]

    def neg(self, a: TruthValue) -> TruthValue:
        return self.not_table[a]

    def fold(self, conn: str, items: Iterable[TruthValue]) -> TruthValue:
        """Fold a sequence under the connective; empty folds are the SQL
        conventions (empty disjunction false, empty conjunction true)."""
        table = self.table(conn)
        acc = None
        for v in items:
            acc = v if acc is None else table[(acc, v)]
        if acc is None:
            return self.false if conn == OR else self.true
        return acc

    def template(self, op: str, values, a: ast.Term, b: ast.Term,
                 guard: tuple[bool, bool] = (False, False)) -> ast.Condition:
        """A condition that is true under 3VL exactly when `a op b` takes one
        of `values` (a truth value or a set of them): for true (false) alone
        the comparison (its negation), not-null tested where `guard` (for
        true, for false) says a target makes it true on a NULL and some null
        pattern's cell is not always in `values`; for both,
        that neither argument is NULL; then the smallest guard over the null
        patterns whose cell is always in `values`; then for true (false)
        alone each template cell (its negation) under its exact guard."""
        values = {values} if isinstance(values, str) else values
        t, f = self.true in values, self.false in values
        cells = [(p, self.nulls[(op, p)]) for p in _PATTERNS]
        # a template cell is two-valued, so it is always in a set with t and f
        whole = [p for p, entry in cells if (entry in values if isinstance(entry, str) else t and f)]
        disjuncts = []
        if t and f:
            disjuncts.append(ast.And(ast.Not(ast.IsNull(a)), ast.Not(ast.IsNull(b))))
        elif t or f:
            atom = _cmp(a, op, b) if t else ast.Not(_cmp(a, op, b))
            if guard[0 if t else 1] and len(whole) < len(_PATTERNS):
                atom = ast.and_all([ast.Not(ast.IsNull(a)), ast.Not(ast.IsNull(b)), atom])
            disjuncts.append(atom)
        disjuncts += _null_guard(whole, a, b)
        if t != f:
            for p, entry in cells:
                if not isinstance(entry, str):
                    cell = substitute_holes(entry, (a, b))
                    disjuncts.append(ast.And(_exact_guard(p, a, b), cell if t else ast.Not(cell)))
        return ast.or_all(disjuncts)

    def periodicity(self, value: TruthValue, conn: str) -> tuple[int, int]:
        key = (value, conn)
        if key not in self._periods:
            self._periods[key] = periodicity(self, value, conn)
        return self._periods[key]

    def __repr__(self):
        return f"LogicKernel({self.name!r}, values={self.values})"


def validate_kernel(kernel: LogicKernel):
    """Exhaustive law check; raises KernelError with a witness on failure."""
    vals = kernel.values
    if kernel.true == kernel.false:
        raise KernelError("t and f must be distinct")
    for v in (kernel.true, kernel.false):
        if v not in vals:
            raise KernelError(f"designated value {v!r} missing from value set")
    if len(set(vals)) != len(vals):
        raise KernelError("duplicate truth values")
    for conn, table in ((AND, kernel.and_table), (OR, kernel.or_table)):
        for a, b in itertools.product(vals, repeat=2):
            if (a, b) not in table:
                raise KernelError(f"{conn} table missing cell ({a},{b})")
            if table[(a, b)] not in vals:
                raise KernelError(f"{conn} table leaves the value set at ({a},{b})")
        for a, b in itertools.product(vals, repeat=2):
            if table[(a, b)] != table[(b, a)]:
                raise KernelError(f"{conn} not commutative", witness=(a, b))
        for a, b, c in itertools.product(vals, repeat=3):
            if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                raise KernelError(f"{conn} not associative", witness=(a, b, c))
    for a in vals:
        if a not in kernel.not_table or kernel.not_table[a] not in vals:
            raise KernelError(f"negation table broken at {a!r}")
    t, f = kernel.true, kernel.false
    boolean_and = {(t, t): t, (t, f): f, (f, t): f, (f, f): f}
    boolean_or = {(t, t): t, (t, f): t, (f, t): t, (f, f): f}
    for (a, b), want in boolean_and.items():
        if kernel.and_table[(a, b)] != want:
            raise KernelError("and table not Boolean on {t,f}", witness=(a, b))
    for (a, b), want in boolean_or.items():
        if kernel.or_table[(a, b)] != want:
            raise KernelError("or table not Boolean on {t,f}", witness=(a, b))
    if kernel.not_table[t] != f or kernel.not_table[f] != t:
        raise KernelError("negation not Boolean on {t,f}")
    for op, (key, pattern) in itertools.product(ast.COMPARISONS, _PATTERN_KEYS.items()):
        cell = f"({op}, {key})"
        if (op, pattern) not in kernel.nulls:
            raise KernelError(f"kernel {kernel.name}: the NULL table must cover every "
                              f"comparison and null pattern; missing {cell}")
        entry = kernel.nulls[(op, pattern)]
        if isinstance(entry, _CONDITIONS):
            _validate_template(entry, pattern, f"kernel {kernel.name} {cell}")
        elif not isinstance(entry, str) or entry not in vals:
            raise KernelError(f"kernel {kernel.name}: NULL table cell {cell} holds "
                              f"{entry!r}, neither a value nor a template")


# ---------------------------------------------------------------------------
# Built-in kernels


def _bool_tables(t: str, f: str):
    and_t = {(t, t): t, (t, f): f, (f, t): f, (f, f): f}
    or_t = {(t, t): t, (t, f): t, (f, t): t, (f, f): f}
    not_t = {t: f, f: t}
    return and_t, or_t, not_t


def _kleene_tables():
    order = {"f": 0, "u": 1, "t": 2}
    rev = {v: k for k, v in order.items()}
    vals = ("t", "f", "u")
    and_t = {(a, b): rev[min(order[a], order[b])] for a in vals for b in vals}
    or_t = {(a, b): rev[max(order[a], order[b])] for a in vals for b in vals}
    not_t = {"t": "f", "f": "t", "u": "u"}
    return and_t, or_t, not_t


# The built-in kernels are built once per process: nothing changes a
# LogicKernel after construction (its periodicity memo only fills in).


@functools.cache
def kernel_3vl() -> LogicKernel:
    """Three truth values with the standard truth tables; a comparison with a
    null argument is unknown, isnull is always two-valued."""
    and_t, or_t, not_t = _kleene_tables()
    nulls = dict.fromkeys(_NULL_CELLS, "u")
    return LogicKernel("3vl", ("t", "f", "u"), "t", "f", and_t, or_t, not_t, nulls)


@functools.cache
def kernel_2vl() -> LogicKernel:
    """Two truth values; any comparison with a null argument is false."""
    and_t, or_t, not_t = _bool_tables("t", "f")
    nulls = dict.fromkeys(_NULL_CELLS, "f")
    return LogicKernel("2vl", ("t", "f"), "t", "f", and_t, or_t, not_t, nulls)


@functools.cache
def kernel_2vl_syntactic() -> LogicKernel:
    """Like the conflating two-valued kernel except NULL = NULL is true and,
    by negation, NULL != NULL is false."""
    and_t, or_t, not_t = _bool_tables("t", "f")
    nulls = {**dict.fromkeys(_NULL_CELLS, "f"), ("=", frozenset({1, 2})): "t"}
    return LogicKernel("2vl-syn", ("t", "f"), "t", "f", and_t, or_t, not_t, nulls)


_4VL_AND = {}
_4VL_OR = {}
# knowledge-style completion around: true is neutral, false absorbs for
# conjunction (dually for disjunction); combining two varying values loses
# the information, hence u
for _a in ("t", "f", "u", "s"):
    for _b in ("t", "f", "u", "s"):
        if _a == "f" or _b == "f":
            _4VL_AND[(_a, _b)] = "f"
        elif _a == "t":
            _4VL_AND[(_a, _b)] = _b
        elif _b == "t":
            _4VL_AND[(_a, _b)] = _a
        else:
            _4VL_AND[(_a, _b)] = "u"
        if _a == "t" or _b == "t":
            _4VL_OR[(_a, _b)] = "t"
        elif _a == "f":
            _4VL_OR[(_a, _b)] = _b
        elif _b == "f":
            _4VL_OR[(_a, _b)] = _a
        else:
            _4VL_OR[(_a, _b)] = "u"


@functools.cache
def kernel_4vl_example() -> LogicKernel:
    """Four values: t, f, u and s ("sometimes holds").  Comparisons with a
    null argument yield s; conjoining or disjoining two s values cannot be
    pinned down and gives u."""
    not_t = {"t": "f", "f": "t", "u": "u", "s": "s"}
    nulls = dict.fromkeys(_NULL_CELLS, "s")
    return LogicKernel(
        "4vl", ("t", "f", "u", "s"), "t", "f", dict(_4VL_AND), dict(_4VL_OR), not_t, nulls
    )


# ---------------------------------------------------------------------------
# Groundings


class Grounding:
    """Per-comparison truth decisions for each non-empty null pattern.

    ``templates`` maps (comparison, pattern) to a condition over two term
    holes; the template may only mention the holes at non-null positions.
    A missing entry is the empty grounding: ``(false)`` stands in for it.
    The evaluator runs a template under 3VL with the holes bound to the
    argument values, and it must come out t or f.  Two groundings are equal
    when their names and templates are, which keys `kernel_grounded`; the
    hash of the templates is taken once, when the grounding is made.
    """

    def __init__(self, name: str, templates: Mapping[tuple[str, frozenset], ast.Condition]):
        self.name = name
        self.templates: dict[tuple[str, frozenset], ast.Condition] = dict.fromkeys(
            _NULL_CELLS, ast.CFalse()
        )
        for (op, pattern), cond in templates.items():
            pattern = frozenset(pattern)
            if op not in ast.COMPARISONS:
                raise KernelError(f"grounding {name}: unknown comparison {op!r}")
            if pattern not in _PATTERNS:
                raise KernelError(f"grounding {name}: bad null pattern {sorted(pattern)}")
            _validate_template(cond, pattern, f"grounding {name} ({op}, {sorted(pattern)})")
            self.templates[(op, pattern)] = cond
        # every template map holds the cells in `_NULL_CELLS` order
        self._key = (name, tuple(self.templates.items()))
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Grounding) and self._key == other._key

    def __hash__(self):
        return self._hash


@functools.cache
def empty_grounding() -> Grounding:
    return Grounding("empty", {})


@functools.cache
def syntactic_equality_grounding() -> Grounding:
    return Grounding("syntactic-eq", {("=", frozenset({1, 2})): ast.CTrue()})


@functools.cache
def nonnegative_leq_grounding() -> Grounding:
    """NULL <= x holds for x >= 0, x <= NULL holds for x < 0, and
    NULL <= NULL holds."""
    return Grounding(
        "leq-sign",
        {
            ("<=", frozenset({1})): _cmp(ast.ArgHole(2), ">=", ast.num(0)),
            ("<=", frozenset({2})): _cmp(ast.ArgHole(1), "<", ast.num(0)),
            ("<=", frozenset({1, 2})): ast.CTrue(),
        },
    )


def _validate_template(cond: ast.Condition, null_positions: frozenset, what: str):
    holes = _collect_holes(cond, what)
    bad = holes & set(null_positions)
    if bad:
        raise KernelError(f"{what}: template mentions null position(s) {sorted(bad)}")
    if holes - {1, 2}:
        raise KernelError(f"{what}: template holes must be 1 or 2")


def _collect_holes(cond: ast.Condition, what: str) -> set[int]:
    out: set[int] = set()

    def walk_term(t: ast.Term):
        if isinstance(t, ast.ArgHole):
            out.add(t.index)
        elif isinstance(t, ast.FnApply):
            for a in t.args:
                walk_term(a)
        elif isinstance(t, ast.NameRef):
            raise KernelError(f"{what}: free name {t.name!r} in template")

    def walk(c: ast.Condition):
        if isinstance(c, (ast.In, ast.Empty, ast.Quant)):
            raise KernelError(f"{what}: subqueries are not allowed in templates")
        for t in ast.condition_terms(c):
            walk_term(t)
        for _, sub in ast.steps(c):
            walk(sub)

    walk(cond)
    return out


def substitute_holes_term(t: ast.Term, args: tuple[ast.Term, ...]) -> ast.Term:
    if isinstance(t, ast.ArgHole):
        return args[t.index - 1]
    if isinstance(t, ast.FnApply):
        return ast.FnApply(t.fn, tuple(substitute_holes_term(a, args) for a in t.args))
    return t


def substitute_holes(cond: ast.Condition, args: tuple[ast.Term, ...]) -> ast.Condition:
    if isinstance(cond, (ast.CTrue, ast.CFalse)):
        return cond
    if isinstance(cond, ast.IsNull):
        return ast.IsNull(substitute_holes_term(cond.term, args))
    if isinstance(cond, ast.Compare):
        return ast.Compare(
            tuple(substitute_holes_term(t, args) for t in cond.lhs),
            cond.op,
            tuple(substitute_holes_term(t, args) for t in cond.rhs),
        )
    if isinstance(cond, ast.And):
        return ast.And(substitute_holes(cond.left, args), substitute_holes(cond.right, args))
    if isinstance(cond, ast.Or):
        return ast.Or(substitute_holes(cond.left, args), substitute_holes(cond.right, args))
    if isinstance(cond, ast.Not):
        return ast.Not(substitute_holes(cond.cond, args))
    if isinstance(cond, (ast.In, ast.Empty, ast.Quant)):
        raise KernelError("subqueries are not allowed in templates")
    raise KernelError(f"not a template condition: {cond!r}")


@functools.cache
def kernel_grounded(grounding: Grounding) -> LogicKernel:
    """Two-valued kernel whose null comparisons follow the given grounding,
    built once per distinct grounding (its name and templates)."""
    and_t, or_t, not_t = _bool_tables("t", "f")
    # a constant template is its value, any other may depend on the
    # non-null argument
    constants = {ast.CTrue(): "t", ast.CFalse(): "f"}
    table = {cell: constants.get(t, t) for cell, t in grounding.templates.items()}
    kernel = LogicKernel(
        f"grounded:{grounding.name}", ("t", "f"), "t", "f", and_t, or_t, not_t, table
    )
    kernel.grounding = grounding
    return kernel


# ---------------------------------------------------------------------------
# Eventual periodicity of iterated folds


def periodicity(kernel: LogicKernel, value: TruthValue, conn: str) -> tuple[int, int]:
    """Smallest (lead, period bound) with fold(value, lead) = fold(value, p)
    and all shorter folds pairwise distinct.  Exists by pigeonhole; the
    search is capped at |values| + 2 iterations."""
    table = kernel.table(conn)
    seen: dict[TruthValue, int] = {}
    acc = value
    j = 1
    while True:
        if acc in seen:
            return seen[acc], j
        seen[acc] = j
        if j > len(kernel.values) + 2:
            raise KernelError("periodicity search exceeded the pigeonhole bound")
        acc = table[(acc, value)]
        j += 1


def reduce_count(n: int, lead: int, period: int) -> int:
    """Fold-length reduction: counts below the lead stay; others wrap into
    [lead, period)."""
    if n < lead:
        return n
    return lead + (n - lead) % (period - lead)


def fold_counted(kernel: LogicKernel, conn: str, counts: Mapping[TruthValue, int]) -> TruthValue:
    """Fold the connective over a counted multiset of truth values.

    Each count is first reduced through its eventual periodicity, so the
    call is cheap even for counts in the millions; associativity and
    commutativity make the value order irrelevant.
    """
    total = sum(counts.values())
    if total <= 0:
        raise KernelError("fold over an empty multiset")
    reduced = []
    for value in kernel.values:
        n = counts.get(value, 0)
        if n < 0:
            raise KernelError("negative multiplicity")
        lead, period = kernel.periodicity(value, conn)
        reduced.extend([value] * reduce_count(n, lead, period))
    return kernel.fold(conn, reduced)


# ---------------------------------------------------------------------------
# JSON definition files


def _json_object(obj, what: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise KernelError(f"{what} must be a JSON object")
    return obj


def _pattern_from_json(text: str, what: str) -> frozenset:
    """A null-pattern key: the null argument positions, "1", "2" or "12"."""
    if text not in _PATTERN_KEYS:
        raise KernelError(f'{what}: bad null pattern {text!r}; use "1", "2" or "12"')
    return _PATTERN_KEYS[text]


def _table_from_rows(values, rows, what) -> dict:
    n = len(values)
    if not isinstance(rows, (list, tuple)) or len(rows) != n or any(
        not isinstance(r, (list, tuple)) or len(r) != n for r in rows
    ):
        raise KernelError(f"{what}: table must be {n}x{n}, row-major")
    return {
        (values[i], values[j]): rows[i][j]
        for i in range(len(values))
        for j in range(len(values))
    }


def kernel_from_json(obj: Mapping) -> LogicKernel:
    def field(key):
        return required(obj, key, "kernel", KernelError)

    values = tuple(json_array(field("values"), 'kernel: "values"', KernelError))
    if not all(isinstance(v, str) for v in values):
        raise KernelError('kernel: "values" must be an array of strings')
    true, false = field("true"), field("false")
    and_t = _table_from_rows(values, field("and"), "and")
    or_t = _table_from_rows(values, field("or"), "or")
    nots = json_array(field("not"), 'kernel: "not"', KernelError)
    if len(nots) != len(values):
        raise KernelError("not: one entry per value required")
    not_t = {values[i]: nots[i] for i in range(len(values))}

    null_cmp = {}
    null_table = _json_object(obj.get("null_comparison", {}), 'kernel: "null_comparison"')
    for op, by_pattern in null_table.items():
        if op not in ast.COMPARISONS:
            raise KernelError(f"null_comparison: unknown comparison {op!r}")
        by_pattern = _json_object(by_pattern, f"null_comparison {op!r}")
        for pattern_text, value in by_pattern.items():
            pattern = _pattern_from_json(pattern_text, "null_comparison")
            if value not in values:
                raise KernelError(f"null_comparison: unknown value {value!r}")
            null_cmp[(op, pattern)] = value
    name = obj.get("name", "custom-mvl")
    return LogicKernel(name, values, true, false, and_t, or_t, not_t, null_cmp)


def load_kernel(path: str) -> LogicKernel:
    return kernel_from_json(read_json(path))


def grounding_from_json(obj: Mapping) -> Grounding:
    from .parser import parse_condition

    if not isinstance(obj, Mapping):
        raise KernelError("a grounding must be a JSON object")
    templates = {}
    for op, by_pattern in _json_object(obj.get("templates", {}), 'grounding: "templates"').items():
        where = f"templates {op!r}"
        for pattern_text, text in _json_object(by_pattern, where).items():
            pattern = _pattern_from_json(pattern_text, where)
            if not isinstance(text, str):
                raise KernelError(f"{where} {pattern_text!r}: the template must be a string")
            templates[(op, pattern)] = parse_condition(text)
    name = obj.get("name", "custom")
    if not isinstance(name, str):
        raise KernelError('grounding: "name" must be a string')
    return Grounding(name, templates)


def load_grounding(path: str) -> Grounding:
    return grounding_from_json(read_json(path))


# ---------------------------------------------------------------------------
# Semantics by name, resolved here for the CLI, the harness and replay

KERNELS: dict[str, Callable[[], LogicKernel]] = {
    "3vl": kernel_3vl,
    "2vl": kernel_2vl,
    "2vl-syn": kernel_2vl_syntactic,
    "4vl": kernel_4vl_example,
}

GROUNDINGS: dict[str, Callable[[], Grounding]] = {
    "empty": empty_grounding,
    "syntactic": syntactic_equality_grounding,
    "leq-sign": nonnegative_leq_grounding,
}

# Each translation direction's source and target, as `kernel_by_name` names
# whose "{}" holds the value of the direction's flag (`flag_of`).  A
# translation into a target with "{}" holds for every value, so only a
# source needs one.  `translate.direction` runs them.
DIRECTIONS: dict[str, tuple[str, str]] = {
    "2to3": ("2vl", "3vl"),
    "3to2": ("3vl", "2vl"),
    "gr-to-3": ("grounded:{}", "3vl"),
    "3-to-gr": ("3vl", "grounded:{}"),
    "mvl-to-3": ("{}", "3vl"),
}


def flag_of(name: str) -> str | None:
    """The flag whose value fills direction `name`'s "{}", if it has one."""
    if not isinstance(name, str) or name not in DIRECTIONS:
        raise NullvlError(f"unknown direction {name!r}")
    for semantics in DIRECTIONS[name]:
        if "{}" in semantics:
            return "grounding" if semantics.startswith("grounded:") else "kernel"
    return None


def _by_name(spec, what: str, built_ins: Mapping, load: Callable):
    """A built-in by name, else `load(spec)` of a file."""
    if not isinstance(spec, str):
        raise KernelError(f"a {what} name must be a string, not {spec!r}")
    if spec in built_ins:
        return built_ins[spec]()
    try:
        return load(spec)
    except (FileNotFoundError, IsADirectoryError):
        raise KernelError(f"unknown {what} {spec!r}: no such file, and no built-in "
                          f"{what} of that name ({', '.join(built_ins)})") from None


def grounding_by_name(spec) -> Grounding:
    """A built-in grounding, otherwise a grounding JSON file."""
    return _by_name(spec, "grounding", GROUNDINGS, load_grounding)


def kernel_by_name(spec) -> LogicKernel:
    """A built-in kernel, `grounded:<grounding>`, or a kernel JSON file with
    or without the `mvl:` prefix.  A built-in kernel or grounding is built
    once per process and a grounded kernel once per distinct grounding; a
    file is read on every call."""
    if isinstance(spec, str) and spec.startswith("grounded:"):
        return kernel_grounded(grounding_by_name(spec.removeprefix("grounded:")))
    return _by_name(spec, "kernel", KERNELS, lambda path: load_kernel(path.removeprefix("mvl:")))
