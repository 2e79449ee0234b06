"""Syntactic translations between condition semantics.

Each translator rewrites selection conditions through a pair of mappings:
one producing a condition that is true under the target semantics exactly
when the source condition is true, the other doing the same for "false".
Expressions translate by replacing every selection condition with its
"true" image; the output evaluates, under the target semantics, to the same
bag as the input under the source semantics, on every database.

Two cores hold the rules.  `_TwoValuedSourceTranslator` serves the fixed
directions between 2VL and 3VL (2to3, 3to2 and 3-to-gr); `_FromMVL` serves
every direction from a kernel given as a value: mvl-to-3 with any finite
kernel, and gr-to-3 with a grounding's two-valued kernel
(`logic.kernel_grounded`).  It reads each comparison's condition templates
from the kernel, which derives them from its one NULL table
(`LogicKernel.template`).

Each entry point typechecks its input once, as `evaluate` does, and
translates the checked tree; a translator reads the labels of every node it
needs them for from the `typecheck` notes of that tree.  Translation keeps
the labels of every node, so a translated subquery has its input's labels.

The translations are purely syntactic and deterministic; no simplification
pass runs afterwards.  Fresh names introduced here carry the reserved
prefix ``__``.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable, Mapping, Optional

from . import ast
from .errors import EvalError, NullvlError, RecursionLimitError
from .evaluator import EvalConfig, evaluate
from .logic import (
    AND,
    OR,
    Grounding,
    LogicKernel,
    fold_counted,
    kernel_2vl,
    kernel_3vl,
    kernel_grounded,
)
from .typecheck import Checked, RelSig, typecheck
from .values import Bag, Database, Schema

COUNT_LABEL = "__cnt"
REDUCED_LABEL = "__red"


@dataclass(frozen=True)
class TranslationResult:
    output: ast.Expression
    size_ratio: Fraction
    trace: tuple[tuple[str, str], ...]  # (node path, rule that fired)

    def trace_json(self) -> list[dict]:
        return [{"path": path, "rule": rule} for path, rule in self.trace]


def _not_null(term: ast.Term) -> ast.Condition:
    return ast.Not(ast.IsNull(term))


def _cols(labels: tuple[str, ...]) -> tuple[ast.Term, ...]:
    return tuple(ast.NameRef(n) for n in labels)


class _Translator:
    """Shared recursion over expressions; subclasses provide condition rules."""

    def __init__(self, notes: Mapping[int, RelSig]):
        self.notes = notes  # the `typecheck` notes of the translated tree
        self.trace: list[tuple[str, str]] = []
        self._fresh = 0

    # -- public -------------------------------------------------------------

    def run(self, e: ast.Expression) -> TranslationResult:
        out = self.expr(e, "")
        ratio = Fraction(ast.expression_size(out), ast.expression_size(e))
        return TranslationResult(out, ratio, tuple(self.trace))

    # -- helpers ------------------------------------------------------------

    def _note(self, path: str, rule: str):
        self.trace.append((path, rule))

    def _fresh_name(self, hint: str) -> str:
        self._fresh += 1
        return f"__{hint}{self._fresh}"

    def subquery(self, e: ast.Expression, path: str, avoid: set[str]):
        """Translate a condition subquery; rename its output labels when they
        collide with names the surrounding condition must keep visible."""
        out = self.expr(e, path)
        labels = self.notes[id(e)].labels
        if not (set(labels) & avoid):
            return out, labels
        fresh = tuple(self._fresh_name("c") for _ in labels)
        self._note(path, "rename-subquery-labels")
        renamed = ast.Projection(
            tuple(ast.ProjItem(ast.NameRef(n), f) for n, f in zip(labels, fresh)), out
        )
        return renamed, fresh

    def _avoid(self, items: tuple[ast.Term, ...]) -> set[str]:
        out: set[str] = set()
        for item in items:
            out |= ast.term_names(item)
        return out

    # -- expression recursion -------------------------------------------------

    def expr(self, e: ast.Expression, path: str) -> ast.Expression:
        if isinstance(e, ast.BaseRelation):
            return e
        if isinstance(e, ast.Projection):
            return ast.Projection(e.items, self.expr(e.source, path + "/src"))
        if isinstance(e, ast.Selection):
            cond = self.cond_true(e.cond, path + "/cond")
            return ast.Selection(cond, self.expr(e.source, path + "/src"))
        if isinstance(e, ast.Product):
            return ast.Product(self.expr(e.left, path + "/l"), self.expr(e.right, path + "/r"))
        if isinstance(e, ast.SetOp):
            return ast.SetOp(e.op, self.expr(e.left, path + "/l"), self.expr(e.right, path + "/r"))
        if isinstance(e, ast.Distinct):
            return ast.Distinct(self.expr(e.source, path + "/src"))
        if isinstance(e, ast.Group):
            return ast.Group(e.names, e.aggs, self.expr(e.source, path + "/src"))
        if isinstance(e, ast.Mu):
            seed, step = self.expr(e.seed, path + "/seed"), self.expr(e.step, path + "/step")
            return ast.Mu(e.rel, e.distinct, seed, step)
        raise NullvlError(f"not an expression: {e!r}")

    # -- condition hooks ------------------------------------------------------

    def cond_true(self, c: ast.Condition, path: str) -> ast.Condition:
        raise NotImplementedError


class _TwoValuedSourceTranslator(_Translator):
    """The rules shared by the translators between 2VL and 3VL: each
    condition gets a true image and a false image.

    A direction supplies `compare`, the image of one atomic comparison, and
    sets the flags below where its rules deviate from the shared ones.
    """

    # the false image of TRUE/FALSE is `not c` rather than the opposite constant
    negate_constants = False
    # the true image of membership and quantified comparisons goes through
    # selection emptiness instead of keeping their shape
    via_emptiness = False

    def cond_true(self, c, path):
        return self.image(c, False, path)

    def image(self, c: ast.Condition, negate: bool, path: str) -> ast.Condition:
        if isinstance(c, (ast.And, ast.Or)):
            conn = ast.And if isinstance(c, ast.And) != negate else ast.Or
            return conn(self.image(c.left, negate, path + ".l"), self.image(c.right, negate, path + ".r"))
        if isinstance(c, ast.Not):
            self._note(path, "false-of-negation" if negate else "true-of-negation")
            return self.image(c.cond, not negate, path + ".n")
        if isinstance(c, (ast.CTrue, ast.CFalse, ast.IsNull)):
            if not negate:
                return c
            if isinstance(c, ast.IsNull) or self.negate_constants:
                return ast.Not(c)
            return ast.CFalse() if isinstance(c, ast.CTrue) else ast.CTrue()
        if isinstance(c, ast.Compare):
            if len(c.lhs) > 1:
                return self.image(ast.expand_tuple_comparison(c.lhs, c.op, c.rhs), negate, path)
            return self.compare(c, negate, path)
        if isinstance(c, ast.Empty) or (
            isinstance(c, (ast.In, ast.Quant)) and not (negate or self.via_emptiness)
        ):
            kept = dataclasses.replace(c, query=self.expr(c.query, path + "/q"))
            return ast.Not(kept) if negate else kept
        if isinstance(c, ast.In):
            return self.image(ast.Quant(c.items, "=", "any", c.query), negate, path)
        if isinstance(c, ast.Quant):
            query, labels = self.subquery(c.query, path + "/q", self._avoid(c.items))
            cmp_ = ast.Compare(c.items, c.op, _cols(labels))
            return self.quantified(c.quant, cmp_, query, negate, path)
        raise NullvlError(f"not a condition: {c!r}")

    def compare(self, c: ast.Compare, negate: bool, path: str) -> ast.Condition:
        raise NotImplementedError

    def quantified(self, quant, cmp_, query, negate, path) -> ast.Condition:
        """The image of `cmp_` quantified (`any` or `all`) over the records
        of the translated subquery `query`."""
        theta = self.image(cmp_, negate, path + ".cmp")
        if not negate:
            if quant == "any":
                return ast.Not(ast.Empty(ast.Selection(theta, query)))
            return ast.Empty(ast.Selection(ast.Not(theta), query))
        if quant == "any":
            self._note(path, "any-false-emptiness")
            return ast.Empty(ast.Selection(ast.Not(theta), query))
        self._note(path, "all-false-witness")
        return ast.Not(ast.Empty(ast.Selection(theta, query)))


def _not_null_guarded(c: ast.Compare, negate: bool) -> ast.Condition:
    core: ast.Condition = ast.Not(c) if negate else c
    return ast.and_all([_not_null(c.lhs[0]), _not_null(c.rhs[0]), core])


class _From2VL(_TwoValuedSourceTranslator):
    """Conflating two-valued conditions into three-valued equivalents."""

    def compare(self, c, negate, path):
        if not negate:
            self._note(path, "compare-kept")
            return c
        self._note(path, "compare-null-guarded")
        return ast.or_all([ast.IsNull(c.lhs[0]), ast.IsNull(c.rhs[0]), ast.Not(c)])

    def image(self, c, negate, path):
        if not (negate and isinstance(c, ast.In)):
            return super().image(c, negate, path)
        # keep the membership shape, filtering null records out of the
        # subquery so the negated membership cannot come out unknown
        self._note(path, "in-null-filtered")
        query, labels = self.subquery(c.query, path + "/q", self._avoid(c.items))
        null_free = ast.and_all([_not_null(ast.NameRef(n)) for n in labels])
        kept = ast.Not(ast.In(c.items, ast.Selection(null_free, query)))
        return ast.or_all([ast.IsNull(t) for t in c.items] + [kept])


class _From3VL(_TwoValuedSourceTranslator):
    """Three-valued conditions into conflating two-valued equivalents."""

    negate_constants = True

    def compare(self, c, negate, path):
        if not negate:
            self._note(path, "compare-kept")
            return c
        self._note(path, "compare-not-null-guarded")
        return _not_null_guarded(c, negate)


class _From3VLToGrounded(_From3VL):
    """Three-valued conditions into grounded two-valued equivalents.

    Compared with the conflating target, every comparison needs explicit
    non-null guards (a grounding may make null comparisons true), and the
    quantified conditions go through selection emptiness on both polarities
    rather than keeping their shape.  The guards pin every comparison to the
    no-nulls case, where all groundings agree with the standard comparison,
    so one output is valid under every grounded two-valued target.
    """

    via_emptiness = True

    def compare(self, c, negate, path):
        self._note(path, "compare-not-null-guarded")
        return _not_null_guarded(c, negate)


class _FromMVL(_Translator):
    """Conditions under a finite kernel (many-valued, or the two-valued
    kernel of a grounding) into three-valued equivalents.

    For each truth value the translated condition is true exactly when the
    source condition takes that value.  Three rules keep the output small
    (and/or/not conditions stay within 4x their size under the 3vl and 4vl
    kernels; the truth-table cells no operand absorbs are still enumerated):

    - absorbing operand: an And/Or operand value that gives the wanted value
      whatever the other operand is becomes one disjunct naming that operand
      alone; only the truth-table cells neither operand absorbs are
      enumerated as conjunctions;
    - don't-care counts: quantified conditions cannot just recurse (the fold
      size depends on the data), so they count, per truth value, how many
      subquery records compare to it, and reduce each count through its
      eventual periodicity.  The reduced count profiles whose fold is the
      wanted value are merged, as in an implicant merge, wherever the
      profiles of one position's whole range agree on every other
      position; a merged position needs no count at all;
    - idempotent values: a value whose fold is itself at every length (lead
      1, period 2) only asks whether any record compares to it, which is
      selection non-emptiness rather than a count reduced modulo 1.
    """

    def __init__(self, notes: Mapping[int, RelSig], kernel: LogicKernel):
        super().__init__(notes)
        self.kernel = kernel

    def cond_true(self, c, path):
        return self.cond_value(c, self.kernel.true, path)

    def cond_value(self, c: ast.Condition, tau, path: str) -> ast.Condition:
        kernel = self.kernel
        if isinstance(c, ast.CTrue):
            return ast.CTrue() if tau == kernel.true else ast.CFalse()
        if isinstance(c, ast.CFalse):
            return ast.CTrue() if tau == kernel.false else ast.CFalse()
        if isinstance(c, ast.IsNull):
            if tau == kernel.true:
                return c
            if tau == kernel.false:
                return ast.Not(c)
            return ast.CFalse()
        if isinstance(c, ast.Compare):
            if len(c.lhs) > 1:
                return self.cond_value(
                    ast.expand_tuple_comparison(c.lhs, c.op, c.rhs), tau, path
                )
            self._note(path, f"compare-template:{tau}")
            return kernel.template(c.op, tau, c.lhs[0], c.rhs[0])
        if isinstance(c, ast.Empty):
            query = self.expr(c.query, path + "/q")
            if tau == kernel.true:
                return ast.Empty(query)
            if tau == kernel.false:
                return ast.Not(ast.Empty(query))
            return ast.CFalse()
        if isinstance(c, ast.In):
            return self._counted(c.items, "=", c.query, OR, tau, path)
        if isinstance(c, ast.Quant):
            conn = OR if c.quant == "any" else AND
            return self._counted(c.items, c.op, c.query, conn, tau, path)
        if isinstance(c, (ast.And, ast.Or)):
            return self._connective(c, tau, path)
        if isinstance(c, ast.Not):
            disjuncts = [
                self.cond_value(c.cond, t1, path + ".n")
                for t1 in kernel.values
                if kernel.not_table[t1] == tau
            ]
            self._note(path, f"negation-cases:{tau}")
            return ast.or_all(disjuncts)
        raise NullvlError(f"not a condition: {c!r}")

    def _connective(self, c: ast.And | ast.Or, tau, path: str) -> ast.Condition:
        values = self.kernel.values
        table = self.kernel.and_table if isinstance(c, ast.And) else self.kernel.or_table
        # operand values that give tau whatever the other operand's value;
        # kernel tables are commutative, so they absorb on either side
        absorbing = [a for a in values if all(table[(a, b)] == tau for b in values)]
        disjuncts = [self.cond_value(c.left, a, path + ".l") for a in absorbing]
        disjuncts += [self.cond_value(c.right, b, path + ".r") for b in absorbing]
        if absorbing:
            self._note(path, f"connective-absorbed:{tau}")
        cells = [
            (a, b) for a, b in iter_product(values, repeat=2)
            if table[(a, b)] == tau and a not in absorbing and b not in absorbing
        ]
        for a, b in cells:
            disjuncts.append(
                ast.And(self.cond_value(c.left, a, path + ".l"), self.cond_value(c.right, b, path + ".r"))
            )
        if cells or not absorbing:
            self._note(path, f"connective-cases:{tau}")
        return ast.or_all(disjuncts)

    def _counted(self, items, op, query, conn, tau, path) -> ast.Condition:
        kernel = self.kernel
        avoid = self._avoid(items) | {COUNT_LABEL, REDUCED_LABEL}
        base, labels = self.subquery(query, path + "/q", avoid)

        periods = [kernel.periodicity(v, conn) for v in kernel.values]
        profiles = []
        for profile in iter_product(*(range(p) for (_l, p) in periods)):
            if all(m == 0 for m in profile):
                value = kernel.false if conn == OR else kernel.true
            else:
                value = fold_counted(kernel, conn, dict(zip(kernel.values, profile)))
            if value == tau:
                profiles.append(profile)
        self._note(path, f"count-profiles:{tau}:{len(profiles)}")
        merged = _merge_profiles(profiles, [p for (_l, p) in periods])
        if len(merged) < len(profiles):
            self._note(path, f"count-dont-care:{tau}:{len(merged)}")

        # the per-value selections of the positions some profile still counts
        compare = ast.Compare(items, op, _cols(labels))
        selections = {}
        for i in sorted({i for profile in merged for i, m in enumerate(profile) if m is not None}):
            value = kernel.values[i]
            per_row = self.cond_value(compare, value, path + f".cnt[{value}]")
            selections[i] = ast.Selection(per_row, base)

        disjuncts = []
        for profile in merged:
            conjs = [
                self._count_matches(selections[i], m, periods[i], path)
                for i, m in enumerate(profile)
                if m is not None
            ]
            disjuncts.append(ast.and_all(conjs))
        return ast.or_all(disjuncts)

    def _count_matches(self, selected: ast.Selection, m: int, lead_period, path) -> ast.Condition:
        lead, period = lead_period
        if m == 0:
            return ast.Empty(selected)
        if (lead, period) == (1, 2):
            self._note(path, "count-idempotent")
            return ast.Not(ast.Empty(selected))
        counted = ast.Group(
            (), (ast.AggItem("count_star", None, COUNT_LABEL),), selected
        )
        if m < lead:
            return ast.Quant((ast.num(m),), "=", "any", counted)
        modulus = period - lead
        reduced = ast.Projection(
            (
                ast.ProjItem(
                    ast.FnApply(
                        "mod",
                        (
                            ast.FnApply("sub", (ast.NameRef(COUNT_LABEL), ast.num(lead))),
                            ast.num(modulus),
                        ),
                    ),
                    REDUCED_LABEL,
                ),
            ),
            ast.Selection(
                ast.Compare((ast.NameRef(COUNT_LABEL),), ">=", (ast.num(lead),)), counted
            ),
        )
        return ast.Quant((ast.num(m - lead),), "=", "any", reduced)


def _merge_profiles(profiles: list[tuple], sizes: list[int]) -> list[tuple]:
    """Merge count profiles that differ in one position and together cover
    its whole range `range(size)` into one profile with None (any count)
    there, until nothing merges.  The profiles stay disjoint, and a merged
    profile takes the place of the first profile it replaces."""
    out = list(profiles)
    merging = True
    while merging:
        merging = False
        for i, size in enumerate(sizes):
            groups: dict[tuple, list[tuple]] = {}
            for prof in out:
                if prof[i] is not None:
                    groups.setdefault(prof[:i] + (None,) + prof[i + 1:], []).append(prof)
            into = {p: key for key, members in groups.items() if len(members) == size for p in members}
            if into:
                merging = True
                out = list(dict.fromkeys(into.get(p, p) for p in out))
    return out


# ---------------------------------------------------------------------------
# Public entry points


def _translate(make: Callable, expr: ast.Expression, schema: Schema, *args) -> TranslationResult:
    """Typecheck `expr` once and translate the checked tree with the
    translator `make(notes, *args)`."""
    checked = typecheck(expr, schema)
    return make(checked.notes, *args).run(checked.expr)


def tr_to_3vl(expr: ast.Expression, schema: Schema) -> TranslationResult:
    """Rewrite a query written under the conflating two-valued semantics so it
    evaluates identically under the three-valued semantics."""
    return _translate(_From2VL, expr, schema)


def tr_from_3vl(expr: ast.Expression, schema: Schema) -> TranslationResult:
    """Rewrite a query written under the three-valued semantics so it
    evaluates identically under the conflating two-valued semantics."""
    return _translate(_From3VL, expr, schema)


def tr_grounded_to_3vl(
    expr: ast.Expression, schema: Schema, grounding: Grounding
) -> TranslationResult:
    """Rewrite a query written under the grounding's two-valued semantics so
    it evaluates identically under the three-valued semantics."""
    return _translate(_FromMVL, expr, schema, kernel_grounded(grounding))


def tr_3vl_to_grounded(expr: ast.Expression, schema: Schema) -> TranslationResult:
    return _translate(_From3VLToGrounded, expr, schema)


def tr_mvl_to_3vl(
    expr: ast.Expression, schema: Schema, kernel: LogicKernel
) -> TranslationResult:
    return _translate(_FromMVL, expr, schema, kernel)


@dataclass(frozen=True)
class Direction:
    """A translation direction and the kernels its capture equation uses.

    `param` names what the entry is parameterized by ("grounding" or
    "kernel"); `translate(expr, schema, param)`, `source(param)` and
    `target(param)` receive its value.  A translation whose output holds for
    every value of the parameter (`translation_uses_param` false) gets None.
    """

    translate: Callable[[ast.Expression, object, object], TranslationResult]
    source: Callable[[object], LogicKernel]
    target: Callable[[object], LogicKernel]
    param: Optional[str] = None
    translation_uses_param: bool = True


# the lambdas look the functions up at call time, so rebinding a module
# global (as a tracer does) reaches every caller of the registry
DIRECTIONS: dict[str, Direction] = {
    "2to3": Direction(
        lambda e, s, _: tr_to_3vl(e, s), lambda _: kernel_2vl(), lambda _: kernel_3vl()
    ),
    "3to2": Direction(
        lambda e, s, _: tr_from_3vl(e, s), lambda _: kernel_3vl(), lambda _: kernel_2vl()
    ),
    "gr-to-3": Direction(
        lambda e, s, g: tr_grounded_to_3vl(e, s, g),
        lambda g: kernel_grounded(g),
        lambda _: kernel_3vl(),
        param="grounding",
    ),
    "3-to-gr": Direction(
        lambda e, s, _: tr_3vl_to_grounded(e, s),
        lambda _: kernel_3vl(),
        lambda g: kernel_grounded(g),
        param="grounding",
        translation_uses_param=False,
    ),
    "mvl-to-3": Direction(
        lambda e, s, k: tr_mvl_to_3vl(e, s, k), lambda k: k, lambda _: kernel_3vl(),
        param="kernel",
    ),
}


# ---------------------------------------------------------------------------
# The capture oracle


@dataclass
class Verdict:
    status: str  # "equal" | "not-equal" | "inconclusive"
    left: Optional[Bag]
    right: Optional[Bag]
    size_ratio: Optional[Fraction]
    detail: str = ""

    @property
    def equal(self) -> bool:
        return self.status == "equal"


def check_capture(
    expr: ast.Expression | Checked,
    db: Database,
    source_cfg: EvalConfig,
    target_cfg: EvalConfig,
    translation: TranslationResult,
) -> Verdict:
    """Evaluate both sides of a capture equation and compare the bags.  The
    source side may be the `Checked` that `typecheck` returned for the
    database's schema, which is then not typechecked again."""
    try:
        left = evaluate(expr, db, cfg=source_cfg)
        right = evaluate(translation.output, db, cfg=target_cfg)
    except (RecursionLimitError, EvalError) as exc:
        return Verdict("inconclusive", None, None, translation.size_ratio, str(exc))
    status = "equal" if left == right else "not-equal"
    return Verdict(status, left, right, translation.size_ratio)
